//! The single-guess deviation against `PhaseAsyncLead`'s validation
//! mechanism — the ablation that shows the validation-value range
//! `m = 2n²` is exactly the protocol's guessing resistance.
//!
//! The Section 6 resilience proof bounds the adversary's chance of
//! surviving with an *unvalidated* round by the probability of guessing
//! that round's value: `1/m`. This deviation isolates that mechanism:
//! one adversary substitutes a uniform guess for a single round's
//! validation value as it passes through. If the guess matches, nothing
//! ever diverges and the run succeeds; otherwise the round's validator
//! sees a foreign value and aborts. The measured survival rate is `1/m`
//! — negligible at the paper's `m = 2n²`, and large once `m` is shrunk
//! with [`PhaseAsyncLead::with_validation_range`] (the `ablate`
//! experiment's sweep).

use crate::AttackError;
use fle_core::protocols::{FleProtocol, PhaseAsyncLead, PhaseMsg};
use fle_core::{DeviationNodes, Execution, Node, NodeId};
use ring_sim::rng::SplitMix64;
use ring_sim::Ctx;

/// The single-guess validation deviation.
///
/// # Examples
///
/// ```
/// use fle_attacks::PhaseGuessAttack;
/// use fle_core::protocols::PhaseAsyncLead;
///
/// // At the paper's m = 2n² the guess never lands (over a few seeds).
/// let protocol = PhaseAsyncLead::new(12).with_seed(5).with_fn_key(2);
/// let exec = PhaseGuessAttack::new(6).run(&protocol).unwrap();
/// assert!(exec.outcome.is_fail());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseGuessAttack {
    position: NodeId,
}

impl PhaseGuessAttack {
    /// Places the guessing adversary at ring `position`.
    pub fn new(position: NodeId) -> Self {
        Self { position }
    }

    /// The adversary's ring position.
    pub fn position(&self) -> NodeId {
        self.position
    }

    /// Builds the deviation node: honest behaviour except that the first
    /// incoming validation value of a round validated by an *honest*
    /// processor is replaced by a uniform guess.
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] if the position is out of range or is
    /// the origin (whose validation flow differs; pick `1 ≤ p < n`).
    pub fn adversary_nodes(
        &self,
        protocol: &PhaseAsyncLead,
    ) -> Result<DeviationNodes<PhaseMsg>, AttackError> {
        let n = protocol.n();
        if self.position == 0 || self.position >= n {
            return Err(AttackError::Infeasible(format!(
                "guessing adversary needs a normal position 1..{n}, got {}",
                self.position
            )));
        }
        let node = Guesser {
            inner: protocol.honest_node(self.position),
            m: protocol.params().m,
            rng: SplitMix64::new(0x6e55 ^ protocol.seed()).derive(self.position as u64),
            vals_seen: 0,
            // The first validation value processor p receives is round
            // 1's (validator: processor 0 = the origin... 0-indexed the
            // validator of round r is processor r − 1). Replace round 2's
            // value — its validator (processor 1) is honest whenever the
            // adversary sits at p ≥ 2; for p = 1 replace round 3 instead
            // (processor 2 validates it).
            replace_at: if self.position == 1 { 2 } else { 1 },
            done: false,
        };
        Ok(vec![(self.position, Box::new(node))])
    }

    /// Runs the deviation. The outcome is valid with probability exactly
    /// `1/m` (the guess landing), `FAIL` otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`PhaseGuessAttack::adversary_nodes`] errors.
    pub fn run(&self, protocol: &PhaseAsyncLead) -> Result<Execution, AttackError> {
        Ok(protocol.run_with(self.adversary_nodes(protocol)?))
    }
}

/// Honest except for one substituted validation value.
struct Guesser {
    inner: Box<dyn Node<PhaseMsg>>,
    m: u64,
    rng: SplitMix64,
    vals_seen: usize,
    replace_at: usize,
    done: bool,
}

impl Node<PhaseMsg> for Guesser {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, PhaseMsg>) {
        self.inner.on_wake(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: PhaseMsg, ctx: &mut Ctx<'_, PhaseMsg>) {
        let msg = match msg {
            PhaseMsg::Val(_) if !self.done && self.vals_seen == self.replace_at => {
                self.done = true;
                PhaseMsg::Val(self.rng.next_below(self.m))
            }
            other => {
                if matches!(other, PhaseMsg::Val(_)) {
                    self.vals_seen += 1;
                }
                other
            }
        };
        self.inner.on_message(from, msg, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Survival rate of the guess over `trials` seeds.
    fn survival_rate(n: usize, m: Option<u64>, trials: u64) -> f64 {
        let mut ok = 0u64;
        for seed in 0..trials {
            let mut p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(seed ^ 9);
            if let Some(m) = m {
                p = p.with_validation_range(m);
            }
            let exec = PhaseGuessAttack::new(n / 2)
                .run(&p)
                .expect("valid position");
            if exec.outcome.elected().is_some() {
                ok += 1;
            }
        }
        ok as f64 / trials as f64
    }

    #[test]
    fn survival_tracks_one_over_m() {
        let trials = 400;
        let r2 = survival_rate(8, Some(2), trials);
        let r4 = survival_rate(8, Some(4), trials);
        let r16 = survival_rate(8, Some(16), trials);
        assert!((r2 - 0.5).abs() < 0.1, "m=2: {r2}");
        assert!((r4 - 0.25).abs() < 0.1, "m=4: {r4}");
        assert!((r16 - 1.0 / 16.0).abs() < 0.06, "m=16: {r16}");
    }

    #[test]
    fn paper_default_is_effectively_unguessable() {
        // m = 2n² = 128 at n = 8: expect ~0 survivals over 200 seeds.
        let rate = survival_rate(8, None, 200);
        assert!(rate < 0.05, "rate {rate}");
    }

    #[test]
    fn successful_guess_is_indistinguishable() {
        // With m = 1 every "guess" is trivially correct: the deviation is
        // a no-op and the run must succeed.
        let rate = survival_rate(8, Some(1), 50);
        assert_eq!(rate, 1.0);
    }

    #[test]
    fn origin_position_is_rejected() {
        let p = PhaseAsyncLead::new(8);
        assert!(PhaseGuessAttack::new(0).run(&p).is_err());
        assert!(PhaseGuessAttack::new(8).run(&p).is_err());
    }
}
