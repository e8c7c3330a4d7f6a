//! The cubic-style burst attack **adapted to** `PhaseAsyncLead` — the
//! attack the phase-validation mechanism is designed to defeat (paper
//! Section 6's motivation).
//!
//! The cubic attack's essence is desynchronization: bursting `k − 1`
//! extra data messages pushes information along the ring faster than the
//! honest round structure allows. In `PhaseAsyncLead` every data message
//! must be matched by a validation message carrying the current round's
//! value `v_r`. A bursting adversary has not seen the values of future
//! rounds, so it must *guess* them (probability `1/m = 1/(2n²)` each);
//! the round's validator detects the mismatch and aborts. This attack is
//! therefore expected to **fail** for every coalition — the experiments
//! measure its detection rate, reproducing the paper's claim that
//! `PhaseAsyncLead` closes the cubic loophole.

use crate::AttackError;
use fle_core::protocols::{FleProtocol, PhaseAsyncLead, PhaseMsg, RingProtocol};
use fle_core::{Coalition, DeviationNodes, Execution, Node, NodeId};
use ring_sim::rng::SplitMix64;
use ring_sim::Ctx;

/// The (doomed) burst attack on [`PhaseAsyncLead`].
///
/// # Examples
///
/// ```
/// use fle_attacks::PhaseBurstAttack;
/// use fle_core::protocols::PhaseAsyncLead;
/// use fle_core::Coalition;
///
/// let n = 30;
/// let protocol = PhaseAsyncLead::new(n).with_seed(3).with_fn_key(1);
/// let coalition = Coalition::equally_spaced(n, 5, 1).unwrap();
/// let exec = PhaseBurstAttack::new(7).run(&protocol, &coalition).unwrap();
/// // The phase validation catches the desynchronization:
/// assert!(exec.outcome.is_fail());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBurstAttack {
    target: u64,
}

impl PhaseBurstAttack {
    /// An attack attempting (and failing) to force `target`.
    pub fn new(target: u64) -> Self {
        Self { target }
    }

    /// The (unreachable) target leader.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Builds the deviation nodes.
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] on ring-size mismatch, an out-of-range
    /// target, or a corrupted origin (which must behave honestly and
    /// contributes nothing to the burst).
    pub fn adversary_nodes(
        &self,
        protocol: &PhaseAsyncLead,
        coalition: &Coalition,
    ) -> Result<DeviationNodes<PhaseMsg>, AttackError> {
        let n = protocol.n();
        if coalition.n() != n {
            return Err(AttackError::Infeasible(format!(
                "coalition is for n={}, protocol has n={n}",
                coalition.n()
            )));
        }
        if self.target >= n as u64 {
            return Err(AttackError::Infeasible(format!(
                "target {} out of range for n={n}",
                self.target
            )));
        }
        if coalition.contains(0) {
            return Err(AttackError::Infeasible(
                "corrupted origin must behave honestly; pick positions >= 1".into(),
            ));
        }
        let params = protocol.params();
        let k = coalition.k();
        Ok(coalition
            .positions()
            .iter()
            .zip(coalition.distances())
            .map(|(&pos, l_own)| {
                let node: Box<dyn Node<PhaseMsg>> = Box::new(Burster {
                    n,
                    k,
                    l_own,
                    m_range: params.m,
                    w: self.target,
                    rng: SplitMix64::new(0xb17b_0057 ^ pos as u64),
                    data_recv: 0,
                    sum: 0,
                    stored: Vec::with_capacity(n),
                });
                (pos, node)
            })
            .collect())
    }

    /// Runs the deviation against a protocol instance.
    ///
    /// # Errors
    ///
    /// Propagates [`PhaseBurstAttack::adversary_nodes`] errors.
    pub fn run(
        &self,
        protocol: &PhaseAsyncLead,
        coalition: &Coalition,
    ) -> Result<Execution, AttackError> {
        let nodes = self.adversary_nodes(protocol, coalition)?;
        Ok(protocol.run_with(nodes))
    }
}

/// A cubic adversary transplanted into the phase protocol: pipes both
/// channels, then bursts `k − 1` data messages padded with *guessed*
/// validation values for rounds it has not seen.
struct Burster {
    n: usize,
    k: usize,
    l_own: usize,
    m_range: u64,
    w: u64,
    rng: SplitMix64,
    data_recv: usize,
    sum: u64,
    stored: Vec<u64>,
}

impl Node<PhaseMsg> for Burster {
    fn on_message(&mut self, _from: NodeId, msg: PhaseMsg, ctx: &mut Ctx<'_, PhaseMsg>) {
        let pipe_until = self.n.saturating_sub(self.k + self.l_own);
        match msg {
            PhaseMsg::Data(x) => {
                let x = x % self.n as u64;
                self.data_recv += 1;
                let t = self.data_recv;
                if t <= self.n - self.k {
                    self.stored.push(x);
                    self.sum = (self.sum + x) % self.n as u64;
                }
                if t <= pipe_until {
                    ctx.send(PhaseMsg::Data(x));
                }
                if t == pipe_until {
                    // The cubic burst: k − 1 rushed data messages, each
                    // padded with a guessed validation value.
                    for _ in 0..self.k.saturating_sub(1) {
                        ctx.send(PhaseMsg::Data(0));
                        ctx.send(PhaseMsg::Val(self.rng.next_below(self.m_range)));
                    }
                }
                if t == self.n - self.k {
                    let correcting = (self.w + self.n as u64 - self.sum) % self.n as u64;
                    ctx.send(PhaseMsg::Data(correcting));
                    ctx.send(PhaseMsg::Val(self.rng.next_below(self.m_range)));
                    let from = self.n - self.k - self.l_own;
                    for i in from..self.stored.len() {
                        let v = self.stored[i];
                        ctx.send(PhaseMsg::Data(v));
                        ctx.send(PhaseMsg::Val(self.rng.next_below(self.m_range)));
                    }
                    ctx.terminate(Some(self.w));
                }
            }
            PhaseMsg::Val(y) => {
                // Forward validations only while piping; the burst already
                // emitted (guessed) substitutes for the rest.
                if self.data_recv < pipe_until {
                    ctx.send(PhaseMsg::Val(y));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_attack_always_fails() {
        for n in [16, 30, 64] {
            for seed in 0..5 {
                let protocol = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(seed);
                let k = (2.0 * (n as f64).cbrt()).ceil() as usize + 1;
                let coalition = Coalition::equally_spaced(n, k, 1).unwrap();
                let exec = PhaseBurstAttack::new(1).run(&protocol, &coalition).unwrap();
                assert!(
                    exec.outcome.is_fail(),
                    "n={n} seed={seed}: burst attack must be detected, got {:?}",
                    exec.outcome
                );
            }
        }
    }

    #[test]
    fn same_burst_succeeds_against_a_lead_uni() {
        // Control experiment: the identical desynchronization pattern is
        // exactly what the cubic attack exploits on A-LEADuni, so the
        // failure above is due to the phase mechanism, not the pattern.
        use crate::cubic::{cubic_distances, CubicAttack};
        use fle_core::protocols::ALeadUni;
        let n = 30;
        let plan = cubic_distances(n).unwrap();
        let protocol = ALeadUni::new(n).with_seed(3);
        let exec = CubicAttack::new(1).run(&protocol, &plan).unwrap();
        assert_eq!(exec.outcome.elected(), Some(1));
    }

    #[test]
    fn rejects_corrupted_origin() {
        let protocol = PhaseAsyncLead::new(12).with_seed(0).with_fn_key(0);
        let coalition = Coalition::new(12, vec![0, 4, 8]).unwrap();
        assert!(PhaseBurstAttack::new(0).run(&protocol, &coalition).is_err());
    }
}
