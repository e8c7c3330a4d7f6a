//! Claim B.1: a **single** adversary controls `Basic-LEAD`.
//!
//! The adversary stays silent at wake-up, collects the other `n − 1`
//! secrets (they pile up on its incoming link because every honest
//! processor forwards), then "chooses" its own value to cancel the sum to
//! the target, and finally replays the collected values so that every
//! honest processor sees exactly the sequence an honest-but-slow
//! processor would have produced.

use crate::AttackError;
use fle_core::protocols::{BasicLead, BasicNode, TrialCache};
use fle_core::{Execution, Node, NodeId};
use ring_sim::Ctx;

/// [`TrialCache`] for the single-deviator fast path: honest positions run
/// the concrete [`BasicNode`], the one coalition slot runs the concrete
/// [`WaitAndCancel`] — the whole mix is monomorphized, zero boxes.
pub type BasicSingleCache = TrialCache<u64, BasicNode, WaitAndCancel>;

/// The Claim B.1 single-adversary attack on [`BasicLead`].
///
/// # Examples
///
/// ```
/// use fle_attacks::BasicSingleAttack;
/// use fle_core::protocols::BasicLead;
/// use ring_sim::Outcome;
///
/// let protocol = BasicLead::new(8).with_seed(11);
/// let exec = BasicSingleAttack::new(3, 5).run(&protocol).unwrap();
/// assert_eq!(exec.outcome, Outcome::Elected(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicSingleAttack {
    adversary: NodeId,
    target: u64,
}

impl BasicSingleAttack {
    /// An adversary at ring position `adversary` forcing leader `target`.
    pub fn new(adversary: NodeId, target: u64) -> Self {
        Self { adversary, target }
    }

    /// The adversary's position.
    pub fn adversary(&self) -> NodeId {
        self.adversary
    }

    /// The forced leader.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Builds the adversarial node.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Infeasible`] if the position or target is out
    /// of range for the protocol instance.
    pub fn adversary_node(
        &self,
        protocol: &BasicLead,
    ) -> Result<(NodeId, Box<dyn Node<u64>>), AttackError> {
        let (pos, node) = self.adversary_ring_node(protocol)?;
        Ok((pos, Box::new(node)))
    }

    /// [`BasicSingleAttack::adversary_node`] as the concrete
    /// [`WaitAndCancel`] type — the form a [`BasicSingleCache`] stores
    /// unboxed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BasicSingleAttack::adversary_node`].
    pub fn adversary_ring_node(
        &self,
        protocol: &BasicLead,
    ) -> Result<(NodeId, WaitAndCancel), AttackError> {
        let n = fle_core::protocols::FleProtocol::n(protocol);
        if self.adversary >= n {
            return Err(AttackError::Infeasible(format!(
                "adversary position {} out of range for n={n}",
                self.adversary
            )));
        }
        if self.target >= n as u64 {
            return Err(AttackError::Infeasible(format!(
                "target {} out of range for n={n}",
                self.target
            )));
        }
        Ok((
            self.adversary,
            WaitAndCancel {
                n: n as u64,
                w: self.target,
                collected: Vec::with_capacity(n - 1),
            },
        ))
    }

    /// Runs the deviation against a protocol instance.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Infeasible`] when preconditions fail.
    pub fn run(&self, protocol: &BasicLead) -> Result<Execution, AttackError> {
        let node = self.adversary_node(protocol)?;
        Ok(protocol.run_with(vec![node]))
    }
}

/// The adversary: silent at wake-up; after `n − 1` receives it knows every
/// other secret, emits `w − Σ others (mod n)` and replays the collected
/// values in arrival order (exactly what an honest node would have sent).
///
/// Public as a concrete type so a [`BasicSingleCache`] can store it
/// unboxed; build it with [`BasicSingleAttack::adversary_ring_node`].
pub struct WaitAndCancel {
    n: u64,
    w: u64,
    collected: Vec<u64>,
}

impl Node<u64> for WaitAndCancel {
    fn on_wake(&mut self, _ctx: &mut Ctx<'_, u64>) {
        // Deviation: do not commit to a value yet.
    }

    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        let m = msg % self.n;
        self.collected.push(m);
        if self.collected.len() == (self.n - 1) as usize {
            let others: u64 = self.collected.iter().sum::<u64>() % self.n;
            let own = (self.w + self.n - others % self.n) % self.n;
            ctx.send(own);
            for &v in &self.collected {
                ctx.send(v);
            }
            ctx.terminate(Some(self.w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fle_core::protocols::FleProtocol;
    use ring_sim::Outcome;

    #[test]
    fn controls_every_target_from_every_position() {
        let n = 7;
        for seed in 0..3 {
            let protocol = BasicLead::new(n).with_seed(seed);
            for adv in 0..n {
                for w in 0..n as u64 {
                    let exec = BasicSingleAttack::new(adv, w)
                        .run(&protocol)
                        .expect("feasible");
                    assert_eq!(
                        exec.outcome,
                        Outcome::Elected(w),
                        "seed={seed} adv={adv} w={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn honest_processors_do_not_detect() {
        // Success implies every honest processor passed validation and all
        // outputs agree; additionally everyone sent exactly n messages.
        let protocol = BasicLead::new(9).with_seed(4);
        let exec = BasicSingleAttack::new(2, 0).run(&protocol).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(0));
        assert!(exec.stats.sent.iter().all(|&s| s == 9));
    }

    #[test]
    fn rejects_out_of_range() {
        let protocol = BasicLead::new(4).with_seed(0);
        assert!(BasicSingleAttack::new(9, 0).run(&protocol).is_err());
        assert!(BasicSingleAttack::new(0, 9).run(&protocol).is_err());
    }

    #[test]
    fn attack_is_a_profitable_deviation() {
        // The adversary's indicator utility rises from ~1/n to 1 — the
        // paper's notion of a non-resilient protocol (Claim B.1).
        use fle_core::game::RationalUtility;
        let n = 8usize;
        let adv = 5usize;
        let u = RationalUtility::indicator(n, adv);
        let mut honest_hits = 0.0;
        let mut attack_hits = 0.0;
        let trials = 400;
        for seed in 0..trials {
            let p = BasicLead::new(n).with_seed(seed);
            honest_hits += u.of(p.run_honest().outcome);
            let exec = BasicSingleAttack::new(adv, adv as u64).run(&p).unwrap();
            attack_hits += u.of(exec.outcome);
        }
        let honest = honest_hits / trials as f64;
        let attacked = attack_hits / trials as f64;
        assert!(honest < 0.3, "honest expected utility {honest}");
        assert!((attacked - 1.0).abs() < 1e-12);
    }
}
