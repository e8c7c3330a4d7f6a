//! `Basic-LEAD` — the didactic non-resilient protocol (paper Appendix B).
//!
//! Every processor wakes up, broadcasts its secret value around the ring,
//! forwards everything it receives, and elects `Σ d_i (mod n)`. Fair when
//! everyone is honest, but a **single** adversary controls the outcome by
//! waiting for the other `n − 1` values before "choosing" its own
//! (Claim B.1, reproduced in `fle-attacks::basic_single`).

use super::{fold_mod, node_rng, run_ring, wrap_sub, FleProtocol, RingProtocol, TrialCache, Wakes};
use ring_sim::{ArenaBacked, Ctx, Execution, Node, NodeId, TrialArena};

/// [`TrialCache`] for `Basic-LEAD`'s boxed coalition mixes.
pub type BasicTrialCache = TrialCache<u64, BasicNode>;

/// The `Basic-LEAD` protocol instance.
///
/// # Examples
///
/// ```
/// use fle_core::protocols::{BasicLead, FleProtocol};
///
/// let exec = BasicLead::new(8).with_seed(5).run_honest();
/// let leader = exec.outcome.elected().unwrap();
/// assert!(leader < 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicLead {
    n: usize,
    seed: u64,
    values: Option<Vec<u64>>,
}

impl BasicLead {
    /// Creates an instance for a ring of `n` processors (seed 0).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "Basic-LEAD needs n >= 2");
        Self {
            n,
            seed: 0,
            values: None,
        }
    }

    /// Sets the randomness seed for the honest processors' secret values.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the honest secret values instead of drawing them from the
    /// seed — the injection point for [`crate::exact`]'s exhaustive input
    /// enumeration (the paper's probability space `χ = [n]^n`).
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `n` or a value is `≥ n`.
    pub fn with_values(mut self, values: Vec<u64>) -> Self {
        assert_eq!(values.len(), self.n, "need one value per processor");
        assert!(
            values.iter().all(|&d| d < self.n as u64),
            "values must be in [n]"
        );
        self.values = Some(values);
        self
    }

    /// The instance seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The pinned honest values installed by [`BasicLead::with_values`],
    /// if any — read by the batch-lockstep builder.
    pub(crate) fn pinned_values(&self) -> Option<&[u64]> {
        self.values.as_deref()
    }

    /// Builds the honest node for position `id` as a boxed trait object
    /// (for heterogeneous protocol/attack mixes).
    pub fn honest_node(&self, id: NodeId) -> Box<dyn Node<u64>> {
        Box::new(self.honest_ring_node(id))
    }

    /// Builds the honest node for position `id` as its concrete type — the
    /// monomorphized form the batch fast path stores in a plain `Vec`
    /// (no `Box`, no vtable per activation).
    pub fn honest_ring_node(&self, id: NodeId) -> BasicNode {
        let d = match &self.values {
            Some(vs) => vs[id],
            None => node_rng(self.seed, id).next_below(self.n as u64),
        };
        BasicNode {
            n: self.n as u64,
            d,
            sum: 0,
            round: 0,
        }
    }

    /// [`BasicLead::honest_ring_node`] with the uniform arena-aware batch
    /// surface; `BasicNode` holds no heap state, so the arena goes unused.
    pub fn honest_ring_node_in(&self, id: NodeId, _arena: &mut TrialArena) -> BasicNode {
        self.honest_ring_node(id)
    }

    /// Every processor wakes spontaneously in `Basic-LEAD`.
    pub fn wakes(&self) -> Vec<NodeId> {
        (0..self.n).collect()
    }

    /// Runs with the coalition positions replaced by `overrides`.
    pub fn run_with(&self, overrides: Vec<(NodeId, Box<dyn Node<u64>>)>) -> Execution {
        run_ring(
            self.n,
            |id| self.honest_node(id),
            overrides,
            &self.wakes(),
            None,
        )
    }
}

impl RingProtocol for BasicLead {
    type Msg = u64;
    type Node = BasicNode;
    const WAKES: Wakes = Wakes::All;

    fn seeded(&self, seed: u64) -> Self {
        self.clone().with_seed(seed)
    }

    fn honest_ring_node_in(&self, id: NodeId, arena: &mut TrialArena) -> BasicNode {
        BasicLead::honest_ring_node_in(self, id, arena)
    }
}

impl FleProtocol for BasicLead {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "Basic-LEAD"
    }

    fn run_honest(&self) -> Execution {
        self.run_with(Vec::new())
    }
}

/// Honest `Basic-LEAD` processor: broadcast own value, forward `n − 1`
/// others, validate that the own value returns last, output the sum.
///
/// Built by [`BasicLead::honest_ring_node`]; exposed as a concrete type so
/// honest sweeps store nodes in a plain `Vec<BasicNode>` and the engine
/// dispatches to it statically.
#[derive(Debug, Clone)]
pub struct BasicNode {
    n: u64,
    d: u64,
    sum: u64,
    round: u64,
}

/// `BasicNode` keeps only scalar state — nothing to reclaim.
impl ArenaBacked for BasicNode {}

impl Node<u64> for BasicNode {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(self.d);
    }

    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        let m = fold_mod(msg, self.n);
        self.round += 1;
        self.sum = wrap_sub(self.sum + m, self.n);
        if self.round < self.n {
            ctx.send(m);
        } else if m == self.d {
            ctx.terminate(Some(self.sum));
        } else {
            // Validation failed: the value that came full circle is not ours.
            ctx.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::honest_data_values;
    use ring_sim::Outcome;

    #[test]
    fn honest_run_elects_sum_of_values() {
        for n in [2, 3, 5, 16] {
            for seed in 0..5 {
                let p = BasicLead::new(n).with_seed(seed);
                let expected = honest_data_values(seed, n).iter().sum::<u64>() % n as u64;
                assert_eq!(
                    p.run_honest().outcome,
                    Outcome::Elected(expected),
                    "n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn every_processor_sends_and_receives_n() {
        let p = BasicLead::new(7).with_seed(1);
        let exec = p.run_honest();
        assert!(exec.stats.sent.iter().all(|&s| s == 7));
        assert!(exec.stats.received.iter().all(|&r| r == 7));
    }

    #[test]
    fn outcome_distribution_is_uniform_over_seeds() {
        let n = 8usize;
        let trials = 4000;
        let mut counts = vec![0u32; n];
        for seed in 0..trials {
            let out = BasicLead::new(n).with_seed(seed).run_honest().outcome;
            counts[out.elected().expect("honest runs succeed") as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expect).abs() < expect * 0.25,
                "counts={counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn tiny_ring_rejected() {
        let _ = BasicLead::new(1);
    }
}
