//! `A-LEADuni` — Abraham et al.'s buffered fair-leader-election protocol
//! for an asynchronous unidirectional ring (paper Section 3, Appendix A).
//!
//! Each processor draws a secret `d_i ∈ [n]`. A secret-sharing pass moves
//! all secrets around the ring, but *normal* processors delay every
//! incoming message by one round (a buffer of size 1), which forces every
//! processor to commit to its own secret before learning anyone else's.
//! The origin (processor 0) wakes spontaneously, emits its secret, and
//! thereafter behaves as a pipe. Every processor receives exactly `n`
//! messages, validates that the `n`-th is its own secret (otherwise it
//! aborts with `⊥`), and elects `Σ dᵢ (mod n)`.
//!
//! The paper's appendix pseudo-code counts the origin's rounds from 1 and
//! would terminate it one receive early; we use the counting that matches
//! the proofs (Lemma 3.3): every processor sends exactly `n` and receives
//! exactly `n` messages, and the origin does not forward its `n`-th
//! (final) receive.

use super::{fold_mod, node_rng, run_ring, wrap_sub, FleProtocol, RingProtocol, TrialCache, Wakes};
use ring_sim::{ArenaBacked, Ctx, Execution, Node, NodeId, Probe, TrialArena};

/// [`TrialCache`] for `A-LEADuni`'s boxed coalition mixes.
pub type ALeadTrialCache = TrialCache<u64, ALeadNode>;

/// An `A-LEADuni` protocol instance.
///
/// # Examples
///
/// ```
/// use fle_core::protocols::{ALeadUni, FleProtocol};
///
/// let exec = ALeadUni::new(16).with_seed(7).run_honest();
/// assert!(exec.outcome.elected().unwrap() < 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ALeadUni {
    n: usize,
    seed: u64,
    values: Option<Vec<u64>>,
}

impl ALeadUni {
    /// Creates an instance for a ring of `n` processors (seed 0).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "A-LEADuni needs n >= 2");
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
    /// enumeration (the paper's probability space `χ = [n]^{n−k}`; entries
    /// at coalition positions are ignored once overridden).
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

    /// The pinned honest values installed by [`ALeadUni::with_values`],
    /// if any — read by the batch-lockstep builder.
    pub(crate) fn pinned_values(&self) -> Option<&[u64]> {
        self.values.as_deref()
    }

    /// Builds the honest node for position `id` (origin at 0) as a boxed
    /// trait object (for heterogeneous protocol/attack mixes).
    pub fn honest_node(&self, id: NodeId) -> Box<dyn Node<u64>> {
        Box::new(self.honest_ring_node(id))
    }

    /// Builds the honest node for position `id` as the concrete
    /// [`ALeadNode`] enum — the monomorphized form the batch fast path
    /// stores in a plain `Vec` (origin/normal dispatch is a branch, not a
    /// vtable).
    pub fn honest_ring_node(&self, id: NodeId) -> ALeadNode {
        let d = match &self.values {
            Some(vs) => vs[id],
            None => node_rng(self.seed, id).next_below(self.n as u64),
        };
        if id == 0 {
            ALeadNode::Origin(Origin {
                n: self.n as u64,
                d,
                sum: 0,
                round: 0,
            })
        } else {
            ALeadNode::Normal(Normal {
                n: self.n as u64,
                d,
                buffer: d,
                sum: 0,
                round: 0,
            })
        }
    }

    /// [`ALeadUni::honest_ring_node`] with the uniform arena-aware batch
    /// surface; `ALeadNode` holds no heap state, so the arena goes unused.
    pub fn honest_ring_node_in(&self, id: NodeId, _arena: &mut TrialArena) -> ALeadNode {
        self.honest_ring_node(id)
    }

    /// Only the origin wakes spontaneously.
    pub fn wakes(&self) -> Vec<NodeId> {
        vec![0]
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

    /// [`ALeadUni::run_with`] plus an instrumentation probe.
    pub fn run_with_probe(
        &self,
        overrides: Vec<(NodeId, Box<dyn Node<u64>>)>,
        probe: &mut dyn Probe<u64>,
    ) -> Execution {
        run_ring(
            self.n,
            |id| self.honest_node(id),
            overrides,
            &self.wakes(),
            Some(probe),
        )
    }
}

impl RingProtocol for ALeadUni {
    type Msg = u64;
    type Node = ALeadNode;
    const WAKES: Wakes = Wakes::Origin;

    fn seeded(&self, seed: u64) -> Self {
        self.clone().with_seed(seed)
    }

    fn honest_ring_node_in(&self, id: NodeId, arena: &mut TrialArena) -> ALeadNode {
        ALeadUni::honest_ring_node_in(self, id, arena)
    }
}

impl FleProtocol for ALeadUni {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "A-LEADuni"
    }

    fn run_honest(&self) -> Execution {
        self.run_with(Vec::new())
    }
}

/// An honest `A-LEADuni` processor as a concrete type: the origin or a
/// normal (buffering) processor.
///
/// Built by [`ALeadUni::honest_ring_node`]; honest sweeps store a
/// `Vec<ALeadNode>`, so the engine's activation dispatch is a two-way
/// branch instead of a `Box<dyn Node>` vtable call.
#[derive(Debug, Clone)]
pub enum ALeadNode {
    /// The spontaneously-waking origin (processor 0).
    Origin(Origin),
    /// A normal processor with the one-round delay buffer.
    Normal(Normal),
}

/// `ALeadNode` keeps only scalar state — nothing to reclaim.
impl ArenaBacked for ALeadNode {}

impl Node<u64> for ALeadNode {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, u64>) {
        match self {
            ALeadNode::Origin(o) => o.on_wake(ctx),
            ALeadNode::Normal(p) => p.on_wake(ctx),
        }
    }

    #[inline]
    fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        match self {
            ALeadNode::Origin(o) => o.on_message(from, msg, ctx),
            ALeadNode::Normal(p) => p.on_message(from, msg, ctx),
        }
    }
}

/// The origin: sends its secret at wake-up, then forwards `n − 1` incoming
/// messages immediately ("behaves like a pipe"). Its `n`-th receive must be
/// its own secret coming full circle.
#[derive(Debug, Clone)]
pub struct Origin {
    n: u64,
    d: u64,
    sum: u64,
    round: u64,
}

impl Node<u64> for Origin {
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
            ctx.abort();
        }
    }
}

/// A normal processor: starts with its secret in the buffer; on each
/// receive it sends the buffer and stores the new message — the one-round
/// delay that forces commitment before knowledge.
#[derive(Debug, Clone)]
pub struct Normal {
    n: u64,
    d: u64,
    buffer: u64,
    sum: u64,
    round: u64,
}

impl Node<u64> for Normal {
    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        let m = fold_mod(msg, self.n);
        ctx.send(self.buffer);
        self.buffer = m;
        self.round += 1;
        self.sum = wrap_sub(self.sum + m, self.n);
        if self.round == self.n {
            if m == self.d {
                ctx.terminate(Some(self.sum));
            } else {
                // Validation failed (paper line 13): abort with ⊥.
                ctx.abort();
            }
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
        for n in [2, 3, 4, 9, 32] {
            for seed in 0..5 {
                let p = ALeadUni::new(n).with_seed(seed);
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
    fn message_complexity_is_n_squared() {
        let n = 12u64;
        let exec = ALeadUni::new(n as usize).with_seed(3).run_honest();
        assert_eq!(exec.stats.total_sent(), n * n);
        assert!(exec.stats.sent.iter().all(|&s| s == n));
        assert!(exec.stats.received.iter().all(|&r| r == n));
    }

    #[test]
    fn outcome_distribution_is_uniform_over_seeds() {
        let n = 8usize;
        let trials = 4000;
        let mut counts = vec![0u32; n];
        for seed in 0..trials {
            let out = ALeadUni::new(n).with_seed(seed).run_honest().outcome;
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
    fn wire_trace_matches_the_paper_structure() {
        // Section 3's trace: out_i = (d_i, in_i[1..]); the origin pipes,
        // normals delay by one. Check the first six messages exactly.
        use ring_sim::MessageLogProbe;
        let n = 4;
        let seed = 11;
        let p = ALeadUni::new(n).with_seed(seed);
        let d = honest_data_values(seed, n);
        let mut log = MessageLogProbe::new(6);
        let exec = p.run_with_probe(Vec::new(), &mut log);
        assert!(!exec.outcome.is_fail());
        assert_eq!(
            log.entries(),
            &[
                (0, 1, d[0]), // origin announces its secret
                (1, 2, d[1]), // each normal replies with its buffer
                (2, 3, d[2]),
                (3, 0, d[3]),
                (0, 1, d[3]), // origin forwards immediately (pipe)
                (1, 2, d[0]), // normal releases the delayed value
            ]
        );
        assert!(log.truncated());
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn tiny_ring_rejected() {
        let _ = ALeadUni::new(1);
    }
}
