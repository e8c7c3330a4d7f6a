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

use super::lanes::{one_and_k_lanes, Effects, Reg};
use super::{
    fold_mod, node_rng, wrap_sub, BasicNode, FleProtocol, RingProtocol, TrialCache, Wakes,
};
use ring_sim::{ArenaBacked, Execution, NodeId, TrialArena};

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

    /// The secret processor `id` holds in a trial seeded `seed`: its
    /// pinned value, else its node stream's first draw.
    fn secret(&self, seed: u64, id: NodeId) -> u64 {
        match &self.values {
            Some(vs) => vs[id],
            None => node_rng(seed, id).next_below(self.n as u64),
        }
    }

    /// Builds the honest node for position `id` (origin at 0) as the
    /// concrete [`ALeadNode`] — the monomorphized form honest sweeps store
    /// in a plain `Vec` (origin/normal dispatch is a branch, not a
    /// vtable). `ALeadNode` holds no heap state, so the arena goes unused.
    pub fn honest_ring_node_in(&self, id: NodeId, _arena: &mut TrialArena) -> ALeadNode {
        let mut node = ALeadNode::default();
        node.fill(self, id, &[self.seed]);
        node
    }

    /// Only the origin wakes spontaneously.
    pub fn wakes(&self) -> Vec<NodeId> {
        Self::WAKES.ids(self.n)
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

/// An honest `A-LEADuni` processor: the origin or a normal (buffering)
/// processor.
///
/// `ALeadNode` is the one-lane node the scalar engine runs, built by
/// [`ALeadUni::honest_ring_node_in`]; honest sweeps store a `Vec<ALeadNode>`,
/// so the engine's activation dispatch is a two-way branch instead of a
/// `Box<dyn Node>` vtable call. `ALeadNode<Vec<u64>>` runs the same
/// transition in `k` lockstep lanes.
#[derive(Debug, Clone, Default)]
pub struct ALeadNode<R = [u64; 1]> {
    /// The `Basic-LEAD` registers. The spontaneously-waking origin
    /// (processor 0) is a `Basic-LEAD` processor: it sends its secret at
    /// wake-up, then forwards `n − 1` incoming messages immediately
    /// ("behaves like a pipe"), and its `n`-th receive must be its own
    /// secret coming full circle.
    pub(super) basic: BasicNode<R>,
    /// A normal processor's one-round delay buffer, which starts holding
    /// its secret: on each receive it sends the buffer and stores the new
    /// message — the delay that forces commitment before knowledge.
    pub(super) buffer: R,
    origin: bool,
}

impl<R: Reg> ALeadNode<R> {
    /// Readies position `id` of `protocol`'s ring with one lane per seed.
    pub(super) fn fill(&mut self, protocol: &ALeadUni, id: NodeId, seeds: &[u64]) {
        let n = protocol.n as u64;
        self.basic.fill(n, seeds, |seed| protocol.secret(seed, id));
        self.origin = id == 0;
        self.buffer.set_lanes(seeds.len());
        self.buffer.as_mut().copy_from_slice(self.basic.d.as_ref());
    }

    fn wake(&mut self, fx: &mut impl Effects) {
        if self.origin {
            self.basic.wake(fx);
        }
    }

    fn receive(&mut self, tag: u8, lanes: &[u64], fx: &mut impl Effects) {
        if self.origin {
            return self.basic.receive(tag, lanes, fx);
        }
        let BasicNode { n, round, d, sum } = &mut self.basic;
        let n = *n;
        fx.send(0, |out| out.copy_from_slice(self.buffer.as_ref()));
        *round += 1;
        for ((b, s), &x) in self.buffer.as_mut().iter_mut().zip(sum.as_mut()).zip(lanes) {
            let m = fold_mod(x, n);
            *b = m;
            *s = wrap_sub(*s + m, n);
        }
        if *round == n {
            // The n-th value, now in the buffer, must be our own secret.
            if self.buffer.as_ref() == d.as_ref() {
                fx.terminate(|out| out.copy_from_slice(sum.as_ref()));
            } else {
                // Validation failed (paper line 13): abort with ⊥.
                fx.fail();
            }
        }
    }
}

one_and_k_lanes!(u64, ALeadNode, ALeadNode<Vec<u64>>);

/// `ALeadNode` keeps only scalar state — nothing to reclaim.
impl ArenaBacked for ALeadNode {}

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
