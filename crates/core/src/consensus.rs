//! Fair consensus for rational agents, built on fair leader election —
//! the Afek et al. building block the paper's Section 1.1 describes
//! ("they consider protocols for Fair Consensus and for Renaming").
//!
//! Each processor holds an input bit. During `A-LEADuni`'s secret
//! sharing, every processor's message *packs* its input alongside its
//! secret (`value = d + n·input`); because the election sums values
//! `mod n`, the packed bit is invisible to the election itself, yet by
//! termination every processor has seen every packed value in a known
//! order (processor `i`'s `r`-th receive originates at `i − r mod n`).
//! Everyone therefore decides the *elected leader's* input — agreement
//! and validity hold by construction, and the decided input is chosen
//! uniformly among the processors' inputs, which is exactly what makes
//! the consensus *fair* for rational agents with preferences over the
//! decision: resilience reduces to the resilience of the underlying
//! election.

use crate::protocols::{node_rng, run_ring};
use ring_sim::{Ctx, Execution, Node, NodeId, Outcome};

/// Fair binary consensus over an `A-LEADuni`-style election.
///
/// # Examples
///
/// ```
/// use fle_core::consensus::FairConsensus;
///
/// let inputs = vec![true, false, true, true, false, true];
/// let consensus = FairConsensus::new(inputs.clone()).with_seed(4);
/// let (decision, leader) = consensus.run_honest().expect("honest runs succeed");
/// assert_eq!(decision, inputs[leader as usize]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FairConsensus {
    inputs: Vec<bool>,
    seed: u64,
}

impl FairConsensus {
    /// Creates an instance; `inputs[i]` is processor `i`'s proposal.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 inputs are given.
    pub fn new(inputs: Vec<bool>) -> Self {
        assert!(inputs.len() >= 2, "consensus needs n >= 2");
        Self { inputs, seed: 0 }
    }

    /// Sets the randomness seed for the processors' secret values.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.inputs.len()
    }

    /// Builds the honest node for position `id`.
    pub fn honest_node(&self, id: NodeId) -> Box<dyn Node<u64>> {
        let n = self.n();
        let d = node_rng(self.seed, id).next_below(n as u64);
        let node = ConsensusNode {
            n: n as u64,
            id,
            packed: d + n as u64 * u64::from(self.inputs[id]),
            buffer: 0,
            sum: 0,
            round: 0,
            inputs_seen: vec![false; n],
            is_origin: id == 0,
        };
        let mut node = node;
        node.buffer = node.packed;
        Box::new(node)
    }

    /// Runs the consensus with adversarial `overrides`; returns the raw
    /// execution (outputs encode `decision`, see [`FairConsensus::decode`]).
    pub fn run_with(&self, overrides: Vec<(NodeId, Box<dyn Node<u64>>)>) -> Execution {
        run_ring(self.n(), |id| self.honest_node(id), overrides, &[0], None)
    }

    /// Runs honestly and decodes `(decision, leader)`; `None` on failure.
    pub fn run_honest(&self) -> Option<(bool, u64)> {
        Self::decode(self.run_with(Vec::new()).outcome)
    }

    /// Decodes a consensus outcome: node outputs encode the pair as
    /// `2·leader + decision`, so unanimity of the output implies
    /// unanimity of both the leader and the decision.
    pub fn decode(outcome: Outcome) -> Option<(bool, u64)> {
        match outcome {
            Outcome::Elected(v) => Some(((v & 1) == 1, v >> 1)),
            Outcome::Fail(_) => None,
        }
    }
}

/// An `A-LEADuni` node over packed `(secret, input)` values that decides
/// the elected leader's input.
struct ConsensusNode {
    n: u64,
    id: NodeId,
    /// `d + n·input` — what we actually send; the returning value must
    /// match it exactly (validating both the secret and the input bit).
    packed: u64,
    buffer: u64,
    sum: u64,
    round: u64,
    inputs_seen: Vec<bool>,
    is_origin: bool,
}

impl ConsensusNode {
    /// Records the packed value received in round `round` (1-based),
    /// which originates at `id − round mod n` (origin: `n − round`).
    fn record(&mut self, packed: u64) {
        let n = self.n as usize;
        let r = self.round as usize;
        let src = if self.is_origin {
            (n - (r % n)) % n
        } else {
            (self.id + n - (r % n)) % n
        };
        self.inputs_seen[src] = packed / self.n == 1;
    }

    fn finish(&mut self, last: u64, ctx: &mut Ctx<'_, u64>) {
        // Validation: the packed value returning must be exactly ours.
        if last != self.packed {
            ctx.abort();
            return;
        }
        let leader = self.sum % self.n;
        let decision = self.inputs_seen[leader as usize];
        // Output encodes both so the engine can check unanimity of the
        // (leader, decision) pair: 2·leader + decision.
        ctx.terminate(Some(2 * leader + u64::from(decision)));
    }
}

impl Node<u64> for ConsensusNode {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.is_origin {
            ctx.send(self.packed);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        // Packed values live in [0, 2n); anything else is a deviation,
        // but reduce like the base protocol and let validation catch it.
        let m = msg % (2 * self.n);
        self.round += 1;
        self.sum = (self.sum + m) % self.n;
        self.record(m);
        if self.is_origin {
            if self.round < self.n {
                ctx.send(m);
            } else {
                self.finish(m, ctx);
            }
        } else {
            ctx.send(self.buffer);
            self.buffer = m;
            if self.round == self.n {
                self.finish(m, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{honest_data_values, ALeadUni, FleProtocol};

    #[test]
    fn decides_the_elected_leaders_input() {
        for n in [2usize, 5, 12] {
            for seed in 0..8 {
                let inputs: Vec<bool> = (0..n)
                    .map(|i| (i * 7 + seed as usize).is_multiple_of(3))
                    .collect();
                let c = FairConsensus::new(inputs.clone()).with_seed(seed);
                let (decision, leader) = c.run_honest().expect("honest consensus succeeds");
                // The leader matches the plain election on the same seed.
                let expected_leader = ALeadUni::new(n)
                    .with_seed(seed)
                    .run_honest()
                    .outcome
                    .elected()
                    .unwrap();
                assert_eq!(leader, expected_leader, "n={n} seed={seed}");
                assert_eq!(decision, inputs[leader as usize], "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn packing_does_not_perturb_the_election() {
        // Σ(d + n·b) ≡ Σd (mod n): the packed bits are election-invisible.
        let n = 9usize;
        let seed = 3;
        let d = honest_data_values(seed, n);
        let all_true = FairConsensus::new(vec![true; n]).with_seed(seed);
        let (_, leader) = all_true.run_honest().unwrap();
        assert_eq!(leader, d.iter().sum::<u64>() % n as u64);
    }

    #[test]
    fn decision_is_fair_when_inputs_split() {
        // Half the processors propose true: the decision should be true
        // about half the time — fairness transfers from the election.
        let n = 8usize;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let trials = 2000u64;
        let mut trues = 0;
        for seed in 0..trials {
            let c = FairConsensus::new(inputs.clone()).with_seed(seed);
            if c.run_honest().expect("honest").0 {
                trues += 1;
            }
        }
        let freq = trues as f64 / trials as f64;
        assert!((freq - 0.5).abs() < 0.05, "Pr[true] = {freq}");
    }

    #[test]
    fn unanimous_inputs_always_decide_that_value() {
        // Validity in the strong sense.
        for value in [true, false] {
            let c = FairConsensus::new(vec![value; 6]).with_seed(9);
            assert_eq!(c.run_honest().unwrap().0, value);
        }
    }

    #[test]
    fn tampering_with_a_packed_value_fails() {
        struct BitFlipper {
            seen: u32,
        }
        impl Node<u64> for BitFlipper {
            fn on_message(&mut self, _f: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
                self.seen += 1;
                // Flip the packed input bit of the third message through.
                ctx.send(if self.seen == 3 { msg ^ 8 } else { msg });
            }
        }
        let c = FairConsensus::new(vec![true, false, true, false, true, false, true, false])
            .with_seed(2);
        let exec = c.run_with(vec![(3, Box::new(BitFlipper { seen: 0 }))]);
        assert!(exec.outcome.is_fail(), "{:?}", exec.outcome);
    }
}
