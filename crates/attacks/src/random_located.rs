//! The randomized-coalition attack of Theorem C.1 on `A-LEADuni`.
//!
//! Adversaries are scattered Bernoulli(p) along the ring and know
//! **neither** their number `k` nor their distances `l_j`. Each one pipes
//! incoming messages while watching for *circularity*: since the silent
//! coalition removes its own values from circulation, the stream of
//! secrets repeats with period `n − k`, so the first `C` received values
//! reappear after exactly `n − k` messages. From the repeat position `T`
//! the adversary infers `k' = n − T + C`, and finishes exactly like the
//! rushing attack. With `p = √(8 ln n / n)` — i.e. `k = Θ(√(n log n))` —
//! all the estimates are correct with high probability and the coalition
//! controls the outcome.

use crate::AttackError;
use fle_core::protocols::{ALeadUni, FleProtocol};
use fle_core::{Coalition, DeviationNodes, Execution, Node, NodeId};
use ring_sim::Ctx;

/// The Theorem C.1 attack on [`ALeadUni`] with a randomly-located
/// coalition that does not know `k` or the `l_j`.
///
/// `window` is the paper's constant `C`: the prefix length used for
/// circularity detection. Larger windows reduce the false-detection
/// probability (`≈ n^{2−C}`) but require every segment to satisfy
/// `l_j ≤ k − C − 1`.
///
/// # Examples
///
/// ```
/// use fle_attacks::RandomLocatedAttack;
/// use fle_core::protocols::ALeadUni;
/// use fle_core::Coalition;
/// use ring_sim::Outcome;
///
/// let n = 64;
/// let protocol = ALeadUni::new(n).with_seed(21);
/// // A random coalition dense enough that every segment is short. The
/// // adversaries are NOT told k or their distances — they estimate both
/// // from the circularity of the stream.
/// let coalition = Coalition::random_bernoulli(n, 0.35, 3).unwrap();
/// let attack = RandomLocatedAttack::new(13, 3);
/// assert!(attack.layout_is_favourable(&coalition));
/// let exec = attack.run(&protocol, &coalition).unwrap();
/// assert_eq!(exec.outcome, Outcome::Elected(13));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomLocatedAttack {
    target: u64,
    window: usize,
}

impl RandomLocatedAttack {
    /// An attack forcing `target`, detecting circularity with a prefix of
    /// `window` values.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(target: u64, window: usize) -> Self {
        assert!(window > 0, "detection window must be positive");
        Self { target, window }
    }

    /// The forced leader.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// The detection window `C`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The success predicate of Theorem C.1 for a known layout: every
    /// active (non-origin) adversary must have `l_j ≤ k' − C − 1`, and the
    /// coalition must sit in the theorem's density regime
    /// `k' − C − 1 ≤ n − k'` (the replayed tail cannot be longer than the
    /// circulating honest stream; with `k' = Θ(√(n log n))` this always
    /// holds asymptotically). The adversaries themselves cannot evaluate
    /// this — the experiments use it to compare predicted and measured
    /// success.
    pub fn layout_is_favourable(&self, coalition: &Coalition) -> bool {
        let n = coalition.n();
        let active: Vec<NodeId> = coalition
            .positions()
            .iter()
            .copied()
            .filter(|&p| p != 0)
            .collect();
        let Ok(active) = Coalition::new(n, active) else {
            return false;
        };
        let k = active.k();
        if k < self.window + 2 || k - self.window - 1 > n - k {
            return false;
        }
        active.distances().into_iter().all(|l| l < k - self.window)
    }

    /// Builds the deviation nodes (origin behaves honestly if corrupted).
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] for mismatched ring sizes or an
    /// out-of-range target. Layout unsuitability is **not** an error here:
    /// the adversaries cannot detect it in advance, so the execution simply
    /// fails — exactly the probabilistic behaviour Theorem C.1 quantifies.
    pub fn adversary_nodes(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<DeviationNodes<u64>, AttackError> {
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
        Ok(coalition
            .positions()
            .iter()
            .map(|&pos| {
                let node: Box<dyn Node<u64>> = if pos == 0 {
                    protocol.honest_node(0)
                } else {
                    Box::new(CircularityAdversary {
                        n: n as u64,
                        c: self.window,
                        w: self.target,
                        received: Vec::with_capacity(n),
                        done: false,
                    })
                };
                (pos, node)
            })
            .collect())
    }

    /// Runs the deviation against a protocol instance.
    ///
    /// # Errors
    ///
    /// Propagates [`RandomLocatedAttack::adversary_nodes`] errors.
    pub fn run(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<Execution, AttackError> {
        let nodes = self.adversary_nodes(protocol, coalition)?;
        Ok(protocol.run_with(nodes))
    }
}

/// Appendix C's per-adversary strategy: forward while watching for the
/// first `T > C` with `m[1..C] = m[T−C+1..T]`; then estimate
/// `k' = n − T + C`, send the correcting value and replay the stored tail.
struct CircularityAdversary {
    n: u64,
    c: usize,
    w: u64,
    received: Vec<u64>,
    done: bool,
}

impl Node<u64> for CircularityAdversary {
    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        if self.done {
            return;
        }
        let m = msg % self.n;
        self.received.push(m);
        let t = self.received.len();
        let c = self.c;
        if t > c && self.received[t - c..] == self.received[..c] {
            self.done = true;
            // Step 1 forwards all T messages, including the one that
            // completed the circularity check.
            ctx.send(m);
            let n = self.n as usize;
            // k' = n − T + C; if the estimate is degenerate the attack is
            // lost — stop sending and let the execution fail.
            let Some(kp) = (n + c).checked_sub(t) else {
                return;
            };
            if kp < c + 2 || n - kp < kp - c - 1 {
                return;
            }
            let tail_len = kp - c - 1;
            let end = n - kp; // 0-based exclusive end of the first n−k' values
            let start = end - tail_len;
            let sum_all: u64 = self.received.iter().map(|&v| v % self.n).sum::<u64>() % self.n;
            let sum_tail: u64 = self.received[start..end].iter().sum::<u64>() % self.n;
            ctx.send((self.w + 2 * self.n - sum_all - sum_tail) % self.n);
            for i in start..end {
                let v = self.received[i];
                ctx.send(v);
            }
            ctx.terminate(Some(self.w));
        } else {
            ctx.send(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Places adversaries at equal distances (a favourable layout) but the
    /// adversaries still run the estimate-everything strategy.
    #[test]
    fn succeeds_on_favourable_layouts_without_knowing_k() {
        let n = 49;
        let protocol = ALeadUni::new(n).with_seed(17);
        let coalition = Coalition::equally_spaced(n, 12, 1).unwrap(); // l_j <= 4 <= k−C−1 = 8
        let attack = RandomLocatedAttack::new(5, 3);
        assert!(attack.layout_is_favourable(&coalition));
        let exec = attack.run(&protocol, &coalition).unwrap();
        assert_eq!(exec.outcome.elected(), Some(5));
    }

    #[test]
    fn fails_gracefully_on_sparse_layouts() {
        // Too few adversaries: the circularity never appears within the
        // messages available, the ring stalls and the outcome is FAIL —
        // not a biased election.
        let n = 36;
        let protocol = ALeadUni::new(n).with_seed(3);
        let coalition = Coalition::new(n, vec![5, 20]).unwrap();
        let attack = RandomLocatedAttack::new(0, 3);
        assert!(!attack.layout_is_favourable(&coalition));
        let exec = attack.run(&protocol, &coalition).unwrap();
        assert!(exec.outcome.is_fail());
    }

    #[test]
    fn random_coalitions_in_theorem_regime_succeed() {
        // Bernoulli(p) coalitions at a density inside Theorem C.1's regime
        // (k = Θ(√(n log n)) ≪ n/2): every favourable layout must yield
        // the target, up to the n^{2−C} false-circularity probability.
        let n = 64usize;
        let p = 0.35;
        let attack = RandomLocatedAttack::new(9, 3);
        let mut favourable = 0;
        let mut favourable_success = 0;
        for seed in 0..80 {
            let Some(coalition) = Coalition::random_bernoulli(n, p, seed) else {
                continue;
            };
            let protocol = ALeadUni::new(n).with_seed(1000 + seed);
            let exec = attack.run(&protocol, &coalition).unwrap();
            if attack.layout_is_favourable(&coalition) {
                favourable += 1;
                if exec.outcome.elected() == Some(9) {
                    favourable_success += 1;
                }
            }
        }
        assert!(favourable > 10, "favourable layouts: {favourable}");
        assert!(
            favourable_success as f64 >= 0.95 * favourable as f64,
            "{favourable_success}/{favourable}"
        );
    }

    #[test]
    fn origin_adversary_behaves_honestly() {
        let n = 49;
        let protocol = ALeadUni::new(n).with_seed(2);
        let mut positions = Coalition::equally_spaced(n, 12, 1)
            .unwrap()
            .positions()
            .to_vec();
        positions.push(0);
        let coalition = Coalition::new(n, positions).unwrap();
        let attack = RandomLocatedAttack::new(3, 3);
        let exec = attack.run(&protocol, &coalition).unwrap();
        assert_eq!(exec.outcome.elected(), Some(3));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = RandomLocatedAttack::new(0, 0);
    }
}
