//! The Cubic Attack of Theorem 4.3: `k ≥ 2·∛n` adversaries control
//! `A-LEADuni`.
//!
//! The refinement over the rushing attack of Lemma 4.1 is that the `k`
//! spare messages are used to **push information faster along the ring**:
//! the honest segments have geometrically decreasing lengths
//! `l_i = (k + 1 − i)(k − 1)`, and each adversary, after piping
//! `n − k − l_i` messages, bursts `k − 1` zeros that let the next
//! adversary finish its learning phase early. The total ring size covered
//! is `k + (k−1)k(k+1)/2 = Θ(k³)`, hence `k = Θ(∛n)` suffices.

use crate::AttackError;
use fle_core::protocols::{ALeadUni, FleProtocol};
use fle_core::{Coalition, DeviationNodes, Execution, Node, NodeId};
use ring_sim::Ctx;

/// A feasible cubic-attack layout for a ring of `n` processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubicPlan {
    n: usize,
    distances: Vec<usize>,
    positions: Vec<NodeId>,
}

impl CubicPlan {
    /// The coalition size `k`.
    pub fn k(&self) -> usize {
        self.distances.len()
    }

    /// The honest-segment lengths `l_1 ≥ l_2 ≥ … ≥ l_k`, satisfying
    /// `l_i ≤ l_{i+1} + k − 1`, `l_k ≤ k − 1`, and `Σ l_i = n − k`.
    pub fn distances(&self) -> &[usize] {
        &self.distances
    }

    /// The adversary positions (the first at ring position 1, so the
    /// origin 0 is the last honest processor before `a_1`).
    pub fn positions(&self) -> &[NodeId] {
        &self.positions
    }

    /// The plan as a [`Coalition`].
    pub fn coalition(&self) -> Coalition {
        Coalition::new(self.n, self.positions.clone()).expect("plan positions are valid")
    }
}

/// Computes the minimal-`k` cubic layout for a ring of `n` processors
/// (Theorem 4.3's distance profile, water-filled down to `Σ l_i = n − k`).
///
/// # Errors
///
/// Returns [`AttackError::Infeasible`] for rings too small to host the
/// staggered layout (`n < 6`).
pub fn cubic_distances(n: usize) -> Result<CubicPlan, AttackError> {
    if n < 6 {
        return Err(AttackError::Infeasible(format!(
            "ring of {n} too small for the cubic layout"
        )));
    }
    // Minimal k with capacity (k−1)·k·(k+1)/2 ≥ n − k.
    let mut k = 2usize;
    while (k - 1) * k * (k + 1) / 2 < n - k {
        k += 1;
    }
    plan_with_k(n, k)
}

/// Builds the cubic layout with an explicit coalition size `k`.
///
/// # Errors
///
/// Returns [`AttackError::Infeasible`] when `k` is too small for `n`
/// (capacity below `n − k`) or degenerate (`k < 2` or `k ≥ n`).
pub fn plan_with_k(n: usize, k: usize) -> Result<CubicPlan, AttackError> {
    if k < 2 || k >= n {
        return Err(AttackError::Infeasible(format!(
            "cubic attack needs 2 <= k < n, got k={k}, n={n}"
        )));
    }
    let capacity = (k - 1) * k * (k + 1) / 2;
    if capacity < n - k {
        return Err(AttackError::Infeasible(format!(
            "k={k} covers at most {capacity} honest processors, ring needs {}",
            n - k
        )));
    }
    // Maximal profile l_i = (k + 1 − i)(k − 1), then water-fill the top
    // plateau down until Σ l_i = n − k, keeping the sequence non-increasing
    // (so l_1 stays maximal and every step difference stays ≤ k − 1).
    let mut l: Vec<u64> = (1..=k).map(|i| ((k + 1 - i) * (k - 1)) as u64).collect();
    let total: u64 = l.iter().sum();
    let mut excess = total - (n - k) as u64;
    let mut width = 1usize;
    while excess > 0 {
        let cur = l[width - 1];
        let next = if width < k { l[width] } else { 0 };
        let droppable = (cur - next) * width as u64;
        if width < k && droppable <= excess {
            for slot in l.iter_mut().take(width) {
                *slot = next;
            }
            excess -= droppable;
            width += 1;
        } else {
            let q = excess / width as u64;
            let r = (excess % width as u64) as usize;
            for slot in l.iter_mut().take(width) {
                *slot -= q;
            }
            for slot in l.iter_mut().take(width).skip(width - r) {
                *slot -= 1;
            }
            excess = 0;
        }
    }
    let distances: Vec<usize> = l.into_iter().map(|v| v as usize).collect();
    debug_assert_eq!(distances.iter().sum::<usize>(), n - k);
    // a_1 at position 1; a_{i+1} = a_i + l_i + 1.
    let mut positions = Vec::with_capacity(k);
    let mut pos = 1usize;
    for &li in &distances {
        positions.push(pos % n);
        pos += li + 1;
    }
    Ok(CubicPlan {
        n,
        distances,
        positions,
    })
}

/// The Theorem 4.3 cubic attack on [`ALeadUni`].
///
/// # Examples
///
/// ```
/// use fle_attacks::{cubic_distances, CubicAttack};
/// use fle_core::protocols::ALeadUni;
/// use ring_sim::Outcome;
///
/// let n = 60;
/// let plan = cubic_distances(n).unwrap();
/// assert!(plan.k() <= 2 * ((n as f64).cbrt().ceil() as usize));
/// let protocol = ALeadUni::new(n).with_seed(4);
/// let exec = CubicAttack::new(42).run(&protocol, &plan).unwrap();
/// assert_eq!(exec.outcome, Outcome::Elected(42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CubicAttack {
    target: u64,
}

impl CubicAttack {
    /// An attack forcing the election of `target`.
    pub fn new(target: u64) -> Self {
        Self { target }
    }

    /// The forced leader.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Builds the deviation nodes for a plan.
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] when the plan does not match the
    /// protocol's ring size or the target is out of range.
    pub fn adversary_nodes(
        &self,
        protocol: &ALeadUni,
        plan: &CubicPlan,
    ) -> Result<DeviationNodes<u64>, AttackError> {
        let n = protocol.n();
        if plan.n != n {
            return Err(AttackError::Infeasible(format!(
                "plan is for n={}, protocol has n={n}",
                plan.n
            )));
        }
        if self.target >= n as u64 {
            return Err(AttackError::Infeasible(format!(
                "target {} out of range for n={n}",
                self.target
            )));
        }
        let k = plan.k();
        Ok(plan
            .positions
            .iter()
            .zip(&plan.distances)
            .map(|(&pos, &l)| {
                let node: Box<dyn Node<u64>> = Box::new(CubicAdversary {
                    n: n as u64,
                    k: k as u64,
                    l: l as u64,
                    w: self.target,
                    count: 0,
                    stored: Vec::with_capacity(n - k),
                });
                (pos, node)
            })
            .collect())
    }

    /// Runs the deviation against a protocol instance.
    ///
    /// # Errors
    ///
    /// Propagates [`CubicAttack::adversary_nodes`] errors.
    pub fn run(&self, protocol: &ALeadUni, plan: &CubicPlan) -> Result<Execution, AttackError> {
        let nodes = self.adversary_nodes(protocol, plan)?;
        Ok(protocol.run_with(nodes))
    }
}

/// The Appendix C pseudo-code, verbatim: transfer `n − k − l_i` messages,
/// burst `k − 1` zeros, silently collect `l_i` more (the secrets of the
/// own segment), send the correcting value, replay the segment's secrets.
struct CubicAdversary {
    n: u64,
    k: u64,
    l: u64,
    w: u64,
    count: u64,
    stored: Vec<u64>,
}

impl Node<u64> for CubicAdversary {
    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        let m = msg % self.n;
        self.count += 1;
        if self.count > self.n - self.k {
            return; // post-attack deliveries are irrelevant
        }
        self.stored.push(m);
        if self.count <= self.n - self.k - self.l {
            ctx.send(m);
        }
        if self.count == self.n - self.k - self.l {
            for _ in 0..self.k - 1 {
                ctx.send(0);
            }
        }
        if self.count == self.n - self.k {
            let total: u64 = self.stored.iter().sum::<u64>() % self.n;
            ctx.send((self.w + self.n - total) % self.n);
            let from = (self.n - self.k - self.l) as usize;
            for i in from..self.stored.len() {
                let v = self.stored[i];
                ctx.send(v);
            }
            ctx.terminate(Some(self.w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::Outcome;

    #[test]
    fn plan_invariants_hold_for_many_n() {
        for n in [6, 10, 20, 50, 100, 200, 500, 1000, 2500] {
            let plan = cubic_distances(n).unwrap();
            let k = plan.k();
            let d = plan.distances();
            assert_eq!(d.iter().sum::<usize>(), n - k, "n={n}");
            assert!(d[k - 1] < k, "n={n} l_k too long");
            for i in 0..k - 1 {
                assert!(d[i] >= d[i + 1], "n={n} not non-increasing: {d:?}");
                assert!(d[i] < d[i + 1] + k, "n={n} step too large: {d:?}");
            }
            assert_eq!(d[0], *d.iter().max().unwrap());
            // k = Θ(∛n): at most 2·∛n for the minimal plan (Theorem 4.3).
            assert!(
                k as f64 <= 2.0 * (n as f64).cbrt() + 1.0,
                "n={n} k={k} too large"
            );
        }
    }

    #[test]
    fn plan_positions_leave_origin_honest() {
        for n in [12, 64, 333] {
            let plan = cubic_distances(n).unwrap();
            assert!(!plan.positions().contains(&0), "n={n}");
            let coalition = plan.coalition();
            assert_eq!(coalition.k(), plan.k());
        }
    }

    #[test]
    fn cubic_attack_controls_every_target() {
        for n in [20, 47, 100] {
            let plan = cubic_distances(n).unwrap();
            let protocol = ALeadUni::new(n).with_seed(8);
            for w in [0u64, 1, (n as u64) - 1] {
                let exec = CubicAttack::new(w).run(&protocol, &plan).unwrap();
                assert_eq!(exec.outcome, Outcome::Elected(w), "n={n} w={w}");
            }
        }
    }

    #[test]
    fn cubic_beats_rushing_on_coalition_size() {
        // For n = 1000 the cubic attack needs k ≈ 2·∛1000 = 20 while the
        // rushing attack needs k ≈ √1000 ≈ 32.
        let plan = cubic_distances(1000).unwrap();
        assert!(plan.k() < 24, "k = {}", plan.k());
        let protocol = ALeadUni::new(1000).with_seed(1);
        let exec = CubicAttack::new(999).run(&protocol, &plan).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(999));
    }

    #[test]
    fn explicit_small_k_is_rejected() {
        // k = 3 covers at most 2·3·4/2 = 12 honest processors.
        assert!(plan_with_k(100, 3).is_err());
        assert!(plan_with_k(15, 3).is_ok());
    }

    #[test]
    fn tiny_rings_rejected() {
        assert!(cubic_distances(5).is_err());
    }

    #[test]
    fn all_processors_send_exactly_n_under_attack() {
        let n = 30;
        let plan = cubic_distances(n).unwrap();
        let protocol = ALeadUni::new(n).with_seed(12);
        let exec = CubicAttack::new(7).run(&protocol, &plan).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(7));
        assert!(exec.stats.sent.iter().all(|&s| s == n as u64));
    }
}
