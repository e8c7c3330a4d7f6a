//! Coalitions, honest segments and ring layouts (paper Definitions 2.2,
//! 3.1, 3.2 and Figure 1).
//!
//! A coalition is a set of ring positions controlled by adversaries. The
//! resilience analysis of the paper is driven entirely by the *layout* of
//! the coalition: the lengths `l_j` of the honest segments `I_j` between
//! consecutive adversaries decide which attacks are feasible
//! (`l_j ≤ k − 1` for the equal-spacing rushing attack, geometric distance
//! profiles for the cubic attack, and so on).

use ring_sim::rng::SplitMix64;
use ring_sim::NodeId;

/// A coalition of adversarial processors on a ring of `n` processors.
///
/// Positions are kept sorted. The coalition is the paper's `C ⊆ V`; the
/// honest processors are `V \ C`.
///
/// # Examples
///
/// ```
/// use fle_core::Coalition;
///
/// let c = Coalition::new(12, vec![1, 5, 9]).unwrap();
/// assert_eq!(c.k(), 3);
/// assert_eq!(c.distances(), vec![3, 3, 3]);
/// assert_eq!(c.honest_count(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coalition {
    n: usize,
    positions: Vec<NodeId>,
}

/// Error constructing a [`Coalition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoalitionError {
    /// A position was `>= n`.
    PositionOutOfRange {
        /// The offending position.
        position: NodeId,
        /// Ring size.
        n: usize,
    },
    /// The same position appeared twice.
    DuplicatePosition(NodeId),
    /// The coalition was empty.
    Empty,
    /// Every processor was in the coalition (no honest processor left).
    NoHonestProcessors,
}

impl std::fmt::Display for CoalitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoalitionError::PositionOutOfRange { position, n } => {
                write!(f, "position {position} out of range for ring of {n}")
            }
            CoalitionError::DuplicatePosition(p) => write!(f, "duplicate position {p}"),
            CoalitionError::Empty => write!(f, "coalition must contain at least one adversary"),
            CoalitionError::NoHonestProcessors => {
                write!(f, "coalition must leave at least one honest processor")
            }
        }
    }
}

impl std::error::Error for CoalitionError {}

/// One honest segment `I_j`: the maximal run of honest processors between
/// adversary `after` and the next adversary clockwise (paper Def. 3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HonestSegment {
    /// The adversary position immediately preceding this segment.
    pub after: NodeId,
    /// The honest positions in ring order (may be empty if two adversaries
    /// are adjacent).
    pub members: Vec<NodeId>,
}

impl HonestSegment {
    /// The paper's `l_j`: the number of honest processors in the segment.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the two adversaries are adjacent (`l_j = 0`), i.e. the
    /// preceding adversary is *not exposed* (paper Def. 3.2).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl Coalition {
    /// Builds a coalition from explicit positions.
    ///
    /// # Errors
    ///
    /// Returns a [`CoalitionError`] when a position is out of range or
    /// duplicated, when the coalition is empty, or when it covers the whole
    /// ring.
    pub fn new(n: usize, mut positions: Vec<NodeId>) -> Result<Self, CoalitionError> {
        if positions.is_empty() {
            return Err(CoalitionError::Empty);
        }
        positions.sort_unstable();
        for w in positions.windows(2) {
            if w[0] == w[1] {
                return Err(CoalitionError::DuplicatePosition(w[0]));
            }
        }
        if let Some(&p) = positions.iter().find(|&&p| p >= n) {
            return Err(CoalitionError::PositionOutOfRange { position: p, n });
        }
        if positions.len() == n {
            return Err(CoalitionError::NoHonestProcessors);
        }
        Ok(Self { n, positions })
    }

    /// `k` adversaries at (approximately) equal distances, starting at
    /// `offset`. With equal spacing every `l_j ∈ {⌊n/k⌋ − 1, ⌈n/k⌉ − 1}`,
    /// the layout of Lemma 4.1 / Theorem 4.2.
    ///
    /// # Errors
    ///
    /// Propagates [`CoalitionError`] (e.g. `k = 0` or `k = n`).
    pub fn equally_spaced(n: usize, k: usize, offset: usize) -> Result<Self, CoalitionError> {
        let positions = (0..k).map(|i| (offset + i * n / k) % n).collect();
        Self::new(n, positions)
    }

    /// `k` consecutive adversaries starting at `start` (the layout of
    /// Claim D.1 and of Abraham et al.'s original analysis).
    ///
    /// # Errors
    ///
    /// Propagates [`CoalitionError`].
    pub fn consecutive(n: usize, k: usize, start: usize) -> Result<Self, CoalitionError> {
        let positions = (0..k).map(|i| (start + i) % n).collect();
        Self::new(n, positions)
    }

    /// The randomized model of Appendix C: every processor is an adversary
    /// independently with probability `p`. Returns `None` when the sampled
    /// coalition is empty or covers the ring.
    pub fn random_bernoulli(n: usize, p: f64, seed: u64) -> Option<Self> {
        let mut rng = SplitMix64::new(seed);
        let positions: Vec<NodeId> = (0..n).filter(|_| rng.next_bool(p)).collect();
        Self::new(n, positions).ok()
    }

    /// A uniformly random coalition of exactly `k` positions.
    ///
    /// # Errors
    ///
    /// Propagates [`CoalitionError`].
    pub fn random_k(n: usize, k: usize, seed: u64) -> Result<Self, CoalitionError> {
        let mut rng = SplitMix64::new(seed);
        // Partial Fisher-Yates over 0..n.
        let mut pool: Vec<NodeId> = (0..n).collect();
        let mut picked = Vec::with_capacity(k.min(n));
        for i in 0..k.min(n) {
            let j = i + rng.next_below((n - i) as u64) as usize;
            pool.swap(i, j);
            picked.push(pool[i]);
        }
        Self::new(n, picked)
    }

    /// Ring size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Coalition size `k`.
    pub fn k(&self) -> usize {
        self.positions.len()
    }

    /// Number of honest processors, `n − k`.
    pub fn honest_count(&self) -> usize {
        self.n - self.positions.len()
    }

    /// Sorted adversary positions.
    pub fn positions(&self) -> &[NodeId] {
        &self.positions
    }

    /// `true` if `id` is an adversary.
    pub fn contains(&self, id: NodeId) -> bool {
        self.positions.binary_search(&id).is_ok()
    }

    /// Honest positions in ring order.
    pub fn honest_positions(&self) -> Vec<NodeId> {
        (0..self.n).filter(|&i| !self.contains(i)).collect()
    }

    /// The distances `l_j`: for the j-th adversary (in sorted order), the
    /// number of honest processors strictly between it and the next
    /// adversary clockwise. `Σ l_j = n − k` always holds.
    pub fn distances(&self) -> Vec<usize> {
        let k = self.k();
        (0..k)
            .map(|j| {
                let a = self.positions[j];
                let b = self.positions[(j + 1) % k];
                (b + self.n - a - 1) % self.n
            })
            .collect()
    }

    /// The honest segments `I_j`, one per adversary, in sorted adversary
    /// order (paper Def. 3.1 / Figure 1).
    pub fn segments(&self) -> Vec<HonestSegment> {
        self.positions
            .iter()
            .zip(self.distances())
            .map(|(&a, l)| {
                let members = (1..=l).map(|step| (a + step) % self.n).collect();
                HonestSegment { after: a, members }
            })
            .collect()
    }

    /// Positions of *exposed* adversaries: those followed by at least one
    /// honest processor (paper Def. 3.2). Only exposed adversaries face
    /// validation constraints.
    pub fn exposed(&self) -> Vec<NodeId> {
        let d = self.distances();
        self.positions
            .iter()
            .zip(d)
            .filter(|&(_, l)| l >= 1)
            .map(|(&a, _)| a)
            .collect()
    }

    /// The largest honest segment length `max_j l_j`.
    pub fn max_distance(&self) -> usize {
        self.distances().into_iter().max().unwrap_or(0)
    }

    /// The smallest honest segment length `min_j l_j`.
    pub fn min_distance(&self) -> usize {
        self.distances().into_iter().min().unwrap_or(0)
    }

    /// Renders the ring as ASCII, adversaries as `A`, honest as `.`,
    /// wrapped to `width` characters per line — a textual Figure 1.
    ///
    /// # Examples
    ///
    /// ```
    /// use fle_core::Coalition;
    ///
    /// let c = Coalition::new(8, vec![0, 4]).unwrap();
    /// assert_eq!(c.render_ascii(8), "A...A...");
    /// ```
    pub fn render_ascii(&self, width: usize) -> String {
        let width = width.max(1);
        let mut out = String::with_capacity(self.n + self.n / width + 1);
        for i in 0..self.n {
            out.push(if self.contains(i) { 'A' } else { '.' });
            if (i + 1) % width == 0 && i + 1 != self.n {
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_sum_to_honest_count() {
        let c = Coalition::new(10, vec![0, 3, 4]).unwrap();
        assert_eq!(c.distances(), vec![2, 0, 5]);
        assert_eq!(c.distances().iter().sum::<usize>(), c.honest_count());
    }

    #[test]
    fn equally_spaced_distance_spread_at_most_one() {
        for (n, k) in [(16, 4), (17, 4), (100, 7), (101, 10)] {
            let c = Coalition::equally_spaced(n, k, 1).unwrap();
            let d = c.distances();
            let max = *d.iter().max().unwrap();
            let min = *d.iter().min().unwrap();
            assert!(max - min <= 1, "n={n} k={k} distances={d:?}");
        }
    }

    #[test]
    fn consecutive_has_single_exposed_adversary() {
        let c = Coalition::consecutive(10, 4, 2).unwrap();
        assert_eq!(c.positions(), &[2, 3, 4, 5]);
        assert_eq!(c.exposed(), vec![5]);
        assert_eq!(c.max_distance(), 6);
    }

    #[test]
    fn consecutive_wraps_around_origin() {
        let c = Coalition::consecutive(8, 3, 7).unwrap();
        assert_eq!(c.positions(), &[0, 1, 7]);
        // 7 -> 0 and 0 -> 1 are adjacent; only 1 is exposed.
        assert_eq!(c.exposed(), vec![1]);
    }

    #[test]
    fn segments_list_members_in_ring_order() {
        let c = Coalition::new(8, vec![1, 5]).unwrap();
        let segs = c.segments();
        assert_eq!(segs[0].after, 1);
        assert_eq!(segs[0].members, vec![2, 3, 4]);
        assert_eq!(segs[1].after, 5);
        assert_eq!(segs[1].members, vec![6, 7, 0]);
        assert!(!segs[0].is_empty());
        assert_eq!(segs[1].len(), 3);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(Coalition::new(4, vec![]), Err(CoalitionError::Empty));
        assert_eq!(
            Coalition::new(4, vec![1, 1]),
            Err(CoalitionError::DuplicatePosition(1))
        );
        assert_eq!(
            Coalition::new(4, vec![9]),
            Err(CoalitionError::PositionOutOfRange { position: 9, n: 4 })
        );
        assert_eq!(
            Coalition::new(3, vec![0, 1, 2]),
            Err(CoalitionError::NoHonestProcessors)
        );
    }

    #[test]
    fn bernoulli_is_deterministic_per_seed() {
        let a = Coalition::random_bernoulli(100, 0.2, 5);
        let b = Coalition::random_bernoulli(100, 0.2, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn bernoulli_density_is_plausible() {
        let mut total = 0usize;
        let trials = 200;
        for seed in 0..trials {
            if let Some(c) = Coalition::random_bernoulli(100, 0.2, seed) {
                total += c.k();
            }
        }
        let mean = total as f64 / trials as f64;
        assert!((10.0..30.0).contains(&mean), "mean coalition size {mean}");
    }

    #[test]
    fn random_k_has_exactly_k() {
        let c = Coalition::random_k(50, 7, 3).unwrap();
        assert_eq!(c.k(), 7);
        assert!(c.positions().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn render_wraps_lines() {
        let c = Coalition::new(6, vec![0, 3]).unwrap();
        assert_eq!(c.render_ascii(3), "A..\nA..");
    }

    #[test]
    fn honest_positions_complement_coalition() {
        let c = Coalition::new(6, vec![1, 4]).unwrap();
        assert_eq!(c.honest_positions(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn error_messages_render() {
        for e in [
            CoalitionError::Empty,
            CoalitionError::NoHonestProcessors,
            CoalitionError::DuplicatePosition(2),
            CoalitionError::PositionOutOfRange { position: 8, n: 4 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
