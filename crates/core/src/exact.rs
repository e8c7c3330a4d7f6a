//! Exact outcome distributions by exhaustive input enumeration.
//!
//! The paper's probability space is the honest processors' secret values,
//! `χ = [n]^{n−k}` (Appendix D preliminaries) — for small rings it is
//! *finite and enumerable*, so fairness and attack claims can be verified
//! **exactly** instead of by Monte-Carlo sampling:
//!
//! * an FLE protocol is fair iff every leader's count is exactly
//!   `|χ| / n`;
//! * an attack "controls the outcome" iff its target's count is `|χ|`;
//! * Lemma 2.4's resilience ⇄ unbias translation can be checked with
//!   rational arithmetic on counts rather than estimates.
//!
//! Use [`crate::protocols::BasicLead::with_values`] /
//! [`crate::protocols::ALeadUni::with_values`] to pin inputs, and
//! [`exact_distribution`] to fold a runner over the whole space.

use ring_sim::Outcome;

/// The exact outcome distribution of a protocol (or deviation) over an
/// exhaustively enumerated input space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactDistribution {
    /// `counts[j]` = number of inputs electing processor `j`.
    pub counts: Vec<u64>,
    /// Number of inputs whose execution failed.
    pub fails: u64,
    /// Total inputs enumerated (`Σ counts + fails`).
    pub total: u64,
}

impl ExactDistribution {
    /// `true` iff every leader is elected on exactly `total / n` inputs
    /// and nothing fails — the *fair leader election* definition, checked
    /// with integer arithmetic.
    pub fn is_exactly_uniform(&self) -> bool {
        let n = self.counts.len() as u64;
        self.fails == 0
            && self.total.is_multiple_of(n)
            && self.counts.iter().all(|&c| c == self.total / n)
    }

    /// The largest single-leader probability, `max_j Pr[outcome = j]`.
    pub fn max_probability(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts.iter().copied().max().unwrap_or(0) as f64 / self.total as f64
    }

    /// The exact unbias slack `ε = max_j Pr[outcome = j] − 1/n`
    /// (Definition of ε-k-unbiased, Section 2).
    pub fn epsilon(&self) -> f64 {
        self.max_probability() - 1.0 / self.counts.len() as f64
    }

    /// The exact expected rational utility `E[u]` of a processor whose
    /// utility vector over leaders is `utility` (with `u(FAIL) = 0`,
    /// Definition 2.1).
    ///
    /// # Panics
    ///
    /// Panics if `utility.len()` differs from the number of leaders.
    pub fn expected_utility(&self, utility: &[f64]) -> f64 {
        assert_eq!(utility.len(), self.counts.len(), "one utility per leader");
        if self.total == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .zip(utility)
            .map(|(&c, &u)| c as f64 * u)
            .sum::<f64>()
            / self.total as f64
    }
}

/// Enumerates `[base]^len` in odometer order, calling `visit` with each
/// assignment. `O(base^len)` — intended for `base^len ≲ 10⁷`.
///
/// # Panics
///
/// Panics if `base == 0`.
pub fn for_each_assignment(base: u64, len: usize, mut visit: impl FnMut(&[u64])) {
    assert!(base >= 1, "empty value domain");
    let mut digits = vec![0u64; len];
    loop {
        visit(&digits);
        // Increment the odometer.
        let mut i = 0;
        loop {
            if i == len {
                return;
            }
            digits[i] += 1;
            if digits[i] < base {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
    }
}

/// Computes the exact outcome distribution of a ring protocol over all
/// assignments of secret values to the positions in `free` (everything
/// else is controlled by the runner — typically coalition positions whose
/// nodes ignore their pinned value).
///
/// `run` receives a full length-`n` value vector (entries outside `free`
/// are zero) and returns the execution outcome.
///
/// # Panics
///
/// Panics if a position in `free` is `≥ n` or duplicated.
pub fn exact_distribution(
    n: usize,
    free: &[usize],
    mut run: impl FnMut(&[u64]) -> Outcome,
) -> ExactDistribution {
    assert!(free.iter().all(|&p| p < n), "free position out of range");
    let mut seen = vec![false; n];
    for &p in free {
        assert!(!seen[p], "duplicate free position {p}");
        seen[p] = true;
    }
    let mut counts = vec![0u64; n];
    let mut fails = 0u64;
    let mut total = 0u64;
    let mut values = vec![0u64; n];
    for_each_assignment(n as u64, free.len(), |digits| {
        for (&pos, &v) in free.iter().zip(digits) {
            values[pos] = v;
        }
        total += 1;
        match run(&values) {
            Outcome::Elected(j) if (j as usize) < n => counts[j as usize] += 1,
            Outcome::Elected(_) => fails += 1,
            Outcome::Fail(_) => fails += 1,
        }
    });
    ExactDistribution {
        counts,
        fails,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{ALeadUni, BasicLead, FleProtocol};

    #[test]
    fn odometer_covers_the_whole_space() {
        let mut seen = Vec::new();
        for_each_assignment(3, 2, |d| seen.push((d[0], d[1])));
        assert_eq!(seen.len(), 9);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 9);
        assert_eq!(seen[0], (0, 0));
        assert_eq!(seen[8], (2, 2));
    }

    #[test]
    fn odometer_handles_empty_assignments() {
        let mut calls = 0;
        for_each_assignment(5, 0, |_| calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn basic_lead_is_exactly_fair() {
        // All 4⁴ = 256 inputs: each leader elected exactly 64 times.
        let n = 4;
        let free: Vec<usize> = (0..n).collect();
        let dist = exact_distribution(n, &free, |values| {
            BasicLead::new(n)
                .with_values(values.to_vec())
                .run_honest()
                .outcome
        });
        assert_eq!(dist.total, 256);
        assert!(dist.is_exactly_uniform(), "{dist:?}");
        assert_eq!(dist.epsilon(), 0.0);
    }

    #[test]
    fn a_lead_uni_is_exactly_fair() {
        let n = 3;
        let free: Vec<usize> = (0..n).collect();
        let dist = exact_distribution(n, &free, |values| {
            ALeadUni::new(n)
                .with_values(values.to_vec())
                .run_honest()
                .outcome
        });
        assert_eq!(dist.total, 27);
        assert!(dist.is_exactly_uniform(), "{dist:?}");
    }

    #[test]
    fn expected_utility_is_count_weighted() {
        let dist = ExactDistribution {
            counts: vec![2, 1, 1],
            fails: 0,
            total: 4,
        };
        // u = indicator of leader 0.
        assert!((dist.expected_utility(&[1.0, 0.0, 0.0]) - 0.5).abs() < 1e-12);
        // FAIL contributes zero utility.
        let dist = ExactDistribution {
            counts: vec![1, 0, 0],
            fails: 3,
            total: 4,
        };
        assert!((dist.expected_utility(&[1.0, 1.0, 1.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn uniformity_check_requires_zero_fails() {
        let dist = ExactDistribution {
            counts: vec![2, 2],
            fails: 1,
            total: 5,
        };
        assert!(!dist.is_exactly_uniform());
    }

    #[test]
    #[should_panic(expected = "duplicate free position")]
    fn duplicate_positions_panic() {
        let _ = exact_distribution(3, &[1, 1], |_| Outcome::Elected(0));
    }
}
