//! Game-theoretic layer: rational utilities and bias (paper Definitions
//! 2.1–2.3).

use ring_sim::Outcome;

/// A rational utility function over outcomes (paper Definition 2.1):
/// `u : [n] ∪ {FAIL} → [0, 1]` with `u(FAIL) = 0` — the solution-preference
/// assumption.
///
/// # Examples
///
/// ```
/// use fle_core::game::RationalUtility;
/// use ring_sim::{FailReason, Outcome};
///
/// let u = RationalUtility::indicator(4, 2);
/// assert_eq!(u.of(Outcome::Elected(2)), 1.0);
/// assert_eq!(u.of(Outcome::Elected(0)), 0.0);
/// assert_eq!(u.of(Outcome::Fail(FailReason::Abort)), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RationalUtility {
    per_leader: Vec<f64>,
}

impl RationalUtility {
    /// Builds a utility from per-leader values.
    ///
    /// # Panics
    ///
    /// Panics if any value is outside `[0, 1]` or the vector is empty.
    pub fn new(per_leader: Vec<f64>) -> Self {
        assert!(!per_leader.is_empty(), "utility needs at least one outcome");
        assert!(
            per_leader.iter().all(|&v| (0.0..=1.0).contains(&v)),
            "utilities must lie in [0, 1]"
        );
        Self { per_leader }
    }

    /// The utility `1[j = favourite]` used in the proof of Lemma 2.4: an
    /// adversary that wants exactly `favourite` elected.
    pub fn indicator(n: usize, favourite: usize) -> Self {
        assert!(favourite < n, "favourite {favourite} out of range {n}");
        let mut v = vec![0.0; n];
        v[favourite] = 1.0;
        Self { per_leader: v }
    }

    /// Utility of a single outcome. `FAIL` (and out-of-range leaders) are
    /// worth 0.
    pub fn of(&self, outcome: Outcome) -> f64 {
        match outcome {
            Outcome::Elected(j) => self.per_leader.get(j as usize).copied().unwrap_or(0.0),
            Outcome::Fail(_) => 0.0,
        }
    }

    /// Expected utility over an empirical outcome sample.
    pub fn expected<'a>(&self, outcomes: impl IntoIterator<Item = &'a Outcome>) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for o in outcomes {
            total += self.of(*o);
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// Empirical bias of an outcome sample: how far the most likely leader's
/// frequency exceeds the fair share `1/n`.
///
/// A protocol is `ε`-`k`-unbiased when no deviation can push any leader's
/// probability above `1/n + ε`; this measures the sample analogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasEstimate {
    /// Number of trials.
    pub trials: usize,
    /// Number of trials with outcome `FAIL`.
    pub failures: usize,
    /// The leader elected most often, if any trial succeeded.
    pub mode: Option<u64>,
    /// Frequency of the modal leader among **all** trials.
    pub mode_freq: f64,
    /// `mode_freq − 1/n`, the empirical `ε`.
    pub epsilon: f64,
}

/// Estimates the bias of a sample of outcomes for a ring of size `n`.
///
/// # Examples
///
/// ```
/// use fle_core::game::estimate_bias;
/// use ring_sim::Outcome;
///
/// let sample = vec![Outcome::Elected(3); 10];
/// let b = estimate_bias(4, &sample);
/// assert_eq!(b.mode, Some(3));
/// assert!((b.epsilon - 0.75).abs() < 1e-9);
/// ```
pub fn estimate_bias(n: usize, outcomes: &[Outcome]) -> BiasEstimate {
    let mut counts = vec![0usize; n];
    let mut failures = 0usize;
    for o in outcomes {
        match o {
            Outcome::Elected(j) if (*j as usize) < n => counts[*j as usize] += 1,
            Outcome::Elected(_) => failures += 1, // out-of-range output is junk
            Outcome::Fail(_) => failures += 1,
        }
    }
    let trials = outcomes.len();
    let (mode, &max) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| *c)
        .expect("n >= 1");
    let mode_freq = if trials == 0 {
        0.0
    } else {
        max as f64 / trials as f64
    };
    BiasEstimate {
        trials,
        failures,
        mode: if max > 0 { Some(mode as u64) } else { None },
        mode_freq,
        epsilon: mode_freq - 1.0 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::FailReason;

    #[test]
    fn indicator_utility_values() {
        let u = RationalUtility::indicator(5, 4);
        assert_eq!(u.of(Outcome::Elected(4)), 1.0);
        assert_eq!(u.of(Outcome::Elected(3)), 0.0);
        assert_eq!(u.of(Outcome::Fail(FailReason::Deadlock)), 0.0);
        assert_eq!(u.of(Outcome::Elected(99)), 0.0);
    }

    #[test]
    fn expected_utility_averages() {
        let u = RationalUtility::indicator(2, 1);
        let sample = vec![
            Outcome::Elected(1),
            Outcome::Elected(0),
            Outcome::Fail(FailReason::Abort),
            Outcome::Elected(1),
        ];
        assert!((u.expected(&sample) - 0.5).abs() < 1e-12);
        assert_eq!(u.expected(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "must lie in")]
    fn utility_out_of_range_panics() {
        let _ = RationalUtility::new(vec![0.2, 1.5]);
    }

    #[test]
    fn bias_of_uniform_sample_is_small() {
        let n = 8;
        let outcomes: Vec<Outcome> = (0..8000).map(|i| Outcome::Elected(i % 8)).collect();
        let b = estimate_bias(n, &outcomes);
        assert_eq!(b.failures, 0);
        assert!(b.epsilon.abs() < 1e-9);
    }

    #[test]
    fn bias_counts_failures() {
        let outcomes = vec![
            Outcome::Fail(FailReason::Abort),
            Outcome::Elected(1),
            Outcome::Elected(1),
        ];
        let b = estimate_bias(4, &outcomes);
        assert_eq!(b.failures, 1);
        assert_eq!(b.mode, Some(1));
        assert!((b.mode_freq - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_fail_sample_has_no_mode() {
        let outcomes = vec![Outcome::Fail(FailReason::Abort); 5];
        let b = estimate_bias(4, &outcomes);
        assert_eq!(b.mode, None);
        assert_eq!(b.failures, 5);
    }
}
