//! Section 1.1 (asynchronous fully-connected network): Abraham et al.'s
//! Shamir-based election `A-LEADfc` is `⌈n/2⌉ − 1`-resilient, and the
//! bound is tight.
//!
//! Paper claim: "For an asynchronous fully connected network, they apply
//! Shamir's secret sharing scheme in a straightforward manner and get an
//! optimal resilience result of `k = n/2 − 1`" — optimal because no FLE
//! protocol on any network resists `⌈n/2⌉` (Theorem 7.2). Measured: the
//! share-pooling coalition's forcing rate just below and at the
//! threshold, plus honest uniformity.

use super::fmt_rate;
use crate::stats::chi_square_uniform;
use crate::Table;
use fle_core::protocols::FleProtocol;
use fle_harness::par_seeds;
use fle_secretshare::{run_fc_attack, ALeadFc};

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick { &[8, 12] } else { &[8, 12, 16, 24] };
    let trials: u64 = if quick { 24 } else { 96 };

    let mut crossover = Table::new(
        "shamir: A-LEADfc resilience crossover at k = ceil(n/2)",
        &["n", "t", "k=t (Pr[w])", "k=t+1 (Pr[w])"],
    );
    for &n in sizes {
        let t = n.div_ceil(2) - 1;
        let below: Vec<usize> = (0..t).collect();
        let at: Vec<usize> = (0..t + 1).collect();
        let below_wins = par_seeds(trials, |seed| {
            let p = ALeadFc::new(n).with_seed(seed);
            let w = (seed * 31) % n as u64;
            run_fc_attack(&p, &below, w).outcome.elected() == Some(w)
        });
        let at_wins = par_seeds(trials, |seed| {
            let p = ALeadFc::new(n).with_seed(seed);
            let w = (seed * 31) % n as u64;
            run_fc_attack(&p, &at, w).outcome.elected() == Some(w)
        });
        crossover.row([
            n.to_string(),
            t.to_string(),
            fmt_rate(below_wins.iter().filter(|&&b| b).count() as f64 / trials as f64),
            fmt_rate(at_wins.iter().filter(|&&b| b).count() as f64 / trials as f64),
        ]);
    }
    crossover.note(
        "paper: resilient to n/2 - 1; the pooled coalition reconstructs at t + 1 = ceil(n/2)",
    );

    let mut fairness = Table::new(
        "shamir: honest A-LEADfc uniformity",
        &["n", "trials", "chi2", "p-value"],
    );
    let n = 8usize;
    let fair_trials: u64 = if quick { 160 } else { 1600 };
    let winners = par_seeds(fair_trials, |seed| {
        ALeadFc::new(n)
            .with_seed(seed)
            .run_honest()
            .outcome
            .elected()
            .expect("honest runs succeed")
    });
    let mut counts = vec![0u64; n];
    for w in winners {
        counts[w as usize] += 1;
    }
    let (chi2, p) = chi_square_uniform(&counts);
    fairness.row([
        n.to_string(),
        fair_trials.to_string(),
        format!("{chi2:.2}"),
        format!("{p:.3}"),
    ]);
    vec![crossover, fairness]
}

#[cfg(test)]
mod tests {
    #[test]
    fn crossover_shape_holds() {
        let tables = super::run(true);
        let s = tables[0].render();
        for line in s
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
        {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let below: f64 = cells[2].parse().unwrap();
            let at: f64 = cells[3].parse().unwrap();
            assert!(below < 0.5, "sub-threshold coalition too strong: {line}");
            assert!(
                (at - 1.0).abs() < 1e-9,
                "threshold coalition must win: {line}"
            );
        }
        let fairness = tables[1].render();
        assert!(fairness.contains("chi2"));
    }
}
