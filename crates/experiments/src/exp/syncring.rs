//! Section 1.1 (synchronous ring): lock-step rounds alone make the ring
//! election `(n − 1)`-resilient.
//!
//! Paper claim: for a synchronous ring Abraham et al. give an optimal
//! `n − 1`-resilient protocol — synchrony forces every processor to
//! commit its secret in round 0, simultaneously, so the Claim B.1 rushing
//! adversary is simply *caught* (its successor sees an empty inbox).
//! Measured: detection of waiting and of forward-corruption, and the
//! unbiasedness of the outcome against an `n − 1` coalition, contrasted
//! with the same coalition's total control over the asynchronous
//! `Basic-LEAD`.

use super::fmt_rate;
use crate::Table;
use fle_attacks::BasicSingleAttack;
use fle_core::protocols::{BasicLead, SyncRingCorruptor, SyncRingLead, SyncRingWaiter};
use fle_harness::par_seeds;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let trials: u64 = if quick { 60 } else { 300 };
    let mut detection = Table::new(
        "syncring: deviations are detected, not rewarded",
        &[
            "n",
            "deviation",
            "detected (FAIL) rate",
            "async contrast: Pr[w]",
        ],
    );
    let sizes: &[usize] = if quick { &[8] } else { &[8, 16, 32] };
    for &n in sizes {
        // Waiting adversary on the synchronous ring: always detected.
        let wait_fails = par_seeds(trials, |seed| {
            let p = SyncRingLead::new(n).with_seed(seed);
            p.run_with(vec![(n / 2, Box::new(SyncRingWaiter))])
                .outcome
                .is_fail()
        });
        // The same "wait for everyone" idea on the asynchronous ring is
        // the Claim B.1 total-control attack.
        let async_wins = par_seeds(trials, |seed| {
            let p = BasicLead::new(n).with_seed(seed);
            let w = seed % n as u64;
            BasicSingleAttack::new(n / 2, w)
                .run(&p)
                .expect("feasible")
                .outcome
                .elected()
                == Some(w)
        });
        detection.row([
            n.to_string(),
            "wait-for-secrets".to_string(),
            fmt_rate(wait_fails.iter().filter(|&&b| b).count() as f64 / trials as f64),
            fmt_rate(async_wins.iter().filter(|&&b| b).count() as f64 / trials as f64),
        ]);
        let corrupt_fails = par_seeds(trials, |seed| {
            let p = SyncRingLead::new(n).with_seed(seed);
            let round = 1 + (seed as usize % (n - 1));
            let bad = SyncRingCorruptor::new(&p, n / 3, round);
            p.run_with(vec![(n / 3, Box::new(bad))]).outcome.is_fail()
        });
        detection.row([
            n.to_string(),
            "corrupt-forward".to_string(),
            fmt_rate(corrupt_fails.iter().filter(|&&b| b).count() as f64 / trials as f64),
            "-".to_string(),
        ]);
    }
    detection
        .note("synchrony detects silence; asynchrony lets the same strategy control the outcome");

    let mut unbias = Table::new(
        "syncring: n-1 fixed-value coalition cannot bias the lone honest processor",
        &["n", "trials", "max leader freq", "uniform 1/n"],
    );
    let n = 8usize;
    let bias_trials: u64 = if quick { 400 } else { 2000 };
    let winners = par_seeds(bias_trials, |seed| {
        let p = SyncRingLead::new(n).with_seed(seed);
        // The coalition pins its secrets to fixed values (drawn once from
        // a constant seed) — its best commitment-compatible strategy,
        // since round 0 forces it to send before seeing anything.
        let pinned = SyncRingLead::new(n).with_seed(0xC0A11);
        let overrides = (1..n)
            .map(|id| {
                (
                    id,
                    Box::new(pinned.honest_node(id)) as Box<dyn ring_sim::sync::SyncNode<u64>>,
                )
            })
            .collect();
        p.run_with(overrides).outcome.elected().expect("valid run")
    });
    let mut counts = vec![0u64; n];
    for w in winners {
        counts[w as usize] += 1;
    }
    let max_freq = counts.iter().copied().max().unwrap_or(0) as f64 / bias_trials as f64;
    unbias.row([
        n.to_string(),
        bias_trials.to_string(),
        fmt_rate(max_freq),
        fmt_rate(1.0 / n as f64),
    ]);

    vec![detection, unbias]
}

#[cfg(test)]
mod tests {
    #[test]
    fn synchrony_detects_what_asynchrony_rewards() {
        let tables = super::run(true);
        let detection = tables[0].render();
        for line in detection.lines().filter(|l| l.contains("wait-for-secrets")) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cells[2], "1.000", "waiting must always be detected: {line}");
            assert_eq!(cells[3], "1.000", "async contrast must always win: {line}");
        }
        for line in detection.lines().filter(|l| l.contains("corrupt-forward")) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(
                cells[2], "1.000",
                "corruption must always be detected: {line}"
            );
        }
        let unbias = tables[1].render();
        let line = unbias
            .lines()
            .find(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .expect("data row");
        let cells: Vec<&str> = line.split_whitespace().collect();
        let max_freq: f64 = cells[2].parse().unwrap();
        assert!(max_freq < 0.25, "coalition biased the outcome: {line}");
    }
}
