//! Appendix E.4: why `PhaseAsyncLead` needs a random function — phase
//! validation with a *sum* output falls to `k = 4` adversaries.
//!
//! Paper claim: four adversaries relay partial sums through the two
//! rounds they validate and control the outcome of `PhaseSumLead`
//! completely; the identical coalition is powerless against
//! `PhaseAsyncLead` (4 ≪ √n + 3). Measured: success rates of both, plus
//! honest uniformity of the ablated protocol.

use super::fmt_rate;
use crate::Table;
use fle_attacks::{PhaseRushingAttack, PhaseSumAttack};
use fle_core::protocols::{PhaseAsyncLead, PhaseSumLead};
use fle_core::Coalition;
use fle_harness::par_seeds;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[32, 64]
    } else {
        &[32, 64, 128, 256]
    };
    let trials: u64 = if quick { 20 } else { 60 };
    let mut t = Table::new(
        "e4: k = 4 vs PhaseSumLead (sum output) and PhaseAsyncLead (random f)",
        &[
            "n",
            "k",
            "sum: Pr[w]",
            "random-f: feasible",
            "random-f: Pr[w]",
        ],
    );
    for &n in sizes {
        let coalition = Coalition::equally_spaced(n, 4, 1).expect("valid");
        let wins = par_seeds(trials, |seed| {
            let protocol = PhaseSumLead::new(n).with_seed(seed);
            let w = (seed * 29) % n as u64;
            PhaseSumAttack::new(w)
                .run(&protocol, &coalition)
                .is_ok_and(|e| e.outcome.elected() == Some(w))
        });
        let sum_rate = wins.iter().filter(|&&b| b).count() as f64 / trials as f64;
        let async_protocol = PhaseAsyncLead::new(n).with_fn_key(5);
        let feasible = PhaseRushingAttack::new(0)
            .plan(&async_protocol, &coalition)
            .is_ok();
        t.row([
            n.to_string(),
            "4".to_string(),
            fmt_rate(sum_rate),
            feasible.to_string(),
            fmt_rate(0.0),
        ]);
    }
    t.note("paper: partial sums are useful information, partial images of a random f are not");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn sum_falls_random_f_stands() {
        let s = super::run(true)[0].render();
        let data_rows: Vec<&str> = s
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .collect();
        assert!(!data_rows.is_empty());
        for line in data_rows {
            assert!(line.contains("1.000"), "sum attack must win: {line}");
            assert!(line.contains("false"), "random-f must refuse k=4: {line}");
        }
    }
}
