//! Claim B.1: `Basic-LEAD` is not resilient to even one adversary.
//!
//! Paper claim: a single processor that waits for the other `n − 1`
//! values before "selecting" its own forces any target `w` with
//! probability 1 (vs. the fair `1/n`). Measured: attack success rate and
//! the honest baseline rate for the same target.

use super::fmt_rate;
use crate::Table;
use fle_attacks::BasicSingleAttack;
use fle_core::protocols::{BasicLead, FleProtocol};
use fle_harness::par_seeds;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick { &[8, 16] } else { &[8, 32, 128] };
    let trials: u64 = if quick { 60 } else { 300 };
    let mut t = Table::new(
        "b1: single adversary vs Basic-LEAD (Claim B.1)",
        &[
            "n",
            "trials",
            "attack Pr[w]",
            "honest Pr[w]",
            "fair 1/n",
            "epsilon",
        ],
    );
    for &n in sizes {
        let results = par_seeds(trials, |seed| {
            let protocol = BasicLead::new(n).with_seed(seed);
            let adv = (seed as usize * 7 + 1) % n;
            let w = (seed * 13) % n as u64;
            let attacked = BasicSingleAttack::new(adv, w)
                .run(&protocol)
                .expect("single adversary is always feasible");
            let honest = protocol.run_honest();
            (
                attacked.outcome.elected() == Some(w),
                honest.outcome.elected() == Some(w),
            )
        });
        let wins = results.iter().filter(|r| r.0).count() as f64 / trials as f64;
        let honest = results.iter().filter(|r| r.1).count() as f64 / trials as f64;
        t.row([
            n.to_string(),
            trials.to_string(),
            fmt_rate(wins),
            fmt_rate(honest),
            fmt_rate(1.0 / n as f64),
            super::fmt_eps(wins - 1.0 / n as f64),
        ]);
    }
    t.note("paper: attack succeeds with probability 1 for every n, target and position");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn attack_rate_is_one() {
        let tables = super::run(true);
        let s = tables[0].render();
        // every row reports a 1.000 attack success rate
        assert!(s.matches("1.000").count() >= 2, "{s}");
    }
}
