//! Section 1.1 contrast: synchrony makes fair leader election trivially
//! `(n − 1)`-resilient.
//!
//! Paper context: Abraham et al. solve the synchronous fully connected
//! (and ring) scenarios optimally — every processor commits its secret
//! simultaneously, so waiting is detectable and a single honest
//! processor's randomness keeps the election uniform against any
//! complying coalition of `n − 1`. The same wait-and-cancel move that
//! controls `Basic-LEAD` with probability 1 is caught with probability 1
//! here. Everything hard in this repository exists because asynchrony
//! removes exactly this detection power.

use super::fmt_rate;
use crate::stats::chi_square_uniform;
use crate::Table;
use fle_attacks::BasicSingleAttack;
use fle_core::protocols::{BasicLead, SyncFixedValue, SyncLead, SyncWaitAndCancel};
use fle_harness::par_seeds;
use ring_sim::sync::SyncNode;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 8 } else { 16 };
    let trials: u64 = if quick { 1500 } else { 6000 };

    let mut t = Table::new(
        "sfc: wait-and-cancel across the synchrony boundary",
        &[
            "network",
            "protocol",
            "adversary",
            "Pr[target]",
            "FAIL rate",
        ],
    );
    // Asynchronous: Claim B.1 wins with probability 1.
    let async_wins = par_seeds(200, |seed| {
        let p = BasicLead::new(n).with_seed(seed);
        BasicSingleAttack::new(2, 5)
            .run(&p)
            .unwrap()
            .outcome
            .elected()
            == Some(5)
    });
    let rate = async_wins.iter().filter(|&&b| b).count() as f64 / 200.0;
    t.row([
        "asynchronous ring".to_string(),
        "Basic-LEAD".to_string(),
        "wait-and-cancel (k=1)".to_string(),
        fmt_rate(rate),
        fmt_rate(0.0),
    ]);
    // Synchronous: the identical move is detected every time.
    let sync_fails = par_seeds(200, |seed| {
        let p = SyncLead::new(n).with_seed(seed);
        p.run_with(vec![(2, Box::new(SyncWaitAndCancel::new(n, 5)))])
            .outcome
            .is_fail()
    });
    let fail_rate = sync_fails.iter().filter(|&&b| b).count() as f64 / 200.0;
    t.row([
        "synchronous complete".to_string(),
        "SyncLead".to_string(),
        "wait-and-cancel (k=1)".to_string(),
        fmt_rate(0.0),
        fmt_rate(fail_rate),
    ]);
    t.note("paper Sec 1.1: synchrony detects silence, so commitment is free");

    // n−1 complying adversaries cannot bias the synchronous election.
    let outcomes = par_seeds(trials, |seed| {
        let p = SyncLead::new(n).with_seed(seed);
        let overrides = (1..n)
            .map(|id| {
                let node: Box<dyn SyncNode<u64>> = Box::new(SyncFixedValue::new(n, 0));
                (id, node)
            })
            .collect();
        p.run_with(overrides)
            .outcome
            .elected()
            .expect("complying coalition never fails")
    });
    let mut counts = vec![0u64; n];
    for o in outcomes {
        counts[o as usize] += 1;
    }
    let (chi2, pval) = chi_square_uniform(&counts);
    let mut u = Table::new(
        "sfc: SyncLead uniformity under an (n-1)-coalition of fixed values",
        &["n", "k", "trials", "chi2", "p-value"],
    );
    u.row([
        n.to_string(),
        (n - 1).to_string(),
        trials.to_string(),
        format!("{chi2:.1}"),
        format!("{pval:.3}"),
    ]);
    u.note("one honest processor's randomness suffices: the coalition gains nothing");
    vec![t, u]
}

#[cfg(test)]
mod tests {
    #[test]
    fn synchrony_detects_what_asynchrony_cannot() {
        let tables = super::run(true);
        let t = tables[0].render();
        let async_row = t.lines().find(|l| l.starts_with("asynchronous")).unwrap();
        assert!(async_row.contains("1.000"));
        let sync_row = t.lines().find(|l| l.starts_with("synchronous")).unwrap();
        assert!(sync_row.trim_end().ends_with("1.000"));
        let u = tables[1].render();
        let p: f64 = u
            .lines()
            .nth(3)
            .and_then(|l| l.split_whitespace().nth(4))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(p > 0.001, "uniformity rejected: {u}");
    }
}
