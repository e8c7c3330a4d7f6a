//! Claim D.1 and the original Abraham et al. bound: *consecutive*
//! coalitions are harmless below `k = ⌈(n+1)/2⌉` and all-powerful at it.
//!
//! Paper claims: `A-LEADuni` is unbiased against every consecutively
//! located coalition of `k < n/2` (Claim D.1 / Appendix D), while the
//! general impossibility (and Lemma 4.1 with a single segment of length
//! `n − k ≤ k − 1`) puts full control exactly at `k ≥ ⌈(n+1)/2⌉`.

use super::fmt_rate;
use crate::Table;
use fle_attacks::RushingAttack;
use fle_core::protocols::ALeadUni;
use fle_core::Coalition;
use fle_harness::par_seeds;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick { &[33] } else { &[33, 129] };
    let trials: u64 = if quick { 15 } else { 40 };
    let mut t = Table::new(
        "d1: consecutive coalitions vs A-LEADuni (Claim D.1 crossover)",
        &["n", "k", "k - (n+1)/2", "l of exposed", "feasible", "Pr[w]"],
    );
    for &n in sizes {
        let half = n.div_ceil(2); // ⌈n/2⌉ = ⌈(n+1)/2⌉ for odd n
        for delta in [-3i64, -1, 0, 1, 3] {
            let k = (half as i64 + delta).clamp(2, n as i64 - 1) as usize;
            let coalition = Coalition::consecutive(n, k, 1).expect("valid");
            let feasible = RushingAttack::new(0)
                .plan(&ALeadUni::new(n), &coalition)
                .is_ok();
            let rate = if feasible {
                let wins = par_seeds(trials, |seed| {
                    let protocol = ALeadUni::new(n).with_seed(seed);
                    let w = (seed * 7) % n as u64;
                    RushingAttack::new(w)
                        .run(&protocol, &coalition)
                        .is_ok_and(|e| e.outcome.elected() == Some(w))
                });
                wins.iter().filter(|&&b| b).count() as f64 / trials as f64
            } else {
                0.0
            };
            t.row([
                n.to_string(),
                k.to_string(),
                format!("{:+}", k as i64 - ((n as i64 + 1) / 2)),
                coalition.max_distance().to_string(),
                feasible.to_string(),
                fmt_rate(rate),
            ]);
        }
    }
    t.note("paper: consecutive coalitions need n - k <= k - 1, i.e. k >= (n+1)/2");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn crossover_at_half() {
        let s = super::run(true)[0].render();
        for line in s.lines().skip(2).filter(|l| !l.starts_with("note")) {
            let below = line.contains(" -3 ") || line.contains(" -1 ");
            if below {
                assert!(line.contains("false"), "{line}");
            }
            if line.contains(" +1 ") || line.contains(" +3 ") || line.contains(" +0 ") {
                assert!(line.contains("true") && line.contains("1.000"), "{line}");
            }
        }
    }
}
