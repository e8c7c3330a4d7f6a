//! Theorem C.1: randomly located coalitions of `Θ(√(n log n))` control
//! `A-LEADuni` with high probability — without knowing `k` or their
//! distances.
//!
//! Paper claim: with `p = √(8 ln n / n)` the circularity-detection attack
//! succeeds with probability `≥ 1 − n^{2−C}` on a `1 − δ` fraction of
//! coalitions. Measured: success rates as the density sweeps across the
//! threshold; favourable layouts (the theorem's good event) must succeed
//! essentially always.

use super::fmt_rate;
use crate::Table;
use fle_attacks::RandomLocatedAttack;
use fle_core::protocols::ALeadUni;
use fle_core::Coalition;
use fle_harness::par_seeds;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick { &[256] } else { &[256, 1024] };
    let trials: u64 = if quick { 30 } else { 80 };
    let window = 4;
    let mut t = Table::new(
        "tc1: randomly located coalitions vs A-LEADuni (Thm C.1)",
        &[
            "n",
            "p/p*",
            "p",
            "mean k",
            "favourable",
            "Pr[w] overall",
            "Pr[w] | favourable",
        ],
    );
    for &n in sizes {
        let p_star = (8.0 * (n as f64).ln() / n as f64).sqrt();
        for c in [0.25, 0.5, 1.0] {
            let p = (c * p_star).min(0.45);
            let attack = RandomLocatedAttack::new(3, window);
            let results = par_seeds(trials, |seed| {
                let Some(coalition) = Coalition::random_bernoulli(n, p, seed * 65_537 + 11) else {
                    return (0usize, false, false);
                };
                let protocol = ALeadUni::new(n).with_seed(seed);
                let fav = attack.layout_is_favourable(&coalition);
                let win = attack
                    .run(&protocol, &coalition)
                    .is_ok_and(|e| e.outcome.elected() == Some(3));
                (coalition.k(), fav, win)
            });
            let mean_k = results.iter().map(|r| r.0).sum::<usize>() as f64 / trials as f64;
            let fav = results.iter().filter(|r| r.1).count();
            let wins = results.iter().filter(|r| r.2).count();
            let fav_wins = results.iter().filter(|r| r.1 && r.2).count();
            t.row([
                n.to_string(),
                format!("{c:.2}"),
                format!("{p:.3}"),
                format!("{mean_k:.1}"),
                fmt_rate(fav as f64 / trials as f64),
                fmt_rate(wins as f64 / trials as f64),
                if fav == 0 {
                    "-".to_string()
                } else {
                    fmt_rate(fav_wins as f64 / fav as f64)
                },
            ]);
        }
    }
    t.note("p* = sqrt(8 ln n / n); the attack does not know k or the distances l_j");
    t.note("paper: favourable layouts lose only to false circularity (prob <= n^(2-C))");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn favourable_layouts_win() {
        let t = &super::run(true)[0];
        let s = t.render();
        // At the full threshold density the favourable-conditioned rate is 1.
        let last = s.lines().rfind(|l| l.starts_with("256")).unwrap();
        assert!(last.ends_with("1.000"), "{s}");
    }
}
