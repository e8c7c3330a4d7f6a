//! Appendix H: unknown ids — the wake-up phase is abusable and the naive
//! problem definition is broken.
//!
//! Paper claims: (1) under the natural utility `u₀(x) = 1[x ∉ Ω]` a lying
//! coalition gains `E[u₀] = k/n`, so no protocol is resilient for any
//! `k ≥ 1`; (2) adversaries can allocate a believed origin inside *every*
//! honest segment by masking id bits, and the resilience proofs do not
//! survive this. Measured: the ghost-election rate of the id-lie
//! deviation against `k/n`, and the masking attack's per-segment origin
//! allocation plus its deterministic forcing of a fabricated id.

use super::fmt_rate;
use crate::Table;
use fle_attacks::{WakeupIdLieAttack, WakeupMaskAttack};
use fle_core::protocols::WakeLead;
use fle_core::Coalition;
use fle_harness::par_seeds;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let trials: u64 = if quick { 80 } else { 400 };

    let mut lie = Table::new(
        "apph: id-lie deviation, E[u0] = Pr[ghost elected] vs k/n",
        &["n", "k", "k/n", "ghost rate", "fail rate"],
    );
    let configs: &[(usize, usize)] = if quick {
        &[(8, 1), (8, 2)]
    } else {
        &[(8, 1), (8, 2), (12, 3), (16, 4)]
    };
    for &(n, k) in configs {
        let coalition = Coalition::equally_spaced(n, k, 1).expect("valid layout");
        let results = par_seeds(trials, |seed| {
            let protocol = WakeLead::new(n).with_seed(seed);
            let exec = WakeupIdLieAttack::new()
                .run(&protocol, &coalition)
                .expect("lie attack always runs");
            match exec.outcome.elected() {
                Some(w) => (WakeupIdLieAttack::is_ghost(w), false),
                None => (false, true),
            }
        });
        let ghosts = results.iter().filter(|&&(g, _)| g).count() as f64 / trials as f64;
        let fails = results.iter().filter(|&&(_, f)| f).count() as f64 / trials as f64;
        lie.row([
            n.to_string(),
            k.to_string(),
            fmt_rate(k as f64 / n as f64),
            fmt_rate(ghosts),
            fmt_rate(fails),
        ]);
    }
    lie.note("paper: E[u0] = k/n for every k >= 1, so the naive unknown-ids definition admits no resilient protocol");

    let mut mask = Table::new(
        "apph: masking attack - per-segment origins and forced ghost election",
        &["n", "k", "segments", "distinct origins", "forced rate"],
    );
    let mask_configs: &[(usize, usize)] = if quick {
        &[(16, 4)]
    } else {
        &[(16, 4), (25, 5), (36, 6)]
    };
    let mask_trials: u64 = if quick { 20 } else { 60 };
    for &(n, k) in mask_configs {
        let coalition = Coalition::equally_spaced(n, k, 0).expect("valid layout");
        let wins = par_seeds(mask_trials, |seed| {
            let protocol = WakeLead::new(n).with_seed(seed);
            let attack = WakeupMaskAttack::new(seed as usize % k);
            let plan = attack.plan(&protocol, &coalition).expect("feasible layout");
            let exec = attack.run(&protocol, &coalition).expect("feasible layout");
            exec.outcome.elected() == Some(plan.target_id)
        });
        let protocol = WakeLead::new(n).with_seed(0);
        let plan = WakeupMaskAttack::new(0)
            .plan(&protocol, &coalition)
            .expect("feasible layout");
        let mut origins: Vec<_> = plan.segment_origins.iter().map(|&(_, o, _)| o).collect();
        origins.sort_unstable();
        origins.dedup();
        mask.row([
            n.to_string(),
            k.to_string(),
            plan.segment_origins.len().to_string(),
            origins.len().to_string(),
            fmt_rate(wins.iter().filter(|&&b| b).count() as f64 / mask_trials as f64),
        ]);
    }
    mask.note("every honest segment believes it contains the origin, yet all elect the same fabricated id");

    vec![lie, mask]
}

#[cfg(test)]
mod tests {
    #[test]
    fn lie_rate_tracks_fair_share_and_mask_forces() {
        let tables = super::run(true);
        let lie = tables[0].render();
        for line in lie
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
        {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let share: f64 = cells[2].parse().unwrap();
            let ghost: f64 = cells[3].parse().unwrap();
            let fails: f64 = cells[4].parse().unwrap();
            assert!((ghost - share).abs() < 0.12, "{line}");
            assert_eq!(fails, 0.0, "{line}");
        }
        let mask = tables[1].render();
        for line in mask
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
        {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(
                cells[2], cells[3],
                "origins must be one per segment: {line}"
            );
            assert_eq!(cells[4], "1.000", "mask attack must force: {line}");
        }
    }
}
