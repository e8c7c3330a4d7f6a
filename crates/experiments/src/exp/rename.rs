//! Afek et al. \[5\], Renaming: fair renaming built from the election
//! machinery (Section 1.1 related work) — rotation renaming from one
//! election, uniform-permutation renaming from election-derived coins
//! (Theorem 8.1 direction FLE → coin).
//!
//! Measured: validity (names always a permutation), marginal uniformity
//! of a fixed processor's name under rotation, full-permutation coverage,
//! and the election cost of the permutation scheme.

use super::fmt_rate;
use crate::stats::chi_square_uniform;
use crate::Table;
use fle_core::renaming::{permutation_renaming, rotation_renaming};
use fle_harness::par_seeds;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let n = 8usize;
    let trials: u64 = if quick { 120 } else { 800 };

    let mut rotation = Table::new(
        "rename: rotation renaming (1 election), marginal uniformity of processor 3's name",
        &["n", "trials", "valid rate", "chi2", "p-value"],
    );
    let names = par_seeds(trials, |seed| {
        let r = rotation_renaming(n, seed).expect("honest elections succeed");
        (r.is_valid(), r.names[3])
    });
    let valid = names.iter().filter(|&&(v, _)| v).count() as f64 / trials as f64;
    let mut counts = vec![0u64; n];
    for &(_, name) in &names {
        counts[name] += 1;
    }
    let (chi2, p) = chi_square_uniform(&counts);
    rotation.row([
        n.to_string(),
        trials.to_string(),
        fmt_rate(valid),
        format!("{chi2:.2}"),
        format!("{p:.3}"),
    ]);

    let mut permutation = Table::new(
        "rename: permutation renaming (elections -> coins -> Fisher-Yates)",
        &[
            "n",
            "trials",
            "valid rate",
            "distinct permutations",
            "avg elections",
        ],
    );
    let pn = if quick { 4 } else { 5 };
    let ptrials: u64 = if quick { 60 } else { 300 };
    let perms = par_seeds(ptrials, |seed| {
        let r = permutation_renaming(pn, seed).expect("honest elections succeed");
        (r.is_valid(), r.names.clone(), r.elections)
    });
    let valid = perms.iter().filter(|&(v, _, _)| *v).count() as f64 / ptrials as f64;
    let mut distinct: Vec<_> = perms.iter().map(|(_, names, _)| names.clone()).collect();
    distinct.sort();
    distinct.dedup();
    let avg_elections = perms.iter().map(|&(_, _, e)| e as f64).sum::<f64>() / ptrials as f64;
    permutation.row([
        pn.to_string(),
        ptrials.to_string(),
        fmt_rate(valid),
        distinct.len().to_string(),
        format!("{avg_elections:.1}"),
    ]);
    permutation
        .note("entropy cost: Theta(n log n) bits, each election yields floor(log2 n) of them");

    vec![rotation, permutation]
}

#[cfg(test)]
mod tests {
    #[test]
    fn renamings_are_valid_and_uniformish() {
        let tables = super::run(true);
        let rotation = tables[0].render();
        assert!(
            rotation.contains("1.000"),
            "all renamings valid: {rotation}"
        );
        let permutation = tables[1].render();
        let line = permutation
            .lines()
            .find(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .expect("data row");
        let cells: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cells[2], "1.000", "validity: {line}");
        let distinct: usize = cells[3].parse().unwrap();
        assert!(distinct > 10, "permutation variety too low: {line}");
    }
}
