//! Ablations of `PhaseAsyncLead`'s design choices (Section 6).
//!
//! The protocol fixes two magic quantities: the validation-value range
//! `m = 2n²` and the cutoff `l = ⌈10√n⌉`. The `e4` experiment already
//! ablates the third choice (the random `f` vs a sum). This experiment
//! isolates `m`: a deviating processor that substitutes a guess for one
//! round's validation value survives with probability *exactly* `1/m`,
//! so `m = 2n²` is precisely the paper's "guessing is negligible"
//! margin (Lemma E.19's `2n/m = 1/n` bound). Sweeping `m` down makes the
//! survival rate measurable and linear in `1/m`.

use super::fmt_rate;
use crate::Table;
use fle_attacks::PhaseGuessAttack;
use fle_core::protocols::PhaseAsyncLead;
use fle_harness::par_seeds;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let n = 12usize;
    let trials: u64 = if quick { 200 } else { 1000 };
    let mut t = Table::new(
        "ablate: validation range m is exactly the guessing resistance",
        &["n", "m", "expected 1/m", "measured survival", "detected"],
    );
    let paper_m = 2 * (n as u64) * (n as u64);
    for m in [2u64, 4, 8, 32, paper_m] {
        let survived = par_seeds(trials, |seed| {
            let p = PhaseAsyncLead::new(n)
                .with_seed(seed)
                .with_fn_key(seed ^ 0xAB)
                .with_validation_range(m);
            PhaseGuessAttack::new(n / 2)
                .run(&p)
                .expect("valid position")
                .outcome
                .elected()
                .is_some()
        });
        let rate = survived.iter().filter(|&&b| b).count() as f64 / trials as f64;
        let label = if m == paper_m {
            format!("{m} (= 2n², paper)")
        } else {
            m.to_string()
        };
        t.row([
            n.to_string(),
            label,
            fmt_rate(1.0 / m as f64),
            fmt_rate(rate),
            fmt_rate(1.0 - rate),
        ]);
    }
    t.note(
        "one guessed validation value survives with probability exactly 1/m (Lemma E.19 margin)",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn survival_is_linear_in_one_over_m() {
        let t = super::run(true)[0].render();
        for line in t
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
        {
            // The m column may contain spaces ("288 (= 2n², paper)"), so
            // address the numeric columns from the right.
            let cells: Vec<&str> = line.split_whitespace().collect();
            let expect: f64 = cells[cells.len() - 3].parse().unwrap();
            let measured: f64 = cells[cells.len() - 2].parse().unwrap();
            assert!(
                (measured - expect).abs() < 0.09,
                "survival off the 1/m line: {line}"
            );
        }
    }
}
