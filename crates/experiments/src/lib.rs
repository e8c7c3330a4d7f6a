//! # fle-experiments — the reproduction harness
//!
//! One experiment per figure/result of Yifrach & Mansour (PODC 2018);
//! `fle_lab --list` prints the registry, each entry naming the claim it
//! reproduces, and the README's "Paper section → module table" maps the
//! paper's sections to the code. Run everything with
//!
//! ```text
//! cargo run --release -p fle-experiments --bin fle_lab -- all
//! ```
//!
//! or a single experiment by id (`fig1`, `b1`, `t42`, `tc1`, `t43`,
//! `t51`, `d1`, `t61`, `e4`, `t72`, `t81`, `sync`, `msg`, `sfc`, `c47`,
//! `shamir`, `syncring`, `fullinfo`, `apph`, `rename`, `exact`,
//! `ablate`, `timed`, `faults`). Every experiment returns plain-text [`Table`]s; `--quick`
//! shrinks ring sizes and trial counts for smoke testing (the same
//! configuration the integration tests and Criterion benches use).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp;
pub mod stats;
mod table;

pub use table::Table;

/// An experiment: id, one-line description, and runner
/// (`quick = true` shrinks sizes for smoke tests).
pub struct Experiment {
    /// Short id used on the command line (e.g. `t42`).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub description: &'static str,
    /// Runs the experiment and returns its result tables.
    pub run: fn(quick: bool) -> Vec<Table>,
}

/// The experiment registry, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig1",
        description: "Figure 1: coalition layouts and honest segments on the ring",
        run: exp::fig1::run,
    },
    Experiment {
        id: "b1",
        description: "Claim B.1: a single adversary controls Basic-LEAD",
        run: exp::b1::run,
    },
    Experiment {
        id: "t42",
        description: "Thm 4.2: equal-spacing rushing attack crosses over at k = sqrt(n)",
        run: exp::t42::run,
    },
    Experiment {
        id: "tc1",
        description: "Thm C.1: randomly located coalitions of Theta(sqrt(n log n)) win w.h.p.",
        run: exp::tc1::run,
    },
    Experiment {
        id: "t43",
        description: "Thm 4.3: the cubic attack wins with k ~ 2 n^(1/3) and Omega(k^2) desync",
        run: exp::t43::run,
    },
    Experiment {
        id: "t51",
        description: "Thm 5.1: A-LEADuni is unbiased for k = O(n^(1/4)) (attacks infeasible)",
        run: exp::t51::run,
    },
    Experiment {
        id: "d1",
        description: "Claim D.1: consecutive coalitions cross over at k = ceil((n+1)/2)",
        run: exp::d1::run,
    },
    Experiment {
        id: "t61",
        description: "Thm 6.1: PhaseAsyncLead resists k <= sqrt(n)/10, falls at sqrt(n)+3",
        run: exp::t61::run,
    },
    Experiment {
        id: "e4",
        description: "App E.4: PhaseSumLead falls to k = 4 (why f must be random)",
        run: exp::e4::run,
    },
    Experiment {
        id: "t72",
        description: "Thm 7.2: k-simulated trees - dictators, F.5 partitions, tree coalitions",
        run: exp::t72::run,
    },
    Experiment {
        id: "t81",
        description: "Thm 8.1: FLE <-> coin-toss reductions and bias propagation",
        run: exp::t81::run,
    },
    Experiment {
        id: "sync",
        description: "Lemma D.5 / Sec 6: sent-count synchronization gaps per protocol x attack",
        run: exp::sync::run,
    },
    Experiment {
        id: "msg",
        description: "Sec 1.1: message complexity vs classical baselines",
        run: exp::msg::run,
    },
    Experiment {
        id: "sfc",
        description: "Sec 1.1 contrast: synchrony makes FLE (n-1)-resilient for free",
        run: exp::sfc::run,
    },
    Experiment {
        id: "c47",
        description: "Conjecture 4.7: bracket the open resilience gap of A-LEADuni",
        run: exp::c47::run,
    },
    Experiment {
        id: "shamir",
        description: "Sec 1.1: A-LEADfc (Shamir) resilience crossover at k = ceil(n/2)",
        run: exp::shamir::run,
    },
    Experiment {
        id: "syncring",
        description: "Sec 1.1: synchronous ring detects what asynchrony rewards ((n-1)-resilient)",
        run: exp::syncring::run,
    },
    Experiment {
        id: "fullinfo",
        description:
            "Sec 1.1: full-information model - one-round games, iterated majority, baton, bins",
        run: exp::fullinfo::run,
    },
    Experiment {
        id: "apph",
        description: "App H: unknown ids - id-lie utility k/n and per-segment origin masking",
        run: exp::apph::run,
    },
    Experiment {
        id: "rename",
        description: "Afek et al. renaming: rotation and permutation renaming from elections",
        run: exp::rename::run,
    },
    Experiment {
        id: "exact",
        description: "Exact enumeration: fairness, Claim B.1 and Lemma 2.4 as integer identities",
        run: exp::exact::run,
    },
    Experiment {
        id: "ablate",
        description: "Sec 6 ablation: validation range m is exactly the guessing resistance (1/m)",
        run: exp::ablate::run,
    },
    Experiment {
        id: "timed",
        description: "Timed nets: latency placement never rescues the ring; loss leaves the model",
        run: exp::timed::run,
    },
    Experiment {
        id: "faults",
        description:
            "Crash faults: survival vs. crash count, recovery ladder, crashes never arm rushing",
        run: exp::faults::run,
    },
];

/// Looks up an experiment by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    #[test]
    fn find_locates_experiments() {
        assert!(find("t42").is_some());
        assert!(find("nope").is_none());
    }
}
