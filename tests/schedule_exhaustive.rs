//! Exhaustive small-`n` schedule checking — a tiny model checker for the
//! paper's Section 2 claim that on a unidirectional ring the outcome of an
//! honest execution is independent of the oblivious message schedule.
//!
//! [`ring_sim::for_each_schedule`] enumerates *every* oblivious token
//! interleaving by depth-first search over
//! [`ring_sim::EnumerativeScheduler`] choice points (pending tokens for
//! the same link collapse — popping either delivers the same front
//! message, so the pruning loses no distinct execution). For each
//! schedule we run the full honest protocol and assert the execution
//! elects exactly one leader — and the *same* leader in every
//! interleaving. This backs the [`ring_sim::Scheduler`] trait's
//! eventual-delivery contract with an enumeration instead of sampling.

use fle_core::protocols::{ALeadUni, BasicLead, FleProtocol, PhaseAsyncLead, RingProtocol};
use ring_sim::{for_each_schedule, FailReason, Node, Outcome, SimBuilder, Topology};

/// Tally of one exhaustive sweep.
struct SweepTally {
    schedules: u64,
    /// `leaders[v]` = schedules that unanimously elected `v`.
    leaders: Vec<u64>,
    /// Schedules that failed closed (abort or deadlock).
    failed: u64,
}

/// Runs every oblivious schedule of an honest ring protocol instance and
/// asserts the core safety invariant of the outcome function: a schedule
/// either elects a single leader in `[0, n)` unanimously or fails closed
/// (abort / deadlock) — no schedule ever produces disagreement or runs
/// away into the step limit.
fn exhaust_and_check<M: Clone + 'static>(
    n: usize,
    honest: impl Fn(usize) -> Box<dyn Node<M>>,
    wakes: &[usize],
    reference: Outcome,
    max_schedules: u64,
    label: &str,
) -> SweepTally {
    let leader = reference
        .elected()
        .unwrap_or_else(|| panic!("{label}: honest reference run failed"));
    assert!(leader < n as u64, "{label}: leader out of range");
    let mut tally = SweepTally {
        schedules: 0,
        leaders: vec![0; n],
        failed: 0,
    };
    let sweep = for_each_schedule(max_schedules, |sched| {
        let mut b = SimBuilder::new(Topology::ring(n));
        for i in 0..n {
            b = b.boxed_node(i, honest(i));
        }
        for &w in wakes {
            b = b.wake(w);
        }
        match b.scheduler(sched).run().outcome {
            Outcome::Elected(v) if (v as usize) < n => tally.leaders[v as usize] += 1,
            Outcome::Fail(FailReason::Abort) | Outcome::Fail(FailReason::Deadlock) => {
                tally.failed += 1
            }
            out => panic!(
                "{label}: schedule {} produced {out:?} (reference {reference:?})",
                tally.schedules
            ),
        }
        tally.schedules += 1;
    });
    assert!(
        !sweep.truncated,
        "{label}: enumeration truncated at {} schedules — raise the limit",
        sweep.schedules
    );
    assert!(
        tally.leaders[leader as usize] >= 1,
        "{label}: no schedule reproduced the reference election"
    );
    tally
}

/// The strong form for origin-wake protocols (the paper's Section 2
/// observation): *every* schedule elects the same single leader.
fn assert_all_schedules_elect<M: Clone + 'static>(
    n: usize,
    honest: impl Fn(usize) -> Box<dyn Node<M>>,
    wakes: &[usize],
    reference: Outcome,
    max_schedules: u64,
    label: &str,
) -> u64 {
    let tally = exhaust_and_check(n, honest, wakes, reference, max_schedules, label);
    assert_eq!(
        tally.failed, 0,
        "{label}: {} of {} schedules failed instead of electing",
        tally.failed, tally.schedules
    );
    let reference = reference.elected().expect("checked") as usize;
    for (v, &count) in tally.leaders.iter().enumerate() {
        if v != reference {
            assert_eq!(
                count, 0,
                "{label}: {count} schedules elected {v} instead of {reference}"
            );
        }
    }
    tally.schedules
}

#[test]
fn basic_lead_schedules_elect_unanimously_or_fail_closed() {
    // All n processors wake concurrently, so the schedule space is the
    // full interleaving of n wake-ups with n² deliveries — the largest
    // space per n in this suite.
    //
    // Model-checker findings (kept as regressions): Basic-LEAD is *not*
    // schedule-independent once wake-ups interleave obliviously with
    // deliveries. A processor that receives its predecessor's value
    // before its own spontaneous wake-up forwards it early and counts it
    // against the wrong round; most such races are caught by the
    // full-circle validation and fail closed (abort / deadlock), but at
    // n ≥ 3 colliding data values can slip through validation and elect
    // a *different* leader than the all-wakes-first reference schedule.
    // Either way every schedule satisfies the outcome function's safety
    // contract — one unanimous leader or FAIL — which is what this test
    // pins. The recorded experiment tables are unaffected: the default
    // FIFO schedule pops all wake-ups before any delivery.
    let mut wake_races_failed = 0u64;
    let mut divergent_elections = 0u64;
    // Measured space sizes (structural, data-value independent): 18
    // schedules at n = 2, 14_313 at n = 3. The limits leave headroom but
    // keep a runaway enumeration from hanging the suite.
    for (n, max) in [(2usize, 1_000), (3, 50_000)] {
        for seed in 0..3 {
            let p = BasicLead::new(n).with_seed(seed);
            let reference = p.run_honest().outcome;
            let tally = exhaust_and_check(
                n,
                |id| p.honest_node(id),
                &p.wakes(),
                reference,
                max,
                &format!("Basic-LEAD n={n} seed={seed}"),
            );
            let reference = reference.elected().expect("honest") as usize;
            let divergent: u64 = tally
                .leaders
                .iter()
                .enumerate()
                .filter(|&(v, _)| v != reference)
                .map(|(_, &c)| c)
                .sum();
            println!(
                "Basic-LEAD n={n} seed={seed}: {} schedules ({} elected ref, {divergent} elected other, {} failed closed)",
                tally.schedules, tally.leaders[reference], tally.failed
            );
            wake_races_failed += tally.failed;
            divergent_elections += divergent;
        }
    }
    assert!(
        wake_races_failed > 0,
        "expected wake-race failures; did engine wake semantics change?"
    );
    assert!(
        divergent_elections > 0,
        "expected schedule-dependent elections at n=3; did engine wake semantics change?"
    );
}

#[test]
fn a_lead_uni_all_schedules_elect_one_leader() {
    // A-LEADuni is a single-token wave: only the origin wakes, and every
    // delivery triggers exactly one send, so at most one token is ever
    // pending and the schedule space has exactly *one* element per
    // instance. The enumeration proves that — the strongest possible form
    // of schedule independence — rather than assuming it.
    for (n, max) in [(2, 1_000), (3, 1_000), (4, 1_000)] {
        for seed in 0..3 {
            let p = ALeadUni::new(n).with_seed(seed);
            let count = assert_all_schedules_elect(
                n,
                |id| p.honest_node(id),
                &p.wakes(),
                p.run_honest().outcome,
                max,
                &format!("A-LEADuni n={n} seed={seed}"),
            );
            println!("A-LEADuni n={n} seed={seed}: {count} schedules");
        }
    }
}

#[test]
fn phase_async_lead_all_schedules_elect_one_leader() {
    let n = 4;
    for seed in 0..2 {
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(9);
        // Measured space size: 280 schedules (the data wave and the
        // validation wave of adjacent rounds overlap by a few tokens).
        let count = assert_all_schedules_elect(
            n,
            |id| p.honest_node(id),
            &p.wakes(),
            p.run_honest().outcome,
            10_000,
            &format!("PhaseAsyncLead n={n} seed={seed}"),
        );
        println!("PhaseAsyncLead n={n} seed={seed}: {count} schedules");
    }
}
