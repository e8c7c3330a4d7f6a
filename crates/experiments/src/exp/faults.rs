//! faults: protocol degradation under crash-stop faults and recovery.
//!
//! The paper's game (Section 2) has no crash faults: rational agents
//! deviate to *win*, never to abstain, and every guarantee is stated for
//! executions where all `n` processors keep running. This experiment
//! measures what each protocol loses when that assumption is dropped —
//! crash-stop faults drawn uniformly over nodes and instants — and
//! whether an adversary could *exploit* a crash instead of merely
//! suffering it:
//!
//! * **Table A** sweeps the crash count `c` for all four reproduction
//!   protocols and the classical Chang–Roberts / Itai–Rodeh baselines.
//!   On a unidirectional ring any crash-stop severs the only path, but
//!   it only kills an election it lands *inside* — so survival tracks
//!   exposure: the message-frugal baselines usually finish before the
//!   drawn instant, while the fair protocols' full `2n²`-delivery
//!   elections are vulnerable across essentially the whole window.
//! * **Table B** is the recovery ladder: the same single-crash sweep
//!   with crash-recover after a delay. Survival is monotone in the
//!   restart speed, because a recovered node resumes with its last
//!   state and only the deliveries during its downtime are lost.
//! * **Table C** asks whether the Theorem 4.2 rushing coalition
//!   *benefits* from a well-placed crash. It cannot: the coalition
//!   already controls the outcome with probability 1, and any crash
//!   that fires before the election completes only destroys the win —
//!   whether the victim is a coalition member or an honest relay.

use super::fmt_rate_ci;
use crate::Table;
use fle_attacks::RushingAttack;
use fle_core::protocols::{ALeadUni, RingProtocol};
use fle_core::Coalition;
use fle_harness::{
    run_sweep, trial_seed, wilson_ci95, BatchConfig, CrashInstant, FaultSpec, HonestSweep,
    ProtocolKind, ScheduleSpec, SweepSpec,
};
use ring_sim::{
    default_step_limit, Engine, Execution, FaultConfig, FaultPlan, FifoScheduler, Node, Outcome,
    Schedule, Topology,
};

/// Ring size shared by every table (matches the `timed` experiment).
const N: usize = 16;
/// Crash window: the nominal `2n²` delivery budget of an election at
/// `n = 16` — every drawn fault fires while the election is in flight.
const WINDOW: u64 = 2 * (N as u64) * (N as u64);
/// Crash counts swept in Table A.
const CRASHES: [u64; 4] = [0, 1, 2, 3];

/// The honest sweep of `protocol` under `c` random crash-stop faults.
fn faulty_sweep(protocol: ProtocolKind, trials: u64, c: u64, recover: Option<u64>) -> SweepSpec {
    SweepSpec::Honest(HonestSweep {
        protocol,
        n: N,
        fn_key: 0,
        batch: BatchConfig {
            trials,
            base_seed: 1,
            threads: 0,
        },
        batch_width: 0,
        schedule: ScheduleSpec::Fifo,
        fault: (c > 0).then_some(FaultSpec {
            crashes: c,
            window: CrashInstant::Deliveries(WINDOW),
            recover,
        }),
    })
}

/// `"rate ±ci (msgs)"` — survival with its Wilson 95% half-width plus the
/// mean message count, the overhead axis of Table A.
fn cell(elected: u64, trials: u64, msgs_mean: f64) -> String {
    format!(
        "{} ({msgs_mean:.1})",
        fmt_rate_ci(
            elected as f64 / trials.max(1) as f64,
            wilson_ci95(elected, trials)
        )
    )
}

/// Survival cells of one baseline protocol across the crash counts.
/// Baselines run one `SimBuilder` trial at a time (no harness fast path),
/// drawing each trial's plan from the same salted per-trial fault stream
/// the sweeps use.
fn baseline_row(
    label: &str,
    trials: u64,
    run: impl Fn(u64, &FaultPlan) -> Outcome2,
) -> Vec<String> {
    let mut cells = vec![label.to_string()];
    let mut plan = FaultPlan::none();
    for c in CRASHES {
        let cfg = FaultConfig {
            crashes: c,
            window: CrashInstant::Deliveries(WINDOW),
            recover_after: None,
        };
        let mut elected = 0u64;
        let mut msgs = 0u64;
        for i in 0..trials {
            let seed = trial_seed(1, i);
            plan.draw_into(&cfg, N, seed);
            let out = run(seed, &plan);
            elected += u64::from(out.elected);
            msgs += out.messages;
        }
        cells.push(cell(elected, trials, msgs as f64 / trials.max(1) as f64));
    }
    cells
}

/// The two facts a baseline trial reports.
struct Outcome2 {
    elected: bool,
    messages: u64,
}

/// One rushing run against an explicit fault plan, through a reusable
/// engine over the boxed honest/coalition mix.
fn rushing_with_plan(
    engine: &mut Engine<u64>,
    seed: u64,
    coalition: &Coalition,
    target: u64,
    plan: &FaultPlan,
) -> Outcome2 {
    let protocol = ALeadUni::new(N).with_seed(seed);
    let nodes = RushingAttack::new(target)
        .adversary_nodes(&protocol, coalition)
        .expect("feasible layout");
    let mut ring: Vec<Box<dyn Node<u64>>> = (0..N).map(|id| protocol.honest_node(id)).collect();
    for (id, node) in nodes {
        ring[id] = node;
    }
    engine.set_fault_plan(plan);
    let mut exec = Execution::default();
    let fifo = Schedule::Oblivious(&mut FifoScheduler::new());
    let limit = default_step_limit(N);
    engine.run_into(&mut ring, &protocol.wakes(), fifo, limit, None, &mut exec);
    Outcome2 {
        elected: exec.outcome == Outcome::Elected(target),
        messages: exec.stats.total_sent(),
    }
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let trials: u64 = if quick { 40 } else { 300 };

    // Table A: survival (and message mean) vs. crash count.
    let mut a = Table::new(
        &format!("faults-a: survival under c random crash-stop faults (n={N}, window {WINDOW} deliveries)"),
        &[
            "protocol",
            "c=0: Pr[elect] ±ci (msgs)",
            "c=1",
            "c=2",
            "c=3",
        ],
    );
    for (label, protocol) in [
        ("Basic-LEAD", ProtocolKind::BasicLead),
        ("A-LEADuni", ProtocolKind::ALeadUni),
        ("PhaseAsyncLead", ProtocolKind::PhaseAsyncLead),
        ("PhaseSumLead", ProtocolKind::PhaseSumLead),
    ] {
        let mut cells = vec![label.to_string()];
        for c in CRASHES {
            let report = run_sweep(&faulty_sweep(protocol, trials, c, None)).expect("valid spec");
            cells.push(cell(report.elected(), report.trials, report.messages.mean));
        }
        a.row_vec(cells);
    }
    a.row_vec(baseline_row("Chang-Roberts", trials, |seed, plan| {
        let ids = fle_baselines::random_ids(N, seed);
        let exec = fle_baselines::ChangRoberts::new(ids).run_with_faults(plan);
        Outcome2 {
            elected: exec.outcome.elected().is_some(),
            messages: exec.stats.total_sent(),
        }
    }));
    a.row_vec(baseline_row("Itai-Rodeh", trials, |seed, plan| {
        let exec = fle_baselines::ItaiRodeh::new(N, seed).run_with_faults(plan);
        Outcome2 {
            elected: exec.outcome.elected().is_some(),
            messages: exec.stats.total_sent(),
        }
    }));
    a.note("any crash-stop severs the unidirectional ring, but it only kills an election");
    a.note("it lands inside: survival tracks exposure. Message-frugal baselines finish");
    a.note("before most drawn instants; the fair protocols' longer elections (up to 2n^2");
    a.note("deliveries) pay for fairness with a near-total window of vulnerability");

    // Table B: the recovery ladder on PhaseAsyncLead, c = 1.
    let mut b = Table::new(
        &format!("faults-b: crash-recover ladder, PhaseAsyncLead, c=1 (n={N})"),
        &["recovery delay (deliveries)", "Pr[elect] ±ci", "msgs mean"],
    );
    for (label, recover) in [
        ("crash-stop (never)", None),
        ("256", Some(256)),
        ("64", Some(64)),
        ("8", Some(8)),
    ] {
        let report = run_sweep(&faulty_sweep(
            ProtocolKind::PhaseAsyncLead,
            trials,
            1,
            recover,
        ))
        .expect("valid spec");
        b.row_vec(vec![
            label.to_string(),
            fmt_rate_ci(
                report.elected() as f64 / report.trials.max(1) as f64,
                wilson_ci95(report.elected(), report.trials),
            ),
            format!("{:.1}", report.messages.mean),
        ]);
    }
    b.note("a recovered node resumes from its last state; only deliveries during the");
    b.note("downtime are lost, so survival is monotone in the restart speed");

    // Table C: can the rushing coalition exploit a well-placed crash?
    let coalition = Coalition::equally_spaced(N, 7, 1).expect("k=7 fits n=16");
    let target = 3u64;
    let honest_relay = (0..N)
        .find(|&p| p != 0 && !coalition.contains(p))
        .expect("some honest non-origin node");
    let coalition_member = coalition.positions()[1];
    let mut c_table = Table::new(
        &format!(
            "faults-c: rushing coalition vs. crash placement (n={N}, spaced k=7, target {target})"
        ),
        &["crash placement", "Pr[target wins] ±ci", "msgs mean"],
    );
    let mut engine: Engine<u64> = Engine::new(Topology::ring(N));
    for (label, plan) in [
        ("no crash", FaultPlan::none()),
        (
            "coalition member @0",
            FaultPlan::none().with_crash(coalition_member, 0, None),
        ),
        (
            "honest relay @0",
            FaultPlan::none().with_crash(honest_relay, 0, None),
        ),
        (
            "honest relay @4n",
            FaultPlan::none().with_crash(honest_relay, 4 * N as u64, None),
        ),
        (
            "after the election (never fires)",
            FaultPlan::none().with_crash(honest_relay, u64::MAX, None),
        ),
    ] {
        let mut wins = 0u64;
        let mut msgs = 0u64;
        for i in 0..trials {
            let out = rushing_with_plan(&mut engine, trial_seed(1, i), &coalition, target, &plan);
            wins += u64::from(out.elected);
            msgs += out.messages;
        }
        c_table.row_vec(vec![
            label.to_string(),
            fmt_rate_ci(
                wins as f64 / trials.max(1) as f64,
                wilson_ci95(wins, trials),
            ),
            format!("{:.1}", msgs as f64 / trials.max(1) as f64),
        ]);
    }
    c_table.note("the coalition already wins with probability 1; a crash that fires mid-");
    c_table.note("election only destroys that win, wherever it lands -- crashes are never");
    c_table.note("a weapon for a rushing adversary, only a hazard");
    vec![a, b, c_table]
}

#[cfg(test)]
mod tests {
    /// Extracts every `Pr` rate from a rendered table's data rows.
    fn rates(rendered: &str) -> Vec<f64> {
        rendered
            .lines()
            .filter(|l| l.contains('±'))
            .flat_map(|l| {
                l.split_whitespace()
                    .filter(|t| {
                        (t.starts_with("0.") || t.starts_with("1."))
                            && t.len() == 5
                            && t.parse::<f64>().is_ok()
                    })
                    .map(|t| t.parse().unwrap())
                    .collect::<Vec<f64>>()
            })
            .collect()
    }

    #[test]
    fn crashes_degrade_everyone_and_never_arm_the_coalition() {
        let tables = super::run(true);
        // Table A: 6 protocol rows x 4 crash counts. Fault-free columns
        // are certain elections; 3 crashes in a 16-ring collapse all.
        let a = tables[0].render();
        let a_rates = rates(&a);
        assert_eq!(a_rates.len(), 24, "6 rows x 4 crash counts:\n{a}");
        for row in a_rates.chunks(4) {
            assert_eq!(row[0], 1.0, "fault-free elections are certain:\n{a}");
            assert!(
                row[3] < row[0],
                "three crashes must cost survival: {row:?}\n{a}"
            );
        }
        // Table B: survival is monotone in restart speed.
        let b = tables[1].render();
        let b_rates = rates(&b);
        assert_eq!(b_rates.len(), 4, "four recovery rows:\n{b}");
        for w in b_rates.windows(2) {
            assert!(
                w[0] <= w[1],
                "faster recovery must not cost survival: {b_rates:?}\n{b}"
            );
        }
        assert!(
            b_rates[3] > b_rates[0],
            "fast recovery must rescue elections: {b_rates:?}\n{b}"
        );
        // Table C: the coalition wins surely without a crash (and with a
        // never-firing one); any mid-election crash only loses.
        let c = tables[2].render();
        let c_rates = rates(&c);
        assert_eq!(c_rates.len(), 5, "five placement rows:\n{c}");
        assert_eq!(c_rates[0], 1.0, "rushing wins surely:\n{c}");
        assert_eq!(
            c_rates[4], 1.0,
            "a never-firing crash changes nothing:\n{c}"
        );
        for (i, r) in c_rates.iter().enumerate() {
            assert!(
                *r <= c_rates[0],
                "row {i}: a crash must never benefit the coalition:\n{c}"
            );
        }
        assert!(
            c_rates[1] < 1.0 && c_rates[2] < 1.0,
            "an immediate crash anywhere destroys the election:\n{c}"
        );
    }
}
