//! Seeded golden-outcome regression tests.
//!
//! Each case pins the elected leader, message count and step count of a
//! fixed `(protocol, n, seed)` triple, plus harness-level aggregates
//! (seed derivation, win vectors, a full JSON report). Any refactor that
//! silently changes RNG consumption order, seed derivation, engine
//! scheduling or report serialization fails these tests loudly instead of
//! shifting every Monte-Carlo table by an undetectable epsilon.
//!
//! If a change *intends* to alter executions (e.g. a protocol fix), the
//! pinned values must be re-derived and the change called out in review —
//! that is the point.

use fle_attacks::{AttackKind, PhaseRushingAttack, PhaseRushingCache, RushingAttack};
use fle_core::protocols::{
    ALeadUni, BasicLead, FleProtocol, PhaseAsyncLead, PhaseSumLead, RingProtocol,
};
use fle_core::Coalition;
use fle_harness::{
    run_batch, run_sweep, run_sweep_partial, sha256_hex, trial_seed, AttackSweep, BatchConfig,
    CoalitionSpec, FaultSpec, FnKeySpec, HonestSweep, ProtocolKind, ScheduleSpec, SeedMode,
    SweepSpec, TargetSpec, TrialOutcome, TrialReport,
};
use ring_sim::Execution;

/// Asserts the full observable signature of one honest execution.
fn assert_golden(label: &str, exec: &Execution, leader: u64, messages: u64, steps: u64) {
    assert_eq!(exec.outcome.elected(), Some(leader), "{label}: leader");
    assert_eq!(exec.stats.total_sent(), messages, "{label}: messages");
    assert_eq!(exec.stats.steps, steps, "{label}: steps");
}

#[test]
fn protocol_executions_are_pinned() {
    assert_golden(
        "Basic-LEAD n=5 seed=42",
        &BasicLead::new(5).with_seed(42).run_honest(),
        3,
        25,
        30,
    );
    assert_golden(
        "Basic-LEAD n=16 seed=7",
        &BasicLead::new(16).with_seed(7).run_honest(),
        6,
        256,
        272,
    );
    assert_golden(
        "A-LEADuni n=8 seed=7",
        &ALeadUni::new(8).with_seed(7).run_honest(),
        2,
        64,
        65,
    );
    assert_golden(
        "A-LEADuni n=12 seed=2024",
        &ALeadUni::new(12).with_seed(2024).run_honest(),
        7,
        144,
        145,
    );
    assert_golden(
        "PhaseAsyncLead n=8 seed=3 key=9",
        &PhaseAsyncLead::new(8)
            .with_seed(3)
            .with_fn_key(9)
            .run_honest(),
        7,
        128,
        129,
    );
    assert_golden(
        "PhaseAsyncLead n=16 seed=2024 key=7",
        &PhaseAsyncLead::new(16)
            .with_seed(2024)
            .with_fn_key(7)
            .run_honest(),
        15,
        512,
        513,
    );
    assert_golden(
        "PhaseSumLead n=9 seed=5",
        &PhaseSumLead::new(9).with_seed(5).run_honest(),
        1,
        162,
        163,
    );
}

/// The harness seed derivation is part of the reproducibility contract:
/// changing it re-seeds every recorded sweep.
#[test]
fn trial_seed_derivation_is_pinned() {
    assert_eq!(trial_seed(0, 0), 8874072687412486912);
    assert_eq!(trial_seed(1, 0), 18192674930141563172);
    assert_eq!(trial_seed(1, 1), 8310453540754005676);
    assert_eq!(trial_seed(42, 999), 1322880520096769120);
}

#[test]
fn sweep_reports_are_pinned() {
    let report = run_sweep(&SweepSpec::Honest(HonestSweep {
        protocol: ProtocolKind::PhaseAsyncLead,
        n: 8,
        fn_key: 9,
        batch: BatchConfig {
            trials: 32,
            base_seed: 1,
            threads: 1,
        },
        batch_width: 0,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    }))
    .expect("valid spec");
    assert_eq!(report.wins, vec![3, 6, 5, 5, 2, 3, 3, 5]);
    assert_eq!(
        report.to_json(),
        concat!(
            "{\"protocol\":\"PhaseAsyncLead\",\"n\":8,\"trials\":32,\"base_seed\":1,",
            "\"elected\":32,\"out_of_range\":0,",
            "\"fails\":{\"abort\":0,\"disagreement\":0,\"deadlock\":0,\"step_limit\":0},",
            "\"wins\":[3,6,5,5,2,3,3,5],",
            "\"messages\":{\"min\":128,\"max\":128,\"mean\":128.000000,",
            "\"p50\":128,\"p90\":128,\"p99\":128},",
            "\"steps\":{\"min\":129,\"max\":129,\"mean\":129.000000,",
            "\"p50\":129,\"p90\":129,\"p99\":129}}"
        )
    );

    let report = run_sweep(&SweepSpec::Honest(HonestSweep {
        protocol: ProtocolKind::ALeadUni,
        n: 5,
        fn_key: 0,
        batch: BatchConfig {
            trials: 24,
            base_seed: 7,
            threads: 1,
        },
        batch_width: 0,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    }))
    .expect("valid spec");
    assert_eq!(report.wins, vec![1, 4, 7, 6, 6]);
}

/// Builds the canonical `PhaseAsyncLead n=64, seed=1, fn_key=0` sweep
/// config (exactly what `fle_lab sweep --protocol phase --n 64 --seed 1`
/// runs) — the workload the README's performance numbers and the
/// `BENCH_3.json` trajectory are stated about.
fn phase_n64_sweep(trials: u64) -> SweepSpec {
    SweepSpec::Honest(HonestSweep {
        protocol: ProtocolKind::PhaseAsyncLead,
        n: 64,
        fn_key: 0,
        batch: BatchConfig {
            trials,
            base_seed: 1,
            threads: 1,
        },
        batch_width: 0,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    })
}

/// SHA-256 pin of a mid-size sweep's JSON: cheap enough to run in every
/// tier-1 pass, yet any drift in RNG consumption, seed derivation, engine
/// scheduling or report serialization flips it.
///
/// The pinned digest was first derived on the pre-optimization (PR 2)
/// engine; the zero-allocation/monomorphized engine reproducing it proves
/// the refactor is byte-invisible in output.
#[test]
fn sweep_json_sha256_is_pinned() {
    let report = run_sweep(&phase_n64_sweep(500)).expect("valid spec");
    assert_eq!(
        sha256_hex(report.to_json().as_bytes()),
        "b48a93b6398cec11f10e77363e7e00ca7d57eeae94eaa512c600b07f78bf016c"
    );
}

/// The full 10 000-trial `PhaseAsyncLead n=64` sweep of the recorded
/// experiment tables, sha256-pinned against the PR 2 engine's output.
///
/// `fle_lab sweep --protocol phase --n 64 --trials 10000 --seed 1` prints
/// exactly this JSON plus a trailing newline (the newline-inclusive file
/// digest is `7866a0a0e5c1c7156d59604f002e4188f3fe58761aff96ba345055f97b5b191e`).
///
/// Ignored by default (a few seconds of simulation in release, much more
/// in debug); CI runs it explicitly in release alongside the other golden
/// suites.
#[test]
#[ignore = "multi-second sweep; run explicitly in release (CI does)"]
fn full_10k_sweep_json_sha256_is_pinned() {
    let report = run_sweep(&phase_n64_sweep(10_000)).expect("valid spec");
    assert_eq!(
        sha256_hex(report.to_json().as_bytes()),
        "3001849b911e21739d42048ea699659cc662da9466873125127b4673124019e4"
    );
}

/// The lockstep-batched engine's byte-identity oracle: the canonical
/// 500-trial sweep at an explicit `--batch 8` and at forced scalar width
/// 1 both hash to the pre-batching golden digest, so the lockstep fast
/// path is provably byte-invisible in output.
#[test]
fn batched_sweep_hits_the_scalar_pin() {
    for batch_width in [1, 8] {
        let SweepSpec::Honest(mut h) = phase_n64_sweep(500) else {
            unreachable!()
        };
        h.batch_width = batch_width;
        let report = run_sweep(&SweepSpec::Honest(h)).expect("valid spec");
        assert_eq!(
            sha256_hex(report.to_json().as_bytes()),
            "b48a93b6398cec11f10e77363e7e00ca7d57eeae94eaa512c600b07f78bf016c",
            "batch width {batch_width}"
        );
    }
}

/// The full 10 000-trial recorded sweep through the lockstep engine at
/// the explicit default width reproduces the scalar-era pin bit for bit.
/// Ignored for the same cost reason as the monolithic 10k pin; CI runs it
/// in release.
#[test]
#[ignore = "multi-second sweep; run explicitly in release (CI does)"]
fn full_10k_batched_sweep_json_sha256_is_pinned() {
    let SweepSpec::Honest(mut h) = phase_n64_sweep(10_000) else {
        unreachable!()
    };
    h.batch_width = 8;
    let report = run_sweep(&SweepSpec::Honest(h)).expect("valid spec");
    assert_eq!(
        sha256_hex(report.to_json().as_bytes()),
        "3001849b911e21739d42048ea699659cc662da9466873125127b4673124019e4"
    );
}

/// The crash-safety layer's byte-identity oracle: the 500-trial canonical
/// sweep run as three uneven shards, merged *out of order*, must finish
/// to the exact pinned bytes of the monolithic run.
#[test]
fn sharded_sweep_merge_reproduces_pinned_sha() {
    let spec = phase_n64_sweep(500);
    let mut merged = run_sweep_partial(&spec, 350, 500).expect("valid range");
    let mid = run_sweep_partial(&spec, 200, 350).expect("valid range");
    merged.merge(&mid).expect("disjoint shards");
    let head = run_sweep_partial(&spec, 0, 200).expect("valid range");
    merged.merge(&head).expect("disjoint shards");
    let report = merged.finish().expect("full coverage");
    assert_eq!(
        sha256_hex(report.to_json().as_bytes()),
        "b48a93b6398cec11f10e77363e7e00ca7d57eeae94eaa512c600b07f78bf016c"
    );
}

/// k-way shard/merge of the full 10 000-trial recorded sweep reproduces
/// the monolithic pin exactly — the acceptance oracle for multi-process
/// sharding (`fle_lab sweep --shard I/K` + `merge-reports`). Ignored for
/// the same cost reason as the monolithic 10k pin; CI runs it in release.
#[test]
#[ignore = "multi-second sweep; run explicitly in release (CI does)"]
fn full_10k_sharded_merge_sha256_is_pinned() {
    let spec = phase_n64_sweep(10_000);
    let k = 4u64;
    let parts: Vec<_> = (0..k)
        .map(|i| {
            let lo = i * 10_000 / k;
            let hi = (i + 1) * 10_000 / k;
            run_sweep_partial(&spec, lo, hi).expect("valid range")
        })
        .collect();
    let mut merged = parts[2].clone();
    for i in [0usize, 3, 1] {
        merged.merge(&parts[i]).expect("disjoint shards");
    }
    let report = merged.finish().expect("full coverage");
    assert_eq!(
        sha256_hex(report.to_json().as_bytes()),
        "3001849b911e21739d42048ea699659cc662da9466873125127b4673124019e4"
    );
}

/// Builds the canonical attack sweep: 500 trials of the `√n + 3` rushing
/// coalition (`k = 7` equally spaced) against `PhaseAsyncLead n=16`, one
/// derived seed per trial, run through the cached-engine attack fast path
/// (`run_with_in` over a per-worker [`PhaseRushingCache`] — since the
/// coalition-mix enum widening, the homogeneous coalition runs fully
/// unboxed; the sha256 pin below proving the switch is byte-invisible).
fn rushing_n16_report(trials: u64) -> TrialReport {
    let n = 16;
    let base_seed = 1;
    let attack = PhaseRushingAttack::new(3);
    let coalition = Coalition::equally_spaced(n, 7, 1).expect("valid layout");
    let outcomes = run_batch(
        &BatchConfig {
            trials,
            base_seed,
            threads: 1,
        },
        || PhaseRushingCache::ring(n),
        |cache, _i, seed| {
            let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(9);
            let nodes = attack
                .adversary_ring_nodes(&p, &coalition)
                .expect("feasible");
            let exec = p.run_with_in(nodes, cache);
            TrialOutcome::of(exec)
        },
    );
    TrialReport::from_trials("PhaseRushing-n16", n, base_seed, &outcomes)
}

/// SHA-256 pin of the attack fast path's aggregate output — the
/// byte-identical regression oracle for `run_with_in`/`TrialCache`, mirroring
/// the honest sweep pins above. The digest was first derived through
/// `SimBuilder::run_with` (`PhaseRushingAttack::run`), so it also proves
/// the cached-engine path reproduces the one-shot path exactly.
#[test]
fn rushing_attack_sweep_json_sha256_is_pinned() {
    let report = rushing_n16_report(500);
    // The rushing coalition controls the outcome: all 500 trials elect
    // target 3 (w=3 wins every trial; everything else zero).
    assert_eq!(report.wins[3], 500);
    assert_eq!(
        sha256_hex(report.to_json().as_bytes()),
        "a05b7ec457fe54acce4827023c6828ad34bb39427cbefe39925264ee45f8153a"
    );
}

/// The same 500 trials through the one-shot `SimBuilder` path must
/// aggregate to the identical report (differential form of the pin, so a
/// drift in either path is attributed immediately).
#[test]
fn rushing_attack_sweep_matches_simbuilder_path() {
    let n = 16;
    let attack = PhaseRushingAttack::new(3);
    let coalition = Coalition::equally_spaced(n, 7, 1).expect("valid layout");
    let fast = rushing_n16_report(40);
    let outcomes: Vec<TrialOutcome> = (0..40)
        .map(|i| {
            let p = PhaseAsyncLead::new(n)
                .with_seed(trial_seed(1, i))
                .with_fn_key(9);
            TrialOutcome::of(&attack.run(&p, &coalition).expect("feasible"))
        })
        .collect();
    let slow = TrialReport::from_trials("PhaseRushing-n16", n, 1, &outcomes);
    assert_eq!(fast.to_json(), slow.to_json());
}

/// The canonical spec-level attack sweep: 500 trials of the Theorem 4.2
/// rushing attack (`k = 4 = √n` equally spaced, offset 1 — every segment
/// `l_j = 3 = k − 1`, so the plan is feasible and the coalition controls
/// every outcome) against `A-LEADuni n=16`, derived seeds, fixed target 3.
fn canonical_attack_sweep(threads: usize) -> SweepSpec {
    SweepSpec::Attack(AttackSweep {
        attack: AttackKind::Rushing,
        n: 16,
        fn_key: FnKeySpec::Fixed(0),
        batch: BatchConfig {
            trials: 500,
            base_seed: 1,
            threads,
        },
        coalition: CoalitionSpec::EquallySpaced { k: 4, offset: 1 },
        target: TargetSpec::Fixed(3),
        seed_mode: SeedMode::Derived,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    })
}

/// SHA-256 pins of the canonical attack sweep's JSON *and* CSV — the
/// byte-identical regression oracle for the whole spec → runner →
/// aggregation → serialization pipeline (attack arm, Wilson CI
/// formatting included), mirroring the honest sweep pins above.
#[test]
fn attack_sweep_json_and_csv_sha256_are_pinned() {
    let report = run_sweep(&canonical_attack_sweep(1)).expect("valid spec");
    let arm = report.attack.expect("attack sweeps carry the arm");
    // Thm 4.2: at k = √n the rushing coalition always elects its target.
    assert_eq!(arm.successes, 500);
    assert_eq!(arm.infeasible, 0);
    assert_eq!(report.wins[3], 500);
    assert_eq!(
        sha256_hex(report.to_json().as_bytes()),
        "1d5514fee155d268d19f3b691e80d5835c163bbb31f08789424f2bb712115915"
    );
    assert_eq!(
        sha256_hex(report.to_csv().as_bytes()),
        "ea1a4c60b2ce161d254585b05a7f018b589a0361a983cb3e94f7601814b2e264"
    );
}

/// The canonical attack sweep must serialize byte-identically at every
/// thread count (the same invariant the honest pins enjoy).
#[test]
fn attack_sweep_is_thread_count_invariant() {
    let baseline = run_sweep(&canonical_attack_sweep(1)).expect("valid spec");
    for threads in [2, 8] {
        let report = run_sweep(&canonical_attack_sweep(threads)).expect("valid spec");
        assert_eq!(report.to_json(), baseline.to_json(), "threads={threads}");
        assert_eq!(report.to_csv(), baseline.to_csv(), "threads={threads}");
    }
}

/// Differential pin for the t42 migration: one of the table's
/// `(n, k)` cells, run through `run_sweep(SweepSpec::Attack)`, must
/// reproduce the pre-migration per-seed loop (raw-index seeds, target
/// `(seed * 31) mod n`) success for success.
#[test]
fn migrated_t42_cell_matches_premigration_loop() {
    let (n, k, trials) = (64usize, 8usize, 20u64);
    let report = run_sweep(&SweepSpec::Attack(AttackSweep {
        attack: AttackKind::Rushing,
        n,
        fn_key: FnKeySpec::Fixed(0),
        batch: BatchConfig {
            trials,
            base_seed: 0,
            threads: 1,
        },
        coalition: CoalitionSpec::EquallySpaced { k, offset: 1 },
        target: TargetSpec::SeedProduct { multiplier: 31 },
        seed_mode: SeedMode::RawIndex,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    }))
    .expect("valid spec");
    let coalition = Coalition::equally_spaced(n, k, 1).expect("valid layout");
    let mut successes = 0u64;
    for seed in 0..trials {
        let protocol = ALeadUni::new(n).with_seed(seed);
        let w = (seed * 31) % n as u64;
        if RushingAttack::new(w)
            .run(&protocol, &coalition)
            .is_ok_and(|e| e.outcome.elected() == Some(w))
        {
            successes += 1;
        }
    }
    let arm = report.attack.expect("attack sweeps carry the arm");
    assert_eq!(arm.successes, successes);
    assert_eq!(arm.infeasible, 0);
    assert_eq!(report.trials, trials);
    // Thm 4.2 at k = √n: the pre-migration loop always won, and so must
    // the sweep.
    assert_eq!(successes, trials);
}

/// The canonical *timed* honest sweep: `PhaseAsyncLead n=16` under a
/// jittered, lossy, duplicating virtual-clock net. The profile is
/// deliberately non-degenerate (every noise knob exercised) so the pin
/// covers the whole timed delivery pipeline, not just the zero-profile
/// anchor that `tests/timed_paths.rs` proves equal to FIFO.
fn timed_honest_sweep(threads: usize) -> SweepSpec {
    SweepSpec::Honest(HonestSweep {
        protocol: ProtocolKind::PhaseAsyncLead,
        n: 16,
        fn_key: 9,
        batch: BatchConfig {
            trials: 200,
            base_seed: 1,
            threads,
        },
        batch_width: 0,
        schedule: fle_harness::ScheduleSpec::Timed {
            latency: fle_harness::LatencySpec::Uniform { lo: 0, hi: 1000 },
            loss_permille: 50,
            dup_permille: 20,
        },
        fault: None,
    })
}

/// The canonical timed attack sweep: the Theorem 4.2 rushing cell under
/// two-point latency stalls (no loss, so feasibility is unaffected and
/// only delivery order moves).
fn timed_attack_sweep(threads: usize) -> SweepSpec {
    SweepSpec::Attack(AttackSweep {
        attack: AttackKind::Rushing,
        n: 16,
        fn_key: FnKeySpec::Fixed(0),
        batch: BatchConfig {
            trials: 200,
            base_seed: 1,
            threads,
        },
        coalition: CoalitionSpec::EquallySpaced { k: 4, offset: 1 },
        target: TargetSpec::Fixed(3),
        seed_mode: SeedMode::Derived,
        schedule: fle_harness::ScheduleSpec::Timed {
            latency: fle_harness::LatencySpec::TwoPoint {
                lo: 10,
                hi: 1000,
                hi_permille: 100,
            },
            loss_permille: 0,
            dup_permille: 0,
        },
        fault: None,
    })
}

/// SHA-256 pins of the timed sweeps' JSON — the regression oracle for
/// the virtual-clock scheduler's event ordering, noise-stream seeding
/// (`NET_STREAM_SALT` derivation) and latency draws. Any drift in RNG
/// consumption order inside the timed path flips these.
#[test]
fn timed_sweep_json_sha256_is_pinned() {
    let report = run_sweep(&timed_honest_sweep(1)).expect("valid spec");
    assert_eq!(
        sha256_hex(report.to_json().as_bytes()),
        "bc81febbb00a984ffa78755683790b2316adc18fa2d0ac457687a1e99ade83f3"
    );
    let report = run_sweep(&timed_attack_sweep(1)).expect("valid spec");
    assert_eq!(
        sha256_hex(report.to_json().as_bytes()),
        "1ca6ba58d1ae104512965cf239b3cc3d4a51d1f3070c05bc6077f07d304d9c95"
    );
}

/// Timed sweeps must serialize byte-identically at every thread count:
/// the virtual clock and its noise streams are derived per trial, so
/// scheduling trials across workers cannot reorder anything observable.
#[test]
fn timed_sweeps_are_thread_count_invariant() {
    let honest = run_sweep(&timed_honest_sweep(1)).expect("valid spec");
    let attack = run_sweep(&timed_attack_sweep(1)).expect("valid spec");
    for threads in [2, 8] {
        assert_eq!(
            run_sweep(&timed_honest_sweep(threads))
                .expect("valid spec")
                .to_json(),
            honest.to_json(),
            "honest threads={threads}"
        );
        assert_eq!(
            run_sweep(&timed_attack_sweep(threads))
                .expect("valid spec")
                .to_json(),
            attack.to_json(),
            "attack threads={threads}"
        );
    }
}

/// The engine-reuse fast path must agree with the pinned builder-path
/// values (same golden signature through `run_honest_in`).
#[test]
fn engine_path_matches_pinned_values() {
    let mut engine = ring_sim::Engine::new(ring_sim::Topology::ring(8));
    let p = PhaseAsyncLead::new(8).with_seed(3).with_fn_key(9);
    // Twice on the same engine: reuse must not perturb the execution.
    for _ in 0..2 {
        assert_golden(
            "PhaseAsyncLead via Engine",
            &p.run_honest_in(&mut engine),
            7,
            128,
            129,
        );
    }
}

/// A small honest sweep for the per-arm path pins: 64 trials at n = 8
/// on `schedule`, with an optional crash-fault plan, at lockstep
/// `width` (1 = scalar) on `threads` workers.
fn small_honest_sweep(
    protocol: ProtocolKind,
    schedule: ScheduleSpec,
    fault: Option<FaultSpec>,
    width: usize,
    threads: usize,
) -> SweepSpec {
    SweepSpec::Honest(HonestSweep {
        protocol,
        n: 8,
        fn_key: 9,
        batch: BatchConfig {
            trials: 64,
            base_seed: 5,
            threads,
        },
        batch_width: width,
        schedule,
        fault,
    })
}

/// SHA-256 pins of every honest protocol arm under each delivery and
/// fault option a sweep can select: FIFO, timed `const:500`, `--crash 1`
/// (one crash-stop within the nominal 2n² deliveries), and a noisy timed
/// net (`uniform:0:1000`, 5% loss) with one crash within 20 µs. Each arm
/// must give the same bytes at lockstep widths 1 and 8, so the scalar
/// worker and the lockstep groups are pinned together. Constant latency
/// keeps per-link FIFO order, so the timed `const:500` arm reproduces the
/// FIFO arm's bytes.
#[test]
fn honest_sweep_arms_are_pinned() {
    let fifo = ScheduleSpec::Fifo;
    let timed = ScheduleSpec::Timed {
        latency: fle_harness::LatencySpec::Constant { ns: 500 },
        loss_permille: 0,
        dup_permille: 0,
    };
    let noisy = ScheduleSpec::Timed {
        latency: fle_harness::LatencySpec::Uniform { lo: 0, hi: 1000 },
        loss_permille: 50,
        dup_permille: 0,
    };
    let crash = Some(FaultSpec {
        crashes: 1,
        window: fle_harness::CrashInstant::Deliveries(128),
        recover: None,
    });
    let timed_crash = Some(FaultSpec {
        crashes: 1,
        window: fle_harness::CrashInstant::VirtualNs(20_000),
        recover: None,
    });
    use ProtocolKind::{ALeadUni, BasicLead, PhaseAsyncLead, PhaseSumLead};
    let arms: [(ProtocolKind, ScheduleSpec, Option<FaultSpec>, &str); 16] = [
        (
            BasicLead,
            fifo,
            None,
            "68ae97d5d2cb8b7126b1e6e3b54c3df0b771a568f40ca78ded8ec406a01d1c85",
        ),
        (
            BasicLead,
            timed,
            None,
            "68ae97d5d2cb8b7126b1e6e3b54c3df0b771a568f40ca78ded8ec406a01d1c85",
        ),
        (
            BasicLead,
            fifo,
            crash,
            "a7874eb73121953eaa98077b868976349269c4d94b73fc2325feb5df30b5d85b",
        ),
        (
            BasicLead,
            noisy,
            timed_crash,
            "a5d8fad6beca167f0038876de4922a7f21b236379196d68d06d0b2d2dd578453",
        ),
        (
            ALeadUni,
            fifo,
            None,
            "b5358cdb895e14503e72b9229a0a4cb154cdf6fb3e1aa514e0dd0da4a454706b",
        ),
        (
            ALeadUni,
            timed,
            None,
            "b5358cdb895e14503e72b9229a0a4cb154cdf6fb3e1aa514e0dd0da4a454706b",
        ),
        (
            ALeadUni,
            fifo,
            crash,
            "1bf641983129f13d98b4b0c40ca053998e8dcba6ac0c9445e138a1245ce283a4",
        ),
        (
            ALeadUni,
            noisy,
            timed_crash,
            "43be995b185bde3b754a0ad7c110308dcb2d7ddaf54e376ae8e7d2ad24cf8eda",
        ),
        (
            PhaseAsyncLead,
            fifo,
            None,
            "46a1011d91cee94b54da723397c7dccc897b8b40453485010c426b51c2095a55",
        ),
        (
            PhaseAsyncLead,
            timed,
            None,
            "46a1011d91cee94b54da723397c7dccc897b8b40453485010c426b51c2095a55",
        ),
        (
            PhaseAsyncLead,
            fifo,
            crash,
            "5f039d3ea59017924b977704de0ee2e86afadd6336a05d5820632311be9a9215",
        ),
        (
            PhaseAsyncLead,
            noisy,
            timed_crash,
            "1e7b6f15b9da013faf2803395cf0d760c97b42ce8a535cadc8a7eabbe0b50e7e",
        ),
        (
            PhaseSumLead,
            fifo,
            None,
            "3f91df16d07f556e9fd8073672fad34da81a05aaa570c5b26a653d2652ea4ef2",
        ),
        (
            PhaseSumLead,
            timed,
            None,
            "3f91df16d07f556e9fd8073672fad34da81a05aaa570c5b26a653d2652ea4ef2",
        ),
        (
            PhaseSumLead,
            fifo,
            crash,
            "778b6a7dd9ef4e9dbc4e6ff2016c4fd24409fb5436724d5151f49ca2d9e58c6c",
        ),
        (
            PhaseSumLead,
            noisy,
            timed_crash,
            "35cb149dc9a6384f5e1f4195f70d0ad97f27052752fbe8867a47641014293db2",
        ),
    ];
    let mut got = Vec::new();
    for (protocol, schedule, fault, pin) in arms {
        let scalar = run_sweep(&small_honest_sweep(protocol, schedule, fault, 1, 1))
            .expect("valid spec")
            .to_json();
        let lockstep = run_sweep(&small_honest_sweep(protocol, schedule, fault, 8, 2))
            .expect("valid spec")
            .to_json();
        let label = format!("{protocol:?} {schedule:?} {fault:?}");
        assert_eq!(scalar, lockstep, "{label}: width 1 vs 8");
        got.push((label, sha256_hex(scalar.as_bytes()), pin));
    }
    for (label, sha, pin) in &got {
        assert_eq!(sha, pin, "{label}");
    }
}

/// One small attack sweep of `kind` at a coalition layout its runner
/// accepts: 48 derived-seed trials on two workers, on `schedule` with an
/// optional crash-fault plan.
fn small_attack_sweep(
    kind: AttackKind,
    schedule: ScheduleSpec,
    fault: Option<FaultSpec>,
) -> SweepSpec {
    let (n, coalition, target) = match kind {
        AttackKind::BasicSingle => (8, CoalitionSpec::Single { position: 5 }, 2),
        AttackKind::Rushing => (16, CoalitionSpec::EquallySpaced { k: 4, offset: 1 }, 3),
        AttackKind::Cubic => (27, CoalitionSpec::Cubic, 4),
        AttackKind::RandomLocated => (
            16,
            CoalitionSpec::RandomLocated {
                k: 6,
                layout_seed: 7,
            },
            3,
        ),
        AttackKind::PhaseRushing => (16, CoalitionSpec::EquallySpaced { k: 7, offset: 1 }, 3),
        AttackKind::PhaseGuess => (8, CoalitionSpec::Single { position: 3 }, 0),
        AttackKind::PhaseBurst => (16, CoalitionSpec::EquallySpaced { k: 4, offset: 2 }, 5),
        AttackKind::PhaseSum => (12, CoalitionSpec::EquallySpaced { k: 4, offset: 1 }, 2),
        AttackKind::WakeupIdLie => (10, CoalitionSpec::Single { position: 4 }, 0),
        AttackKind::WakeupMask => (12, CoalitionSpec::EquallySpaced { k: 5, offset: 1 }, 2),
    };
    SweepSpec::Attack(AttackSweep {
        attack: kind,
        n,
        fn_key: FnKeySpec::Fixed(9),
        batch: BatchConfig {
            trials: 48,
            base_seed: 3,
            threads: 2,
        },
        coalition,
        target: TargetSpec::Fixed(target),
        seed_mode: SeedMode::Derived,
        schedule,
        fault,
    })
}

/// SHA-256 pins of one FIFO attack sweep per [`AttackKind`] (every
/// attack runner's call into the cached trial runner, end to end through
/// the report bytes), plus three of them on a noisy timed net with one
/// crash per trial: an all-waking protocol under each attack family.
#[test]
fn attack_sweep_per_kind_is_pinned() {
    let noisy = ScheduleSpec::Timed {
        latency: fle_harness::LatencySpec::Uniform { lo: 0, hi: 1000 },
        loss_permille: 0,
        dup_permille: 0,
    };
    let crash = Some(FaultSpec {
        crashes: 1,
        window: fle_harness::CrashInstant::VirtualNs(20_000),
        recover: Some(5_000),
    });
    let fifo = ScheduleSpec::Fifo;
    let pins: [(AttackKind, ScheduleSpec, Option<FaultSpec>, &str); 13] = [
        (
            AttackKind::BasicSingle,
            fifo,
            None,
            "c109c03b86714088e79cab45c2a2f6bc53e57215c734d9380587a43737ed2efb",
        ),
        (
            AttackKind::Rushing,
            fifo,
            None,
            "563304b4d1d4312331b1858478ef1aa5e91ff99815f06d6ed5c7bcc2058a4d29",
        ),
        (
            AttackKind::Cubic,
            fifo,
            None,
            "586b4b7614d2b6723425323ec8bc357f51714f6f9ab7e96079908b873bc0a40b",
        ),
        (
            AttackKind::RandomLocated,
            fifo,
            None,
            "bcc3db8820fd11fbbfcd581d32f8db28c9ac17208299df988323c2df0f5fafdc",
        ),
        (
            AttackKind::PhaseRushing,
            fifo,
            None,
            "250829545e6c1fc7b82111d64143e287584c47d505229cc71c83cb7fb2836815",
        ),
        (
            AttackKind::PhaseGuess,
            fifo,
            None,
            "5e029218fa493252c3b2a5bcb9cf2ff9c5b6863d7c0d721f0ae56c2fae1e1f4e",
        ),
        (
            AttackKind::PhaseBurst,
            fifo,
            None,
            "bc7d633d1520743d68c80fcf15664c2f1aff2b6782da84f41ecb01ecb95a67ce",
        ),
        (
            AttackKind::PhaseSum,
            fifo,
            None,
            "fba37b8bc53413e1fe18a0e82fcd5e9dec3edd8c881b1734371718f571ed90bd",
        ),
        (
            AttackKind::WakeupIdLie,
            fifo,
            None,
            "88403d51761c748fe20fc0c2cb2d8770e23509adf399c6b08a0703e61a2ce583",
        ),
        (
            AttackKind::WakeupMask,
            fifo,
            None,
            "4e45c4db57398e732b6b9f885459bcf90eb1aac6b1ce37655faf2b6cf448dd55",
        ),
        (
            AttackKind::BasicSingle,
            noisy,
            crash,
            "29070c1dc647169acfd02442cc12b6255522e2ebe5cf19f466f58b7b3fd3bd86",
        ),
        (
            AttackKind::PhaseRushing,
            noisy,
            crash,
            "3151489b3d03f3e1aeb64386467540b2384e08ae9a0b01c652625e3ec30c2ab7",
        ),
        (
            AttackKind::WakeupMask,
            noisy,
            crash,
            "656425f099c55c9755530b00e40b9e94975cdcd2d5953dfb196878cba691ffef",
        ),
    ];
    let mut got = Vec::new();
    for (kind, schedule, fault, pin) in pins {
        let spec = small_attack_sweep(kind, schedule, fault);
        spec.validate().expect("the layout suits the runner");
        let report = run_sweep(&spec).expect("valid spec");
        let label = format!("{kind} {schedule:?} {fault:?}");
        got.push((label, sha256_hex(report.to_json().as_bytes()), pin));
    }
    for (label, sha, pin) in &got {
        assert_eq!(sha, pin, "{label}");
    }
}
