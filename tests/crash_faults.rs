//! Crash-fault injection layer tests.
//!
//! Three contracts, in increasing scope:
//!
//! 1. **The fault-free path is untouched.** Installing [`FaultPlan::none`]
//!    (or a plan that never fires) produces bit-identical `Execution`s for
//!    every protocol — the zero-fault-plan differential — and fault-free
//!    sweep reports never mention `crash_partition` or carry a `fault`
//!    arm, so every pre-fault golden pin keeps hashing the same bytes.
//! 2. **Faulty runs are deterministic.** Fault-enabled honest, attack and
//!    timed sweeps are sha256-pinned and thread-count invariant (1/2/8),
//!    exactly like their fault-free counterparts.
//! 3. **The semantics are the documented ones.** A crash that severs the
//!    ring yields [`FailReason::CrashPartition`] (never plain `Deadlock`),
//!    and recovery monotonically restores survival.

use fle_attacks::AttackKind;
use fle_core::protocols::{
    ALeadUni, BasicLead, FleProtocol, PhaseAsyncLead, PhaseSumLead, RingProtocol,
};
use fle_harness::{
    run_batch_range_grouped, run_sweep, sha256_hex, trial_seed, AttackSweep, BatchConfig,
    CoalitionSpec, CrashInstant, FaultSpec, FnKeySpec, HonestSweep, LatencySpec, ProtocolKind,
    ReportPartial, ScheduleSpec, SeedMode, SweepSpec, TargetSpec, TrialOutcome,
};
use proptest::prelude::*;
use ring_sim::{Engine, FailReason, FaultPlan, Outcome, Topology};

// ---------------------------------------------------------------------------
// 1. Zero-fault-plan differential: FaultPlan::none() ≡ the plain path.

/// Asserts that `run` on an engine carrying (a) the empty plan and (b) a
/// plan whose single fault can never fire produces exactly the reference
/// execution. Case (a) exercises the `is_empty` dispatch into the
/// no-fault monomorphized loop; case (b) exercises the *fault-hooked*
/// loop with a hook that never triggers — both must be bit-identical.
macro_rules! none_plan_identity {
    ($label:expr, $n:expr, $p:expr) => {{
        let p = $p;
        let reference = p.run_honest();
        let mut engine = Engine::new(Topology::ring($n));
        engine.set_fault_plan(&FaultPlan::none());
        assert_eq!(
            p.run_honest_in(&mut engine),
            reference,
            "{}: FaultPlan::none() diverged from the plain path",
            $label
        );
        engine.set_fault_plan(&FaultPlan::none().with_crash(0, u64::MAX, None));
        let exec = p.run_honest_in(&mut engine);
        assert_eq!(exec.stats.crashes, 0, "{}: nothing may fire", $label);
        assert_eq!(
            exec, reference,
            "{}: a never-firing plan diverged from the plain path",
            $label
        );
        engine.clear_fault_plan();
        assert_eq!(
            p.run_honest_in(&mut engine),
            reference,
            "{}: clear_fault_plan must restore the plain path",
            $label
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn none_plan_is_the_plain_path_for_all_protocols(seed in any::<u64>(), n in 4usize..24) {
        none_plan_identity!("basic", n, BasicLead::new(n).with_seed(seed));
        none_plan_identity!("alead", n, ALeadUni::new(n).with_seed(seed));
        none_plan_identity!(
            "phase",
            n,
            PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(seed ^ 7)
        );
        none_plan_identity!("phasesum", n, PhaseSumLead::new(n).with_seed(seed));
    }
}

/// Fault-free sweeps of every protocol: zero `crash_partition` failures,
/// no `fault` arm, and neither key in the serialized JSON — the byte-level
/// guarantee behind every pre-fault sha pin.
#[test]
fn fault_free_sweeps_never_mention_crashes() {
    for protocol in [
        ProtocolKind::BasicLead,
        ProtocolKind::ALeadUni,
        ProtocolKind::PhaseAsyncLead,
        ProtocolKind::PhaseSumLead,
    ] {
        let report = run_sweep(&SweepSpec::Honest(HonestSweep {
            protocol,
            n: 8,
            fn_key: 3,
            batch: BatchConfig {
                trials: 200,
                base_seed: 1,
                threads: 2,
            },
            batch_width: 0,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        }))
        .expect("valid spec");
        assert_eq!(report.fails.crash_partition, 0, "{protocol:?}");
        assert!(report.fault.is_none(), "{protocol:?}");
        let json = report.to_json();
        assert!(!json.contains("crash_partition"), "{protocol:?}: {json}");
        assert!(!json.contains("\"fault\""), "{protocol:?}: {json}");
    }
}

// ---------------------------------------------------------------------------
// 2. Fault-enabled sha pins, thread-count invariant.

/// The canonical fault-enabled honest sweep: `PhaseAsyncLead n=64`,
/// 500 trials, 2 crash-stop faults per trial inside the nominal 2n² = 8192
/// delivery window (what `fle_lab sweep --protocol phase --n 64
/// --trials 500 --seed 1 --crash 2` runs).
fn phase_n64_fault_sweep(threads: usize) -> SweepSpec {
    SweepSpec::Honest(HonestSweep {
        protocol: ProtocolKind::PhaseAsyncLead,
        n: 64,
        fn_key: 0,
        batch: BatchConfig {
            trials: 500,
            base_seed: 1,
            threads,
        },
        batch_width: 0,
        schedule: ScheduleSpec::Fifo,
        fault: Some(FaultSpec {
            crashes: 2,
            window: CrashInstant::Deliveries(8192),
            recover: None,
        }),
    })
}

#[test]
fn fault_sweep_sha256_is_pinned_and_thread_invariant() {
    for threads in [1, 2, 8] {
        let report = run_sweep(&phase_n64_fault_sweep(threads)).expect("valid spec");
        assert!(report.fault.is_some(), "threads {threads}");
        assert_eq!(
            sha256_hex(report.to_json().as_bytes()),
            "8c7b72646b309bde9e2ce26f6665a7d37508d14f8776bd7dad2ec24fbd85ab70",
            "threads {threads}"
        );
    }
}

/// The canonical fault-enabled attack sweep: the `k=7` rushing coalition
/// on `A-LEADuni n=16` with one crash-stop fault per trial in the 2n² =
/// 512 delivery window (what `fle_lab attack-sweep --attack rushing
/// --n 16 --trials 500 --seed 1 --coalition spaced:7:1 --target fixed:3
/// --crash 1` runs).
#[test]
fn fault_attack_sweep_sha256_is_pinned_and_thread_invariant() {
    for threads in [1, 2, 8] {
        let report = fle_harness::run_attack_sweep(&AttackSweep {
            attack: AttackKind::Rushing,
            n: 16,
            fn_key: FnKeySpec::Fixed(0),
            batch: BatchConfig {
                trials: 500,
                base_seed: 1,
                threads,
            },
            coalition: CoalitionSpec::EquallySpaced { k: 7, offset: 1 },
            target: TargetSpec::Fixed(3),
            seed_mode: SeedMode::Derived,
            schedule: ScheduleSpec::Fifo,
            fault: Some(FaultSpec {
                crashes: 1,
                window: CrashInstant::Deliveries(512),
                recover: None,
            }),
        })
        .expect("valid spec");
        assert!(report.attack.is_some() && report.fault.is_some());
        assert_eq!(
            sha256_hex(report.to_json().as_bytes()),
            "87bc1c6236d319206f4d75fd25f30bb69b32eeece2a9b4017e7f5e94371f1f88",
            "threads {threads}"
        );
    }
}

/// The timed-scheduler fault pin: crash instants on the virtual clock
/// (`window_ns`), constant 100 ns links (what `fle_lab sweep --protocol
/// phase --n 16 --trials 200 --seed 1 --latency const:100
/// --crash 1@20000ns` runs).
#[test]
fn timed_fault_sweep_sha256_is_pinned_and_thread_invariant() {
    for threads in [1, 2, 8] {
        let report = run_sweep(&SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::PhaseAsyncLead,
            n: 16,
            fn_key: 0,
            batch: BatchConfig {
                trials: 200,
                base_seed: 1,
                threads,
            },
            batch_width: 0,
            schedule: ScheduleSpec::Timed {
                latency: LatencySpec::Constant { ns: 100 },
                loss_permille: 0,
                dup_permille: 0,
            },
            fault: Some(FaultSpec {
                crashes: 1,
                window: CrashInstant::VirtualNs(20_000),
                recover: None,
            }),
        }))
        .expect("valid spec");
        assert_eq!(
            sha256_hex(report.to_json().as_bytes()),
            "fe215d83d7604dc9e867c6f814cf74f83ca042c1ecf25db5f6cc54891d1dcb6b",
            "threads {threads}"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Semantics: CrashPartition, recovery, determinism.

/// A crash that severs the unidirectional ring before the election can
/// complete quiesces with live non-terminated nodes — the outcome is
/// `CrashPartition`, never plain `Deadlock`, and the fired fault is
/// counted.
#[test]
fn severed_ring_fails_as_crash_partition() {
    let n = 8;
    let p = PhaseAsyncLead::new(n).with_seed(42);
    let mut engine = Engine::new(Topology::ring(n));
    // Node 3 crash-stops before the first delivery and never recovers:
    // every message routed through it is swallowed, so the ring is cut.
    engine.set_fault_plan(&FaultPlan::none().with_crash(3, 0, None));
    let exec = p.run_honest_in(&mut engine);
    assert_eq!(exec.outcome, Outcome::Fail(FailReason::CrashPartition));
    assert_eq!(exec.stats.crashes, 1, "the fault must count as fired");
}

/// Recovery monotonically restores survival: the faster a crashed node
/// restarts, the fewer deliveries are dropped, the more elections
/// complete. The counts are exact — the whole pipeline is deterministic —
/// so this doubles as a semantic pin of the recovery path
/// (`fle_lab sweep --protocol phase --n 8 --trials 100 --seed 1 --crash 1
/// [--recover D]`).
#[test]
fn recovery_monotonically_restores_survival() {
    let run = |recover: Option<u64>| {
        let report = run_sweep(&SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::PhaseAsyncLead,
            n: 8,
            fn_key: 0,
            batch: BatchConfig {
                trials: 100,
                base_seed: 1,
                threads: 2,
            },
            batch_width: 0,
            schedule: ScheduleSpec::Fifo,
            fault: Some(FaultSpec {
                crashes: 1,
                window: CrashInstant::Deliveries(128),
                recover,
            }),
        }))
        .expect("valid spec");
        assert_eq!(
            report.fault.expect("fault arm").crashed_trials,
            100,
            "every trial's crash fires inside the 2n² window"
        );
        report.elected()
    };
    let crash_stop = run(None);
    let slow_recover = run(Some(4));
    let fast_recover = run(Some(1));
    assert_eq!(
        (crash_stop, slow_recover, fast_recover),
        (4, 66, 88),
        "exact survival counts of the deterministic recovery ladder"
    );
    assert!(crash_stop < slow_recover && slow_recover < fast_recover);
}

/// Same spec, same bytes — twice in-process — and the fault stream is
/// seed-sensitive: a different base seed draws different crash plans and
/// (overwhelmingly) different bytes.
#[test]
fn fault_sweeps_are_deterministic_and_seed_sensitive() {
    let a = run_sweep(&phase_n64_fault_sweep(2)).expect("valid spec");
    let b = run_sweep(&phase_n64_fault_sweep(2)).expect("valid spec");
    assert_eq!(a.to_json(), b.to_json());
    let SweepSpec::Honest(mut h) = phase_n64_fault_sweep(2) else {
        unreachable!()
    };
    h.batch.base_seed = 2;
    let c = run_sweep(&SweepSpec::Honest(h)).expect("valid spec");
    assert_ne!(a.to_json(), c.to_json());
}

// ---------------------------------------------------------------------------
// 4. Lockstep poisoning: a panic inside a batch group falls back to the
//    scalar rerun, and the fault lands on exactly its trial in the
//    report's `faults` section — for any trial count, batch width,
//    thread count and poison position.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn poisoned_group_trial_attributes_its_fault_in_the_report(
        trials in 8u64..48,
        width in 2usize..9,
        threads in 1usize..4,
        base_seed in any::<u64>(),
        poison_sel in any::<u64>(),
    ) {
        let poison = poison_sel % trials;
        let n = 8usize;
        let cfg = BatchConfig { trials, base_seed, threads };
        let value = |i: u64, seed: u64| TrialOutcome {
            outcome: ring_sim::Outcome::Elected(i % n as u64),
            messages: (i ^ seed) % 1000,
            steps: i.wrapping_add(seed) % 1000 + 1,
        };
        // The group stage panics mid-fill when its range contains the
        // poisoned trial; the scalar rerun panics again at exactly that
        // trial — so the group's *other* trials must still land, and the
        // fault must attribute to `poison` alone.
        let out = run_batch_range_grouped(
            &cfg, 0, trials, width,
            || (),
            |(), gstart, buf: &mut Vec<TrialOutcome>| {
                for j in 0..width as u64 {
                    let i = gstart + j;
                    assert!(i != poison, "poisoned group trial {i}");
                    buf.push(value(i, trial_seed(base_seed, i)));
                }
                true
            },
            |(), i, seed| {
                assert!(i != poison, "poisoned scalar trial {i}");
                value(i, seed)
            },
        );
        prop_assert_eq!(out.len() as u64, trials);
        // Fold into the report layer exactly as the sweep runner does.
        let mut partial = ReportPartial::new_honest("poisoned", n, base_seed, trials);
        for (i, slot) in out.into_iter().enumerate() {
            match slot {
                Ok(outcome) => {
                    prop_assert_eq!(
                        outcome,
                        value(i as u64, trial_seed(base_seed, i as u64)),
                        "healthy trial {} must carry the scalar-path value", i
                    );
                    partial.record(i as u64, outcome);
                }
                Err(fault) => {
                    prop_assert_eq!(fault.index, poison, "fault on the wrong trial");
                    prop_assert_eq!(fault.seed, trial_seed(base_seed, poison));
                    prop_assert!(fault.message.contains("poisoned"));
                    partial.record_fault(fault);
                }
            }
        }
        let report = partial.finish().expect("full coverage");
        prop_assert_eq!(report.trials, trials - 1, "the poisoned trial is excluded");
        prop_assert_eq!(report.faults.len(), 1);
        prop_assert_eq!(report.faults[0].index, poison);
        prop_assert_eq!(report.faults[0].seed, trial_seed(base_seed, poison));
        let has_faults_arm = report.to_json().contains(r#""faults":[{"index":"#);
        prop_assert!(has_faults_arm, "report JSON must carry the faults section");
    }
}

/// A fault-enabled spec round-trips through its JSON serialization, and
/// the parsed spec reproduces the pinned report — so checkpoint resumes
/// and `--spec` files cover faulty sweeps too.
#[test]
fn fault_spec_json_round_trips_to_the_same_bytes() {
    let spec = phase_n64_fault_sweep(1);
    let parsed = SweepSpec::parse_json(&spec.to_json()).expect("round trip");
    assert_eq!(parsed, spec);
    let report = run_sweep(&parsed).expect("valid spec");
    assert_eq!(
        sha256_hex(report.to_json().as_bytes()),
        "8c7b72646b309bde9e2ce26f6665a7d37508d14f8776bd7dad2ec24fbd85ab70"
    );
}
