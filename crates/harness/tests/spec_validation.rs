//! Spec-file validation suite: malformed [`SweepSpec`] JSON must fail
//! with actionable messages (naming the offending field or constraint),
//! and every well-formed spec must round-trip and validate cleanly.
//!
//! These are the errors a user sees from
//! `fle_lab attack-sweep --spec file.json`, so the messages are pinned
//! by substring: a refactor that silently degrades them to "invalid
//! spec" fails here.

use fle_attacks::AttackKind;
use fle_harness::{
    AttackSweep, BatchConfig, CoalitionSpec, CrashInstant, FaultSpec, FnKeySpec, GraphSpec,
    HonestSweep, LatencySpec, ProtocolKind, ScheduleSpec, SeedMode, SweepSpec, TargetSpec,
    TreeSweep, MAX_THREADS,
};

/// Asserts `src` fails to parse and the error mentions `needle`.
fn assert_parse_error(src: &str, needle: &str) {
    let err = SweepSpec::parse_json(src).expect_err(src);
    assert!(err.contains(needle), "error for {src:?}: {err}");
}

/// Asserts `spec` fails validation and the error mentions `needle`.
fn assert_invalid(spec: SweepSpec, needle: &str) {
    let err = spec.validate().expect_err("spec must be invalid");
    assert!(err.contains(needle), "unexpected message: {err}");
}

fn attack_spec(attack: AttackKind, n: usize, coalition: CoalitionSpec) -> AttackSweep {
    AttackSweep {
        attack,
        n,
        fn_key: FnKeySpec::Fixed(0),
        batch: BatchConfig {
            trials: 10,
            base_seed: 0,
            threads: 0,
        },
        coalition,
        target: TargetSpec::Fixed(0),
        seed_mode: SeedMode::Derived,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    }
}

#[test]
fn malformed_documents_name_the_offending_field() {
    assert_parse_error("{", "expected '\"' at byte 1");
    assert_parse_error("{}", "missing required field \"sweep\"");
    assert_parse_error(r#"{"sweep":"nope"}"#, "unknown sweep kind \"nope\"");
    assert_parse_error(
        r#"{"sweep":"honest","protocol":"phase","n":8,"trials":10,"bogus":1}"#,
        "unknown field \"bogus\" in honest sweep",
    );
    assert_parse_error(
        r#"{"sweep":"honest","protocol":"warp","n":8,"trials":10}"#,
        "unknown protocol 'warp'",
    );
    assert_parse_error(
        r#"{"sweep":"honest","protocol":"phase","trials":10}"#,
        "missing required field \"n\"",
    );
    assert_parse_error(
        r#"{"sweep":"honest","protocol":"phase","n":8,"trials":1.5}"#,
        "non-integer number",
    );
    assert_parse_error(
        r#"{"sweep":"attack","attack":"warp","n":8,"trials":10,
           "coalition":{"placement":"cubic"}}"#,
        "unknown attack 'warp'",
    );
    assert_parse_error(
        r#"{"sweep":"attack","attack":"rushing","n":16,"trials":10}"#,
        "missing required field \"coalition\"",
    );
    assert_parse_error(
        r#"{"sweep":"tree_dictator","trials":10}"#,
        "missing required field \"graph\"",
    );
}

#[test]
fn malformed_timed_schedules_name_the_offending_field() {
    // Unknown key inside the schedule object.
    assert_parse_error(
        r#"{"sweep":"honest","protocol":"phase","n":8,"trials":10,
           "schedule":{"mode":"timed","jitter":3}}"#,
        "unknown field \"jitter\" in schedule",
    );
    // Unknown schedule mode.
    assert_parse_error(
        r#"{"sweep":"honest","protocol":"phase","n":8,"trials":10,
           "schedule":{"mode":"warp"}}"#,
        "unknown schedule mode \"warp\"",
    );
    // Malformed latency: unknown distribution.
    assert_parse_error(
        r#"{"sweep":"honest","protocol":"phase","n":8,"trials":10,
           "schedule":{"mode":"timed","latency":{"dist":"pareto","ns":3}}}"#,
        "unknown latency dist \"pareto\"",
    );
    // Malformed latency: missing bound.
    assert_parse_error(
        r#"{"sweep":"honest","protocol":"phase","n":8,"trials":10,
           "schedule":{"mode":"timed","latency":{"dist":"uniform","lo":1}}}"#,
        "latency: missing required field \"hi\"",
    );
    // Fifo mode takes no further keys.
    assert_parse_error(
        r#"{"sweep":"honest","protocol":"phase","n":8,"trials":10,
           "schedule":{"mode":"fifo","loss_permille":5}}"#,
        "unknown field \"loss_permille\" in schedule",
    );
}

#[test]
fn validate_rejects_out_of_range_timed_schedules() {
    let timed = |schedule| {
        let mut spec = attack_spec(
            AttackKind::Rushing,
            16,
            CoalitionSpec::EquallySpaced { k: 4, offset: 1 },
        );
        spec.schedule = schedule;
        SweepSpec::Attack(spec)
    };
    // Probabilities above 1 (1000 permille) are rejected by name.
    assert_invalid(
        timed(ScheduleSpec::Timed {
            latency: LatencySpec::ZERO,
            loss_permille: 1001,
            dup_permille: 0,
        }),
        "schedule loss_permille must be <= 1000",
    );
    assert_invalid(
        timed(ScheduleSpec::Timed {
            latency: LatencySpec::ZERO,
            loss_permille: 0,
            dup_permille: 2000,
        }),
        "schedule dup_permille must be <= 1000",
    );
    // Zero-width uniform latency ranges are degenerate.
    assert_invalid(
        timed(ScheduleSpec::Timed {
            latency: LatencySpec::Uniform { lo: 5, hi: 5 },
            loss_permille: 0,
            dup_permille: 0,
        }),
        "uniform latency needs hi > lo",
    );
    assert_invalid(
        timed(ScheduleSpec::Timed {
            latency: LatencySpec::TwoPoint {
                lo: 1,
                hi: 10,
                hi_permille: 1500,
            },
            loss_permille: 0,
            dup_permille: 0,
        }),
        "two_point hi_permille must be <= 1000",
    );
    // A well-formed timed spec round-trips and validates.
    let spec = timed(ScheduleSpec::Timed {
        latency: LatencySpec::TwoPoint {
            lo: 10,
            hi: 500,
            hi_permille: 200,
        },
        loss_permille: 50,
        dup_permille: 10,
    });
    assert_eq!(SweepSpec::parse_json(&spec.to_json()), Ok(spec.clone()));
    spec.validate().unwrap_or_else(|e| panic!("{e}"));
}

/// A timed run's arrivals reach at most (step limit + 1) × the longest
/// latency, and its recovery instants at most window + recover. Past
/// `u64` the clock saturates, the tied arrivals pop in send order, and the
/// run follows a schedule nobody asked for, so both bounds are checked
/// up front and the message names the limit.
#[test]
fn validate_bounds_the_virtual_clock_and_recovery() {
    let spec = |latency, fault| {
        SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::PhaseAsyncLead,
            n: 64,
            fn_key: 0,
            batch: BatchConfig {
                trials: 200,
                base_seed: 1,
                threads: 0,
            },
            batch_width: 8,
            schedule: ScheduleSpec::Timed {
                latency,
                loss_permille: 0,
                dup_permille: 0,
            },
            fault,
        })
    };
    // n = 64 runs at most 16·64² + 4096 = 69,632 steps.
    let limit = u64::MAX / 69_633;
    let needle = format!("the limit is {limit} ns");
    for latency in [
        LatencySpec::Constant { ns: limit + 1 },
        LatencySpec::Uniform {
            lo: 0,
            hi: limit + 2,
        },
        LatencySpec::Uniform {
            lo: 0,
            hi: u64::MAX,
        },
        LatencySpec::TwoPoint {
            lo: 0,
            hi: limit + 1,
            hi_permille: 1,
        },
    ] {
        assert_invalid(spec(latency, None), &needle);
    }
    for latency in [
        LatencySpec::Constant { ns: limit },
        LatencySpec::Uniform {
            lo: 0,
            hi: limit + 1,
        },
        LatencySpec::TwoPoint {
            lo: limit,
            hi: 0,
            hi_permille: 1000,
        },
    ] {
        spec(latency, None)
            .validate()
            .unwrap_or_else(|e| panic!("{latency:?}: {e}"));
    }

    let crash = |bound, recover| {
        Some(FaultSpec {
            crashes: 1,
            window: CrashInstant::VirtualNs(bound),
            recover: Some(recover),
        })
    };
    let latency = LatencySpec::Constant { ns: 500 };
    assert_invalid(
        spec(latency, crash(u64::MAX, 1)),
        "their sum must be at most 18446744073709551615",
    );
    assert_invalid(
        spec(latency, crash(1, u64::MAX)),
        "fault window bound 1 plus recover 18446744073709551615 overflows",
    );
    spec(latency, crash(u64::MAX - 7, 7))
        .validate()
        .unwrap_or_else(|e| panic!("{e}"));
}

/// A spec asking for more than `MAX_THREADS` workers, as many as it has
/// trials, once passed validation and would have asked the OS for every
/// one. Only validated here: nothing is spawned.
#[test]
fn validate_caps_the_thread_count() {
    let mut spec = attack_spec(AttackKind::Rushing, 16, CoalitionSpec::Cubic);
    spec.batch.threads = MAX_THREADS;
    SweepSpec::Attack(spec.clone())
        .validate()
        .unwrap_or_else(|e| panic!("{e}"));
    for threads in [MAX_THREADS + 1, usize::MAX] {
        spec.batch.trials = threads as u64;
        spec.batch.threads = threads;
        assert_invalid(
            SweepSpec::Attack(spec.clone()),
            "\"threads\" must be at most 1024",
        );
    }
}

#[test]
fn validate_rejects_out_of_range_references() {
    // Ring below the protocol minimum.
    assert_invalid(
        SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::PhaseAsyncLead,
            n: 2,
            fn_key: 0,
            batch: BatchConfig {
                trials: 10,
                base_seed: 0,
                threads: 0,
            },
            batch_width: 0,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        }),
        "needs n >= 4",
    );
    // Zero trials.
    let mut empty = attack_spec(AttackKind::Rushing, 16, CoalitionSpec::Cubic);
    empty.batch.trials = 0;
    assert_invalid(SweepSpec::Attack(empty), "trials must be >= 1");
    // Single-adversary attacks reject coalitions.
    assert_invalid(
        SweepSpec::Attack(attack_spec(
            AttackKind::BasicSingle,
            16,
            CoalitionSpec::EquallySpaced { k: 2, offset: 0 },
        )),
        "takes a single adversary",
    );
    // The cubic attack dictates its own Theorem 4.3 layout.
    assert_invalid(
        SweepSpec::Attack(attack_spec(
            AttackKind::Cubic,
            64,
            CoalitionSpec::EquallySpaced { k: 8, offset: 0 },
        )),
        "Theorem 4.3 layout",
    );
    // Coalition positions must lie on the ring.
    assert!(SweepSpec::Attack(attack_spec(
        AttackKind::Rushing,
        16,
        CoalitionSpec::Explicit {
            positions: vec![3, 99],
        },
    ))
    .validate()
    .is_err());
    // Fixed targets are range-checked against the ring…
    let mut spec = attack_spec(
        AttackKind::Rushing,
        16,
        CoalitionSpec::EquallySpaced { k: 4, offset: 1 },
    );
    spec.target = TargetSpec::Fixed(16);
    assert_invalid(SweepSpec::Attack(spec), "target 16 out of range for n=16");
    // …and wakeup_mask's against the coalition (member index).
    let mut spec = attack_spec(
        AttackKind::WakeupMask,
        12,
        CoalitionSpec::Contiguous { k: 3, start: 0 },
    );
    spec.target = TargetSpec::Fixed(3);
    assert_invalid(
        SweepSpec::Attack(spec),
        "wakeup_mask target is a coalition member index; 3 out of range for k=3",
    );
    // Tree targets are checked against the graph's vertex count.
    assert_invalid(
        SweepSpec::TreeDictator(TreeSweep {
            graph: GraphSpec::Path(8),
            batch: BatchConfig {
                trials: 10,
                base_seed: 0,
                threads: 0,
            },
            target: TargetSpec::Fixed(8),
            seed_mode: SeedMode::Derived,
        }),
        "target 8 out of range for graph n=8",
    );
    // Lockstep widths past the lane limit, from flags as from files.
    assert_invalid(
        SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::PhaseAsyncLead,
            n: 8,
            fn_key: 0,
            batch: BatchConfig {
                trials: 10,
                base_seed: 0,
                threads: 0,
            },
            batch_width: 1025,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        }),
        "\"batch_width\" must be at most 1024",
    );
    // Sizes past the node limit, for every spec kind, before anything
    // of that size is built.
    assert_invalid(
        SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::PhaseAsyncLead,
            n: 4_000_000_000,
            fn_key: 0,
            batch: BatchConfig {
                trials: 1,
                base_seed: 0,
                threads: 0,
            },
            batch_width: 0,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        }),
        "n=4000000000 exceeds the size limit of 4096 nodes",
    );
    assert_invalid(
        SweepSpec::Attack(attack_spec(
            AttackKind::Rushing,
            4_000_000_000,
            CoalitionSpec::EquallySpaced { k: 4, offset: 1 },
        )),
        "n=4000000000 exceeds the size limit of 4096 nodes",
    );
    for graph in [
        GraphSpec::Complete(4097),
        // rows × cols wraps to 2^31 in 64-bit arithmetic.
        GraphSpec::Grid {
            rows: 8_589_934_593,
            cols: 2_147_483_648,
        },
    ] {
        assert_invalid(
            SweepSpec::TreeDictator(TreeSweep {
                graph,
                batch: BatchConfig {
                    trials: 1,
                    base_seed: 0,
                    threads: 0,
                },
                target: TargetSpec::Fixed(0),
                seed_mode: SeedMode::Derived,
            }),
            "exceeds the size limit of 4096 nodes",
        );
    }
}

#[test]
fn well_formed_specs_round_trip_and_validate() {
    let coalitions = [
        CoalitionSpec::EquallySpaced { k: 4, offset: 1 },
        CoalitionSpec::Explicit {
            positions: vec![1, 5, 9, 13],
        },
        CoalitionSpec::RandomLocated {
            k: 4,
            layout_seed: 7,
        },
    ];
    for coalition in coalitions {
        let spec = SweepSpec::Attack(attack_spec(AttackKind::Rushing, 16, coalition));
        assert_eq!(SweepSpec::parse_json(&spec.to_json()), Ok(spec.clone()));
        spec.validate().unwrap_or_else(|e| panic!("{e}"));
    }
    let spec = SweepSpec::Attack(attack_spec(AttackKind::Cubic, 64, CoalitionSpec::Cubic));
    assert_eq!(SweepSpec::parse_json(&spec.to_json()), Ok(spec.clone()));
    spec.validate().unwrap_or_else(|e| panic!("{e}"));

    let graphs = [
        GraphSpec::Cycle(9),
        GraphSpec::Grid { rows: 3, cols: 4 },
        GraphSpec::RandomConnected {
            n: 12,
            permille: 250,
            seed: 4,
        },
        GraphSpec::Figure2,
    ];
    for graph in graphs {
        let spec = SweepSpec::TreeDictator(TreeSweep {
            graph,
            batch: BatchConfig {
                trials: 5,
                base_seed: 2,
                threads: 0,
            },
            target: TargetSpec::SeedProduct { multiplier: 5 },
            seed_mode: SeedMode::RawIndex,
        });
        assert_eq!(SweepSpec::parse_json(&spec.to_json()), Ok(spec.clone()));
        spec.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    // The size limit admits the largest ring the experiments sweep.
    let at_limit = attack_spec(
        AttackKind::Rushing,
        4096,
        CoalitionSpec::EquallySpaced { k: 64, offset: 1 },
    );
    SweepSpec::Attack(at_limit)
        .validate()
        .unwrap_or_else(|e| panic!("{e}"));
}
