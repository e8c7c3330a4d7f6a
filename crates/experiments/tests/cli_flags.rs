//! The flag-to-spec mapping of `fle_lab sweep` and `fle_lab attack-sweep`,
//! pinned through the real binary: every spec-field flag, spelled on the
//! command line, must print exactly the bytes of the [`SweepSpec`] it
//! stands for, run from a file with `attack-sweep --spec FILE`.

use fle_attacks::AttackKind;
use fle_harness::{
    AttackSweep, BatchConfig, CoalitionSpec, CrashInstant, FaultSpec, FnKeySpec, HonestSweep,
    LatencySpec, ProtocolKind, ScheduleSpec, SeedMode, SweepSpec, TargetSpec,
};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `fle_lab` with `args`.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fle_lab"))
        .args(args)
        .output()
        .expect("spawn fle_lab")
}

/// Runs `fle_lab` with `args`, asserting exit success.
fn run_ok(args: &[&str]) -> Output {
    let out = run(args);
    assert!(
        out.status.success(),
        "fle_lab {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A spec file under the temp dir, removed on drop.
struct SpecFile(PathBuf);

impl SpecFile {
    fn new(name: &str, spec: &SweepSpec) -> Self {
        // Tests run in parallel, so every file gets its own number.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "fle_lab_cli_flags_{}_{}_{name}.json",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, spec.to_json()).expect("write spec file");
        Self(path)
    }

    fn as_str(&self) -> &str {
        self.0.to_str().expect("temp path is valid UTF-8")
    }
}

impl Drop for SpecFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Asserts that `fle_lab <flags>` prints what `fle_lab attack-sweep
/// --spec FILE [--format csv]` prints for `spec`'s file.
fn assert_flags_build(name: &str, flags: &str, spec: SweepSpec) {
    let file = SpecFile::new(name, &spec);
    let flags: Vec<&str> = flags.split_whitespace().collect();
    let mut reference = vec!["attack-sweep", "--spec", file.as_str()];
    if flags.contains(&"csv") {
        reference.extend(["--format", "csv"]);
    }
    let from_flags = run_ok(&flags);
    let from_file = run_ok(&reference);
    assert!(!from_file.stdout.is_empty(), "{name}: empty report");
    assert_eq!(
        String::from_utf8_lossy(&from_flags.stdout),
        String::from_utf8_lossy(&from_file.stdout),
        "{name}: fle_lab {flags:?} differs from the spec {}",
        spec.to_json()
    );
}

fn honest(protocol: ProtocolKind, n: usize, trials: u64, base_seed: u64) -> HonestSweep {
    HonestSweep {
        protocol,
        n,
        fn_key: 0,
        batch: BatchConfig {
            trials,
            base_seed,
            threads: 0,
        },
        batch_width: 0,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    }
}

fn attack(kind: AttackKind, n: usize, coalition: CoalitionSpec, target: u64) -> AttackSweep {
    AttackSweep {
        attack: kind,
        n,
        fn_key: FnKeySpec::Fixed(0),
        batch: BatchConfig {
            trials: 40,
            base_seed: 1,
            threads: 0,
        },
        coalition,
        target: TargetSpec::Fixed(target),
        seed_mode: SeedMode::Derived,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    }
}

fn timed(latency: LatencySpec, loss_permille: u32, dup_permille: u32) -> ScheduleSpec {
    ScheduleSpec::Timed {
        latency,
        loss_permille,
        dup_permille,
    }
}

fn crash(crashes: u64, window: CrashInstant, recover: Option<u64>) -> Option<FaultSpec> {
    Some(FaultSpec {
        crashes,
        window,
        recover,
    })
}

#[test]
fn sweep_flags_build_their_honest_spec() {
    use ProtocolKind::*;
    const PHASE8: &str = "sweep --protocol phase --n 8 --trials 30 --seed 1";
    let phase8 = honest(PhaseAsyncLead, 8, 30, 1);
    let mut alead_threads = honest(ALeadUni, 6, 40, 4);
    alead_threads.batch.threads = 2;
    let cases: Vec<(&str, String, HonestSweep)> = vec![
        (
            "basic",
            "sweep --protocol basic --n 5 --trials 40 --seed 3".into(),
            honest(BasicLead, 5, 40, 3),
        ),
        (
            "alead_aliases",
            "sweep -p alead -n 6 -t 40 -s 4 -j 2".into(),
            alead_threads,
        ),
        (
            "phase_fn_key",
            format!("{PHASE8} --fn-key 7"),
            HonestSweep {
                fn_key: 7,
                ..phase8
            },
        ),
        (
            "phasesum_batch_1",
            "sweep --protocol phasesum --n 8 --trials 30 --seed 2 --batch 1".into(),
            HonestSweep {
                batch_width: 1,
                ..honest(PhaseSumLead, 8, 30, 2)
            },
        ),
        (
            "phase_batch_alias",
            format!("{PHASE8} -b 3"),
            HonestSweep {
                batch_width: 3,
                ..phase8
            },
        ),
        (
            "latency_const",
            format!("{PHASE8} --latency const:100"),
            HonestSweep {
                schedule: timed(LatencySpec::Constant { ns: 100 }, 0, 0),
                ..phase8
            },
        ),
        (
            "latency_uniform_loss",
            format!("{PHASE8} --latency uniform:0:1000 --loss 50"),
            HonestSweep {
                schedule: timed(LatencySpec::Uniform { lo: 0, hi: 1000 }, 50, 0),
                ..phase8
            },
        ),
        (
            "latency_twopoint_dup",
            format!("{PHASE8} --latency twopoint:10:5000:100 --dup 20"),
            HonestSweep {
                schedule: timed(
                    LatencySpec::TwoPoint {
                        lo: 10,
                        hi: 5000,
                        hi_permille: 100,
                    },
                    0,
                    20,
                ),
                ..phase8
            },
        ),
        (
            "loss_only",
            "sweep --protocol alead --n 6 --trials 30 --seed 1 --loss 30".into(),
            HonestSweep {
                schedule: timed(LatencySpec::ZERO, 30, 0),
                ..honest(ALeadUni, 6, 30, 1)
            },
        ),
        (
            "dup_only",
            "sweep --protocol basic --n 6 --trials 30 --seed 1 --dup 40".into(),
            HonestSweep {
                schedule: timed(LatencySpec::ZERO, 0, 40),
                ..honest(BasicLead, 6, 30, 1)
            },
        ),
        (
            "crash_default_window",
            format!("{PHASE8} --crash 2"),
            HonestSweep {
                fault: crash(2, CrashInstant::Deliveries(2 * 8 * 8), None),
                ..phase8
            },
        ),
        (
            "crash_delivery_window",
            format!("{PHASE8} --crash 1@50"),
            HonestSweep {
                fault: crash(1, CrashInstant::Deliveries(50), None),
                ..phase8
            },
        ),
        (
            "crash_virtual_ns_window",
            format!("{PHASE8} --latency const:100 --crash 1@2000ns"),
            HonestSweep {
                schedule: timed(LatencySpec::Constant { ns: 100 }, 0, 0),
                fault: crash(1, CrashInstant::VirtualNs(2000), None),
                ..phase8
            },
        ),
        (
            "crash_recover",
            format!("{PHASE8} --crash 2@100 --recover 30"),
            HonestSweep {
                fault: crash(2, CrashInstant::Deliveries(100), Some(30)),
                ..phase8
            },
        ),
        (
            "default_trials",
            "sweep --protocol basic --n 4 --seed 2".into(),
            honest(BasicLead, 4, 10_000, 2),
        ),
        (
            "csv",
            "sweep --protocol alead --n 6 --trials 50 --seed 1 -f csv".into(),
            honest(ALeadUni, 6, 50, 1),
        ),
    ];
    for (name, flags, spec) in cases {
        assert_flags_build(name, &flags, SweepSpec::Honest(spec));
    }
}

#[test]
fn attack_sweep_flags_build_their_attack_spec() {
    use AttackKind::*;
    use CoalitionSpec::{Contiguous, EquallySpaced, Explicit, Single};
    const BASE: &str = "attack-sweep --trials 40 --seed 1";
    let spaced = |k, offset| EquallySpaced { k, offset };
    let rushing16 = attack(Rushing, 16, spaced(7, 1), 3);
    let phase_rushing16 = attack(PhaseRushing, 16, spaced(7, 1), 3);
    let mask12 = attack(WakeupMask, 12, spaced(5, 1), 2);
    let mut default_trials = attack(Rushing, 16, spaced(4, 1), 0);
    default_trials.batch.trials = 1_000;
    default_trials.batch.base_seed = 5;
    let cases: Vec<(&str, String, AttackSweep)> = vec![
        // One accepted layout per attack kind.
        (
            "basic_single",
            format!("{BASE} --attack basic_single --n 8 --coalition single:5 --target fixed:2"),
            attack(BasicSingle, 8, Single { position: 5 }, 2),
        ),
        (
            "rushing",
            format!("{BASE} --attack rushing --n 16 --coalition spaced:7:1 --target fixed:3"),
            rushing16.clone(),
        ),
        (
            "cubic",
            format!("{BASE} --attack cubic --n 27 --coalition cubic --target fixed:4"),
            attack(Cubic, 27, CoalitionSpec::Cubic, 4),
        ),
        (
            "random_located",
            format!(
                "{BASE} --attack random_located --n 16 --coalition random:6:7 --target fixed:3"
            ),
            attack(
                RandomLocated,
                16,
                CoalitionSpec::RandomLocated {
                    k: 6,
                    layout_seed: 7,
                },
                3,
            ),
        ),
        (
            "phase_rushing",
            format!("{BASE} --attack phase_rushing --n 16 --coalition spaced:7:1 --target fixed:3"),
            phase_rushing16.clone(),
        ),
        (
            "phase_guess",
            format!("{BASE} --attack phase_guess --n 8 --coalition single:3"),
            attack(PhaseGuess, 8, Single { position: 3 }, 0),
        ),
        (
            "phase_burst",
            format!("{BASE} --attack phase_burst --n 16 --coalition spaced:4:2 --target fixed:5"),
            attack(PhaseBurst, 16, spaced(4, 2), 5),
        ),
        (
            "phase_sum",
            format!("{BASE} --attack phase_sum --n 32 --coalition spaced:4:1 --target fixed:2"),
            attack(PhaseSum, 32, spaced(4, 1), 2),
        ),
        (
            "wakeup_id_lie",
            format!("{BASE} --attack wakeup_id_lie --n 10 --coalition single:4"),
            attack(WakeupIdLie, 10, Single { position: 4 }, 0),
        ),
        (
            "wakeup_mask",
            format!("{BASE} --attack wakeup_mask --n 12 --coalition spaced:5:1 --target fixed:2"),
            mask12.clone(),
        ),
        // Every coalition form, short aliases included.
        (
            "spaced_default_offset",
            format!("{BASE} -a rushing -n 16 -c spaced:7 -w fixed:3"),
            rushing16.clone(),
        ),
        (
            "consecutive_default_start",
            format!("{BASE} --attack rushing --n 16 --coalition consecutive:9"),
            attack(Rushing, 16, Contiguous { k: 9, start: 0 }, 0),
        ),
        (
            "consecutive_start",
            format!("{BASE} --attack rushing --n 16 --coalition consecutive:9:4 --target fixed:1"),
            attack(Rushing, 16, Contiguous { k: 9, start: 4 }, 1),
        ),
        (
            "explicit",
            format!(
                "{BASE} --attack rushing --n 16 --coalition explicit:1,4,6,9,11,14 --target fixed:7"
            ),
            attack(
                Rushing,
                16,
                Explicit {
                    positions: vec![1, 4, 6, 9, 11, 14],
                },
                7,
            ),
        ),
        // Target policies, fn-key policies and the seed streams.
        (
            "target_seedprod",
            format!("{BASE} --attack rushing --n 16 --coalition spaced:7:1 --target seedprod:5"),
            AttackSweep {
                target: TargetSpec::SeedProduct { multiplier: 5 },
                ..rushing16.clone()
            },
        ),
        (
            "fn_key",
            format!(
                "{BASE} --attack phase_rushing --n 16 --coalition spaced:7:1 --target fixed:3 \
                 --fn-key 9"
            ),
            AttackSweep {
                fn_key: FnKeySpec::Fixed(9),
                ..phase_rushing16.clone()
            },
        ),
        (
            "fn_key_xor",
            format!(
                "{BASE} --attack phase_rushing --n 16 --coalition spaced:7:1 --target fixed:3 \
                 --fn-key-xor 255"
            ),
            AttackSweep {
                fn_key: FnKeySpec::SeedXor(255),
                ..phase_rushing16
            },
        ),
        (
            "seed_mode_raw",
            format!(
                "{BASE} --attack rushing --n 16 --coalition spaced:7:1 --target fixed:3 \
                 --seed-mode raw"
            ),
            AttackSweep {
                seed_mode: SeedMode::RawIndex,
                ..rushing16.clone()
            },
        ),
        (
            "seed_mode_derived",
            format!(
                "{BASE} --attack rushing --n 16 --coalition spaced:7:1 --target fixed:3 \
                 --seed-mode derived"
            ),
            rushing16.clone(),
        ),
        // The shared timed-net and fault flags on an attack sweep.
        (
            "timed_crash_recover",
            format!(
                "{BASE} --attack wakeup_mask --n 12 --coalition spaced:5:1 --target fixed:2 \
                 --latency uniform:0:1000 --loss 5 --dup 5 --crash 1@20000ns --recover 5000"
            ),
            AttackSweep {
                schedule: timed(LatencySpec::Uniform { lo: 0, hi: 1000 }, 5, 5),
                fault: crash(1, CrashInstant::VirtualNs(20_000), Some(5000)),
                ..mask12
            },
        ),
        (
            "crash_default_window",
            format!(
                "{BASE} --attack rushing --n 16 --coalition spaced:7:1 --target fixed:3 --crash 1"
            ),
            AttackSweep {
                fault: crash(1, CrashInstant::Deliveries(2 * 16 * 16), None),
                ..rushing16.clone()
            },
        ),
        (
            "default_trials",
            "attack-sweep --attack rushing --n 16 --coalition spaced:4 -s 5".into(),
            default_trials,
        ),
        (
            "csv",
            format!(
                "{BASE} --attack rushing --n 16 --coalition spaced:7:1 --target fixed:3 \
                 --format csv"
            ),
            rushing16,
        ),
    ];
    for (name, flags, spec) in cases {
        assert_flags_build(name, &flags, SweepSpec::Attack(spec));
    }
}

/// Runs `fle_lab` with `args`, asserting exit code 2 and an error that
/// mentions every one of `needles`.
fn assert_exit_2(args: &[&str], needles: &[&str]) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "fle_lab {args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "fle_lab {args:?}: {stderr}");
    }
}

/// A spec-field flag next to `--spec` would be ignored, so it is an
/// error naming the flag, under either subcommand and in any spelling.
#[test]
fn spec_field_flags_next_to_spec_exit_2() {
    let spec = SpecFile::new(
        "spec_conflict",
        &SweepSpec::Attack(attack(
            AttackKind::Rushing,
            16,
            CoalitionSpec::EquallySpaced { k: 7, offset: 1 },
            3,
        )),
    );
    let both = [
        ("--n", "16"),
        ("-n", "16"),
        ("--trials", "5"),
        ("-t", "5"),
        ("--seed", "2"),
        ("-s", "2"),
        ("--fn-key", "1"),
        ("--latency", "uniform:0:1000"),
        ("--loss", "500"),
        ("--dup", "100"),
        ("--crash", "1"),
        ("--recover", "10"),
    ];
    let sweep_only = [
        ("--protocol", "phase"),
        ("-p", "phase"),
        ("--batch", "1"),
        ("-b", "1"),
    ];
    let attack_only = [
        ("--attack", "rushing"),
        ("-a", "rushing"),
        ("--coalition", "spaced:7:1"),
        ("-c", "spaced:7:1"),
        ("--target", "fixed:3"),
        ("-w", "fixed:3"),
        ("--fn-key-xor", "1"),
        ("--seed-mode", "raw"),
    ];
    let cases = both
        .iter()
        .flat_map(|f| [("sweep", f), ("attack-sweep", f)])
        .chain(sweep_only.iter().map(|f| ("sweep", f)))
        .chain(attack_only.iter().map(|f| ("attack-sweep", f)));
    for (sub, (flag, value)) in cases {
        // Before the file and after it.
        assert_exit_2(
            &[sub, flag, value, "--spec", spec.as_str()],
            &[flag, "--spec"],
        );
        assert_exit_2(
            &[sub, "--spec", spec.as_str(), flag, value],
            &[flag, "--spec"],
        );
    }
}

/// Run flags combine with `--spec` under either subcommand and leave the
/// report bytes alone.
#[test]
fn run_flags_combine_with_spec() {
    let spec = SweepSpec::Attack(attack(
        AttackKind::Rushing,
        16,
        CoalitionSpec::EquallySpaced { k: 7, offset: 1 },
        3,
    ));
    let file = SpecFile::new("run_flags", &spec);
    let reference = run_ok(&["attack-sweep", "--spec", file.as_str()]).stdout;
    let checkpoint = std::env::temp_dir().join(format!(
        "fle_lab_cli_flags_{}_run_flags.ckpt.json",
        std::process::id()
    ));
    let checkpoint = checkpoint.to_str().expect("temp path is valid UTF-8");
    for sub in ["sweep", "attack-sweep"] {
        let spec_flags = [sub, "--spec", file.as_str()];
        for extra in [
            vec!["--threads", "3"],
            vec!["-j", "1", "-f", "json"],
            vec!["--checkpoint", checkpoint, "--checkpoint-every", "7"],
        ] {
            let args = [&spec_flags[..], &extra].concat();
            assert_eq!(run_ok(&args).stdout, reference, "fle_lab {args:?}");
        }
        let csv = run_ok(&[&spec_flags[..], &["--format", "csv"]].concat()).stdout;
        assert!(
            csv.starts_with(b"node,"),
            "{}",
            String::from_utf8_lossy(&csv)
        );
        let shard = run_ok(&[&spec_flags[..], &["--shard", "0/2"]].concat()).stdout;
        assert!(
            shard.starts_with(b"{\"format\""),
            "{}",
            String::from_utf8_lossy(&shard)
        );
    }
}

/// A flag of the other sweep kind is an error naming the subcommand it
/// belongs to.
#[test]
fn other_kind_flags_name_their_subcommand() {
    let sweep = ["sweep", "--protocol", "phase", "--n", "8", "--trials", "5"];
    for (flag, value) in [
        ("--attack", "rushing"),
        ("-a", "rushing"),
        ("--coalition", "spaced:4"),
        ("-c", "spaced:4"),
        ("--target", "fixed:1"),
        ("-w", "fixed:1"),
        ("--fn-key-xor", "3"),
        ("--seed-mode", "raw"),
    ] {
        let args = [&sweep[..], &[flag, value]].concat();
        assert_exit_2(&args, &[flag, "'attack-sweep'"]);
    }
    let attack_sweep = [
        "attack-sweep",
        "--attack",
        "rushing",
        "--n",
        "16",
        "--coalition",
        "spaced:7:1",
    ];
    for (flag, value) in [
        ("--protocol", "phase"),
        ("-p", "phase"),
        ("--batch", "4"),
        ("-b", "4"),
    ] {
        let args = [&attack_sweep[..], &[flag, value]].concat();
        assert_exit_2(&args, &[flag, "'sweep'"]);
    }
}
