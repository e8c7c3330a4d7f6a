//! Hostile inputs through the real `fle_lab` binary: a malformed file
//! must end in exit code 2 and a named error, never a crash.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A file under the temp dir holding `contents`, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str, contents: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "fle_lab_hostile_{}_{name}.json",
            std::process::id()
        ));
        std::fs::write(&path, contents).expect("write temp file");
        Self(path)
    }

    fn as_str(&self) -> &str {
        self.0.to_str().expect("temp path is valid UTF-8")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs `fle_lab` with `args`, under an address-space cap of `cap_kib`
/// KiB (`ulimit -v`) when one is given.
fn fle_lab(cap_kib: Option<u64>, args: &[&str]) -> Output {
    let mut command = match cap_kib {
        Some(cap) => {
            let mut sh = Command::new("sh");
            sh.arg("-c")
                .arg(format!("ulimit -v {cap}; exec \"$0\" \"$@\""))
                .arg(env!("CARGO_BIN_EXE_fle_lab"));
            sh
        }
        None => Command::new(env!("CARGO_BIN_EXE_fle_lab")),
    };
    command.args(args).output().expect("spawn fle_lab")
}

/// Runs `fle_lab` with `args` (under `cap_kib` as in [`fle_lab`]) and
/// asserts exit code 2 with `needle` on stderr.
fn assert_named_error_under(cap_kib: Option<u64>, args: &[&str], needle: &str) {
    let out = fle_lab(cap_kib, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

/// Runs `fle_lab` with `args` and asserts exit code 2 with `needle` on
/// stderr.
fn assert_named_error(args: &[&str], needle: &str) {
    assert_named_error_under(None, args, needle);
}

/// `[` nested 200,000 deep once overflowed the parser's stack. The spec,
/// checkpoint and partial-report readers share the parser, so each must
/// reject the file with the nesting limit named.
#[test]
fn deeply_nested_json_is_a_named_error() {
    let deep = "[".repeat(200_000);
    let cases: [(&str, Vec<&str>); 3] = [
        ("spec", vec!["attack-sweep", "--spec"]),
        ("partial", vec!["merge-reports"]),
        (
            "checkpoint",
            vec![
                "sweep",
                "--protocol",
                "phase",
                "--n",
                "8",
                "--trials",
                "10",
                "--checkpoint",
            ],
        ),
    ];
    for (name, args) in cases {
        let file = TempFile::new(name, &deep);
        let args = [&args[..], &[file.as_str()]].concat();
        assert_named_error(&args, "JSON nesting depth limit of 128");
    }
}

/// The spec, partial-report and checkpoint readers read a file whole, so
/// `sweep --spec /dev/zero` grew until it hit the address-space cap and
/// exited with "cannot read /dev/zero: out of memory" (and without a cap
/// it grew until the host ran out). Each reader must stop one byte past
/// the 16 MiB limit on pipes and devices and exit 2 naming it, well inside
/// the cap. (Regular files have no limit: see
/// `checkpoint_resume.rs::partials_and_checkpoints_past_16_mib_round_trip`.)
#[test]
fn endless_input_files_are_named_errors() {
    let limit = "runs past 16777216 bytes, the input size limit for pipes and devices";
    let checkpoint = ["sweep", "--protocol", "phase", "--n", "8", "--trials", "10"];
    let cases: [Vec<&str>; 3] = [
        vec!["sweep", "--spec", "/dev/zero"],
        vec!["merge-reports", "/dev/zero"],
        [&checkpoint[..], &["--checkpoint", "/dev/zero"]].concat(),
    ];
    for args in cases {
        assert_named_error_under(Some(300_000), &args, limit);
    }
}

/// Sizes past the spec limits once passed validation and aborted on a
/// failed allocation (exit 134): a 4·10⁹-node ring, flag-built or from an
/// attack spec, a grid whose `rows × cols` wraps, and lockstep widths past
/// the 1,024-lane limit that spec files already enforced. Each must be an
/// exit-2 error naming the limit, before any work starts.
#[test]
fn size_and_lane_limits_are_named_errors() {
    let attack = TempFile::new(
        "huge_attack",
        r#"{"sweep":"attack","attack":"rushing","n":4000000000,"trials":1,"base_seed":0,"threads":0,"coalition":{"placement":"equally_spaced","k":4,"offset":1}}"#,
    );
    let grid = TempFile::new(
        "wrapping_grid",
        r#"{"sweep":"tree_dictator","graph":{"family":"grid","rows":8589934593,"cols":2147483648},"trials":1,"base_seed":0,"threads":0}"#,
    );
    let lanes = TempFile::new(
        "wide_batch",
        r#"{"sweep":"honest","protocol":"phase","n":8,"fn_key":0,"trials":10,"base_seed":0,"threads":0,"batch_width":1025}"#,
    );
    let sweep = |n: &'static str, trials: &'static str| {
        vec!["sweep", "--protocol", "phase", "--n", n, "--trials", trials]
    };
    let cases: [(Vec<&str>, &str); 6] = [
        (sweep("4000000000", "1"), "size limit of 4096"),
        (
            vec!["attack-sweep", "--spec", attack.as_str()],
            "size limit of 4096",
        ),
        (
            vec!["attack-sweep", "--spec", grid.as_str()],
            "size limit of 4096",
        ),
        (
            [sweep("8", "10"), vec!["--batch", "1025"]].concat(),
            "at most 1024",
        ),
        (
            [sweep("64", "2000000"), vec!["--batch", "1000000"]].concat(),
            "at most 1024",
        ),
        (vec!["sweep", "--spec", lanes.as_str()], "at most 1024"),
    ];
    for (args, needle) in cases {
        assert_named_error(&args, needle);
    }
}

/// `--threads` once took any count, after the subcommand or before it
/// (`fle_lab --threads N sweep …`), and a sweep of as many trials asked
/// the OS for that many threads. Past 1,024 each must be an exit-2 error
/// naming the limit, before any thread starts; with one trial the old
/// binary clamped both to one worker and exited 0.
#[test]
fn thread_counts_past_the_cap_are_named_errors() {
    let sweep = ["sweep", "--protocol", "alead", "--n", "4", "--trials", "1"];
    let cases: [(Vec<&str>, &str); 2] = [
        (
            [&sweep[..], &["--threads", "1025"]].concat(),
            "\"threads\" must be at most 1024",
        ),
        (
            [&["--threads", "1025"], &sweep[..]].concat(),
            "--threads must be at most 1024",
        ),
    ];
    for (args, needle) in cases {
        assert_named_error(&args, needle);
    }
}

/// The timed clock saturates at `u64::MAX`, and tied arrivals pop in send
/// order. So `--latency uniform:0:18446744073709551615` once "elected" 88
/// of these 200 trials, which `uniform:0:1000` deadlocks, and a crash at
/// `u64::MAX` ns that recovers `u64::MAX` ns later undid itself at once.
/// Both exited 0. Each must be an exit-2 error naming the limit.
#[test]
fn saturating_clock_specs_are_named_errors() {
    let max = "18446744073709551615";
    let (uniform, constant) = (format!("uniform:0:{max}"), format!("const:{max}"));
    let crash = format!("1@{max}ns");
    let phase = ["sweep", "--protocol", "phase", "--n", "64"];
    let phase = [&phase[..], &["--trials", "200", "--seed", "1"]].concat();
    let recover = ["--crash", &crash, "--recover", max];
    let clock = "the limit is 264913820655573 ns";
    let cases: [(Vec<&str>, &str); 3] = [
        ([&phase[..], &["--latency", &uniform]].concat(), clock),
        (
            [&phase[..], &["--latency", &constant], &recover].concat(),
            clock,
        ),
        (
            [&phase[..], &["--latency", "const:500"], &recover].concat(),
            "their sum must be at most 18446744073709551615",
        ),
    ];
    for (args, needle) in cases {
        assert_named_error(&args, needle);
    }
}

/// Runs `fle_lab` with `args` under an address-space cap of `cap_kib`
/// KiB (`ulimit -v`), asserts exit 0, and returns the sha256 of stdout.
fn capped_run_sha(cap_kib: u64, args: &[&str]) -> String {
    let out = fle_lab(Some(cap_kib), args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    fle_harness::sha256_hex(&out.stdout)
}

/// A phase lane held about 32·n² bytes (its 16·n² store and a payload
/// slot for each of the run's 2·n² sends) and `validate` admits 1,024
/// lanes, so a lockstep group could pass every check and then fail to
/// allocate: 256 lanes at n = 256 (537 MB) aborted under `ulimit -v
/// 400000` with exit 134, "memory allocation … failed". The width now
/// drops until the lanes fit the lane-memory ceiling (244 lanes of about
/// 16·n² bytes each, the payload ring holding only the groups in flight),
/// and the report is the `--batch 1` report byte for byte (each hash is
/// of that stdout). The timed variant, one constant latency with
/// recovering crashes, runs in lanes too and must fit the same ceiling.
#[test]
fn lane_memory_fits_the_ceiling_with_width_one_bytes() {
    let lanes = "sweep --protocol phase --n 256 --trials 256 --batch 256 --threads 1 --seed 1";
    let timed = "--latency const:500 --crash 1@40000000ns --recover 500";
    let cases = [
        (
            lanes.to_string(),
            "2418ce702de74180a2e01e18757df9bc624144c39a06108febd0b5fd3c8f0f26",
        ),
        (
            format!("{lanes} {timed}"),
            "f966fa1d210c070e5ec5b7f03073d41aeebe8ced2ec4c69dd0e676f016ce9bbd",
        ),
    ];
    for (args, sha) in cases {
        let args: Vec<&str> = args.split(' ').collect();
        assert_eq!(capped_run_sha(400_000, &args), sha, "{args:?}");
    }
}

/// A sweep once held one result slot per trial until the run ended
/// (about 46 bytes each), so its memory grew with `--trials`: this
/// 2,000,000-trial sweep aborted under `ulimit -v 40000` with exit 134,
/// "memory allocation of 96000000 bytes failed". Workers now record each
/// trial into their partial as it ends, and the capped run prints the
/// uncapped run's bytes. One thread keeps the cap meaningful: every
/// extra thread reserves address space for its stack.
#[test]
fn sweep_memory_is_flat_in_the_trial_count() {
    let args: Vec<&str> = "sweep --protocol alead --n 4 --trials 2000000 --threads 1 --seed 1"
        .split(' ')
        .collect();
    let uncapped = fle_lab(None, &args);
    assert_eq!(uncapped.status.code(), Some(0));
    let sha = capped_run_sha(40_000, &args);
    assert_eq!(sha, fle_harness::sha256_hex(&uncapped.stdout));
    assert_eq!(
        sha,
        "35e68d82b61bcdeb9e4d58758e5591b96f7a602fa1d1900696b034668f252581"
    );
}

/// A shard partial whose `wins` wrap around to exactly its 10 covered
/// trials passed the outcome-count check: `merge-reports` printed
/// `"elected":10` beside a `wins[0]` of `u64::MAX` and exited 0, and a
/// debug build panicked. Wrapping outcome and histogram counts must be
/// exit-2 errors naming the field.
#[test]
fn wrapping_partial_counts_are_named_errors() {
    let shard = Command::new(env!("CARGO_BIN_EXE_fle_lab"))
        .args(["sweep", "--protocol", "basic", "--n", "8", "--trials", "10"])
        .args(["--seed", "3", "--shard", "0/1"])
        .output()
        .expect("spawn fle_lab");
    assert!(shard.status.success(), "shard run failed");
    let partial = String::from_utf8(shard.stdout).expect("UTF-8 partial");
    let wins_at = partial.find("\"wins\":[").expect("wins field");
    let wins_end = wins_at + partial[wins_at..].find(']').expect("wins end") + 1;
    let wrapped_wins = format!(
        "{}\"wins\":[18446744073709551615,11,0,0,0,0,0,0]{}",
        &partial[..wins_at],
        &partial[wins_end..]
    );
    // Basic-LEAD on n = 8 sends 64 messages in every trial.
    let wrapped_messages = partial.replacen(
        "\"messages\":[[64,10]]",
        "\"messages\":[[64,18446744073709551615],[65,11]]",
        1,
    );
    assert_ne!(
        wrapped_messages, partial,
        "messages histogram changed shape"
    );
    for (name, contents, needle) in [
        ("wrapped_wins", wrapped_wins, "\"wins\" counts overflow"),
        (
            "wrapped_messages",
            wrapped_messages,
            "\"messages\" counts overflow",
        ),
    ] {
        let file = TempFile::new(name, &contents);
        assert_named_error(&["merge-reports", file.as_str()], needle);
    }
}
