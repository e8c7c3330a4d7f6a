//! `fle_lab` — run the reproduction experiments and harness sweeps.
//!
//! ```text
//! fle_lab all                      # every experiment, full sizes
//! fle_lab t42 t61 --quick          # selected experiments, smoke sizes
//! fle_lab --list                   # show the registry
//! fle_lab --threads 4 all          # cap the worker pool for everything
//! fle_lab sweep --protocol phase --n 64 --trials 10000 --seed 1 \
//!         --threads 8 --format json
//! fle_lab attack-sweep --attack rushing --n 16 --trials 500 --seed 1 \
//!         --coalition spaced:4:1 --target fixed:3 --format json
//! fle_lab attack-sweep --spec scenario.json   # any SweepSpec JSON file
//! fle_lab sweep ... --checkpoint state.json --checkpoint-every 1000
//! fle_lab sweep ... --shard 0/4 > part0.json  # one shard of the range
//! fle_lab merge-reports part0.json part1.json part2.json part3.json
//! fle_lab sweep ... --batch 8                 # lockstep-batched honest path
//! fle_lab sweep ... --crash 2 --recover 512   # crash-fault injection
//! ```
//!
//! The `sweep` subcommand runs one deterministic honest `fle-harness`
//! batch and prints the aggregated [`fle_harness::TrialReport`] as JSON
//! (default) or CSV on stdout. The `attack-sweep` subcommand does the
//! same for adversarial (and tree-dictator) grids: configure the attack
//! with flags or load any serialized [`fle_harness::SweepSpec`] with
//! `--spec`; reports carry an `attack` arm (successes, infeasible
//! trials, success rate with Wilson 95% CI). Output is byte-identical
//! for every `--threads` value.
//!
//! Both sweep subcommands are crash-safe: `--checkpoint FILE` snapshots
//! the accumulated [`fle_harness::ReportPartial`] atomically every
//! `--checkpoint-every` trials, and rerunning the identical command after
//! a crash (SIGKILL included) resumes past the recorded prefix — the
//! final bytes match the uninterrupted run exactly. `--shard I/K` runs
//! only the I-th of K slices of the trial index space and prints the
//! partial report instead; `merge-reports` folds such partials (any
//! order, any K) back into the byte-identical monolithic report.

use fle_attacks::AttackKind;
use fle_experiments::{find, EXPERIMENTS};
use fle_harness::{
    run_sweep_checkpointed, run_sweep_partial, set_default_threads, AttackSweep, BatchConfig,
    CoalitionSpec, CrashInstant, FaultSpec, FnKeySpec, HonestSweep, LatencySpec, ProtocolKind,
    ReportPartial, ScheduleSpec, SeedMode, SweepSpec, TargetSpec,
};

fn print_registry() {
    eprintln!("experiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<5} {}", e.id, e.description);
    }
    eprintln!(
        "\nusage:\n  fle_lab <id>.. | all [--quick] [--threads N]\n\
         \x20       run experiments by id (see the registry above)\n\
         \x20 fle_lab --list\n\
         \x20       print this registry\n\
         \x20 fle_lab sweep --protocol <basic|alead|phase|phasesum> --n <N>\n\
         \x20       [--trials N] [--seed N] [--threads N] [--fn-key N] [--batch K]\n\
         \x20       [--format json|csv]\n\
         \x20       [--latency <dist>] [--loss PERMILLE] [--dup PERMILLE]\n\
         \x20       [--crash COUNT[@BOUND[ns]]] [--recover DELAY]\n\
         \x20       [--checkpoint FILE [--checkpoint-every N]] [--shard I/K]\n\
         \x20       one deterministic honest batch; report on stdout\n\
         \x20 fle_lab attack-sweep --attack <kind> --n <N> --coalition <placement>\n\
         \x20       [--trials N] [--seed N] [--threads N] [--target <policy>]\n\
         \x20       [--fn-key N | --fn-key-xor MASK] [--seed-mode derived|raw]\n\
         \x20       [--latency <dist>] [--loss PERMILLE] [--dup PERMILLE]\n\
         \x20       [--crash COUNT[@BOUND[ns]]] [--recover DELAY]\n\
         \x20       [--checkpoint FILE [--checkpoint-every N]] [--shard I/K]\n\
         \x20       [--format json|csv]\n\
         \x20 fle_lab attack-sweep --spec FILE.json [--threads N] [--format json|csv]\n\
         \x20       one adversarial batch; the report's attack arm carries\n\
         \x20       successes, infeasible trials and the Wilson 95% CI\n\
         \x20 fle_lab merge-reports PART.json.. [--format json|csv]\n\
         \x20       fold `--shard` partial reports into the monolithic report\n\
         \x20     <kind>: basic_single | rushing | cubic | random_located | phase_rushing |\n\
         \x20             phase_guess | phase_burst | phase_sum | wakeup_id_lie | wakeup_mask\n\
         \x20     <placement>: spaced:K[:OFFSET] | consecutive:K[:START] | explicit:P1,P2,..\n\
         \x20             | random:K:SEED | cubic | single:POS\n\
         \x20     <policy>: fixed:V | seedprod:M   (target leader per trial)\n\
         \x20     <dist>: const:NS | uniform:LO:HI | twopoint:LO:HI:PERMILLE   (ns draws;\n\
         \x20             any of --latency/--loss/--dup selects the timed scheduler)\n\
         \x20     --crash COUNT[@BOUND[ns]]: COUNT nodes crash-stop per trial at\n\
         \x20             instants drawn uniformly below BOUND (deliveries, or\n\
         \x20             virtual ns with the ns suffix on timed schedules;\n\
         \x20             default 2n\u{b2} deliveries); --recover DELAY restarts each\n\
         \x20             crashed node DELAY window-units later"
    );
}

fn usage() -> ! {
    print_registry();
    std::process::exit(2);
}

fn parse_arg<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    let Some(raw) = args.get(i) else {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value '{raw}' for {flag}");
        std::process::exit(2);
    })
}

/// Validates an output format up front — a typo must not cost a full
/// multi-minute sweep.
fn check_format(format: &str) {
    if format != "json" && format != "csv" {
        eprintln!("unknown format '{format}' (expected json | csv)");
        std::process::exit(2);
    }
}

/// Prints `report` in the requested (pre-validated) format.
fn emit_report(report: &fle_harness::TrialReport, format: &str) {
    match format {
        "json" => println!("{}", report.to_json()),
        "csv" => print!("{}", report.to_csv()),
        _ => unreachable!("format validated before the sweep"),
    }
}

/// Crash-safety flags shared by `sweep` and `attack-sweep`.
struct ResilienceOpts {
    /// `--checkpoint FILE`: snapshot progress atomically and resume from
    /// the file if it already exists.
    checkpoint: Option<String>,
    /// `--checkpoint-every N` trials between snapshots.
    checkpoint_every: u64,
    /// `--shard I/K`: run only slice `I` of `K` and print the partial.
    shard: Option<(u64, u64)>,
}

impl Default for ResilienceOpts {
    fn default() -> Self {
        Self {
            checkpoint: None,
            checkpoint_every: 1_000,
            shard: None,
        }
    }
}

/// Parses a `--shard I/K` slice selector.
fn parse_shard(raw: &str) -> Result<(u64, u64), String> {
    let (i, k) = raw
        .split_once('/')
        .ok_or_else(|| format!("invalid shard '{raw}' (expected I/K, e.g. 0/4)"))?;
    let parse = |s: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|_| format!("invalid number '{s}' in shard '{raw}'"))
    };
    let (i, k) = (parse(i)?, parse(k)?);
    if k == 0 || i >= k {
        return Err(format!("shard '{raw}' out of range (need I < K, K >= 1)"));
    }
    Ok((i, k))
}

/// The trial range shard `i` of `k` covers: proportional slices that
/// partition `0..trials` exactly, every shard within one trial of the
/// others.
fn shard_range(shard: Option<(u64, u64)>, trials: u64) -> (u64, u64) {
    match shard {
        Some((i, k)) => (
            (i as u128 * trials as u128 / k as u128) as u64,
            ((i + 1) as u128 * trials as u128 / k as u128) as u64,
        ),
        None => (0, trials),
    }
}

/// Runs a validated spec honouring the crash-safety flags and prints the
/// result: the aggregated report normally, the shard's mergeable
/// [`ReportPartial`] under `--shard`. A completed run deletes its
/// checkpoint file (the output it protected has been emitted). Returns
/// `(protocol label, n, trials run)` for the caller's status line.
fn execute_sweep(spec: &SweepSpec, format: &str, opts: &ResilienceOpts) -> (String, usize, u64) {
    let fail = |e: String| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    if opts.shard.is_some() && format != "json" {
        fail(
            "--shard prints a mergeable partial report, which is JSON-only (drop --format csv)"
                .to_string(),
        );
    }
    let (lo, hi) = shard_range(opts.shard, spec.batch().trials);
    let partial = match &opts.checkpoint {
        Some(raw) => {
            let run = run_sweep_checkpointed(
                spec,
                std::path::Path::new(raw),
                opts.checkpoint_every,
                lo,
                hi,
            )
            .unwrap_or_else(|e| fail(e));
            if let Some(at) = run.resumed_from {
                eprintln!("  [sweep resumed from trial {at}]");
            }
            run.partial
        }
        None => run_sweep_partial(spec, lo, hi).unwrap_or_else(|e| fail(e)),
    };
    let label = partial.protocol().to_string();
    let (n, ran) = (partial.n(), partial.covered());
    if opts.shard.is_some() {
        println!("{}", partial.to_json());
    } else {
        let report = partial
            .finish()
            .expect("full-range partial always finishes");
        emit_report(&report, format);
    }
    if let Some(raw) = &opts.checkpoint {
        // The protected output has been emitted; the snapshot is spent.
        // A `.tmp` sibling from an interrupted atomic write is stale the
        // same moment, so it goes too.
        let _ = std::fs::remove_file(raw);
        let _ = std::fs::remove_file(format!("{raw}.tmp"));
    }
    (label, n, ran)
}

/// `merge-reports PART.json.. [--format json|csv]`: folds `--shard`
/// partial-report files into the byte-identical monolithic report.
fn run_merge_reports(args: &[String]) {
    let fail = |e: String| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let mut format = String::from("json");
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" | "-f" => {
                format = parse_arg(args, i + 1, "--format");
                i += 2;
            }
            flag if flag.starts_with('-') => fail(format!(
                "unknown flag '{flag}' for subcommand 'merge-reports'"
            )),
            file => {
                files.push(file.to_string());
                i += 1;
            }
        }
    }
    check_format(&format);
    if files.is_empty() {
        fail("merge-reports needs at least one partial-report file".to_string());
    }
    let mut merged: Option<ReportPartial> = None;
    for path in &files {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
        let partial =
            ReportPartial::parse_json(&src).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        match &mut merged {
            None => merged = Some(partial),
            Some(acc) => acc
                .merge(&partial)
                .unwrap_or_else(|e| fail(format!("{path}: {e}"))),
        }
    }
    let merged = merged.expect("at least one file parsed");
    let report = merged.finish().unwrap_or_else(|e| fail(e));
    emit_report(&report, &format);
    eprintln!(
        "  [merge-reports {} n={} trials={} from {} partials]",
        report.protocol,
        report.n,
        report.trials,
        files.len()
    );
}

fn run_sweep_cli(args: &[String]) {
    let mut protocol: Option<ProtocolKind> = None;
    let mut n: usize = 0;
    let mut batch = BatchConfig {
        trials: 10_000,
        base_seed: 0,
        threads: 0,
    };
    let mut fn_key = 0u64;
    let mut batch_width = 0usize;
    let mut format = String::from("json");
    let mut latency: Option<LatencySpec> = None;
    let mut loss: Option<u32> = None;
    let mut dup: Option<u32> = None;
    let mut crash: Option<(u64, Option<CrashInstant>)> = None;
    let mut recover: Option<u64> = None;
    let mut opts = ResilienceOpts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--checkpoint" => {
                opts.checkpoint = Some(parse_arg(args, i + 1, "--checkpoint"));
                i += 2;
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = parse_arg(args, i + 1, "--checkpoint-every");
                i += 2;
            }
            "--shard" => {
                let raw: String = parse_arg(args, i + 1, "--shard");
                opts.shard = Some(parse_shard(&raw).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--latency" => {
                let raw: String = parse_arg(args, i + 1, "--latency");
                latency = Some(parse_latency(&raw).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--loss" => {
                loss = Some(parse_arg(args, i + 1, "--loss"));
                i += 2;
            }
            "--dup" => {
                dup = Some(parse_arg(args, i + 1, "--dup"));
                i += 2;
            }
            "--crash" => {
                let raw: String = parse_arg(args, i + 1, "--crash");
                crash = Some(parse_crash(&raw).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--recover" => {
                recover = Some(parse_arg(args, i + 1, "--recover"));
                i += 2;
            }
            "--protocol" | "-p" => {
                let spec: String = parse_arg(args, i + 1, "--protocol");
                match spec.parse() {
                    Ok(p) => protocol = Some(p),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--n" | "-n" => {
                n = parse_arg(args, i + 1, "--n");
                i += 2;
            }
            "--trials" | "-t" => {
                batch.trials = parse_arg(args, i + 1, "--trials");
                i += 2;
            }
            "--seed" | "-s" => {
                batch.base_seed = parse_arg(args, i + 1, "--seed");
                i += 2;
            }
            "--threads" | "-j" => {
                batch.threads = parse_arg(args, i + 1, "--threads");
                i += 2;
            }
            "--fn-key" => {
                fn_key = parse_arg(args, i + 1, "--fn-key");
                i += 2;
            }
            "--batch" | "-b" => {
                batch_width = parse_arg(args, i + 1, "--batch");
                i += 2;
            }
            "--format" | "-f" => {
                format = parse_arg(args, i + 1, "--format");
                i += 2;
            }
            other => {
                eprintln!("unknown flag '{other}' for subcommand 'sweep'");
                std::process::exit(2);
            }
        }
    }
    let Some(protocol) = protocol else {
        eprintln!("sweep needs --protocol");
        std::process::exit(2);
    };
    if n == 0 {
        eprintln!("sweep needs --n");
        std::process::exit(2);
    }
    check_format(&format);
    let schedule = schedule_from_flags(latency, loss, dup);
    let fault = fault_from_flags(
        crash,
        recover,
        n,
        matches!(schedule, ScheduleSpec::Timed { .. }),
    );
    let spec = SweepSpec::Honest(HonestSweep {
        protocol,
        n,
        fn_key,
        batch,
        batch_width,
        schedule,
        fault,
    });
    if let Err(e) = spec.validate() {
        eprintln!("invalid sweep spec: {e}");
        std::process::exit(2);
    }
    let start = std::time::Instant::now();
    let (label, n, ran) = execute_sweep(&spec, &format, &opts);
    eprintln!(
        "  [sweep {} n={} trials={} threads={}: {:.1?}]",
        label,
        n,
        ran,
        batch.resolved_threads(),
        start.elapsed()
    );
}

/// Parses an `attack-sweep --coalition` placement:
/// `spaced:K[:OFFSET]`, `consecutive:K[:START]`, `explicit:P1,P2,..`,
/// `random:K:SEED`, `cubic`, `single:POS`.
fn parse_coalition(raw: &str) -> Result<CoalitionSpec, String> {
    let mut parts = raw.split(':');
    let head = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let int = |s: &str, what: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("invalid {what} '{s}' in coalition '{raw}'"))
    };
    match (head, rest.as_slice()) {
        ("spaced", [k]) => Ok(CoalitionSpec::EquallySpaced {
            k: int(k, "k")?,
            offset: 1,
        }),
        ("spaced", [k, offset]) => Ok(CoalitionSpec::EquallySpaced {
            k: int(k, "k")?,
            offset: int(offset, "offset")?,
        }),
        ("consecutive", [k]) => Ok(CoalitionSpec::Contiguous {
            k: int(k, "k")?,
            start: 0,
        }),
        ("consecutive", [k, start]) => Ok(CoalitionSpec::Contiguous {
            k: int(k, "k")?,
            start: int(start, "start")?,
        }),
        ("explicit", [list]) => Ok(CoalitionSpec::Explicit {
            positions: list
                .split(',')
                .map(|p| int(p, "position"))
                .collect::<Result<_, _>>()?,
        }),
        ("random", [k, seed]) => Ok(CoalitionSpec::RandomLocated {
            k: int(k, "k")?,
            layout_seed: int(seed, "seed")? as u64,
        }),
        ("cubic", []) => Ok(CoalitionSpec::Cubic),
        ("single", [pos]) => Ok(CoalitionSpec::Single {
            position: int(pos, "position")?,
        }),
        _ => Err(format!(
            "unknown coalition placement '{raw}' (expected spaced:K[:OFFSET] | \
             consecutive:K[:START] | explicit:P1,P2,.. | random:K:SEED | cubic | single:POS)"
        )),
    }
}

/// Parses an `attack-sweep --target` policy: `fixed:V` or `seedprod:M`.
fn parse_target(raw: &str) -> Result<TargetSpec, String> {
    let (head, value) = raw.split_once(':').unwrap_or((raw, ""));
    let v: u64 = value
        .parse()
        .map_err(|_| format!("invalid value '{value}' in target '{raw}'"))?;
    match head {
        "fixed" => Ok(TargetSpec::Fixed(v)),
        "seedprod" => Ok(TargetSpec::SeedProduct { multiplier: v }),
        _ => Err(format!(
            "unknown target policy '{raw}' (expected fixed:V | seedprod:M)"
        )),
    }
}

/// Parses a `--latency` distribution: `const:NS`, `uniform:LO:HI` or
/// `twopoint:LO:HI:PERMILLE` (all values in nanoseconds of virtual time,
/// the permille being the probability of the `hi` draw).
fn parse_latency(raw: &str) -> Result<LatencySpec, String> {
    let mut parts = raw.split(':');
    let head = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let int = |s: &str, what: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|_| format!("invalid {what} '{s}' in latency '{raw}'"))
    };
    match (head, rest.as_slice()) {
        ("const", [ns]) => Ok(LatencySpec::Constant { ns: int(ns, "ns")? }),
        ("uniform", [lo, hi]) => Ok(LatencySpec::Uniform {
            lo: int(lo, "lo")?,
            hi: int(hi, "hi")?,
        }),
        ("twopoint", [lo, hi, permille]) => Ok(LatencySpec::TwoPoint {
            lo: int(lo, "lo")?,
            hi: int(hi, "hi")?,
            hi_permille: u32::try_from(int(permille, "permille")?)
                .map_err(|_| format!("permille out of range in latency '{raw}'"))?,
        }),
        _ => Err(format!(
            "unknown latency distribution '{raw}' (expected const:NS | uniform:LO:HI | \
             twopoint:LO:HI:PERMILLE)"
        )),
    }
}

/// Parses a `--crash COUNT[@BOUND[ns]]` fault selector: COUNT nodes
/// crash per trial at instants drawn uniformly in `[0, BOUND)` — a
/// delivery-count bound by default, virtual nanoseconds with an `ns`
/// suffix (timed schedules only). With no `@BOUND` the window defaults
/// to the honest workload's nominal length, 2n² deliveries (fifo only;
/// timed schedules need an explicit `@BOUNDns`).
fn parse_crash(raw: &str) -> Result<(u64, Option<CrashInstant>), String> {
    let (count, bound) = match raw.split_once('@') {
        None => (raw, None),
        Some((count, bound)) => (count, Some(bound)),
    };
    let crashes: u64 = count
        .parse()
        .map_err(|_| format!("invalid crash count '{count}' in --crash '{raw}'"))?;
    let window = match bound {
        None => None,
        Some(b) => Some(match b.strip_suffix("ns") {
            Some(t) => CrashInstant::VirtualNs(
                t.parse()
                    .map_err(|_| format!("invalid virtual-time bound '{b}' in --crash '{raw}'"))?,
            ),
            None => CrashInstant::Deliveries(
                b.parse()
                    .map_err(|_| format!("invalid delivery bound '{b}' in --crash '{raw}'"))?,
            ),
        }),
    };
    Ok((crashes, window))
}

/// Folds the `--crash`/`--recover` flags into a [`FaultSpec`], filling
/// in the default fifo window (2n² deliveries, the nominal honest
/// workload length) when `--crash` gave no explicit `@BOUND`. Timed
/// schedules have no delivery clock, so they require the explicit
/// `@BOUNDns` form.
fn fault_from_flags(
    crash: Option<(u64, Option<CrashInstant>)>,
    recover: Option<u64>,
    n: usize,
    timed: bool,
) -> Option<FaultSpec> {
    let Some((crashes, window)) = crash else {
        if recover.is_some() {
            eprintln!("--recover needs --crash");
            std::process::exit(2);
        }
        return None;
    };
    let window = window.unwrap_or_else(|| {
        if timed {
            eprintln!(
                "--crash on a timed schedule needs an explicit virtual-time window \
                 (--crash COUNT@BOUNDns)"
            );
            std::process::exit(2);
        }
        CrashInstant::Deliveries(2 * (n as u64) * (n as u64))
    });
    Some(FaultSpec {
        crashes,
        window,
        recover,
    })
}

/// Folds the three timed-network flags into a [`ScheduleSpec`]: all
/// absent → the FIFO fast path; any present → the timed scheduler with
/// zero defaults for the rest.
fn schedule_from_flags(
    latency: Option<LatencySpec>,
    loss: Option<u32>,
    dup: Option<u32>,
) -> ScheduleSpec {
    if latency.is_none() && loss.is_none() && dup.is_none() {
        ScheduleSpec::Fifo
    } else {
        ScheduleSpec::Timed {
            latency: latency.unwrap_or(LatencySpec::ZERO),
            loss_permille: loss.unwrap_or(0),
            dup_permille: dup.unwrap_or(0),
        }
    }
}

fn run_attack_sweep_cli(args: &[String]) {
    let mut spec_path: Option<String> = None;
    let mut attack: Option<AttackKind> = None;
    let mut n: usize = 0;
    let mut batch = BatchConfig {
        trials: 1_000,
        base_seed: 0,
        threads: 0,
    };
    let mut threads_override: Option<usize> = None;
    let mut fn_key = FnKeySpec::Fixed(0);
    let mut coalition: Option<CoalitionSpec> = None;
    let mut target = TargetSpec::Fixed(0);
    let mut seed_mode = SeedMode::Derived;
    let mut format = String::from("json");
    let mut latency: Option<LatencySpec> = None;
    let mut loss: Option<u32> = None;
    let mut dup: Option<u32> = None;
    let mut crash: Option<(u64, Option<CrashInstant>)> = None;
    let mut recover: Option<u64> = None;
    let mut opts = ResilienceOpts::default();
    let fail = |e: String| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--checkpoint" => {
                opts.checkpoint = Some(parse_arg(args, i + 1, "--checkpoint"));
                i += 2;
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = parse_arg(args, i + 1, "--checkpoint-every");
                i += 2;
            }
            "--shard" => {
                let raw: String = parse_arg(args, i + 1, "--shard");
                opts.shard = Some(parse_shard(&raw).unwrap_or_else(|e| fail(e)));
                i += 2;
            }
            "--latency" => {
                let raw: String = parse_arg(args, i + 1, "--latency");
                latency = Some(parse_latency(&raw).unwrap_or_else(|e| fail(e)));
                i += 2;
            }
            "--loss" => {
                loss = Some(parse_arg(args, i + 1, "--loss"));
                i += 2;
            }
            "--dup" => {
                dup = Some(parse_arg(args, i + 1, "--dup"));
                i += 2;
            }
            "--crash" => {
                let raw: String = parse_arg(args, i + 1, "--crash");
                crash = Some(parse_crash(&raw).unwrap_or_else(|e| fail(e)));
                i += 2;
            }
            "--recover" => {
                recover = Some(parse_arg(args, i + 1, "--recover"));
                i += 2;
            }
            "--spec" => {
                spec_path = Some(parse_arg(args, i + 1, "--spec"));
                i += 2;
            }
            "--attack" | "-a" => {
                let raw: String = parse_arg(args, i + 1, "--attack");
                attack = Some(raw.parse().unwrap_or_else(|e| fail(e)));
                i += 2;
            }
            "--n" | "-n" => {
                n = parse_arg(args, i + 1, "--n");
                i += 2;
            }
            "--trials" | "-t" => {
                batch.trials = parse_arg(args, i + 1, "--trials");
                i += 2;
            }
            "--seed" | "-s" => {
                batch.base_seed = parse_arg(args, i + 1, "--seed");
                i += 2;
            }
            "--threads" | "-j" => {
                let t: usize = parse_arg(args, i + 1, "--threads");
                batch.threads = t;
                threads_override = Some(t);
                i += 2;
            }
            "--fn-key" => {
                fn_key = FnKeySpec::Fixed(parse_arg(args, i + 1, "--fn-key"));
                i += 2;
            }
            "--fn-key-xor" => {
                fn_key = FnKeySpec::SeedXor(parse_arg(args, i + 1, "--fn-key-xor"));
                i += 2;
            }
            "--coalition" | "-c" => {
                let raw: String = parse_arg(args, i + 1, "--coalition");
                coalition = Some(parse_coalition(&raw).unwrap_or_else(|e| fail(e)));
                i += 2;
            }
            "--target" | "-w" => {
                let raw: String = parse_arg(args, i + 1, "--target");
                target = parse_target(&raw).unwrap_or_else(|e| fail(e));
                i += 2;
            }
            "--seed-mode" => {
                let raw: String = parse_arg(args, i + 1, "--seed-mode");
                seed_mode = match raw.as_str() {
                    "derived" => SeedMode::Derived,
                    "raw" => SeedMode::RawIndex,
                    _ => fail(format!(
                        "unknown seed mode '{raw}' (expected derived | raw)"
                    )),
                };
                i += 2;
            }
            "--format" | "-f" => {
                format = parse_arg(args, i + 1, "--format");
                i += 2;
            }
            other => {
                eprintln!("unknown flag '{other}' for subcommand 'attack-sweep'");
                std::process::exit(2);
            }
        }
    }
    check_format(&format);
    let spec = if let Some(path) = spec_path {
        if crash.is_some() || recover.is_some() {
            fail("--crash/--recover apply to flag-built sweeps; put a \"fault\" key in the spec file instead".to_string());
        }
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        let mut spec = SweepSpec::parse_json(&src).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        // CLI-level overrides apply on top of the file.
        if let Some(t) = threads_override {
            match &mut spec {
                SweepSpec::Honest(h) => h.batch.threads = t,
                SweepSpec::Attack(a) => a.batch.threads = t,
                SweepSpec::TreeDictator(d) => d.batch.threads = t,
            }
        }
        spec
    } else {
        let Some(attack) = attack else {
            eprintln!("attack-sweep needs --attack (or --spec FILE.json)");
            std::process::exit(2);
        };
        if n == 0 {
            eprintln!("attack-sweep needs --n");
            std::process::exit(2);
        }
        let Some(coalition) = coalition else {
            eprintln!("attack-sweep needs --coalition");
            std::process::exit(2);
        };
        let schedule = schedule_from_flags(latency, loss, dup);
        let fault = fault_from_flags(
            crash,
            recover,
            n,
            matches!(schedule, ScheduleSpec::Timed { .. }),
        );
        SweepSpec::Attack(AttackSweep {
            attack,
            n,
            fn_key,
            batch,
            coalition,
            target,
            seed_mode,
            schedule,
            fault,
        })
    };
    if let Err(e) = spec.validate() {
        eprintln!("invalid sweep spec: {e}");
        std::process::exit(2);
    }
    let start = std::time::Instant::now();
    let (label, n, ran) = execute_sweep(&spec, &format, &opts);
    eprintln!(
        "  [attack-sweep {label} n={n} trials={ran}: {:.1?}]",
        start.elapsed()
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("merge-reports") {
        run_merge_reports(&args[1..]);
        return;
    }

    // `sweep` and `attack-sweep` are subcommands with their own flags;
    // recognize them before or after the global `--threads N` pair so
    // both orderings work.
    let sub_pos = args
        .iter()
        .position(|a| a == "sweep" || a == "attack-sweep")
        .filter(|&pos| pos == 0 || (pos == 2 && (args[0] == "--threads" || args[0] == "-j")));
    if let Some(pos) = sub_pos {
        if pos == 2 {
            let threads: usize = parse_arg(&args, 1, "--threads");
            set_default_threads(threads);
        }
        if args[pos] == "sweep" {
            run_sweep_cli(&args[pos + 1..]);
        } else {
            run_attack_sweep_cli(&args[pos + 1..]);
        }
        return;
    }

    // Global `--threads N` (applies to every experiment's worker pool).
    if let Some(pos) = args.iter().position(|a| a == "--threads" || a == "-j") {
        let threads: usize = parse_arg(&args, pos + 1, "--threads");
        set_default_threads(threads);
        args.drain(pos..pos + 2);
    }

    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let list = args.iter().any(|a| a == "--list" || a == "-l");
    let unknown_flags: Vec<&String> = args
        .iter()
        .filter(|a| a.starts_with('-') && !["--quick", "-q", "--list", "-l"].contains(&a.as_str()))
        .collect();
    if !unknown_flags.is_empty() {
        eprintln!(
            "unknown flag '{}' for the experiment runner",
            unknown_flags[0]
        );
        usage();
    }
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();

    if list || ids.is_empty() {
        if !list {
            usage();
        }
        print_registry();
        return;
    }

    let selected: Vec<&fle_experiments::Experiment> = if ids.iter().any(|id| id.as_str() == "all") {
        EXPERIMENTS.iter().collect()
    } else {
        ids.iter()
            .map(|id| {
                find(id).unwrap_or_else(|| {
                    eprintln!("unknown experiment '{id}' (try --list)");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    for e in selected {
        eprintln!("# {} — {}", e.id, e.description);
        let start = std::time::Instant::now();
        for table in (e.run)(quick) {
            println!("{table}");
        }
        eprintln!("  [{}: {:.1?}]\n", e.id, start.elapsed());
    }
}
