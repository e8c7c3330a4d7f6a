//! `fle_lab` — run the reproduction experiments and harness sweeps.
//!
//! ```text
//! fle_lab all                      # every experiment, full sizes
//! fle_lab t42 t61 --quick          # selected experiments, smoke sizes
//! fle_lab --list                   # show the registry and every flag
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
//! same for adversarial grids; reports carry an `attack` arm (successes,
//! infeasible trials, success rate with Wilson 95% CI). Output is
//! byte-identical for every `--threads` value.
//!
//! Both subcommands read one flag table, [`FLAGS`]: each flag either sets
//! a field of the [`fle_harness::SweepSpec`] the flags build (the
//! subcommand picks its kind and the default trial count) or changes only
//! how the sweep runs. `--spec FILE` runs any serialized spec under either
//! name instead; run flags still apply, and a spec-field flag beside it
//! is an error, as is a flag of the other sweep kind.
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
    read_input, run_sweep_checkpointed, run_sweep_partial, set_default_threads, AttackSweep,
    BatchConfig, CoalitionSpec, CrashInstant, FaultSpec, FnKeySpec, HonestSweep, LatencySpec,
    ProtocolKind, ReportPartial, ScheduleSpec, SeedMode, SweepSpec, TargetSpec, MAX_THREADS,
};
use std::path::Path;
use std::str::FromStr;

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
         \x20 fle_lab sweep FLAG VALUE..\n\
         \x20       one deterministic honest batch; report on stdout\n\
         \x20 fle_lab attack-sweep FLAG VALUE..\n\
         \x20       one adversarial batch; the report's attack arm carries\n\
         \x20       successes, infeasible trials and the Wilson 95% CI\n\
         \x20 fle_lab merge-reports PART.json.. [--format json|csv]\n\
         \x20       fold `--shard` partial reports into the monolithic report\n\
         \nsweep flags, one table for both subcommands. SETS is `run` for flags that\n\
         change how the sweep runs (never the report), else the subcommand(s) whose\n\
         spec has the field; next to --spec FILE only run flags are allowed:\n\
         \x20 {:<42} {:<12} DEFAULT",
        "FLAG VALUE", "SETS"
    );
    for flag in FLAGS {
        let spelled = format!("{} {}", flag.names.join(", "), flag.value);
        eprintln!("  {spelled:<42} {:<12} {}", flag.class.name(), flag.default);
    }
    eprintln!(
        "  <kind>: basic_single | rushing | cubic | random_located | phase_rushing |\n\
         \x20         phase_guess | phase_burst | phase_sum | wakeup_id_lie | wakeup_mask\n\
         \x20 <placement>: spaced:K[:OFFSET] | consecutive:K[:START] | explicit:P1,P2,..\n\
         \x20             | random:K:SEED | cubic | single:POS\n\
         \x20 <dist>: const:NS | uniform:LO:HI | twopoint:LO:HI:PERMILLE   (ns draws;\n\
         \x20         any of --latency/--loss/--dup selects the timed scheduler)\n\
         \x20 --crash COUNT[@BOUND[ns]]: COUNT nodes crash-stop per trial at instants\n\
         \x20         drawn uniformly below BOUND (deliveries, or virtual ns with the\n\
         \x20         ns suffix on timed schedules; default 2n\u{b2} deliveries);\n\
         \x20         --recover DELAY restarts each crashed node DELAY window-units later"
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

/// Parses the global `--threads N` (or `-j N`) value at `args[i]` and makes
/// it the process-wide default worker count; more than [`MAX_THREADS`]
/// exits 2.
fn set_global_threads(args: &[String], i: usize) {
    let threads: usize = parse_arg(args, i, "--threads");
    if threads > MAX_THREADS {
        eprintln!("--threads must be at most {MAX_THREADS}, got {threads}");
        std::process::exit(2);
    }
    set_default_threads(threads);
}

/// Validates an output format up front — a typo must not cost a full
/// multi-minute sweep.
fn check_format(format: &str) -> Result<(), String> {
    match format {
        "json" | "csv" => Ok(()),
        _ => Err(format!("unknown format '{format}' (expected json | csv)")),
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

/// What a sweep flag sets.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// How the sweep runs; never the report bytes.
    Run,
    /// A field every spec the flags build has.
    Field,
    /// A field of honest (`sweep`) specs only.
    Honest,
    /// A field of attack (`attack-sweep`) specs only.
    Attack,
}

impl Class {
    /// Who the flag is for, as the usage shows it: `run`, `both`, or the
    /// one subcommand whose spec has the field.
    fn name(self) -> &'static str {
        match self {
            Class::Run => "run",
            Class::Field => "both",
            Class::Honest => "sweep",
            Class::Attack => "attack-sweep",
        }
    }
}

/// One flag of `sweep` and `attack-sweep`.
struct Flag {
    /// The long name, then its short alias, if any.
    names: &'static [&'static str],
    /// The value grammar.
    value: &'static str,
    /// What leaving the flag out means.
    default: &'static str,
    class: Class,
    /// Parses the value into the flags' state.
    set: fn(&mut SweepArgs, Value<'_>) -> Result<(), String>,
}

/// Every flag of `sweep` and `attack-sweep`, in usage order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { names: &["--spec"], value: "FILE", default: "build the spec from flags",
           class: Class::Run, set: |a, v| v.parse().map(|x| a.spec = Some(x)) },
    Flag { names: &["--threads", "-j"], value: "N", default: "0 (one per core)",
           class: Class::Run, set: |a, v| v.parse().map(|x| a.threads = Some(x)) },
    Flag { names: &["--format", "-f"], value: "json|csv", default: "json",
           class: Class::Run, set: |a, v| v.parse().map(|x| a.format = Some(x)) },
    Flag { names: &["--checkpoint"], value: "FILE", default: "none",
           class: Class::Run, set: |a, v| v.parse().map(|x| a.checkpoint = Some(x)) },
    Flag { names: &["--checkpoint-every"], value: "N", default: "1000",
           class: Class::Run, set: |a, v| v.parse().map(|x| a.checkpoint_every = Some(x)) },
    Flag { names: &["--shard"], value: "I/K", default: "the whole range",
           class: Class::Run, set: |a, v| parse_shard(v.raw).map(|x| a.shard = Some(x)) },
    Flag { names: &["--n", "-n"], value: "N", default: "required",
           class: Class::Field, set: |a, v| v.parse().map(|x| a.n = x) },
    Flag { names: &["--trials", "-t"], value: "N", default: "10000 (sweep), 1000 (attack-sweep)",
           class: Class::Field, set: |a, v| v.parse().map(|x| a.trials = Some(x)) },
    Flag { names: &["--seed", "-s"], value: "N", default: "0",
           class: Class::Field, set: |a, v| v.parse().map(|x| a.seed = x) },
    Flag { names: &["--fn-key"], value: "N", default: "0",
           class: Class::Field,
           set: |a, v| v.parse().map(|x| a.fn_key = Some(FnKeySpec::Fixed(x))) },
    Flag { names: &["--latency"], value: "<dist>", default: "FIFO links",
           class: Class::Field, set: |a, v| parse_latency(v.raw).map(|x| a.latency = Some(x)) },
    Flag { names: &["--loss"], value: "PERMILLE", default: "0",
           class: Class::Field, set: |a, v| v.parse().map(|x| a.loss = Some(x)) },
    Flag { names: &["--dup"], value: "PERMILLE", default: "0",
           class: Class::Field, set: |a, v| v.parse().map(|x| a.dup = Some(x)) },
    Flag { names: &["--crash"], value: "COUNT[@BOUND[ns]]", default: "no crashes",
           class: Class::Field, set: |a, v| parse_crash(v.raw).map(|x| a.crash = Some(x)) },
    Flag { names: &["--recover"], value: "DELAY", default: "crash-stop",
           class: Class::Field, set: |a, v| v.parse().map(|x| a.recover = Some(x)) },
    Flag { names: &["--protocol", "-p"], value: "basic|alead|phase|phasesum", default: "required",
           class: Class::Honest, set: |a, v| v.raw.parse().map(|x| a.protocol = Some(x)) },
    Flag { names: &["--batch", "-b"], value: "K", default: "0 (16 lanes; 1 = scalar)",
           class: Class::Honest, set: |a, v| v.parse().map(|x| a.batch_width = x) },
    Flag { names: &["--attack", "-a"], value: "<kind>", default: "required",
           class: Class::Attack, set: |a, v| v.raw.parse().map(|x| a.attack = Some(x)) },
    Flag { names: &["--coalition", "-c"], value: "<placement>", default: "required",
           class: Class::Attack,
           set: |a, v| parse_coalition(v.raw).map(|x| a.coalition = Some(x)) },
    Flag { names: &["--target", "-w"], value: "fixed:V|seedprod:M", default: "fixed:0",
           class: Class::Attack, set: |a, v| parse_target(v.raw).map(|x| a.target = Some(x)) },
    Flag { names: &["--fn-key-xor"], value: "MASK", default: "off (one key, --fn-key)",
           class: Class::Attack,
           set: |a, v| v.parse().map(|x| a.fn_key = Some(FnKeySpec::SeedXor(x))) },
    Flag { names: &["--seed-mode"], value: "derived|raw", default: "derived",
           class: Class::Attack, set: |a, v| parse_seed_mode(v.raw).map(|x| a.seed_mode = x) },
];

/// One flag's value, with the flag's long name for error messages.
#[derive(Clone, Copy)]
struct Value<'a> {
    flag: &'static str,
    raw: &'a str,
}

impl Value<'_> {
    /// The value as a `T`, or an error naming the flag.
    fn parse<T: FromStr>(self) -> Result<T, String> {
        self.raw
            .parse()
            .map_err(|_| format!("invalid value '{}' for {}", self.raw, self.flag))
    }
}

/// The state the sweep flags fill; [`SweepArgs::spec`] turns it into a
/// [`SweepSpec`].
#[derive(Default)]
struct SweepArgs {
    spec: Option<String>,
    threads: Option<usize>,
    format: Option<String>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    shard: Option<(u64, u64)>,
    n: usize,
    trials: Option<u64>,
    seed: u64,
    fn_key: Option<FnKeySpec>,
    latency: Option<LatencySpec>,
    loss: Option<u32>,
    dup: Option<u32>,
    crash: Option<(u64, Option<CrashInstant>)>,
    recover: Option<u64>,
    protocol: Option<ProtocolKind>,
    batch_width: usize,
    attack: Option<AttackKind>,
    coalition: Option<CoalitionSpec>,
    target: Option<TargetSpec>,
    seed_mode: SeedMode,
    /// The first spec-field flag given, as spelled.
    field_flag: Option<String>,
}

impl SweepArgs {
    /// Reads the flags of subcommand `sub` (`sweep` or `attack-sweep`).
    fn parse(sub: &str, args: &[String]) -> Result<Self, String> {
        let mut state = Self::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag = FLAGS
                .iter()
                .find(|f| f.names.contains(&arg.as_str()))
                .ok_or_else(|| format!("unknown flag '{arg}' for subcommand '{sub}'"))?;
            let owner = flag.class.name();
            if matches!(flag.class, Class::Honest | Class::Attack) && owner != sub {
                return Err(format!(
                    "{arg} is a flag of subcommand '{owner}', not '{sub}'"
                ));
            }
            let name = flag.names[0];
            let raw = args.next().ok_or_else(|| format!("{name} needs a value"))?;
            (flag.set)(&mut state, Value { flag: name, raw })?;
            if flag.class != Class::Run {
                state.field_flag.get_or_insert_with(|| arg.clone());
            }
        }
        Ok(state)
    }

    /// The spec to run: the `--spec` file (with `--threads` applied), or
    /// the `sub` kind of spec built from the flags.
    fn spec(&self, sub: &str) -> Result<SweepSpec, String> {
        if let Some(path) = &self.spec {
            if let Some(flag) = &self.field_flag {
                return Err(format!(
                    "{flag} sets a spec field, so it cannot be combined with --spec; \
                     set it in {path} instead"
                ));
            }
            let src = read_input(Path::new(path))?;
            let mut spec = SweepSpec::parse_json(&src).map_err(|e| format!("{path}: {e}"))?;
            if let Some(t) = self.threads {
                match &mut spec {
                    SweepSpec::Honest(h) => h.batch.threads = t,
                    SweepSpec::Attack(a) => a.batch.threads = t,
                    SweepSpec::TreeDictator(d) => d.batch.threads = t,
                }
            }
            return Ok(spec);
        }
        Ok(if sub == "sweep" {
            let protocol = self.protocol.ok_or("sweep needs --protocol")?;
            let (n, batch, schedule, fault) = self.shared_fields(sub, 10_000)?;
            SweepSpec::Honest(HonestSweep {
                protocol,
                n,
                fn_key: match self.fn_key {
                    None => 0,
                    Some(FnKeySpec::Fixed(k)) => k,
                    Some(FnKeySpec::SeedXor(_)) => unreachable!("--fn-key-xor is attack-only"),
                },
                batch,
                batch_width: self.batch_width,
                schedule,
                fault,
            })
        } else {
            let attack = self
                .attack
                .ok_or("attack-sweep needs --attack (or --spec FILE.json)")?;
            let (n, batch, schedule, fault) = self.shared_fields(sub, 1_000)?;
            SweepSpec::Attack(AttackSweep {
                attack,
                n,
                fn_key: self.fn_key.unwrap_or(FnKeySpec::Fixed(0)),
                batch,
                coalition: self
                    .coalition
                    .clone()
                    .ok_or("attack-sweep needs --coalition")?,
                target: self.target.unwrap_or(TargetSpec::Fixed(0)),
                seed_mode: self.seed_mode,
                schedule,
                fault,
            })
        })
    }

    /// The fields both spec kinds have: ring size, batch, schedule and
    /// fault plan.
    fn shared_fields(
        &self,
        sub: &str,
        default_trials: u64,
    ) -> Result<(usize, BatchConfig, ScheduleSpec, Option<FaultSpec>), String> {
        let n = self.n;
        if n == 0 {
            return Err(format!("{sub} needs --n"));
        }
        let batch = BatchConfig {
            trials: self.trials.unwrap_or(default_trials),
            base_seed: self.seed,
            threads: self.threads.unwrap_or(0),
        };
        // Any timed-network flag selects the timed scheduler, with zero
        // defaults for the rest.
        let schedule = if self.latency.is_none() && self.loss.is_none() && self.dup.is_none() {
            ScheduleSpec::Fifo
        } else {
            ScheduleSpec::Timed {
                latency: self.latency.unwrap_or(LatencySpec::ZERO),
                loss_permille: self.loss.unwrap_or(0),
                dup_permille: self.dup.unwrap_or(0),
            }
        };
        let fault = match self.crash {
            None if self.recover.is_some() => return Err("--recover needs --crash".into()),
            None => None,
            Some((crashes, window)) => Some(FaultSpec {
                crashes,
                window: match window {
                    Some(w) => w,
                    // Timed schedules have no delivery clock.
                    None if schedule != ScheduleSpec::Fifo => {
                        return Err("--crash on a timed schedule needs an explicit \
                                    virtual-time window (--crash COUNT@BOUNDns)"
                            .into())
                    }
                    // The honest workload's nominal length, 2n² deliveries.
                    None => {
                        CrashInstant::Deliveries((n as u64).saturating_pow(2).saturating_mul(2))
                    }
                },
                recover: self.recover,
            }),
        };
        Ok((n, batch, schedule, fault))
    }
}

/// `sweep` / `attack-sweep`: reads the flags, builds and validates the
/// spec, runs it and prints the result — the aggregated report normally,
/// the shard's mergeable [`ReportPartial`] under `--shard`. A completed
/// run deletes its checkpoint file (the output it protected has been
/// emitted).
fn run_sweep_subcommand(sub: &str, args: &[String]) -> Result<(), String> {
    let flags = SweepArgs::parse(sub, args)?;
    let format = flags.format.as_deref().unwrap_or("json");
    check_format(format)?;
    let spec = flags.spec(sub)?;
    spec.validate()
        .map_err(|e| format!("invalid sweep spec: {e}"))?;
    if flags.shard.is_some() && format != "json" {
        return Err(
            "--shard prints a mergeable partial report, which is JSON-only (drop --format csv)"
                .into(),
        );
    }
    let start = std::time::Instant::now();
    let (lo, hi) = shard_range(flags.shard, spec.batch().trials);
    let partial = match &flags.checkpoint {
        Some(raw) => {
            let every = flags.checkpoint_every.unwrap_or(1_000);
            let run = run_sweep_checkpointed(&spec, Path::new(raw), every, lo, hi)?;
            if let Some(at) = run.resumed_from {
                eprintln!("  [sweep resumed from trial {at}]");
            }
            run.partial
        }
        None => run_sweep_partial(&spec, lo, hi)?,
    };
    if flags.shard.is_some() {
        println!("{}", partial.to_json());
    } else {
        let report = partial
            .finish()
            .expect("full-range partial always finishes");
        emit_report(&report, format);
    }
    if let Some(raw) = &flags.checkpoint {
        // The protected output has been emitted; the snapshot is spent.
        // A `.tmp` sibling from an interrupted atomic write is stale the
        // same moment, so it goes too.
        let _ = std::fs::remove_file(raw);
        let _ = std::fs::remove_file(format!("{raw}.tmp"));
    }
    eprintln!(
        "  [{sub} {} n={} trials={} threads={}: {:.1?}]",
        partial.protocol(),
        partial.n(),
        partial.covered(),
        spec.batch().resolved_threads(),
        start.elapsed()
    );
    Ok(())
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
    check_format(&format).unwrap_or_else(|e| fail(e));
    if files.is_empty() {
        fail("merge-reports needs at least one partial-report file".to_string());
    }
    let mut merged: Option<ReportPartial> = None;
    for path in &files {
        let src = read_input(Path::new(path)).unwrap_or_else(|e| fail(e));
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

/// Parses an `attack-sweep --seed-mode`: `derived` or `raw`.
fn parse_seed_mode(raw: &str) -> Result<SeedMode, String> {
    match raw {
        "derived" => Ok(SeedMode::Derived),
        "raw" => Ok(SeedMode::RawIndex),
        _ => Err(format!(
            "unknown seed mode '{raw}' (expected derived | raw)"
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
            set_global_threads(&args, 1);
        }
        if let Err(e) = run_sweep_subcommand(&args[pos], &args[pos + 1..]) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }

    // Global `--threads N` (applies to every experiment's worker pool).
    if let Some(pos) = args.iter().position(|a| a == "--threads" || a == "-j") {
        set_global_threads(&args, pos + 1);
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
