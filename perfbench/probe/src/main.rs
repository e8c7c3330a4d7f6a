//! `perfbench-probe`: the traced half of the sweep benchmark.
//!
//! ```text
//! perfbench-probe --spec FILE --setup-spec FILE --threads T --emit FILE
//!                 --trace-out FILE [--checkpoint FILE --every N]
//! ```
//!
//! Replays what `fle_lab attack-sweep --spec FILE --threads T` does,
//! in-process: one warm-up, then `REPS` untraced and `REPS` traced
//! replays in alternating order, then `SETUP_REPS` untraced replays of
//! the set-up spec. Then it runs the per-layer micro-arms and writes
//! everything — the traced replays' spans, every replay's wall time,
//! report sha256 and lockstep counts, and the micro-arm figures — to the trace
//! file as one JSON object. Spans stay in memory until then.

mod micro;
mod replay;
mod trace;

use replay::{replay, Options};
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Tracer;

/// Untraced and traced replays each.
const REPS: usize = 5;
/// Replays of the set-up spec.
const SETUP_REPS: usize = 20;

struct Args {
    spec: PathBuf,
    setup_spec: PathBuf,
    threads: usize,
    emit: PathBuf,
    trace_out: PathBuf,
    checkpoint: Option<PathBuf>,
    every: u64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("{flag} is required"));
    let num = |v: String, flag: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("invalid value '{v}' for {flag}"))
    };
    Ok(Args {
        spec: need(get("--spec"), "--spec")?.into(),
        setup_spec: need(get("--setup-spec"), "--setup-spec")?.into(),
        threads: num(need(get("--threads"), "--threads")?, "--threads")? as usize,
        emit: need(get("--emit"), "--emit")?.into(),
        trace_out: need(get("--trace-out"), "--trace-out")?.into(),
        checkpoint: get("--checkpoint").map(PathBuf::from),
        every: get("--every").map_or(Ok(1000), |v| num(v, "--every"))?,
    })
}

/// One replay's record in the trace file.
fn rep_json(traced: bool, wall_ns: u64, r: &replay::Replay, batched: u64, tr: Tracer) -> String {
    let mut out = format!(
        "{{\"traced\":{traced},\"wall_ns\":{wall_ns},\"sha\":\"{}\",\"report_bytes\":{},\
         \"batched_trials\":{batched},\"group_trials\":{},\"spans\":[",
        r.sha, r.report_bytes, r.group_trials
    );
    for (i, s) in tr.into_spans().iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{sep}[\"{}\",{parent},{},{},{}]",
            s.name, s.thread, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}");
    out
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let opts = Options {
        spec: &args.spec,
        threads: args.threads,
        checkpoint: args.checkpoint.as_deref().map(|p| (p, args.every)),
        emit: &args.emit,
    };
    let clear_checkpoint = || {
        if let Some(p) = &args.checkpoint {
            let _ = std::fs::remove_file(p);
        }
    };
    clear_checkpoint();
    let mut last = replay(&opts, &Tracer::new(false))?; // warm-up
    let mut reps = Vec::new();
    for r in 0..REPS {
        let order = if r % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            clear_checkpoint();
            let batched_before = fle_harness::batched_trials();
            let tr = Tracer::new(traced);
            let start = tr.now_ns();
            last = replay(&opts, &tr)?;
            let wall_ns = tr.now_ns() - start;
            let batched = fle_harness::batched_trials() - batched_before;
            reps.push(rep_json(traced, wall_ns, &last, batched, tr));
        }
    }
    // The set-up spec, untraced: the in-process part of what `setup_s`
    // times, so the rest of `setup_s` is the process's own cost.
    let setup = Options {
        spec: &args.setup_spec,
        ..opts
    };
    let mut setup_walls = Vec::new();
    for _ in 0..SETUP_REPS {
        clear_checkpoint();
        let tr = Tracer::new(false);
        let start = tr.now_ns();
        replay(&setup, &tr)?;
        setup_walls.push((tr.now_ns() - start).to_string());
    }
    let work = args
        .trace_out
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default();
    let micro = micro::run(&last.spec, &last.partial, &work)?;
    // The lockstep width of the workload's groups (1: scalar only).
    let width = match &last.spec {
        fle_harness::SweepSpec::Honest(h) => h.resolved_batch_width(),
        _ => 1,
    };
    let mut out = format!(
        "{{\"threads\":{},\"trials\":{},\"width\":{width},\"reps\":[{}],\
         \"setup_wall_ns\":[{}],\"micro\":{{",
        args.threads,
        last.spec.batch().trials,
        reps.join(","),
        setup_walls.join(",")
    );
    for (i, (k, v)) in micro.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{k}\":{v:e}");
    }
    out.push_str("}}\n");
    std::fs::write(&args.trace_out, out)
        .map_err(|e| format!("cannot write {}: {e}", args.trace_out.display()))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench-probe: {e}");
        std::process::exit(2);
    }
}
