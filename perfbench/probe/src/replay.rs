//! Replays `fle_lab attack-sweep --spec FILE --threads T
//! [--checkpoint FILE --checkpoint-every N]` in-process, through the same
//! public calls the CLI makes, with a span around each call.
//!
//! Where the CLI calls `run_sweep_partial` over a range, the replay calls
//! it once per worker range of the harness's split, each on its own
//! thread at one worker, and merges the pieces. Each piece then runs with
//! exactly the worker, lockstep groups and recording the harness gives
//! that range, and the merged report must equal the CLI's stdout; the
//! benchmark checks that.

use crate::trace::Tracer;
use fle_harness::{
    default_threads, run_sweep_partial, sha256_hex, write_checkpoint, ReportPartial,
    SweepCheckpoint, SweepSpec,
};
use std::path::Path;

/// What the CLI is asked to do.
pub struct Options<'a> {
    pub spec: &'a Path,
    pub threads: usize,
    /// `--checkpoint FILE --checkpoint-every N`.
    pub checkpoint: Option<(&'a Path, u64)>,
    /// Where the report line goes (the CLI's stdout).
    pub emit: &'a Path,
}

/// The result of one replay.
pub struct Replay {
    pub spec: SweepSpec,
    pub partial: ReportPartial,
    /// sha256 of the report JSON (the stdout line without its newline).
    pub sha: String,
    pub report_bytes: usize,
    /// Trials in full lockstep groups of the worker ranges: what
    /// `batched_trials()` grows by when no group diverges.
    pub group_trials: u64,
}

pub fn replay(opts: &Options, tr: &Tracer) -> Result<Replay, String> {
    let src = tr
        .span("spec.read", None, 0, |_| std::fs::read_to_string(opts.spec))
        .map_err(|e| format!("cannot read {}: {e}", opts.spec.display()))?;
    let mut spec = tr.span("spec.parse", None, 0, |_| SweepSpec::parse_json(&src))?;
    match &mut spec {
        SweepSpec::Honest(h) => h.batch.threads = opts.threads,
        SweepSpec::Attack(a) => a.batch.threads = opts.threads,
        SweepSpec::TreeDictator(_) => return Err("tree sweeps are not replayed".to_string()),
    }
    tr.span("spec.validate", None, 0, |_| spec.validate())?;
    let trials = spec.batch().trials;
    let mut group_trials = 0;
    let partial = match opts.checkpoint {
        None => tr.span("fanout", None, 0, |id| {
            fanout(&spec, 0, trials, tr, id, &mut group_trials)
        })?,
        Some((path, every)) => {
            // `run_sweep_checkpointed`: an empty partial of the right
            // shape, then one fan-out, merge and atomic write per chunk.
            let (spec_sha256, mut partial) = tr.span("checkpoint.open", None, 0, |_| {
                let sha = sha256_hex(spec.to_json().as_bytes());
                run_sweep_partial(&spec, 0, 0).map(|p| (sha, p))
            })?;
            let chunk = if every == 0 { trials.max(1) } else { every };
            let mut at = 0;
            while at < trials {
                let hi = (at + chunk).min(trials);
                let piece = tr.span("fanout", None, 0, |id| {
                    fanout(&spec, at, hi, tr, id, &mut group_trials)
                })?;
                tr.span("reduce.merge", None, 0, |_| partial.merge(&piece))?;
                partial = tr.span("checkpoint.write", None, 0, |_| {
                    let cp = SweepCheckpoint {
                        spec_sha256: spec_sha256.clone(),
                        start: 0,
                        end: trials,
                        partial,
                    };
                    write_checkpoint(path, &cp).map(|()| cp.partial)
                })?;
                at = hi;
            }
            partial
        }
    };
    let report = tr.span("report.finish", None, 0, |_| partial.finish())?;
    let json = tr.span("report.to_json", None, 0, |_| report.to_json());
    let sha = tr.span("digest.sha", None, 0, |_| sha256_hex(json.as_bytes()));
    tr.span("report.emit", None, 0, |_| {
        std::fs::write(opts.emit, format!("{json}\n"))
    })
    .map_err(|e| format!("cannot write {}: {e}", opts.emit.display()))?;
    if let Some((path, _)) = opts.checkpoint {
        // The CLI deletes the spent snapshot once the report is out.
        tr.span("checkpoint.remove", None, 0, |_| {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_file(format!("{}.tmp", path.display()));
        });
    }
    Ok(Replay {
        spec,
        partial,
        sha,
        report_bytes: json.len(),
        group_trials,
    })
}

/// `run_sweep_partial(spec, lo, hi)` opened at its fan-out: the
/// harness's per-worker split (`run_batch_range`'s chunks), one
/// `run_sweep_partial` call per worker range on its own thread, then the
/// merge of the pieces on the calling thread.
fn fanout(
    spec: &SweepSpec,
    lo: u64,
    hi: u64,
    tr: &Tracer,
    parent: Option<usize>,
    group_trials: &mut u64,
) -> Result<ReportPartial, String> {
    let len = hi - lo;
    let threads = match spec.batch().threads {
        0 => default_threads(),
        t => t,
    }
    .clamp(1, len.max(1) as usize);
    let pieces: Vec<(u64, u64)> = if threads <= 1 || len <= 1 {
        vec![(lo, hi)]
    } else {
        let chunk = len.div_ceil(threads as u64);
        (0..)
            .map(|i| lo + i * chunk)
            .take_while(|&start| start < hi)
            .map(|start| (start, (start + chunk).min(hi)))
            .collect()
    };
    if let SweepSpec::Honest(h) = spec {
        let width = h.resolved_batch_width() as u64;
        if width > 1 {
            *group_trials += pieces
                .iter()
                .map(|(a, b)| (b - a) / width * width)
                .sum::<u64>();
        }
    }
    let mut one_worker = spec.clone();
    match &mut one_worker {
        SweepSpec::Honest(h) => h.batch.threads = 1,
        SweepSpec::Attack(a) => a.batch.threads = 1,
        SweepSpec::TreeDictator(_) => unreachable!("rejected before the fan-out"),
    }
    let run = |thread: usize, (a, b): (u64, u64)| {
        tr.span("fanout.chunk", parent, thread, |_| {
            run_sweep_partial(&one_worker, a, b)
        })
    };
    let results: Vec<Result<ReportPartial, String>> = if pieces.len() == 1 {
        vec![run(0, pieces[0])]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = pieces
                .iter()
                .enumerate()
                .map(|(i, &range)| {
                    let run = &run;
                    scope.spawn(move || run(i + 1, range))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker panicked"))
                .collect()
        })
    };
    let mut results = results.into_iter();
    let mut partial = results.next().expect("at least one piece")?;
    tr.span("reduce.merge", parent, 0, |_| {
        results.try_for_each(|piece| partial.merge(&piece?))
    })?;
    Ok(partial)
}
