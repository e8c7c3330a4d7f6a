//! The generic deterministic batch runner.

use crate::trial_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Process-wide default worker count used when [`BatchConfig::threads`] is
/// 0. Itself 0 means "ask [`std::thread::available_parallelism`]".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (0 restores auto-detection).
///
/// `fle_lab --threads N` routes through this so every experiment in the
/// process, including legacy [`par_seeds`] call sites, obeys the flag.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The worker count a [`BatchConfig::threads`] of 0 resolves to: the value
/// of [`set_default_threads`] if set, otherwise the available parallelism.
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Shape of one batch: how many trials, from which base seed, on how many
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of trials to run.
    pub trials: u64,
    /// Base seed; trial `i` runs with [`trial_seed`]`(base_seed, i)`.
    pub base_seed: u64,
    /// Worker threads; 0 means [`default_threads`]. The result is
    /// identical for every value.
    pub threads: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            trials: 1000,
            base_seed: 0,
            threads: 0,
        }
    }
}

impl BatchConfig {
    /// The resolved worker count for this batch (at least 1, at most
    /// `trials`).
    pub fn resolved_threads(&self) -> usize {
        let t = if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        };
        t.clamp(1, self.trials.max(1) as usize)
    }
}

/// One contained trial failure: the panicking trial's global index, its
/// derived seed (rerun `trial(worker, index, seed)` with exactly these to
/// reproduce), and the panic payload when it was a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFault {
    /// Global trial index within the sweep's `0..trials` space.
    pub index: u64,
    /// The [`trial_seed`]-derived seed the trial ran with.
    pub seed: u64,
    /// The panic payload (`"non-string panic payload"` if it was neither
    /// `&str` nor `String`).
    pub message: String,
}

/// Renders a caught panic payload as a fault message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the contiguous trial range `start..end` of a `cfg.trials`-trial
/// batch across worker threads, containing per-trial panics, and returns
/// one entry per trial in trial order.
///
/// Indices and seeds are *global*: trial `i` runs with
/// [`trial_seed`]`(cfg.base_seed, i)` regardless of the range, so a batch
/// split across shards or checkpoints replays the exact seed schedule of
/// the monolithic run. A panicking trial becomes an `Err(`[`TrialFault`]`)`
/// slot instead of aborting the batch; the worker that hit it is discarded
/// (its cached state may be mid-trial garbage) and rebuilt via
/// `make_worker` before the next trial. This is the width-1 case of
/// [`run_batch_range_grouped`].
///
/// # Panics
///
/// Panics if the range is not within `0..=cfg.trials`.
pub fn run_batch_range<W, T: Send>(
    cfg: &BatchConfig,
    start: u64,
    end: u64,
    make_worker: impl Fn() -> W + Sync,
    trial: impl Fn(&mut W, u64, u64) -> T + Sync,
) -> Vec<Result<T, TrialFault>> {
    let no_group = |_: &mut W, _: u64, _: &mut Vec<T>| false;
    run_batch_range_grouped(cfg, start, end, 1, make_worker, no_group, trial)
}

/// Process-wide count of trials that completed on a lockstep batch fast
/// path (a [`run_batch_range_grouped`] group that returned `true`).
/// Instrumentation only — tests assert lower bounds to prove batching
/// engaged; never compare exactly (parallel test runs share it).
static BATCHED_TRIALS: AtomicU64 = AtomicU64::new(0);

/// The process-wide number of trials served by lockstep groups so far
/// (see `BATCHED_TRIALS` above).
pub fn batched_trials() -> u64 {
    BATCHED_TRIALS.load(Ordering::Relaxed)
}

/// [`run_batch_range`] with a group fast path: within each worker's
/// contiguous piece, full `width`-trial groups are attempted through
/// `group` first, and only the pieces the fast path cannot serve — a
/// group that returns `false` (diverged), panics, or under-fills, and the
/// ragged tail shorter than `width` — run through the scalar `trial`
/// closure.
///
/// `group(worker, group_start, out)` must either push exactly `width`
/// results for global trials `group_start..group_start + width` (in
/// order) and return `true`, or return `false` leaving the batch
/// attempt's results unused. Groups are aligned to each worker piece's
/// start, and the pieces are the same chunks at every width — so for a
/// given `(threads, start, end)` the scalar path serves exactly
/// the same indices whether a checkpoint resume or shard split lands
/// mid-chunk or not, and results are bit-identical to the all-scalar
/// runner in every case.
///
/// At a `width` of 0 or 1 every trial runs through `trial` and `group`
/// is never called: that is [`run_batch_range`].
///
/// # Panics
///
/// Panics if the range is not within `0..=cfg.trials`.
pub fn run_batch_range_grouped<W, T: Send>(
    cfg: &BatchConfig,
    start: u64,
    end: u64,
    width: usize,
    make_worker: impl Fn() -> W + Sync,
    group: impl Fn(&mut W, u64, &mut Vec<T>) -> bool + Sync,
    trial: impl Fn(&mut W, u64, u64) -> T + Sync,
) -> Vec<Result<T, TrialFault>> {
    assert!(
        start <= end && end <= cfg.trials,
        "trial range {start}..{end} outside batch of {} trials",
        cfg.trials
    );
    let len = end - start;
    let threads = {
        let t = if cfg.threads == 0 {
            default_threads()
        } else {
            cfg.threads
        };
        t.clamp(1, len.max(1) as usize)
    };
    let base_seed = cfg.base_seed;
    let run_one = |worker: &mut W, index: u64| -> Result<T, TrialFault> {
        let seed = trial_seed(base_seed, index);
        catch_unwind(AssertUnwindSafe(|| trial(worker, index, seed))).map_err(|payload| {
            TrialFault {
                index,
                seed,
                message: panic_message(payload),
            }
        })
    };
    // Serves one worker piece covering global trials
    // `piece_start..piece_start + piece.len()`.
    let run_piece = |piece: &mut [Option<Result<T, TrialFault>>], piece_start: u64| {
        let mut worker = make_worker();
        let mut buf: Vec<T> = Vec::with_capacity(width);
        let mut i = 0usize;
        while i < piece.len() {
            let index = piece_start + i as u64;
            if width > 1 && piece.len() - i >= width {
                buf.clear();
                let ok = catch_unwind(AssertUnwindSafe(|| group(&mut worker, index, &mut buf)));
                match ok {
                    Ok(true) if buf.len() == width => {
                        BATCHED_TRIALS.fetch_add(width as u64, Ordering::Relaxed);
                        for (j, result) in buf.drain(..).enumerate() {
                            piece[i + j] = Some(Ok(result));
                        }
                        i += width;
                        continue;
                    }
                    Ok(_) => {} // diverged (or under-filled): re-run scalar
                    Err(_) => {
                        // A panicking group may have left the worker's
                        // cached state mid-trial; rebuild before the
                        // scalar re-run (which attributes any persistent
                        // fault to its exact trial).
                        worker = make_worker();
                    }
                }
                for j in 0..width {
                    let result = run_one(&mut worker, index + j as u64);
                    if result.is_err() {
                        worker = make_worker();
                    }
                    piece[i + j] = Some(result);
                }
                i += width;
            } else {
                // Scalar width, or a ragged tail shorter than the width.
                let result = run_one(&mut worker, index);
                if result.is_err() {
                    worker = make_worker();
                }
                piece[i] = Some(result);
                i += 1;
            }
        }
    };
    let mut slots: Vec<Option<Result<T, TrialFault>>> = (0..len).map(|_| None).collect();
    if threads <= 1 || len <= 1 {
        run_piece(&mut slots, start);
    } else {
        let chunk = slots.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, piece) in slots.chunks_mut(chunk).enumerate() {
                let run_piece = &run_piece;
                scope.spawn(move || run_piece(piece, start + (t * chunk) as u64));
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Runs `trials` independent trials across worker threads, giving each
/// worker its own state from `make_worker`, and returns the results in
/// trial order.
///
/// `trial(worker, index, seed)` must be deterministic in `(index, seed)`
/// given a fresh-equivalent worker — the workers exist purely for
/// allocation reuse (e.g. a [`ring_sim::Engine`] per thread) and must not
/// leak state between trials. Under that contract the returned vector is
/// identical for every thread count.
///
/// A panicking trial no longer tears down sibling workers: the whole batch
/// completes first (via [`run_batch_range`]), then this wrapper re-raises
/// the first fault with its index and repro seed. Callers that want the
/// surviving results instead should use [`run_batch_range`] directly.
///
/// # Examples
///
/// ```
/// use fle_harness::{run_batch, BatchConfig, trial_seed};
///
/// let cfg = BatchConfig { trials: 10, base_seed: 7, threads: 3 };
/// let out = run_batch(&cfg, || (), |(), i, seed| (i, seed));
/// assert_eq!(out.len(), 10);
/// assert!(out.iter().enumerate().all(|(i, &(j, s))| {
///     j == i as u64 && s == trial_seed(7, i as u64)
/// }));
/// ```
pub fn run_batch<W, T: Send>(
    cfg: &BatchConfig,
    make_worker: impl Fn() -> W + Sync,
    trial: impl Fn(&mut W, u64, u64) -> T + Sync,
) -> Vec<T> {
    run_batch_range(cfg, 0, cfg.trials, make_worker, trial)
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|f| {
                panic!(
                    "trial {} (seed {}) panicked: {}",
                    f.index, f.seed, f.message
                )
            })
        })
        .collect()
}

/// Runs `f(seed)` for `seed in 0..trials` across the worker pool and
/// returns the results in seed order.
///
/// The legacy `fle-experiments` surface: seeds are the *raw trial
/// indices* (not [`trial_seed`]-derived), preserving the exact random
/// streams of the recorded experiment tables. New code should prefer
/// [`run_batch`], which separates the seed stream from the index space and
/// supports per-worker engine reuse.
///
/// # Examples
///
/// ```
/// use fle_harness::par_seeds;
///
/// let squares = par_seeds(8, |s| s * s);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_seeds<T: Send>(trials: u64, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let cfg = BatchConfig {
        trials,
        base_seed: 0,
        threads: 0,
    };
    run_batch(&cfg, || (), |(), index, _seed| f(index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_seed_order() {
        let out = par_seeds(100, |s| s + 1);
        assert_eq!(out, (1..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn handles_zero_and_one_trials() {
        assert!(par_seeds(0, |s| s).is_empty());
        assert_eq!(par_seeds(1, |s| s), vec![0]);
    }

    #[test]
    fn batch_results_identical_across_thread_counts() {
        let run = |threads| {
            let cfg = BatchConfig {
                trials: 97,
                base_seed: 5,
                threads,
            };
            run_batch(
                &cfg,
                || 0u64,
                |acc, i, seed| {
                    // A worker-stateful trial: the accumulator must not leak
                    // into results (it only proves workers are per-thread).
                    *acc += 1;
                    i.wrapping_mul(31) ^ seed
                },
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
        assert_eq!(one, run(64));
    }

    #[test]
    fn resolved_threads_clamps() {
        let cfg = BatchConfig {
            trials: 3,
            base_seed: 0,
            threads: 100,
        };
        assert_eq!(cfg.resolved_threads(), 3);
        let cfg = BatchConfig {
            trials: 0,
            base_seed: 0,
            threads: 100,
        };
        assert_eq!(cfg.resolved_threads(), 1);
    }

    #[test]
    fn range_matches_full_batch_slice() {
        let cfg = BatchConfig {
            trials: 50,
            base_seed: 9,
            threads: 4,
        };
        let full = run_batch(&cfg, || (), |(), i, seed| i ^ seed);
        let part = run_batch_range(&cfg, 13, 37, || (), |(), i, seed| i ^ seed);
        let part: Vec<u64> = part.into_iter().map(|r| r.expect("no faults")).collect();
        assert_eq!(part, full[13..37]);
    }

    #[test]
    fn panicking_trial_becomes_fault_not_abort() {
        for threads in [1, 2, 8] {
            let cfg = BatchConfig {
                trials: 20,
                base_seed: 3,
                threads,
            };
            // Workers count trials served so the rebuild is observable: the
            // worker that hit index 7 restarts its count from zero.
            let out = run_batch_range(
                &cfg,
                0,
                20,
                || 0u64,
                |served, i, seed| {
                    if i == 7 {
                        panic!("injected fault at {i}");
                    }
                    *served += 1;
                    (i, seed, *served)
                },
            );
            assert_eq!(out.len(), 20);
            for (i, slot) in out.iter().enumerate() {
                if i == 7 {
                    let fault = slot.as_ref().expect_err("index 7 panicked");
                    assert_eq!(fault.index, 7);
                    assert_eq!(fault.seed, trial_seed(3, 7));
                    assert_eq!(fault.message, "injected fault at 7");
                } else {
                    let (j, seed, served) = slot.as_ref().expect("healthy trial");
                    assert_eq!(*j, i as u64);
                    assert_eq!(*seed, trial_seed(3, i as u64));
                    assert!(*served >= 1);
                }
            }
            // The worker serving index 8 was rebuilt after the fault, so its
            // counter restarted at 1 (single-thread case pins this exactly).
            if threads == 1 {
                let (_, _, served) = out[8].as_ref().expect("healthy trial");
                assert_eq!(*served, 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "trial 3 (seed")]
    fn run_batch_reraises_fault_with_repro_seed() {
        let cfg = BatchConfig {
            trials: 5,
            base_seed: 0,
            threads: 1,
        };
        run_batch(
            &cfg,
            || (),
            |(), i, _seed| {
                assert!(i != 3, "boom");
            },
        );
    }

    /// The grouped runner with marker closures: group results are tagged
    /// so tests can see exactly which indices took which path.
    fn run_marked(
        trials: u64,
        start: u64,
        end: u64,
        width: usize,
        threads: usize,
        diverge_at: Option<u64>,
        panic_at: Option<u64>,
    ) -> Vec<(u64, &'static str)> {
        let cfg = BatchConfig {
            trials,
            base_seed: 11,
            threads,
        };
        run_batch_range_grouped(
            &cfg,
            start,
            end,
            width,
            || (),
            |(), gstart, out| {
                if panic_at.is_some_and(|p| (gstart..gstart + width as u64).contains(&p)) {
                    panic!("group panic");
                }
                if diverge_at.is_some_and(|d| (gstart..gstart + width as u64).contains(&d)) {
                    return false;
                }
                out.extend((0..width as u64).map(|j| (gstart + j, "batch")));
                true
            },
            |(), i, _seed| (i, "scalar"),
        )
        .into_iter()
        .map(|r| r.expect("no scalar faults injected"))
        .collect()
    }

    #[test]
    fn grouped_runner_covers_every_index_in_order() {
        for threads in [1, 2, 8] {
            for width in [2, 7, 8, 64] {
                let out = run_marked(100, 0, 100, width, threads, None, None);
                assert_eq!(out.len(), 100);
                for (i, (idx, _)) in out.iter().enumerate() {
                    assert_eq!(*idx, i as u64, "threads={threads} width={width}");
                }
            }
        }
    }

    #[test]
    fn ragged_tail_runs_scalar() {
        // 10 trials at width 4, single thread: two full groups, then a
        // 2-trial scalar tail.
        let out = run_marked(10, 0, 10, 4, 1, None, None);
        let tags: Vec<&str> = out.iter().map(|(_, t)| *t).collect();
        assert_eq!(
            tags,
            ["batch"; 8]
                .iter()
                .chain(["scalar"; 2].iter())
                .copied()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn mid_range_start_realigns_groups_to_the_piece() {
        // A checkpoint resume landing mid-chunk: the range 3..13 groups
        // from 3 (3..7, 7..11) and runs 11..13 scalar — no group ever
        // spans the resume point.
        let out = run_marked(20, 3, 13, 4, 1, None, None);
        assert_eq!(out[0], (3, "batch"));
        assert_eq!(out[7], (10, "batch"));
        assert_eq!(out[8], (11, "scalar"));
        assert_eq!(out[9], (12, "scalar"));
    }

    #[test]
    fn diverged_group_falls_back_to_scalar_for_exactly_its_trials() {
        let out = run_marked(16, 0, 16, 4, 1, Some(6), None);
        for (i, (idx, tag)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            let expect = if (4..8).contains(&i) {
                "scalar"
            } else {
                "batch"
            };
            assert_eq!(*tag, expect, "index {i}");
        }
    }

    #[test]
    fn panicking_group_falls_back_to_scalar() {
        for threads in [1, 2] {
            let out = run_marked(16, 0, 16, 8, threads, None, Some(2));
            for (i, (idx, tag)) in out.iter().enumerate() {
                assert_eq!(*idx, i as u64);
                // Both thread counts form the groups 0..8 and 8..16 (one
                // piece, or one piece each); the panic only hits the group
                // containing index 2.
                let expect = if i < 8 { "scalar" } else { "batch" };
                assert_eq!(*tag, expect, "threads={threads} index {i}");
            }
        }
    }

    #[test]
    fn grouped_scalar_faults_attribute_to_their_trial() {
        let cfg = BatchConfig {
            trials: 8,
            base_seed: 2,
            threads: 1,
        };
        let out = run_batch_range_grouped(
            &cfg,
            0,
            8,
            4,
            || (),
            |(), _gstart, _out| false, // force scalar everywhere
            |(), i, _seed| {
                assert!(i != 5, "boom at 5");
                i
            },
        );
        for (i, slot) in out.iter().enumerate() {
            if i == 5 {
                let fault = slot.as_ref().expect_err("trial 5 fails");
                assert_eq!(fault.index, 5);
                assert_eq!(fault.seed, trial_seed(2, 5));
            } else {
                assert_eq!(*slot.as_ref().expect("healthy"), i as u64);
            }
        }
    }

    #[test]
    fn grouped_counts_batched_trials() {
        let before = batched_trials();
        let _ = run_marked(32, 0, 32, 8, 1, None, None);
        assert!(batched_trials() >= before + 32);
    }

    #[test]
    fn width_one_delegates_to_scalar_runner() {
        let cfg = BatchConfig {
            trials: 6,
            base_seed: 1,
            threads: 2,
        };
        let grouped = run_batch_range_grouped(
            &cfg,
            0,
            6,
            1,
            || (),
            |(), _g, _o| panic!("group path must not run at width 1"),
            |(), i, seed| i ^ seed,
        );
        let scalar = run_batch_range(&cfg, 0, 6, || (), |(), i, seed| i ^ seed);
        let grouped: Vec<u64> = grouped.into_iter().map(|r| r.expect("ok")).collect();
        let scalar: Vec<u64> = scalar.into_iter().map(|r| r.expect("ok")).collect();
        assert_eq!(grouped, scalar);
    }

    #[test]
    fn default_threads_override_roundtrip() {
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        let cfg = BatchConfig {
            trials: 100,
            base_seed: 0,
            threads: 0,
        };
        assert_eq!(cfg.resolved_threads(), 3);
        set_default_threads(0);
        assert!(default_threads() >= 1);
    }
}
