//! The generic deterministic batch runner.

use crate::trial_seed;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Process-wide default worker count used when [`BatchConfig::threads`] is
/// 0. Itself 0 means "ask [`std::thread::available_parallelism`]".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The most worker threads a batch may ask for: `SweepSpec::validate` and
/// `fle_lab --threads` reject more, and [`default_threads`] never resolves
/// to more.
pub const MAX_THREADS: usize = 1024;

/// Sets the process-wide default worker count (0 restores auto-detection).
///
/// `fle_lab --threads N` routes through this so every experiment in the
/// process, including legacy [`par_seeds`] call sites, obeys the flag.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The worker count a [`BatchConfig::threads`] of 0 resolves to: the value
/// of [`set_default_threads`] if set, otherwise the available parallelism,
/// at most [`MAX_THREADS`].
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        n => n,
    }
    .min(MAX_THREADS)
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

/// Process-wide count of trials that completed on a lockstep batch fast
/// path (a `Some` lane of a [`run_batch_range_grouped`] group).
/// Instrumentation only — tests assert lower bounds to prove batching
/// engaged; never compare exactly (parallel test runs share it).
static BATCHED_TRIALS: AtomicU64 = AtomicU64::new(0);

/// The process-wide number of trials served by lockstep groups so far
/// (see `BATCHED_TRIALS` above): honest lanes and attack lanes alike.
pub fn batched_trials() -> u64 {
    BATCHED_TRIALS.load(Ordering::Relaxed)
}

/// Runs the contiguous trial range `start..end` of a `cfg.trials`-trial
/// batch across worker threads, containing per-trial panics, and folds
/// each trial's result into its worker's accumulator as soon as the trial
/// ends. Returns one accumulator per worker piece, in index order, for
/// the caller to merge.
///
/// Indices and seeds are *global*: trial `i` runs with
/// [`trial_seed`]`(cfg.base_seed, i)` regardless of the range, so a batch
/// split across shards or checkpoints replays the exact seed schedule of
/// the monolithic run. The range is cut into one contiguous piece of
/// `len.div_ceil(threads)` trials per worker; each piece starts from
/// `new_acc()` and receives `record(acc, index, result)` for its trials in
/// index order. A panicking trial is recorded as an `Err(`[`TrialFault`]`)`
/// instead of aborting the batch; the worker that hit it is discarded
/// (its cached state may be mid-trial garbage) and rebuilt via
/// `make_worker` before the next trial. A worker holds at most `width`
/// unrecorded results at a time, so memory does not grow with the range.
///
/// Each piece is cut into groups of `width` trials from its start, the
/// last one narrower when the piece is not a multiple of `width`, and
/// each group is attempted through `group` first. Only the trials the
/// fast path cannot serve — a `None` lane, every lane of a group that
/// panics or does not fill exactly its width (a diverged group fills
/// none), and a lone last trial, which makes no group — run through the
/// scalar `trial` closure. At a `width` of 0 or 1 every trial runs
/// through `trial` and `group` is never called.
///
/// `group(worker, group_start, group_width, out)` pushes one entry per
/// lane for global trials `group_start..group_start + group_width`, in
/// order: `Some(result)` where the fast path served the trial, `None`
/// where it must rerun scalar. The pieces are the same chunks at every
/// width — so for a given `(threads, start, end)` the groups are the same
/// whether a checkpoint resume or shard split lands mid-chunk or not, and
/// results are bit-identical to the all-scalar runner in every case.
///
/// # Panics
///
/// Panics if the range is not within `0..=cfg.trials`, and re-raises a
/// panic of `make_worker`, `new_acc` or `record`.
#[allow(clippy::too_many_arguments)] // the runner's stages, spelled out
pub fn run_batch_range_grouped<W, T, A: Send>(
    cfg: &BatchConfig,
    start: u64,
    end: u64,
    width: usize,
    make_worker: impl Fn() -> W + Sync,
    group: impl Fn(&mut W, u64, usize, &mut Vec<Option<T>>) + Sync,
    trial: impl Fn(&mut W, u64, u64) -> T + Sync,
    new_acc: impl Fn() -> A + Sync,
    record: impl Fn(&mut A, u64, Result<T, TrialFault>) + Sync,
) -> Vec<A> {
    assert!(
        start <= end && end <= cfg.trials,
        "trial range {start}..{end} outside batch of {} trials",
        cfg.trials
    );
    let len = end - start;
    let threads = cfg.resolved_threads().min(len.max(1) as usize);
    // Runs trial `index` scalar; a fault rebuilds the worker.
    let run_one = |worker: &mut W, index: u64| -> Result<T, TrialFault> {
        let seed = trial_seed(cfg.base_seed, index);
        catch_unwind(AssertUnwindSafe(|| trial(worker, index, seed))).map_err(|payload| {
            *worker = make_worker();
            TrialFault {
                index,
                seed,
                message: panic_message(payload),
            }
        })
    };
    // Serves one worker piece, global trials `lo..hi`.
    let run_piece = |lo: u64, hi: u64| -> A {
        let mut acc = new_acc();
        let mut worker = make_worker();
        let mut buf: Vec<Option<T>> = Vec::with_capacity(width);
        let mut index = lo;
        while index < hi {
            let width = (hi - index).min(width as u64) as usize;
            if width <= 1 {
                // Scalar width, or a lone last trial.
                let result = run_one(&mut worker, index);
                record(&mut acc, index, result);
                index += 1;
                continue;
            }
            buf.clear();
            let filled = catch_unwind(AssertUnwindSafe(|| {
                group(&mut worker, index, width, &mut buf)
            }));
            if filled.is_err() {
                // A panicking group may have left the worker's cached
                // state mid-trial; rebuild before the scalar re-run
                // (which attributes any persistent fault to its exact
                // trial).
                worker = make_worker();
            }
            if filled.is_err() || buf.len() != width {
                buf.clear();
                buf.resize_with(width, || None);
            }
            let served = buf.iter().filter(|lane| lane.is_some()).count();
            BATCHED_TRIALS.fetch_add(served as u64, Ordering::Relaxed);
            for lane in buf.drain(..) {
                let result = match lane {
                    Some(result) => Ok(result),
                    None => run_one(&mut worker, index),
                };
                record(&mut acc, index, result);
                index += 1;
            }
        }
        acc
    };
    if threads <= 1 {
        return vec![run_piece(start, end)];
    }
    let chunk = len.div_ceil(threads as u64);
    std::thread::scope(|scope| {
        let pieces: Vec<_> = (start..end)
            .step_by(chunk as usize)
            .map(|lo| {
                let run_piece = &run_piece;
                scope.spawn(move || run_piece(lo, (lo + chunk).min(end)))
            })
            .collect();
        pieces
            .into_iter()
            .map(|piece| piece.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    })
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
/// The collecting form of [`run_batch_range_grouped`] at width 1: a
/// panicking trial does not tear down sibling workers — the whole batch
/// completes first, then this wrapper re-raises the first fault with its
/// index and repro seed.
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
    let pieces = run_batch_range_grouped(
        cfg,
        0,
        cfg.trials,
        1,
        make_worker,
        |_, _, _, _| {},
        trial,
        Vec::new,
        |out: &mut Vec<_>, _, result| out.push(result),
    );
    pieces
        .into_iter()
        .flatten()
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

    /// The grouped runner with a collecting accumulator: every trial's
    /// result, in index order.
    fn collected<T: Send>(
        cfg: &BatchConfig,
        (start, end): (u64, u64),
        width: usize,
        group: impl Fn(&mut (), u64, usize, &mut Vec<Option<T>>) + Sync,
        trial: impl Fn(&mut (), u64, u64) -> T + Sync,
    ) -> Vec<Result<T, TrialFault>> {
        let pieces = run_batch_range_grouped(
            cfg,
            start,
            end,
            width,
            || (),
            group,
            trial,
            Vec::new,
            |out: &mut Vec<_>, index, result: Result<T, TrialFault>| {
                assert_eq!(result.as_ref().map_or_else(|f| f.index, |_| index), index);
                out.push(result);
            },
        );
        pieces.into_iter().flatten().collect()
    }

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
        let part = collected(&cfg, (13, 37), 1, |_, _, _, _| {}, |(), i, seed| i ^ seed);
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
            let out: Vec<_> = run_batch_range_grouped(
                &cfg,
                0,
                20,
                1,
                || 0u64,
                |_, _, _, _| {},
                |served, i, seed| {
                    if i == 7 {
                        panic!("injected fault at {i}");
                    }
                    *served += 1;
                    (i, seed, *served)
                },
                Vec::new,
                |out: &mut Vec<_>, _, result| out.push(result),
            )
            .into_iter()
            .flatten()
            .collect();
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
        collected(
            &cfg,
            (start, end),
            width,
            |(), gstart, width, out| {
                if panic_at.is_some_and(|p| (gstart..gstart + width as u64).contains(&p)) {
                    panic!("group panic");
                }
                if diverge_at.is_some_and(|d| (gstart..gstart + width as u64).contains(&d)) {
                    return;
                }
                out.extend((0..width as u64).map(|j| Some((gstart + j, "batch"))));
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

    /// The `(start, width)` of every group one run hands to `group`, in
    /// index order.
    fn group_shapes(
        trials: u64,
        start: u64,
        end: u64,
        width: usize,
        threads: usize,
    ) -> Vec<(u64, usize)> {
        let cfg = BatchConfig {
            trials,
            base_seed: 0,
            threads,
        };
        let shapes = std::sync::Mutex::new(Vec::new());
        run_batch_range_grouped(
            &cfg,
            start,
            end,
            width,
            || (),
            |(), gstart, width, out: &mut Vec<Option<()>>| {
                shapes.lock().expect("no poison").push((gstart, width));
                out.resize(width, Some(()));
            },
            |(), _, _| (),
            || (),
            |(), _, _| {},
        );
        let mut shapes = shapes.into_inner().expect("no poison");
        shapes.sort_unstable();
        shapes
    }

    #[test]
    fn ragged_tail_runs_as_one_narrower_group() {
        // 10 trials at width 4, single thread: two full groups, then the
        // 2-trial tail as one group of 2.
        let out = run_marked(10, 0, 10, 4, 1, None, None);
        assert!(out.iter().all(|(_, tag)| *tag == "batch"), "{out:?}");
        assert_eq!(group_shapes(10, 0, 10, 4, 1), [(0, 4), (4, 4), (8, 2)]);
        // A lone last trial makes no group: it runs scalar, as at width 1.
        let out = run_marked(9, 0, 9, 4, 1, None, None);
        assert_eq!(out[7], (7, "batch"));
        assert_eq!(out[8], (8, "scalar"));
        assert_eq!(group_shapes(9, 0, 9, 4, 1), [(0, 4), (4, 4)]);
    }

    #[test]
    fn mid_range_start_realigns_groups_to_the_piece() {
        // A checkpoint resume landing mid-chunk: the range 3..13 groups
        // from 3 (3..7, 7..11, then the tail 11..13 as a group of 2) — no
        // group ever spans the resume point.
        let out = run_marked(20, 3, 13, 4, 1, None, None);
        assert!(out.iter().all(|(_, tag)| *tag == "batch"), "{out:?}");
        assert_eq!(group_shapes(20, 3, 13, 4, 1), [(3, 4), (7, 4), (11, 2)]);
        // Two workers split it into the pieces 3..8 and 8..13, and each
        // piece groups from its own start, leaving trials 7 and 12 alone.
        let out = run_marked(20, 3, 13, 4, 2, None, None);
        assert_eq!(out[4], (7, "scalar"));
        assert_eq!(out[9], (12, "scalar"));
        assert_eq!(group_shapes(20, 3, 13, 4, 2), [(3, 4), (8, 4)]);
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
    fn none_lanes_rerun_scalar_alone() {
        // Lanes 1 and 6 of every group come back `None`: exactly those
        // trials rerun scalar, and only the others count as batched.
        let cfg = BatchConfig {
            trials: 16,
            base_seed: 4,
            threads: 1,
        };
        let before = batched_trials();
        let out = collected(
            &cfg,
            (0, 16),
            8,
            |(), gstart, _, out| {
                out.extend((0..8u64).map(|j| (j != 1 && j != 6).then_some((gstart + j, "batch"))));
            },
            |(), i, _seed| (i, "scalar"),
        );
        for (i, slot) in out.iter().enumerate() {
            let expect = if i % 8 == 1 || i % 8 == 6 {
                "scalar"
            } else {
                "batch"
            };
            assert_eq!(slot.as_ref().expect("no faults"), &(i as u64, expect));
        }
        assert!(batched_trials() >= before + 12);
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
        let out = collected(
            &cfg,
            (0, 8),
            4,
            |(), _gstart, _width, _out| {}, // force scalar everywhere
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
        let grouped_calls = AtomicUsize::new(0);
        let grouped = collected(
            &cfg,
            (0, 6),
            1,
            |(), _g, _w, _o: &mut Vec<Option<u64>>| {
                grouped_calls.fetch_add(1, Ordering::Relaxed);
            },
            |(), i, seed| i ^ seed,
        );
        assert_eq!(grouped_calls.into_inner(), 0, "no group runs at width 1");
        let grouped: Vec<u64> = grouped.into_iter().map(|r| r.expect("ok")).collect();
        assert_eq!(grouped, run_batch(&cfg, || (), |(), i, seed| i ^ seed));
    }

    /// A trial result that counts how many results are alive at once.
    struct Live<'a> {
        live: &'a AtomicUsize,
    }

    impl<'a> Live<'a> {
        fn new(live: &'a AtomicUsize, peak: &AtomicUsize) -> Self {
            peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            Self { live }
        }
    }

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn live_results_stay_bounded_by_threads_times_width() {
        const TRIALS: u64 = 10_000;
        for threads in [1, 2] {
            for width in [1, 16] {
                let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let cfg = BatchConfig {
                    trials: TRIALS,
                    base_seed: 6,
                    threads,
                };
                // Every fifth lane reruns scalar, so groups hold results
                // while their reruns make more.
                let counts = run_batch_range_grouped(
                    &cfg,
                    0,
                    TRIALS,
                    width,
                    || (),
                    |(), _, width, out| {
                        out.extend(
                            (0..width).map(|j| (j % 5 != 1).then(|| Live::new(&live, &peak))),
                        )
                    },
                    |(), _, _| Live::new(&live, &peak),
                    || 0u64,
                    |count, _, result| {
                        assert!(result.is_ok());
                        *count += 1;
                    },
                );
                assert_eq!(counts.len(), threads);
                assert_eq!(counts.iter().sum::<u64>(), TRIALS);
                assert_eq!(live.into_inner(), 0);
                let peak = peak.into_inner();
                assert!(
                    peak <= threads * (width + 1),
                    "threads={threads} width={width}: {peak} results alive at once"
                );
            }
        }
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
