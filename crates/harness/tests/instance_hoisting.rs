//! Pins the sweep workers' instance-hoisting contract: the
//! seed-independent protocol state (`PhaseParams`, the keyed `RandomFn`)
//! is built once per worker per `(protocol, n, fn_key)` config — never
//! once per trial. `fle_core` counts `PhaseAsyncLead::new` calls
//! process-wide, so these tests live alone in their own binary (no other
//! test here may construct the protocol concurrently).

use fle_core::protocols::phase_async_builds;
use fle_harness::{run_sweep, BatchConfig, HonestSweep, ProtocolKind, ScheduleSpec, SweepSpec};

fn sweep(trials: u64, threads: usize) {
    let report = run_sweep(&SweepSpec::Honest(HonestSweep {
        protocol: ProtocolKind::PhaseAsyncLead,
        n: 8,
        fn_key: 9,
        batch: BatchConfig {
            trials,
            base_seed: 1,
            threads,
        },
        batch_width: 0,
        schedule: ScheduleSpec::Fifo,
        fault: None,
    }))
    .expect("valid spec");
    assert_eq!(report.trials, trials);
}

#[test]
fn protocol_instance_is_built_once_per_worker() {
    // Single-threaded: exactly one worker, so exactly one construction —
    // regardless of the trial count.
    let before = phase_async_builds();
    sweep(64, 1);
    assert_eq!(
        phase_async_builds() - before,
        1,
        "PhaseAsyncLead::new must run once per worker, not per trial"
    );

    // Multi-threaded: at most one construction per worker thread.
    let before = phase_async_builds();
    sweep(64, 4);
    let builds = phase_async_builds() - before;
    assert!(
        (1..=4).contains(&builds),
        "expected 1..=4 per-worker constructions, got {builds}"
    );
}
