//! Attack-grid execution: [`AttackSweep`] specs dispatched onto
//! per-worker [`AttackRunner`](fle_attacks::AttackRunner) caches.

use crate::partial::ReportPartial;
use crate::spec::AttackSweep;
use crate::{run_batch_range, TrialOutcome, TrialReport};
use fle_attacks::build_runner;
use ring_sim::TimedNetConfig;

/// Runs an attack sweep on an explicit (possibly asymmetric, per-edge)
/// [`TimedNetConfig`] instead of the uniform net implied by
/// `cfg.schedule` — the one case a [`ScheduleSpec`](crate::ScheduleSpec)
/// cannot express. This is the entry point for experiments that place
/// slow links *relative to the coalition* (e.g. adversary placement vs.
/// asymmetric latency); everything else — batching, seed streams, report
/// aggregation, thread-count invariance — is identical to
/// [`run_sweep`](crate::run_sweep).
///
/// # Errors
///
/// If the spec is invalid (unresolvable coalition, layout rejected by
/// the runner) — the same conditions
/// [`SweepSpec::validate`](crate::SweepSpec::validate) reports.
pub fn run_attack_sweep_with_net(
    cfg: &AttackSweep,
    net: &TimedNetConfig,
) -> Result<TrialReport, String> {
    attack_partial(cfg, Some(net), 0, cfg.batch.trials)?.finish()
}

/// Runs trials `start..end` (global indices and seeds) of an attack sweep
/// into a mergeable [`ReportPartial`], on the timed net `net` (`None`:
/// FIFO).
///
/// Each worker thread builds one cached runner
/// ([`fle_attacks::build_runner`]): protocol base, engine, scheduler,
/// arena and result buffers are all reused, so steady-state trials are
/// allocation-free. Trials whose per-instance preconditions fail count as
/// `infeasible` (and never as successes); panicking trials are contained
/// as recorded faults. A malformed spec is a `Result`, never a worker
/// panic, so a long-running multi-sweep process survives it.
pub(crate) fn attack_partial(
    cfg: &AttackSweep,
    net: Option<&TimedNetConfig>,
    start: u64,
    end: u64,
) -> Result<ReportPartial, String> {
    // Validate the spec once up front so workers can only fail per-trial:
    // the coalition must resolve and the runner must accept the layout.
    let coalition = cfg.coalition.resolve(cfg.n)?;
    build_runner(cfg.attack, cfg.n, &coalition).map_err(|e| e.to_string())?;
    let fcfg = cfg.fault.map(|f| f.config());
    let results = run_batch_range(
        &cfg.batch,
        start,
        end,
        || {
            let mut runner =
                build_runner(cfg.attack, cfg.n, &coalition).expect("layout validated above");
            runner.set_timed_net(net);
            runner.set_faults(fcfg.as_ref());
            runner
        },
        |runner, index, derived| {
            let seed = cfg.seed_mode.resolve(index, derived);
            let fn_key = cfg.fn_key.resolve(seed);
            let target = cfg.target.resolve(seed, cfg.n);
            match runner.run_trial(seed, fn_key, target) {
                // Infeasible trials never ran, so they never crashed.
                Ok(r) => (
                    Some(TrialOutcome::of(r.exec)),
                    r.success,
                    r.exec.stats.crashes > 0,
                ),
                Err(_) => (None, false, false),
            }
        },
    );
    let label = format!("{}:{}", cfg.attack.protocol_name(), cfg.attack.name());
    let mut partial =
        ReportPartial::new_attack(&label, cfg.n, cfg.batch.base_seed, cfg.batch.trials);
    let faulty = fcfg.is_some();
    if faulty {
        partial = partial.with_faults();
    }
    for (i, slot) in results.into_iter().enumerate() {
        match slot {
            Ok((outcome, success, crashed)) => {
                let index = start + i as u64;
                if faulty {
                    partial.record_attack_faulty(index, outcome, success, crashed);
                } else {
                    partial.record_attack(index, outcome, success);
                }
            }
            Err(fault) => partial.record_fault(fault),
        }
    }
    Ok(partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CoalitionSpec, FnKeySpec, ScheduleSpec, SeedMode, TargetSpec};
    use crate::{run_sweep, BatchConfig};
    use fle_attacks::{AttackKind, RushingAttack};
    use fle_core::protocols::ALeadUni;
    use fle_core::Coalition;

    fn rushing_sweep(threads: usize, seed_mode: SeedMode) -> AttackSweep {
        AttackSweep {
            attack: AttackKind::Rushing,
            n: 16,
            fn_key: FnKeySpec::Fixed(0),
            batch: BatchConfig {
                trials: 40,
                base_seed: 1,
                threads,
            },
            coalition: CoalitionSpec::EquallySpaced { k: 7, offset: 1 },
            target: TargetSpec::Fixed(3),
            seed_mode,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        }
    }

    #[test]
    fn attack_sweep_is_thread_count_invariant() {
        let baseline = run_sweep(&rushing_sweep(1, SeedMode::Derived).into()).expect("valid");
        for threads in [2, 8] {
            let report =
                run_sweep(&rushing_sweep(threads, SeedMode::Derived).into()).expect("valid");
            assert_eq!(report.to_json(), baseline.to_json(), "threads={threads}");
            assert_eq!(report.to_csv(), baseline.to_csv(), "threads={threads}");
        }
    }

    #[test]
    fn zero_profile_timed_attack_sweep_matches_fifo() {
        use ring_sim::LatencySpec;
        let fifo = run_sweep(&rushing_sweep(1, SeedMode::Derived).into()).expect("valid");
        let mut timed_cfg = rushing_sweep(1, SeedMode::Derived);
        timed_cfg.schedule = ScheduleSpec::Timed {
            latency: LatencySpec::ZERO,
            loss_permille: 0,
            dup_permille: 0,
        };
        let timed = run_sweep(&timed_cfg.into()).expect("valid");
        assert_eq!(timed.to_json(), fifo.to_json());
    }

    #[test]
    fn raw_index_mode_matches_historical_loops() {
        // The pre-spec experiment tables looped `for seed in 0..trials`
        // and ran the attack directly; RawIndex mode must reproduce that
        // stream exactly.
        let report = run_sweep(&rushing_sweep(1, SeedMode::RawIndex).into()).expect("valid");
        let coalition = Coalition::equally_spaced(16, 7, 1).unwrap();
        let attack = RushingAttack::new(3);
        let mut successes = 0;
        for seed in 0..40u64 {
            let p = ALeadUni::new(16).with_seed(seed);
            let exec = attack.run(&p, &coalition).unwrap();
            if exec.outcome.elected() == Some(3) {
                successes += 1;
            }
        }
        let attack_arm = report.attack.expect("attack sweeps carry the arm");
        assert_eq!(attack_arm.successes, successes);
        assert_eq!(attack_arm.infeasible, 0);
        assert_eq!(report.trials, 40);
    }

    #[test]
    fn invalid_spec_is_an_error_not_a_panic() {
        // k > n cannot resolve; historically this panicked inside a worker.
        let mut cfg = rushing_sweep(1, SeedMode::Derived);
        cfg.coalition = CoalitionSpec::EquallySpaced { k: 99, offset: 0 };
        let err = run_sweep(&cfg.into()).unwrap_err();
        assert!(err.contains("coalition"), "unexpected message: {err}");
    }

    #[test]
    fn infeasible_trials_are_counted_not_dropped() {
        // Rushing with a too-sparse coalition: every trial refuses.
        let cfg = AttackSweep {
            attack: AttackKind::Rushing,
            n: 16,
            fn_key: FnKeySpec::Fixed(0),
            batch: BatchConfig {
                trials: 10,
                base_seed: 0,
                threads: 1,
            },
            coalition: CoalitionSpec::Explicit {
                positions: vec![5, 11],
            },
            target: TargetSpec::Fixed(1),
            seed_mode: SeedMode::Derived,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        };
        let report = run_sweep(&cfg.into()).expect("valid");
        let arm = report.attack.expect("attack arm");
        assert_eq!(arm.infeasible, 10);
        assert_eq!(arm.successes, 0);
        assert_eq!(report.trials, 10);
        assert_eq!(report.elected(), 0);
    }
}
