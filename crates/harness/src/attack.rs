//! Attack-grid execution: [`AttackSweep`] specs dispatched onto
//! per-worker [`AttackRunner`] caches, in lockstep groups where the
//! attack kind batches.

use crate::partial::{ran, ReportPartial};
use crate::spec::AttackSweep;
use crate::sweep::{fit_lane_width, DEFAULT_BATCH_WIDTH};
use crate::{run_batch_range_grouped, trial_seed, TrialReport};
use fle_attacks::{build_runner, AttackRunner};
use ring_sim::TimedNetConfig;

impl AttackSweep {
    /// The lockstep width this sweep's trials run with: the rule of
    /// [`HonestSweep::resolved_batch_width`](crate::HonestSweep::resolved_batch_width)
    /// from [`DEFAULT_BATCH_WIDTH`], with the victim's lane bytes
    /// ([`AttackKind::lane_bytes`](fle_attacks::AttackKind::lane_bytes)).
    /// It is 1 (every trial scalar) on any timed net, under any fault
    /// spec, and for kinds whose trials do not batch.
    pub fn resolved_batch_width(&self) -> usize {
        match self.attack.lane_bytes(self.n) {
            Some(bytes) if self.schedule.timed_net().is_none() && self.fault.is_none() => {
                fit_lane_width(DEFAULT_BATCH_WIDTH, &self.batch, bytes)
            }
            _ => 1,
        }
    }

    /// The `(seed, fn_key, target)` of global trial `index`, whose
    /// derived seed is `derived`.
    fn trial_args(&self, index: u64, derived: u64) -> (u64, u64, u64) {
        let seed = self.seed_mode.resolve(index, derived);
        (
            seed,
            self.fn_key.resolve(seed),
            self.target.resolve(seed, self.n),
        )
    }
}

/// Runs an attack sweep on an explicit (possibly asymmetric, per-edge)
/// [`TimedNetConfig`] instead of the uniform net implied by
/// `cfg.schedule` — the one case a [`ScheduleSpec`](crate::ScheduleSpec)
/// cannot express. This is the entry point for experiments that place
/// slow links *relative to the coalition* (e.g. adversary placement vs.
/// asymmetric latency); everything else — worker batching, seed streams,
/// report aggregation, thread-count invariance — is identical to
/// [`run_sweep`](crate::run_sweep), and the trials run scalar, as on any
/// timed net.
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
/// arena and result buffers are all reused, so a trial allocates only
/// the coalition nodes its attack builds (see [`AttackRunner`]). Where
/// [`AttackSweep::resolved_batch_width`] (1 on any `net`) exceeds 1, the
/// worker runs its trials in lockstep groups of that width, the last one
/// of its piece narrower ([`AttackRunner::run_group`]), and reruns scalar
/// the groups that cannot run or diverge, so the partial is the same at
/// every width. Trials whose per-instance preconditions fail count as
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
    let width = if net.is_some() {
        1
    } else {
        cfg.resolved_batch_width()
    };
    let base_seed = cfg.batch.base_seed;
    let label = format!("{}:{}", cfg.attack.protocol_name(), cfg.attack.name());
    let mut empty = ReportPartial::new_attack(&label, cfg.n, base_seed, cfg.batch.trials);
    if fcfg.is_some() {
        empty = empty.with_faults();
    }
    Ok(ReportPartial::merged(run_batch_range_grouped(
        &cfg.batch,
        start,
        end,
        width,
        || {
            let mut runner =
                build_runner(cfg.attack, cfg.n, &coalition).expect("layout validated above");
            runner.set_timed_net(net);
            runner.set_faults(fcfg.as_ref());
            (runner, Vec::with_capacity(width))
        },
        |(runner, trials): &mut (Box<dyn AttackRunner>, Vec<_>), gstart, width, out| {
            trials.clear();
            trials.extend(
                (gstart..gstart + width as u64)
                    .map(|index| cfg.trial_args(index, trial_seed(base_seed, index))),
            );
            runner.run_group(trials, &mut |r| out.push(Some(ran(r.exec, r.success))));
        },
        |(runner, _), index, derived| {
            let (seed, fn_key, target) = cfg.trial_args(index, derived);
            // Infeasible trials never ran, so they never crashed.
            runner
                .run_trial(seed, fn_key, target)
                .map_or((None, false, false), |r| ran(r.exec, r.success))
        },
        || empty.clone(),
        ReportPartial::record_trial,
    )))
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

    /// The attack width follows the honest width rule from the default
    /// of 16 (8·n² + 32·n bytes per A-LEADuni lane, under 256 MiB over
    /// every thread) and is 1 wherever attack lanes cannot run.
    #[test]
    fn attack_width_follows_the_lane_memory_rule() {
        use crate::spec::FaultSpec;
        use ring_sim::{CrashInstant, LatencySpec};
        let sweep = |threads, n| AttackSweep {
            n,
            batch: BatchConfig {
                trials: 64,
                base_seed: 0,
                threads,
            },
            ..rushing_sweep(threads, SeedMode::Derived)
        };
        assert_eq!(sweep(1, 16).resolved_batch_width(), 16);
        assert_eq!(sweep(1, 2048).resolved_batch_width(), 7);
        assert_eq!(sweep(2, 2048).resolved_batch_width(), 3);
        let timed = AttackSweep {
            schedule: ScheduleSpec::Timed {
                latency: LatencySpec::ZERO,
                loss_permille: 0,
                dup_permille: 0,
            },
            ..sweep(1, 16)
        };
        let faulty = AttackSweep {
            fault: Some(FaultSpec {
                crashes: 1,
                window: CrashInstant::Deliveries(10),
                recover: Some(5),
            }),
            ..sweep(1, 16)
        };
        let phase = AttackSweep {
            attack: AttackKind::PhaseRushing,
            ..sweep(1, 16)
        };
        let wakeup = AttackSweep {
            attack: AttackKind::WakeupMask,
            ..sweep(1, 16)
        };
        for cfg in [timed, faulty, phase, wakeup] {
            assert_eq!(cfg.resolved_batch_width(), 1, "{cfg:?}");
        }
    }
}
