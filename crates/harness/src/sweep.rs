//! Protocol-level batch sweeps with per-worker engine reuse.

use crate::attack::attack_partial;
use crate::partial::{ran, ReportPartial, Trial};
use crate::spec::{FaultSpec, ScheduleSpec, SweepSpec};
use crate::tree::tree_partial;
use crate::{run_batch_range_grouped, trial_seed, BatchConfig, TrialReport};
use fle_core::protocols::{
    ALeadUni, BasicLead, LockstepProtocol, PhaseAsyncLead, PhaseSumLead, TrialCache,
};
use ring_sim::batch::LaneClock;
use ring_sim::{Execution, FaultConfig, FaultPlan, TimedNetConfig};

/// The ring protocols the harness can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Appendix B's non-resilient strawman (`n ≥ 2`).
    BasicLead,
    /// Abraham et al.'s buffered protocol (`n ≥ 2`).
    ALeadUni,
    /// The paper's Θ(√n)-resilient protocol (`n ≥ 4`).
    PhaseAsyncLead,
    /// The Appendix E.4 ablation (`n ≥ 4`).
    PhaseSumLead,
}

impl ProtocolKind {
    /// All sweepable protocols, in paper order.
    pub const ALL: &'static [ProtocolKind] = &[
        ProtocolKind::BasicLead,
        ProtocolKind::ALeadUni,
        ProtocolKind::PhaseAsyncLead,
        ProtocolKind::PhaseSumLead,
    ];

    /// The protocol's display name (matches
    /// [`fle_core::protocols::FleProtocol::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::BasicLead => "Basic-LEAD",
            ProtocolKind::ALeadUni => "A-LEADuni",
            ProtocolKind::PhaseAsyncLead => "PhaseAsyncLead",
            ProtocolKind::PhaseSumLead => "PhaseSumLead",
        }
    }

    /// Bytes one lockstep lane holds on a ring of `n`
    /// ([`LockstepProtocol::lane_bytes`]).
    fn lane_bytes(&self, n: usize) -> u64 {
        match self {
            ProtocolKind::BasicLead => BasicLead::lane_bytes(n),
            ProtocolKind::ALeadUni => ALeadUni::lane_bytes(n),
            ProtocolKind::PhaseAsyncLead => PhaseAsyncLead::lane_bytes(n),
            ProtocolKind::PhaseSumLead => PhaseSumLead::lane_bytes(n),
        }
    }
}

impl std::str::FromStr for ProtocolKind {
    type Err = String;

    /// Parses a CLI spelling: `basic`, `alead`, `phase`, `phasesum` (or
    /// the full display names, case-insensitively, with `-` stripped).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let key: String = s
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .collect::<String>()
            .to_ascii_lowercase();
        match key.as_str() {
            "basic" | "basiclead" => Ok(ProtocolKind::BasicLead),
            "alead" | "aleaduni" => Ok(ProtocolKind::ALeadUni),
            "phase" | "phaseasynclead" => Ok(ProtocolKind::PhaseAsyncLead),
            "phasesum" | "phasesumlead" => Ok(ProtocolKind::PhaseSumLead),
            _ => Err(format!(
                "unknown protocol '{s}' (expected basic | alead | phase | phasesum)"
            )),
        }
    }
}

/// The lockstep batch width [`HonestSweep::batch_width`] 0 resolves to,
/// and the width attack sweeps run their batching kinds at.
pub const DEFAULT_BATCH_WIDTH: usize = 16;

/// The largest accepted [`HonestSweep::batch_width`]: beyond this the
/// lane state stops fitting in cache and the fast path only gets slower.
pub const MAX_BATCH_WIDTH: usize = 1024;

/// The bytes all lockstep lanes of a sweep may hold at once, over every
/// worker thread: [`HonestSweep::resolved_batch_width`] lowers the width
/// until threads × width × a lane's bytes fits, down to 1 (the scalar
/// path, which holds no lanes). The default width of 16 fits phase rings
/// of n = 64 on up to 214 threads.
pub const LANE_MEMORY_CEILING: u64 = 256 << 20;

/// One honest protocol sweep: which protocol, at what size, over which
/// batch. Wrap in [`SweepSpec::Honest`] (or use `.into()`) to dispatch
/// through [`run_sweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HonestSweep {
    /// The protocol to run honestly.
    pub protocol: ProtocolKind,
    /// Ring size.
    pub n: usize,
    /// Key of the random function `f` (used by `PhaseAsyncLead` only).
    pub fn_key: u64,
    /// Trial count, base seed and worker threads.
    pub batch: BatchConfig,
    /// Lockstep batch width `k`: trials run `k` at a time through the
    /// lockstep engine (`ring_sim::batch`), and the last
    /// trials of each worker's piece as one narrower group (a lone last
    /// trial runs scalar). 0 resolves to [`DEFAULT_BATCH_WIDTH`]; 1
    /// forces the scalar path, which runs each trial through a
    /// [`TrialCache`] with no coalition, as the attack runners do.
    /// Schedules and faults the lanes cannot follow run scalar, and the
    /// memory ceiling can lower the width (see
    /// [`HonestSweep::resolved_batch_width`]). Results are bit-identical
    /// for every width.
    pub batch_width: usize,
    /// Delivery discipline (FIFO fast path or timed network).
    pub schedule: ScheduleSpec,
    /// Optional crash-fault injection: per trial, a deterministic
    /// [`FaultPlan`] is drawn from the trial seed's fault stream. With
    /// recovery, lockstep groups carry one plan per lane. A lane whose
    /// crash drops none of its activations keeps its lockstep result, and
    /// so does a lane whose run the crash ends on the spot (every message
    /// then in flight is dropped too); only the other trials a crash hits
    /// rerun scalar. Crash-stop faults run every trial scalar.
    pub fault: Option<FaultSpec>,
}

impl HonestSweep {
    /// The lockstep width this sweep actually runs with: the configured
    /// width (0 → [`DEFAULT_BATCH_WIDTH`]), lowered until the sweep's
    /// threads × width × a lane's bytes fits [`LANE_MEMORY_CEILING`].
    ///
    /// It is 1 (scalar) on a timed net whose links are not all one
    /// constant latency ([`TimedNetConfig::constant_latency`]: latency
    /// draws, loss and duplication are per-trial noise), and under
    /// crash-stop faults, which hit nearly every lane: a hit settles in
    /// place only if every message then queued drops too, which
    /// Basic-LEAD's token per node in flight all but rules out, so its
    /// crash-stop lanes would mostly add a lockstep run to each scalar
    /// rerun (5,000 trials at n = 64 under `--crash 1@2000` took 12%
    /// longer on 16 lanes than scalar, on a 2-vCPU Xeon VM). Recovering
    /// faults keep the width.
    pub fn resolved_batch_width(&self) -> usize {
        let lanes_follow_net = self
            .schedule
            .timed_net()
            .is_none_or(|net| net.constant_latency().is_some());
        let lanes_follow_faults = self.fault.is_none_or(|f| f.recover.is_some());
        if !lanes_follow_net || !lanes_follow_faults {
            return 1;
        }
        let width = match self.batch_width {
            0 => DEFAULT_BATCH_WIDTH,
            w => w,
        };
        fit_lane_width(width, &self.batch, self.protocol.lane_bytes(self.n))
    }
}

/// The memory rule every lockstep sweep's width follows: `width`, lowered
/// until the batch's threads × width × `lane_bytes` fits
/// [`LANE_MEMORY_CEILING`], down to 1.
pub(crate) fn fit_lane_width(width: usize, batch: &BatchConfig, lane_bytes: u64) -> usize {
    let per_lane = (batch.resolved_threads() as u64)
        .saturating_mul(lane_bytes)
        .max(1);
    width.min((LANE_MEMORY_CEILING / per_lane).max(1) as usize)
}

/// Per-worker state of one honest protocol sweep: the hoisted protocol
/// instance, the sweep's fault configuration, the scalar [`TrialCache`]
/// (configured once with the sweep's timed net and faults), the lockstep
/// cache with its seed and per-lane plan buffers and the clock its plans
/// run on, and the reused [`Execution`] out-parameter of lockstep lanes.
/// Once every buffer has reached its steady-state capacity — after the
/// first trial — a trial performs *no* heap allocation at all, node
/// construction included (phase-node stores are drawn from and reclaimed
/// into the cache's arena).
struct HonestWorker<P: LockstepProtocol> {
    protocol: P,
    fault: Option<FaultConfig>,
    scalar: TrialCache<P::Msg, P::Node, P::Node>,
    batch: P::BatchCache,
    seeds: Vec<u64>,
    plans: Vec<FaultPlan>,
    clock: LaneClock,
    exec: Execution,
}

impl<P: LockstepProtocol> HonestWorker<P> {
    fn new(protocol: P, net: Option<&TimedNetConfig>, fault: Option<FaultConfig>) -> Self {
        let n = protocol.n();
        // Lockstep groups under faults only run on FIFO or constant-latency
        // nets (`resolved_batch_width`); any other net never forms a group.
        let clock = match net.and_then(TimedNetConfig::constant_latency) {
            Some(latency) => LaneClock::Latency(latency),
            None => LaneClock::Deliveries,
        };
        let mut scalar = TrialCache::ring(n);
        scalar.set_timed_net(net);
        scalar.set_faults(fault.as_ref());
        Self {
            protocol,
            fault,
            scalar,
            batch: P::batch_cache(n),
            seeds: Vec::new(),
            plans: Vec::new(),
            clock,
            exec: Execution::default(),
        }
    }

    /// Runs trials `gstart..gstart + width` as one lockstep group, with
    /// exactly the seeds the scalar path would derive for those indices
    /// and, under faults, one plan per lane drawn from each lane's seed.
    /// Pushes one entry per lane, `None` for a lane a crash sent back to
    /// scalar ([`LockstepEngine::lane_hit`]: hit and not settled at the
    /// hit); pushes nothing if the group diverged.
    ///
    /// [`LockstepEngine::lane_hit`]: ring_sim::batch::LockstepEngine::lane_hit
    fn group(&mut self, base_seed: u64, gstart: u64, width: usize, out: &mut Vec<Option<Trial>>) {
        self.seeds.clear();
        self.seeds
            .extend((0..width as u64).map(|j| trial_seed(base_seed, gstart + j)));
        if let Some(cfg) = &self.fault {
            let n = self.protocol.n();
            self.plans.resize_with(width, FaultPlan::none);
            for (plan, &seed) in self.plans.iter_mut().zip(&self.seeds) {
                plan.draw_into(cfg, n, seed);
            }
            P::lockstep_engine(&mut self.batch).set_fault_plans(&self.plans, self.clock);
        }
        if !self
            .protocol
            .run_honest_batch_into(&self.seeds, &mut self.batch)
        {
            return;
        }
        let lanes = P::lockstep_engine(&mut self.batch);
        for lane in 0..width {
            out.push((!lanes.lane_hit(lane)).then(|| {
                lanes.execution_into(lane, &mut self.exec);
                ran(&self.exec, false)
            }));
        }
    }

    /// Runs one honest trial scalar, through the same [`TrialCache`] path
    /// the attack runners take with no coalition: on the timed net when
    /// one is set (its noise stream derived from `seed`), under a
    /// crash-fault plan drawn from `seed`'s fault stream
    /// ([`ring_sim::FAULT_STREAM_SALT`]) when faults are configured.
    fn trial(&mut self, seed: u64) -> Trial {
        self.scalar.set_trial_seed(seed);
        ran(
            self.scalar.run(&self.protocol.seeded(seed), Vec::new()),
            false,
        )
    }
}

/// Trials `start..end` of an honest sweep of `protocol`: lockstep groups
/// where the sweep's width allows, scalar trials elsewhere, and a partial
/// that carries the crash counters ([`ReportPartial::with_faults`]) when
/// the sweep draws fault plans.
///
/// Each worker thread owns one [`HonestWorker`] and a copy of
/// `protocol`, whose seed-independent state (`PhaseParams`, the keyed
/// `RandomFn`, the ring size) is built *once* per sweep; each trial
/// derives its seeded copy from it, so steady-state trials allocate
/// nothing. Each worker records its trials into its own copy of the
/// empty partial as they end, and the copies merge in index order.
/// Panicking trials are contained as recorded faults.
fn honest_partial<P: LockstepProtocol + Clone + Sync>(
    cfg: &HonestSweep,
    start: u64,
    end: u64,
    protocol: P,
) -> ReportPartial {
    let width = cfg.resolved_batch_width();
    let base_seed = cfg.batch.base_seed;
    let net = cfg.schedule.timed_net();
    let fault = cfg.fault.map(|f| f.config());
    let mut empty =
        ReportPartial::new_honest(cfg.protocol.name(), cfg.n, base_seed, cfg.batch.trials);
    if fault.is_some() {
        empty = empty.with_faults();
    }
    ReportPartial::merged(run_batch_range_grouped(
        &cfg.batch,
        start,
        end,
        width,
        || HonestWorker::new(protocol.clone(), net.as_ref(), fault),
        |w, gstart, width, out| w.group(base_seed, gstart, width, out),
        |w, _i, seed| w.trial(seed),
        || empty.clone(),
        ReportPartial::record_trial,
    ))
}

/// Runs any [`SweepSpec`] — honest, attack or tree-dictator — and
/// aggregates it into a [`TrialReport`]: `run_sweep_partial` over the
/// whole trial range, finished. The report (and its JSON/CSV
/// serializations) is byte-identical for every thread count.
///
/// # Errors
///
/// As for [`run_sweep_partial`].
///
/// # Panics
///
/// As for [`run_sweep_partial`].
pub fn run_sweep(spec: &SweepSpec) -> Result<TrialReport, String> {
    run_sweep_partial(spec, 0, spec.batch().trials)?.finish()
}

/// Runs trials `start..end` of any [`SweepSpec`] into a mergeable
/// [`ReportPartial`] — the primitive sharding and checkpointing are built
/// on. Disjoint ranges [`merge`](ReportPartial::merge) and
/// [`finish`](ReportPartial::finish) to bytes identical to
/// [`run_sweep`] over the full range.
///
/// Every worker thread owns reusable per-sweep state — a
/// [`TrialCache`] (engine, queues, arena and result buffers), directly
/// for honest sweeps and inside one cached runner
/// ([`fle_attacks::build_runner`]) for attack grids — so steady-state
/// honest trials are allocation-free, and attack trials allocate only
/// their coalition's nodes. Honest trials run in lockstep groups of
/// [`HonestSweep::resolved_batch_width`], attack trials in groups of
/// [`AttackSweep::resolved_batch_width`](crate::AttackSweep::resolved_batch_width);
/// a group that cannot run in lockstep reruns its trials scalar, so the
/// partial is the same at every width. Attack trials whose per-instance
/// preconditions fail count as `infeasible`; panicking trials are
/// contained as recorded faults.
///
/// # Errors
///
/// If the range exceeds the spec's trial count, or the spec violates a
/// constructor precondition (e.g. an unresolvable coalition or a layout
/// the attack rejects) — the same conditions [`SweepSpec::validate`]
/// reports.
///
/// # Panics
///
/// Panics if `n` is below an honest protocol's minimum ring size (honest
/// specs have no runner-layer checks; call [`SweepSpec::validate`]
/// first).
pub fn run_sweep_partial(spec: &SweepSpec, start: u64, end: u64) -> Result<ReportPartial, String> {
    let trials = spec.batch().trials;
    if start > end || end > trials {
        return Err(format!(
            "trial range [{start}, {end}) invalid for a sweep of {trials} trials"
        ));
    }
    match spec {
        SweepSpec::Honest(cfg) => Ok(match cfg.protocol {
            ProtocolKind::BasicLead => honest_partial(cfg, start, end, BasicLead::new(cfg.n)),
            ProtocolKind::ALeadUni => honest_partial(cfg, start, end, ALeadUni::new(cfg.n)),
            ProtocolKind::PhaseAsyncLead => {
                let p = PhaseAsyncLead::new(cfg.n).with_fn_key(cfg.fn_key);
                honest_partial(cfg, start, end, p)
            }
            ProtocolKind::PhaseSumLead => honest_partial(cfg, start, end, PhaseSumLead::new(cfg.n)),
        }),
        SweepSpec::Attack(cfg) => {
            attack_partial(cfg, cfg.schedule.timed_net().as_ref(), start, end)
        }
        SweepSpec::TreeDictator(cfg) => tree_partial(cfg, start, end),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial_seed;
    use fle_core::protocols::FleProtocol;

    #[test]
    fn protocol_kind_parses() {
        assert_eq!("basic".parse::<ProtocolKind>(), Ok(ProtocolKind::BasicLead));
        assert_eq!(
            "A-LEADuni".parse::<ProtocolKind>(),
            Ok(ProtocolKind::ALeadUni)
        );
        assert_eq!(
            "phase".parse::<ProtocolKind>(),
            Ok(ProtocolKind::PhaseAsyncLead)
        );
        assert_eq!(
            "PhaseSumLead".parse::<ProtocolKind>(),
            Ok(ProtocolKind::PhaseSumLead)
        );
        assert!("nope".parse::<ProtocolKind>().is_err());
    }

    #[test]
    fn sweep_accounts_every_trial() {
        for &protocol in ProtocolKind::ALL {
            let report = run_sweep(&SweepSpec::Honest(HonestSweep {
                protocol,
                n: 6,
                fn_key: 3,
                batch: BatchConfig {
                    trials: 20,
                    base_seed: 2,
                    threads: 1,
                },
                batch_width: 0,
                schedule: ScheduleSpec::Fifo,
                fault: None,
            }))
            .expect("valid spec");
            assert_eq!(report.protocol, protocol.name());
            assert_eq!(
                report.elected() + report.out_of_range + report.fails.total(),
                20,
                "{protocol:?}"
            );
            // Honest runs never fail.
            assert_eq!(report.fails.total(), 0, "{protocol:?}");
            assert_eq!(report.out_of_range, 0, "{protocol:?}");
        }
    }

    #[test]
    fn zero_profile_timed_sweep_matches_fifo_sweep() {
        use ring_sim::LatencySpec;
        for &protocol in ProtocolKind::ALL {
            let base = HonestSweep {
                protocol,
                n: 8,
                fn_key: 5,
                batch: BatchConfig {
                    trials: 25,
                    base_seed: 11,
                    threads: 1,
                },
                batch_width: 0,
                schedule: ScheduleSpec::Fifo,
                fault: None,
            };
            let fifo = run_sweep(&base.into()).expect("valid spec");
            let timed = run_sweep(
                &HonestSweep {
                    schedule: ScheduleSpec::Timed {
                        latency: LatencySpec::ZERO,
                        loss_permille: 0,
                        dup_permille: 0,
                    },
                    ..base
                }
                .into(),
            )
            .expect("valid spec");
            assert_eq!(timed.to_json(), fifo.to_json(), "{protocol:?}");
        }
    }

    #[test]
    fn sweep_matches_direct_protocol_runs() {
        let n = 8;
        let batch = BatchConfig {
            trials: 12,
            base_seed: 9,
            threads: 1,
        };
        let report = run_sweep(&SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::ALeadUni,
            n,
            fn_key: 0,
            batch,
            batch_width: 0,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        }))
        .expect("valid spec");
        let mut wins = vec![0u64; n];
        for i in 0..batch.trials {
            let exec = ALeadUni::new(n)
                .with_seed(trial_seed(batch.base_seed, i))
                .run_honest();
            wins[exec.outcome.elected().expect("honest") as usize] += 1;
        }
        assert_eq!(report.wins, wins);
        // A-LEADuni sends exactly n² messages in every honest run.
        assert_eq!(report.messages.min, (n * n) as u64);
        assert_eq!(report.messages.max, (n * n) as u64);
    }
}
