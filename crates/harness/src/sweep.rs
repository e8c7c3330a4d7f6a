//! Protocol-level batch sweeps with per-worker engine reuse.

use crate::partial::ReportPartial;
use crate::spec::{FaultSpec, ScheduleSpec, SweepSpec};
use crate::{
    run_attack_partial, run_attack_sweep, run_batch_range_grouped, run_tree_partial,
    run_tree_sweep, trial_seed, BatchConfig, TrialOutcome, TrialReport,
};
use fle_core::protocols::{
    run_ring_honest_pooled_into, run_ring_honest_timed_into, ALeadUni, BasicLead, LockstepProtocol,
    PhaseAsyncLead, PhaseSumLead,
};
use ring_sim::{
    Engine, Execution, FaultConfig, FaultPlan, FifoScheduler, NodeId, TimedNetConfig,
    TimedScheduler, Topology, TrialArena,
};

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

/// The lockstep batch width [`HonestSweep::batch_width`] 0 resolves to.
pub const DEFAULT_BATCH_WIDTH: usize = 8;

/// The largest accepted [`HonestSweep::batch_width`]: beyond this the
/// lane state stops fitting in cache and the fast path only gets slower.
pub const MAX_BATCH_WIDTH: usize = 1024;

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
    /// structure-of-arrays engine (`ring_sim::batch`). 0 resolves to
    /// [`DEFAULT_BATCH_WIDTH`]; 1 forces the scalar path; timed
    /// schedules always run scalar. Results are bit-identical for every
    /// width.
    pub batch_width: usize,
    /// Delivery discipline (FIFO fast path or timed network).
    pub schedule: ScheduleSpec,
    /// Optional crash-fault injection: per trial, a deterministic
    /// [`FaultPlan`] is drawn from the trial seed's fault stream and
    /// installed on the engine. Forces the scalar trial path.
    pub fault: Option<FaultSpec>,
}

impl HonestSweep {
    /// The lockstep width this sweep actually runs with: the configured
    /// width (0 → [`DEFAULT_BATCH_WIDTH`]), forced to 1 (scalar) under a
    /// timed schedule (whose per-delivery noise streams are inherently
    /// per-trial) or a fault plan (whose crash instants diverge trials
    /// immediately).
    pub fn resolved_batch_width(&self) -> usize {
        if self.schedule.timed_net().is_some() || self.fault.is_some() {
            return 1;
        }
        match self.batch_width {
            0 => DEFAULT_BATCH_WIDTH,
            w => w,
        }
    }
}

/// Per-worker state of one honest protocol sweep: the hoisted protocol
/// instance, the sweep's timed net and fault configuration (each optional),
/// a reusable [`Engine`], the monomorphized node vector, the (constant)
/// wake list, a pooled FIFO scheduler and timed heap, the per-worker
/// [`TrialArena`] node-state pool, the lockstep cache and its seed buffer,
/// the fault-plan buffer and the reused [`Execution`] out-parameter. Once every buffer has reached its steady-state
/// capacity — after the first trial — a trial performs *no* heap
/// allocation at all, node construction included (phase-node stores are
/// drawn from and reclaimed into the arena).
struct HonestWorker<P: LockstepProtocol> {
    protocol: P,
    net: Option<TimedNetConfig>,
    fault: Option<FaultConfig>,
    engine: Engine<P::Msg>,
    nodes: Vec<P::Node>,
    wakes: Vec<NodeId>,
    scheduler: FifoScheduler,
    timed: TimedScheduler<P::Msg>,
    arena: TrialArena,
    batch: P::BatchCache,
    seeds: Vec<u64>,
    plan: FaultPlan,
    exec: Execution,
}

impl<P: LockstepProtocol> HonestWorker<P> {
    fn new(protocol: P, net: Option<TimedNetConfig>, fault: Option<FaultConfig>) -> Self {
        let n = protocol.n();
        Self {
            protocol,
            net,
            fault,
            engine: Engine::new(Topology::ring(n)),
            nodes: Vec::with_capacity(n),
            wakes: P::WAKES.ids(n),
            scheduler: FifoScheduler::new(),
            timed: TimedScheduler::new(),
            arena: TrialArena::new(),
            batch: P::batch_cache(n),
            seeds: Vec::new(),
            plan: FaultPlan::none(),
            exec: Execution::default(),
        }
    }

    /// Runs trials `gstart..gstart + width` as one lockstep group, with
    /// exactly the seeds the scalar path would derive for those indices.
    /// Returns `false` if the group diverged.
    fn group(&mut self, base_seed: u64, gstart: u64, width: usize, out: &mut Vec<Trial>) -> bool {
        self.seeds.clear();
        self.seeds
            .extend((0..width as u64).map(|j| trial_seed(base_seed, gstart + j)));
        if !self
            .protocol
            .run_honest_batch_into(&self.seeds, &mut self.batch)
        {
            return false;
        }
        for lane in 0..width {
            P::execution_into(&self.batch, lane, &mut self.exec);
            out.push((TrialOutcome::of(&self.exec), false));
        }
        true
    }

    /// Runs one honest trial through the arena-pooled engine path: on the
    /// timed net when one is set (its noise stream derived from `seed`),
    /// under a crash-fault plan drawn from `seed`'s fault stream
    /// ([`ring_sim::FAULT_STREAM_SALT`]) when faults are configured.
    fn trial(&mut self, seed: u64) -> Trial {
        let n = self.engine.topology().len();
        if let Some(cfg) = &self.fault {
            self.plan.draw_into(cfg, n, seed);
            self.engine.set_fault_plan(&self.plan);
        }
        let p = self.protocol.seeded(seed);
        let honest = |id, arena: &mut TrialArena| p.honest_ring_node_in(id, arena);
        let Self {
            net,
            engine,
            nodes,
            wakes,
            scheduler,
            timed,
            arena,
            exec,
            ..
        } = self;
        match net {
            Some(net) => run_ring_honest_timed_into(
                engine, n, honest, wakes, nodes, timed, net, seed, arena, exec,
            ),
            None => {
                run_ring_honest_pooled_into(engine, n, honest, wakes, nodes, scheduler, arena, exec)
            }
        }
        (TrialOutcome::of(exec), exec.stats.crashes > 0)
    }
}

/// One honest trial's outcome and whether a planned crash fired.
type Trial = (TrialOutcome, bool);

/// Runs `batch.trials` honest executions of the configured protocol, one
/// deterministic seed per trial, and aggregates them into a
/// [`TrialReport`].
///
/// Each worker thread owns one sweep worker — a reusable [`Engine`] plus
/// monomorphized node, scheduler, arena, lockstep and result buffers —
/// and a copy of the protocol instance, whose seed-independent state
/// (`PhaseParams`, the keyed `RandomFn`, the ring size) is built *once*
/// per sweep; each trial derives its seeded copy from it, so
/// steady-state trials allocate nothing. The report (and its JSON/CSV
/// serializations) is byte-identical for every thread count.
///
/// # Panics
///
/// Panics if `n` is below the protocol's minimum ring size.
pub fn run_honest_sweep(cfg: &HonestSweep) -> TrialReport {
    run_honest_partial(cfg, 0, cfg.batch.trials)
        .finish()
        .expect("full-range partial always finishes")
}

/// Runs trials `start..end` of the honest sweep (global indices and
/// seeds, as in [`run_batch_range_grouped`]) into a mergeable
/// [`ReportPartial`].
/// Panicking trials are contained as recorded faults.
///
/// `run_honest_partial(cfg, 0, trials).finish()` is exactly
/// [`run_honest_sweep`]; disjoint ranges merge to the same bytes.
///
/// # Panics
///
/// Panics if `n` is below the protocol's minimum ring size or the range
/// is out of bounds.
pub fn run_honest_partial(cfg: &HonestSweep, start: u64, end: u64) -> ReportPartial {
    let n = cfg.n;
    match cfg.protocol {
        ProtocolKind::BasicLead => honest_partial(cfg, start, end, BasicLead::new(n)),
        ProtocolKind::ALeadUni => honest_partial(cfg, start, end, ALeadUni::new(n)),
        ProtocolKind::PhaseAsyncLead => {
            let p = PhaseAsyncLead::new(n).with_fn_key(cfg.fn_key);
            honest_partial(cfg, start, end, p)
        }
        ProtocolKind::PhaseSumLead => honest_partial(cfg, start, end, PhaseSumLead::new(n)),
    }
}

/// [`run_honest_partial`] for one protocol: lockstep groups where the
/// sweep's width allows, scalar trials elsewhere, and a partial that
/// carries the crash counters ([`ReportPartial::with_faults`]) when the
/// sweep draws fault plans.
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
    let outcomes = run_batch_range_grouped(
        &cfg.batch,
        start,
        end,
        width,
        || HonestWorker::new(protocol.clone(), net.clone(), fault),
        |w, gstart, out| w.group(base_seed, gstart, width, out),
        |w, _i, seed| w.trial(seed),
    );
    let mut partial =
        ReportPartial::new_honest(cfg.protocol.name(), cfg.n, base_seed, cfg.batch.trials);
    if fault.is_some() {
        partial = partial.with_faults();
    }
    for (i, slot) in outcomes.into_iter().enumerate() {
        let index = start + i as u64;
        match slot {
            Ok((outcome, crashed)) if fault.is_some() => {
                partial.record_faulty(index, outcome, crashed)
            }
            Ok((outcome, _)) => partial.record(index, outcome),
            Err(fault) => partial.record_fault(fault),
        }
    }
    partial
}

/// Runs any [`SweepSpec`] — honest, attack or tree-dictator — and
/// aggregates it into a [`TrialReport`]. The report (and its JSON/CSV
/// serializations) is byte-identical for every thread count.
///
/// Attack and tree grids dispatch onto per-worker caches
/// ([`run_attack_sweep`] / [`run_tree_sweep`]) so steady-state trials
/// are allocation-free.
///
/// # Errors
///
/// If the spec violates a constructor precondition (e.g. an infeasible
/// coalition layout) — the same conditions [`SweepSpec::validate`]
/// reports.
///
/// # Panics
///
/// Panics if `n` is below an honest protocol's minimum ring size (honest
/// specs have no runner-layer checks; call [`SweepSpec::validate`]
/// first).
pub fn run_sweep(spec: &SweepSpec) -> Result<TrialReport, String> {
    match spec {
        SweepSpec::Honest(cfg) => Ok(run_honest_sweep(cfg)),
        SweepSpec::Attack(cfg) => run_attack_sweep(cfg),
        SweepSpec::TreeDictator(cfg) => run_tree_sweep(cfg),
    }
}

/// Runs trials `start..end` of any [`SweepSpec`] into a mergeable
/// [`ReportPartial`] — the primitive sharding and checkpointing are built
/// on. Disjoint ranges [`merge`](ReportPartial::merge) and
/// [`finish`](ReportPartial::finish) to bytes identical to
/// [`run_sweep`] over the full range.
///
/// # Errors
///
/// If the range exceeds the spec's trial count or the spec is invalid.
pub fn run_sweep_partial(spec: &SweepSpec, start: u64, end: u64) -> Result<ReportPartial, String> {
    let trials = spec.batch().trials;
    if start > end || end > trials {
        return Err(format!(
            "trial range [{start}, {end}) invalid for a sweep of {trials} trials"
        ));
    }
    match spec {
        SweepSpec::Honest(cfg) => Ok(run_honest_partial(cfg, start, end)),
        SweepSpec::Attack(cfg) => run_attack_partial(cfg, start, end),
        SweepSpec::TreeDictator(cfg) => run_tree_partial(cfg, start, end),
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
            let fifo = run_honest_sweep(&base);
            let timed = run_honest_sweep(&HonestSweep {
                schedule: ScheduleSpec::Timed {
                    latency: LatencySpec::ZERO,
                    loss_permille: 0,
                    dup_permille: 0,
                },
                ..base
            });
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
        let report = run_honest_sweep(&HonestSweep {
            protocol: ProtocolKind::ALeadUni,
            n,
            fn_key: 0,
            batch,
            batch_width: 0,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        });
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
