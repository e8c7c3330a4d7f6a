//! Micro-arms: one layer's public entry point, timed alone at the
//! workload's protocol and ring size.
//!
//! The replay sees no further than one `run_sweep_partial` call per
//! worker range, so the layers inside it (worker construction, lockstep
//! groups, scheduler and links, node activation, `RandomFn`, the timed
//! heap, fault draws, the attack runner, `ReportPartial` recording) are
//! timed here. Layers the workload's sweep does
//! not call at all (lockstep on a scalar workload, the attack runner on
//! an honest one, checkpoint writes on an unsnapshotted one) are timed
//! here too, so that the prediction "no change" can be checked on them.
//! Each arm runs `REPS` times, interleaved with the others, and reports
//! its median.

use fle_attacks::{build_runner, AttackKind, AttackRunner};
use fle_core::protocols::{
    run_ring_honest_pooled_into, run_ring_honest_timed_into, ALeadBatchCache, ALeadNode, ALeadUni,
    PhaseAsyncLead, PhaseBatchCache, PhaseMsg, PhaseNode,
};
use fle_core::{Coalition, EvalTable, PhaseParams, RandomFn};
use fle_harness::{
    run_sweep_partial, sha256_hex, trial_seed, write_checkpoint, CrashInstant, FaultConfig,
    LatencySpec, ProtocolKind, ReportPartial, ScheduleSpec, SweepCheckpoint, SweepSpec,
    TrialOutcome,
};
use ring_sim::{
    ArenaBacked, Ctx, Engine, Execution, FaultPlan, FifoScheduler, Node, NodeId, TimedNetConfig,
    TimedScheduler, Topology, TrialArena,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repeats of every arm.
const REPS: usize = 5;
/// Minimum duration of one repeat of one arm.
const MIN_ARM: Duration = Duration::from_millis(15);
/// Seed base of the micro-arms' trials (independent of the workload seed,
/// so the arms measure the same work on every run).
const ARM_SEED: u64 = 0x5eed_0a11_ce00_5eed;
/// The lockstep width the harness defaults to.
const WIDTH: usize = fle_harness::DEFAULT_BATCH_WIDTH;
/// Trials whose outcomes the recording arm feeds to `ReportPartial`.
const RECORD_SAMPLE: u64 = 2_000;

/// An honest ring protocol the arms can drive.
trait Proto {
    type M: Clone;
    type N: Node<Self::M> + ArenaBacked;
    fn seeded(&self, seed: u64) -> Self;
    fn node(&self, id: NodeId, arena: &mut TrialArena) -> Self::N;
    fn wakes(&self) -> Vec<NodeId>;
}

/// A protocol with a lockstep batch path.
trait Lockstep: Proto {
    type Cache;
    fn cache(n: usize) -> Self::Cache;
    fn group(&self, seeds: &[u64], cache: &mut Self::Cache) -> bool;
    fn lane(cache: &Self::Cache, lane: usize, out: &mut Execution);
}

impl Proto for PhaseAsyncLead {
    type M = PhaseMsg;
    type N = PhaseNode;
    fn seeded(&self, seed: u64) -> Self {
        self.with_seed(seed)
    }
    fn node(&self, id: NodeId, arena: &mut TrialArena) -> PhaseNode {
        self.honest_ring_node_in(id, arena)
    }
    fn wakes(&self) -> Vec<NodeId> {
        PhaseAsyncLead::wakes(self)
    }
}

impl Lockstep for PhaseAsyncLead {
    type Cache = PhaseBatchCache;
    fn cache(n: usize) -> PhaseBatchCache {
        PhaseBatchCache::ring(n)
    }
    fn group(&self, seeds: &[u64], cache: &mut PhaseBatchCache) -> bool {
        self.run_honest_batch_into(seeds, cache)
    }
    fn lane(cache: &PhaseBatchCache, lane: usize, out: &mut Execution) {
        cache.execution_into(lane, out);
    }
}

impl Proto for ALeadUni {
    type M = u64;
    type N = ALeadNode;
    fn seeded(&self, seed: u64) -> Self {
        self.clone().with_seed(seed)
    }
    fn node(&self, id: NodeId, arena: &mut TrialArena) -> ALeadNode {
        self.honest_ring_node_in(id, arena)
    }
    fn wakes(&self) -> Vec<NodeId> {
        ALeadUni::wakes(self)
    }
}

impl Lockstep for ALeadUni {
    type Cache = ALeadBatchCache;
    fn cache(n: usize) -> ALeadBatchCache {
        ALeadBatchCache::ring(n)
    }
    fn group(&self, seeds: &[u64], cache: &mut ALeadBatchCache) -> bool {
        self.run_honest_batch_into(seeds, cache)
    }
    fn lane(cache: &ALeadBatchCache, lane: usize, out: &mut Execution) {
        cache.execution_into(lane, out);
    }
}

/// A trivial forwarding ring: the origin sends hop 1, every node forwards
/// hop `h + 1` until `total` deliveries, and the last `n` receivers
/// terminate. Same delivery count as the protocol, no protocol work.
#[derive(Clone, Copy)]
struct Relay {
    n: u64,
    total: u64,
}

impl Node<u64> for Relay {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(1);
    }

    fn on_message(&mut self, _from: NodeId, hop: u64, ctx: &mut Ctx<'_, u64>) {
        if hop < self.total {
            ctx.send(hop + 1);
        }
        if hop + self.n > self.total {
            ctx.terminate(Some(0));
        }
    }
}

impl ArenaBacked for Relay {}

impl Proto for Relay {
    type M = u64;
    type N = Relay;
    fn seeded(&self, _seed: u64) -> Self {
        *self
    }
    fn node(&self, _id: NodeId, _arena: &mut TrialArena) -> Relay {
        *self
    }
    fn wakes(&self) -> Vec<NodeId> {
        vec![0]
    }
}

/// Calls `step` (which returns the units of work it did) until `MIN_ARM`
/// has passed; returns nanoseconds per unit.
fn per_unit(mut step: impl FnMut() -> u64) -> f64 {
    step(); // warm: buffers reach their steady-state capacity
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += step();
        let elapsed = start.elapsed();
        if elapsed >= MIN_ARM && units > 0 {
            return elapsed.as_nanos() as f64 / units as f64;
        }
    }
}

/// A scalar honest worker's buffers (`Engine` plus `TrialArena` and the
/// schedulers), reused across trials as a harness worker reuses them.
struct Rig<P: Proto> {
    n: usize,
    engine: Engine<P::M>,
    nodes: Vec<P::N>,
    wakes: Vec<NodeId>,
    scheduler: FifoScheduler,
    timed: TimedScheduler<P::M>,
    arena: TrialArena,
    exec: Execution,
    plan: FaultPlan,
}

impl<P: Proto> Rig<P> {
    fn new(p: &P, n: usize) -> Self {
        Self {
            n,
            engine: Engine::new(Topology::ring(n)),
            nodes: Vec::with_capacity(n),
            wakes: p.wakes(),
            scheduler: FifoScheduler::new(),
            timed: TimedScheduler::new(),
            arena: TrialArena::new(),
            exec: Execution::default(),
            plan: FaultPlan::none(),
        }
    }

    /// One honest trial through `run_ring_honest_pooled_into`, or its
    /// timed twin when `net` is set, under a plan drawn from `fault`.
    fn trial(
        &mut self,
        p: &P,
        seed: u64,
        net: Option<&TimedNetConfig>,
        fault: Option<&FaultConfig>,
    ) -> &Execution {
        let n = self.n;
        if let Some(cfg) = fault {
            self.plan.draw_into(cfg, n, seed);
            self.engine.set_fault_plan(&self.plan);
        }
        let q = p.seeded(seed);
        let honest = |id, arena: &mut TrialArena| q.node(id, arena);
        match net {
            Some(net) => run_ring_honest_timed_into(
                &mut self.engine,
                n,
                honest,
                &self.wakes,
                &mut self.nodes,
                &mut self.timed,
                net,
                seed,
                &mut self.arena,
                &mut self.exec,
            ),
            None => run_ring_honest_pooled_into(
                &mut self.engine,
                n,
                honest,
                &self.wakes,
                &mut self.nodes,
                &mut self.scheduler,
                &mut self.arena,
                &mut self.exec,
            ),
        }
        &self.exec
    }
}

/// Fault-free honest trials: (ns per delivery, deliveries per trial).
fn engine_arm<P: Proto>(p: &P, n: usize, net: Option<&TimedNetConfig>) -> (f64, f64) {
    let mut rig = Rig::new(p, n);
    let (mut i, mut trials, mut delivered) = (0u64, 0u64, 0u64);
    let ns = per_unit(|| {
        i += 1;
        let d = rig
            .trial(p, trial_seed(ARM_SEED, i), net, None)
            .stats
            .delivered;
        trials += 1;
        delivered += d;
        d
    });
    (ns, delivered as f64 / trials as f64)
}

/// What one trial hands `ReportPartial::record*`: the outcome (`None`
/// when infeasible), attack success and whether a crash fired.
type Rec = (Option<TrialOutcome>, bool, bool);

fn rec_of(exec: &Execution, success: bool) -> Rec {
    (
        Some(TrialOutcome::of(exec)),
        success,
        exec.stats.crashes > 0,
    )
}

/// The outcomes of `RECORD_SAMPLE` honest trials on the workload's
/// schedule and fault plan.
fn honest_sample<P: Proto>(
    p: &P,
    n: usize,
    net: Option<&TimedNetConfig>,
    fault: Option<&FaultConfig>,
) -> Vec<Rec> {
    let mut rig = Rig::new(p, n);
    (0..RECORD_SAMPLE)
        .map(|i| rec_of(rig.trial(p, trial_seed(ARM_SEED, i), net, fault), false))
        .collect()
}

/// Lockstep groups of `WIDTH` honest trials: ns per delivery.
fn lockstep_arm<P: Lockstep>(p: &P, n: usize) -> f64 {
    let mut cache = P::cache(n);
    let mut seeds = Vec::with_capacity(WIDTH);
    let mut exec = Execution::default();
    let mut g = 0u64;
    per_unit(|| {
        seeds.clear();
        seeds.extend((0..WIDTH as u64).map(|j| trial_seed(ARM_SEED, g * WIDTH as u64 + j)));
        g += 1;
        if !p.group(&seeds, &mut cache) {
            return 0;
        }
        (0..WIDTH)
            .map(|lane| {
                P::lane(&cache, lane, &mut exec);
                exec.stats.delivered
            })
            .sum()
    })
}

/// The protocol a workload runs, at its ring size.
enum Subject {
    Phase(PhaseAsyncLead),
    ALead(ALeadUni),
}

impl Subject {
    fn of(spec: &SweepSpec) -> Result<(Subject, usize), String> {
        let (name, n, key) = match spec {
            SweepSpec::Honest(h) => (h.protocol.name(), h.n, h.fn_key),
            SweepSpec::Attack(a) => (a.attack.protocol_name(), a.n, 0),
            SweepSpec::TreeDictator(_) => return Err("tree sweeps have no ring".to_string()),
        };
        if name == ProtocolKind::PhaseAsyncLead.name() {
            Ok((Subject::Phase(PhaseAsyncLead::new(n).with_fn_key(key)), n))
        } else if name == ProtocolKind::ALeadUni.name() {
            Ok((Subject::ALead(ALeadUni::new(n)), n))
        } else {
            Err(format!("no micro-arms for protocol {name}"))
        }
    }
}

/// The workload's attack, or on an honest workload a rushing coalition of
/// ceil(sqrt(n)) equally spaced members aiming at node 3.
struct AttackArm {
    runner: Box<dyn AttackRunner>,
    trial: Box<dyn Fn(u64) -> (u64, u64, u64)>,
}

impl AttackArm {
    fn build(spec: &SweepSpec, n: usize) -> Result<AttackArm, String> {
        if let SweepSpec::Attack(a) = spec {
            let a = a.clone();
            let coalition = a.coalition.resolve(n)?;
            let mut runner = build_runner(a.attack, n, &coalition).map_err(|e| e.to_string())?;
            runner.set_timed_net(a.schedule.timed_net().as_ref());
            runner.set_faults(a.fault.map(|f| f.config()).as_ref());
            let trial = Box::new(move |i: u64| {
                let seed = a.seed_mode.resolve(i, trial_seed(ARM_SEED, i));
                (seed, a.fn_key.resolve(seed), a.target.resolve(seed, n))
            });
            return Ok(AttackArm { runner, trial });
        }
        let k = (n as f64).sqrt().ceil() as usize;
        let layout = Coalition::equally_spaced(n, k, 1).map_err(|e| e.to_string())?;
        let runner = build_runner(AttackKind::Rushing, n, &layout).map_err(|e| e.to_string())?;
        let trial = Box::new(|i: u64| (trial_seed(ARM_SEED, i), 0, 3));
        Ok(AttackArm { runner, trial })
    }

    fn run(&mut self, i: u64) -> Option<Rec> {
        let (seed, fn_key, target) = (self.trial)(i);
        match self.runner.run_trial(seed, fn_key, target) {
            Ok(r) => Some(rec_of(r.exec, r.success)),
            Err(_) => None,
        }
    }
}

/// A worker's construction through the public constructors: the engine
/// buffers and the lockstep cache for an honest sweep, the cached runner
/// for an attack sweep.
fn worker_setup(spec: &SweepSpec, subject: &Subject, n: usize) -> Result<(), String> {
    match (spec, subject) {
        (SweepSpec::Attack(_), _) => {
            black_box(AttackArm::build(spec, n)?);
        }
        (_, Subject::Phase(p)) => {
            black_box((Rig::new(p, n), PhaseBatchCache::ring(n)));
        }
        (_, Subject::ALead(p)) => {
            black_box((Rig::new(p, n), ALeadBatchCache::ring(n)));
        }
    }
    Ok(())
}

/// Records `sample` into a fresh partial of the workload's shape, the way
/// the harness records a worker range's outcomes.
fn record(spec: &SweepSpec, sample: &[Rec]) -> Result<ReportPartial, String> {
    let mut shape = spec.clone();
    match &mut shape {
        SweepSpec::Honest(h) => h.batch.trials = sample.len() as u64,
        SweepSpec::Attack(a) => a.batch.trials = sample.len() as u64,
        SweepSpec::TreeDictator(_) => return Err("tree sweeps have no ring".to_string()),
    }
    let mut partial = run_sweep_partial(&shape, 0, 0)?;
    let (attack, faulty) = (partial.is_attack(), partial.is_faulty());
    for (i, &(outcome, success, crashed)) in sample.iter().enumerate() {
        let i = i as u64;
        match (attack, faulty, outcome) {
            (true, true, o) => partial.record_attack_faulty(i, o, success, crashed),
            (true, false, o) => partial.record_attack(i, o, success),
            (false, true, Some(o)) => partial.record_faulty(i, o, crashed),
            (false, false, Some(o)) => partial.record(i, o),
            (false, _, None) => return Err("an honest trial has no outcome".to_string()),
        }
    }
    Ok(partial)
}

/// The fault configuration the workload draws plans from, or the timed
/// crash workload's (one crash within 4 ms, recovery after 10 µs) when it
/// has none.
fn fault_config(spec: &SweepSpec) -> FaultConfig {
    let own = match spec {
        SweepSpec::Honest(h) => h.fault,
        SweepSpec::Attack(a) => a.fault,
        SweepSpec::TreeDictator(_) => None,
    };
    own.map(|f| f.config()).unwrap_or(FaultConfig {
        crashes: 1,
        window: CrashInstant::VirtualNs(4_000_000),
        recover_after: Some(10_000),
    })
}

/// Every micro-arm figure for `spec`'s protocol and ring size, as
/// `(name, value)` pairs. `partial` is the replay's finished partial,
/// which the checkpoint arm writes and reads back under `work`.
pub fn run(
    spec: &SweepSpec,
    partial: &ReportPartial,
    work: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (subject, n) = Subject::of(spec)?;
    let net = ScheduleSpec::Timed {
        latency: LatencySpec::Constant { ns: 500 },
        loss_permille: 0,
        dup_permille: 0,
    }
    .timed_net()
    .expect("a timed schedule has a net");
    let mut attack = AttackArm::build(spec, n)?;
    let sample: Vec<Rec> = match (spec, &subject) {
        (SweepSpec::Attack(_), _) => (0..RECORD_SAMPLE)
            .map(|i| attack.run(i).unwrap_or((None, false, false)))
            .collect(),
        (SweepSpec::Honest(h), Subject::Phase(p)) => {
            let fault = h.fault.map(|f| f.config());
            honest_sample(p, n, h.schedule.timed_net().as_ref(), fault.as_ref())
        }
        (SweepSpec::Honest(h), Subject::ALead(p)) => {
            let fault = h.fault.map(|f| f.config());
            honest_sample(p, n, h.schedule.timed_net().as_ref(), fault.as_ref())
        }
        (SweepSpec::TreeDictator(_), _) => unreachable!("no subject for tree sweeps"),
    };
    worker_setup(spec, &subject, n)?;
    record(spec, &sample)?;
    let params = PhaseParams::for_ring(n.max(4));
    let f = RandomFn::new(0, n as u64);
    let (data_len, vals_len) = (params.n, params.vals_in_f());
    let table = EvalTable::new(&f, data_len, vals_len);
    let data: Vec<u64> = (0..data_len as u64).collect();
    let vals: Vec<u64> = (0..vals_len as u64).map(|v| v * 7).collect();
    let strided_data: Vec<u64> = (0..(data_len * WIDTH) as u64).collect();
    let strided_vals: Vec<u64> = (0..(vals_len * WIDTH) as u64).collect();
    let fault = fault_config(spec);
    let checkpoint = SweepCheckpoint {
        spec_sha256: sha256_hex(spec.to_json().as_bytes()),
        start: 0,
        end: spec.batch().trials,
        partial: partial.clone(),
    };
    let cp_path = work.join("probe-checkpoint.json");

    let mut samples: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut push = |name: &'static str, v: f64| match samples.iter_mut().find(|(k, _)| *k == name) {
        Some((_, vs)) => vs.push(v),
        None => samples.push((name, vec![v])),
    };
    for _ in 0..REPS {
        let (engine_ns, deliveries) = match &subject {
            Subject::Phase(p) => engine_arm(p, n, None),
            Subject::ALead(p) => engine_arm(p, n, None),
        };
        let relay = Relay {
            n: n as u64,
            total: (deliveries.round() as u64).max(n as u64),
        };
        let (relay_ns, _) = engine_arm(&relay, n, None);
        let (timed_ns, _) = match &subject {
            Subject::Phase(p) => engine_arm(p, n, Some(&net)),
            Subject::ALead(p) => engine_arm(p, n, Some(&net)),
        };
        push("engine.ns_per_delivery", engine_ns);
        push("engine.relay_ns_per_delivery", relay_ns);
        push("protocol.ns_per_delivery", engine_ns - relay_ns);
        push("timed.ns_per_delivery", timed_ns);
        push("timed.overhead_ratio", timed_ns / engine_ns);
        push(
            "lockstep.ns_per_delivery",
            match &subject {
                Subject::Phase(p) => lockstep_arm(p, n),
                Subject::ALead(p) => lockstep_arm(p, n),
            },
        );
        let mut i = 0u64;
        push(
            "attack.ns_per_trial",
            per_unit(|| {
                i += 1;
                black_box(attack.run(i));
                1
            }),
        );
        // Both arms ran once without error before the loop.
        push(
            "worker.setup_us",
            per_unit(|| {
                let _ = worker_setup(spec, &subject, n);
                1
            }) / 1e3,
        );
        push(
            "reduce.ns_per_trial",
            per_unit(|| {
                let _ = black_box(record(spec, &sample));
                sample.len() as u64
            }),
        );
        push(
            "randfn.table_build_us",
            per_unit(|| {
                black_box(EvalTable::new(&f, data_len, vals_len));
                1
            }) / 1e3,
        );
        let mut x = 0u64;
        push(
            "randfn.eval_ns",
            per_unit(|| {
                x = x.wrapping_add(f.eval(black_box(&data), black_box(&vals)));
                1
            }),
        );
        push(
            "randfn.table_eval_ns",
            per_unit(|| {
                for lane in 0..WIDTH {
                    x = x.wrapping_add(table.eval_strided(
                        black_box(&strided_data),
                        black_box(&strided_vals),
                        WIDTH,
                        lane,
                    ));
                }
                WIDTH as u64
            }),
        );
        let (mut plan, mut s) = (FaultPlan::none(), 0u64);
        push(
            "fault.draw_ns",
            per_unit(|| {
                s += 1;
                plan.draw_into(&fault, n, trial_seed(ARM_SEED, s));
                black_box(plan.faults().len());
                1
            }),
        );
        let start = Instant::now();
        write_checkpoint(&cp_path, &checkpoint)?;
        push("checkpoint.write_ms", start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let src = std::fs::read_to_string(&cp_path)
            .map_err(|e| format!("cannot read {}: {e}", cp_path.display()))?;
        let parsed = SweepCheckpoint::parse_json(&src)?;
        push("checkpoint.parse_ms", start.elapsed().as_secs_f64() * 1e3);
        if parsed.completed() != checkpoint.completed() {
            return Err("checkpoint did not read back to what was written".to_string());
        }
        push("checkpoint.file_bytes", src.len() as f64);
        black_box(x);
    }
    let _ = std::fs::remove_file(&cp_path);
    Ok(samples
        .into_iter()
        .map(|(name, mut vs)| {
            vs.sort_by(f64::total_cmp);
            (name, vs[vs.len() / 2])
        })
        .collect())
}
