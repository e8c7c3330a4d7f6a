//! The paper's ring protocols and a harness for running them, honestly or
//! under adversarial deviations.
//!
//! * [`BasicLead`] — Appendix B's non-resilient strawman.
//! * [`ALeadUni`] — Abraham et al.'s buffered protocol (paper Section 3).
//! * [`PhaseAsyncLead`] — the paper's Θ(√n)-resilient protocol (Section 6).
//! * [`PhaseSumLead`] — the Appendix E.4 ablation (phase validation but
//!   `sum` instead of a random `f`).
//! * [`SyncLead`] — the synchronous `(n−1)`-resilient contrast protocol
//!   from the related work (paper Section 1.1).
//! * [`SyncRingLead`] — the synchronous *ring* variant: same `(n−1)`
//!   resilience, delivered purely by round-synchrony on the ring.
//!
//! All protocols use 0-indexed processor ids `0..n` with the origin at 0
//! and outputs in `[0, n)`: the paper's 1-indexed processor `i ∈ [1, n]`
//! is id `i − 1` here (so its "processor `i` validates round `i`" becomes
//! "id `p` validates round `p + 1`").

mod a_lead_uni;
mod basic_lead;
mod batch;
mod lanes;
mod phase;
mod phase_indexed;
mod sync_lead;
mod sync_ring;
mod wakeup;

pub use a_lead_uni::{ALeadNode, ALeadTrialCache, ALeadUni};
pub use basic_lead::{BasicLead, BasicNode, BasicTrialCache};
pub use batch::{ALeadBatchCache, BasicBatchCache, LaneCache, PhaseBatchCache};
pub use phase::{phase_async_builds, PhaseAsyncLead, PhaseMsg, PhaseNode, PhaseSumLead};
pub use phase_indexed::{IndexedMsg, IndexedPhaseLead};
pub use sync_lead::{SyncFixedValue, SyncLead, SyncWaitAndCancel};
pub use sync_ring::{SyncRingCorruptor, SyncRingLead, SyncRingNode, SyncRingWaiter};
pub use wakeup::{WakeLead, WakeMsg, WakeNode};

use crate::DeviationNodes;
use ring_sim::batch::{LockstepEngine, NodeLanes};
use ring_sim::rng::SplitMix64;
use ring_sim::{
    default_step_limit, ArenaBacked, Engine, Execution, FaultConfig, FaultPlan, FifoScheduler,
    Node, NodeId, Probe, Schedule, Scheduler, SimBuilder, TimedNetConfig, TimedScheduler, Topology,
    TrialArena,
};

/// Reduces `x` into `[0, n)` without paying a hardware division in the
/// common case. Protocol message handlers fold every incoming value with
/// this: honest senders always emit in-range values, so the branch
/// predicts perfectly and the division only runs on adversarial
/// out-of-range input. Bit-identical to `x % n` for all inputs.
#[inline(always)]
pub(crate) fn fold_mod(x: u64, n: u64) -> u64 {
    if x < n {
        x
    } else {
        x % n
    }
}

/// `a % n` as a single conditional subtract — bit-identical whenever
/// `a < 2n`, which the protocol arithmetic guarantees at every call site
/// (both summands already lie in `[0, n)`, or one is `< n` and the other
/// `≤ n`). Used on per-delivery paths where a hardware division would
/// dominate the activation cost.
#[inline(always)]
pub(crate) fn wrap_sub(a: u64, n: u64) -> u64 {
    debug_assert!(a < 2 * n);
    if a >= n {
        a - n
    } else {
        a
    }
}

/// [`wrap_sub`] over `usize` ring indices.
#[inline(always)]
pub(crate) fn wrap_sub_usize(a: usize, n: usize) -> usize {
    debug_assert!(a < 2 * n);
    if a >= n {
        a - n
    } else {
        a
    }
}

/// The wake list shared by the origin-paced ring protocols (`A-LEADuni`
/// and the phase family): only processor 0 wakes spontaneously. A `const`
/// so per-trial attack runs need no wake-list allocation.
pub(crate) const ORIGIN_WAKES: &[NodeId] = &[0];

/// Common interface of the ring fair-leader-election protocols, used by
/// the experiment harness.
pub trait FleProtocol {
    /// Ring size.
    fn n(&self) -> usize;

    /// Human-readable protocol name.
    fn name(&self) -> &'static str;

    /// Runs an honest execution (all processors follow the protocol).
    fn run_honest(&self) -> Execution;
}

/// Derives the secret data values `d_i` that honest processors draw for a
/// protocol instance seeded with `seed`. Exposed so tests can predict the
/// honest sum; attack implementations never call this (the adversary does
/// not know honest secrets).
pub fn honest_data_values(seed: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| node_rng(seed, i).next_below(n as u64))
        .collect()
}

/// The per-node random stream: node `i` of an instance seeded `seed` draws
/// all its randomness from this generator, data value first.
pub(crate) fn node_rng(seed: u64, id: NodeId) -> SplitMix64 {
    SplitMix64::new(seed).derive(id as u64)
}

/// Which processors of a ring protocol wake spontaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wakes {
    /// Only the origin, processor 0 (`A-LEADuni` and the phase family).
    Origin,
    /// Every processor, in id order (`Basic-LEAD`, `WakeLead`).
    All,
}

impl Wakes {
    /// The wake list on a ring of `n` processors, in wake order.
    pub fn ids(self, n: usize) -> Vec<NodeId> {
        match self {
            Wakes::Origin => ORIGIN_WAKES.to_vec(),
            Wakes::All => (0..n).collect(),
        }
    }
}

/// A ring protocol a worker runs trial after trial: its message and
/// honest-node types, a seeded copy of the instance, the arena-backed
/// honest node builder and the wake pattern.
///
/// The provided methods are written once over those: the boxed honest
/// node, the one-shot [`run_ring`] runs ([`RingProtocol::run_with`],
/// [`RingProtocol::run_with_probe`]) and an honest run through a reusable
/// [`Engine`]. Attacked runs over a per-worker cache go through
/// [`TrialCache::run`].
pub trait RingProtocol: FleProtocol + Sized {
    /// The protocol's message type.
    type Msg: Clone + 'static;
    /// The honest processor as a concrete type, so honest sweeps store a
    /// plain `Vec` and the engine dispatches statically.
    type Node: Node<Self::Msg> + ArenaBacked + 'static;

    /// The processors that wake spontaneously.
    const WAKES: Wakes;

    /// A copy of this instance whose honest randomness is drawn from
    /// `seed`; seed-independent state (parameters, the random function)
    /// is kept, so a worker builds it once.
    fn seeded(&self, seed: u64) -> Self;

    /// Builds the honest node for position `id`, drawing any
    /// trial-lifetime buffers from `arena` (reclaim them with
    /// [`ArenaBacked::reclaim`] after the trial).
    fn honest_ring_node_in(&self, id: NodeId, arena: &mut TrialArena) -> Self::Node;

    /// Builds the honest node for position `id` as a boxed trait object,
    /// for the one-shot path and heterogeneous mixes. Its buffers come
    /// from a fresh arena and are dropped with the node.
    fn honest_node(&self, id: NodeId) -> Box<dyn Node<Self::Msg>> {
        Box::new(self.honest_ring_node_in(id, &mut TrialArena::new()))
    }

    /// Runs with the coalition positions replaced by `overrides`, through
    /// the one-shot [`run_ring`].
    ///
    /// # Panics
    ///
    /// Panics if an override id is out of range or duplicated.
    fn run_with(&self, overrides: DeviationNodes<Self::Msg>) -> Execution {
        let n = self.n();
        run_ring(
            n,
            |id| self.honest_node(id),
            overrides,
            &Self::WAKES.ids(n),
            None,
        )
    }

    /// [`RingProtocol::run_with`] plus an instrumentation probe.
    ///
    /// # Panics
    ///
    /// Panics if an override id is out of range or duplicated.
    fn run_with_probe(
        &self,
        overrides: DeviationNodes<Self::Msg>,
        probe: &mut dyn Probe<Self::Msg>,
    ) -> Execution {
        let n = self.n();
        run_ring(
            n,
            |id| self.honest_node(id),
            overrides,
            &Self::WAKES.ids(n),
            Some(probe),
        )
    }

    /// Runs an honest execution through a reusable engine — the
    /// monomorphized path, bit-identical to [`FleProtocol::run_honest`].
    ///
    /// # Panics
    ///
    /// Panics if the engine's ring size differs from `n`.
    fn run_honest_in(&self, engine: &mut Engine<Self::Msg>) -> Execution {
        let n = self.n();
        let mut out = Execution::default();
        run_ring_honest_pooled_into(
            engine,
            n,
            |id, arena| self.honest_ring_node_in(id, arena),
            &Self::WAKES.ids(n),
            &mut Vec::new(),
            &mut FifoScheduler::new(),
            &mut TrialArena::new(),
            &mut out,
        );
        out
    }
}

/// A [`RingProtocol`] with a lockstep batch path: `k` honest trials run
/// at once through the lockstep engine (`ring_sim::batch`), the honest
/// transition at `k` lanes, bit-identical to `k` scalar runs.
pub trait LockstepProtocol: RingProtocol {
    /// The reusable per-worker lane state.
    type BatchCache;

    /// Bytes one lane of a group holds at most over a run on a ring of
    /// `n` processors: its own node state and its share of the engine's
    /// ([`ring_sim::batch::engine_lane_bytes`] for the groups an honest
    /// run keeps in flight). Sweeps size their lane width from it.
    fn lane_bytes(n: usize) -> u64;

    /// Creates the batch cache for a ring of `n` processors.
    fn batch_cache(n: usize) -> Self::BatchCache;

    /// The cache's lockstep engine: install per-lane crash-fault plans
    /// on it before a group ([`LockstepEngine::set_fault_plans`]), and
    /// read after it which lanes must rerun scalar
    /// ([`LockstepEngine::lane_hit`]) and the other lanes' executions.
    fn lockstep_engine(cache: &mut Self::BatchCache) -> &mut LockstepEngine;

    /// Runs `seeds.len()` honest trials in lockstep, lane `l` simulating
    /// `self.seeded(seeds[l])`. Returns `false` if the group diverged (the
    /// caller re-runs its trials scalar); otherwise the [`Execution`] of
    /// each lane that need not rerun is read from
    /// [`LockstepProtocol::lockstep_engine`].
    fn run_honest_batch_into(&self, seeds: &[u64], cache: &mut Self::BatchCache) -> bool;
}

/// Runs a ring protocol with some nodes replaced by adversarial
/// behaviours, through the one-shot [`SimBuilder`] — the reference path
/// the cached-engine paths are tested against.
///
/// `honest` builds the protocol's honest node for an id; `overrides` maps
/// coalition positions to their deviating strategies. `wakes` lists the
/// spontaneously-waking nodes in wake order (a ring protocol's
/// [`RingProtocol::WAKES`]). `probe`, when given, observes every send,
/// delivery and termination.
///
/// # Panics
///
/// Panics if an override id is out of range or duplicated (programming
/// error in the attack harness).
pub fn run_ring<M: Clone + 'static>(
    n: usize,
    honest: impl Fn(NodeId) -> Box<dyn Node<M>>,
    overrides: Vec<(NodeId, Box<dyn Node<M>>)>,
    wakes: &[NodeId],
    probe: Option<&mut dyn Probe<M>>,
) -> Execution {
    let mut nodes = Vec::with_capacity(n);
    merge_ring_overrides(n, overrides, |id, deviant| {
        nodes.push(deviant.unwrap_or_else(|| honest(id)))
    });
    let mut builder = SimBuilder::new(Topology::ring(n));
    for (id, node) in nodes.into_iter().enumerate() {
        builder = builder.boxed_node(id, node);
    }
    for &w in wakes {
        builder = builder.wake(w);
    }
    if let Some(p) = probe {
        builder = builder.probe(p);
    }
    builder.run()
}

/// The arena-pooled run every cached ring path shares: refills `nodes`
/// through `build` (drawing from `arena`), runs one trial of `schedule`
/// and reclaims the nodes' buffers into the arena.
///
/// # Panics
///
/// Panics if the engine's topology size differs from `n`.
#[allow(clippy::too_many_arguments)] // the worker's reusable buffers, spelled out
fn run_pooled<M: Clone, N: Node<M> + ArenaBacked, S: Scheduler + ?Sized>(
    engine: &mut Engine<M>,
    n: usize,
    build: impl FnOnce(&mut Vec<N>, &mut TrialArena),
    wakes: &[NodeId],
    nodes: &mut Vec<N>,
    schedule: Schedule<'_, M, S>,
    arena: &mut TrialArena,
    out: &mut Execution,
) {
    assert_eq!(
        engine.topology().len(),
        n,
        "engine topology size must match the protocol's ring size"
    );
    nodes.clear();
    build(nodes, arena);
    engine.run_into(nodes, wakes, schedule, default_step_limit(n), None, out);
    for node in nodes.iter_mut() {
        node.reclaim(arena);
    }
}

/// One honest trial through a reusable [`Engine`] with caller-owned node,
/// scheduler, arena and result buffers — the fully allocation-free loop
/// `fle-harness` sweeps run on: with every buffer reused, a steady-state
/// trial touches the heap zero times, node construction included.
///
/// `honest(id, arena)` builds node `id`, drawing any trial-lifetime
/// buffers from `arena` (e.g. [`PhaseAsyncLead::honest_ring_node_in`]);
/// after the run every node's buffers are reclaimed via
/// [`ArenaBacked::reclaim`]. The scheduler is concretely FIFO: honest ring
/// executions are defined over the fair global-send-order schedule.
///
/// # Panics
///
/// Panics if the engine's topology size differs from `n`.
#[allow(clippy::too_many_arguments)] // the worker's reusable buffers, spelled out
pub fn run_ring_honest_pooled_into<M: Clone, N: Node<M> + ArenaBacked>(
    engine: &mut Engine<M>,
    n: usize,
    mut honest: impl FnMut(NodeId, &mut TrialArena) -> N,
    wakes: &[NodeId],
    nodes_buf: &mut Vec<N>,
    scheduler: &mut FifoScheduler,
    arena: &mut TrialArena,
    out: &mut Execution,
) {
    let build = |nodes: &mut Vec<N>, arena: &mut TrialArena| {
        nodes.extend((0..n).map(|id| honest(id, arena)));
    };
    let schedule = Schedule::Oblivious(scheduler);
    run_pooled(engine, n, build, wakes, nodes_buf, schedule, arena, out);
}

/// [`run_ring_honest_pooled_into`] on the engine's virtual-clock timed
/// path: deliveries follow the per-link latency / bandwidth / loss /
/// duplication profiles of `net`, with the network noise drawn from
/// `seed`'s dedicated stream (protocol node randomness is untouched).
///
/// With the all-zero [`TimedNetConfig`] this produces bit-identical
/// [`Execution`]s to [`run_ring_honest_pooled_into`] — the differential
/// anchor `tests/timed_paths.rs` pins per protocol.
///
/// # Panics
///
/// Panics if the engine's topology size differs from `n`.
#[allow(clippy::too_many_arguments)] // the worker's reusable buffers, spelled out
pub fn run_ring_honest_timed_into<M: Clone, N: Node<M> + ArenaBacked>(
    engine: &mut Engine<M>,
    n: usize,
    mut honest: impl FnMut(NodeId, &mut TrialArena) -> N,
    wakes: &[NodeId],
    nodes_buf: &mut Vec<N>,
    timed: &mut TimedScheduler<M>,
    net: &TimedNetConfig,
    seed: u64,
    arena: &mut TrialArena,
    out: &mut Execution,
) {
    let build = |nodes: &mut Vec<N>, arena: &mut TrialArena| {
        nodes.extend((0..n).map(|id| honest(id, arena)));
    };
    // The FIFO scheduler type keeps this on the same loop instantiation
    // as the untimed entry.
    let schedule: Schedule<'_, M, FifoScheduler> = Schedule::Timed {
        heap: timed,
        net,
        seed,
    };
    run_pooled(engine, n, build, wakes, nodes_buf, schedule, arena, out);
}

/// One position's behaviour in a heterogeneous honest/deviant ring: the
/// concrete honest node type of the protocol, or a deviating strategy.
///
/// This is the attack fast path's storage form. An attacked ring is
/// almost entirely honest (`n − k` of `n` positions), so dispatching
/// through this enum means the honest majority of activations take a
/// predictable branch to a concrete, inlinable node — only the coalition's
/// activations pay `D`'s cost. `D` is `Box<dyn Node<M>>` for coalition
/// mixes built at runtime; single-deviator attacks can instantiate `D`
/// with their concrete deviator type and run with no boxing at all.
pub enum MixNode<N, D> {
    /// An honest position, as the protocol's concrete node type.
    Honest(N),
    /// A coalition position running a deviating strategy.
    Deviant(D),
}

impl<M, N: Node<M>, D: Node<M>> Node<M> for MixNode<N, D> {
    fn on_wake(&mut self, ctx: &mut ring_sim::Ctx<'_, M>) {
        match self {
            MixNode::Honest(h) => h.on_wake(ctx),
            MixNode::Deviant(d) => d.on_wake(ctx),
        }
    }

    #[inline]
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut ring_sim::Ctx<'_, M>) {
        match self {
            MixNode::Honest(h) => h.on_message(from, msg, ctx),
            MixNode::Deviant(d) => d.on_message(from, msg, ctx),
        }
    }
}

/// Only the honest side holds arena-drawn state; deviators own their
/// buffers outright (they are rebuilt per trial by the attack planner).
impl<N: ArenaBacked, D> ArenaBacked for MixNode<N, D> {
    fn reclaim(&mut self, arena: &mut TrialArena) {
        if let MixNode::Honest(h) = self {
            h.reclaim(arena);
        }
    }
}

/// Per-thread cached trial state for repeated attack (or honest-vs-attack)
/// runs over one ring size: the engine with its preallocated link queues
/// and edge tables, the mixed node vector, a pooled FIFO scheduler, the
/// timed-path heap, the trial arena, and the reused [`Execution`].
///
/// This gives attack experiments the same steady-state allocation profile
/// honest sweeps get from their per-worker state: hold one `TrialCache`
/// per worker thread and call [`TrialCache::run`] per trial.
/// The attacks crate's cached runner (`fle_attacks::build_runner`) owns
/// one of these. On `u64` protocols, [`TrialCache::run_group`] runs `k`
/// such trials at once in lockstep lanes.
///
/// # Examples
///
/// ```
/// use fle_core::protocols::{FleProtocol, PhaseAsyncLead, PhaseTrialCache};
///
/// let mut cache = PhaseTrialCache::ring(16);
/// for seed in 0..4 {
///     let p = PhaseAsyncLead::new(16).with_seed(seed);
///     let exec = cache.run(&p, Vec::new());
///     assert_eq!(exec, &p.run_honest());
/// }
/// ```
pub struct TrialCache<M, N, D = Box<dyn Node<M>>> {
    engine: Engine<M>,
    nodes: Vec<MixNode<N, D>>,
    scheduler: FifoScheduler,
    arena: TrialArena,
    exec: Execution,
    /// `0..n`, precomputed for protocols that wake every node
    /// ([`Wakes::All`]) so per-trial wake lists need no allocation.
    all_ids: Vec<NodeId>,
    /// Reusable timed-path event heap (empty and unused until a network
    /// is installed via [`TrialCache::set_timed_net`]).
    timed: TimedScheduler<M>,
    /// When set, [`TrialCache::run`] routes trials through the
    /// virtual-clock timed path under this network configuration.
    net: Option<TimedNetConfig>,
    /// Seed of the timed path's network-noise stream for the next trial;
    /// attack runners record the trial seed here before each run. The
    /// same trial seed feeds the crash-fault stream (which is
    /// salt-separated, so the two never correlate).
    net_seed: u64,
    /// When set, every trial draws a crash-fault plan from its trial seed
    /// under this configuration and installs it on the engine.
    fault_cfg: Option<FaultConfig>,
    /// Reused buffer for the per-trial fault draw.
    fault_plan: FaultPlan,
    /// The lockstep engine of [`TrialCache::run_group`] and each
    /// position's lanes of the last group: created by the first group,
    /// and boxed so caches that never form one stay their size.
    lanes: Option<Box<Lanes<N, D>>>,
}

/// A [`LockstepEngine`] and one [`NodeLanes`] per ring position.
type Lanes<N, D> = (LockstepEngine, Vec<NodeLanes<MixNode<N, D>>>);

impl<M: Clone, N: Node<M> + ArenaBacked, D: Node<M>> TrialCache<M, N, D> {
    /// Creates the cache for a unidirectional ring of `n` nodes.
    pub fn ring(n: usize) -> Self {
        Self {
            engine: Engine::new(Topology::ring(n)),
            nodes: Vec::with_capacity(n),
            scheduler: FifoScheduler::new(),
            arena: TrialArena::new(),
            exec: Execution::default(),
            all_ids: (0..n).collect(),
            timed: TimedScheduler::new(),
            net: None,
            net_seed: 0,
            fault_cfg: None,
            fault_plan: FaultPlan::none(),
            lanes: None,
        }
    }

    /// Installs (or clears) a timed network: subsequent trials run on the
    /// virtual-clock path under `net`'s per-link profiles, seeded per
    /// trial via [`TrialCache::set_trial_seed`]. `None` restores the
    /// untimed FIFO fast path.
    pub fn set_timed_net(&mut self, net: Option<&TimedNetConfig>) {
        self.net = net.cloned();
    }

    /// Records the seed of the next trial's network-noise and crash-fault
    /// streams (a no-op while neither a timed network nor a fault
    /// configuration is installed).
    pub fn set_trial_seed(&mut self, seed: u64) {
        self.net_seed = seed;
    }

    /// Installs (or clears) a crash-fault configuration: each subsequent
    /// trial draws a fresh [`FaultPlan`] from its trial seed (recorded via
    /// [`TrialCache::set_trial_seed`]) and applies it for that trial.
    /// `None` restores the fault-free path.
    pub fn set_faults(&mut self, cfg: Option<&FaultConfig>) {
        self.fault_cfg = cfg.copied();
    }

    /// The cached ring size.
    pub fn n(&self) -> usize {
        self.engine.topology().len()
    }

    /// Runs one trial of `protocol` with `overrides` over this cache's
    /// buffers — on the timed net and under a drawn fault plan when
    /// installed — and returns the reused [`Execution`].
    ///
    /// Honest positions run the protocol's concrete node type `N` (branch
    /// dispatch, arena-backed state), coalition positions run `D` — boxed
    /// for runtime mixes, concrete for single-deviator attacks — so per
    /// trial the only heap traffic left is what the attack itself builds.
    /// Bit-identical to [`run_ring`] over equivalent behaviours.
    ///
    /// # Panics
    ///
    /// Panics if the cache's ring size differs from the protocol's, or an
    /// override id is out of range or duplicated.
    pub fn run<P: RingProtocol<Msg = M, Node = N>>(
        &mut self,
        protocol: &P,
        overrides: Vec<(NodeId, D)>,
    ) -> &Execution {
        let n = self.n();
        assert_eq!(
            n,
            protocol.n(),
            "cache ring size must match the protocol's ring size"
        );
        let Self {
            engine,
            nodes,
            scheduler,
            arena,
            exec,
            all_ids,
            timed,
            net,
            net_seed,
            fault_cfg,
            fault_plan,
            ..
        } = self;
        match fault_cfg {
            Some(cfg) => {
                fault_plan.draw_into(cfg, n, *net_seed);
                engine.set_fault_plan(fault_plan);
            }
            // Clear any stale plan, so toggling the configuration can
            // never leak a previous trial's plan into the next.
            None => engine.clear_fault_plan(),
        }
        let wakes = match P::WAKES {
            Wakes::Origin => ORIGIN_WAKES,
            Wakes::All => &all_ids[..],
        };
        let schedule = match net {
            Some(net) => Schedule::Timed {
                heap: timed,
                net,
                seed: *net_seed,
            },
            None => Schedule::Oblivious(scheduler),
        };
        let build = |nodes: &mut Vec<MixNode<N, D>>, arena: &mut TrialArena| {
            merge_ring_overrides(n, overrides, |id, deviant| {
                nodes.push(match deviant {
                    Some(node) => MixNode::Deviant(node),
                    None => MixNode::Honest(protocol.honest_ring_node_in(id, arena)),
                })
            });
        };
        run_pooled(engine, n, build, wakes, nodes, schedule, arena, exec);
        exec
    }

    /// The last trial's [`Execution`] (all zeros/failed before any run).
    pub fn execution(&self) -> &Execution {
        &self.exec
    }

    /// Lane `lane`'s [`Execution`] of the last [`TrialCache::run_group`],
    /// in the cache's reused buffer. Meaningful only after that group
    /// returned `true`.
    ///
    /// # Panics
    ///
    /// Panics if no group has run or `lane` is out of its range.
    pub fn lane_execution(&mut self, lane: usize) -> &Execution {
        let (engine, _) = self.lanes.as_deref().expect("no lockstep group has run");
        engine.execution_into(lane, &mut self.exec);
        &self.exec
    }
}

impl<N: Node<u64> + ArenaBacked, D: Node<u64>> TrialCache<u64, N, D> {
    /// Runs one trial per entry of `protocols` as one lockstep group:
    /// lane `l` runs `protocols[l]` with the `l`-th override list. Each
    /// position holds its lanes in one [`NodeLanes`], filled through the
    /// override merge [`TrialCache::run`] uses; honest nodes are drawn
    /// from and reclaimed into the cache's arena. The [`LockstepEngine`]
    /// is created by the first group.
    ///
    /// Returns `false` when a timed network or a fault configuration is
    /// installed (nothing runs), or when the lanes diverged: run the
    /// trials through [`TrialCache::run`] instead. After `true`, lane
    /// `l`'s [`Execution`], equal to its [`TrialCache::run`], is
    /// [`TrialCache::lane_execution`]`(l)`.
    ///
    /// # Panics
    ///
    /// As for [`TrialCache::run`], and if `protocols` is empty or the
    /// override lists are not one per protocol.
    pub fn run_group<P: RingProtocol<Msg = u64, Node = N>>(
        &mut self,
        protocols: &[P],
        overrides: impl IntoIterator<Item = Vec<(NodeId, D)>>,
    ) -> bool {
        if self.net.is_some() || self.fault_cfg.is_some() {
            return false;
        }
        let n = self.n();
        let Self {
            arena,
            all_ids,
            lanes,
            ..
        } = self;
        let (engine, lanes) = &mut **lanes.get_or_insert_with(|| {
            let positions = (0..n).map(|id| NodeLanes::new(id, n)).collect();
            Box::new((LockstepEngine::new(n), positions))
        });
        for position in lanes.iter_mut() {
            position.nodes_mut().clear();
        }
        let mut width = 0;
        for (protocol, overrides) in protocols.iter().zip(overrides) {
            assert_eq!(
                n,
                protocol.n(),
                "cache ring size must match the protocol's ring size"
            );
            merge_ring_overrides(n, overrides, |id, deviant| {
                lanes[id].nodes_mut().push(match deviant {
                    Some(node) => MixNode::Deviant(node),
                    None => MixNode::Honest(protocol.honest_ring_node_in(id, arena)),
                })
            });
            width += 1;
        }
        assert!(
            width > 0 && width == protocols.len(),
            "need one override list per protocol"
        );
        let wakes = match P::WAKES {
            Wakes::Origin => ORIGIN_WAKES,
            Wakes::All => &all_ids[..],
        };
        let ran = engine.run(width, lanes, wakes, default_step_limit(n));
        for node in lanes.iter_mut().flat_map(|p| p.nodes_mut().iter_mut()) {
            node.reclaim(arena);
        }
        ran
    }
}

/// [`TrialCache`] for the phase protocols' boxed coalition mixes.
pub type PhaseTrialCache = TrialCache<PhaseMsg, PhaseNode>;

/// The one override-merge loop every ring path shares: walks positions
/// `0..n` in order, calling `emit(id, Some(deviant))` for coalition
/// positions and `emit(id, None)` for honest ones. Both the `SimBuilder`
/// path ([`run_ring`]) and the engine attack path ([`TrialCache::run`])
/// funnel through here, so override semantics cannot drift between them.
///
/// # Panics
///
/// Panics if an override id is out of range or duplicated.
fn merge_ring_overrides<D>(
    n: usize,
    mut overrides: Vec<(NodeId, D)>,
    mut emit: impl FnMut(NodeId, Option<D>),
) {
    overrides.sort_by_key(|(id, _)| *id);
    let mut next_override = overrides.into_iter().peekable();
    for id in 0..n {
        if next_override.peek().is_some_and(|(o, _)| *o == id) {
            let (_, node) = next_override.next().expect("peeked");
            emit(id, Some(node));
        } else {
            emit(id, None);
        }
    }
    assert!(
        next_override.next().is_none(),
        "override id out of range or duplicated"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_values_are_deterministic_and_in_range() {
        let a = honest_data_values(42, 16);
        let b = honest_data_values(42, 16);
        assert_eq!(a, b);
        assert!(a.iter().all(|&d| d < 16));
        let c = honest_data_values(43, 16);
        assert_ne!(a, c);
    }

    #[test]
    fn node_rng_streams_differ_between_nodes() {
        let mut r0 = node_rng(7, 0);
        let mut r1 = node_rng(7, 1);
        assert_ne!(r0.next_u64(), r1.next_u64());
    }

    /// The engine-reuse path must be bit-identical to the builder path for
    /// every protocol, including across back-to-back trials on one engine.
    #[test]
    fn run_honest_in_matches_run_honest() {
        let n = 8;
        let mut u64_engine = Engine::new(Topology::ring(n));
        let mut phase_engine = Engine::new(Topology::ring(n));
        for seed in [0, 1, 77] {
            let basic = BasicLead::new(n).with_seed(seed);
            assert_eq!(basic.run_honest_in(&mut u64_engine), basic.run_honest());
            let alead = ALeadUni::new(n).with_seed(seed);
            assert_eq!(alead.run_honest_in(&mut u64_engine), alead.run_honest());
            let phase = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(9);
            assert_eq!(phase.run_honest_in(&mut phase_engine), phase.run_honest());
            let psum = PhaseSumLead::new(n).with_seed(seed);
            assert_eq!(psum.run_honest_in(&mut phase_engine), psum.run_honest());
        }
    }

    /// The cached-engine run refuses an engine built for another ring size.
    #[test]
    #[should_panic(expected = "engine topology size")]
    fn run_ring_in_rejects_size_mismatch() {
        let mut engine: Engine<u64> = Engine::new(Topology::ring(4));
        let p = BasicLead::new(5);
        let _ = p.run_honest_in(&mut engine);
    }
}
