//! The discrete-event execution engine.

use crate::fault::FaultPlan;
use crate::node::{Ctx, Node, SendBuf};
use crate::outcome::{outcome_of, FailReason, Outcome};
use crate::probe::Probe;
use crate::scheduler::{FifoScheduler, Scheduler, Token};
use crate::timed::{TimedNetConfig, TimedScheduler};
use crate::topology::{EdgeId, NodeId, Topology};
use std::collections::VecDeque;

/// Default step limit for a topology of `n` nodes: generous enough for any
/// protocol in this workspace (`A-LEADuni` delivers `n²` messages,
/// `PhaseAsyncLead` delivers `2n²`).
///
/// A `const fn`, so callers evaluate it once up front — no fn-pointer
/// indirection on any path near the engine loop.
pub const fn default_step_limit(n: usize) -> u64 {
    16 * (n as u64) * (n as u64) + 4096
}

/// Maximum number of entries the dense `(node, successor) → edge` table
/// may hold (`n²` entries of 4 bytes, so at most 4 MiB per engine). Larger
/// topologies fall back to the per-node linear scan, which is fine there:
/// a topology that big is never swept trial-by-trial.
const DENSE_EDGE_TABLE_MAX: usize = 1 << 20;

/// Queue capacity, in slots, that [`Engine::reset`] always lets a link
/// queue or the fused stream keep: the floor of its retention budget.
const MIN_RETAINED: usize = 64;

/// Builder wiring nodes, topology, wake-ups, scheduler and probe into one
/// runnable simulation.
///
/// # Examples
///
/// See the crate-level example. Typical protocol harnesses construct one
/// `SimBuilder` per trial:
///
/// ```
/// use ring_sim::{FnNode, RandomScheduler, SimBuilder, Topology};
///
/// let exec = SimBuilder::new(Topology::ring(3))
///     .node(0, FnNode::new(|_, m: u64, ctx: &mut ring_sim::Ctx<'_, u64>| {
///         ctx.terminate(Some(m));
///     })
///     .on_wake(|ctx| { ctx.send(9); ctx.terminate(Some(9)); }))
///     .node(1, FnNode::new(|_, m, ctx: &mut ring_sim::Ctx<'_, u64>| {
///         ctx.send(m);
///         ctx.terminate(Some(m));
///     }))
///     .node(2, FnNode::new(|_, m, ctx: &mut ring_sim::Ctx<'_, u64>| {
///         ctx.send(m);
///         ctx.terminate(Some(m));
///     }))
///     .wake(0)
///     .scheduler(RandomScheduler::new(1))
///     .run();
/// assert_eq!(exec.outcome.elected(), Some(9));
/// ```
pub struct SimBuilder<'p, M> {
    topology: Topology,
    nodes: Vec<Option<Box<dyn Node<M> + 'p>>>,
    wakes: Vec<NodeId>,
    scheduler: Box<dyn Scheduler + 'p>,
    step_limit: u64,
    probe: Option<&'p mut dyn Probe<M>>,
    fault: FaultPlan,
}

impl<'p, M> std::fmt::Debug for SimBuilder<'p, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("topology", &self.topology)
            .field("wakes", &self.wakes)
            .field("step_limit", &self.step_limit)
            .finish_non_exhaustive()
    }
}

impl<'p, M> SimBuilder<'p, M> {
    /// Starts a builder for the given topology with the default FIFO
    /// scheduler and step limit.
    pub fn new(topology: Topology) -> Self {
        let n = topology.len();
        Self {
            topology,
            nodes: (0..n).map(|_| None).collect(),
            wakes: Vec::new(),
            scheduler: Box::new(FifoScheduler::new()),
            step_limit: default_step_limit(n),
            probe: None,
            fault: FaultPlan::none(),
        }
    }

    /// Installs the behaviour of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already assigned.
    pub fn node(mut self, id: NodeId, node: impl Node<M> + 'p) -> Self {
        assert!(id < self.nodes.len(), "node id {id} out of range");
        assert!(self.nodes[id].is_none(), "node {id} assigned twice");
        self.nodes[id] = Some(Box::new(node));
        self
    }

    /// Installs a boxed behaviour of node `id` (for heterogeneous
    /// protocol/attack mixes built at runtime).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or already assigned.
    pub fn boxed_node(mut self, id: NodeId, node: Box<dyn Node<M> + 'p>) -> Self {
        assert!(id < self.nodes.len(), "node id {id} out of range");
        assert!(self.nodes[id].is_none(), "node {id} assigned twice");
        self.nodes[id] = Some(node);
        self
    }

    /// Schedules a spontaneous wake-up for `id` (wake-ups are scheduled
    /// like messages, so they interleave obliviously with deliveries).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn wake(mut self, id: NodeId) -> Self {
        assert!(id < self.nodes.len(), "wake id {id} out of range");
        self.wakes.push(id);
        self
    }

    /// Schedules wake-ups for every node, in id order.
    pub fn wake_all(mut self) -> Self {
        let n = self.nodes.len();
        self.wakes.extend(0..n);
        self
    }

    /// Replaces the default FIFO scheduler.
    pub fn scheduler(mut self, scheduler: impl Scheduler + 'p) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Overrides the step limit (each wake-up or delivery is one step).
    pub fn step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Attaches an observation probe for this run.
    pub fn probe(mut self, probe: &'p mut dyn Probe<M>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Installs a crash-fault plan for this run (see [`crate::fault`]).
    /// The empty plan (the default) is exactly the fault-free path.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Runs the simulation to completion and returns the [`Execution`].
    ///
    /// The run ends when all nodes have terminated, when no tokens remain
    /// (deadlock), or when the step limit is exceeded.
    ///
    /// This is the one-shot path: it builds a fresh [`Engine`] per call.
    /// Batch workloads that run many trials over the same topology should
    /// hold an [`Engine`] and call [`Engine::run_into`] directly to reuse
    /// its buffers.
    ///
    /// # Panics
    ///
    /// Panics if any node id was left without a behaviour — an incomplete
    /// wiring is a programming error.
    pub fn run(self) -> Execution
    where
        M: Clone,
    {
        let SimBuilder {
            topology,
            nodes,
            wakes,
            mut scheduler,
            step_limit,
            probe,
            fault,
        } = self;
        let mut nodes: Vec<Box<dyn Node<M> + 'p>> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("node {i} has no behaviour")))
            .collect();
        let mut engine = Engine::new(topology);
        engine.set_fault_plan(&fault);
        let mut out = Execution::default();
        engine.run_into(
            &mut nodes,
            &wakes,
            Schedule::Oblivious(&mut *scheduler),
            step_limit,
            probe,
            &mut out,
        );
        out
    }
}

/// A reusable simulation engine for one fixed [`Topology`].
///
/// [`SimBuilder::run`] allocates the per-run working set — link queues,
/// adjacency tables, per-node counters — from scratch on every call. For a
/// Monte-Carlo sweep of many thousands of trials over the *same* topology
/// that churn dominates the runtime, so `Engine` keeps those buffers alive
/// across runs: [`Engine::run_into`] resets them in place (queue
/// capacities are retained up to the budget of [`Engine::reset`]) and
/// executes a fresh set of node behaviours.
///
/// An `Engine` produces bit-identical [`Execution`]s to the equivalent
/// [`SimBuilder::run`] call — it is purely an allocation-reuse facility.
/// The `fle-harness` crate gives every worker thread its own `Engine`.
///
/// # Examples
///
/// ```
/// use ring_sim::{Ctx, Engine, Execution, FifoScheduler, FnNode, Node, Outcome, Schedule, Topology};
///
/// let mut engine = Engine::new(Topology::ring(2));
/// let mut exec = Execution::default();
/// for trial in 0..3u64 {
///     let mut nodes: Vec<Box<dyn Node<u64>>> = vec![
///         Box::new(
///             FnNode::new(|_, m: u64, ctx: &mut Ctx<'_, u64>| ctx.terminate(Some(m)))
///                 .on_wake(move |ctx| {
///                     ctx.send(trial);
///                     ctx.terminate(Some(trial));
///                 }),
///         ),
///         Box::new(FnNode::new(|_, m: u64, ctx: &mut Ctx<'_, u64>| {
///             ctx.terminate(Some(m));
///         })),
///     ];
///     let fifo = Schedule::Oblivious(&mut FifoScheduler::new());
///     engine.run_into(&mut nodes, &[0], fifo, 1000, None, &mut exec);
///     assert_eq!(exec.outcome, Outcome::Elected(trial));
/// }
/// ```
pub struct Engine<M> {
    topology: Topology,
    n: usize,
    out_neighbors: Vec<Vec<NodeId>>,
    /// Dense `(node, successor) → edge` table: entry `me * n + to` is the
    /// edge id of the link `me → to`, or `u32::MAX` when absent. Empty when
    /// the topology is too large ([`DENSE_EDGE_TABLE_MAX`]).
    edge_of_dense: Vec<u32>,
    /// Per-node `(successor, edge)` fallback list for topologies too large
    /// for the dense table.
    out_edge_of: Vec<Vec<(NodeId, EdgeId)>>,
    /// Per-link FIFO message queues of the split token/link path.
    links: Vec<VecDeque<M>>,
    /// `link_touched` lists every link whose queue may hold messages or
    /// more than [`MIN_RETAINED`] slots, and `link_dirty[e]` marks link
    /// `e` as listed. A run lists a link the first time it pushes onto
    /// it, and [`Engine::reset`] unlists it once its queue is empty and
    /// back at the floor, so a reset walks O(listed) queues instead of
    /// all of them.
    link_dirty: Vec<bool>,
    link_touched: Vec<EdgeId>,
    /// The fused token+message stream of the global-FIFO fast path (see
    /// [`Scheduler::is_global_fifo`]). Under a global-FIFO schedule the
    /// `k`-th popped `Deliver` token always delivers the `k`-th sent
    /// message (token order *is* per-link message order), so tokens and
    /// their messages travel as one [`Event`]: a delivery is a single
    /// `pop_front` instead of a token pop plus a link-queue pop. Empty
    /// whenever the run's scheduler is not a global FIFO. Capacity is
    /// retained across trials.
    fused: VecDeque<Event<M>>,
    outputs: Vec<Option<Option<u64>>>,
    sent: Vec<u64>,
    received: Vec<u64>,
    /// Reusable per-activation send buffer lent to [`Ctx`].
    sends: SendBuf<M>,
    /// The crash-fault plan applied to every run until replaced (empty by
    /// default — see [`Engine::set_fault_plan`]). Deliberately **not**
    /// cleared by [`Engine::reset`]: the plan is per-trial configuration,
    /// installed before the run that `reset` opens.
    fault: FaultPlan,
    /// Decaying high-water mark of events processed per run, driving the
    /// shrink-on-idle capacity policy in [`Engine::reset`]: retained queue
    /// capacity is bounded by 4× this mark, so one oversized trial cannot
    /// pin its peak working set for the lifetime of a cached engine.
    hwm_events: u64,
}

/// One pending event of a run: a spontaneous wake-up or a message
/// arriving on a link. The fused stream and the timed heap store these;
/// the split path assembles one from a [`Token`] and its link queue.
pub(crate) enum Event<M> {
    /// Wake node `NodeId` spontaneously.
    Wake(NodeId),
    /// Deliver `M` along link `EdgeId`.
    Deliver(EdgeId, M),
}

impl<M> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("topology", &self.topology)
            .finish_non_exhaustive()
    }
}

impl<M> Engine<M> {
    /// Creates an engine for `topology`, preallocating the working set.
    pub fn new(topology: Topology) -> Self {
        let n = topology.len();
        let out_neighbors: Vec<Vec<NodeId>> = (0..n).map(|i| topology.out_neighbors(i)).collect();
        let out_edge_of: Vec<Vec<(NodeId, EdgeId)>> = (0..n)
            .map(|i| {
                topology
                    .out_edges(i)
                    .iter()
                    .map(|&e| (topology.edges()[e].1, e))
                    .collect()
            })
            .collect();
        let edge_of_dense = if n
            .checked_mul(n)
            .is_some_and(|nn| nn <= DENSE_EDGE_TABLE_MAX)
            && topology.edges().len() < u32::MAX as usize
        {
            let mut table = vec![u32::MAX; n * n];
            for (e, &(from, to)) in topology.edges().iter().enumerate() {
                table[from * n + to] = e as u32;
            }
            table
        } else {
            Vec::new()
        };
        let links_count = topology.edges().len();
        Self {
            topology,
            n,
            out_neighbors,
            edge_of_dense,
            out_edge_of,
            links: (0..links_count).map(|_| VecDeque::new()).collect(),
            link_dirty: vec![false; links_count],
            link_touched: Vec::new(),
            fused: VecDeque::new(),
            outputs: vec![None; n],
            sent: vec![0; n],
            received: vec![0; n],
            sends: SendBuf::default(),
            fault: FaultPlan::none(),
            hwm_events: 0,
        }
    }

    /// Installs a crash-fault plan: every subsequent run applies it until
    /// it is replaced or [`Engine::clear_fault_plan`] is called
    /// ([`Engine::reset`] leaves it alone). The plan is copied into an
    /// engine-owned buffer whose allocation is reused across trials.
    ///
    /// With a non-empty plan the run dispatches into a separate loop
    /// instantiation that consults [`FaultPlan::is_down`] per event; the
    /// empty plan selects the identical fault-free instantiation as
    /// before this facility existed.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.fault.clone_from(plan);
    }

    /// Removes any installed crash-fault plan (keeping its allocation),
    /// returning the engine to the fault-free path.
    pub fn clear_fault_plan(&mut self) {
        self.fault.clear();
    }

    /// The topology this engine simulates.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Clears all per-run state in place, keeping every allocation (link
    /// queues retain their capacity). Called automatically at the start of
    /// each [`Engine::run_into`]; exposed for callers that want a cleared
    /// engine between batches.
    ///
    /// Link clearing is O(listed links): pushes list a link on first
    /// touch, so a run that touched only a few links costs a short walk
    /// here, not a scan of every queue.
    ///
    /// Capacity is retained across trials **up to a budget**: 4× the
    /// decaying high-water mark of events per run (floored at 64 slots).
    /// Steady-state batches keep their allocations and never shrink; after
    /// one anomalously large trial the excess is released here over the
    /// following trials instead of being pinned for the engine's lifetime.
    /// A link stays listed until its queue is back at the floor, so its
    /// excess is released even when no later run touches it. The policy
    /// is the same on every topology.
    pub fn reset(&mut self) {
        let budget = (4 * self.hwm_events as usize).max(MIN_RETAINED);
        let Engine {
            links,
            link_dirty,
            link_touched,
            ..
        } = self;
        link_touched.retain(|&e| {
            let queue = &mut links[e];
            queue.clear();
            if queue.capacity() > budget {
                queue.shrink_to(budget);
            }
            link_dirty[e] = queue.capacity() > MIN_RETAINED;
            link_dirty[e]
        });
        self.fused.clear();
        if self.fused.capacity() > budget {
            self.fused.shrink_to(budget);
        }
        self.outputs.fill(None);
        self.sent.fill(0);
        self.received.fill(0);
        self.sends.clear();
    }

    /// Runs one trial and writes its result into `out`.
    ///
    /// `nodes[i]` is the behaviour of node `i`: a homogeneous `N` (each
    /// protocol's honest node type, dispatched statically per activation)
    /// or `Box<dyn Node<M>>` for protocol/attack mixes built at runtime.
    /// `wakes` lists the spontaneously waking nodes in wake order. The
    /// engine is reset and the schedule cleared first, so back-to-back
    /// calls are independent trials; `out`'s buffers are cleared and
    /// refilled in place, so a worker that reuses one `Execution` across a
    /// batch allocates nothing per trial on this path.
    ///
    /// Every run goes through one event loop over one of three queues:
    /// the fused global-FIFO stream, the split token/link path over the
    /// per-link queues (every other oblivious scheduler), or the timed
    /// heap. The run dispatches **once**, here, outside that loop: on the
    /// probe, the schedule and the fault plan, into a monomorphized
    /// instantiation. Without a probe or a plan the hooks compile away; no
    /// `Option` check survives on any per-delivery path. With the all-zero
    /// [`TimedNetConfig`] a timed run is bit-identical to a FIFO run: every
    /// event is stamped `t = 0`, so the heap pops in send order. `M: Clone`
    /// is needed for the timed net's duplicate deliveries.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the topology size.
    pub fn run_into<N: Node<M>, S: Scheduler + ?Sized>(
        &mut self,
        nodes: &mut [N],
        wakes: &[NodeId],
        schedule: Schedule<'_, M, S>,
        step_limit: u64,
        probe: Option<&mut dyn Probe<M>>,
        out: &mut Execution,
    ) where
        M: Clone,
    {
        match probe {
            Some(p) => self.session_core(nodes, wakes, schedule, step_limit, DynProbeHook(p), out),
            None => self.session_core(nodes, wakes, schedule, step_limit, NoProbeHook, out),
        }
    }

    /// The engine loop's front half: resets per-run state, then dispatches
    /// **once** on the schedule, which picks the queue and clears or
    /// re-seeds it, and once on the fault plan ([`drive_under`]) into
    /// [`drive`] — generic over node storage, queue and probe, so the
    /// honest batch path carries no vtable call, no storage match and no
    /// probe branch per delivery — and writes the result.
    fn session_core<N: Node<M>, S: Scheduler + ?Sized, P: ProbeHook<M>>(
        &mut self,
        nodes: &mut [N],
        wakes: &[NodeId],
        schedule: Schedule<'_, M, S>,
        step_limit: u64,
        mut probe: P,
        out: &mut Execution,
    ) where
        M: Clone,
    {
        assert_eq!(nodes.len(), self.n, "need one behaviour per node");
        self.reset();
        let Engine {
            topology,
            n,
            out_neighbors,
            edge_of_dense,
            out_edge_of,
            links,
            link_dirty,
            link_touched,
            fused,
            outputs,
            sent,
            received,
            sends,
            fault,
            ..
        } = self;
        let hot = Hot {
            n: *n,
            edges: topology.edges(),
            out_neighbors,
            edge_of_dense,
            out_edge_of,
        };
        let mut state = RunState {
            outputs,
            sent,
            received,
            sends,
        };
        let probe = &mut probe;
        let end = match schedule {
            Schedule::Oblivious(scheduler) => {
                scheduler.clear();
                if scheduler.is_global_fifo() {
                    drive_under(
                        fault, &hot, &mut state, fused, nodes, wakes, step_limit, probe,
                    )
                } else {
                    let mut split = SplitQueue {
                        scheduler,
                        links,
                        link_dirty,
                        link_touched,
                    };
                    drive_under(
                        fault, &hot, &mut state, &mut split, nodes, wakes, step_limit, probe,
                    )
                }
            }
            Schedule::Timed { heap, net, seed } => {
                heap.begin_trial(net, hot.edges.len(), seed);
                drive_under(
                    fault, &hot, &mut state, heap, nodes, wakes, step_limit, probe,
                )
            }
        };

        out.outcome = outcome_of(&*state.outputs, !end.hit_limit);
        out.outputs.clear();
        out.outputs.extend_from_slice(&*state.outputs);
        out.stats.steps = end.steps;
        out.stats.delivered = end.delivered;
        out.stats.sent.clear();
        out.stats.sent.extend_from_slice(&*state.sent);
        out.stats.received.clear();
        out.stats.received.extend_from_slice(&*state.received);
        fault.settle_into(end.last_clock, out);
        self.hwm_events = end.steps.max(self.hwm_events / 2);
    }

    /// Resolves the edge id of the link `me → to` — O(1) through the dense
    /// table on every topology a sweep would use, linear scan beyond
    /// [`DENSE_EDGE_TABLE_MAX`].
    #[cfg(test)]
    fn edge_to(&self, me: NodeId, to: NodeId) -> EdgeId {
        edge_lookup(&self.edge_of_dense, &self.out_edge_of, self.n, me, to)
    }

    /// `true` when every link queue (and the fused stream) is empty
    /// (test/oracle helper).
    #[cfg(test)]
    fn links_are_empty(&self) -> bool {
        self.fused.is_empty() && self.links.iter().all(VecDeque::is_empty)
    }

    /// Retained capacity of the fused global-FIFO stream, in events.
    #[cfg(test)]
    fn retained_fused_capacity(&self) -> usize {
        self.fused.capacity()
    }

    /// Largest retained per-link queue capacity, in messages.
    #[cfg(test)]
    fn retained_link_capacity(&self) -> usize {
        self.links.iter().map(VecDeque::capacity).max().unwrap_or(0)
    }
}

/// How [`Engine::run_into`] orders a run's events.
///
/// `S` is the oblivious scheduler's concrete type, which keeps its calls
/// statically dispatched. A timed schedule leaves it unused, so a timed
/// caller names any scheduler type; naming the [`FifoScheduler`] of the
/// caller's FIFO runs keeps both on one loop instantiation.
pub enum Schedule<'a, M, S: Scheduler + ?Sized> {
    /// An oblivious scheduler, cleared at the start of the run. A global
    /// FIFO ([`Scheduler::is_global_fifo`]) runs on the fused stream.
    Oblivious(&'a mut S),
    /// The virtual-clock path: latency, bandwidth, loss and duplication
    /// per [`TimedNetConfig`], with the network noise drawn from `seed`'s
    /// dedicated stream (protocol node randomness is untouched).
    Timed {
        /// The reusable event heap, re-seeded for the run.
        heap: &'a mut TimedScheduler<M>,
        /// The per-link network profiles.
        net: &'a TimedNetConfig,
        /// Seed of the run's network-noise stream.
        seed: u64,
    },
}

/// Per-delivery observation hooks, monomorphized so probe-less runs
/// compile their calls away entirely (no `Option` check, no vtable).
/// [`DynProbeHook`] adapts the public `&mut dyn Probe<M>` surface.
trait ProbeHook<M> {
    fn on_send(&mut self, from: NodeId, to: NodeId, msg: &M, sent: &[u64]);
    fn on_deliver(&mut self, from: NodeId, to: NodeId, msg: &M, received: &[u64]);
    fn on_terminate(&mut self, node: NodeId, output: Option<u64>);
}

/// The probe-free hook: every method is an empty inline no-op.
struct NoProbeHook;

impl<M> ProbeHook<M> for NoProbeHook {
    #[inline(always)]
    fn on_send(&mut self, _: NodeId, _: NodeId, _: &M, _: &[u64]) {}
    #[inline(always)]
    fn on_deliver(&mut self, _: NodeId, _: NodeId, _: &M, _: &[u64]) {}
    #[inline(always)]
    fn on_terminate(&mut self, _: NodeId, _: Option<u64>) {}
}

/// Adapter lending a dynamic [`Probe`] into the monomorphized loop.
struct DynProbeHook<'a, M>(&'a mut dyn Probe<M>);

impl<M> ProbeHook<M> for DynProbeHook<'_, M> {
    fn on_send(&mut self, from: NodeId, to: NodeId, msg: &M, sent: &[u64]) {
        self.0.on_send(from, to, msg, sent);
    }
    fn on_deliver(&mut self, from: NodeId, to: NodeId, msg: &M, received: &[u64]) {
        self.0.on_deliver(from, to, msg, received);
    }
    fn on_terminate(&mut self, node: NodeId, output: Option<u64>) {
        self.0.on_terminate(node, output);
    }
}

/// Per-event crash check, monomorphized like [`ProbeHook`] so fault-free
/// runs compile the check away entirely. `clock` is the queue's clock
/// ([`EventQueue::clock`]).
trait FaultHook {
    fn is_down(&self, node: NodeId, clock: u64) -> bool;
}

/// The fault-free hook: an inline constant `false`.
struct NoFaults;

impl FaultHook for NoFaults {
    #[inline(always)]
    fn is_down(&self, _: NodeId, _: u64) -> bool {
        false
    }
}

/// Adapter consulting a non-empty [`FaultPlan`] per event.
struct PlanFaults<'a>(&'a FaultPlan);

impl FaultHook for PlanFaults<'_> {
    #[inline]
    fn is_down(&self, node: NodeId, clock: u64) -> bool {
        self.0.is_down(node, clock)
    }
}

/// Where [`drive`]'s events come from and where its sends go: the one
/// thing the fused stream, the split token/link path and the timed heap
/// do differently.
pub(crate) trait EventQueue<M> {
    /// Schedules a spontaneous wake-up of `node`.
    fn wake(&mut self, node: NodeId);
    /// Takes the next event, or `None` once the run is quiescent.
    fn pop(&mut self) -> Option<Event<M>>;
    /// Queues `msg` for delivery along `edge`.
    fn send(&mut self, edge: EdgeId, msg: M);
    /// The clock crash instants are measured on, read at the event just
    /// popped: `delivered`, the deliveries completed before it, on the
    /// oblivious paths; the virtual time on the heap.
    fn clock(&self, delivered: u64) -> u64;
}

/// The fused global-FIFO stream: a delivery is one `pop_front` and a send
/// one `push_back`, half the queue traffic of the split path.
impl<M> EventQueue<M> for VecDeque<Event<M>> {
    #[inline]
    fn wake(&mut self, node: NodeId) {
        self.push_back(Event::Wake(node));
    }

    #[inline]
    fn pop(&mut self) -> Option<Event<M>> {
        self.pop_front()
    }

    #[inline]
    fn send(&mut self, edge: EdgeId, msg: M) {
        self.push_back(Event::Deliver(edge, msg));
    }

    #[inline]
    fn clock(&self, delivered: u64) -> u64 {
        delivered
    }
}

/// The split token/link path of every oblivious scheduler that is not a
/// global FIFO: the scheduler orders [`Token`]s, and each link keeps its
/// messages in its own FIFO queue. Sends list their link in the engine's
/// dirty list ([`Engine::reset`]).
struct SplitQueue<'a, M, S: ?Sized> {
    scheduler: &'a mut S,
    links: &'a mut [VecDeque<M>],
    link_dirty: &'a mut [bool],
    link_touched: &'a mut Vec<EdgeId>,
}

impl<M, S: Scheduler + ?Sized> EventQueue<M> for SplitQueue<'_, M, S> {
    fn wake(&mut self, node: NodeId) {
        self.scheduler.push(Token::Wake(node));
    }

    fn pop(&mut self) -> Option<Event<M>> {
        Some(match self.scheduler.pop()? {
            Token::Wake(node) => Event::Wake(node),
            Token::Deliver(edge) => {
                let msg = self.links[edge]
                    .pop_front()
                    .expect("token implies a queued message");
                Event::Deliver(edge, msg)
            }
        })
    }

    fn send(&mut self, edge: EdgeId, msg: M) {
        if !self.link_dirty[edge] {
            self.link_dirty[edge] = true;
            self.link_touched.push(edge);
        }
        self.links[edge].push_back(msg);
        self.scheduler.push(Token::Deliver(edge));
    }

    fn clock(&self, delivered: u64) -> u64 {
        delivered
    }
}

/// The engine's read-only per-run lookups, grouped so [`drive`] and
/// [`activate`] borrow them immutably alongside the mutable [`RunState`].
struct Hot<'e> {
    n: usize,
    edges: &'e [(NodeId, NodeId)],
    out_neighbors: &'e [Vec<NodeId>],
    edge_of_dense: &'e [u32],
    out_edge_of: &'e [Vec<(NodeId, EdgeId)>],
}

/// The engine's mutable per-run counters and send buffer, split off
/// `Engine` as disjoint field borrows so the loop can hold its queue
/// `&mut` separately.
struct RunState<'e, M> {
    outputs: &'e mut [Option<Option<u64>>],
    sent: &'e mut [u64],
    received: &'e mut [u64],
    sends: &'e mut SendBuf<M>,
}

/// How [`drive`] ended a run.
struct RunEnd {
    steps: u64,
    delivered: u64,
    hit_limit: bool,
    /// The clock of the last event the loop counted, `None` if it counted
    /// none: the plan's crashes at or before it fired
    /// ([`FaultPlan::fired_count`]).
    last_clock: Option<u64>,
}

/// [`drive`] over `queue` with the fault hook `fault` calls for, chosen
/// once, outside the loop: the empty plan instantiates [`NoFaults`], whose
/// inline-false `is_down` vanishes, so no per-delivery fault check
/// survives on the fault-free path.
#[allow(clippy::too_many_arguments)] // the split engine borrows, spelled out
fn drive_under<M, N: Node<M>, Q: EventQueue<M>, P: ProbeHook<M>>(
    fault: &FaultPlan,
    hot: &Hot<'_>,
    state: &mut RunState<'_, M>,
    queue: &mut Q,
    nodes: &mut [N],
    wakes: &[NodeId],
    step_limit: u64,
    probe: &mut P,
) -> RunEnd {
    if fault.is_empty() {
        drive(
            hot, state, queue, nodes, wakes, step_limit, probe, &NoFaults,
        )
    } else {
        drive(
            hot,
            state,
            queue,
            nodes,
            wakes,
            step_limit,
            probe,
            &PlanFaults(fault),
        )
    }
}

/// The engine's one event loop: wakes `wakes` in order, then pops events
/// off `queue` until it is empty or the step limit is hit. Each event is
/// one step; a wake-up or delivery activates its receiver unless the
/// receiver has terminated or `faults` has it down at the queue's clock,
/// and every send goes back into `queue`. A delivery to a crashed
/// receiver is still consumed and counted (the link worked; the processor
/// did not) — only the activation is dropped. One instantiation per
/// (node storage, queue, probe hook, fault hook) combination; the
/// [`RunState`] is flattened into plain single-level `&mut` locals up
/// front.
#[allow(clippy::too_many_arguments)] // the split engine borrows, spelled out
fn drive<M, N: Node<M>, Q: EventQueue<M>, P: ProbeHook<M>, F: FaultHook>(
    hot: &Hot<'_>,
    state: &mut RunState<'_, M>,
    queue: &mut Q,
    nodes: &mut [N],
    wakes: &[NodeId],
    step_limit: u64,
    probe: &mut P,
    faults: &F,
) -> RunEnd {
    let RunState {
        outputs,
        sent,
        received,
        sends,
    } = state;
    let outputs: &mut [Option<Option<u64>>] = outputs;
    let sent: &mut [u64] = sent;
    let received: &mut [u64] = received;
    let sends: &mut SendBuf<M> = sends;

    for &w in wakes {
        queue.wake(w);
    }

    let (mut steps, mut delivered, mut clock) = (0u64, 0u64, 0u64);
    let mut hit_limit = false;
    while let Some(event) = queue.pop() {
        if steps >= step_limit {
            hit_limit = true;
            break;
        }
        steps += 1;
        // Read before this event's delivery counts: the `k`-th delivery
        // happens at delivery clock `k - 1`.
        clock = queue.clock(delivered);
        match event {
            Event::Wake(i) => {
                if outputs[i].is_none() && !faults.is_down(i, clock) {
                    activate(
                        hot,
                        outputs,
                        sent,
                        sends,
                        nodes,
                        i,
                        None,
                        probe,
                        |edge, msg| queue.send(edge, msg),
                    );
                }
            }
            Event::Deliver(edge, msg) => {
                let (from, to) = hot.edges[edge];
                received[to] += 1;
                delivered += 1;
                probe.on_deliver(from, to, &msg, received);
                if outputs[to].is_none() && !faults.is_down(to, clock) {
                    activate(
                        hot,
                        outputs,
                        sent,
                        sends,
                        nodes,
                        to,
                        Some((from, msg)),
                        probe,
                        |edge, msg| queue.send(edge, msg),
                    );
                }
            }
        }
    }
    RunEnd {
        steps,
        delivered,
        hit_limit,
        last_clock: (steps > 0).then_some(clock),
    }
}

/// Runs one activation of node `me` (a wake-up when `incoming` is `None`,
/// a delivery otherwise) and applies its buffered actions: each buffered
/// send resolves its link and counters here, then flows into `emit` (the
/// run's [`EventQueue::send`]); a terminal output is recorded on the spot.
///
/// The [`Ctx`] borrows the engine's persistent send buffer in place
/// (disjoint-field borrows, no `mem::take` round-trip), so an activation
/// costs no `SendBuf` copies — measurable at PhaseAsyncLead n=64, where
/// one trial is 8k activations.
#[allow(clippy::too_many_arguments)] // the split engine borrows, spelled out
#[inline(always)]
fn activate<M, N: Node<M>, P: ProbeHook<M>>(
    hot: &Hot<'_>,
    outputs: &mut [Option<Option<u64>>],
    sent: &mut [u64],
    sends: &mut SendBuf<M>,
    nodes: &mut [N],
    me: NodeId,
    incoming: Option<(NodeId, M)>,
    probe: &mut P,
    mut emit: impl FnMut(EdgeId, M),
) {
    let output = {
        let mut ctx = Ctx::new(me, &hot.out_neighbors[me], sends);
        match incoming {
            Some((from, msg)) => nodes[me].on_message(from, msg, &mut ctx),
            None => nodes[me].on_wake(&mut ctx),
        }
        ctx.output
    };
    sends.drain_with(|to, msg| {
        let edge = edge_lookup(hot.edge_of_dense, hot.out_edge_of, hot.n, me, to);
        sent[me] += 1;
        probe.on_send(me, to, &msg, sent);
        emit(edge, msg);
    });
    if let Some(out) = output {
        outputs[me] = Some(out);
        probe.on_terminate(me, out);
    }
}

/// The edge-resolution core shared by [`Engine::edge_to`] and the
/// borrow-split send drain in [`Engine::activate`].
#[inline]
fn edge_lookup(
    edge_of_dense: &[u32],
    out_edge_of: &[Vec<(NodeId, EdgeId)>],
    n: usize,
    me: NodeId,
    to: NodeId,
) -> EdgeId {
    if !edge_of_dense.is_empty() {
        let e = edge_of_dense[me * n + to];
        debug_assert_ne!(e, u32::MAX, "Ctx validated the link exists");
        e as EdgeId
    } else {
        out_edge_of[me]
            .iter()
            .find(|&&(t, _)| t == to)
            .map(|&(_, e)| e)
            .expect("Ctx validated the link exists")
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// The global outcome.
    pub outcome: Outcome,
    /// Per-node terminal outputs (`None` = never terminated,
    /// `Some(None)` = aborted with `⊥`, `Some(Some(v))` = output `v`).
    pub outputs: Vec<Option<Option<u64>>>,
    /// Counters gathered during the run.
    pub stats: Stats,
}

impl Default for Execution {
    /// A pre-run placeholder (failed outcome, empty buffers) intended as
    /// the out-parameter of [`Engine::run_into`], which overwrites every
    /// field. Reusing one
    /// value across a batch keeps the buffers' capacity, so per-trial
    /// result extraction allocates nothing.
    fn default() -> Self {
        Execution {
            outcome: Outcome::Fail(FailReason::Deadlock),
            outputs: Vec::new(),
            stats: Stats::default(),
        }
    }
}

/// Execution counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total wake-ups plus deliveries processed.
    pub steps: u64,
    /// Total messages delivered.
    pub delivered: u64,
    /// Messages sent per node.
    pub sent: Vec<u64>,
    /// Messages received per node (including messages dropped because the
    /// receiver had terminated).
    pub received: Vec<u64>,
    /// Crash faults of the installed [`FaultPlan`] that *fired* during
    /// this run (their instant was reached). Always 0 on the fault-free
    /// path.
    pub crashes: u64,
}

impl Stats {
    /// Total messages sent across all nodes.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::FnNode;
    use crate::outcome::FailReason;
    use crate::scheduler::{LifoScheduler, RandomScheduler};
    use crate::Topology;

    /// A global FIFO that leaves [`Scheduler::is_global_fifo`] false, so
    /// the engine drives the fused stream's order through the split path.
    #[derive(Default)]
    struct SplitFifo(VecDeque<Token>);

    impl Scheduler for SplitFifo {
        fn push(&mut self, token: Token) {
            self.0.push_back(token);
        }

        fn pop(&mut self) -> Option<Token> {
            self.0.pop_front()
        }

        fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// One oblivious run through [`Engine::run_into`], without a probe.
    fn run<N: Node<u64>, S: Scheduler + ?Sized>(
        engine: &mut Engine<u64>,
        nodes: &mut [N],
        wakes: &[NodeId],
        scheduler: &mut S,
        step_limit: u64,
    ) -> Execution {
        let mut out = Execution::default();
        let schedule = Schedule::Oblivious(scheduler);
        engine.run_into(nodes, wakes, schedule, step_limit, None, &mut out);
        out
    }

    /// One timed run through [`Engine::run_into`], without a probe.
    fn run_timed<N: Node<u64>>(
        engine: &mut Engine<u64>,
        nodes: &mut [N],
        wakes: &[NodeId],
        heap: &mut TimedScheduler<u64>,
        net: &TimedNetConfig,
        seed: u64,
        step_limit: u64,
    ) -> Execution {
        let mut out = Execution::default();
        let schedule: Schedule<'_, u64, FifoScheduler> = Schedule::Timed { heap, net, seed };
        engine.run_into(nodes, wakes, schedule, step_limit, None, &mut out);
        out
    }

    /// Token-ring counter: origin starts a token; each node increments and
    /// forwards; everyone terminates with the value they saw at `3n`.
    fn token_ring(n: usize, scheduler: impl Scheduler + 'static) -> Execution {
        let target = 3 * n as u64;
        let mut b = SimBuilder::new(Topology::ring(n)).scheduler(scheduler);
        for i in 0..n {
            let node = FnNode::new(move |_from, m: u64, ctx: &mut Ctx<'_, u64>| {
                if m >= target {
                    if m < target + n as u64 - 1 {
                        ctx.send(m + 1);
                    }
                    ctx.terminate(Some(target));
                } else {
                    ctx.send(m + 1);
                }
            })
            .on_wake(move |ctx| {
                ctx.send(1);
            });
            if i == 0 {
                b = b.node(i, node);
            } else {
                b = b.node(
                    i,
                    FnNode::new(move |_from, m: u64, ctx: &mut Ctx<'_, u64>| {
                        if m >= target {
                            if m < target + n as u64 - 1 {
                                ctx.send(m + 1);
                            }
                            ctx.terminate(Some(target));
                        } else {
                            ctx.send(m + 1);
                        }
                    }),
                );
            }
        }
        b.wake(0).run()
    }

    #[test]
    fn token_ring_elects_target_under_fifo() {
        let exec = token_ring(5, FifoScheduler::new());
        assert_eq!(exec.outcome, Outcome::Elected(15));
    }

    #[test]
    fn token_ring_schedule_independent() {
        let fifo = token_ring(6, FifoScheduler::new());
        let lifo = token_ring(6, LifoScheduler::new());
        let rand = token_ring(6, RandomScheduler::new(99));
        assert_eq!(fifo.outcome, lifo.outcome);
        assert_eq!(fifo.outcome, rand.outcome);
    }

    #[test]
    fn silent_network_deadlocks() {
        let exec: Execution = SimBuilder::new(Topology::ring(2))
            .node(0, FnNode::new(|_, _: u64, _| {}))
            .node(1, FnNode::new(|_, _: u64, _| {}))
            .run();
        assert_eq!(exec.outcome, Outcome::Fail(FailReason::Deadlock));
    }

    #[test]
    fn infinite_chatter_hits_step_limit() {
        let exec: Execution = SimBuilder::new(Topology::ring(2))
            .node(
                0,
                FnNode::new(|_, m: u64, ctx: &mut Ctx<'_, u64>| ctx.send(m))
                    .on_wake(|ctx| ctx.send(0)),
            )
            .node(
                1,
                FnNode::new(|_, m: u64, ctx: &mut Ctx<'_, u64>| ctx.send(m)),
            )
            .wake(0)
            .step_limit(500)
            .run();
        assert_eq!(exec.outcome, Outcome::Fail(FailReason::StepLimit));
        assert_eq!(exec.stats.steps, 500);
    }

    #[test]
    fn messages_to_terminated_nodes_are_dropped() {
        // Node 1 terminates on first message; node 0 sends two.
        let exec: Execution = SimBuilder::new(Topology::ring(2))
            .node(
                0,
                FnNode::new(|_, _: u64, ctx: &mut Ctx<'_, u64>| ctx.terminate(Some(1))).on_wake(
                    |ctx| {
                        ctx.send(1);
                        ctx.send(2);
                        ctx.terminate(Some(1));
                    },
                ),
            )
            .node(
                1,
                FnNode::new(|_, _m: u64, ctx: &mut Ctx<'_, u64>| ctx.terminate(Some(1))),
            )
            .wake(0)
            .run();
        assert_eq!(exec.outcome, Outcome::Elected(1));
        assert_eq!(exec.stats.received[1], 2); // both counted, one dropped
    }

    #[test]
    fn fifo_link_order_is_preserved_even_under_lifo_scheduler() {
        // Node 0 sends 1, 2, 3 to node 1; node 1 records order.
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let exec: Execution = SimBuilder::new(Topology::ring(2))
            .node(
                0,
                FnNode::new(|_, _: u64, _ctx: &mut Ctx<'_, u64>| {}).on_wake(|ctx| {
                    ctx.send(1);
                    ctx.send(2);
                    ctx.send(3);
                    ctx.terminate(Some(0));
                }),
            )
            .node(
                1,
                FnNode::new(move |_, m: u64, ctx: &mut Ctx<'_, u64>| {
                    seen2.borrow_mut().push(m);
                    if seen2.borrow().len() == 3 {
                        ctx.terminate(Some(0));
                    }
                }),
            )
            .wake(0)
            .scheduler(LifoScheduler::new())
            .run();
        assert_eq!(exec.outcome, Outcome::Elected(0));
        assert_eq!(*seen.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn stats_count_sends_and_receives() {
        let exec = token_ring(4, FifoScheduler::new());
        assert_eq!(exec.stats.total_sent(), exec.stats.delivered);
        assert!(exec.stats.sent.iter().all(|&s| s > 0));
    }

    #[test]
    #[should_panic(expected = "has no behaviour")]
    fn missing_node_panics() {
        let _ = SimBuilder::<u64>::new(Topology::ring(2))
            .node(0, FnNode::new(|_, _: u64, _| {}))
            .run();
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_node_panics() {
        let _ = SimBuilder::<u64>::new(Topology::ring(2))
            .node(0, FnNode::new(|_, _: u64, _| {}))
            .node(0, FnNode::new(|_, _: u64, _| {}));
    }

    /// Node set for [`token_ring`]-style runs through a reusable engine.
    fn counter_nodes(n: usize, target: u64) -> Vec<Box<dyn Node<u64>>> {
        (0..n)
            .map(|i| {
                let step = move |_f: usize, m: u64, ctx: &mut Ctx<'_, u64>| {
                    if m >= target {
                        if m < target + n as u64 - 1 {
                            ctx.send(m + 1);
                        }
                        ctx.terminate(Some(target));
                    } else {
                        ctx.send(m + 1);
                    }
                };
                if i == 0 {
                    Box::new(FnNode::new(step).on_wake(|ctx| ctx.send(1))) as Box<dyn Node<u64>>
                } else {
                    Box::new(FnNode::new(step)) as Box<dyn Node<u64>>
                }
            })
            .collect()
    }

    #[test]
    fn engine_reuse_matches_builder() {
        let n = 5;
        let target = 3 * n as u64;
        let via_builder = token_ring(n, FifoScheduler::new());
        let mut engine = Engine::new(Topology::ring(n));
        for _ in 0..3 {
            let mut nodes = counter_nodes(n, target);
            let exec = run(
                &mut engine,
                &mut nodes,
                &[0],
                &mut FifoScheduler::new(),
                default_step_limit(n),
            );
            assert_eq!(exec, via_builder);
        }
    }

    #[test]
    fn engine_reset_clears_state() {
        let n = 4;
        let mut engine: Engine<u64> = Engine::new(Topology::ring(n));
        let mut nodes = counter_nodes(n, 3 * n as u64);
        let _ = run(
            &mut engine,
            &mut nodes,
            &[0],
            &mut FifoScheduler::new(),
            default_step_limit(n),
        );
        engine.reset();
        assert!(engine.links_are_empty());
        assert!(engine.outputs.iter().all(|o| o.is_none()));
        assert!(engine.sent.iter().all(|&s| s == 0));
        assert!(engine.received.iter().all(|&r| r == 0));
    }

    #[test]
    #[should_panic(expected = "one behaviour per node")]
    fn engine_rejects_wrong_node_count() {
        let mut engine: Engine<u64> = Engine::new(Topology::ring(3));
        let mut nodes = counter_nodes(2, 6);
        let _ = run(
            &mut engine,
            &mut nodes,
            &[0],
            &mut FifoScheduler::new(),
            100,
        );
    }

    /// A monomorphic token-ring counter node (no boxing).
    struct Counter {
        n: u64,
        target: u64,
        wakes: bool,
    }

    impl Node<u64> for Counter {
        fn on_wake(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.wakes {
                ctx.send(1);
            }
        }

        fn on_message(&mut self, _from: usize, m: u64, ctx: &mut Ctx<'_, u64>) {
            if m >= self.target {
                if m < self.target + self.n - 1 {
                    ctx.send(m + 1);
                }
                ctx.terminate(Some(self.target));
            } else {
                ctx.send(m + 1);
            }
        }
    }

    fn mono_nodes(n: usize, target: u64) -> Vec<Counter> {
        (0..n)
            .map(|i| Counter {
                n: n as u64,
                target,
                wakes: i == 0,
            })
            .collect()
    }

    /// Boxed and monomorphized node vectors through the one run entry,
    /// reusing the engine, scheduler and out-parameter across trials.
    #[test]
    fn run_into_and_run_mono_match_run() {
        let n = 5;
        let target = 3 * n as u64;
        let mut engine = Engine::new(Topology::ring(n));
        let reference = run(
            &mut engine,
            &mut counter_nodes(n, target),
            &[0],
            &mut FifoScheduler::new(),
            default_step_limit(n),
        );

        let mut reused = Execution::default();
        let mut scheduler = FifoScheduler::new();
        for _ in 0..3 {
            let fifo = Schedule::Oblivious(&mut scheduler);
            let limit = default_step_limit(n);
            let mut boxed = counter_nodes(n, target);
            engine.run_into(&mut boxed, &[0], fifo, limit, None, &mut reused);
            assert_eq!(reused, reference);

            let fifo = Schedule::Oblivious(&mut scheduler);
            let mut mono = mono_nodes(n, target);
            engine.run_into(&mut mono, &[0], fifo, limit, None, &mut reused);
            assert_eq!(reused, reference);
        }
    }

    #[test]
    fn run_clears_a_dirty_scheduler() {
        // A stale token left over from an aborted run must not leak into
        // the next trial.
        let n = 4;
        let mut engine = Engine::new(Topology::ring(n));
        let mut scheduler = FifoScheduler::new();
        scheduler.push(Token::Wake(2));
        let exec = run(
            &mut engine,
            &mut mono_nodes(n, 3 * n as u64),
            &[0],
            &mut scheduler,
            default_step_limit(n),
        );
        assert_eq!(exec.outcome, Outcome::Elected(3 * n as u64));
    }

    #[test]
    fn dense_edge_table_matches_topology_lookup() {
        let topo = Topology::complete(6);
        let engine: Engine<u64> = Engine::new(topo.clone());
        assert!(!engine.edge_of_dense.is_empty());
        for a in 0..6 {
            for b in 0..6 {
                if a != b {
                    assert_eq!(engine.edge_to(a, b), topo.edge_id(a, b).unwrap());
                }
            }
        }
    }

    /// The fused global-FIFO stream vs the split token/link path driven by
    /// [`SplitFifo`] (identical pop order, `is_global_fifo` false):
    /// executions must be bit-identical on one reused engine.
    #[test]
    fn fused_fifo_matches_split_path_with_same_schedule() {
        let n = 6;
        let target = 3 * n as u64;
        let limit = default_step_limit(n);
        let mut engine = Engine::new(Topology::ring(n));
        for pass in 0..2 {
            let fused = run(
                &mut engine,
                &mut mono_nodes(n, target),
                &[0],
                &mut FifoScheduler::new(),
                limit,
            );
            let split = run(
                &mut engine,
                &mut mono_nodes(n, target),
                &[0],
                &mut SplitFifo::default(),
                limit,
            );
            assert_eq!(fused, split, "pass {pass}");
        }
    }

    #[test]
    fn burst_past_slab_capacity_stays_fifo() {
        // One activation sends 40 messages on a single ring link — far
        // past any queue's initial capacity, forcing a grow mid-run — on
        // the fused stream and on the split path's link queue.
        let mut engine: Engine<u64> = Engine::new(Topology::ring(2));
        let schedulers: [Box<dyn Scheduler>; 2] = [
            Box::new(FifoScheduler::new()),
            Box::new(SplitFifo::default()),
        ];
        for mut scheduler in schedulers {
            let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let seen2 = seen.clone();
            let mut nodes: Vec<Box<dyn Node<u64>>> = vec![
                Box::new(
                    FnNode::new(|_, _: u64, _ctx: &mut Ctx<'_, u64>| {}).on_wake(|ctx| {
                        for v in 0..40 {
                            ctx.send(v);
                        }
                        ctx.terminate(Some(0));
                    }),
                ),
                Box::new(FnNode::new(move |_, m: u64, ctx: &mut Ctx<'_, u64>| {
                    seen2.borrow_mut().push(m);
                    if seen2.borrow().len() == 40 {
                        ctx.terminate(Some(0));
                    }
                })),
            ];
            let exec = run(&mut engine, &mut nodes, &[0], &mut *scheduler, 1000);
            assert_eq!(exec.outcome, Outcome::Elected(0));
            assert_eq!(*seen.borrow(), (0..40).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn reset_clears_only_touched_links_but_all_of_them() {
        // Hit the step limit so messages are left queued, then rerun: the
        // dirty-links reset must clear the leftovers (a stale message
        // surfacing in run 2 would corrupt its FIFO order).
        let n = 4;
        let target = 3 * n as u64;
        let mut engine: Engine<u64> = Engine::new(Topology::ring(n));
        let exec = run(
            &mut engine,
            &mut counter_nodes(n, target),
            &[0],
            &mut FifoScheduler::new(),
            3,
        );
        assert_eq!(exec.outcome, Outcome::Fail(FailReason::StepLimit));
        let clean = run(
            &mut engine,
            &mut counter_nodes(n, target),
            &[0],
            &mut FifoScheduler::new(),
            default_step_limit(n),
        );
        assert_eq!(clean.outcome, Outcome::Elected(3 * n as u64));
        engine.reset();
        assert!(engine.links_are_empty());
        assert!(engine.link_touched.is_empty());
        assert!(engine.link_dirty.iter().all(|&d| !d));
    }

    #[test]
    fn timed_zero_profile_matches_fused_fifo() {
        // The equivalence anchor: an all-zero network stamps every event
        // with t = 0, so the timed heap pops in send order — bit-identical
        // to the fused global-FIFO path.
        let n = 6;
        let target = 3 * n as u64;
        let mut engine = Engine::new(Topology::ring(n));
        let mut timed = crate::TimedScheduler::new();
        let net = crate::TimedNetConfig::default();
        for seed in 0..3 {
            let fused = run(
                &mut engine,
                &mut mono_nodes(n, target),
                &[0],
                &mut FifoScheduler::new(),
                default_step_limit(n),
            );
            let timed_exec = run_timed(
                &mut engine,
                &mut mono_nodes(n, target),
                &[0],
                &mut timed,
                &net,
                seed,
                default_step_limit(n),
            );
            assert_eq!(fused, timed_exec, "seed={seed}");
        }
    }

    #[test]
    fn timed_latency_changes_delivery_order_not_election() {
        // The token ring's outcome is schedule-independent, so even a
        // noisy network elects the same value — but the virtual clock
        // must have advanced.
        let n = 5;
        let target = 3 * n as u64;
        let mut engine = Engine::new(Topology::ring(n));
        let mut timed = crate::TimedScheduler::new();
        let net = crate::TimedNetConfig::uniform(crate::LinkProfile {
            latency: crate::LatencySpec::Uniform { lo: 10, hi: 5000 },
            ..crate::LinkProfile::default()
        });
        let exec = run_timed(
            &mut engine,
            &mut mono_nodes(n, target),
            &[0],
            &mut timed,
            &net,
            42,
            default_step_limit(n),
        );
        assert_eq!(exec.outcome, Outcome::Elected(target));
        assert!(timed.now() > 0, "virtual clock must advance");
    }

    #[test]
    fn timed_runs_replay_bit_identically_from_one_seed() {
        let n = 6;
        let target = 3 * n as u64;
        let mut engine = Engine::new(Topology::ring(n));
        let mut timed = crate::TimedScheduler::new();
        let net = crate::TimedNetConfig::uniform(crate::LinkProfile {
            latency: crate::LatencySpec::TwoPoint {
                lo: 5,
                hi: 500,
                hi_permille: 250,
            },
            loss_permille: 100,
            dup_permille: 100,
            gap_ns: 3,
        });
        let mut run = |seed: u64| {
            run_timed(
                &mut engine,
                &mut mono_nodes(n, target),
                &[0],
                &mut timed,
                &net,
                seed,
                default_step_limit(n),
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
    }

    #[test]
    fn retained_capacity_is_bounded_after_oversized_trial() {
        // One burst trial grows the fused stream (FIFO path) and a link
        // queue (split path) far past steady state; the decaying budget in
        // reset() must release the excess over the following small trials.
        let n = 2;
        let burst = 100_000u64;
        let mut engine: Engine<u64> = Engine::new(Topology::ring(n));
        let burst_nodes = || -> Vec<Box<dyn Node<u64>>> {
            vec![
                Box::new(
                    FnNode::new(|_, _: u64, _ctx: &mut Ctx<'_, u64>| {}).on_wake(move |ctx| {
                        for v in 0..burst {
                            ctx.send(v);
                        }
                        ctx.terminate(Some(0));
                    }),
                ),
                Box::new(FnNode::new(move |_, m: u64, ctx: &mut Ctx<'_, u64>| {
                    if m + 1 == burst {
                        ctx.terminate(Some(0));
                    }
                })),
            ]
        };
        // Grow both: the fused stream via the global FIFO, the link queue
        // via the split path.
        let _ = run(
            &mut engine,
            &mut burst_nodes(),
            &[0],
            &mut FifoScheduler::new(),
            4 * burst,
        );
        let _ = run(
            &mut engine,
            &mut burst_nodes(),
            &[0],
            &mut SplitFifo::default(),
            4 * burst,
        );
        assert!(
            engine.retained_fused_capacity() >= burst as usize
                || engine.retained_link_capacity() >= burst as usize,
            "burst must have grown a queue"
        );
        // Many small trials decay the watermark; capacity must follow.
        for _ in 0..64 {
            let _ = run(
                &mut engine,
                &mut counter_nodes(n, 3 * n as u64),
                &[0],
                &mut FifoScheduler::new(),
                default_step_limit(n),
            );
        }
        engine.reset();
        assert!(
            engine.retained_fused_capacity() <= 1024,
            "fused stream retained {} slots",
            engine.retained_fused_capacity()
        );
        assert!(
            engine.retained_link_capacity() <= 1024,
            "link queues retained {} slots",
            engine.retained_link_capacity()
        );
    }

    #[test]
    fn retained_capacity_is_bounded_on_a_general_topology() {
        // One split-path burst on link 0 → 1 of the complete digraph, then
        // small trials that only ever touch link 0 → 2: reset() must still
        // release the burst link, which no later run touches.
        let burst = 100_000u64;
        let mut engine: Engine<u64> = Engine::new(Topology::complete(3));
        let idle = || FnNode::new(|_, _: u64, _ctx: &mut Ctx<'_, u64>| {});
        let mut burst_nodes: Vec<Box<dyn Node<u64>>> = vec![
            Box::new(idle().on_wake(move |ctx| {
                for v in 0..burst {
                    ctx.send_to(1, v);
                }
                ctx.terminate(Some(0));
            })),
            Box::new(idle()),
            Box::new(idle()),
        ];
        let _ = run(
            &mut engine,
            &mut burst_nodes,
            &[0],
            &mut LifoScheduler::new(),
            4 * burst,
        );
        assert!(
            engine.retained_link_capacity() >= burst as usize,
            "burst must have grown link 0 → 1"
        );
        for _ in 0..64 {
            let mut nodes: Vec<Box<dyn Node<u64>>> = vec![
                Box::new(idle().on_wake(|ctx| {
                    ctx.send_to(2, 1);
                    ctx.terminate(Some(1));
                })),
                Box::new(idle().on_wake(|ctx| ctx.terminate(Some(1)))),
                Box::new(FnNode::new(|_, m: u64, ctx: &mut Ctx<'_, u64>| {
                    ctx.terminate(Some(m))
                })),
            ];
            let exec = run(
                &mut engine,
                &mut nodes,
                &[0, 1],
                &mut LifoScheduler::new(),
                default_step_limit(3),
            );
            assert_eq!(exec.outcome, Outcome::Elected(1));
        }
        engine.reset();
        assert!(
            engine.retained_link_capacity() <= 1024,
            "links retained {} slots",
            engine.retained_link_capacity()
        );
    }

    #[test]
    fn steady_state_batches_do_not_thrash_capacity() {
        // Identical mid-size trials must settle: capacity after trial 3
        // and after trial 50 are the same (the budget never dips below the
        // steady-state watermark, so reset never releases live capacity).
        let n = 8;
        let target = 3 * n as u64;
        let mut engine: Engine<u64> = Engine::new(Topology::ring(n));
        for _ in 0..3 {
            let _ = run(
                &mut engine,
                &mut counter_nodes(n, target),
                &[0],
                &mut FifoScheduler::new(),
                default_step_limit(n),
            );
        }
        let settled = (
            engine.retained_fused_capacity(),
            engine.retained_link_capacity(),
        );
        for _ in 0..47 {
            let _ = run(
                &mut engine,
                &mut counter_nodes(n, target),
                &[0],
                &mut FifoScheduler::new(),
                default_step_limit(n),
            );
        }
        assert_eq!(
            settled,
            (
                engine.retained_fused_capacity(),
                engine.retained_link_capacity(),
            )
        );
    }

    #[test]
    fn wake_all_wakes_everyone() {
        let exec: Execution = SimBuilder::new(Topology::ring(3))
            .node(
                0,
                FnNode::new(|_, _: u64, _| {}).on_wake(|ctx| ctx.terminate(Some(7))),
            )
            .node(
                1,
                FnNode::new(|_, _: u64, _| {}).on_wake(|ctx| ctx.terminate(Some(7))),
            )
            .node(
                2,
                FnNode::new(|_, _: u64, _| {}).on_wake(|ctx| ctx.terminate(Some(7))),
            )
            .wake_all()
            .run();
        assert_eq!(exec.outcome, Outcome::Elected(7));
    }
}
