//! Batch-lockstep execution: k trials of one configuration in one sweep.
//!
//! The honest runs of every ring protocol in this workspace share a
//! property the scalar engine cannot exploit: their *control flow* is
//! data-independent. Which messages are sent, in which order, and when
//! each processor terminates depends only on `(protocol, n)` — the
//! payload values differ per seed, but the event schedule does not
//! (honest nodes only branch on data to *abort*, which never happens in
//! an honest execution). The [`LockstepEngine`] runs `k` seeds of one
//! configuration through a **single** fused-FIFO event stream, so the
//! per-event bookkeeping (queue pop, dispatch, counters) is paid once
//! per *event* instead of once per *trial × event*, and the per-lane
//! payload work is a short contiguous loop over `k` values — the
//! GPU-style structure-of-arrays Monte-Carlo batching trick.
//!
//! Correctness is not entrusted to the lockstep assumption: any branch a
//! batched node cannot take uniformly across all lanes (a would-be abort,
//! a parity violation, a step-limit hit) calls [`LaneCtx::diverge`],
//! [`LockstepEngine::run`] returns `false`, and the caller re-runs those
//! trials through the scalar path — which reproduces the exact per-trial
//! behaviour by construction. Batched results are therefore bit-identical
//! to scalar results in all cases, and the fast path only applies where
//! it is exact.
//!
//! The engine mirrors the scalar fused global-FIFO stream precisely:
//! wake events first (in wake order), then deliveries in send order; a
//! terminated node's deliveries are counted and dropped; `steps` counts
//! wake-ups plus deliveries. Per-trial statistics (`sent`, `received`,
//! `steps`, `delivered`) are shared across lanes — the lockstep property
//! guarantees they are identical — while outputs are per-lane.
//!
//! **Crash faults per lane.** [`LockstepEngine::set_fault_plans`] installs
//! one [`FaultPlan`] per lane, measured on a [`LaneClock`]: deliveries
//! completed (the FIFO path) or virtual time on a net whose every link
//! has one constant latency, whose timed run is the FIFO run plus a clock.
//! The lanes still run the fault-free schedule. An event that the scalar
//! faulty run would drop — a wake or delivery to a live node that the
//! lane's plan has down — *hits* that lane, and the run stops once every
//! lane is hit. An unhit lane's scalar run takes exactly the fault-free
//! schedule, so its result is the lockstep one plus the plan's
//! fired-crash count. At a lane's hit the engine walks the events still
//! queued on the lane's clock, as the scalar run would pop them: if every
//! one reaches a terminated node or one the plan has down, that run sends
//! nothing more and ends quiescent once they drain, so the lane *settles*
//! on the spot, its execution written then. A lane's one token dropped,
//! or a phase round's data and validation messages both dropped by the
//! processor they were headed for, settle so. Any other hit — a queued
//! event to a live node, or a walk past the step limit — leaves the lane
//! to rerun scalar ([`LockstepEngine::lane_hit`]). As in the scalar
//! engine, the run dispatches once on whether plans are installed: the
//! fault-free instantiation keeps no clock and checks nothing per event.
//!
//! **Ordinary nodes per lane.** [`NodeLanes`] is a [`LockstepNode`] over
//! `k` ordinary [`Node<u64>`] values, one per lane, so the engine also
//! runs rings whose nodes have no `k`-lane form: attacked rings of
//! honest and deviant nodes, for one. Its activation calls each lane's
//! node in turn and checks that the lanes agree on the number of sends
//! and on terminating; lane uniformity is still checked, not assumed,
//! and a disagreement diverges the group as above.
//!
//! [`Node<u64>`]: crate::Node

use crate::engine::Execution;
use crate::fault::FaultPlan;
use crate::node::{Ctx, Node, SendBuf};
use crate::outcome::outcome_of;
use crate::timed::clock_add;
use crate::topology::NodeId;
use std::collections::VecDeque;

/// The event tag reserved for wake-ups in the fused stream. Protocol
/// message tags must stay below this value.
const WAKE_TAG: u8 = u8::MAX;

/// One fused event: a wake-up or a delivery of a `k`-lane payload.
///
/// A delivery names no payload: the stream is globally FIFO, so the
/// `j`-th delivery popped carries the `j`-th payload group sent, the head
/// of the engine's payload ring.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Message tag (protocol-defined), or [`WAKE_TAG`] for a wake-up.
    tag: u8,
    /// Receiving node.
    to: u32,
}

// The fault-free loop moves 8-byte events; the latency clock keeps its
// times beside the queue rather than in it.
const _: () = assert!(std::mem::size_of::<Event>() == 8);

/// Delivered payload groups the ring keeps before it compacts: once its
/// consumed prefix reaches this many groups, and at least the groups still
/// in flight, [`LockstepEngine`] moves the in-flight groups to the front.
/// The second bound keeps the moves to at most one per delivered lane
/// however many groups are in flight.
const COMPACT_GROUPS: usize = 16;

/// Bytes per lane a [`LockstepEngine`] on a ring of `n` nodes holds at
/// most over a run of two or more lanes that never keeps more than
/// `in_flight` payload groups in flight; a protocol's lane adds its own
/// node state to it. Each lane has its payload ring (which compacts once
/// 16 groups are delivered, so it stays below 16 + 2 × `in_flight` groups
/// of one `u64` per lane), its outputs (one `u64` per node), its incoming
/// slot and, while fault plans are installed, its state and the execution
/// it keeps in case a crash settles it (an output and two counters per
/// node, 32 bytes, and the execution itself). The group shares two
/// counters, an output flag and a crash index per node and the event
/// queue (up to `n` wake-ups and `in_flight` deliveries, with their
/// arrival times), so half of those count per lane. Buffers that grow
/// count at twice their longest length. The lanes' fault plans and their
/// per-lane index, which grow with the crashes a trial draws rather than
/// with `n`, are not counted.
pub const fn engine_lane_bytes(n: u64, in_flight: u64) -> u64 {
    let ring = in_flight
        .saturating_mul(2)
        .saturating_add(COMPACT_GROUPS as u64)
        .saturating_mul(16);
    let settled = n
        .saturating_mul(32)
        .saturating_add(2 * (std::mem::size_of::<Execution>() as u64 + 1));
    let lane = ring
        .saturating_add(n.saturating_mul(16))
        .saturating_add(32)
        .saturating_add(settled);
    let group = n
        .saturating_mul(40)
        .saturating_add(in_flight.saturating_mul(32))
        .saturating_add(64);
    lane.saturating_add(group / 2)
}

/// The clock a faulty lockstep run measures crash instants on: the clock
/// of the scalar engine path whose runs the lanes stand in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneClock {
    /// Deliveries completed so far: the untimed global-FIFO path.
    Deliveries,
    /// Virtual nanoseconds on a timed net whose every link takes exactly
    /// this many ns ([`TimedNetConfig::constant_latency`]): wakes fire at
    /// 0 and each send arrives at its activation's time plus the latency.
    ///
    /// [`TimedNetConfig::constant_latency`]: crate::TimedNetConfig::constant_latency
    Latency(u64),
}

/// Where a faulty run left one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    /// No activation of the lane's schedule dropped: the lockstep state
    /// is the lane's.
    Unhit,
    /// Hit, and the lane's scalar run ended quiescent at the hit: its
    /// execution is the lane's slot of `LockstepEngine::settled`.
    Settled,
    /// Hit, and the lane's scalar run went on another way: rerun it.
    Rerun,
}

/// Behaviour of one processor over `k` lockstep trials.
///
/// The mirror of [`crate::Node`] for batched execution: one activation
/// handles the same logical event of all `k` trials at once. Payloads are
/// `k`-lane `u64` slices (`lanes[l]` is trial `l`'s value); messages are
/// distinguished by a small `tag` instead of an enum so the engine stays
/// monomorphic over payload storage.
///
/// Implementations must take the *same* control-flow decisions (sends,
/// termination) for all lanes; whenever a lane would force a different
/// branch — any condition that aborts a scalar honest run — they must
/// call [`LaneCtx::diverge`] instead of guessing.
///
/// A protocol can write one transition for both engines: generic over
/// its per-lane registers and its effects, run once per activation at one
/// lane as a [`crate::Node`] and at `k` lanes as a `LockstepNode`, whose
/// registers are then `k`-lane vectors (fle-core's honest nodes do this).
/// [`NodeLanes`] implements it for `k` ordinary [`crate::Node`]s.
pub trait LockstepNode {
    /// Called on the node's spontaneous wake-up.
    fn on_wake(&mut self, ctx: &mut LaneCtx<'_>);

    /// Called when a `tag`-tagged message with per-lane payload `lanes`
    /// arrives on the node's incoming ring link.
    fn on_message(&mut self, tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>);
}

/// The action handle of one batched activation — the lockstep analogue
/// of [`crate::Ctx`].
pub struct LaneCtx<'a> {
    lanes: usize,
    succ: u32,
    queue: &'a mut VecDeque<Event>,
    payloads: &'a mut Vec<u64>,
    outputs: &'a mut [u64],
    sent: u64,
    terminated: bool,
    diverged: bool,
}

impl LaneCtx<'_> {
    /// The batch width `k` (lanes per payload).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Sends one `tag`-tagged message to the ring successor and returns
    /// its `k` payload slots (zero-initialized) for the caller to fill.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is the reserved wake tag (`u8::MAX`).
    pub fn send(&mut self, tag: u8) -> &mut [u64] {
        assert!(tag != WAKE_TAG, "message tag {WAKE_TAG} is reserved");
        let start = self.payloads.len();
        self.payloads.resize(start + self.lanes, 0);
        self.queue.push_back(Event { tag, to: self.succ });
        self.sent += 1;
        &mut self.payloads[start..]
    }

    /// Terminates this node in every lane and returns the `k` output
    /// slots for the caller to fill with per-lane outputs.
    ///
    /// As in the scalar engine, sends issued after termination within the
    /// same activation are still delivered; the node is simply never
    /// activated again.
    pub fn terminate(&mut self) -> &mut [u64] {
        self.terminated = true;
        self.outputs
    }

    /// Declares that the lanes can no longer share one control flow (a
    /// scalar run would abort, or lanes disagree on a branch). The run
    /// stops and [`LockstepEngine::run`] returns `false`; the caller must
    /// re-run these trials through the scalar path.
    pub fn diverge(&mut self) {
        self.diverged = true;
    }
}

/// One ring position's processor in every lane of a group, as `k`
/// ordinary [`Node<u64>`] values: lane `l` runs the `l`-th node.
///
/// An activation runs lane `l`'s node on lane `l`'s payload through a
/// real [`Ctx`], whose only out-neighbour is the ring successor and whose
/// sender is the ring predecessor, with one reused send buffer for every
/// lane. Lane `l`'s sends fill lane `l` of the activation's payload slots
/// and its output fills lane `l` of the output slots. Lane 0 sets the
/// shape of the activation; a lane that makes another number of sends or
/// differs on terminating, and any `⊥` output (lane outputs are `u64`s),
/// calls [`LaneCtx::diverge`], so the caller reruns the group's trials
/// scalar. Every message carries tag 0.
///
/// Fill [`NodeLanes::nodes_mut`] with exactly as many nodes as the run
/// has lanes.
///
/// [`Node<u64>`]: crate::Node
pub struct NodeLanes<N> {
    me: NodeId,
    pred: NodeId,
    succ: [NodeId; 1],
    nodes: Vec<N>,
    sends: SendBuf<u64>,
}

impl<N> NodeLanes<N> {
    /// Position `me` of a unidirectional ring of `n` processors, with no
    /// lanes yet.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `me >= n`.
    pub fn new(me: NodeId, n: usize) -> Self {
        assert!(n >= 2 && me < n, "position {me} of a ring of {n}");
        Self {
            me,
            pred: (me + n - 1) % n,
            succ: [(me + 1) % n],
            nodes: Vec::new(),
            sends: SendBuf::default(),
        }
    }

    /// The lanes' nodes, lane `l` at index `l`.
    pub fn nodes_mut(&mut self) -> &mut Vec<N> {
        &mut self.nodes
    }
}

impl<N: Node<u64>> NodeLanes<N> {
    /// Runs every lane's node on its wake-up (`incoming` is `None`) or on
    /// its lane of the delivered payload.
    fn activate(&mut self, incoming: Option<&[u64]>, ctx: &mut LaneCtx<'_>) {
        let lanes = ctx.lanes;
        assert_eq!(self.nodes.len(), lanes, "one node per lane");
        // The activation's sends start here, at the end of the payload
        // ring (which never compacts during an activation): lane 0 makes
        // them, and lane `l` fills slot `l` of each.
        let base = ctx.payloads.len();
        let mut shape = (0, false);
        for (lane, node) in self.nodes.iter_mut().enumerate() {
            let mut node_ctx = Ctx::new(self.me, &self.succ, &mut self.sends);
            match incoming {
                Some(payload) => node.on_message(self.pred, payload[lane], &mut node_ctx),
                None => node.on_wake(&mut node_ctx),
            }
            let output = node_ctx.output;
            let mut sends = 0;
            self.sends.drain_with(|_, msg| {
                if lane == 0 {
                    ctx.send(0);
                }
                // Past lane 0's last send there is no slot: the lanes
                // disagree, which the check below catches.
                if let Some(slot) = ctx.payloads.get_mut(base + sends * lanes + lane) {
                    *slot = msg;
                }
                sends += 1;
            });
            if lane == 0 {
                shape = (sends, output.is_some());
            }
            if (sends, output.is_some()) != shape || output == Some(None) {
                return ctx.diverge();
            }
            if let Some(Some(v)) = output {
                ctx.terminate()[lane] = v;
            }
        }
    }
}

impl<N: Node<u64>> LockstepNode for NodeLanes<N> {
    fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
        self.activate(None, ctx);
    }

    fn on_message(&mut self, _tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
        self.activate(Some(lanes), ctx);
    }
}

/// A reusable engine running `k` trials of one ring configuration in
/// lockstep over one fused event stream.
///
/// Create once per worker with [`LockstepEngine::new`] and call
/// [`LockstepEngine::run`] per trial group; all buffers (event queue,
/// payload ring, counters, outputs, fault plans) retain their capacity
/// across runs, so steady-state groups allocate nothing.
#[derive(Debug)]
pub struct LockstepEngine {
    n: usize,
    lanes: usize,
    queue: VecDeque<Event>,
    /// The payload ring: the groups in flight, `lanes` slots each, in send
    /// order from `head`. A send appends a group; a delivery reads the
    /// head group (into `incoming`) and advances `head`, also when its
    /// node has terminated. The delivered prefix `..head` is dropped when
    /// the ring drains and compacted away after [`COMPACT_GROUPS`]
    /// deliveries (see there), both between activations, so a run holds
    /// about the groups in flight rather than every group it sent.
    payloads: Vec<u64>,
    /// Start of the head group in `payloads`.
    head: usize,
    /// Longest `payloads` of the current run: what the ring used.
    peak_payloads: usize,
    /// The popped event's payload, copied out of the ring so the node
    /// activation can append new sends while reading it.
    incoming: Vec<u64>,
    /// Per-lane outputs, node-major: node `i`'s lanes at
    /// `[i * lanes, (i + 1) * lanes)`. Valid where `has_output[i]`.
    outputs: Vec<u64>,
    has_output: Vec<bool>,
    sent: Vec<u64>,
    received: Vec<u64>,
    steps: u64,
    delivered: u64,
    diverged: bool,
    /// High-water mark of the payload ring, driving the shrink-on-idle
    /// budget (retained capacity decays toward ×4 of the recent need,
    /// matching the scalar engine's policy).
    hwm_payloads: usize,
    /// One crash-fault plan per lane, applied to every run until replaced
    /// (empty: the fault-free loop — see [`LockstepEngine::set_fault_plans`]).
    plans: Vec<FaultPlan>,
    /// The clock `plans` are measured on.
    clock: LaneClock,
    /// `(node, lane)` for every fault of `plans`, sorted: node `v`'s lanes
    /// are `by_node[first[v]..first[v + 1]]`, so an event to a node no
    /// plan crashes costs two loads.
    by_node: Vec<(u32, u32)>,
    first: Vec<u32>,
    /// Per lane: whether the last run dropped, on the lane's plan, an
    /// activation of the fault-free schedule, and what became of the lane.
    state: Vec<LaneState>,
    /// Lanes of the current run not hit yet.
    unhit: usize,
    /// Per lane, while plans are installed: the execution of a lane the
    /// last run settled (see [`LaneState::Settled`]); buffers are reused.
    settled: Vec<Execution>,
    /// Arrival times of the queued deliveries, in queue order: kept only by
    /// faulty runs on the latency clock.
    times: VecDeque<u64>,
    /// The lanes' clock at the last popped event (read by faulty runs
    /// only): deliveries completed before it, or its arrival time.
    now: u64,
}

impl LockstepEngine {
    /// Creates a lockstep engine for a unidirectional ring of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a ring needs at least 2 nodes, got {n}");
        Self {
            n,
            lanes: 0,
            queue: VecDeque::new(),
            payloads: Vec::new(),
            head: 0,
            peak_payloads: 0,
            incoming: Vec::new(),
            outputs: Vec::new(),
            has_output: vec![false; n],
            sent: vec![0; n],
            received: vec![0; n],
            steps: 0,
            delivered: 0,
            diverged: false,
            hwm_payloads: 0,
            plans: Vec::new(),
            clock: LaneClock::Deliveries,
            by_node: Vec::new(),
            first: Vec::new(),
            state: Vec::new(),
            unhit: 0,
            settled: Vec::new(),
            times: VecDeque::new(),
            now: 0,
        }
    }

    /// Ring size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The batch width of the most recent [`LockstepEngine::run`].
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Installs one crash-fault plan per lane, measured on `clock`: every
    /// later [`LockstepEngine::run`] applies `plans[l]` to lane `l` until
    /// they are replaced, and an empty slice returns to the fault-free
    /// loop. The plans are copied into engine-owned buffers whose
    /// allocations are reused, as [`Engine::set_fault_plan`] does, and so
    /// are the lanes' settled executions, which exist only while plans
    /// are installed.
    ///
    /// [`Engine::set_fault_plan`]: crate::Engine::set_fault_plan
    pub fn set_fault_plans(&mut self, plans: &[FaultPlan], clock: LaneClock) {
        self.plans.resize_with(plans.len(), FaultPlan::none);
        self.settled.resize_with(plans.len(), Execution::default);
        for (mine, plan) in self.plans.iter_mut().zip(plans) {
            mine.clone_from(plan);
        }
        self.clock = clock;
        let n = self.n;
        self.by_node.clear();
        self.by_node
            .extend(self.plans.iter().enumerate().flat_map(|(lane, plan)| {
                let lane = lane as u32;
                plan.faults().iter().map(move |f| (f.node as u32, lane))
            }));
        self.by_node.sort_unstable();
        let by_node = &self.by_node;
        self.first.clear();
        self.first.extend(
            (0..=n).map(|v| by_node.partition_point(|&(node, _)| (node as usize) < v) as u32),
        );
    }

    /// Runs `lanes` lockstep trials: wakes `wakes` in order, then drives
    /// the fused FIFO stream to quiescence (or to `step_limit`).
    ///
    /// Returns `true` if the run completed in lockstep; `false` if any
    /// activation diverged (or the step limit was hit), in which case the
    /// engine's results are meaningless and the caller must re-run the
    /// trials through the scalar path. Under installed fault plans the run
    /// also stops, returning `true`, once every lane is hit; after a
    /// `true` run, the lanes [`LockstepEngine::lane_hit`] reports must
    /// rerun scalar and every other lane holds its result, unhit or
    /// settled at its hit.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != n`, `lanes == 0`, a wake id is out of
    /// range, or fault plans are installed for another number of lanes.
    pub fn run<N: LockstepNode>(
        &mut self,
        lanes: usize,
        nodes: &mut [N],
        wakes: &[usize],
        step_limit: u64,
    ) -> bool {
        assert_eq!(nodes.len(), self.n, "need one node per ring position");
        assert!(lanes > 0, "lockstep run needs at least one lane");
        assert!(
            self.plans.is_empty() || self.plans.len() == lanes,
            "{} fault plans installed for {lanes} lanes",
            self.plans.len()
        );
        self.reset(lanes);
        for &w in wakes {
            assert!(w < self.n, "wake id {w} out of range");
            self.queue.push_back(Event {
                tag: WAKE_TAG,
                to: w as u32,
            });
        }
        // One dispatch on the fault plans, outside the loop, as in the
        // scalar engine: the fault-free instantiation keeps no clock and
        // makes no per-event check.
        let ok = if self.plans.is_empty() {
            self.drive::<N, false>(nodes, step_limit)
        } else {
            self.drive::<N, true>(nodes, step_limit)
        };
        self.peak_payloads = self.peak_payloads.max(self.payloads.len());
        self.decay_capacity();
        ok
    }

    /// The event loop of [`LockstepEngine::run`]; see there for the result.
    /// With `FAULTS` it also reads the lanes' clock per event and, before
    /// each activation, hits the lanes whose plan has the node down.
    fn drive<N: LockstepNode, const FAULTS: bool>(
        &mut self,
        nodes: &mut [N],
        step_limit: u64,
    ) -> bool {
        while let Some(event) = self.queue.pop_front() {
            // Mirror the scalar engine loop exactly: the limit check runs
            // before the step is counted; hitting it means the lockstep
            // result cannot represent the scalar `StepLimit` outcome, so
            // it is treated as a divergence.
            if self.steps >= step_limit {
                return false;
            }
            self.steps += 1;
            let clock = if FAULTS { self.tick(event.tag) } else { 0 };
            if event.tag == WAKE_TAG {
                let me = event.to as usize;
                if !self.has_output[me] {
                    if FAULTS && self.hit_lanes(me, clock, step_limit) {
                        return true;
                    }
                    let queued = self.queue.len();
                    self.activate(nodes, me, None);
                    if FAULTS {
                        self.stamp(queued, clock);
                    }
                }
            } else {
                let to = event.to as usize;
                self.received[to] += 1;
                self.delivered += 1;
                if self.has_output[to] {
                    self.pop_payload(false);
                } else {
                    if FAULTS && self.hit_lanes(to, clock, step_limit) {
                        return true;
                    }
                    self.pop_payload(true);
                    let queued = self.queue.len();
                    self.activate(nodes, to, Some(event.tag));
                    if FAULTS {
                        self.stamp(queued, clock);
                    }
                }
            }
            if self.diverged {
                return false;
            }
        }
        true
    }

    /// Consumes the head payload group, the one the delivery just popped
    /// carries, copying it into `incoming` when `read`. Then reclaims the
    /// delivered prefix: all of the ring once it drains, else the prefix
    /// once it spans [`COMPACT_GROUPS`] groups and at least the groups
    /// still in flight. Called only between activations, so an
    /// activation's sends always start at the ring's end.
    fn pop_payload(&mut self, read: bool) {
        let start = self.head;
        self.head += self.lanes;
        if read {
            self.incoming.clear();
            self.incoming
                .extend_from_slice(&self.payloads[start..self.head]);
        }
        let len = self.payloads.len();
        if self.head == len || (self.head >= COMPACT_GROUPS * self.lanes && 2 * self.head >= len) {
            self.peak_payloads = self.peak_payloads.max(len);
            self.payloads.drain(..self.head);
            self.head = 0;
        }
    }

    /// Advances the lanes' clock to the event just popped and returns it:
    /// the deliveries completed before it, or its arrival time (wakes at
    /// 0, ahead of every send).
    fn tick(&mut self, tag: u8) -> u64 {
        match self.clock {
            LaneClock::Deliveries => self.now = self.delivered,
            LaneClock::Latency(_) if tag != WAKE_TAG => {
                self.now = self
                    .times
                    .pop_front()
                    .expect("one arrival time per queued delivery");
            }
            LaneClock::Latency(_) => {}
        }
        self.now
    }

    /// On the latency clock, stamps the sends an activation at `clock`
    /// queued behind the first `queued` events: each arrives `L` later.
    fn stamp(&mut self, queued: usize, clock: u64) {
        if let LaneClock::Latency(latency) = self.clock {
            let arrive = clock_add(clock, latency);
            let sent = self.queue.len() - queued;
            self.times.extend(std::iter::repeat_n(arrive, sent));
        }
    }

    /// Hits every unhit lane whose plan has node `to` down at `clock`: the
    /// lanes whose scalar run drops this activation. Each settles or is
    /// left to rerun ([`LockstepEngine::settle`]). Returns `true` once
    /// every lane is hit.
    fn hit_lanes(&mut self, to: usize, clock: u64, step_limit: u64) -> bool {
        for i in self.first[to] as usize..self.first[to + 1] as usize {
            let lane = self.by_node[i].1 as usize;
            if self.state[lane] == LaneState::Unhit && self.plans[lane].is_down(to, clock) {
                self.state[lane] = if self.settle(lane, clock, step_limit) {
                    LaneState::Settled
                } else {
                    LaneState::Rerun
                };
                self.unhit -= 1;
            }
        }
        self.unhit == 0
    }

    /// Settles lane `lane` at its hit, the event just popped at `clock`,
    /// if its scalar run ends there. That run pops the events still queued
    /// in queue order, each a step (after the `step_limit` check) and a
    /// delivery also a receipt, on the lane's clock. If each reaches a node
    /// that has terminated or that the lane's plan has down, the run drops
    /// them all, sends nothing more and ends quiescent: the lane's
    /// execution is then written into its `settled` slot and `true`
    /// returned. Otherwise the lane must rerun: `false`.
    fn settle(&mut self, lane: usize, clock: u64, step_limit: u64) -> bool {
        let plan = &self.plans[lane];
        let (mut steps, mut delivered, mut last) = (self.steps, self.delivered, clock);
        let mut times = self.times.iter();
        for event in &self.queue {
            if steps >= step_limit {
                return false;
            }
            steps += 1;
            let wake = event.tag == WAKE_TAG;
            // As `tick` reads it: wakes, all queued ahead of every
            // delivery, keep the latency clock at 0.
            last = match self.clock {
                LaneClock::Deliveries => delivered,
                LaneClock::Latency(_) if !wake => {
                    *times.next().expect("one arrival time per queued delivery")
                }
                LaneClock::Latency(_) => last,
            };
            delivered += u64::from(!wake);
            let to = event.to as usize;
            if !self.has_output[to] && !plan.is_down(to, last) {
                return false;
            }
        }
        // The lane as of its hit, plus the drops.
        let mut out = std::mem::take(&mut self.settled[lane]);
        self.lockstep_into(lane, &mut out);
        out.stats.steps = steps;
        out.stats.delivered = delivered;
        for event in self.queue.iter().filter(|event| event.tag != WAKE_TAG) {
            out.stats.received[event.to as usize] += 1;
        }
        out.outcome = outcome_of(&out.outputs, true);
        self.plans[lane].settle_into(Some(last), &mut out);
        self.settled[lane] = out;
        true
    }

    /// Bytes the engine's buffers hold at their current capacities: the
    /// event queue, the payload ring, outputs, per-node counters, the
    /// per-lane crash bookkeeping and settled executions (not the fault
    /// plans themselves). Tests check it against [`engine_lane_bytes`]; it
    /// is not part of the API.
    #[doc(hidden)]
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        let settled: usize = (self.settled.iter())
            .map(|exec| {
                exec.outputs.capacity() * size_of::<Option<Option<u64>>>()
                    + (exec.stats.sent.capacity() + exec.stats.received.capacity())
                        * size_of::<u64>()
            })
            .sum();
        let words = self.payloads.capacity()
            + self.incoming.capacity()
            + self.outputs.capacity()
            + self.sent.capacity()
            + self.received.capacity()
            + self.times.capacity();
        words * size_of::<u64>()
            + self.queue.capacity() * size_of::<Event>()
            + self.by_node.capacity() * size_of::<(u32, u32)>()
            + self.first.capacity() * size_of::<u32>()
            + self.has_output.capacity()
            + self.state.capacity() * size_of::<LaneState>()
            + self.settled.capacity() * size_of::<Execution>()
            + settled
    }

    /// `true` when lane `lane` must rerun through the scalar engine: the
    /// last run dropped, on the lane's fault plan, an activation of the
    /// fault-free schedule, and the lane's scalar run did not end
    /// quiescent right there (see the module docs). A lane settled at its
    /// hit reports `false` and holds its result like an unhit lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_hit(&self, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.state[lane] == LaneState::Rerun
    }

    /// Dispatches one activation to `nodes[me]` with field-split borrows,
    /// then folds the activation's effects back into the engine.
    fn activate<N: LockstepNode>(&mut self, nodes: &mut [N], me: usize, tag: Option<u8>) {
        let lanes = self.lanes;
        let succ = if me + 1 == self.n { 0 } else { me + 1 } as u32;
        let out_start = me * lanes;
        let mut ctx = LaneCtx {
            lanes,
            succ,
            queue: &mut self.queue,
            payloads: &mut self.payloads,
            outputs: &mut self.outputs[out_start..out_start + lanes],
            sent: 0,
            terminated: false,
            diverged: false,
        };
        match tag {
            None => nodes[me].on_wake(&mut ctx),
            Some(t) => nodes[me].on_message(t, &self.incoming, &mut ctx),
        }
        let LaneCtx {
            sent,
            terminated,
            diverged,
            ..
        } = ctx;
        self.sent[me] += sent;
        if terminated {
            self.has_output[me] = true;
        }
        if diverged {
            self.diverged = true;
        }
    }

    /// Extracts trial `lane`'s [`Execution`] from the last completed run,
    /// bit-identical to the scalar engine's output for the same trial
    /// under the lane's fault plan, if any: the lockstep result for an
    /// unhit lane, the execution written at the hit for a settled one.
    ///
    /// Only meaningful after [`LockstepEngine::run`] returned `true`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or must rerun
    /// ([`LockstepEngine::lane_hit`]).
    pub fn execution_into(&self, lane: usize, out: &mut Execution) {
        assert!(!self.lane_hit(lane), "lane {lane} was hit by a crash");
        if self.state[lane] == LaneState::Settled {
            let settled = &self.settled[lane];
            out.outcome = settled.outcome;
            out.outputs.clone_from(&settled.outputs);
            out.stats.steps = settled.stats.steps;
            out.stats.delivered = settled.stats.delivered;
            out.stats.sent.clone_from(&settled.stats.sent);
            out.stats.received.clone_from(&settled.stats.received);
            out.stats.crashes = settled.stats.crashes;
            return;
        }
        self.lockstep_into(lane, out);
        // Lockstep runs never hit the step limit (that diverges), so the
        // stream always drained: `all_delivered` is unconditionally true,
        // exactly as in the scalar fused path on a completed run.
        out.outcome = outcome_of(&out.outputs, true);
        // An unhit lane's scalar run took this very schedule, so its last
        // event read the same clock; a completed run counted every event
        // it popped.
        match self.plans.get(lane) {
            Some(plan) => plan.settle_into((self.steps > 0).then_some(self.now), out),
            None => out.stats.crashes = 0,
        }
    }

    /// Writes lane `lane`'s outputs and the run's counters as they stand
    /// into `out`.
    fn lockstep_into(&self, lane: usize, out: &mut Execution) {
        out.outputs.clear();
        for i in 0..self.n {
            out.outputs.push(if self.has_output[i] {
                Some(Some(self.outputs[i * self.lanes + lane]))
            } else {
                None
            });
        }
        out.stats.steps = self.steps;
        out.stats.delivered = self.delivered;
        out.stats.sent.clear();
        out.stats.sent.extend_from_slice(&self.sent);
        out.stats.received.clear();
        out.stats.received.extend_from_slice(&self.received);
    }

    /// Resets per-run state for a `lanes`-wide group, retaining capacity.
    fn reset(&mut self, lanes: usize) {
        self.lanes = lanes;
        self.queue.clear();
        self.payloads.clear();
        self.head = 0;
        self.peak_payloads = 0;
        self.incoming.clear();
        self.outputs.clear();
        self.outputs.resize(self.n * lanes, 0);
        self.has_output.clear();
        self.has_output.resize(self.n, false);
        self.sent.clear();
        self.sent.resize(self.n, 0);
        self.received.clear();
        self.received.resize(self.n, 0);
        self.steps = 0;
        self.delivered = 0;
        self.diverged = false;
        self.state.clear();
        self.state.resize(lanes, LaneState::Unhit);
        self.unhit = lanes;
        self.times.clear();
        self.now = 0;
    }

    /// Decays retained payload capacity toward a ×4 budget of the recent
    /// high-water need (the policy the scalar engine and timed scheduler
    /// adopted in the memory-budget work), so an oversized one-off group
    /// does not pin its peak allocation forever. The need is the run's
    /// peak ring length: a finished run's ring is drained.
    fn decay_capacity(&mut self) {
        let used = self.peak_payloads.max(64);
        self.hwm_payloads = self.hwm_payloads.max(used);
        if self.payloads.capacity() > 4 * self.hwm_payloads {
            self.payloads.shrink_to(2 * self.hwm_payloads);
        }
        // Let the high-water itself decay so the budget tracks recent
        // groups, not the all-time peak.
        self.hwm_payloads = used.max(self.hwm_payloads / 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailReason, FnNode, Outcome};

    /// A k-lane ping-pong: the origin sends per-lane counters around a
    /// 2-ring until they reach a bound, then both nodes elect the bound.
    struct Pong {
        bound: u64,
        last: Vec<u64>,
    }

    impl LockstepNode for Pong {
        fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
            let out = ctx.send(0);
            out.copy_from_slice(&self.last);
        }

        fn on_message(&mut self, _tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
            self.last.copy_from_slice(lanes);
            if lanes.iter().all(|&v| v >= 3) {
                ctx.terminate().copy_from_slice(lanes);
                ctx.send(0).copy_from_slice(lanes);
            } else if lanes.iter().all(|&v| v < 3) {
                let out = ctx.send(0);
                for (o, &v) in out.iter_mut().zip(lanes) {
                    *o = v + self.bound;
                }
            } else {
                ctx.diverge();
            }
        }
    }

    #[test]
    fn lockstep_ping_pong_elects_per_lane() {
        let mut engine = LockstepEngine::new(2);
        let mut nodes = vec![
            Pong {
                bound: 1,
                last: vec![0, 1],
            },
            Pong {
                bound: 1,
                last: vec![0, 0],
            },
        ];
        // Lanes start at 0 and 1 and both count up by 1 per hop; they hit
        // ≥3 on the same hop only if they started equal — lanes 0/1 force
        // a divergence, which must be reported, not mis-executed.
        let ok = engine.run(2, &mut nodes, &[0], 1000);
        assert!(!ok, "unequal lanes must diverge");

        let mut nodes = vec![
            Pong {
                bound: 1,
                last: vec![0, 0],
            },
            Pong {
                bound: 1,
                last: vec![0, 0],
            },
        ];
        let ok = engine.run(2, &mut nodes, &[0], 1000);
        assert!(ok);
        let mut exec = Execution::default();
        for lane in 0..2 {
            engine.execution_into(lane, &mut exec);
            assert_eq!(exec.outcome, Outcome::Elected(3), "lane {lane}");
            assert_eq!(exec.stats.delivered, 6);
            assert_eq!(exec.stats.steps, 7);
        }
    }

    #[test]
    fn lane_fault_plans_hit_only_the_lanes_they_drop_an_activation_of() {
        let pongs = || {
            vec![
                Pong {
                    bound: 1,
                    last: vec![0; 3],
                },
                Pong {
                    bound: 1,
                    last: vec![0; 3],
                },
            ]
        };
        let mut engine = LockstepEngine::new(2);
        // Lane 0 drops the origin's wake, which leaves nothing queued, so
        // it settles there; lane 1's crash of node 1 at the second
        // delivery recovers before the third; lane 2's fires after node 1
        // terminated (on the sixth and last delivery's clock).
        let plans = [
            FaultPlan::none().with_crash(0, 0, Some(1)),
            FaultPlan::none().with_crash(1, 1, Some(2)),
            FaultPlan::none().with_crash(1, 5, None),
        ];
        engine.set_fault_plans(&plans, LaneClock::Deliveries);
        assert!(engine.run(3, &mut pongs(), &[0], 1000));
        let hits: Vec<bool> = (0..3).map(|lane| engine.lane_hit(lane)).collect();
        assert_eq!(hits, [false; 3]);
        let partition = Outcome::Fail(FailReason::CrashPartition);
        let mut exec = Execution::default();
        engine.execution_into(0, &mut exec);
        let seen = (exec.outcome, exec.stats.steps, exec.stats.crashes);
        assert_eq!(seen, (partition, 1, 1));
        engine.execution_into(1, &mut exec);
        assert_eq!((exec.outcome, exec.stats.crashes), (Outcome::Elected(3), 1));
        engine.execution_into(2, &mut exec);
        assert_eq!((exec.outcome, exec.stats.crashes), (Outcome::Elected(3), 1));

        // Every lane hit stops the run, which serves the settled lanes; an
        // empty slice restores the fault-free loop, which settles no
        // crashes and keeps no settled executions.
        engine.set_fault_plans(&plans[..1], LaneClock::Latency(5));
        assert!(engine.run(1, &mut pongs(), &[0], 1000));
        assert!(!engine.lane_hit(0));
        engine.execution_into(0, &mut exec);
        assert_eq!((exec.outcome, exec.stats.steps), (partition, 1));
        engine.set_fault_plans(&[], LaneClock::Deliveries);
        assert!(engine.run(3, &mut pongs(), &[0], 1000));
        engine.execution_into(0, &mut exec);
        assert_eq!((exec.outcome, exec.stats.crashes), (Outcome::Elected(3), 0));
        assert!(engine.settled.is_empty());
    }

    /// Runs one lane per plan, lane `l` of every position `node(l)` on a
    /// ring of `n`, under `plans` on `clock`, and the scalar engine on each
    /// lane's nodes under its plan: on FIFO links, or on a net whose links
    /// all take the clock's latency. Every lane that need not rerun must
    /// equal its scalar run. Returns, per lane, whether it must rerun and
    /// its scalar execution.
    fn faulty_lanes_vs_scalar<N: Node<u64>>(
        n: usize,
        node: impl Fn(u64) -> N,
        wakes: &[usize],
        plans: &[FaultPlan],
        clock: LaneClock,
        step_limit: u64,
    ) -> Vec<(bool, Execution)> {
        use crate::{
            Engine, FifoScheduler, LatencySpec, LinkProfile, Schedule, TimedNetConfig,
            TimedScheduler, Topology,
        };
        let mut rows: Vec<_> = (0..n).map(|me| NodeLanes::new(me, n)).collect();
        for lane in 0..plans.len() {
            for row in &mut rows {
                row.nodes_mut().push(node(lane as u64));
            }
        }
        let mut lockstep = LockstepEngine::new(n);
        lockstep.set_fault_plans(plans, clock);
        assert!(lockstep.run(plans.len(), &mut rows, wakes, step_limit));
        let mut engine = Engine::new(Topology::ring(n));
        let (mut fifo, mut heap) = (FifoScheduler::new(), TimedScheduler::new());
        let mut lane_exec = Execution::default();
        let mut lanes = Vec::new();
        for (lane, plan) in plans.iter().enumerate() {
            let mut nodes: Vec<_> = (0..n).map(|_| node(lane as u64)).collect();
            let net = match clock {
                LaneClock::Deliveries => None,
                LaneClock::Latency(ns) => Some(TimedNetConfig::uniform(LinkProfile {
                    latency: LatencySpec::Constant { ns },
                    ..LinkProfile::default()
                })),
            };
            let schedule = match &net {
                None => Schedule::Oblivious(&mut fifo),
                Some(net) => Schedule::Timed {
                    heap: &mut heap,
                    net,
                    seed: 0,
                },
            };
            let mut scalar = Execution::default();
            engine.set_fault_plan(plan);
            engine.run_into(&mut nodes, wakes, schedule, step_limit, None, &mut scalar);
            let rerun = lockstep.lane_hit(lane);
            if !rerun {
                lockstep.execution_into(lane, &mut lane_exec);
                assert_eq!(lane_exec, scalar, "lane {lane} of {clock:?}");
            }
            lanes.push((rerun, scalar));
        }
        lanes
    }

    #[test]
    fn a_hit_lane_settles_only_if_every_queued_event_drops() {
        let partition = Outcome::Fail(FailReason::CrashPartition);
        // The origin's wake sends two messages to node 1, delivered at
        // delivery clocks 0 and 1. Down over [0, 2), node 1 drops both, so
        // lane 0 settles at the first; down over [0, 1), it takes the
        // second, so lane 1 reruns; lane 2 is never hit.
        let plans = [
            FaultPlan::none().with_crash(1, 0, Some(2)),
            FaultPlan::none().with_crash(1, 0, Some(1)),
            FaultPlan::none(),
        ];
        let burst = |lane| burst_node(lane, 2, 3);
        let lanes = faulty_lanes_vs_scalar(3, burst, &[0], &plans, LaneClock::Deliveries, 1000);
        let reruns: Vec<bool> = lanes.iter().map(|(rerun, _)| *rerun).collect();
        assert_eq!(reruns, [false, true, false]);
        let settled = &lanes[0].1;
        assert_eq!(settled.outcome, partition);
        assert_eq!((settled.stats.steps, settled.stats.received[1]), (3, 2));
        assert!(lanes[1].1.stats.delivered > 2, "node 1 took the second");

        // On the latency clock both messages arrive at 5: a crash over
        // [5, 6) drops both.
        let plans = [FaultPlan::none().with_crash(1, 5, Some(6))];
        let lanes = faulty_lanes_vs_scalar(3, burst, &[0], &plans, LaneClock::Latency(5), 1000);
        assert!(!lanes[0].0);
        assert_eq!(lanes[0].1.outcome, partition);

        // Every node wakes: dropping node 0's wake leaves the other wakes
        // queued for live nodes, so the lane reruns.
        let plans = [
            FaultPlan::none().with_crash(0, 0, Some(1)),
            FaultPlan::none(),
        ];
        let all = [0, 1, 2];
        let lanes = faulty_lanes_vs_scalar(3, burst, &all, &plans, LaneClock::Deliveries, 1000);
        assert!(lanes[0].0 && !lanes[1].0);
    }

    #[test]
    fn a_walk_past_the_step_limit_reruns_as_a_step_limit() {
        // Five messages to node 1, down for good from the start: the
        // scalar run ends after the wake and the five drops, at step 6.
        let plans = [FaultPlan::none().with_crash(1, 0, None)];
        let burst = |lane| burst_node(lane, 5, 9);
        let clock = LaneClock::Deliveries;
        let lanes = faulty_lanes_vs_scalar(3, burst, &[0], &plans, clock, 6);
        assert!(!lanes[0].0);
        let settled = &lanes[0].1;
        assert_eq!((settled.stats.steps, settled.stats.delivered), (6, 5));
        // One step short, the walk would pass the limit: the lane reruns,
        // and its scalar run stops at the limit.
        let lanes = faulty_lanes_vs_scalar(3, burst, &[0], &plans, clock, 5);
        assert!(lanes[0].0);
        assert_eq!(lanes[0].1.outcome, Outcome::Fail(FailReason::StepLimit));
    }

    #[test]
    fn a_run_whose_lanes_all_settle_returns_true() {
        // Lane 0 settles at node 1's first delivery; lane 1 runs on until
        // node 2, down for good, drops the forwarded pair, and settles at
        // the first of it, which stops the run.
        let plans = [
            FaultPlan::none().with_crash(1, 0, None),
            FaultPlan::none().with_crash(2, 0, None),
        ];
        let burst = |lane| burst_node(lane, 2, 3);
        let lanes = faulty_lanes_vs_scalar(3, burst, &[0], &plans, LaneClock::Deliveries, 1000);
        assert!(lanes.iter().all(|(rerun, _)| !rerun));
        let steps: Vec<u64> = lanes.iter().map(|(_, exec)| exec.stats.steps).collect();
        assert_eq!(steps, [3, 5]);
    }

    #[test]
    fn step_limit_diverges() {
        struct Loopy;
        impl LockstepNode for Loopy {
            fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
                ctx.send(0);
            }
            fn on_message(&mut self, _t: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
                ctx.send(0).copy_from_slice(lanes);
            }
        }
        let mut engine = LockstepEngine::new(2);
        let mut nodes = vec![Loopy, Loopy];
        assert!(!engine.run(1, &mut nodes, &[0], 100));
    }

    #[test]
    fn terminated_nodes_drop_but_count_deliveries() {
        // Node 1 terminates on its first delivery; node 0 sends twice at
        // wake. The second delivery must be counted and dropped.
        struct Once;
        impl LockstepNode for Once {
            fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
                ctx.send(0);
                ctx.send(0);
            }
            fn on_message(&mut self, _t: u8, _l: &[u64], ctx: &mut LaneCtx<'_>) {
                ctx.terminate();
            }
        }
        struct Sink;
        impl LockstepNode for Sink {
            fn on_wake(&mut self, _ctx: &mut LaneCtx<'_>) {}
            fn on_message(&mut self, _t: u8, _l: &[u64], ctx: &mut LaneCtx<'_>) {
                ctx.terminate();
            }
        }
        enum Mix {
            Once(Once),
            Sink(Sink),
        }
        impl LockstepNode for Mix {
            fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
                match self {
                    Mix::Once(x) => x.on_wake(ctx),
                    Mix::Sink(x) => x.on_wake(ctx),
                }
            }
            fn on_message(&mut self, t: u8, l: &[u64], ctx: &mut LaneCtx<'_>) {
                match self {
                    Mix::Once(x) => x.on_message(t, l, ctx),
                    Mix::Sink(x) => x.on_message(t, l, ctx),
                }
            }
        }
        let mut engine = LockstepEngine::new(2);
        let mut nodes = vec![Mix::Once(Once), Mix::Sink(Sink)];
        assert!(engine.run(3, &mut nodes, &[0], 100));
        let mut exec = Execution::default();
        engine.execution_into(0, &mut exec);
        // Node 1 terminated on the first delivery but both deliveries are
        // counted (wake + 2 deliveries = 3 steps)... node 0 never
        // terminates, so the run deadlocks — exactly what the scalar
        // engine reports for this behaviour.
        assert_eq!(exec.stats.delivered, 2);
        assert_eq!(exec.stats.received[1], 2);
        assert_eq!(exec.stats.steps, 3);
        assert!(exec.outcome.is_fail());
    }

    /// A `Node<u64>` whose sends and termination follow `sends(lane's
    /// received count)` and `stop`, so tests can make lanes disagree.
    fn scripted(
        lane: u64,
        sends: impl Fn(u64) -> u64,
        stop: impl Fn(u64) -> Option<Option<u64>>,
    ) -> impl Node<u64> {
        let mut count = 0;
        FnNode::new(move |_from, msg: u64, ctx: &mut Ctx<'_, u64>| {
            count += 1;
            for j in 0..sends(count) {
                ctx.send(msg + j);
            }
            if let Some(output) = stop(count) {
                ctx.terminate(output);
            }
        })
        .on_wake(move |ctx| ctx.send(lane))
    }

    /// Runs `lanes` lanes of [`scripted`] nodes on a ring of 3, lane `l`
    /// at position 1 built by `at_one(l)`, and returns whether the group
    /// stayed in lockstep.
    fn scripted_group<N: Node<u64>>(lanes: u64, at_one: impl Fn(u64) -> N) -> bool {
        let n = 3;
        let mut rows: Vec<NodeLanes<Box<dyn Node<u64>>>> =
            (0..n).map(|me| NodeLanes::new(me, n)).collect();
        for lane in 0..lanes {
            for (me, row) in rows.iter_mut().enumerate() {
                let node: Box<dyn Node<u64>> = if me == 1 {
                    Box::new(at_one(lane))
                } else {
                    Box::new(scripted(lane, |_| 1, |c| (c == 2).then_some(Some(c))))
                };
                row.nodes_mut().push(node);
            }
        }
        LockstepEngine::new(n).run(lanes as usize, &mut rows, &[0], 1000)
    }

    #[test]
    fn node_lanes_diverge_on_any_lane_disagreement_or_abort() {
        // Position 1 forwards each message once and elects 9 on its second.
        let once = |_| 1;
        let stop = |c| (c == 2).then_some(Some(9));
        assert!(scripted_group(3, |lane| scripted(lane, once, stop)));
        // Lane 2 sends twice on its first message, the others once.
        let sends = |lane| scripted(lane, move |c| 1 + u64::from(lane == 2 && c == 1), stop);
        assert!(!scripted_group(3, sends));
        // Lane 1 terminates a message earlier than lane 0.
        let early = |lane| scripted(lane, once, move |c| (c == 2 - lane).then_some(Some(9)));
        assert!(!scripted_group(2, early));
        // The lanes agree on every shape, but lane 1 outputs ⊥.
        let abort = |lane| {
            scripted(lane, once, move |c| {
                (c == 2).then_some((lane != 1).then_some(9))
            })
        };
        assert!(!scripted_group(2, abort));
        // A single lane that outputs ⊥ diverges on its own.
        let bottom = |c| (c == 2).then_some(None);
        assert!(!scripted_group(1, |lane| scripted(lane, once, bottom)));
    }

    #[test]
    fn uniform_node_lanes_equal_scalar_runs() {
        use crate::{default_step_limit, Engine, FifoScheduler, Schedule, Topology};
        // Every node forwards each message twice on its first delivery and
        // once after, mixing in its id and its sender's, and terminates
        // with the payload on its third delivery: per-lane data, one shape.
        fn node(lane: u64) -> impl Node<u64> {
            let mut count = 0u64;
            FnNode::new(move |from, msg: u64, ctx: &mut Ctx<'_, u64>| {
                count += 1;
                let mixed = msg.wrapping_mul(31) + (from * 7 + ctx.me()) as u64;
                ctx.send(mixed);
                if count == 1 {
                    ctx.send(mixed ^ lane);
                }
                if count == 3 {
                    ctx.terminate(Some(msg % 1000));
                }
            })
            .on_wake(move |ctx| ctx.send(lane * 1_000_003))
        }
        let (n, lanes) = (5, 7);
        let wakes = [0, 3];
        let mut rows: Vec<_> = (0..n).map(|me| NodeLanes::new(me, n)).collect();
        for lane in 0..lanes {
            for row in &mut rows {
                row.nodes_mut().push(node(lane as u64));
            }
        }
        let mut lockstep = LockstepEngine::new(n);
        assert!(lockstep.run(lanes, &mut rows, &wakes, default_step_limit(n)));
        let mut engine = Engine::new(Topology::ring(n));
        let (mut scalar, mut lane_exec) = (Execution::default(), Execution::default());
        let mut outputs = std::collections::HashSet::new();
        for lane in 0..lanes {
            let mut nodes: Vec<_> = (0..n).map(|_| node(lane as u64)).collect();
            let schedule = Schedule::Oblivious(&mut FifoScheduler::new());
            engine.run_into(
                &mut nodes,
                &wakes,
                schedule,
                default_step_limit(n),
                None,
                &mut scalar,
            );
            lockstep.execution_into(lane, &mut lane_exec);
            assert_eq!(lane_exec, scalar, "lane {lane}");
            outputs.insert(scalar.outputs.clone());
        }
        assert_eq!(outputs.len(), lanes, "every lane elects its own outputs");
        assert!(
            scalar.stats.sent.iter().all(|&s| s > 1),
            "every node forwarded"
        );
    }

    /// Every node forwards each message once, mixing in its id and its
    /// sender's, and terminates with the payload on its `stop`-th
    /// delivery; the origin wakes with a burst of `burst` messages, which
    /// keeps `burst` groups in flight until the first node stops.
    fn burst_node(lane: u64, burst: u64, stop: u64) -> impl Node<u64> {
        let mut count = 0u64;
        FnNode::new(move |from, msg: u64, ctx: &mut Ctx<'_, u64>| {
            count += 1;
            ctx.send(msg.wrapping_mul(31) ^ (from * 7 + ctx.me()) as u64);
            if count == stop {
                ctx.terminate(Some(msg % 1000));
            }
        })
        .on_wake(move |ctx| {
            for j in 0..burst {
                ctx.send(lane * 1_000_003 + j);
            }
        })
    }

    #[test]
    fn bursts_past_the_compaction_threshold_equal_scalar_runs() {
        use crate::{default_step_limit, Engine, FifoScheduler, Schedule, Topology};
        let (n, lanes) = (3, 5);
        let burst = 2 * COMPACT_GROUPS as u64 + 5;
        let stop = 2 * burst + 7;
        let mut rows: Vec<_> = (0..n).map(|me| NodeLanes::new(me, n)).collect();
        for lane in 0..lanes {
            for row in &mut rows {
                row.nodes_mut().push(burst_node(lane as u64, burst, stop));
            }
        }
        let mut lockstep = LockstepEngine::new(n);
        assert!(lockstep.run(lanes, &mut rows, &[0], default_step_limit(n)));
        // The ring compacted while more groups than the threshold were in
        // flight, so it never held all the groups the run sent, and the
        // engine kept within its lanes' bytes for `burst` groups in flight.
        let sent: u64 = lockstep.sent.iter().sum();
        assert!(lockstep.peak_payloads >= burst as usize * lanes);
        assert!(lockstep.peak_payloads < sent as usize * lanes);
        let bound = lanes as u64 * engine_lane_bytes(n as u64, burst);
        let held = lockstep.retained_bytes() as u64;
        assert!(held <= bound, "{held} > {bound} bytes");
        let mut engine = Engine::new(Topology::ring(n));
        let (mut scalar, mut lane_exec) = (Execution::default(), Execution::default());
        for lane in 0..lanes {
            let mut nodes: Vec<_> = (0..n)
                .map(|_| burst_node(lane as u64, burst, stop))
                .collect();
            let schedule = Schedule::Oblivious(&mut FifoScheduler::new());
            engine.run_into(
                &mut nodes,
                &[0],
                schedule,
                default_step_limit(n),
                None,
                &mut scalar,
            );
            lockstep.execution_into(lane, &mut lane_exec);
            assert_eq!(lane_exec, scalar, "lane {lane}");
        }
        assert!(
            scalar.outputs.iter().all(Option::is_some),
            "every node stopped"
        );
    }

    #[test]
    fn retained_capacity_of_the_payload_ring_decays_after_a_burst() {
        // A burst of 2,048 groups of 16 lanes grows the ring to at least
        // 32,768 slots; small groups afterwards must release it.
        let burst = 2048;
        let mut engine = LockstepEngine::new(2);
        let mut rows: Vec<_> = (0..2).map(|me| NodeLanes::new(me, 2)).collect();
        for lane in 0..16 {
            for row in &mut rows {
                row.nodes_mut().push(burst_node(lane, burst, burst));
            }
        }
        assert!(engine.run(16, &mut rows, &[0], u64::MAX));
        let peak = engine.payloads.capacity();
        assert!(
            peak >= 16 * burst as usize,
            "the burst grew the ring to {peak}"
        );
        for _ in 0..32 {
            let mut rows: Vec<_> = (0..2).map(|me| NodeLanes::new(me, 2)).collect();
            for lane in 0..2 {
                for row in &mut rows {
                    row.nodes_mut().push(burst_node(lane, 2, 3));
                }
            }
            assert!(engine.run(2, &mut rows, &[0], u64::MAX));
        }
        assert!(
            engine.payloads.capacity() <= 1024,
            "the payload ring retained {} of its peak {peak} slots",
            engine.payloads.capacity()
        );
    }
}
