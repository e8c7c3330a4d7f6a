//! Batch-lockstep honest nodes for the four ring protocols.
//!
//! These are the structure-of-arrays translations of the scalar honest
//! nodes: each node holds its per-trial fields (`d`, `sum`, `buffer`,
//! `v_own`, the phase `store`) as `k`-lane `Vec<u64>`s laid out
//! `[trial0, trial1, …]`, and one activation over the shared
//! [`LockstepEngine`] event stream advances all `k` trials at once. The
//! honest control flow of every protocol here is data-independent (data
//! only feeds *abort* branches, which honest runs never take), so the
//! scalar per-trial branch structure carries over verbatim with each
//! scalar field access widened to a `k`-lane loop.
//!
//! Every branch the scalar node decides on data — the full-circle
//! validation `m == d`, the validator's `v == v_own` check, message
//! parity — becomes a *uniformity* check here: if all lanes agree with
//! the honest outcome the batch proceeds, otherwise the node calls
//! [`LaneCtx::diverge`] and the caller re-runs the group through the
//! scalar path. Batched results are therefore bit-identical to scalar
//! results unconditionally; the fast path simply only engages where it
//! is exact.
//!
//! The phase protocols additionally amortize the output computation: all
//! honest processors of one trial collect identical `d̂`/`v̂` tables, so
//! the first terminator snapshots its tables and evaluates
//! `f` once per *lane* (via the precomputed [`EvalTable`]), and every
//! later terminator merely memcmps its tables against the snapshot and
//! reuses the outputs — turning `n` evaluations of `f` per trial into
//! one evaluation plus `n − 1` comparisons.

use super::{
    fold_mod, node_rng, wrap_sub, wrap_sub_usize, ALeadUni, BasicLead, FleProtocol,
    LockstepProtocol, PhaseAsyncLead, PhaseSumLead, ORIGIN_WAKES,
};
use crate::randfn::{EvalTable, PhaseParams};
use ring_sim::batch::{engine_lane_bytes, LaneCtx, LockstepEngine, LockstepNode};
use ring_sim::{default_step_limit, Execution, NodeId};
use std::cell::RefCell;
use std::rc::Rc;

/// Runs one lockstep group on a reusable [`LockstepEngine`]: the batch
/// analogue of [`super::run_ring_honest_pooled_into`]. `nodes` must
/// already be configured for the group's lanes (each protocol's
/// `run_honest_batch_into` does this).
///
/// Returns `false` if the group diverged (the caller must re-run the
/// group's trials through the scalar path); on `true` the per-lane
/// [`Execution`]s are available via [`LockstepEngine::execution_into`].
///
/// # Panics
///
/// Panics if the engine's ring size differs from `n` or `nodes.len()`.
pub fn run_ring_honest_batch_into<N: LockstepNode>(
    engine: &mut LockstepEngine,
    n: usize,
    lanes: usize,
    nodes: &mut [N],
    wakes: &[NodeId],
) -> bool {
    assert_eq!(
        engine.n(),
        n,
        "engine ring size must match the protocol's ring size"
    );
    engine.run(lanes, nodes, wakes, default_step_limit(n))
}

/// Rebuilds `nodes` as `n` fresh nodes, or resets them in place when the
/// vector already holds `n` (retaining every inner lane allocation).
fn ensure_nodes<N>(
    nodes: &mut Vec<N>,
    n: usize,
    mut make: impl FnMut(usize) -> N,
    mut reset: impl FnMut(usize, &mut N),
) {
    if nodes.len() == n {
        for (id, node) in nodes.iter_mut().enumerate() {
            reset(id, node);
        }
    } else {
        nodes.clear();
        nodes.extend((0..n).map(&mut make));
    }
}

// ---------------------------------------------------------------------
// Basic-LEAD
// ---------------------------------------------------------------------

/// The `k`-lane honest `Basic-LEAD` processor: scalar control flow
/// (`round` is shared — the lockstep invariant), per-lane `d` and `sum`.
pub struct BatchBasicNode {
    n: u64,
    round: u64,
    d: Vec<u64>,
    sum: Vec<u64>,
}

impl BatchBasicNode {
    /// An empty `k`-lane processor on a ring of `n`; [`Self::refill`]
    /// readies it for a group.
    fn new(n: usize, k: usize) -> Self {
        BatchBasicNode {
            n: n as u64,
            round: 0,
            d: Vec::with_capacity(k),
            sum: Vec::with_capacity(k),
        }
    }

    /// Readies position `id` for a group of `seeds.len()` lanes: round 0,
    /// zero sums, and lane `l`'s secret drawn from `seeds[l]` (or the
    /// pinned value of `id`).
    fn refill(&mut self, id: usize, seeds: &[u64], pinned: Option<&[u64]>) {
        let (n, k) = (self.n, seeds.len());
        self.round = 0;
        self.d.clear();
        match pinned {
            Some(vs) => self.d.resize(k, vs[id]),
            None => self
                .d
                .extend(seeds.iter().map(|&s| node_rng(s, id).next_below(n))),
        }
        self.sum.clear();
        self.sum.resize(k, 0);
    }
}

impl LockstepNode for BatchBasicNode {
    fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
        ctx.send(0).copy_from_slice(&self.d);
    }

    fn on_message(&mut self, _tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
        let n = self.n;
        self.round += 1;
        if self.round < n {
            let out = ctx.send(0);
            for ((o, s), &x) in out.iter_mut().zip(self.sum.iter_mut()).zip(lanes) {
                let m = fold_mod(x, n);
                *s = wrap_sub(*s + m, n);
                *o = m;
            }
        } else {
            // Scalar: the full-circle value must be the own secret, else
            // abort. All lanes agree in honest runs; otherwise diverge.
            let mut all_own = true;
            for ((s, &d), &x) in self.sum.iter_mut().zip(&self.d).zip(lanes) {
                let m = fold_mod(x, n);
                *s = wrap_sub(*s + m, n);
                all_own &= m == d;
            }
            if all_own {
                ctx.terminate().copy_from_slice(&self.sum);
            } else {
                ctx.diverge();
            }
        }
    }
}

/// Reusable per-worker state for batched honest `Basic-LEAD` groups.
pub struct BasicBatchCache {
    engine: LockstepEngine,
    nodes: Vec<BatchBasicNode>,
    wakes: Vec<NodeId>,
}

impl BasicBatchCache {
    /// Creates the cache for a ring of `n` processors.
    pub fn ring(n: usize) -> Self {
        Self {
            engine: LockstepEngine::new(n),
            nodes: Vec::new(),
            wakes: (0..n).collect(),
        }
    }

    /// Extracts lane `lane`'s [`Execution`] from the last successful
    /// group (see [`LockstepEngine::execution_into`]).
    pub fn execution_into(&self, lane: usize, out: &mut Execution) {
        self.engine.execution_into(lane, out);
    }
}

impl BasicLead {
    /// Runs `seeds.len()` honest trials in lockstep, lane `l` simulating
    /// `self.with_seed(seeds[l])`. Returns `false` if the group diverged
    /// (re-run scalar); on `true` read per-lane results from
    /// [`BasicBatchCache::execution_into`], each bit-identical to
    /// [`RingProtocol::run_honest_in`](super::RingProtocol::run_honest_in)
    /// with that seed.
    ///
    /// # Panics
    ///
    /// Panics if the cache's ring size differs from `n` or `seeds` is
    /// empty.
    pub fn run_honest_batch_into(&self, seeds: &[u64], cache: &mut BasicBatchCache) -> bool {
        let n = self.n();
        let k = seeds.len();
        let pinned = self.pinned_values();
        ensure_nodes(
            &mut cache.nodes,
            n,
            |id| {
                let mut node = BatchBasicNode::new(n, k);
                node.refill(id, seeds, pinned);
                node
            },
            |id, node| node.refill(id, seeds, pinned),
        );
        run_ring_honest_batch_into(&mut cache.engine, n, k, &mut cache.nodes, &cache.wakes)
    }
}

// ---------------------------------------------------------------------
// A-LEADuni
// ---------------------------------------------------------------------

/// The `k`-lane honest `A-LEADuni` processor: the origin is a
/// `Basic-LEAD` processor (it pipes), normals carry the one-round delay
/// `buffer` per lane.
pub struct BatchALeadNode {
    /// The `Basic-LEAD` registers; the origin runs their handlers as is.
    basic: BatchBasicNode,
    origin: bool,
    /// Normal processors' delay buffer (empty for the origin).
    buffer: Vec<u64>,
}

impl LockstepNode for BatchALeadNode {
    fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
        self.basic.on_wake(ctx);
    }

    fn on_message(&mut self, tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
        if self.origin {
            return self.basic.on_message(tag, lanes, ctx);
        }
        let BatchBasicNode {
            n,
            round,
            d: secrets,
            sum,
        } = &mut self.basic;
        let n = *n;
        // Scalar order: send the buffer first, then absorb the new value
        // into buffer and sum.
        ctx.send(0).copy_from_slice(&self.buffer);
        *round += 1;
        let mut all_own = true;
        for (((b, s), &d), &x) in self
            .buffer
            .iter_mut()
            .zip(sum.iter_mut())
            .zip(secrets.iter())
            .zip(lanes)
        {
            let m = fold_mod(x, n);
            *b = m;
            *s = wrap_sub(*s + m, n);
            all_own &= m == d;
        }
        if *round == n {
            if all_own {
                ctx.terminate().copy_from_slice(sum);
            } else {
                ctx.diverge();
            }
        }
    }
}

/// Reusable per-worker state for batched honest `A-LEADuni` groups.
pub struct ALeadBatchCache {
    engine: LockstepEngine,
    nodes: Vec<BatchALeadNode>,
}

impl ALeadBatchCache {
    /// Creates the cache for a ring of `n` processors.
    pub fn ring(n: usize) -> Self {
        Self {
            engine: LockstepEngine::new(n),
            nodes: Vec::new(),
        }
    }

    /// Extracts lane `lane`'s [`Execution`] from the last successful
    /// group (see [`LockstepEngine::execution_into`]).
    pub fn execution_into(&self, lane: usize, out: &mut Execution) {
        self.engine.execution_into(lane, out);
    }
}

impl ALeadUni {
    /// Runs `seeds.len()` honest trials in lockstep, lane `l` simulating
    /// `self.with_seed(seeds[l])` — see
    /// [`BasicLead::run_honest_batch_into`] for the contract.
    ///
    /// # Panics
    ///
    /// Panics if the cache's ring size differs from `n` or `seeds` is
    /// empty.
    pub fn run_honest_batch_into(&self, seeds: &[u64], cache: &mut ALeadBatchCache) -> bool {
        let n = self.n();
        let k = seeds.len();
        let pinned = self.pinned_values();
        let fill = |id: usize, node: &mut BatchALeadNode| {
            node.basic.refill(id, seeds, pinned);
            node.buffer.clear();
            if !node.origin {
                // A normal processor's buffer starts holding its secret.
                node.buffer.extend_from_slice(&node.basic.d);
            }
        };
        ensure_nodes(
            &mut cache.nodes,
            n,
            |id| {
                let mut node = BatchALeadNode {
                    basic: BatchBasicNode::new(n, k),
                    origin: id == 0,
                    buffer: Vec::with_capacity(k),
                };
                fill(id, &mut node);
                node
            },
            &fill,
        );
        run_ring_honest_batch_into(&mut cache.engine, n, k, &mut cache.nodes, ORIGIN_WAKES)
    }
}

// ---------------------------------------------------------------------
// Phase protocols
// ---------------------------------------------------------------------

/// Message tag of the phase protocols' data wave.
const DATA_TAG: u8 = 0;
/// Message tag of the phase protocols' validation wave.
const VAL_TAG: u8 = 1;

/// How a batched phase group computes terminal outputs.
enum BatchOutputRule {
    /// `f(d̂, v̂_1..v̂_{n−l})` via the precomputed strided table.
    Random(EvalTable),
    /// `Σ d̂ (mod n)` — the Appendix E.4 ablation.
    Sum,
}

/// The group-level output amortization state shared by all `n` nodes of
/// one batched phase group (see the module docs): the first terminator
/// publishes its collected tables and the per-lane outputs; later
/// terminators compare and reuse.
struct PhaseShared {
    params: PhaseParams,
    rule: BatchOutputRule,
    /// `true` once the first terminator published its snapshot.
    ready: bool,
    /// Per-lane outputs of the snapshot's tables.
    outs: Vec<u64>,
    /// The first terminator's collected data table (`n·k` slot-major).
    data_snap: Vec<u64>,
    /// The first terminator's `f`-relevant validation values
    /// (`vals_in_f·k` slot-major).
    vals_snap: Vec<u64>,
}

impl PhaseShared {
    fn reset(&mut self) {
        self.ready = false;
    }
}

/// The `k`-lane honest phase processor (`PhaseAsyncLead` /
/// `PhaseSumLead`, differing only in the shared output rule).
///
/// The `store` is the slot-major SoA form of the scalar node's packed
/// `data ‖ vals` table: slot `i`'s lanes occupy
/// `store[i·k .. (i+1)·k]`. Slots are never read before being written
/// within a run, so the store is *not* re-zeroed between groups.
pub struct BatchPhaseNode {
    id: usize,
    origin: bool,
    n: usize,
    m: u64,
    /// Completed data rounds (shared across lanes — lockstep invariant).
    round: usize,
    expect_data: bool,
    lanes: usize,
    d: Vec<u64>,
    /// Pre-drawn validation values (the scalar node draws `v_own` lazily
    /// at its validator round, but it is the node stream's second draw,
    /// so drawing it at setup is stream-identical).
    v_own: Vec<u64>,
    buffer: Vec<u64>,
    store: Vec<u64>,
    shared: Rc<RefCell<PhaseShared>>,
}

impl BatchPhaseNode {
    /// The round this processor validates (0-indexed `p` validates round
    /// `p + 1`).
    fn validator_round(&self) -> usize {
        self.id + 1
    }

    /// The round `r ∈ 1..=n` whose data value the current delivery
    /// carries — conditional subtracts, as in the scalar node.
    fn data_round(&self) -> usize {
        if self.round < self.n {
            self.round
        } else {
            self.round % self.n
        }
    }

    /// Terminates all lanes, computing or reusing the group's outputs.
    fn finish(&mut self, ctx: &mut LaneCtx<'_>) {
        let (n, k) = (self.n, self.lanes);
        let mut sh = self.shared.borrow_mut();
        let vif = sh.params.vals_in_f();
        let data = &self.store[..n * k];
        // The scalar output reads `vals[1..=vals_in_f]` of the packed
        // store — slots `n+1 .. n+1+vals_in_f` here.
        let vals = &self.store[(n + 1) * k..(n + 1 + vif) * k];
        let sh = &mut *sh;
        if !sh.ready {
            sh.ready = true;
            sh.data_snap.clear();
            sh.data_snap.extend_from_slice(data);
            sh.vals_snap.clear();
            sh.vals_snap.extend_from_slice(vals);
            sh.outs.clear();
            match &sh.rule {
                BatchOutputRule::Random(table) => {
                    for lane in 0..k {
                        sh.outs.push(table.eval_strided(data, vals, k, lane));
                    }
                }
                BatchOutputRule::Sum => {
                    for lane in 0..k {
                        let sum: u64 = (0..n).map(|i| data[i * k + lane]).sum();
                        sh.outs.push(sum % n as u64);
                    }
                }
            }
            ctx.terminate().copy_from_slice(&sh.outs);
        } else if sh.data_snap == data && sh.vals_snap == vals {
            // Identical inputs to a pure function: the scalar node would
            // compute the identical output — reuse it.
            ctx.terminate().copy_from_slice(&sh.outs);
        } else {
            // Scalar processors would disagree; that is a legal scalar
            // outcome (Disagreement) this path cannot represent.
            ctx.diverge();
        }
    }
}

impl LockstepNode for BatchPhaseNode {
    fn on_wake(&mut self, ctx: &mut LaneCtx<'_>) {
        // Scalar origin wake: record own data, open round 1, emit the
        // first data and validation waves.
        let k = self.lanes;
        self.store[..k].copy_from_slice(&self.d);
        self.round = 1;
        ctx.send(DATA_TAG).copy_from_slice(&self.d);
        ctx.send(VAL_TAG).copy_from_slice(&self.v_own);
    }

    fn on_message(&mut self, tag: u8, lanes: &[u64], ctx: &mut LaneCtx<'_>) {
        let (n, k) = (self.n, self.lanes);
        match (tag, self.expect_data) {
            (DATA_TAG, true) if !self.origin => {
                self.expect_data = false;
                self.round += 1;
                // Buffered secret sharing: forward the buffer, keep x.
                ctx.send(DATA_TAG).copy_from_slice(&self.buffer);
                let r = self.data_round();
                let base = wrap_sub_usize(self.id + n - r, n) * k;
                let mut all_own = true;
                for (((slot, b), &d), &raw) in self.store[base..base + k]
                    .iter_mut()
                    .zip(self.buffer.iter_mut())
                    .zip(&self.d)
                    .zip(lanes)
                {
                    let x = fold_mod(raw, n as u64);
                    *slot = x;
                    *b = x;
                    all_own &= x == d;
                }
                if self.round == self.validator_round() {
                    ctx.send(VAL_TAG).copy_from_slice(&self.v_own);
                }
                if self.round == n && !all_own {
                    ctx.diverge();
                }
            }
            (DATA_TAG, true) => {
                self.expect_data = false;
                let r = self.data_round();
                let base = wrap_sub_usize(n - r, n) * k;
                let mut all_own = true;
                for (((slot, b), &d), &raw) in self.store[base..base + k]
                    .iter_mut()
                    .zip(self.buffer.iter_mut())
                    .zip(&self.d)
                    .zip(lanes)
                {
                    let x = fold_mod(raw, n as u64);
                    *slot = x;
                    *b = x;
                    all_own &= x == d;
                }
                if self.round == n && !all_own {
                    ctx.diverge();
                }
            }
            (VAL_TAG, false) => {
                self.expect_data = true;
                let vr = if self.origin {
                    1
                } else {
                    self.validator_round()
                };
                if self.round == vr {
                    // Our own validation value coming full circle: absorb,
                    // do not forward. Any mismatch is the scalar abort.
                    let base = (n + self.round) * k;
                    let mut intact = true;
                    for ((slot, &own), &raw) in self.store[base..base + k]
                        .iter_mut()
                        .zip(&self.v_own)
                        .zip(lanes)
                    {
                        intact &= fold_mod(raw, self.m) == own;
                        *slot = own;
                    }
                    if !intact {
                        ctx.diverge();
                        return;
                    }
                } else {
                    let base = (n + self.round) * k;
                    let out = ctx.send(VAL_TAG);
                    for ((slot, o), &raw) in
                        self.store[base..base + k].iter_mut().zip(out).zip(lanes)
                    {
                        let y = fold_mod(raw, self.m);
                        *slot = y;
                        *o = y;
                    }
                }
                if self.round == n {
                    self.finish(ctx);
                } else if self.origin {
                    // The origin launches the next round's data wave.
                    ctx.send(DATA_TAG).copy_from_slice(&self.buffer);
                    self.round += 1;
                }
            }
            // Parity violation — the scalar abort this path cannot take.
            _ => ctx.diverge(),
        }
    }
}

/// Configuration signature of a phase batch cache's prepared state; a
/// change (different protocol, `fn_key`, or ablated `m`) rebuilds the
/// shared output rule and [`EvalTable`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum PhaseSig {
    Random { params: PhaseParams, key: u64 },
    Sum { params: PhaseParams },
}

/// Reusable per-worker state for batched honest phase-protocol groups
/// (`PhaseAsyncLead` and `PhaseSumLead` share it — they differ only in
/// the output rule).
pub struct PhaseBatchCache {
    engine: LockstepEngine,
    nodes: Vec<BatchPhaseNode>,
    shared: Rc<RefCell<PhaseShared>>,
    sig: Option<PhaseSig>,
}

impl PhaseBatchCache {
    /// Creates the cache for a ring of `n` processors.
    pub fn ring(n: usize) -> Self {
        Self {
            engine: LockstepEngine::new(n),
            nodes: Vec::new(),
            shared: Rc::new(RefCell::new(PhaseShared {
                params: PhaseParams::for_ring(n.max(2)),
                rule: BatchOutputRule::Sum,
                ready: false,
                outs: Vec::new(),
                data_snap: Vec::new(),
                vals_snap: Vec::new(),
            })),
            sig: None,
        }
    }

    /// Extracts lane `lane`'s [`Execution`] from the last successful
    /// group (see [`LockstepEngine::execution_into`]).
    pub fn execution_into(&self, lane: usize, out: &mut Execution) {
        self.engine.execution_into(lane, out);
    }

    /// Installs `sig`'s output rule if the configuration changed, resets
    /// the shared state, and runs the group.
    fn run_group(
        &mut self,
        params: PhaseParams,
        sig: PhaseSig,
        make_rule: impl FnOnce() -> BatchOutputRule,
        seeds: &[u64],
    ) -> bool {
        let n = params.n;
        let k = seeds.len();
        if self.sig != Some(sig) {
            let mut sh = self.shared.borrow_mut();
            sh.params = params;
            sh.rule = make_rule();
            self.sig = Some(sig);
            // A config change invalidates prepared nodes (their shared
            // handle is still right, but force a clean rebuild so the
            // node-level params match).
            drop(sh);
            self.nodes.clear();
        }
        self.shared.borrow_mut().reset();
        let shared = &self.shared;
        let fill = |id: usize, node: &mut BatchPhaseNode| {
            node.round = 0;
            node.expect_data = true;
            node.lanes = k;
            node.m = params.m;
            node.d.clear();
            node.v_own.clear();
            for &seed in seeds {
                // The scalar node's stream: data value first, validation
                // value second.
                let mut rng = node_rng(seed, id);
                node.d.push(rng.next_below(n as u64));
                node.v_own.push(rng.next_below(params.m));
            }
            node.buffer.clear();
            node.buffer.extend_from_slice(&node.d);
            // Grow (never zero) the store: every slot the run reads is
            // written first, so stale lanes from the previous group are
            // harmless — this skips an O(n·k) memset per group.
            if node.store.len() != (2 * n + 1) * k {
                node.store.clear();
                node.store.resize((2 * n + 1) * k, 0);
            }
        };
        ensure_nodes(
            &mut self.nodes,
            n,
            |id| {
                let mut node = BatchPhaseNode {
                    id,
                    origin: id == 0,
                    n,
                    m: params.m,
                    round: 0,
                    expect_data: true,
                    lanes: k,
                    d: Vec::with_capacity(k),
                    v_own: Vec::with_capacity(k),
                    buffer: Vec::with_capacity(k),
                    store: Vec::new(),
                    shared: Rc::clone(shared),
                };
                fill(id, &mut node);
                node
            },
            &fill,
        );
        run_ring_honest_batch_into(&mut self.engine, n, k, &mut self.nodes, ORIGIN_WAKES)
    }
}

impl PhaseAsyncLead {
    /// Runs `seeds.len()` honest trials in lockstep, lane `l` simulating
    /// `self.with_seed(seeds[l])` — see
    /// [`BasicLead::run_honest_batch_into`] for the contract. The
    /// instance's `fn_key` (and any ablated validation range) applies to
    /// every lane, so fn_key-per-config sweeps batch naturally.
    ///
    /// # Panics
    ///
    /// Panics if the cache's ring size differs from `n` or `seeds` is
    /// empty.
    pub fn run_honest_batch_into(&self, seeds: &[u64], cache: &mut PhaseBatchCache) -> bool {
        let params = self.params();
        let f = self.random_fn();
        cache.run_group(
            params,
            PhaseSig::Random {
                params,
                key: f.key(),
            },
            || BatchOutputRule::Random(EvalTable::new(&f, params.n, params.vals_in_f())),
            seeds,
        )
    }
}

impl PhaseSumLead {
    /// Runs `seeds.len()` honest trials in lockstep, lane `l` simulating
    /// `self.with_seed(seeds[l])` — see
    /// [`BasicLead::run_honest_batch_into`] for the contract.
    ///
    /// # Panics
    ///
    /// Panics if the cache's ring size differs from `n` or `seeds` is
    /// empty.
    pub fn run_honest_batch_into(&self, seeds: &[u64], cache: &mut PhaseBatchCache) -> bool {
        let params = self.params();
        cache.run_group(
            params,
            PhaseSig::Sum { params },
            || BatchOutputRule::Sum,
            seeds,
        )
    }
}

/// Implements [`LockstepProtocol`] by delegating to the protocol's
/// inherent batch entry and lending its cache's engine. A lane holds
/// `$sq·n² + $lin·n` bytes of its own node state plus the engine's share
/// for a run with at most `$in_flight(n)` groups in flight
/// ([`engine_lane_bytes`]).
macro_rules! lockstep_protocol {
    ($protocol:ty, $cache:ty, $sq:literal, $lin:literal, $in_flight:expr) => {
        impl LockstepProtocol for $protocol {
            type BatchCache = $cache;

            fn lane_bytes(n: usize) -> u64 {
                let n = n as u64;
                n.saturating_mul(n)
                    .saturating_mul($sq)
                    .saturating_add(n.saturating_mul($lin))
                    .saturating_add(engine_lane_bytes(n, ($in_flight)(n)))
            }

            fn batch_cache(n: usize) -> $cache {
                <$cache>::ring(n)
            }

            fn lockstep_engine(cache: &mut $cache) -> &mut LockstepEngine {
                &mut cache.engine
            }

            fn run_honest_batch_into(&self, seeds: &[u64], cache: &mut $cache) -> bool {
                <$protocol>::run_honest_batch_into(self, seeds, cache)
            }
        }
    };
}

// Every `$lin` also carries half of the node struct each position keeps
// for the whole group, so width × `lane_bytes` bounds a group of any width
// from 2 up. The groups in flight are the peaks of an honest run.
//
// Basic-LEAD: two registers per node, half of a 64-byte node and of its
// wake entry (52·n); every node keeps one group in flight until it
// terminates.
lockstep_protocol!(BasicLead, BasicBatchCache, 0, 56, |n| n);
// A-LEADuni: three registers per node and half of a 96-byte node (72·n);
// the one token keeps one group in flight.
lockstep_protocol!(ALeadUni, ALeadBatchCache, 0, 72, |_| 1);
// The phase protocols: the (2n + 1)-slot store (16·n² + 8·n), three
// registers per node, the shared snapshot's two tables and half of a
// 152-byte node (124·n); the data and validation waves keep two groups in
// flight.
lockstep_protocol!(PhaseAsyncLead, PhaseBatchCache, 16, 128, |_| 2);
lockstep_protocol!(PhaseSumLead, PhaseBatchCache, 16, 128, |_| 2);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::RingProtocol;
    use ring_sim::{Engine, Topology};

    fn seeds(base: u64, k: usize) -> Vec<u64> {
        (0..k as u64).map(|i| base.wrapping_add(i * 977)).collect()
    }

    #[test]
    fn basic_batch_matches_scalar() {
        let n = 8;
        let p = BasicLead::new(n);
        let mut cache = BasicBatchCache::ring(n);
        let mut engine = Engine::new(Topology::ring(n));
        let mut exec = Execution::default();
        for k in [1, 3, 8] {
            let seeds = seeds(42, k);
            assert!(p.run_honest_batch_into(&seeds, &mut cache));
            for (lane, &s) in seeds.iter().enumerate() {
                cache.execution_into(lane, &mut exec);
                let scalar = p.clone().with_seed(s).run_honest_in(&mut engine);
                assert_eq!(exec, scalar, "k={k} lane={lane}");
            }
        }
    }

    #[test]
    fn alead_batch_matches_scalar() {
        let n = 9;
        let p = ALeadUni::new(n);
        let mut cache = ALeadBatchCache::ring(n);
        let mut engine = Engine::new(Topology::ring(n));
        let mut exec = Execution::default();
        for k in [1, 2, 7] {
            let seeds = seeds(7, k);
            assert!(p.run_honest_batch_into(&seeds, &mut cache));
            for (lane, &s) in seeds.iter().enumerate() {
                cache.execution_into(lane, &mut exec);
                let scalar = p.clone().with_seed(s).run_honest_in(&mut engine);
                assert_eq!(exec, scalar, "k={k} lane={lane}");
            }
        }
    }

    #[test]
    fn phase_async_batch_matches_scalar() {
        let n = 12;
        let p = PhaseAsyncLead::new(n).with_fn_key(5);
        let mut cache = PhaseBatchCache::ring(n);
        let mut engine = Engine::new(Topology::ring(n));
        let mut exec = Execution::default();
        for k in [1, 4, 8] {
            let seeds = seeds(1000, k);
            assert!(p.run_honest_batch_into(&seeds, &mut cache));
            for (lane, &s) in seeds.iter().enumerate() {
                cache.execution_into(lane, &mut exec);
                let scalar = p.with_seed(s).run_honest_in(&mut engine);
                assert_eq!(exec, scalar, "k={k} lane={lane}");
            }
        }
    }

    #[test]
    fn phase_sum_batch_matches_scalar() {
        let n = 6;
        let p = PhaseSumLead::new(n);
        let mut cache = PhaseBatchCache::ring(n);
        let mut engine = Engine::new(Topology::ring(n));
        let mut exec = Execution::default();
        let seeds = seeds(31, 5);
        assert!(p.run_honest_batch_into(&seeds, &mut cache));
        for (lane, &s) in seeds.iter().enumerate() {
            cache.execution_into(lane, &mut exec);
            let scalar = p.with_seed(s).run_honest_in(&mut engine);
            assert_eq!(exec, scalar, "lane={lane}");
        }
    }

    #[test]
    fn one_phase_cache_serves_both_rules() {
        // Re-keying or switching protocols on one cache must rebuild the
        // prepared tables, not reuse stale ones.
        let n = 8;
        let mut cache = PhaseBatchCache::ring(n);
        let mut engine = Engine::new(Topology::ring(n));
        let mut exec = Execution::default();
        let seeds = seeds(5, 4);
        for trial in 0..2 {
            for key in [0, 9] {
                let p = PhaseAsyncLead::new(n).with_fn_key(key);
                assert!(p.run_honest_batch_into(&seeds, &mut cache));
                cache.execution_into(trial, &mut exec);
                assert_eq!(exec, p.with_seed(seeds[trial]).run_honest_in(&mut engine));
            }
            let p = PhaseSumLead::new(n);
            assert!(p.run_honest_batch_into(&seeds, &mut cache));
            cache.execution_into(trial, &mut exec);
            assert_eq!(exec, p.with_seed(seeds[trial]).run_honest_in(&mut engine));
        }
    }

    /// Heap bytes of `v` at its capacity.
    fn heap<T>(v: &Vec<T>) -> u64 {
        (v.capacity() * std::mem::size_of::<T>()) as u64
    }

    /// What one honest group of `k` lanes retains after its run at
    /// n = 256, the engine's buffers and every node with its lane vectors
    /// included, fits `k` × `lane_bytes`: for the narrowest group and for
    /// the sweeps' default width. (The phase caches' `EvalTable` belongs to
    /// the configuration, not to a lane.)
    #[test]
    fn a_group_retains_at_most_its_lanes_bytes() {
        let n = 256;
        for k in [2, 16] {
            let seeds = seeds(3, k);
            let check = |name: &str, engine: &LockstepEngine, group: u64, lane_bytes: u64| {
                let held = engine.retained_bytes() as u64 + group;
                let bound = k as u64 * lane_bytes;
                assert!(held <= bound, "{name}, {k} lanes: {held} > {bound} bytes");
            };
            let mut c = BasicBatchCache::ring(n);
            assert!(BasicLead::new(n).run_honest_batch_into(&seeds, &mut c));
            let lanes: u64 = c.nodes.iter().map(|v| heap(&v.d) + heap(&v.sum)).sum();
            let group = heap(&c.nodes) + heap(&c.wakes) + lanes;
            check("Basic-LEAD", &c.engine, group, BasicLead::lane_bytes(n));

            let mut c = ALeadBatchCache::ring(n);
            assert!(ALeadUni::new(n).run_honest_batch_into(&seeds, &mut c));
            let lanes: u64 = (c.nodes.iter())
                .map(|v| heap(&v.basic.d) + heap(&v.basic.sum) + heap(&v.buffer))
                .sum();
            check(
                "A-LEADuni",
                &c.engine,
                heap(&c.nodes) + lanes,
                ALeadUni::lane_bytes(n),
            );

            let mut c = PhaseBatchCache::ring(n);
            assert!(PhaseAsyncLead::new(n).run_honest_batch_into(&seeds, &mut c));
            let lanes: u64 = (c.nodes.iter())
                .map(|v| heap(&v.d) + heap(&v.v_own) + heap(&v.buffer) + heap(&v.store))
                .sum();
            let sh = c.shared.borrow();
            let snapshot = std::mem::size_of::<PhaseShared>() as u64
                + heap(&sh.outs)
                + heap(&sh.data_snap)
                + heap(&sh.vals_snap);
            let group = heap(&c.nodes) + lanes + snapshot;
            check("phase", &c.engine, group, PhaseAsyncLead::lane_bytes(n));
        }
    }

    #[test]
    fn pinned_values_batch_matches_scalar() {
        let n = 5;
        let vals = vec![3, 1, 4, 1, 2];
        let p = BasicLead::new(n).with_values(vals.clone());
        let mut cache = BasicBatchCache::ring(n);
        let mut engine = Engine::new(Topology::ring(n));
        let mut exec = Execution::default();
        let seeds = seeds(0, 3);
        assert!(p.run_honest_batch_into(&seeds, &mut cache));
        cache.execution_into(2, &mut exec);
        assert_eq!(exec, p.run_honest_in(&mut engine));

        let q = ALeadUni::new(n).with_values(vals);
        let mut cache = ALeadBatchCache::ring(n);
        assert!(q.run_honest_batch_into(&seeds, &mut cache));
        cache.execution_into(0, &mut exec);
        assert_eq!(exec, q.run_honest_in(&mut engine));
    }
}
