//! Lockstep-lane caches of the four honest ring protocols.
//!
//! Each protocol's honest transition is written once ([`super::lanes`]):
//! the scalar engine runs it at one lane, and the caches here run it at
//! `k` lanes on a [`LockstepEngine`], where one activation advances `k`
//! trials of one configuration at once. A cache keeps the engine and one
//! `k`-lane node per ring position, and refills them for every group
//! without reallocating. A detection check that fails in some lane
//! diverges the group, and the caller reruns the group's trials through
//! the scalar path, so batched results are bit-identical to scalar
//! results unconditionally; the fast path simply only engages where it is
//! exact.
//!
//! The phase protocols additionally amortize the output computation: all
//! honest processors of one trial collect identical `d̂`/`v̂` tables, so
//! the first terminator snapshots its tables and evaluates
//! `f` once per *lane* (via the precomputed [`EvalTable`]), and every
//! later terminator merely memcmps its tables against the snapshot and
//! reuses the outputs — turning `n` evaluations of `f` per trial into
//! one evaluation plus `n − 1` comparisons.

use super::lanes::Effects;
use super::phase::PhaseOutput;
use super::{
    ALeadNode, ALeadUni, BasicLead, BasicNode, FleProtocol, LockstepProtocol, PhaseAsyncLead,
    PhaseNode, PhaseSumLead, Wakes,
};
use crate::randfn::{EvalTable, PhaseParams};
use ring_sim::batch::{engine_lane_bytes, LockstepEngine, LockstepNode};
use ring_sim::{default_step_limit, Execution, NodeId};
use std::cell::RefCell;
use std::rc::Rc;

/// Reusable per-worker state for lockstep groups of one honest protocol:
/// the engine, one `k`-lane node per ring position, the wake list, and
/// the state `S` the positions share (the phase output snapshot).
pub struct LaneCache<N, S = ()> {
    engine: LockstepEngine,
    nodes: Vec<N>,
    wakes: Vec<NodeId>,
    shared: S,
}

/// Reusable per-worker state for batched honest `Basic-LEAD` groups.
pub type BasicBatchCache = LaneCache<BasicNode<Vec<u64>>>;

/// Reusable per-worker state for batched honest `A-LEADuni` groups.
pub type ALeadBatchCache = LaneCache<ALeadNode<Vec<u64>>>;

/// Reusable per-worker state for batched honest phase-protocol groups
/// (`PhaseAsyncLead` and `PhaseSumLead` share it — they differ only in
/// the output rule).
pub type PhaseBatchCache = LaneCache<PhaseNode<Vec<u64>, PhaseSnapshot>, PhaseSnapshot>;

impl<N: LockstepNode, S: Default> LaneCache<N, S> {
    /// Creates the cache for a ring of `n` processors.
    pub fn ring(n: usize) -> Self {
        Self {
            engine: LockstepEngine::new(n),
            nodes: Vec::new(),
            wakes: Vec::new(),
            shared: S::default(),
        }
    }

    /// Extracts lane `lane`'s [`Execution`] from the last successful
    /// group (see [`LockstepEngine::execution_into`]).
    pub fn execution_into(&self, lane: usize, out: &mut Execution) {
        self.engine.execution_into(lane, out);
    }

    /// Runs one group of `lanes` trials on a ring of `n`: builds the
    /// positions with `make` on first use, readies position `id` with
    /// `fill(id, node)` and wakes `wakes`. Returns `false` if the group
    /// diverged.
    ///
    /// # Panics
    ///
    /// Panics if the cache's ring size differs from `n` or `lanes` is 0.
    fn run(
        &mut self,
        n: usize,
        lanes: usize,
        wakes: Wakes,
        make: impl FnMut() -> N,
        mut fill: impl FnMut(NodeId, &mut N),
    ) -> bool {
        assert_eq!(
            self.engine.n(),
            n,
            "engine ring size must match the protocol's ring size"
        );
        self.nodes.resize_with(n, make);
        for (id, node) in self.nodes.iter_mut().enumerate() {
            fill(id, node);
        }
        if self.wakes.is_empty() {
            self.wakes = wakes.ids(n);
        }
        self.engine
            .run(lanes, &mut self.nodes, &self.wakes, default_step_limit(n))
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
        let fill = |id, node: &mut BasicNode<Vec<u64>>| {
            node.fill(n as u64, seeds, |seed| self.secret(seed, id));
        };
        cache.run(n, seeds.len(), Wakes::All, BasicNode::default, fill)
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
        let fill = |id, node: &mut ALeadNode<Vec<u64>>| node.fill(self, id, seeds);
        cache.run(
            self.n(),
            seeds.len(),
            Wakes::Origin,
            ALeadNode::default,
            fill,
        )
    }
}

/// The group-level output snapshot shared by all `n` nodes of one
/// batched phase group (see the module docs): the first terminator
/// publishes its collected tables and the per-lane outputs; later
/// terminators compare and reuse.
#[derive(Default)]
pub struct PhaseShared {
    /// The configuration `table` was built for.
    sig: Option<PhaseSig>,
    /// `f`'s strided table for `PhaseAsyncLead`; `None` for the sum rule.
    table: Option<EvalTable>,
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

/// The output rule of the lanes' phase nodes: their group's snapshot.
pub type PhaseSnapshot = Rc<RefCell<PhaseShared>>;

impl PhaseOutput for PhaseSnapshot {
    fn finish(&self, n: usize, data: &[u64], vals: &[u64], fx: &mut impl Effects) {
        let k = data.len() / n;
        let sh = &mut *self.borrow_mut();
        if !sh.ready {
            sh.ready = true;
            sh.data_snap.clear();
            sh.data_snap.extend_from_slice(data);
            sh.vals_snap.clear();
            sh.vals_snap.extend_from_slice(vals);
            let table = &sh.table;
            sh.outs.clear();
            sh.outs.extend((0..k).map(|lane| match table {
                Some(table) => table.eval_strided(data, vals, k, lane),
                None => (0..n).map(|i| data[i * k + lane]).sum::<u64>() % n as u64,
            }));
        } else if sh.data_snap != data || sh.vals_snap != vals {
            // Scalar processors would disagree; that is a legal scalar
            // outcome (Disagreement) this path cannot represent.
            return fx.fail();
        }
        // Identical inputs to a pure function: the scalar node computes
        // the identical output.
        fx.terminate(|out| out.copy_from_slice(&sh.outs));
    }
}

/// Configuration signature of a phase batch cache's prepared state; a
/// change (different protocol, `fn_key`, or ablated `m`) rebuilds the
/// shared [`EvalTable`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum PhaseSig {
    Random { params: PhaseParams, key: u64 },
    Sum { params: PhaseParams },
}

impl PhaseBatchCache {
    /// Installs `sig`'s table if the configuration changed, resets the
    /// snapshot, and runs the group.
    fn run_phase(
        &mut self,
        params: PhaseParams,
        sig: PhaseSig,
        make_table: impl FnOnce() -> Option<EvalTable>,
        seeds: &[u64],
    ) -> bool {
        let shared = Rc::clone(&self.shared);
        {
            let mut sh = shared.borrow_mut();
            if sh.sig != Some(sig) {
                sh.sig = Some(sig);
                sh.table = make_table();
            }
            sh.ready = false;
        }
        let make = || PhaseNode::new(params, Vec::new(), Rc::clone(&shared));
        let fill = |id, node: &mut PhaseNode<_, _>| node.fill(id, params, seeds);
        self.run(params.n, seeds.len(), Wakes::Origin, make, fill)
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
        let sig = PhaseSig::Random {
            params,
            key: f.key(),
        };
        let table = || Some(EvalTable::new(&f, params.n, params.vals_in_f()));
        cache.run_phase(params, sig, table, seeds)
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
        cache.run_phase(params, PhaseSig::Sum { params }, || None, seeds)
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
// The phase protocols: the 2n-slot store (16·n²), three registers per
// node, the shared snapshot's two tables and half of a 152-byte node
// (116·n); the data and validation waves keep two groups in flight.
lockstep_protocol!(PhaseAsyncLead, PhaseBatchCache, 16, 120, |_| 2);
lockstep_protocol!(PhaseSumLead, PhaseBatchCache, 16, 120, |_| 2);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::RingProtocol;
    use ring_sim::batch::LaneClock;
    use ring_sim::{Engine, FaultPlan, Topology};

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
    /// the sweeps' default width, and for a faulty phase group whose lanes
    /// settle. (The phase caches' `EvalTable` belongs to the configuration,
    /// not to a lane.)
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
            let group = heap(&c.nodes) + heap(&c.wakes) + lanes;
            check("A-LEADuni", &c.engine, group, ALeadUni::lane_bytes(n));

            let phase_group = |c: &PhaseBatchCache| {
                let lanes: u64 = (c.nodes.iter())
                    .map(|v| heap(&v.d) + heap(&v.v_own) + heap(&v.buffer) + heap(&v.store))
                    .sum();
                let sh = c.shared.borrow();
                let snapshot = std::mem::size_of::<PhaseShared>() as u64
                    + heap(&sh.outs)
                    + heap(&sh.data_snap)
                    + heap(&sh.vals_snap);
                heap(&c.nodes) + heap(&c.wakes) + lanes + snapshot
            };
            let bound = PhaseAsyncLead::lane_bytes(n);
            let mut c = PhaseBatchCache::ring(n);
            assert!(PhaseAsyncLead::new(n).run_honest_batch_into(&seeds, &mut c));
            check("phase", &c.engine, phase_group(&c), bound);

            // The same cache under one crash-stop plan per lane: each lane
            // settles where its crashed node drops the round in flight, so
            // the lanes' settled executions and the plans' index come on
            // top of the buffers the fault-free group grew.
            let plans: Vec<FaultPlan> = (0..k)
                .map(|l| FaultPlan::none().with_crash(1 + l % (n - 1), 1000 * l as u64, None))
                .collect();
            c.engine.set_fault_plans(&plans, LaneClock::Deliveries);
            assert!(PhaseAsyncLead::new(n).run_honest_batch_into(&seeds, &mut c));
            assert!((0..k).all(|l| !c.engine.lane_hit(l)), "every lane settles");
            check("faulty phase", &c.engine, phase_group(&c), bound);
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
