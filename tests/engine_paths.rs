//! Differential tests of the engine's execution paths.
//!
//! The engine runs every trial through one entry, `Engine::run_into`, but
//! callers reach it with different node storage and buffers: the one-shot
//! `SimBuilder` (fresh working set per run), boxed `Box<dyn Node>` mixes
//! and monomorphized honest node vectors over a reused engine, the
//! arena-pooled `run_ring_honest_pooled_into` batch loop, and the
//! `TrialCache::run` attack fast path. Each protocol also runs
//! through the split token/link loop under a FIFO that the engine does
//! not recognize as one, against the fused global-FIFO stream, and the
//! engine's one event loop is compared across its three queues (fused,
//! split, all-zero timed) under crash plans with a recording probe. Every
//! pair must produce *identical* `Execution`s — outcome, per-node
//! outputs, and every counter — for every protocol, ring size and seed.
//! These property tests are the oracle that keeps the fast paths honest.

use fle_attacks::{
    BasicSingleAttack, BasicSingleCache, PhaseGuessAttack, PhaseRushingAttack, PhaseRushingCache,
    PhaseSumAttack, RushingAttack, RushingCache,
};
use fle_core::protocols::{
    run_ring_honest_pooled_into, ALeadTrialCache, ALeadUni, BasicLead, BasicTrialCache,
    FleProtocol, PhaseAsyncLead, PhaseSumLead, PhaseTrialCache, RingProtocol, WakeLead,
};
use fle_core::Coalition;
use proptest::prelude::*;
use ring_sim::{
    default_step_limit, Engine, Execution, FifoScheduler, LifoScheduler, Node, RandomScheduler,
    Schedule, Scheduler, Token, Topology, TrialArena,
};
use std::collections::VecDeque;

/// A global FIFO that leaves [`Scheduler::is_global_fifo`] false, so the
/// engine drives it through the split token/link loop. Its delivery order
/// is the fused stream's, which makes it the oracle for that stream.
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

/// One probe-free run of `nodes` through `Engine::run_into` on an
/// oblivious scheduler, into `out`.
fn run_into<M: Clone, N: Node<M>, S: Scheduler + ?Sized>(
    engine: &mut Engine<M>,
    nodes: &mut [N],
    wakes: &[usize],
    scheduler: &mut S,
    out: &mut Execution,
) {
    let limit = default_step_limit(nodes.len());
    engine.run_into(
        nodes,
        wakes,
        Schedule::Oblivious(scheduler),
        limit,
        None,
        out,
    );
}

/// [`run_into`] into a fresh `Execution`.
fn run<M: Clone, N: Node<M>, S: Scheduler + ?Sized>(
    engine: &mut Engine<M>,
    nodes: &mut [N],
    wakes: &[usize],
    scheduler: &mut S,
) -> Execution {
    let mut out = Execution::default();
    run_into(engine, nodes, wakes, scheduler, &mut out);
    out
}

/// Drives one honest instance through every node storage and buffer form
/// against its `SimBuilder` reference (`run_honest`): boxed nodes
/// (`honest_node`), arena-free nodes (`honest_ring_node_in` on a fresh
/// arena), the arena-pooled batch loop, the fused stream against the
/// split token/link path, and `run_honest_in`. The engine and the
/// `run_into` out-parameter are reused across paths, so buffer-reuse bugs
/// surface as cross-run contamination.
fn assert_honest_paths_agree<P: RingProtocol>(p: &P) {
    let n = p.n();
    let wakes = P::WAKES.ids(n);
    let reference = p.run_honest();
    let fresh = |id| p.honest_ring_node_in(id, &mut TrialArena::new());
    let mut engine = Engine::new(Topology::ring(n));
    let mut boxed: Vec<_> = (0..n).map(|id| p.honest_node(id)).collect();
    let via_boxed = run(&mut engine, &mut boxed, &wakes, &mut FifoScheduler::new());
    assert_eq!(via_boxed, reference, "boxed nodes vs SimBuilder");

    // The out-parameter starts dirty (filled by the previous path) and is
    // reused below — run_into must overwrite it completely each time.
    let mut out = via_boxed;
    let mut scheduler = FifoScheduler::new();
    for pass in 0..2 {
        let mut nodes: Vec<P::Node> = (0..n).map(fresh).collect();
        run_into(&mut engine, &mut nodes, &wakes, &mut scheduler, &mut out);
        assert_eq!(
            out, reference,
            "arena-free nodes (pass {pass}) vs SimBuilder"
        );
    }

    // The arena-pooled batch loop, twice over the same arena and node
    // buffer: the second pass runs entirely on reclaimed stores, so a
    // stale or mis-reset buffer surfaces as a mismatch.
    let mut arena = TrialArena::new();
    let mut nodes_buf: Vec<P::Node> = Vec::new();
    for pass in 0..2 {
        run_ring_honest_pooled_into(
            &mut engine,
            n,
            |id, arena| p.honest_ring_node_in(id, arena),
            &wakes,
            &mut nodes_buf,
            &mut scheduler,
            &mut arena,
            &mut out,
        );
        assert_eq!(
            out, reference,
            "run_ring_honest_pooled_into (pass {pass}) vs SimBuilder"
        );
    }

    assert_fused_and_split_agree(n, &wakes, &reference, fresh);
    assert_eq!(p.run_honest_in(&mut engine), reference, "run_honest_in");
}

/// Runs the same honest instance on the fused global-FIFO stream (what
/// `FifoScheduler` rides) and on the split token/link path driven by
/// [`SplitFifo`] (identical pop order). Both must equal the `SimBuilder`
/// reference. The engine is reused for a second pass so a stale queue or
/// dirty-list bug surfaces as a second-run mismatch.
fn assert_fused_and_split_agree<M: Clone, N: Node<M>>(
    n: usize,
    wakes: &[usize],
    reference: &Execution,
    mut mono: impl FnMut(usize) -> N,
) {
    let mut engine = Engine::new(Topology::ring(n));
    for pass in 0..2 {
        let mut nodes: Vec<N> = (0..n).map(&mut mono).collect();
        let fused = run(&mut engine, &mut nodes, wakes, &mut FifoScheduler::new());
        assert_eq!(&fused, reference, "fused stream (pass {pass})");
        let mut nodes: Vec<N> = (0..n).map(&mut mono).collect();
        let split = run(&mut engine, &mut nodes, wakes, &mut SplitFifo::default());
        assert_eq!(&split, reference, "split token/link path (pass {pass})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn basic_lead_paths_agree(seed in any::<u64>(), n in 2usize..24) {
        assert_honest_paths_agree(&BasicLead::new(n).with_seed(seed));
    }

    #[test]
    fn a_lead_uni_paths_agree(seed in any::<u64>(), n in 2usize..24) {
        assert_honest_paths_agree(&ALeadUni::new(n).with_seed(seed));
    }

    #[test]
    fn phase_async_paths_agree(seed in any::<u64>(), key in any::<u64>(), n in 4usize..24) {
        assert_honest_paths_agree(&PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(key));
    }

    #[test]
    fn phase_sum_paths_agree(seed in any::<u64>(), n in 4usize..24) {
        assert_honest_paths_agree(&PhaseSumLead::new(n).with_seed(seed));
    }

    #[test]
    fn wake_lead_paths_agree(seed in any::<u64>(), n in 2usize..24) {
        assert_honest_paths_agree(&WakeLead::new(n).with_seed(seed));
    }
}

// ---------------------------------------------------------------------------
// Attack-path differentials: `TrialCache::run` (cached engine + MixNode)
// vs the one-shot `RingProtocol::run_with`, for every protocol. The cache is reused across
// two runs per case so cross-trial contamination in the attack fast path
// would surface as a second-run mismatch.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn basic_single_attack_paths_agree(
        seed in any::<u64>(),
        n in 3usize..24,
        adv in 0usize..24,
        w in 0u64..24,
    ) {
        let adv = adv % n;
        let w = w % n as u64;
        let p = BasicLead::new(n).with_seed(seed);
        let attack = BasicSingleAttack::new(adv, w);
        let reference = attack.run(&p).expect("always feasible in range");
        // Boxed mix through the generic cache…
        let mut cache = BasicTrialCache::ring(n);
        for pass in 0..2 {
            let nodes = vec![attack.adversary_node(&p).expect("feasible")];
            let exec = cache.run(&p, nodes);
            prop_assert_eq!(exec, &reference, "boxed pass {}", pass);
        }
        // …and the fully monomorphized single-deviator fast path.
        let mut cache = BasicSingleCache::ring(n);
        for pass in 0..2 {
            let node = attack.adversary_ring_node(&p).expect("feasible");
            let exec = cache.run(&p, vec![node]);
            prop_assert_eq!(exec, &reference, "concrete pass {}", pass);
        }
    }

    #[test]
    fn rushing_attack_paths_agree(seed in any::<u64>(), n in 16usize..26, w in 0u64..16) {
        let p = ALeadUni::new(n).with_seed(seed);
        let coalition = Coalition::equally_spaced(n, 5, 1).expect("valid layout");
        let attack = RushingAttack::new(w);
        prop_assume!(attack.plan(&p, &coalition).is_ok());
        let reference = attack.run(&p, &coalition).expect("planned");
        // Boxed coalition through the generic cache…
        let mut cache = ALeadTrialCache::ring(n);
        for pass in 0..2 {
            let nodes = attack.adversary_nodes(&p, &coalition).expect("planned");
            let exec = cache.run(&p, nodes);
            prop_assert_eq!(exec, &reference, "boxed pass {}", pass);
        }
        // …and the homogeneous coalition fully unboxed (concrete Rusher).
        let mut cache = RushingCache::ring(n);
        for pass in 0..2 {
            let nodes = attack.adversary_ring_nodes(&p, &coalition).expect("planned");
            let exec = cache.run(&p, nodes);
            prop_assert_eq!(exec, &reference, "unboxed pass {}", pass);
        }
    }

    #[test]
    fn phase_rushing_attack_paths_agree(
        seed in any::<u64>(),
        key in any::<u64>(),
        n in 16usize..26,
        w in 0u64..16,
    ) {
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(key);
        let coalition = Coalition::equally_spaced(n, 7, 1).expect("valid layout");
        let attack = PhaseRushingAttack::new(w);
        prop_assume!(attack.plan(&p, &coalition).is_ok());
        let reference = attack.run(&p, &coalition).expect("planned");
        // Boxed coalition through the generic cache…
        let mut cache = PhaseTrialCache::ring(n);
        for pass in 0..2 {
            let nodes = attack.adversary_nodes(&p, &coalition).expect("planned");
            let exec = cache.run(&p, nodes);
            prop_assert_eq!(exec, &reference, "boxed pass {}", pass);
        }
        // …and the homogeneous coalition fully unboxed (concrete
        // PhaseRusher).
        let mut cache = PhaseRushingCache::ring(n);
        for pass in 0..2 {
            let nodes = attack.adversary_ring_nodes(&p, &coalition).expect("planned");
            let exec = cache.run(&p, nodes);
            prop_assert_eq!(exec, &reference, "unboxed pass {}", pass);
        }
    }

    #[test]
    fn phase_guess_attack_paths_agree(
        seed in any::<u64>(),
        key in any::<u64>(),
        n in 4usize..20,
        pos in 0usize..20,
    ) {
        let pos = 1 + pos % (n - 1);
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(key);
        let attack = PhaseGuessAttack::new(pos);
        let reference = attack.run(&p).expect("valid position");
        let mut cache = PhaseTrialCache::ring(n);
        for pass in 0..2 {
            let nodes = attack.adversary_nodes(&p).expect("valid position");
            let exec = cache.run(&p, nodes);
            prop_assert_eq!(exec, &reference, "pass {}", pass);
        }
    }

    #[test]
    fn phase_sum_attack_paths_agree(seed in any::<u64>(), n_quarter in 4usize..7, w in 0u64..16) {
        let n = 4 * n_quarter;
        let w = w % n as u64;
        let p = PhaseSumLead::new(n).with_seed(seed);
        let coalition = Coalition::equally_spaced(n, 4, 1).expect("valid layout");
        let attack = PhaseSumAttack::new(w);
        prop_assume!(attack.plan(&p, &coalition).is_ok());
        let reference = {
            let nodes = attack.adversary_nodes(&p, &coalition).expect("planned");
            p.run_with(nodes)
        };
        let mut cache = PhaseTrialCache::ring(n);
        for pass in 0..2 {
            let nodes = attack.adversary_nodes(&p, &coalition).expect("planned");
            let exec = cache.run(&p, nodes);
            prop_assert_eq!(exec, &reference, "pass {}", pass);
        }
    }
}

// ---------------------------------------------------------------------------
// Lockstep-batch differentials: the `k`-lane `run_honest_batch_into`
// fast path vs the scalar per-trial engine, for every protocol and batch
// width. Both run each protocol's one honest transition, so these check
// the lockstep engine, the lane registers and the group refill; the
// transitions themselves are checked against closed-form leaders in
// `crates/core/tests/oracles.rs`. Caches are reused across widths and
// seed groups, so cross-group contamination in the lane state surfaces
// as a later-lane mismatch.

use fle_core::protocols::{ALeadBatchCache, BasicBatchCache, PhaseBatchCache};
use fle_harness::{
    batched_trials, run_sweep_partial, trial_seed, BatchConfig, FaultSpec, HonestSweep,
    ProtocolKind, ScheduleSpec, SweepSpec,
};

/// Widths around the interesting boundaries: scalar-equivalent 1, the
/// smallest real batch, a non-power-of-two, 8, the default 16, and one
/// wider than every ring under test.
const BATCH_WIDTHS: [usize; 6] = [1, 2, 7, 8, 16, 64];

/// Runs `widths`-sized lockstep groups over consecutive derived seeds and
/// asserts every lane equals its scalar reference `Execution` exactly.
fn assert_batch_lanes_match(
    label: &str,
    base: u64,
    widths: &[usize],
    mut batch: impl FnMut(&[u64]) -> Vec<Execution>,
    scalar: impl Fn(u64) -> Execution,
) {
    let mut next = 0u64;
    for &width in widths {
        let seeds: Vec<u64> = (0..width as u64)
            .map(|j| trial_seed(base, next + j))
            .collect();
        next += width as u64;
        let lanes = batch(&seeds);
        assert_eq!(lanes.len(), width, "{label} width {width} filled");
        for (lane, exec) in lanes.iter().enumerate() {
            let reference = scalar(seeds[lane]);
            assert_eq!(
                exec, &reference,
                "{label} width {width} lane {lane} vs scalar"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_vs_scalar_basic(base in any::<u64>(), n in 2usize..24) {
        let p = BasicLead::new(n);
        let mut cache = BasicBatchCache::ring(n);
        assert_batch_lanes_match(
            "basic",
            base,
            &BATCH_WIDTHS,
            |seeds| {
                assert!(p.run_honest_batch_into(seeds, &mut cache), "honest never diverges");
                let mut lanes = vec![Execution::default(); seeds.len()];
                for (lane, out) in lanes.iter_mut().enumerate() {
                    cache.execution_into(lane, out);
                }
                lanes
            },
            |seed| p.clone().with_seed(seed).run_honest(),
        );
    }

    #[test]
    fn batch_vs_scalar_a_lead_uni(base in any::<u64>(), n in 2usize..24) {
        let p = ALeadUni::new(n);
        let mut cache = ALeadBatchCache::ring(n);
        assert_batch_lanes_match(
            "alead",
            base,
            &BATCH_WIDTHS,
            |seeds| {
                assert!(p.run_honest_batch_into(seeds, &mut cache), "honest never diverges");
                let mut lanes = vec![Execution::default(); seeds.len()];
                for (lane, out) in lanes.iter_mut().enumerate() {
                    cache.execution_into(lane, out);
                }
                lanes
            },
            |seed| p.clone().with_seed(seed).run_honest(),
        );
    }

    #[test]
    fn batch_vs_scalar_phase_async(base in any::<u64>(), key in any::<u64>(), n in 4usize..24) {
        let p = PhaseAsyncLead::new(n).with_fn_key(key);
        let mut cache = PhaseBatchCache::ring(n);
        assert_batch_lanes_match(
            "phase",
            base,
            &BATCH_WIDTHS,
            |seeds| {
                assert!(p.run_honest_batch_into(seeds, &mut cache), "honest never diverges");
                let mut lanes = vec![Execution::default(); seeds.len()];
                for (lane, out) in lanes.iter_mut().enumerate() {
                    cache.execution_into(lane, out);
                }
                lanes
            },
            |seed| p.with_seed(seed).run_honest(),
        );
    }

    #[test]
    fn batch_vs_scalar_phase_sum(base in any::<u64>(), n in 4usize..24) {
        let p = PhaseSumLead::new(n);
        let mut cache = PhaseBatchCache::ring(n);
        assert_batch_lanes_match(
            "phasesum",
            base,
            &BATCH_WIDTHS,
            |seeds| {
                assert!(p.run_honest_batch_into(seeds, &mut cache), "honest never diverges");
                let mut lanes = vec![Execution::default(); seeds.len()];
                for (lane, out) in lanes.iter_mut().enumerate() {
                    cache.execution_into(lane, out);
                }
                lanes
            },
            |seed| p.with_seed(seed).run_honest(),
        );
    }

    /// Arbitrary sub-ranges of the trial index space, batched vs scalar
    /// through the real sweep dispatch: the mid-chunk-resume shape. Ranges
    /// deliberately do not align to the batch width, so every case
    /// exercises the group realignment and the narrower tail group. The
    /// timed cases (what `--latency const:500 --crash 1@80000ns --recover
    /// 500` runs) crash about half the trials, so groups, tail groups
    /// included, hold hit lanes, settled or rerun, beside crashed unhit
    /// ones.
    #[test]
    fn batched_partial_matches_scalar_over_arbitrary_ranges(
        start in 0u64..40,
        len in 0u64..40,
        width in 1usize..12,
        threads in 1usize..4,
        timed in any::<bool>(),
    ) {
        let (schedule, fault) = if timed {
            let schedule = ScheduleSpec::Timed {
                latency: LatencySpec::Constant { ns: 500 },
                loss_permille: 0,
                dup_permille: 0,
            };
            let fault = FaultSpec {
                crashes: 1,
                window: CrashInstant::VirtualNs(80_000),
                recover: Some(500),
            };
            (schedule, Some(fault))
        } else {
            (ScheduleSpec::Fifo, None)
        };
        let spec = |batch_width| {
            SweepSpec::Honest(HonestSweep {
                protocol: ProtocolKind::PhaseAsyncLead,
                n: 8,
                fn_key: 9,
                batch: BatchConfig {
                    trials: 80,
                    base_seed: 1,
                    threads,
                },
                batch_width,
                schedule,
                fault,
            })
        };
        let batched = run_sweep_partial(&spec(width), start, start + len).expect("valid range");
        let scalar = run_sweep_partial(&spec(1), start, start + len).expect("valid range");
        prop_assert_eq!(batched, scalar);
    }
}

// ---------------------------------------------------------------------------
// Lane fault plans: lockstep groups under one crash plan per lane vs the
// scalar faulty run of each lane, on the deliveries clock and on
// constant-latency timed nets.

use fle_core::protocols::{run_ring_honest_timed_into, LockstepProtocol, Wakes};
use ring_sim::batch::LaneClock;
use ring_sim::{
    CrashInstant, FailReason, FaultConfig, FaultPlan, LatencySpec, LinkProfile, NodeId, Outcome,
    Probe, TimedNetConfig, TimedScheduler,
};

/// The scalar reference: `p`'s honest trial seeded `seed` under `plan`,
/// on FIFO links or on the timed `net`.
fn scalar_faulty<P: RingProtocol>(
    p: &P,
    seed: u64,
    plan: &FaultPlan,
    net: Option<&TimedNetConfig>,
) -> Execution {
    let n = p.n();
    let q = p.seeded(seed);
    let honest = |id, arena: &mut TrialArena| q.honest_ring_node_in(id, arena);
    let mut engine = Engine::new(Topology::ring(n));
    engine.set_fault_plan(plan);
    let (wakes, mut nodes, mut arena) = (P::WAKES.ids(n), Vec::new(), TrialArena::new());
    let mut out = Execution::default();
    match net {
        Some(net) => run_ring_honest_timed_into(
            &mut engine,
            n,
            honest,
            &wakes,
            &mut nodes,
            &mut TimedScheduler::new(),
            net,
            seed,
            &mut arena,
            &mut out,
        ),
        None => run_ring_honest_pooled_into(
            &mut engine,
            n,
            honest,
            &wakes,
            &mut nodes,
            &mut FifoScheduler::new(),
            &mut arena,
            &mut out,
        ),
    }
    out
}

/// The first node to terminate in `p`'s fault-free FIFO run seeded
/// `seed`, and the receiver of each of the run's deliveries in order.
fn fault_free_trace<P: RingProtocol>(p: &P, seed: u64) -> (NodeId, Vec<NodeId>) {
    struct Trace(Option<NodeId>, Vec<NodeId>);
    impl<M> Probe<M> for Trace {
        fn on_deliver(&mut self, _: NodeId, to: NodeId, _: &M, _: &[u64]) {
            self.1.push(to);
        }
        fn on_terminate(&mut self, node: NodeId, _: Option<u64>) {
            self.0.get_or_insert(node);
        }
    }
    let n = p.n();
    let q = p.seeded(seed);
    let mut arena = TrialArena::new();
    let mut nodes: Vec<P::Node> = (0..n)
        .map(|id| q.honest_ring_node_in(id, &mut arena))
        .collect();
    let (mut trace, mut out) = (Trace(None, Vec::new()), Execution::default());
    Engine::new(Topology::ring(n)).run_into(
        &mut nodes,
        &P::WAKES.ids(n),
        Schedule::Oblivious(&mut FifoScheduler::new()),
        default_step_limit(n),
        Some(&mut trace),
        &mut out,
    );
    (trace.0.expect("an honest run elects"), trace.1)
}

/// Lockstep groups of `p` under one crash plan per lane, at widths
/// {1, 2, 7, 8}, on the deliveries clock with recovery and on constant
/// latencies L ∈ {0, 1, 500} with `window_ns` and recovery. Lanes draw
/// their plans from their seeds, except in groups of two or more: lane
/// 0 crashes the origin at instant 0, which drops its wake; on the
/// deliveries clock the last lane crashes the first node to terminate at
/// the run's last delivery, which fires and must not send the lane back
/// to scalar, and in groups of three or more lane 1 crashes the receiver
/// of the first two consecutive deliveries to one node over exactly
/// those two, which must settle a phase lane (the pair is its round's
/// data and validation). Every lane that does not rerun, unhit or settled at its
/// hit, must equal its scalar faulty run. A dropped origin wake leaves a
/// `Wakes::Origin` protocol nothing in flight, so lane 0 settles as a
/// crash partition after its one step, while Basic-LEAD's other wakes
/// rerun it. On the latency clock, A-LEADuni's one token and the phase
/// rounds' data and validation messages, which a crash drops together,
/// leave no lane to rerun.
fn assert_lane_faults_match<P: LockstepProtocol>(label: &str, p: &P, base: u64) {
    let n = p.n();
    // Every protocol here delivers at most 2n² messages.
    let deliveries = 2 * (n * n) as u64;
    let mut cache = P::batch_cache(n);
    let origin = P::WAKES == Wakes::Origin;
    let partition = Outcome::Fail(FailReason::CrashPartition);
    let mut next = 0u64;
    for latency in [None, Some(0), Some(1), Some(500)] {
        let (clock, net, window, recover) = match latency {
            None => (
                LaneClock::Deliveries,
                None,
                CrashInstant::Deliveries(deliveries),
                n as u64,
            ),
            Some(l) => (
                LaneClock::Latency(l),
                Some(TimedNetConfig::uniform(LinkProfile {
                    latency: LatencySpec::Constant { ns: l },
                    ..LinkProfile::default()
                })),
                CrashInstant::VirtualNs(deliveries * l + 2),
                n as u64 * l + 1,
            ),
        };
        let cfg = FaultConfig {
            crashes: 1 + base % 2,
            window,
            recover_after: Some(recover),
        };
        for width in [1, 2, 7, 8] {
            let seeds: Vec<u64> = (0..width as u64)
                .map(|j| trial_seed(base, next + j))
                .collect();
            next += width as u64;
            let mut plans: Vec<FaultPlan> = seeds
                .iter()
                .map(|&seed| {
                    let mut plan = FaultPlan::none();
                    plan.draw_into(&cfg, n, seed);
                    plan
                })
                .collect();
            let after_end = width > 1 && latency.is_none();
            if width > 1 {
                plans[0] = FaultPlan::none().with_crash(0, 0, Some(recover));
            }
            if after_end {
                let (node, receivers) = fault_free_trace(p, seeds[width - 1]);
                let last = receivers.len() as u64 - 1;
                plans[width - 1] = FaultPlan::none().with_crash(node, last, Some(recover));
            }
            let mut paired = false;
            if width > 2 && latency.is_none() {
                let (_, receivers) = fault_free_trace(p, seeds[1]);
                if let Some(k) = receivers.windows(2).position(|two| two[0] == two[1]) {
                    let k = k as u64;
                    plans[1] = FaultPlan::none().with_crash(receivers[k as usize], k, Some(k + 2));
                    paired = true;
                }
            }
            P::lockstep_engine(&mut cache).set_fault_plans(&plans, clock);
            let ran = p.run_honest_batch_into(&seeds, &mut cache);
            let engine = P::lockstep_engine(&mut cache);
            let case = format!("{label} {clock:?} width {width}");
            assert!(ran, "{case}: diverged");
            let reruns: Vec<bool> = (0..width).map(|lane| engine.lane_hit(lane)).collect();
            if origin && latency.is_some() {
                assert!(!reruns.contains(&true), "{case}: lanes {reruns:?} rerun");
            }
            if origin && paired {
                assert!(!reruns[1], "{case}: lane 1's dropped pair must settle");
            }
            let mut exec = Execution::default();
            for (lane, (&seed, plan)) in seeds.iter().zip(&plans).enumerate() {
                if reruns[lane] {
                    continue;
                }
                engine.execution_into(lane, &mut exec);
                let reference = scalar_faulty(p, seed, plan, net.as_ref());
                assert_eq!(exec, reference, "{case} lane {lane} vs scalar");
            }
            if width > 1 {
                assert_eq!(reruns[0], !origin, "{case}: lane 0 after the dropped wake");
            }
            if width > 1 && origin {
                engine.execution_into(0, &mut exec);
                let seen = (exec.outcome, exec.stats.steps);
                assert_eq!(seen, (partition, 1), "{case}: lane 0's dropped wake");
            }
            if after_end {
                assert!(
                    !reruns[width - 1],
                    "{case}: a crash after termination reruns"
                );
                engine.execution_into(width - 1, &mut exec);
                assert_eq!(exec.stats.crashes, 1, "{case}: the late crash must fire");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batch_vs_scalar_lane_faults_basic(base in any::<u64>(), n in 2usize..14) {
        assert_lane_faults_match("basic", &BasicLead::new(n), base);
    }

    #[test]
    fn batch_vs_scalar_lane_faults_a_lead_uni(base in any::<u64>(), n in 2usize..14) {
        assert_lane_faults_match("alead", &ALeadUni::new(n), base);
    }

    #[test]
    fn batch_vs_scalar_lane_faults_phase_async(
        base in any::<u64>(),
        key in any::<u64>(),
        n in 4usize..14,
    ) {
        assert_lane_faults_match("phase", &PhaseAsyncLead::new(n).with_fn_key(key), base);
    }

    #[test]
    fn batch_vs_scalar_lane_faults_phase_sum(base in any::<u64>(), n in 4usize..14) {
        assert_lane_faults_match("phasesum", &PhaseSumLead::new(n), base);
    }
}

// ---------------------------------------------------------------------------
// Attack lanes: `AttackRunner::run_group` runs one ordinary node per lane
// and ring position through the lockstep engine. Every lane must equal
// its `run_trial`, and grouped attack sweeps must equal a `run_trial`
// loop over any trial range.

use fle_attacks::{
    build_runner, cubic_distances, AttackKind, RandomLocatedAttack, RANDOM_LOCATED_WINDOW,
};
use fle_harness::{
    AttackSweep, CoalitionSpec, FnKeySpec, ReportPartial, SeedMode, TargetSpec, TrialOutcome,
};

/// Runs groups of every width in [`BATCH_WIDTHS`] through one runner of
/// `kind` on `coalition`, trial `i` with seed `trial_seed(base, i)` and
/// the `seed_product` target `seed × multiplier mod n`, so lanes aim at
/// different leaders. Every lane of a group that runs must equal the same
/// runner's `run_trial` of its arguments, in execution and verdict; a
/// group that does not run reports no lane, and with `must_run` every
/// group runs. A group with one infeasible lane runs nothing. Returns the
/// number of groups that ran.
fn assert_attack_lanes_match(
    kind: AttackKind,
    coalition: &Coalition,
    base: u64,
    multiplier: u64,
    must_run: bool,
) -> usize {
    let n = coalition.n();
    let mut runner = build_runner(kind, n, coalition).expect("accepted layout");
    let (mut next, mut ran) = (0, 0);
    for width in BATCH_WIDTHS {
        let trials: Vec<(u64, u64, u64)> = (next..next + width as u64)
            .map(|i| {
                let seed = trial_seed(base, i);
                (seed, 0, seed.wrapping_mul(multiplier) % n as u64)
            })
            .collect();
        next += width as u64;
        let mut lanes = Vec::new();
        let grouped = runner.run_group(&trials, &mut |r| lanes.push((r.exec.clone(), r.success)));
        assert!(
            grouped || !must_run,
            "{kind} width {width}: the group did not run"
        );
        assert_eq!(lanes.len(), if grouped { width } else { 0 }, "{kind}");
        ran += usize::from(grouped);
        for (lane, ((exec, success), &(seed, fn_key, target))) in
            lanes.iter().zip(&trials).enumerate()
        {
            let scalar = runner.run_trial(seed, fn_key, target).expect("feasible");
            assert_eq!(exec, scalar.exec, "{kind} width {width} lane {lane}");
            assert_eq!(*success, scalar.success, "{kind} width {width} lane {lane}");
        }
    }
    let mut infeasible = [(base, 0, 0), (base ^ 1, 0, n as u64)];
    infeasible[0].2 = base.wrapping_mul(multiplier) % n as u64;
    let mut called = false;
    assert!(
        !runner.run_group(&infeasible, &mut |_| called = true),
        "{kind}"
    );
    assert!(!called, "{kind}: an infeasible group reported a lane");
    ran
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_vs_scalar_attack_basic_single(
        base in any::<u64>(),
        multiplier in any::<u64>(),
        n in 2usize..24,
        position in 0usize..24,
    ) {
        let lone = Coalition::new(n, vec![position % n]).expect("valid layout");
        assert_attack_lanes_match(AttackKind::BasicSingle, &lone, base, multiplier, true);
    }

    #[test]
    fn batch_vs_scalar_attack_rushing(
        base in any::<u64>(),
        multiplier in any::<u64>(),
        n in 16usize..40,
        offset in 0usize..8,
    ) {
        // k = ⌈√n⌉ + 1 equally spaced adversaries: every segment fits
        // unless the origin, which behaves honestly, is one of them.
        let k = (n as f64).sqrt().ceil() as usize + 1;
        let coalition = Coalition::equally_spaced(n, k, offset).expect("valid layout");
        prop_assume!(RushingAttack::new(0).plan(&ALeadUni::new(n), &coalition).is_ok());
        assert_attack_lanes_match(AttackKind::Rushing, &coalition, base, multiplier, true);
    }

    #[test]
    fn batch_vs_scalar_attack_cubic(
        base in any::<u64>(),
        multiplier in any::<u64>(),
        n in 6usize..64,
    ) {
        let coalition = cubic_distances(n).expect("n >= 6").coalition();
        assert_attack_lanes_match(AttackKind::Cubic, &coalition, base, multiplier, true);
    }

    #[test]
    fn batch_vs_scalar_attack_random_located(
        base in any::<u64>(),
        multiplier in any::<u64>(),
        layout_seed in 0u64..32,
    ) {
        // About half these layouts are unfavourable, so nearly every trial
        // aborts and its group diverges and reports nothing; on the
        // favourable ones groups run, and every lane must match.
        let coalition = Coalition::random_k(49, 14, layout_seed).expect("valid layout");
        let favourable = RandomLocatedAttack::new(0, RANDOM_LOCATED_WINDOW)
            .layout_is_favourable(&coalition);
        let kind = AttackKind::RandomLocated;
        let ran = assert_attack_lanes_match(kind, &coalition, base, multiplier, false);
        prop_assert!(ran > 0 || !favourable, "no group ran on a favourable layout");
    }

    /// Grouped attack sweeps over arbitrary sub-ranges against the partial
    /// a `run_trial` loop records, on `seed_product` targets: ragged
    /// tails; a rushing layout and a favourable random-located one, whose
    /// groups all run; an all-infeasible rushing layout, whose groups
    /// return before running; and a random-located layout on which 76 of
    /// the 80 trials abort, so its groups diverge.
    #[test]
    fn batched_attack_partial_matches_scalar_over_arbitrary_ranges(
        start in 0u64..40,
        len in 0u64..40,
        threads in 1usize..4,
        layout in 0usize..4,
    ) {
        let random = |k, layout_seed| CoalitionSpec::RandomLocated { k, layout_seed };
        let (attack, n, coalition) = match layout {
            0 => (AttackKind::Rushing, 16, CoalitionSpec::EquallySpaced { k: 7, offset: 1 }),
            1 => (AttackKind::Rushing, 36, CoalitionSpec::EquallySpaced { k: 5, offset: 1 }),
            2 => (AttackKind::RandomLocated, 49, random(14, 0)),
            _ => (AttackKind::RandomLocated, 49, random(12, 18)),
        };
        let cfg = AttackSweep {
            attack,
            n,
            fn_key: FnKeySpec::Fixed(0),
            batch: BatchConfig {
                trials: 80,
                base_seed: 1,
                threads,
            },
            coalition,
            target: TargetSpec::SeedProduct { multiplier: 7 },
            seed_mode: SeedMode::Derived,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        };
        let width = cfg.resolved_batch_width();
        prop_assert_eq!(width, 16);
        let label = format!("{}:{}", attack.protocol_name(), attack.name());
        let mut scalar = ReportPartial::new_attack(&label, n, 1, 80);
        let mut runner = build_runner(attack, n, &cfg.coalition.resolve(n).expect("resolves"))
            .expect("accepted layout");
        for index in start..start + len {
            let seed = trial_seed(1, index);
            match runner.run_trial(seed, 0, cfg.target.resolve(seed, n)) {
                Ok(r) => scalar.record_attack(index, Some(TrialOutcome::of(r.exec)), r.success),
                Err(_) => scalar.record_attack(index, None, false),
            }
        }
        let before = batched_trials();
        let batched = run_sweep_partial(&cfg.clone().into(), start, start + len).expect("valid");
        if layout == 0 || layout == 2 {
            // Every group of each worker's piece ran in lockstep, its
            // narrower tail group too; only a lone last trial ran scalar.
            let chunk = len.div_ceil(threads.clamp(1, len.max(1) as usize) as u64).max(1);
            let pieces = (0..len).step_by(chunk as usize).map(|a| (len - a).min(chunk));
            let grouped: u64 = pieces.map(|piece| piece - u64::from(piece % 16 == 1)).sum();
            prop_assert!(batched_trials() >= before + grouped);
        }
        prop_assert_eq!(batched, scalar);
    }
}

/// A full batched sweep must serialize byte-identically to the scalar
/// sweep — for every protocol, at a width (7) that leaves a 5-trial
/// ragged tail — and the lockstep path must actually have run every
/// trial, the tail as a group of 5 (not silently fallen back to scalar).
#[test]
fn batched_sweeps_match_scalar_sweeps_bytewise() {
    let spec = |protocol, batch_width| {
        SweepSpec::Honest(HonestSweep {
            protocol,
            n: 9,
            fn_key: 4,
            batch: BatchConfig {
                trials: 61,
                base_seed: 3,
                threads: 1,
            },
            batch_width,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        })
    };
    for protocol in [
        ProtocolKind::BasicLead,
        ProtocolKind::ALeadUni,
        ProtocolKind::PhaseAsyncLead,
        ProtocolKind::PhaseSumLead,
    ] {
        let before = batched_trials();
        let batched = fle_harness::run_sweep(&spec(protocol, 7)).expect("valid spec");
        assert!(
            batched_trials() >= before + 61,
            "{protocol:?}: lockstep path did not run"
        );
        let scalar = fle_harness::run_sweep(&spec(protocol, 1)).expect("valid spec");
        assert_eq!(batched.to_json(), scalar.to_json(), "{protocol:?}");
    }
}

/// The batched sweep's JSON is invariant under the worker thread count,
/// exactly like the scalar path (batch groups realign to each worker's
/// chunk, so the merged report cannot depend on the split).
#[test]
fn batched_sweep_json_is_thread_invariant() {
    let spec = |threads| {
        SweepSpec::Honest(HonestSweep {
            protocol: ProtocolKind::PhaseAsyncLead,
            n: 8,
            fn_key: 9,
            batch: BatchConfig {
                trials: 100,
                base_seed: 1,
                threads,
            },
            batch_width: 8,
            schedule: ScheduleSpec::Fifo,
            fault: None,
        })
    };
    let one = fle_harness::run_sweep(&spec(1))
        .expect("valid spec")
        .to_json();
    for threads in [2, 8] {
        let multi = fle_harness::run_sweep(&spec(threads)).expect("valid spec");
        assert_eq!(multi.to_json(), one, "threads {threads}");
    }
}

/// One engine serving many seeds back to back (the sweep worker's actual
/// life) must match per-seed fresh references throughout.
#[test]
fn engine_reuse_across_seeds_matches_fresh_runs() {
    let n = 9;
    let mut engine = Engine::new(Topology::ring(n));
    for seed in 0..40u64 {
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(7);
        assert_eq!(p.run_honest_in(&mut engine), p.run_honest(), "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Split-path pin: the token/link loop that every non-global-FIFO scheduler
// rides. Protocol-level checks under other orders compare outcomes only;
// this pins every counter of every execution.

/// Runs one instance on `engine` under each split-path order (LIFO, three
/// seeded-random orders, and [`SplitFifo`]), twice over, and appends each
/// `Execution`'s `Debug` form to `log`. The second pass must repeat the
/// first, so a reset bug in the reused engine shows as a mismatch.
fn log_split_orders<M: Clone, N: Node<M>>(
    log: &mut String,
    engine: &mut Engine<M>,
    wakes: &[usize],
    step_limit: u64,
    mut nodes: impl FnMut() -> Vec<N>,
) {
    let mut passes = [String::new(), String::new()];
    for pass in &mut passes {
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![Box::new(LifoScheduler::new())];
        for seed in [1, 2, 3] {
            schedulers.push(Box::new(RandomScheduler::new(seed)));
        }
        schedulers.push(Box::new(SplitFifo::default()));
        for scheduler in &mut schedulers {
            let mut out = Execution::default();
            let schedule = Schedule::Oblivious(&mut **scheduler);
            engine.run_into(&mut nodes(), wakes, schedule, step_limit, None, &mut out);
            pass.push_str(&format!("{out:?}\n"));
        }
    }
    assert_eq!(passes[0], passes[1], "second pass on the reused engine");
    log.push_str(&passes.concat());
}

/// [`log_split_orders`] over `p`'s honest nodes on a fresh ring engine.
fn log_ring_split_orders<P: RingProtocol>(log: &mut String, p: &P) {
    let n = p.n();
    let mut engine = Engine::new(Topology::ring(n));
    let limit = default_step_limit(n);
    log_split_orders(log, &mut engine, &P::WAKES.ids(n), limit, || {
        (0..n)
            .map(|id| p.honest_ring_node_in(id, &mut TrialArena::new()))
            .collect()
    });
}

/// Every ring protocol at n ∈ {5, 12}, and A-LEADfc's honest run on the
/// complete digraph (built as the secret-sharing property tests build
/// it), through the split path on one reused engine per case.
#[test]
fn split_path_executions_are_pinned() {
    use fle_secretshare::ALeadFc;

    let mut log = String::new();
    for n in [5, 12] {
        log_ring_split_orders(&mut log, &BasicLead::new(n).with_seed(11));
        log_ring_split_orders(&mut log, &ALeadUni::new(n).with_seed(11));
        log_ring_split_orders(
            &mut log,
            &PhaseAsyncLead::new(n).with_seed(11).with_fn_key(5),
        );
        log_ring_split_orders(&mut log, &PhaseSumLead::new(n).with_seed(11));
        let p = ALeadFc::new(n).with_seed(11);
        let wakes: Vec<usize> = (0..n).collect();
        let limit = (n as u64).pow(3) * 8 + 10_000;
        let mut engine = Engine::new(Topology::complete(n));
        log_split_orders(&mut log, &mut engine, &wakes, limit, || {
            (0..n).map(|id| p.honest_node(id)).collect()
        });
    }
    assert_eq!(
        fle_harness::sha256_hex(log.as_bytes()),
        "38ade6277ee985ebd7877e82b962c3a72b49bbc1cadc2e1499e711757d6e6a04"
    );
}

// ---------------------------------------------------------------------------
// Queue shapes: the engine's one event loop over the fused global-FIFO
// stream, the split token/link path and the all-zero timed heap, under
// crash plans and a recording probe.

/// Logs every send, delivery and termination with the counters after it.
#[derive(Default)]
struct EventLog(Vec<String>);

impl<M: std::fmt::Debug> Probe<M> for EventLog {
    fn on_send(&mut self, from: NodeId, to: NodeId, msg: &M, sent: &[u64]) {
        self.0.push(format!("send {from}->{to} {msg:?} {sent:?}"));
    }

    fn on_deliver(&mut self, from: NodeId, to: NodeId, msg: &M, received: &[u64]) {
        self.0
            .push(format!("deliver {from}->{to} {msg:?} {received:?}"));
    }

    fn on_terminate(&mut self, node: NodeId, output: Option<u64>) {
        self.0.push(format!("terminate {node} {output:?}"));
    }
}

/// `p`'s honest trial seeded `seed` under `plan` on `schedule`, with its
/// probe log.
fn logged_run<P: RingProtocol, S: Scheduler + ?Sized>(
    p: &P,
    seed: u64,
    plan: &FaultPlan,
    schedule: Schedule<'_, P::Msg, S>,
) -> (Execution, Vec<String>)
where
    P::Msg: std::fmt::Debug,
{
    let n = p.n();
    let q = p.seeded(seed);
    let mut arena = TrialArena::new();
    let mut nodes: Vec<P::Node> = (0..n)
        .map(|id| q.honest_ring_node_in(id, &mut arena))
        .collect();
    let mut engine = Engine::new(Topology::ring(n));
    engine.set_fault_plan(plan);
    let (mut log, mut out) = (EventLog::default(), Execution::default());
    let limit = default_step_limit(n);
    let wakes = P::WAKES.ids(n);
    engine.run_into(
        &mut nodes,
        &wakes,
        schedule,
        limit,
        Some(&mut log),
        &mut out,
    );
    (out, log.0)
}

/// Fused FIFO against the split path under [`SplitFifo`], with a crash of
/// `victim` at a delivery clock in `1..` the fault-free delivery count
/// (so it fires mid-run), crash-stop and recovering; then fused FIFO
/// against the all-zero timed net, with no plan and with a crash-stop at
/// instant 0 of a node other than the origin and of the origin. Each
/// pair must give equal `Execution`s and equal probe logs.
fn assert_queue_shapes_agree<P: RingProtocol>(
    p: &P,
    seed: u64,
    victim: NodeId,
    at: u64,
    recover: u64,
) where
    P::Msg: std::fmt::Debug,
{
    let n = p.n();
    let fifo = |plan: &FaultPlan| {
        logged_run(
            p,
            seed,
            plan,
            Schedule::Oblivious(&mut FifoScheduler::new()),
        )
    };
    let delivered = fifo(&FaultPlan::none()).0.stats.delivered;
    let at = 1 + at % (delivered - 1);
    for recover_at in [None, Some(at + 1 + recover)] {
        let plan = FaultPlan::none().with_crash(victim % n, at, recover_at);
        let fused = fifo(&plan);
        assert_eq!(fused.0.stats.crashes, 1, "{plan:?} must fire mid-run");
        let split = logged_run(
            p,
            seed,
            &plan,
            Schedule::Oblivious(&mut SplitFifo::default()),
        );
        assert_eq!(split, fused, "split path vs fused stream under {plan:?}");
    }
    let zero = TimedNetConfig::default();
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().with_crash(1 + victim % (n - 1), 0, None),
        // On an origin-paced ring this drops the only wake-up: nothing is
        // ever delivered, yet the crash fired at the wake-up's instant 0.
        FaultPlan::none().with_crash(0, 0, None),
    ];
    for plan in plans {
        let mut heap = TimedScheduler::new();
        let timed = logged_run::<P, FifoScheduler>(
            p,
            seed,
            &plan,
            Schedule::Timed {
                heap: &mut heap,
                net: &zero,
                seed,
            },
        );
        assert_eq!(
            timed,
            fifo(&plan),
            "all-zero timed net vs fused stream under {plan:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn queue_shapes_agree_basic(
        seed in any::<u64>(),
        n in 2usize..14,
        victim in any::<usize>(),
        at in any::<u64>(),
        recover in 0u64..32,
    ) {
        assert_queue_shapes_agree(&BasicLead::new(n), seed, victim, at, recover);
    }

    #[test]
    fn queue_shapes_agree_a_lead_uni(
        seed in any::<u64>(),
        n in 2usize..14,
        victim in any::<usize>(),
        at in any::<u64>(),
        recover in 0u64..32,
    ) {
        assert_queue_shapes_agree(&ALeadUni::new(n), seed, victim, at, recover);
    }

    #[test]
    fn queue_shapes_agree_phase_async(
        seed in any::<u64>(),
        key in any::<u64>(),
        n in 4usize..14,
        victim in any::<usize>(),
        at in any::<u64>(),
        recover in 0u64..32,
    ) {
        let p = PhaseAsyncLead::new(n).with_fn_key(key);
        assert_queue_shapes_agree(&p, seed, victim, at, recover);
    }

    #[test]
    fn queue_shapes_agree_phase_sum(
        seed in any::<u64>(),
        n in 4usize..14,
        victim in any::<usize>(),
        at in any::<u64>(),
        recover in 0u64..32,
    ) {
        assert_queue_shapes_agree(&PhaseSumLead::new(n), seed, victim, at, recover);
    }
}
