//! Differential tests of the engine's execution paths.
//!
//! The engine runs every trial through one entry, `Engine::run_into`, but
//! callers reach it with different node storage and buffers: the one-shot
//! `SimBuilder` (fresh working set per run), boxed `Box<dyn Node>` mixes
//! and monomorphized honest node vectors over a reused engine, the
//! arena-pooled `run_ring_honest_pooled_into` batch loop, and the
//! `run_with_in`/`TrialCache` attack fast path. Since the packed-token /
//! link-slab engine landed, each protocol additionally runs through an
//! `Engine::new_with_general_links` oracle — the general-topology
//! `VecDeque` link layout — against the default ring `LinkSlab` layout.
//! Every pair must produce *identical* `Execution`s — outcome, per-node
//! outputs, and every counter — for every protocol, ring size and seed.
//! These property tests are the oracle that keeps the fast paths honest.

use fle_attacks::{
    BasicSingleAttack, BasicSingleCache, PhaseGuessAttack, PhaseRushingAttack, PhaseRushingCache,
    PhaseSumAttack, RushingAttack, RushingCache,
};
use fle_core::protocols::{
    run_ring_honest_pooled_into, ALeadTrialCache, ALeadUni, BasicLead, BasicTrialCache,
    FleProtocol, PhaseAsyncLead, PhaseSumLead, PhaseTrialCache, RingProtocol,
};
use fle_core::Coalition;
use proptest::prelude::*;
use ring_sim::{
    default_step_limit, ArenaBacked, Engine, Execution, FifoScheduler, Node, Schedule, Scheduler,
    Topology, TrialArena,
};

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

/// Drives one protocol instance through every node storage and buffer
/// form against the `SimBuilder` reference execution. The engine and the
/// `run_into` out-parameter are reused across paths, so buffer-reuse bugs
/// surface as cross-run contamination.
fn assert_paths_agree<M: Clone + 'static, N: Node<M> + ArenaBacked>(
    n: usize,
    wakes: &[usize],
    reference: &Execution,
    engine: &mut Engine<M>,
    boxed: impl FnOnce() -> Vec<Box<dyn Node<M>>>,
    mut mono: impl FnMut(usize) -> N,
    mut pooled: impl FnMut(usize, &mut TrialArena) -> N,
) {
    let via_boxed = run(engine, &mut boxed(), wakes, &mut FifoScheduler::new());
    assert_eq!(&via_boxed, reference, "boxed nodes vs SimBuilder");

    // The out-parameter starts dirty (filled by the previous path) and is
    // reused below — run_into must overwrite it completely each time.
    let mut out = via_boxed;
    let mut scheduler = FifoScheduler::new();
    for pass in 0..2 {
        let mut mono_nodes: Vec<N> = (0..n).map(&mut mono).collect();
        run_into(engine, &mut mono_nodes, wakes, &mut scheduler, &mut out);
        assert_eq!(
            &out, reference,
            "monomorphized nodes (pass {pass}) vs SimBuilder"
        );
    }

    // The arena-pooled batch loop, twice over the same arena and node
    // buffer: the second pass runs entirely on reclaimed stores, so a
    // stale or mis-reset buffer surfaces as a mismatch.
    let mut arena = TrialArena::new();
    let mut nodes_buf: Vec<N> = Vec::new();
    for pass in 0..2 {
        run_ring_honest_pooled_into(
            engine,
            n,
            &mut pooled,
            wakes,
            &mut nodes_buf,
            &mut scheduler,
            &mut arena,
            &mut out,
        );
        assert_eq!(
            &out, reference,
            "run_ring_honest_pooled_into (pass {pass}) vs SimBuilder"
        );
    }
}

/// Runs the same honest instance through every engine storage layout:
/// the fused global-FIFO stream (what `FifoScheduler` rides) on both the
/// ring `LinkSlab` engine and the forced general-topology `VecDeque`
/// engine, plus the *split* token/link path driven by
/// `ring_sim::reference::FifoScheduler` (identical pop order,
/// `is_global_fifo` = false) on both layouts. All four must equal the
/// `SimBuilder` reference. Engines are reused for a second pass so a
/// stale slab cursor or dirty-list bug surfaces as a second-run mismatch.
fn assert_link_layouts_agree<M: Clone, N: Node<M> + ArenaBacked>(
    n: usize,
    wakes: &[usize],
    reference: &Execution,
    mut mono: impl FnMut(usize) -> N,
) {
    let mut slab = Engine::new(Topology::ring(n));
    let mut general = Engine::new_with_general_links(Topology::ring(n));
    assert!(slab.uses_ring_slab() && !general.uses_ring_slab());
    for pass in 0..2 {
        let mut nodes: Vec<N> = (0..n).map(&mut mono).collect();
        let via_slab = run(&mut slab, &mut nodes, wakes, &mut FifoScheduler::new());
        assert_eq!(&via_slab, reference, "fused on slab engine (pass {pass})");
        let mut nodes: Vec<N> = (0..n).map(&mut mono).collect();
        let via_general = run(&mut general, &mut nodes, wakes, &mut FifoScheduler::new());
        assert_eq!(
            &via_general, reference,
            "fused on general-links engine (pass {pass})"
        );
        let mut nodes: Vec<N> = (0..n).map(&mut mono).collect();
        let mut split = ring_sim::reference::FifoScheduler::new();
        let split_slab = run(&mut slab, &mut nodes, wakes, &mut split);
        assert_eq!(&split_slab, reference, "split LinkSlab path (pass {pass})");
        let mut nodes: Vec<N> = (0..n).map(&mut mono).collect();
        let split_general = run(&mut general, &mut nodes, wakes, &mut split);
        assert_eq!(
            &split_general, reference,
            "split VecDeque-links path (pass {pass})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn basic_lead_paths_agree(seed in any::<u64>(), n in 2usize..24) {
        let p = BasicLead::new(n).with_seed(seed);
        let reference = p.run_honest();
        let mut engine = Engine::new(Topology::ring(n));
        assert_paths_agree(
            n,
            &p.wakes(),
            &reference,
            &mut engine,
            || (0..n).map(|id| p.honest_node(id)).collect(),
            |id| p.honest_ring_node(id),
            |id, arena| p.honest_ring_node_in(id, arena),
        );
        assert_link_layouts_agree(n, &p.wakes(), &reference, |id| p.honest_ring_node(id));
        prop_assert_eq!(p.run_honest_in(&mut engine), reference);
    }

    #[test]
    fn a_lead_uni_paths_agree(seed in any::<u64>(), n in 2usize..24) {
        let p = ALeadUni::new(n).with_seed(seed);
        let reference = p.run_honest();
        let mut engine = Engine::new(Topology::ring(n));
        assert_paths_agree(
            n,
            &p.wakes(),
            &reference,
            &mut engine,
            || (0..n).map(|id| p.honest_node(id)).collect(),
            |id| p.honest_ring_node(id),
            |id, arena| p.honest_ring_node_in(id, arena),
        );
        assert_link_layouts_agree(n, &p.wakes(), &reference, |id| p.honest_ring_node(id));
        prop_assert_eq!(p.run_honest_in(&mut engine), reference);
    }

    #[test]
    fn phase_async_paths_agree(seed in any::<u64>(), key in any::<u64>(), n in 4usize..24) {
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(key);
        let reference = p.run_honest();
        let mut engine = Engine::new(Topology::ring(n));
        assert_paths_agree(
            n,
            &p.wakes(),
            &reference,
            &mut engine,
            || (0..n).map(|id| p.honest_node(id)).collect(),
            |id| p.honest_ring_node(id),
            |id, arena| p.honest_ring_node_in(id, arena),
        );
        assert_link_layouts_agree(n, &p.wakes(), &reference, |id| p.honest_ring_node(id));
        prop_assert_eq!(p.run_honest_in(&mut engine), reference);
    }

    #[test]
    fn phase_sum_paths_agree(seed in any::<u64>(), n in 4usize..24) {
        let p = PhaseSumLead::new(n).with_seed(seed);
        let reference = p.run_honest();
        let mut engine = Engine::new(Topology::ring(n));
        assert_paths_agree(
            n,
            &p.wakes(),
            &reference,
            &mut engine,
            || (0..n).map(|id| p.honest_node(id)).collect(),
            |id| p.honest_ring_node(id),
            |id, arena| p.honest_ring_node_in(id, arena),
        );
        assert_link_layouts_agree(n, &p.wakes(), &reference, |id| p.honest_ring_node(id));
        prop_assert_eq!(p.run_honest_in(&mut engine), reference);
    }
}

// ---------------------------------------------------------------------------
// Attack-path differentials: `run_with_in` (cached engine + MixNode) vs
// `SimBuilder::run_with`, for every protocol. The cache is reused across
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
            let exec = p.run_with_in(nodes, &mut cache);
            prop_assert_eq!(exec, &reference, "boxed pass {}", pass);
        }
        // …and the fully monomorphized single-deviator fast path.
        let mut cache = BasicSingleCache::ring(n);
        for pass in 0..2 {
            let exec = attack.run_in(&p, &mut cache).expect("feasible");
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
            let exec = p.run_with_in(nodes, &mut cache);
            prop_assert_eq!(exec, &reference, "boxed pass {}", pass);
        }
        // …and the homogeneous coalition fully unboxed (concrete Rusher).
        let mut cache = RushingCache::ring(n);
        for pass in 0..2 {
            let exec = attack.run_in(&p, &coalition, &mut cache).expect("planned");
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
            let exec = p.run_with_in(nodes, &mut cache);
            prop_assert_eq!(exec, &reference, "boxed pass {}", pass);
        }
        // …and the homogeneous coalition fully unboxed (concrete
        // PhaseRusher).
        let mut cache = PhaseRushingCache::ring(n);
        for pass in 0..2 {
            let exec = attack.run_in(&p, &coalition, &mut cache).expect("planned");
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
            let exec = attack.run_in(&p, &mut cache).expect("valid position");
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
            let exec = p.run_with_in(nodes, &mut cache);
            prop_assert_eq!(exec, &reference, "pass {}", pass);
        }
    }
}

/// Times the *split* token/link path (non-global-FIFO schedulers) on the
/// ring `LinkSlab` layout vs. the general `VecDeque` layout, for the two
/// non-FIFO schedulers the suite ships. Ignored by default: it is a
/// measurement, not an assertion — run it in release to (re)settle the
/// keep-or-delete question for the slab's non-FIFO branch:
///
/// ```text
/// cargo test --release -p fle-bench --test engine_paths -- \
///     --ignored --nocapture split_path_slab_vs_vecdeque_timing
/// ```
///
/// Recorded 2026-08-08 (PR 7, 1-core container, PhaseAsyncLead n=64,
/// 300 trials/config, two runs): Lifo slab 199–226 µs/trial vs general
/// 219–251 µs/trial (slab ~1.10x faster); Random slab 285–298 µs/trial
/// vs general 293–357 µs/trial (parity to ~1.25x — the scheduler's
/// `swap_remove` dominates). Verdict: keep the slab branch — it never
/// loses on either non-FIFO scheduler, and deleting it would fork the
/// engine's link storage per scheduler for no win.
#[test]
#[ignore = "release-mode timing measurement; run explicitly with --nocapture"]
fn split_path_slab_vs_vecdeque_timing() {
    use ring_sim::{LifoScheduler, RandomScheduler};
    use std::time::Instant;

    let n = 64;
    let trials = 300u64;
    let limit = default_step_limit(n);
    fn time_config<S: Scheduler>(
        label: &str,
        engine: &mut Engine<fle_core::protocols::PhaseMsg>,
        mut scheduler: S,
        n: usize,
        trials: u64,
        limit: u64,
    ) -> std::time::Duration {
        // Warm-up trial so allocations reach steady state before timing.
        for pass in 0..2 {
            let start = Instant::now();
            for seed in 0..trials {
                let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(7);
                let mut nodes: Vec<_> = (0..n).map(|id| p.honest_ring_node(id)).collect();
                let mut exec = ring_sim::Execution::default();
                let schedule = ring_sim::Schedule::Oblivious(&mut scheduler);
                engine.run_into(&mut nodes, &p.wakes(), schedule, limit, None, &mut exec);
                assert!(exec.outcome.elected().is_some(), "{label} seed {seed}");
            }
            if pass == 1 {
                let per = start.elapsed() / trials as u32;
                println!("{label}: {per:?}/trial");
                return start.elapsed();
            }
        }
        unreachable!()
    }

    for layout in ["slab", "general"] {
        let mut engine = if layout == "slab" {
            Engine::new(Topology::ring(n))
        } else {
            Engine::new_with_general_links(Topology::ring(n))
        };
        time_config(
            &format!("lifo/{layout}"),
            &mut engine,
            LifoScheduler::new(),
            n,
            trials,
            limit,
        );
        time_config(
            &format!("random/{layout}"),
            &mut engine,
            RandomScheduler::new(42),
            n,
            trials,
            limit,
        );
    }
}

// ---------------------------------------------------------------------------
// Lockstep-batch differentials: the structure-of-arrays
// `run_honest_batch_into` fast path vs the scalar per-trial engine, for
// every protocol and batch width. Caches are reused across widths and
// seed groups, so cross-group contamination in the SoA state surfaces as
// a later-lane mismatch.

use fle_core::protocols::{ALeadBatchCache, BasicBatchCache, PhaseBatchCache};
use fle_harness::{
    batched_trials, run_sweep_partial, trial_seed, BatchConfig, HonestSweep, ProtocolKind,
    ScheduleSpec, SweepSpec,
};

/// Widths around the interesting boundaries: scalar-equivalent 1, the
/// smallest real batch, a non-power-of-two, the default, and one wider
/// than every ring under test.
const BATCH_WIDTHS: [usize; 5] = [1, 2, 7, 8, 64];

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
    /// exercises the group realignment and the scalar ragged tail.
    #[test]
    fn batched_partial_matches_scalar_over_arbitrary_ranges(
        start in 0u64..40,
        len in 0u64..40,
        width in 1usize..12,
        threads in 1usize..4,
    ) {
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
                schedule: ScheduleSpec::Fifo,
                fault: None,
            })
        };
        let batched = run_sweep_partial(&spec(width), start, start + len).expect("valid range");
        let scalar = run_sweep_partial(&spec(1), start, start + len).expect("valid range");
        prop_assert_eq!(batched, scalar);
    }
}

/// A full batched sweep must serialize byte-identically to the scalar
/// sweep — for every protocol, at a width (7) that leaves a ragged tail —
/// and the lockstep path must actually have run (not silently fallen back
/// to scalar).
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
            batched_trials() >= before + 56,
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
