//! The `fle-harness` batch runner vs the legacy serial trial loop.
//!
//! Measures the components of the harness speedup separately: the
//! allocation-reuse + monomorphization win (`batch_1thread` vs
//! `serial_builder` — same work, zero-allocation mono engine vs fresh
//! `SimBuilder` per trial), the dyn-dispatch cost in isolation
//! (`boxed_engine_1thread` — same reusable engine, but `Box<dyn Node>`
//! behaviours and per-trial clones), and the thread fan-out
//! (`batch_auto`). The batch results are byte-identical across all of
//! them, which `tests/golden_outcomes.rs` and the harness determinism
//! suite pin.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fle_attacks::PhaseRushingAttack;
use fle_core::protocols::{FleProtocol, PhaseAsyncLead, PhaseMsg};
use fle_core::Coalition;
use fle_harness::{
    run_sweep, trial_seed, BatchConfig, HonestSweep, ProtocolKind, ScheduleSpec, SweepSpec,
};
use ring_sim::{default_step_limit, Engine, Execution, FifoScheduler, Node, Schedule, Topology};
use std::hint::black_box;

const TRIALS: u64 = 50;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("harness_batch");
    g.sample_size(10);
    for &n in fle_bench::BENCH_SIZES {
        g.bench_with_input(BenchmarkId::new("serial_builder", n), &n, |b, &n| {
            // The pre-harness path: one heap-allocated SimBuilder working
            // set per trial, no reuse.
            b.iter(|| {
                let mut wins = vec![0u64; n];
                for i in 0..TRIALS {
                    let exec = PhaseAsyncLead::new(n)
                        .with_seed(trial_seed(1, i))
                        .with_fn_key(9)
                        .run_honest();
                    wins[exec.outcome.elected().expect("honest") as usize] += 1;
                }
                black_box(wins)
            });
        });
        g.bench_with_input(BenchmarkId::new("boxed_engine_1thread", n), &n, |b, &n| {
            // The PR 2 batch path: reusable engine, but `Box<dyn Node>`
            // behaviours (vtable dispatch, one box per node per trial) and
            // a cloned Execution per trial.
            let mut engine: Engine<PhaseMsg> = Engine::new(Topology::ring(n));
            b.iter(|| {
                let mut wins = vec![0u64; n];
                for i in 0..TRIALS {
                    let p = PhaseAsyncLead::new(n)
                        .with_seed(trial_seed(1, i))
                        .with_fn_key(9);
                    let mut nodes: Vec<Box<dyn Node<PhaseMsg>>> =
                        (0..n).map(|id| p.honest_node(id)).collect();
                    let mut exec = Execution::default();
                    engine.run_into(
                        &mut nodes,
                        &p.wakes(),
                        Schedule::Oblivious(&mut FifoScheduler::new()),
                        default_step_limit(n),
                        None,
                        &mut exec,
                    );
                    wins[exec.outcome.elected().expect("honest") as usize] += 1;
                }
                black_box(wins)
            });
        });
        let sweep = |threads| {
            SweepSpec::Honest(HonestSweep {
                protocol: ProtocolKind::PhaseAsyncLead,
                n,
                fn_key: 9,
                batch: BatchConfig {
                    trials: TRIALS,
                    base_seed: 1,
                    threads,
                },
                batch_width: 0,
                schedule: ScheduleSpec::Fifo,
                fault: None,
            })
        };
        g.bench_with_input(BenchmarkId::new("batch_1thread", n), &n, |b, &n| {
            let cfg = sweep(1);
            let _ = n;
            b.iter(|| black_box(run_sweep(&cfg).expect("valid spec")));
        });
        g.bench_with_input(BenchmarkId::new("batch_auto", n), &n, |b, &n| {
            let cfg = sweep(0);
            let _ = n;
            b.iter(|| black_box(run_sweep(&cfg).expect("valid spec")));
        });
    }
    g.finish();

    // The attack fast path vs its SimBuilder baseline: a √n + 3 rushing
    // coalition against PhaseAsyncLead n=16, per-trial seeds, one cached
    // TrialCache vs a fresh one-shot build per trial (the BENCH_4
    // `phase_rushing_n16` arms, criterion-shaped).
    let mut g = c.benchmark_group("attack_paths");
    g.sample_size(10);
    let n = 16;
    let coalition = Coalition::equally_spaced(n, 7, 1).expect("valid layout");
    let attack = PhaseRushingAttack::new(3);
    g.bench_function("rushing_simbuilder", |b| {
        b.iter(|| {
            let mut elected = 0u64;
            for i in 0..TRIALS {
                let p = PhaseAsyncLead::new(n).with_seed(trial_seed(1, i));
                let exec = attack.run(&p, &coalition).expect("feasible");
                elected += u64::from(exec.outcome.elected().is_some());
            }
            black_box(elected)
        });
    });
    g.bench_function("rushing_cached_engine", |b| {
        let mut cache = fle_attacks::PhaseRushingCache::ring(n);
        b.iter(|| {
            let mut elected = 0u64;
            for i in 0..TRIALS {
                let p = PhaseAsyncLead::new(n).with_seed(trial_seed(1, i));
                let exec = attack.run_in(&p, &coalition, &mut cache).expect("feasible");
                elected += u64::from(exec.outcome.elected().is_some());
            }
            black_box(elected)
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
