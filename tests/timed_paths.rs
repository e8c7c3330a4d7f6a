//! Differential tests of the engine's virtual-clock (timed) path.
//!
//! The timed scheduler is a superset of the untimed engine: with one
//! constant latency `L` on every link (no loss, no duplication, no
//! bandwidth queueing) a message sent at `t` arrives at `t + L`, so the
//! heap pops in send order, which *is* the fused global-FIFO order. With
//! `L = 0` (the all-zero profile) every delivery fires at time 0 and ties
//! break by send sequence. So for every protocol, ring size, seed and
//! `L`, the timed path must produce bit-identical [`Execution`]s to the
//! untimed fast path — outcome, per-node outputs, and every counter.
//! These property tests pin that anchor for the four ring protocols (the
//! lockstep engine's constant-latency clock rests on it) and for the
//! cached attack path, and pin determinism of the noisy configurations:
//! a lossy/duplicating net replays byte-identically from the same seed
//! (the noise stream is derived from the trial seed, never from global
//! state).

use fle_attacks::{RushingAttack, RushingCache};
use fle_core::protocols::{
    run_ring_honest_timed_into, ALeadUni, BasicLead, FleProtocol, PhaseAsyncLead, PhaseSumLead,
};
use fle_core::Coalition;
use proptest::prelude::*;
use ring_sim::{
    ArenaBacked, Engine, Execution, LatencySpec, LinkProfile, Node, TimedNetConfig, TimedScheduler,
    Topology, TrialArena,
};

/// Runs `n` honest nodes through the timed path under `net` with the
/// engine, scheduler, arena and out-parameter reused across calls (the
/// sweep worker's actual life).
fn run_timed<M: Clone, N: Node<M> + ArenaBacked>(
    engine: &mut Engine<M>,
    timed: &mut TimedScheduler<M>,
    n: usize,
    wakes: &[usize],
    net: &TimedNetConfig,
    seed: u64,
    mut mono: impl FnMut(usize, &mut TrialArena) -> N,
) -> Execution {
    let mut arena = TrialArena::new();
    let mut nodes_buf: Vec<N> = Vec::new();
    let mut out = Execution::default();
    run_ring_honest_timed_into(
        engine,
        n,
        &mut mono,
        wakes,
        &mut nodes_buf,
        timed,
        net,
        seed,
        &mut arena,
        &mut out,
    );
    out
}

/// The latency the four protocol differentials draw: 0 (the all-zero
/// profile) half the time, else up to 999 ns.
fn latency_ns() -> impl Strategy<Value = u64> {
    (0u64..2000).prop_map(|x| x.saturating_sub(1000))
}

/// Asserts the timed run on constant `latency` links equals the untimed
/// reference, twice over the same engine/scheduler (reuse must not
/// perturb it).
fn assert_constant_latency_matches<M: Clone, N: Node<M> + ArenaBacked>(
    n: usize,
    wakes: &[usize],
    reference: &Execution,
    seed: u64,
    latency: u64,
    mut mono: impl FnMut(usize, &mut TrialArena) -> N,
) {
    let net = TimedNetConfig::uniform(LinkProfile {
        latency: LatencySpec::Constant { ns: latency },
        ..LinkProfile::default()
    });
    assert_eq!(net.constant_latency(), Some(latency));
    let mut engine = Engine::new(Topology::ring(n));
    let mut timed = TimedScheduler::new();
    for pass in 0..2 {
        let out = run_timed(&mut engine, &mut timed, n, wakes, &net, seed, &mut mono);
        assert_eq!(&out, reference, "const:{latency} timed (pass {pass})");
    }
}

/// A noisy but valid profile: jittered latency, loss and duplication.
fn noisy_net() -> TimedNetConfig {
    TimedNetConfig::uniform(LinkProfile {
        latency: LatencySpec::Uniform { lo: 0, hi: 500 },
        loss_permille: 100,
        dup_permille: 80,
        gap_ns: 25,
    })
}

/// Replays one noisy honest run twice from the same seed (fresh engine
/// vs. reused engine) and asserts byte-identical executions.
fn assert_noisy_replay_deterministic<M: Clone, N: Node<M> + ArenaBacked>(
    n: usize,
    wakes: &[usize],
    seed: u64,
    mut mono: impl FnMut(usize, &mut TrialArena) -> N,
) {
    let net = noisy_net();
    let mut engine = Engine::new(Topology::ring(n));
    let mut timed = TimedScheduler::new();
    let first = run_timed(&mut engine, &mut timed, n, wakes, &net, seed, &mut mono);
    // Same seed on the reused engine: identical replay.
    let again = run_timed(&mut engine, &mut timed, n, wakes, &net, seed, &mut mono);
    assert_eq!(first, again, "reused-engine replay");
    // Same seed on a fresh engine: identical replay.
    let mut fresh_engine = Engine::new(Topology::ring(n));
    let mut fresh_timed = TimedScheduler::new();
    let fresh = run_timed(
        &mut fresh_engine,
        &mut fresh_timed,
        n,
        wakes,
        &net,
        seed,
        &mut mono,
    );
    assert_eq!(first, fresh, "fresh-engine replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn basic_lead_timed_zero_profile_matches_fifo(
        seed in any::<u64>(),
        n in 2usize..24,
        l in latency_ns(),
    ) {
        let p = BasicLead::new(n).with_seed(seed);
        let reference = p.run_honest();
        assert_constant_latency_matches(n, &p.wakes(), &reference, seed, l, |id, arena| {
            p.honest_ring_node_in(id, arena)
        });
        assert_noisy_replay_deterministic(n, &p.wakes(), seed, |id, arena| {
            p.honest_ring_node_in(id, arena)
        });
    }

    #[test]
    fn a_lead_uni_timed_zero_profile_matches_fifo(
        seed in any::<u64>(),
        n in 2usize..24,
        l in latency_ns(),
    ) {
        let p = ALeadUni::new(n).with_seed(seed);
        let reference = p.run_honest();
        assert_constant_latency_matches(n, &p.wakes(), &reference, seed, l, |id, arena| {
            p.honest_ring_node_in(id, arena)
        });
        assert_noisy_replay_deterministic(n, &p.wakes(), seed, |id, arena| {
            p.honest_ring_node_in(id, arena)
        });
    }

    #[test]
    fn phase_async_timed_zero_profile_matches_fifo(
        seed in any::<u64>(),
        key in any::<u64>(),
        n in 4usize..24,
        l in latency_ns(),
    ) {
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(key);
        let reference = p.run_honest();
        assert_constant_latency_matches(n, &p.wakes(), &reference, seed, l, |id, arena| {
            p.honest_ring_node_in(id, arena)
        });
        assert_noisy_replay_deterministic(n, &p.wakes(), seed, |id, arena| {
            p.honest_ring_node_in(id, arena)
        });
    }

    #[test]
    fn phase_sum_timed_zero_profile_matches_fifo(
        seed in any::<u64>(),
        n in 4usize..24,
        l in latency_ns(),
    ) {
        let p = PhaseSumLead::new(n).with_seed(seed);
        let reference = p.run_honest();
        assert_constant_latency_matches(n, &p.wakes(), &reference, seed, l, |id, arena| {
            p.honest_ring_node_in(id, arena)
        });
        assert_noisy_replay_deterministic(n, &p.wakes(), seed, |id, arena| {
            p.honest_ring_node_in(id, arena)
        });
    }

    /// The cached attack path (`TrialCache::run`) with the
    /// zero-profile net installed must equal the untimed one-shot
    /// reference, and a noisy net must replay deterministically.
    #[test]
    fn rushing_attack_timed_paths_agree(seed in any::<u64>(), n in 16usize..26, w in 0u64..16) {
        let p = ALeadUni::new(n).with_seed(seed);
        let coalition = Coalition::equally_spaced(n, 5, 1).expect("valid layout");
        let attack = RushingAttack::new(w);
        prop_assume!(attack.plan(&p, &coalition).is_ok());
        let reference = attack.run(&p, &coalition).expect("planned");
        let rushers = |p: &ALeadUni| attack.adversary_ring_nodes(p, &coalition).expect("planned");

        let mut cache = RushingCache::ring(n);
        cache.set_timed_net(Some(&TimedNetConfig::default()));
        cache.set_trial_seed(seed);
        for pass in 0..2 {
            let exec = cache.run(&p, rushers(&p));
            prop_assert_eq!(exec, &reference, "zero-profile timed attack pass {}", pass);
        }

        // Noisy net: replay determinism over the reused cache, and a
        // fresh cache must reproduce the same bytes.
        let net = noisy_net();
        cache.set_timed_net(Some(&net));
        cache.set_trial_seed(seed);
        let first = cache.run(&p, rushers(&p)).clone();
        let again = cache.run(&p, rushers(&p)).clone();
        prop_assert_eq!(&first, &again, "reused-cache noisy replay");
        let mut fresh = RushingCache::ring(n);
        fresh.set_timed_net(Some(&net));
        fresh.set_trial_seed(seed);
        let fresh_exec = fresh.run(&p, rushers(&p)).clone();
        prop_assert_eq!(&first, &fresh_exec, "fresh-cache noisy replay");

        // Dropping back to the untimed path restores the reference.
        cache.set_timed_net(None);
        let exec = cache.run(&p, rushers(&p));
        prop_assert_eq!(exec, &reference, "untimed path restored");
    }
}

/// One timed scheduler serving many seeds back to back must match
/// fresh-scheduler runs throughout (no cross-trial noise leakage).
#[test]
fn timed_engine_reuse_across_seeds_matches_fresh_runs() {
    let n = 9;
    let net = noisy_net();
    let mut engine = Engine::new(Topology::ring(n));
    let mut timed = TimedScheduler::new();
    for seed in 0..40u64 {
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(7);
        let reused = run_timed(
            &mut engine,
            &mut timed,
            n,
            &p.wakes(),
            &net,
            seed,
            |id, arena| p.honest_ring_node_in(id, arena),
        );
        let mut fresh_engine = Engine::new(Topology::ring(n));
        let mut fresh_timed = TimedScheduler::new();
        let fresh = run_timed(
            &mut fresh_engine,
            &mut fresh_timed,
            n,
            &p.wakes(),
            &net,
            seed,
            |id, arena| p.honest_ring_node_in(id, arena),
        );
        assert_eq!(reused, fresh, "seed {seed}");
    }
}
