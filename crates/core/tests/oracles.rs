//! Closed-form oracles for the honest transitions.
//!
//! Each honest protocol's transition is written once and runs on both
//! engines, at one lane on the scalar engine and at `k` lockstep lanes,
//! so a lane-vs-scalar differential compares that transition with itself.
//! These tests check both engines against what the protocols elect,
//! computed straight from the node streams without running any node:
//!
//! * `PhaseAsyncLead` elects `f(d_0..d_{n−1}, v_1..v_{n−l})`, where `d_i`
//!   and `v_{i+1}` are node `i`'s first and second draws, below `n` and
//!   below `m`;
//! * `Basic-LEAD`, `A-LEADuni` and `PhaseSumLead` elect `Σ d_i mod n`;
//! * every node sends and receives exactly `n` messages (`2n` for the
//!   phase protocols).

use fle_core::protocols::{
    ALeadBatchCache, ALeadUni, BasicBatchCache, BasicLead, FleProtocol, PhaseAsyncLead,
    PhaseBatchCache, PhaseSumLead,
};
use fle_core::{Execution, Outcome};
use ring_sim::rng::{mix, SplitMix64};

/// The lockstep width the oracles run: the sweeps' default.
const WIDTH: u64 = 16;

/// Node `id`'s stream in a trial seeded `seed`.
fn stream(seed: u64, id: usize) -> SplitMix64 {
    SplitMix64::new(seed).derive(id as u64)
}

/// `Σ d_i mod n`, each `d_i` node `i`'s first draw below `n`.
fn sum_leader(seed: u64, n: usize) -> u64 {
    let n = n as u64;
    (0..n as usize)
        .map(|i| stream(seed, i).next_below(n))
        .sum::<u64>()
        % n
}

/// `f(d_0..d_{n−1}, v_1..v_{n−l})` of `p` seeded `seed`: node `i`'s first
/// draw below `n` is `d_i`, its second draw below `m` is `v_{i+1}`.
fn phase_async_leader(p: &PhaseAsyncLead, seed: u64) -> u64 {
    let params = p.params();
    let (data, vals): (Vec<u64>, Vec<u64>) = (0..params.n)
        .map(|i| {
            let mut rng = stream(seed, i);
            let d = rng.next_below(params.n as u64);
            (d, rng.next_below(params.m))
        })
        .unzip();
    p.random_fn().eval(&data, &vals[..params.vals_in_f()])
}

/// The seeds of one width-16 group.
fn group(base: u64) -> Vec<u64> {
    (0..WIDTH).map(|j| mix(base ^ j)).collect()
}

/// Asserts `exec` elected `leader` with every node sending and receiving
/// exactly `messages`.
fn assert_elects(exec: &Execution, leader: u64, messages: u64, case: &str) {
    assert_eq!(exec.outcome, Outcome::Elected(leader), "{case}");
    assert!(
        exec.stats.sent.iter().all(|&s| s == messages),
        "{case}: sent {:?}",
        exec.stats.sent
    );
    assert!(
        exec.stats.received.iter().all(|&r| r == messages),
        "{case}: received {:?}",
        exec.stats.received
    );
}

/// Checks every lane of a lockstep group over `seeds` with `check`, once
/// the group `ran`.
fn each_lane(
    seeds: &[u64],
    ran: bool,
    execution_into: impl Fn(usize, &mut Execution),
    check: impl Fn(u64, &Execution),
) {
    assert!(ran, "an honest group never diverges");
    let mut exec = Execution::default();
    for (lane, &seed) in seeds.iter().enumerate() {
        execution_into(lane, &mut exec);
        check(seed, &exec);
    }
}

#[test]
fn phase_async_elects_f_of_the_node_draws() {
    for n in [4, 7, 16, 33, 64] {
        let mut cache = PhaseBatchCache::ring(n);
        let messages = 2 * n as u64;
        for key in [0, 9, 0xdead_beef, u64::MAX] {
            let p = PhaseAsyncLead::new(n).with_fn_key(key);
            for seed in 0..4 {
                let case = format!("scalar n={n} key={key} seed={seed}");
                let leader = phase_async_leader(&p, seed);
                assert_elects(&p.with_seed(seed).run_honest(), leader, messages, &case);
            }
            let seeds = group(key ^ n as u64);
            each_lane(
                &seeds,
                p.run_honest_batch_into(&seeds, &mut cache),
                |lane, out| cache.execution_into(lane, out),
                |seed, exec| {
                    let case = format!("lanes n={n} key={key} seed={seed}");
                    assert_elects(exec, phase_async_leader(&p, seed), messages, &case);
                },
            );
        }
    }
}

#[test]
fn sum_protocols_elect_the_sum_on_both_engines() {
    for n in [2, 3, 5, 16, 33, 64] {
        let messages = n as u64;
        let (basic, alead) = (BasicLead::new(n), ALeadUni::new(n));
        for seed in 0..4 {
            let case = format!("scalar n={n} seed={seed}");
            let leader = sum_leader(seed, n);
            let exec = basic.clone().with_seed(seed).run_honest();
            assert_elects(&exec, leader, messages, &format!("Basic-LEAD {case}"));
            let exec = alead.clone().with_seed(seed).run_honest();
            assert_elects(&exec, leader, messages, &format!("A-LEADuni {case}"));
        }
        let seeds = group(n as u64);
        let mut cache = BasicBatchCache::ring(n);
        each_lane(
            &seeds,
            basic.run_honest_batch_into(&seeds, &mut cache),
            |lane, out| cache.execution_into(lane, out),
            |seed, exec| {
                let case = format!("Basic-LEAD lanes n={n} seed={seed}");
                assert_elects(exec, sum_leader(seed, n), messages, &case);
            },
        );
        let mut cache = ALeadBatchCache::ring(n);
        each_lane(
            &seeds,
            alead.run_honest_batch_into(&seeds, &mut cache),
            |lane, out| cache.execution_into(lane, out),
            |seed, exec| {
                let case = format!("A-LEADuni lanes n={n} seed={seed}");
                assert_elects(exec, sum_leader(seed, n), messages, &case);
            },
        );
    }
    for n in [4, 7, 16, 33, 64] {
        let messages = 2 * n as u64;
        let p = PhaseSumLead::new(n);
        for seed in 0..4 {
            let case = format!("PhaseSumLead scalar n={n} seed={seed}");
            assert_elects(
                &p.with_seed(seed).run_honest(),
                sum_leader(seed, n),
                messages,
                &case,
            );
        }
        let mut cache = PhaseBatchCache::ring(n);
        let seeds = group(!(n as u64));
        each_lane(
            &seeds,
            p.run_honest_batch_into(&seeds, &mut cache),
            |lane, out| cache.execution_into(lane, out),
            |seed, exec| {
                let case = format!("PhaseSumLead lanes n={n} seed={seed}");
                assert_elects(exec, sum_leader(seed, n), messages, &case);
            },
        );
    }
}
