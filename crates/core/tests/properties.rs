//! Property-based tests for the core protocols and layout algebra.

use fle_core::protocols::{
    honest_data_values, ALeadUni, BasicLead, FleProtocol, PhaseAsyncLead, PhaseSumLead,
    RingProtocol,
};
use fle_core::reductions::elect_from_coins;
use fle_core::{Coalition, RandomFn};
use proptest::prelude::*;
use ring_sim::Outcome;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Layout algebra: Σ l_j = n − k for arbitrary coalitions
    /// (Definition 3.1's partition property).
    #[test]
    fn distances_partition_honest_processors(
        n in 4usize..200,
        picks in proptest::collection::btree_set(0usize..200, 1..20),
    ) {
        let positions: Vec<usize> = picks.into_iter().filter(|&p| p < n).collect();
        prop_assume!(!positions.is_empty() && positions.len() < n);
        let c = Coalition::new(n, positions).unwrap();
        prop_assert_eq!(c.distances().iter().sum::<usize>(), c.honest_count());
        let seg_total: usize = c.segments().iter().map(|s| s.len()).sum();
        prop_assert_eq!(seg_total, c.honest_count());
        prop_assert_eq!(c.exposed().len(), c.distances().iter().filter(|&&l| l > 0).count());
    }

    /// Honest A-LEADuni and Basic-LEAD both elect Σ dᵢ mod n, with exact
    /// message complexity n per processor.
    #[test]
    fn sum_protocols_elect_the_sum(n in 2usize..48, seed in any::<u64>()) {
        let expected = honest_data_values(seed, n).iter().sum::<u64>() % n as u64;
        let a = ALeadUni::new(n).with_seed(seed).run_honest();
        prop_assert_eq!(a.outcome, Outcome::Elected(expected));
        prop_assert!(a.stats.sent.iter().all(|&s| s == n as u64));
        let b = BasicLead::new(n).with_seed(seed).run_honest();
        prop_assert_eq!(b.outcome, Outcome::Elected(expected));
    }

    /// Honest PhaseSumLead elects the same sum; PhaseAsyncLead succeeds
    /// with 2n messages per processor and a valid leader.
    #[test]
    fn phase_protocols_honest_invariants(n in 4usize..40, seed in any::<u64>()) {
        let expected = honest_data_values(seed, n).iter().sum::<u64>() % n as u64;
        let s = PhaseSumLead::new(n).with_seed(seed).run_honest();
        prop_assert_eq!(s.outcome, Outcome::Elected(expected));
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(seed ^ 1).run_honest();
        let leader = p.outcome.elected().expect("honest phase run succeeds");
        prop_assert!(leader < n as u64);
        prop_assert!(p.stats.sent.iter().all(|&sent| sent == 2 * n as u64));
    }

    /// The random function is deterministic, in range, and sensitive to
    /// every coordinate.
    #[test]
    fn random_fn_properties(
        key in any::<u64>(),
        range in 2u64..1000,
        data in proptest::collection::vec(any::<u64>(), 1..20),
        flip in 0usize..19,
    ) {
        prop_assume!(flip < data.len());
        let f = RandomFn::new(key, range);
        let y = f.eval(&data, &[]);
        prop_assert!(y < range);
        prop_assert_eq!(y, f.eval(&data, &[]));
        let mut tweaked = data.clone();
        tweaked[flip] = tweaked[flip].wrapping_add(1);
        // Outputs may collide (range is small) but the full 64-bit hash
        // must differ — approximate by checking a wide-range instance.
        let wide = RandomFn::new(key, u64::MAX);
        prop_assert_ne!(wide.eval(&data, &[]), wide.eval(&tweaked, &[]));
    }

    /// elect_from_coins is exactly base-2 reconstruction of the toss bits.
    #[test]
    fn elect_from_coins_is_binary_reconstruction(bits in proptest::collection::vec(0u64..2, 1..10)) {
        let out = elect_from_coins(bits.len(), |i| Outcome::Elected(bits[i]));
        let expect: u64 = bits.iter().enumerate().map(|(i, &b)| b << i).sum();
        prop_assert_eq!(out, Outcome::Elected(expect));
    }

    /// Different seeds give independent-looking elections: over a window
    /// of seeds, at least two distinct leaders appear (n >= 2).
    #[test]
    fn elections_vary_with_seed(n in 4usize..24, base in 0u64..1000) {
        let mut leaders = std::collections::HashSet::new();
        for seed in base..base + 12 {
            leaders.insert(
                ALeadUni::new(n).with_seed(seed).run_honest().outcome.elected().unwrap(),
            );
        }
        prop_assert!(leaders.len() >= 2);
    }

    /// The paper's Section 2 remark, for the richest protocol: on a
    /// unidirectional ring every oblivious schedule yields the same
    /// PhaseAsyncLead outcome — validated against LIFO and seeded-random
    /// schedulers driving the same seeded nodes.
    #[test]
    fn phase_async_is_schedule_independent(n in 4usize..20, seed in any::<u64>(), sched_seed in any::<u64>()) {
        use ring_sim::{LifoScheduler, RandomScheduler, SimBuilder, Topology};
        let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(seed ^ 0xabc);
        let reference = p.run_honest().outcome;
        let run_with = |use_lifo: bool| {
            let mut b = SimBuilder::new(Topology::ring(n));
            for id in 0..n {
                b = b.boxed_node(id, p.honest_node(id));
            }
            b = b.wake(0);
            if use_lifo {
                b.scheduler(LifoScheduler::new()).run()
            } else {
                b.scheduler(RandomScheduler::new(sched_seed)).run()
            }
        };
        prop_assert_eq!(run_with(true).outcome, reference);
        prop_assert_eq!(run_with(false).outcome, reference);
    }

    /// SyncLead honest invariants: two rounds, n(n−1) messages, elects
    /// the sum — and a silent processor is always detected.
    #[test]
    fn sync_lead_invariants(n in 2usize..24, seed in any::<u64>(), silent_raw in any::<usize>()) {
        use fle_core::protocols::{SyncLead, SyncWaitAndCancel};
        let expected = honest_data_values(seed, n).iter().sum::<u64>() % n as u64;
        let p = SyncLead::new(n).with_seed(seed);
        let exec = p.run_honest();
        prop_assert_eq!(exec.outcome, Outcome::Elected(expected));
        prop_assert_eq!(exec.messages, (n * (n - 1)) as u64);
        let silent = silent_raw % n;
        let attacked = p.run_with(vec![(silent, Box::new(SyncWaitAndCancel::new(n, 0)))]);
        prop_assert!(attacked.outcome.is_fail());
    }
}
