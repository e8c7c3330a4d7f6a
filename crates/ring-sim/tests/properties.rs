//! Property-based tests for the simulator substrate.

use proptest::prelude::*;
use ring_sim::rng::SplitMix64;
use ring_sim::{
    Ctx, EnumerativeScheduler, FifoScheduler, FnNode, LifoScheduler, NodeId, Outcome,
    RandomScheduler, Scheduler, SimBuilder, Token, Topology,
};

/// Sorted multiset of tokens for conservation comparisons.
fn sorted(mut tokens: Vec<Token>) -> Vec<Token> {
    tokens.sort_unstable_by_key(|t| match *t {
        Token::Wake(i) => (0, i),
        Token::Deliver(e) => (1, e),
    });
    tokens
}

/// Drives `s` through an arbitrary interleaved push/pop sequence
/// (`ops[i] = Some(token)` pushes, `None` pops), then drains it, and
/// checks the [`Scheduler`] contract: every pop returns a token whose
/// push is still outstanding (nothing invented, nothing duplicated),
/// `len` tracks the pending count, and draining eventually pops every
/// pushed token (eventual delivery).
fn check_scheduler_contract(mut s: Box<dyn Scheduler>, ops: &[Option<Token>]) {
    let mut outstanding: Vec<Token> = Vec::new();
    let mut popped: Vec<Token> = Vec::new();
    for op in ops {
        match op {
            Some(token) => {
                s.push(*token);
                outstanding.push(*token);
            }
            None => {
                let before = s.len();
                match s.pop() {
                    Some(t) => {
                        let at = outstanding
                            .iter()
                            .position(|&o| o == t)
                            .expect("scheduler invented or duplicated a token");
                        outstanding.swap_remove(at);
                        popped.push(t);
                        assert_eq!(s.len(), before - 1);
                    }
                    None => assert!(outstanding.is_empty(), "pop refused a pending token"),
                }
            }
        }
        assert_eq!(s.len(), outstanding.len());
        assert_eq!(s.is_empty(), outstanding.is_empty());
    }
    while let Some(t) = s.pop() {
        let at = outstanding
            .iter()
            .position(|&o| o == t)
            .expect("drain invented or duplicated a token");
        outstanding.swap_remove(at);
        popped.push(t);
    }
    assert!(
        outstanding.is_empty(),
        "tokens never delivered: {outstanding:?}"
    );
    let pushed: Vec<Token> = ops.iter().flatten().copied().collect();
    assert_eq!(sorted(popped), sorted(pushed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `next_below` is always in range and deterministic per seed.
    #[test]
    fn rng_next_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..10 {
            let x = a.next_below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.next_below(bound));
        }
    }

    /// Derived streams never collide with the parent stream prefix.
    #[test]
    fn rng_derive_separates_streams(seed in any::<u64>(), salt in 0u64..1000) {
        let parent = SplitMix64::new(seed);
        let mut c1 = parent.derive(salt);
        let mut c2 = parent.derive(salt.wrapping_add(1));
        prop_assert_ne!(c1.next_u64(), c2.next_u64());
    }

    /// Every scheduler returns exactly the multiset of pushed tokens.
    #[test]
    fn schedulers_conserve_tokens(edges in proptest::collection::vec(0usize..50, 1..80), seed in any::<u64>()) {
        let run = |mut s: Box<dyn Scheduler>| {
            for &e in &edges {
                s.push(Token::Deliver(e));
            }
            let mut out = Vec::new();
            while let Some(Token::Deliver(e)) = s.pop() {
                out.push(e);
            }
            out.sort_unstable();
            out
        };
        let mut expect = edges.clone();
        expect.sort_unstable();
        prop_assert_eq!(run(Box::new(FifoScheduler::new())), expect.clone());
        prop_assert_eq!(run(Box::new(LifoScheduler::new())), expect.clone());
        prop_assert_eq!(run(Box::new(RandomScheduler::new(seed))), expect.clone());
        prop_assert_eq!(run(Box::new(EnumerativeScheduler::new())), expect);
    }

    /// For ANY interleaved push/pop sequence, every scheduler — FIFO,
    /// LIFO, seeded-random and the enumerative model checker — eventually
    /// pops each pushed token exactly once and never invents one.
    #[test]
    fn schedulers_honor_contract_under_interleaved_ops(
        raw_ops in proptest::collection::vec(0u64..100, 0..120),
        seed in any::<u64>(),
    ) {
        // Encode each draw as one op: 40% pops, 60% pushes of a wake or
        // deliver token with a small id space (so duplicates are common).
        let ops: Vec<Option<Token>> = raw_ops
            .into_iter()
            .map(|v| match v % 5 {
                0 | 1 => None,
                2 => Some(Token::Wake((v / 5 % 10) as usize)),
                _ => Some(Token::Deliver((v / 5 % 10) as usize)),
            })
            .collect();
        check_scheduler_contract(Box::new(FifoScheduler::new()), &ops);
        check_scheduler_contract(Box::new(LifoScheduler::new()), &ops);
        check_scheduler_contract(Box::new(RandomScheduler::new(seed)), &ops);
        check_scheduler_contract(Box::new(EnumerativeScheduler::new()), &ops);
    }

    /// On a unidirectional ring every oblivious schedule produces the same
    /// outcome (the paper's Section 2 observation).
    #[test]
    fn ring_outcomes_are_schedule_independent(n in 3usize..12, laps in 1u64..4, seed in any::<u64>()) {
        let target = laps * n as u64;
        let build = || {
            let mut b: SimBuilder<'_, u64> = SimBuilder::new(Topology::ring(n));
            for i in 0..n {
                let node = FnNode::new(move |_f: NodeId, m: u64, ctx: &mut Ctx<'_, u64>| {
                    if m >= target {
                        if m < target + n as u64 - 1 {
                            ctx.send(m + 1);
                        }
                        ctx.terminate(Some(target));
                    } else {
                        ctx.send(m + 1);
                    }
                });
                if i == 0 {
                    b = b.node(0, FnNode::new(move |_f: NodeId, m: u64, ctx: &mut Ctx<'_, u64>| {
                        if m >= target {
                            if m < target + n as u64 - 1 {
                                ctx.send(m + 1);
                            }
                            ctx.terminate(Some(target));
                        } else {
                            ctx.send(m + 1);
                        }
                    }).on_wake(|ctx| ctx.send(1)));
                } else {
                    b = b.node(i, node);
                }
            }
            b.wake(0)
        };
        let fifo = build().scheduler(FifoScheduler::new()).run();
        let lifo = build().scheduler(LifoScheduler::new()).run();
        let rand = build().scheduler(RandomScheduler::new(seed)).run();
        prop_assert_eq!(fifo.outcome, Outcome::Elected(target));
        prop_assert_eq!(lifo.outcome, fifo.outcome);
        prop_assert_eq!(rand.outcome, fifo.outcome);
    }

    /// Message conservation: everything sent is eventually delivered (no
    /// deadlock scenarios here because every node replies until target).
    #[test]
    fn sends_equal_deliveries(n in 2usize..8) {
        let mut b: SimBuilder<'_, u64> = SimBuilder::new(Topology::ring(n));
        for i in 0..n {
            b = b.node(
                i,
                FnNode::new(move |_f: NodeId, m: u64, ctx: &mut Ctx<'_, u64>| {
                    if m == 0 {
                        ctx.terminate(Some(1));
                    } else {
                        ctx.send(m - 1);
                        ctx.terminate(Some(1));
                    }
                })
                .on_wake(move |ctx| {
                    ctx.send(3);
                }),
            );
        }
        let exec = b.wake_all().run();
        prop_assert_eq!(exec.stats.total_sent(), exec.stats.delivered);
    }
}
