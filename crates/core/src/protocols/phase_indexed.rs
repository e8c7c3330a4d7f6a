//! `IndexedPhaseLead` — `PhaseAsyncLead` for non-consecutive ids (paper
//! Appendix G).
//!
//! Sections 6/E assume processor `i` sits at ring position `i`, so
//! everyone knows which round it validates. Appendix G removes the
//! assumption with an *indexing phase*: the origin sends a counter `1`;
//! each processor records the value it receives as its index, increments,
//! and forwards. The counter returns to the origin as `n`, which doubles
//! as an integrity check. Thereafter the protocol is exactly
//! `PhaseAsyncLead` with the *learned* index in place of the id: the
//! processor with index `i` validates round `i + 1`, and the appendix's
//! observation is that the resilience proof carries over because segment
//! validator continuity and validate-exactly-once still hold.
//!
//! With honest processors the learned index equals the ring position, so
//! an honest execution elects **the same leader** as `PhaseAsyncLead`
//! with the same seed and function key — which the tests check.

use super::{node_rng, run_ring, FleProtocol};
use crate::randfn::{PhaseParams, RandomFn};
use ring_sim::{Ctx, Execution, Node, NodeId};

/// A message of the indexed phase protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexedMsg {
    /// The indexing counter (pre-phase).
    Index(u64),
    /// A data message (odd positions of each round).
    Data(u64),
    /// A validation message (even positions of each round).
    Val(u64),
}

/// The Appendix G variant of [`crate::protocols::PhaseAsyncLead`].
///
/// # Examples
///
/// ```
/// use fle_core::protocols::{FleProtocol, IndexedPhaseLead, PhaseAsyncLead};
///
/// let indexed = IndexedPhaseLead::new(12).with_seed(5).with_fn_key(9);
/// let plain = PhaseAsyncLead::new(12).with_seed(5).with_fn_key(9);
/// // Same seed, same f: the indexing phase changes nothing observable.
/// assert_eq!(
///     indexed.run_honest().outcome,
///     plain.run_honest().outcome,
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexedPhaseLead {
    params: PhaseParams,
    seed: u64,
    f: RandomFn,
}

impl IndexedPhaseLead {
    /// Creates an instance for a ring of `n` processors (seed 0, `f`
    /// keyed 0).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 4, "IndexedPhaseLead needs n >= 4");
        Self {
            params: PhaseParams::for_ring(n),
            seed: 0,
            f: RandomFn::new(0, n as u64),
        }
    }

    /// Sets the randomness seed for the honest processors' values.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Re-keys the random function `f`.
    pub fn with_fn_key(mut self, key: u64) -> Self {
        self.f = RandomFn::new(key, self.params.n as u64);
        self
    }

    /// The protocol parameters `(n, m, l)`.
    pub fn params(&self) -> PhaseParams {
        self.params
    }

    /// Builds the honest node for ring position `pos`. Only the node's
    /// *randomness* is derived from `pos` (its physical identity); all
    /// protocol decisions use the index learned in the pre-phase.
    pub fn honest_node(&self, pos: NodeId) -> Box<dyn Node<IndexedMsg>> {
        let mut rng = node_rng(self.seed, pos);
        let d = rng.next_below(self.params.n as u64);
        let st = IndexedState {
            params: self.params,
            f: self.f,
            rng,
            d,
            v_own: 0,
            buffer: d,
            index: None,
            round: 0,
            expect_data: true,
            data: vec![0; self.params.n],
            vals: vec![0; self.params.n + 1],
        };
        if pos == 0 {
            Box::new(IndexedOrigin { s: st })
        } else {
            Box::new(IndexedNormal { s: st })
        }
    }

    /// Only the origin wakes spontaneously.
    pub fn wakes(&self) -> Vec<NodeId> {
        vec![0]
    }

    /// Runs with the coalition positions replaced by `overrides`.
    pub fn run_with(&self, overrides: Vec<(NodeId, Box<dyn Node<IndexedMsg>>)>) -> Execution {
        run_ring(
            self.params.n,
            |pos| self.honest_node(pos),
            overrides,
            &self.wakes(),
            None,
        )
    }
}

impl FleProtocol for IndexedPhaseLead {
    fn n(&self) -> usize {
        self.params.n
    }

    fn name(&self) -> &'static str {
        "IndexedPhaseLead"
    }

    fn run_honest(&self) -> Execution {
        self.run_with(Vec::new())
    }
}

struct IndexedState {
    params: PhaseParams,
    f: RandomFn,
    rng: ring_sim::rng::SplitMix64,
    d: u64,
    v_own: u64,
    buffer: u64,
    /// Learned in the indexing phase; `None` until then.
    index: Option<usize>,
    round: usize,
    expect_data: bool,
    data: Vec<u64>,
    vals: Vec<u64>,
}

impl IndexedState {
    fn validator_round(&self) -> usize {
        self.index.expect("index learned before round 1") + 1
    }

    fn output(&self) -> u64 {
        self.f
            .eval(&self.data, &self.vals[1..=self.params.vals_in_f()])
    }
}

/// A normal processor: waits for its index, then runs the PhaseAsyncLead
/// state machine keyed on the learned index.
struct IndexedNormal {
    s: IndexedState,
}

impl Node<IndexedMsg> for IndexedNormal {
    fn on_message(&mut self, _from: NodeId, msg: IndexedMsg, ctx: &mut Ctx<'_, IndexedMsg>) {
        let s = &mut self.s;
        let n = s.params.n;
        match msg {
            IndexedMsg::Index(i) if s.index.is_none() => {
                if i as usize >= n {
                    // A counter that exceeds the known ring size is a
                    // detected deviation.
                    ctx.abort();
                    return;
                }
                s.index = Some(i as usize);
                ctx.send(IndexedMsg::Index(i + 1));
            }
            IndexedMsg::Data(x) if s.index.is_some() && s.expect_data => {
                s.expect_data = false;
                let x = x % n as u64;
                s.round += 1;
                ctx.send(IndexedMsg::Data(s.buffer));
                s.buffer = x;
                let idx = s.index.expect("checked");
                s.data[(idx + n - (s.round % n)) % n] = x;
                if s.round == s.validator_round() {
                    s.v_own = s.rng.next_below(s.params.m);
                    ctx.send(IndexedMsg::Val(s.v_own));
                }
                if s.round == n && x != s.d {
                    ctx.abort();
                }
            }
            IndexedMsg::Val(y) if s.index.is_some() && !s.expect_data => {
                s.expect_data = true;
                let y = y % s.params.m;
                if s.round == s.validator_round() {
                    if y != s.v_own {
                        ctx.abort();
                        return;
                    }
                    s.vals[s.round] = s.v_own;
                } else {
                    s.vals[s.round] = y;
                    ctx.send(IndexedMsg::Val(y));
                }
                if s.round == n {
                    ctx.terminate(Some(s.output()));
                }
            }
            _ => ctx.abort(),
        }
    }
}

/// The origin: index 0 by fiat; launches the counter, then the protocol,
/// and absorbs the counter's return (validating that it equals `n`).
struct IndexedOrigin {
    s: IndexedState,
    // Set once the counter came back as n.
}

impl Node<IndexedMsg> for IndexedOrigin {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, IndexedMsg>) {
        let s = &mut self.s;
        s.index = Some(0);
        ctx.send(IndexedMsg::Index(1));
        s.data[0] = s.d;
        s.round = 1;
        ctx.send(IndexedMsg::Data(s.d));
        s.v_own = s.rng.next_below(s.params.m);
        ctx.send(IndexedMsg::Val(s.v_own));
    }

    fn on_message(&mut self, _from: NodeId, msg: IndexedMsg, ctx: &mut Ctx<'_, IndexedMsg>) {
        let s = &mut self.s;
        let n = s.params.n;
        match msg {
            IndexedMsg::Index(i) => {
                // The counter returning; anything but n is a deviation.
                if i as usize != n {
                    ctx.abort();
                }
            }
            IndexedMsg::Data(x) if s.expect_data => {
                s.expect_data = false;
                let x = x % n as u64;
                s.data[(n - (s.round % n)) % n] = x;
                s.buffer = x;
                if s.round == n && x != s.d {
                    ctx.abort();
                }
            }
            IndexedMsg::Val(y) if !s.expect_data => {
                s.expect_data = true;
                let y = y % s.params.m;
                if s.round == 1 {
                    if y != s.v_own {
                        ctx.abort();
                        return;
                    }
                    s.vals[1] = s.v_own;
                } else {
                    s.vals[s.round] = y;
                    ctx.send(IndexedMsg::Val(y));
                }
                if s.round == n {
                    ctx.terminate(Some(s.output()));
                } else {
                    ctx.send(IndexedMsg::Data(s.buffer));
                    s.round += 1;
                }
            }
            _ => ctx.abort(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::PhaseAsyncLead;
    use ring_sim::Outcome;

    #[test]
    fn matches_phase_async_lead_on_every_seed() {
        for n in [4, 9, 16, 25] {
            for seed in 0..6 {
                let indexed = IndexedPhaseLead::new(n).with_seed(seed).with_fn_key(3);
                let plain = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(3);
                assert_eq!(
                    indexed.run_honest().outcome,
                    plain.run_honest().outcome,
                    "n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn message_complexity_is_2n_plus_1_per_processor() {
        let n = 12u64;
        let exec = IndexedPhaseLead::new(n as usize).with_seed(2).run_honest();
        assert!(matches!(exec.outcome, Outcome::Elected(_)));
        // 2n protocol messages plus one indexing message each.
        assert!(exec.stats.sent.iter().all(|&s| s == 2 * n + 1));
    }

    #[test]
    fn corrupted_counter_is_detected() {
        struct CounterCheat;
        impl Node<IndexedMsg> for CounterCheat {
            fn on_message(
                &mut self,
                _from: NodeId,
                msg: IndexedMsg,
                ctx: &mut Ctx<'_, IndexedMsg>,
            ) {
                match msg {
                    // Skip an index: claim our successor's slot.
                    IndexedMsg::Index(i) => ctx.send(IndexedMsg::Index(i + 2)),
                    other => ctx.send(other),
                }
            }
        }
        let p = IndexedPhaseLead::new(10).with_seed(1).with_fn_key(1);
        let exec = p.run_with(vec![(4, Box::new(CounterCheat))]);
        assert!(exec.outcome.is_fail(), "{:?}", exec.outcome);
    }

    #[test]
    fn oversized_counter_aborts_immediately() {
        struct BigCounter;
        impl Node<IndexedMsg> for BigCounter {
            fn on_message(
                &mut self,
                _from: NodeId,
                msg: IndexedMsg,
                ctx: &mut Ctx<'_, IndexedMsg>,
            ) {
                match msg {
                    IndexedMsg::Index(_) => ctx.send(IndexedMsg::Index(999)),
                    other => ctx.send(other),
                }
            }
        }
        let p = IndexedPhaseLead::new(8).with_seed(0).with_fn_key(0);
        let exec = p.run_with(vec![(3, Box::new(BigCounter))]);
        assert!(exec.outcome.is_fail());
    }
}
