//! `PhaseAsyncLead` and `PhaseSumLead` — the paper's phase-validated
//! protocols (Section 6, Appendix E.3, Appendix E.4).
//!
//! The execution proceeds in `n` logical rounds. In round `r` each
//! processor first receives one **data** message (the `A-LEADuni`
//! buffered secret-sharing, so processor `p` learns `d_{p−r mod n}`) and
//! then one **validation** message. Round `r`'s validation value `v_r` is
//! drawn and emitted by the round's *validator* — 0-indexed processor
//! `r − 1` — right after its round-`r` data send; every other processor
//! forwards it without delay, and the validator finally absorbs its own
//! value after a full circle and aborts unless it returns intact. The
//! origin launches round `r + 1`'s data wave only after forwarding `v_r`,
//! which keeps all processors `O(k)`-synchronized — the property that
//! defeats the cubic attack.
//!
//! * [`PhaseAsyncLead`] elects `f(d̂_1..d̂_n, v̂_1..v̂_{n−l})` for the fixed
//!   random function `f` ([`crate::RandomFn`]) with `l = ⌈10√n⌉`,
//!   `m = 2n²`.
//! * [`PhaseSumLead`] is the Appendix E.4 ablation: identical mechanics
//!   but elects `Σ d̂_i (mod n)`. Four adversaries defeat it by smuggling
//!   partial sums through the validation channel — the experiment that
//!   motivates the random function.
//!
//! The paper's appendix pseudo-code has two known artifacts (the origin
//! terminating before forwarding `v_n`, and an extra data send after the
//! main loop); as in `A-LEADuni` we resolve them in favour of the counting
//! used by the proofs: every processor sends exactly `n` data plus `n`
//! validation messages and receives the same.

use super::{fold_mod, node_rng, run_ring, wrap_sub_usize, FleProtocol, RingProtocol, Wakes};
use crate::randfn::{PhaseParams, RandomFn};
use ring_sim::{ArenaBacked, Ctx, Execution, Node, NodeId, Probe, TrialArena};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of [`PhaseAsyncLead::new`] calls — instrumentation
/// for the harness's instance-hoisting contract (a sweep worker must build
/// the protocol instance once per `(protocol, n, fn_key)` config, not once
/// per trial). See [`phase_async_builds`].
static PHASE_ASYNC_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Returns the process-wide number of [`PhaseAsyncLead::new`] calls so
/// far. Tests diff this counter around a sweep to assert the
/// seed-independent protocol state is hoisted out of the per-trial loop.
pub fn phase_async_builds() -> u64 {
    PHASE_ASYNC_BUILDS.load(Ordering::Relaxed)
}

/// A message of the phase protocols: strictly alternating data /
/// validation. An honest processor aborts on a parity violation, which is
/// what blocks burst-style rushing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseMsg {
    /// A data message carrying a (claimed) secret value in `[0, n)`.
    Data(u64),
    /// A validation message carrying a value in `[0, m)`.
    Val(u64),
}

/// How the terminal output is computed from the collected values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputRule {
    /// `f(d̂, v̂_1..v̂_{n−l})` — `PhaseAsyncLead`.
    Random(RandomFn),
    /// `Σ d̂ (mod n)` — `PhaseSumLead`.
    Sum,
}

/// The paper's `PhaseAsyncLead` protocol instance.
///
/// # Examples
///
/// ```
/// use fle_core::protocols::{FleProtocol, PhaseAsyncLead};
///
/// let p = PhaseAsyncLead::new(16).with_seed(3).with_fn_key(9);
/// let exec = p.run_honest();
/// assert!(exec.outcome.elected().unwrap() < 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAsyncLead {
    params: PhaseParams,
    seed: u64,
    f: RandomFn,
}

impl PhaseAsyncLead {
    /// Creates an instance for a ring of `n` processors with seed 0 and
    /// the random function keyed 0.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (the phase mechanics need at least a few
    /// processors between origin and final validator).
    pub fn new(n: usize) -> Self {
        assert!(n >= 4, "PhaseAsyncLead needs n >= 4");
        PHASE_ASYNC_BUILDS.fetch_add(1, Ordering::Relaxed);
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

    /// Re-keys the random function `f` (the experiments' analogue of
    /// "randomizing `f`").
    pub fn with_fn_key(mut self, key: u64) -> Self {
        self.f = RandomFn::new(key, self.params.n as u64);
        self
    }

    /// **Ablation knob**: overrides the validation-value range `m`
    /// (paper default `2n²`). The resilience analysis needs a validator's
    /// value to be unguessable (`1/m ≤ 1/(2n²)` per guess); shrinking `m`
    /// makes the guessing probability measurable — see the `ablate`
    /// experiment.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn with_validation_range(mut self, m: u64) -> Self {
        assert!(m >= 1, "validation range must be positive");
        self.params.m = m;
        self
    }

    /// The protocol parameters `(n, m, l)`.
    pub fn params(&self) -> PhaseParams {
        self.params
    }

    /// The instance seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The random function shared by all processors of this instance.
    pub fn random_fn(&self) -> RandomFn {
        self.f
    }

    /// Builds the honest node for position `id` as a boxed trait object
    /// (for heterogeneous protocol/attack mixes).
    pub fn honest_node(&self, id: NodeId) -> Box<dyn Node<PhaseMsg>> {
        Box::new(self.honest_ring_node(id))
    }

    /// Builds the honest node for position `id` as the concrete
    /// [`PhaseNode`] enum — the monomorphized form the batch fast path
    /// stores in a plain `Vec` (origin/normal dispatch is a branch, not a
    /// vtable).
    pub fn honest_ring_node(&self, id: NodeId) -> PhaseNode {
        make_honest_node(self.params, self.seed, OutputRule::Random(self.f), id)
    }

    /// [`PhaseAsyncLead::honest_ring_node`] with the node's packed
    /// `data ‖ vals` store drawn from `arena` instead of the heap — the
    /// batch path that makes whole trials allocation-free. The built node
    /// is bit-identical in behaviour; reclaim its store with
    /// [`ArenaBacked::reclaim`] after the trial.
    pub fn honest_ring_node_in(&self, id: NodeId, arena: &mut TrialArena) -> PhaseNode {
        make_honest_node_with_store(
            self.params,
            self.seed,
            OutputRule::Random(self.f),
            id,
            arena.alloc_u64s(2 * self.params.n + 1),
        )
    }

    /// Only the origin wakes spontaneously.
    pub fn wakes(&self) -> Vec<NodeId> {
        vec![0]
    }

    /// Runs with the coalition positions replaced by `overrides`.
    pub fn run_with(&self, overrides: Vec<(NodeId, Box<dyn Node<PhaseMsg>>)>) -> Execution {
        run_ring(
            self.params.n,
            |id| self.honest_node(id),
            overrides,
            &self.wakes(),
            None,
        )
    }

    /// [`PhaseAsyncLead::run_with`] plus an instrumentation probe.
    pub fn run_with_probe(
        &self,
        overrides: Vec<(NodeId, Box<dyn Node<PhaseMsg>>)>,
        probe: &mut dyn Probe<PhaseMsg>,
    ) -> Execution {
        run_ring(
            self.params.n,
            |id| self.honest_node(id),
            overrides,
            &self.wakes(),
            Some(probe),
        )
    }
}

impl RingProtocol for PhaseAsyncLead {
    type Msg = PhaseMsg;
    type Node = PhaseNode;
    const WAKES: Wakes = Wakes::Origin;

    fn seeded(&self, seed: u64) -> Self {
        self.with_seed(seed)
    }

    fn honest_ring_node_in(&self, id: NodeId, arena: &mut TrialArena) -> PhaseNode {
        PhaseAsyncLead::honest_ring_node_in(self, id, arena)
    }
}

impl FleProtocol for PhaseAsyncLead {
    fn n(&self) -> usize {
        self.params.n
    }

    fn name(&self) -> &'static str {
        "PhaseAsyncLead"
    }

    fn run_honest(&self) -> Execution {
        self.run_with(Vec::new())
    }
}

/// The Appendix E.4 ablation: phase validation with the `sum` output rule.
///
/// # Examples
///
/// ```
/// use fle_core::protocols::{FleProtocol, PhaseSumLead};
///
/// let exec = PhaseSumLead::new(12).with_seed(1).run_honest();
/// assert!(exec.outcome.elected().unwrap() < 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSumLead {
    params: PhaseParams,
    seed: u64,
}

impl PhaseSumLead {
    /// Creates an instance for a ring of `n` processors (seed 0).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 4, "PhaseSumLead needs n >= 4");
        Self {
            params: PhaseParams::for_ring(n),
            seed: 0,
        }
    }

    /// Sets the randomness seed for the honest processors' values.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The protocol parameters `(n, m, l)`.
    pub fn params(&self) -> PhaseParams {
        self.params
    }

    /// The instance seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the honest node for position `id` as a boxed trait object
    /// (for heterogeneous protocol/attack mixes).
    pub fn honest_node(&self, id: NodeId) -> Box<dyn Node<PhaseMsg>> {
        Box::new(self.honest_ring_node(id))
    }

    /// Builds the honest node for position `id` as the concrete
    /// [`PhaseNode`] enum (see [`PhaseAsyncLead::honest_ring_node`]).
    pub fn honest_ring_node(&self, id: NodeId) -> PhaseNode {
        make_honest_node(self.params, self.seed, OutputRule::Sum, id)
    }

    /// [`PhaseSumLead::honest_ring_node`] with the node's store drawn from
    /// `arena` (see [`PhaseAsyncLead::honest_ring_node_in`]).
    pub fn honest_ring_node_in(&self, id: NodeId, arena: &mut TrialArena) -> PhaseNode {
        make_honest_node_with_store(
            self.params,
            self.seed,
            OutputRule::Sum,
            id,
            arena.alloc_u64s(2 * self.params.n + 1),
        )
    }

    /// Only the origin wakes spontaneously.
    pub fn wakes(&self) -> Vec<NodeId> {
        vec![0]
    }

    /// Runs with the coalition positions replaced by `overrides`.
    pub fn run_with(&self, overrides: Vec<(NodeId, Box<dyn Node<PhaseMsg>>)>) -> Execution {
        run_ring(
            self.params.n,
            |id| self.honest_node(id),
            overrides,
            &self.wakes(),
            None,
        )
    }
}

impl RingProtocol for PhaseSumLead {
    type Msg = PhaseMsg;
    type Node = PhaseNode;
    const WAKES: Wakes = Wakes::Origin;

    fn seeded(&self, seed: u64) -> Self {
        self.with_seed(seed)
    }

    fn honest_ring_node_in(&self, id: NodeId, arena: &mut TrialArena) -> PhaseNode {
        PhaseSumLead::honest_ring_node_in(self, id, arena)
    }
}

impl FleProtocol for PhaseSumLead {
    fn n(&self) -> usize {
        self.params.n
    }

    fn name(&self) -> &'static str {
        "PhaseSumLead"
    }

    fn run_honest(&self) -> Execution {
        self.run_with(Vec::new())
    }
}

fn make_honest_node(params: PhaseParams, seed: u64, rule: OutputRule, id: NodeId) -> PhaseNode {
    let store = vec![0; 2 * params.n + 1];
    make_honest_node_with_store(params, seed, rule, id, store)
}

/// [`make_honest_node`] over a caller-provided (typically arena-drawn)
/// store. `store` must be `2n + 1` zeros — exactly what
/// [`TrialArena::alloc_u64s`] hands out.
fn make_honest_node_with_store(
    params: PhaseParams,
    seed: u64,
    rule: OutputRule,
    id: NodeId,
    store: Vec<u64>,
) -> PhaseNode {
    debug_assert_eq!(store.len(), 2 * params.n + 1);
    debug_assert!(store.iter().all(|&x| x == 0));
    let mut rng = node_rng(seed, id);
    let d = rng.next_below(params.n as u64);
    let common = PhaseState {
        params,
        id,
        rule,
        d,
        v_own: 0,
        buffer: d,
        round: 0,
        expect_data: true,
        store,
        rng,
    };
    if id == 0 {
        PhaseNode::Origin(PhaseOrigin { s: common })
    } else {
        PhaseNode::Normal(PhaseNormal { s: common })
    }
}

/// An honest phase processor as a concrete type: the pacing origin or a
/// normal processor. Shared by [`PhaseAsyncLead`] and [`PhaseSumLead`]
/// (which differ only in the output rule carried inside).
///
/// Built by [`PhaseAsyncLead::honest_ring_node`] /
/// [`PhaseSumLead::honest_ring_node`]; honest sweeps store a
/// `Vec<PhaseNode>`, so the engine's activation dispatch is a two-way
/// branch instead of a `Box<dyn Node>` vtable call.
pub enum PhaseNode {
    /// The spontaneously-waking origin (processor 0) that paces rounds.
    Origin(PhaseOrigin),
    /// A normal processor (`id ≥ 1`).
    Normal(PhaseNormal),
}

impl Node<PhaseMsg> for PhaseNode {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, PhaseMsg>) {
        match self {
            PhaseNode::Origin(o) => o.on_wake(ctx),
            PhaseNode::Normal(p) => p.on_wake(ctx),
        }
    }

    #[inline]
    fn on_message(&mut self, from: NodeId, msg: PhaseMsg, ctx: &mut Ctx<'_, PhaseMsg>) {
        match self {
            PhaseNode::Origin(o) => o.on_message(from, msg, ctx),
            PhaseNode::Normal(p) => p.on_message(from, msg, ctx),
        }
    }
}

impl ArenaBacked for PhaseNode {
    fn reclaim(&mut self, arena: &mut TrialArena) {
        let s = match self {
            PhaseNode::Origin(o) => &mut o.s,
            PhaseNode::Normal(p) => &mut p.s,
        };
        arena.reclaim_u64s(std::mem::take(&mut s.store));
    }
}

/// State shared by origin and normal phase processors.
struct PhaseState {
    params: PhaseParams,
    id: NodeId,
    rule: OutputRule,
    d: u64,
    v_own: u64,
    buffer: u64,
    /// Completed data rounds (1-based round currently being processed).
    round: usize,
    expect_data: bool,
    /// The `n` collected data values `d̂` followed by the `n + 1` (1-based)
    /// validation values `v̂`, packed into one allocation so building a
    /// node costs a single heap allocation instead of two.
    store: Vec<u64>,
    rng: ring_sim::rng::SplitMix64,
}

impl PhaseState {
    /// The round this processor validates: 0-indexed processor `p`
    /// validates round `p + 1` (the paper's 1-indexed "processor `i`
    /// validates round `i`").
    fn validator_round(&self) -> usize {
        self.id + 1
    }

    /// Records the collected data value of processor `i`.
    #[inline]
    fn set_data(&mut self, i: usize, x: u64) {
        self.store[i] = x;
    }

    /// Records round `r`'s validation value.
    #[inline]
    fn set_val(&mut self, r: usize, y: u64) {
        self.store[self.params.n + r] = y;
    }

    fn output(&self) -> u64 {
        let (data, vals) = self.store.split_at(self.params.n);
        match self.rule {
            OutputRule::Random(f) => f.eval(data, &vals[1..=self.params.vals_in_f()]),
            OutputRule::Sum => data.iter().sum::<u64>() % self.params.n as u64,
        }
    }
}

/// A normal phase processor (`id >= 1`).
pub struct PhaseNormal {
    s: PhaseState,
}

impl Node<PhaseMsg> for PhaseNormal {
    fn on_message(&mut self, _from: NodeId, msg: PhaseMsg, ctx: &mut Ctx<'_, PhaseMsg>) {
        let s = &mut self.s;
        let n = s.params.n;
        match msg {
            PhaseMsg::Data(x) if s.expect_data => {
                s.expect_data = false;
                let x = fold_mod(x, n as u64);
                s.round += 1;
                // Buffered secret sharing, exactly as in A-LEADuni.
                ctx.send(PhaseMsg::Data(s.buffer));
                s.buffer = x;
                // Round r delivers the data value of processor id − r (mod n).
                // `round ∈ 1..=n` and `id < n`, so both reductions are
                // single conditional subtracts, not divisions.
                let r = if s.round < n { s.round } else { s.round % n };
                s.set_data(wrap_sub_usize(s.id + n - r, n), x);
                if s.round == s.validator_round() {
                    s.v_own = s.rng.next_below(s.params.m);
                    ctx.send(PhaseMsg::Val(s.v_own));
                }
                if s.round == n && x != s.d {
                    // The value that came full circle is not our secret.
                    ctx.abort();
                }
            }
            PhaseMsg::Val(y) if !s.expect_data => {
                s.expect_data = true;
                let y = fold_mod(y, s.params.m);
                if s.round == s.validator_round() {
                    if y != s.v_own {
                        // Phase validation failed: someone desynchronized
                        // the ring or guessed our value wrong.
                        ctx.abort();
                        return;
                    }
                    s.set_val(s.round, s.v_own); // absorb; do not forward
                } else {
                    s.set_val(s.round, y);
                    ctx.send(PhaseMsg::Val(y));
                }
                if s.round == n {
                    ctx.terminate(Some(s.output()));
                }
            }
            // Parity violation: a data message where a validation message
            // was due, or vice versa.
            _ => ctx.abort(),
        }
    }
}

/// The origin (`id == 0`): wakes spontaneously, emits `Data(d_0)` and
/// `Val(v_1)`, and thereafter launches round `r + 1`'s data wave only
/// after forwarding round `r`'s validation value — the pacing that keeps
/// the ring synchronized.
pub struct PhaseOrigin {
    s: PhaseState,
}

impl Node<PhaseMsg> for PhaseOrigin {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, PhaseMsg>) {
        let s = &mut self.s;
        s.set_data(0, s.d);
        s.round = 1;
        ctx.send(PhaseMsg::Data(s.d));
        s.v_own = s.rng.next_below(s.params.m);
        ctx.send(PhaseMsg::Val(s.v_own));
    }

    fn on_message(&mut self, _from: NodeId, msg: PhaseMsg, ctx: &mut Ctx<'_, PhaseMsg>) {
        let s = &mut self.s;
        let n = s.params.n;
        match msg {
            PhaseMsg::Data(x) if s.expect_data => {
                s.expect_data = false;
                let x = fold_mod(x, n as u64);
                // Round r delivers the data value of processor n − r (mod n)
                // (`round ∈ 1..=n`, so these are conditional subtracts).
                let r = if s.round < n { s.round } else { s.round % n };
                s.set_data(wrap_sub_usize(n - r, n), x);
                s.buffer = x;
                if s.round == n && x != s.d {
                    ctx.abort();
                }
            }
            PhaseMsg::Val(y) if !s.expect_data => {
                s.expect_data = true;
                let y = fold_mod(y, s.params.m);
                if s.round == 1 {
                    if y != s.v_own {
                        ctx.abort();
                        return;
                    }
                    s.set_val(1, s.v_own); // absorb own validation value
                } else {
                    s.set_val(s.round, y);
                    ctx.send(PhaseMsg::Val(y));
                }
                if s.round == n {
                    ctx.terminate(Some(s.output()));
                } else {
                    // Launch the next round's data wave.
                    ctx.send(PhaseMsg::Data(s.buffer));
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
    use crate::protocols::honest_data_values;
    use ring_sim::Outcome;

    #[test]
    fn phase_sum_elects_sum_of_values() {
        for n in [4, 5, 9, 24] {
            for seed in 0..4 {
                let p = PhaseSumLead::new(n).with_seed(seed);
                let expected = honest_data_values(seed, n).iter().sum::<u64>() % n as u64;
                assert_eq!(
                    p.run_honest().outcome,
                    Outcome::Elected(expected),
                    "n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn phase_async_honest_runs_succeed() {
        for n in [4, 7, 16, 33] {
            for seed in 0..4 {
                let p = PhaseAsyncLead::new(n)
                    .with_seed(seed)
                    .with_fn_key(seed + 99);
                let out = p.run_honest().outcome;
                let leader = out
                    .elected()
                    .unwrap_or_else(|| panic!("honest run failed: n={n} seed={seed} out={out:?}"));
                assert!(leader < n as u64);
            }
        }
    }

    #[test]
    fn message_complexity_is_2n_per_processor() {
        let n = 10u64;
        let exec = PhaseAsyncLead::new(n as usize).with_seed(5).run_honest();
        assert_eq!(exec.stats.total_sent(), 2 * n * n);
        assert!(exec.stats.sent.iter().all(|&s| s == 2 * n));
        assert!(exec.stats.received.iter().all(|&r| r == 2 * n));
    }

    #[test]
    fn all_processors_agree_on_f_output() {
        let p = PhaseAsyncLead::new(9).with_seed(2).with_fn_key(5);
        let exec = p.run_honest();
        let outs: Vec<u64> = exec
            .outputs
            .iter()
            .map(|o| o.expect("terminated").expect("no abort"))
            .collect();
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn different_fn_keys_give_different_functions() {
        // With the same secrets, different keys of f should usually elect
        // different leaders — the "randomizing f" degree of freedom.
        let n = 16;
        let mut distinct = std::collections::HashSet::new();
        for key in 0..32 {
            let p = PhaseAsyncLead::new(n).with_seed(7).with_fn_key(key);
            distinct.insert(p.run_honest().outcome.elected().unwrap());
        }
        assert!(
            distinct.len() > 4,
            "only {} distinct leaders",
            distinct.len()
        );
    }

    #[test]
    fn phase_async_outcome_uniform_over_seeds() {
        let n = 8usize;
        let trials = 3000;
        let mut counts = vec![0u32; n];
        for seed in 0..trials {
            let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(1234);
            counts[p.run_honest().outcome.elected().expect("success") as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expect).abs() < expect * 0.25,
                "counts={counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "n >= 4")]
    fn tiny_ring_rejected() {
        let _ = PhaseAsyncLead::new(3);
    }
}
