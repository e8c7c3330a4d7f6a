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

use super::batch::PhaseSnapshot;
use super::lanes::{one_and_k_lanes, Effects, LaneMsg, Reg};
use super::{fold_mod, node_rng, wrap_sub_usize, FleProtocol, RingProtocol, Wakes};
use crate::randfn::{PhaseParams, RandomFn};
use ring_sim::{ArenaBacked, Execution, NodeId, TrialArena};
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

/// How a one-lane phase node computes its output from the collected
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputRule {
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

    /// Builds the honest node for position `id` as the concrete
    /// [`PhaseNode`] — the monomorphized form honest sweeps store in a
    /// plain `Vec` (origin/normal dispatch is a branch, not a vtable) —
    /// with its packed `data ‖ vals` store drawn from `arena`, so whole
    /// trials are allocation-free. Reclaim the store with
    /// [`ArenaBacked::reclaim`] after the trial.
    pub fn honest_ring_node_in(&self, id: NodeId, arena: &mut TrialArena) -> PhaseNode {
        let rule = OutputRule::Random(self.f);
        make_honest_node(self.params, self.seed, rule, id, arena)
    }

    /// Only the origin wakes spontaneously.
    pub fn wakes(&self) -> Vec<NodeId> {
        Self::WAKES.ids(self.params.n)
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

    /// Builds the honest node for position `id` as the concrete
    /// [`PhaseNode`], its store drawn from `arena` (see
    /// [`PhaseAsyncLead::honest_ring_node_in`]).
    pub fn honest_ring_node_in(&self, id: NodeId, arena: &mut TrialArena) -> PhaseNode {
        make_honest_node(self.params, self.seed, OutputRule::Sum, id, arena)
    }

    /// Only the origin wakes spontaneously.
    pub fn wakes(&self) -> Vec<NodeId> {
        Self::WAKES.ids(self.params.n)
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

/// Builds position `id`'s one-lane node of an instance seeded `seed`
/// around a `2n`-slot store drawn from `arena`.
fn make_honest_node(
    params: PhaseParams,
    seed: u64,
    rule: OutputRule,
    id: NodeId,
    arena: &mut TrialArena,
) -> PhaseNode {
    let mut node = PhaseNode::new(params, arena.alloc_u64s(2 * params.n), rule);
    node.fill(id, params, &[seed]);
    node
}

/// Message tag of the data wave ([`PhaseMsg::Data`]).
const DATA: u8 = 0;
/// Message tag of the validation wave ([`PhaseMsg::Val`]).
const VAL: u8 = 1;

impl LaneMsg for PhaseMsg {
    #[inline(always)]
    fn split(self) -> (u8, u64) {
        match self {
            PhaseMsg::Data(x) => (DATA, x),
            PhaseMsg::Val(y) => (VAL, y),
        }
    }

    #[inline(always)]
    fn join(tag: u8, x: u64) -> Self {
        if tag == DATA {
            PhaseMsg::Data(x)
        } else {
            PhaseMsg::Val(x)
        }
    }
}

/// How a phase node turns its collected tables into its output.
pub trait PhaseOutput {
    /// Terminates the node in every lane with the leader its tables
    /// elect: `data` holds the `n` collected data values and `vals` the
    /// validation values `f` reads, slot-major over the lanes.
    fn finish(&self, n: usize, data: &[u64], vals: &[u64], fx: &mut impl Effects);
}

/// A one-lane node evaluates its rule on its own tables.
impl PhaseOutput for OutputRule {
    fn finish(&self, n: usize, data: &[u64], vals: &[u64], fx: &mut impl Effects) {
        fx.terminate(|out| {
            out[0] = match self {
                OutputRule::Random(f) => f.eval(data, vals),
                OutputRule::Sum => data.iter().sum::<u64>() % n as u64,
            }
        });
    }
}

/// An honest phase processor: the pacing origin (`id == 0`) or a normal
/// processor. Shared by [`PhaseAsyncLead`] and [`PhaseSumLead`], which
/// differ only in the output rule `O`.
///
/// `PhaseNode` is the one-lane node the scalar engine runs, built by
/// [`PhaseAsyncLead::honest_ring_node_in`] /
/// [`PhaseSumLead::honest_ring_node_in`];
/// honest sweeps store a `Vec<PhaseNode>`, so the engine's activation
/// dispatch is static. The lockstep lanes run the same transition as
/// `PhaseNode<Vec<u64>, _>`, whose output rule is the group's shared
/// snapshot.
pub struct PhaseNode<R = [u64; 1], O = OutputRule> {
    id: NodeId,
    params: PhaseParams,
    /// Completed data rounds (1-based round currently being processed),
    /// shared by the lanes.
    round: usize,
    expect_data: bool,
    pub(super) d: R,
    /// The validation value, drawn at setup: it is the node stream's
    /// second draw wherever it is drawn.
    pub(super) v_own: R,
    pub(super) buffer: R,
    /// The collected data values `d̂` (slots `0..n`) and validation values
    /// `v̂_1..v̂_n` (slots `n..2n`), packed into one allocation and
    /// slot-major over the lanes: slot `i`'s lanes are
    /// `store[i·k..(i + 1)·k]`. A run writes every slot before reading it.
    pub(super) store: Vec<u64>,
    out: O,
}

impl<R: Reg, O> PhaseNode<R, O> {
    /// An unfilled node around `store` and the output rule `out`.
    pub(super) fn new(params: PhaseParams, store: Vec<u64>, out: O) -> Self {
        PhaseNode {
            id: 0,
            params,
            round: 0,
            expect_data: true,
            d: R::default(),
            v_own: R::default(),
            buffer: R::default(),
            store,
            out,
        }
    }

    /// Readies position `id` for a run of `params` with one lane per
    /// seed: lane `l` draws its data value, then its validation value,
    /// from `node_rng(seeds[l], id)`.
    pub(super) fn fill(&mut self, id: NodeId, params: PhaseParams, seeds: &[u64]) {
        let k = seeds.len();
        self.id = id;
        self.params = params;
        self.round = 0;
        self.expect_data = true;
        self.d.set_lanes(k);
        self.v_own.set_lanes(k);
        self.buffer.set_lanes(k);
        for (((d, v), b), &seed) in (self.d.as_mut().iter_mut())
            .zip(self.v_own.as_mut())
            .zip(self.buffer.as_mut())
            .zip(seeds)
        {
            let mut rng = node_rng(seed, id);
            *d = rng.next_below(params.n as u64);
            *v = rng.next_below(params.m);
            *b = *d;
        }
        // Size (never zero) the store: every slot the run reads is written
        // first, so stale lanes of an earlier group are harmless.
        if self.store.len() != 2 * params.n * k {
            self.store.clear();
            self.store.resize(2 * params.n * k, 0);
        }
    }
}

impl<R: Reg, O: PhaseOutput> PhaseNode<R, O> {
    /// The origin's wake-up: record its own data value, open round 1 and
    /// emit `Data(d_0)` and `Val(v_1)`.
    fn wake(&mut self, fx: &mut impl Effects) {
        if self.id != 0 {
            return;
        }
        let d = self.d.as_ref();
        self.store[..d.len()].copy_from_slice(d);
        self.round = 1;
        fx.send(DATA, |out| out.copy_from_slice(d));
        fx.send(VAL, |out| out.copy_from_slice(self.v_own.as_ref()));
    }

    fn receive(&mut self, tag: u8, lanes: &[u64], fx: &mut impl Effects) {
        let (n, k) = (self.params.n, lanes.len());
        let origin = self.id == 0;
        match (tag, self.expect_data) {
            (DATA, true) => {
                self.expect_data = false;
                if !origin {
                    // Buffered secret sharing, exactly as in A-LEADuni:
                    // forward the buffer, keep the new value.
                    self.round += 1;
                    fx.send(DATA, |out| out.copy_from_slice(self.buffer.as_ref()));
                }
                // Round r delivers the data value of processor id − r (mod
                // n). `round ∈ 1..=n` and `id < n`, so both reductions are
                // single conditional subtracts, not divisions.
                let r = if self.round < n {
                    self.round
                } else {
                    self.round % n
                };
                let base = wrap_sub_usize(self.id + n - r, n) * k;
                let slots = self.store[base..base + k].iter_mut();
                for ((slot, b), &raw) in slots.zip(self.buffer.as_mut()).zip(lanes) {
                    let x = fold_mod(raw, n as u64);
                    *slot = x;
                    *b = x;
                }
                // 0-indexed processor p validates round p + 1; the origin
                // emitted round 1's value at wake-up.
                if !origin && self.round == self.id + 1 {
                    fx.send(VAL, |out| out.copy_from_slice(self.v_own.as_ref()));
                }
                if self.round == n && self.buffer.as_ref() != self.d.as_ref() {
                    // The value that came full circle is not our secret.
                    fx.fail();
                }
            }
            (VAL, false) => {
                self.expect_data = true;
                let m = self.params.m;
                let base = (n + self.round - 1) * k;
                let slots = &mut self.store[base..base + k];
                if self.round == self.id + 1 {
                    // Our own validation value after a full circle: absorb
                    // it, do not forward.
                    let mut intact = true;
                    for ((slot, &own), &raw) in slots.iter_mut().zip(self.v_own.as_ref()).zip(lanes)
                    {
                        intact &= fold_mod(raw, m) == own;
                        *slot = own;
                    }
                    if !intact {
                        // Phase validation failed: someone desynchronized
                        // the ring or guessed our value wrong.
                        return fx.fail();
                    }
                } else {
                    fx.send(VAL, |out| {
                        for ((slot, o), &raw) in slots.iter_mut().zip(out).zip(lanes) {
                            let y = fold_mod(raw, m);
                            *slot = y;
                            *o = y;
                        }
                    });
                }
                if self.round == n {
                    let (data, vals) = self.store.split_at(n * k);
                    let vals = &vals[..self.params.vals_in_f() * k];
                    self.out.finish(n, data, vals, fx);
                } else if origin {
                    // Launch the next round's data wave.
                    fx.send(DATA, |out| out.copy_from_slice(self.buffer.as_ref()));
                    self.round += 1;
                }
            }
            // Parity violation: a data message where a validation message
            // was due, or vice versa.
            _ => fx.fail(),
        }
    }
}

one_and_k_lanes!(PhaseMsg, PhaseNode, PhaseNode<Vec<u64>, PhaseSnapshot>);

impl ArenaBacked for PhaseNode {
    fn reclaim(&mut self, arena: &mut TrialArena) {
        arena.reclaim_u64s(std::mem::take(&mut self.store));
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
