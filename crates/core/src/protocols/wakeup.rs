//! `WakeLead` — `A-LEADuni` preceded by the wake-up phase of Abraham et
//! al. [4] / Afek et al. [5], for the *unknown-ids* model of the paper's
//! Appendix H.
//!
//! In the original papers the processors do not know the id set `V`
//! beforehand: the protocol opens with a **wake-up phase** in which every
//! processor announces its id and forwards every other id once; when a
//! processor's own id returns it has seen all `n` ids *in ring order*, so
//! it knows `n`, the full layout relative to itself, and the designated
//! origin (the minimum id). The election phase is then exactly
//! `A-LEADuni` with the computed indices, except the final output is the
//! *id* of the winning position rather than the position itself.
//!
//! Appendix H explains why the paper's resilience proofs do **not**
//! extend to this protocol — adversaries can abuse the wake-up phase to
//! transfer information and to allocate an origin inside every honest
//! segment — and why the unknown-ids problem statement itself is fragile
//! (a coalition that lies about its ids gains utility under the rational
//! utility `u₀(x) = 1[x ∉ Ω]`). Both abuses are implemented in
//! `fle-attacks::wakeup_mask`.

use super::{node_rng, FleProtocol, RingProtocol, Wakes};
use ring_sim::rng::SplitMix64;
use ring_sim::{ArenaBacked, Ctx, Execution, Node, NodeId, TrialArena};

/// Messages of `WakeLead`: id announcements, then election data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeMsg {
    /// Wake-up phase: an id travelling the ring.
    Id(u64),
    /// Election phase: a data value (as in `A-LEADuni`).
    Data(u64),
}

/// A `WakeLead` protocol instance. Ids are drawn from a 48-bit space, so
/// they carry high bits an Appendix H masking adversary can strip.
///
/// # Examples
///
/// ```
/// use fle_core::protocols::{FleProtocol, WakeLead};
///
/// let p = WakeLead::new(8).with_seed(3);
/// let winner_id = p.run_honest().outcome.elected().unwrap();
/// assert!(p.ids().contains(&winner_id));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeLead {
    n: usize,
    seed: u64,
    ids: Vec<u64>,
}

impl WakeLead {
    /// Bit width of the id space (ids are `< 2^48`).
    pub const ID_BITS: u32 = 48;

    /// Creates an instance for `n ≥ 2` processors with distinct random
    /// ids derived from seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "WakeLead needs n >= 2");
        let mut p = Self {
            n,
            seed: 0,
            ids: Vec::new(),
        };
        p.redraw_ids();
        p
    }

    /// Sets the instance seed (redraws ids and secret values).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.redraw_ids();
        self
    }

    fn redraw_ids(&mut self) {
        let mut rng = SplitMix64::new(self.seed).derive(0x1D5);
        let mut ids = Vec::with_capacity(self.n);
        while ids.len() < self.n {
            let candidate = rng.next_below(1 << Self::ID_BITS);
            if !ids.contains(&candidate) {
                ids.push(candidate);
            }
        }
        self.ids = ids;
    }

    /// The instance seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The (hidden) ids by ring position. Protocol code never reads this;
    /// it exists for tests and for attack builders, which per Appendix H
    /// may behave honestly during the wake-up phase and therefore learn
    /// the ids anyway.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The data values honest processors would draw (for tests).
    pub fn honest_values(&self) -> Vec<u64> {
        (0..self.n)
            .map(|i| node_rng(self.seed, i).next_below(self.n as u64))
            .collect()
    }

    /// Builds a node that follows the protocol *honestly* except that it
    /// announces `claimed_id` instead of its true id — the Appendix H
    /// lying deviation that breaks the naive unknown-ids problem
    /// definition (a winner outside the true id set `Ω` yields utility
    /// under `u₀(x) = 1[x ∉ Ω]`, and honest processors cannot tell).
    pub fn node_with_identity(&self, pos: NodeId, claimed_id: u64) -> Box<dyn Node<WakeMsg>> {
        Box::new(WakeNode::new(claimed_id, node_rng(self.seed, pos)))
    }

    /// Every processor wakes spontaneously (it must announce its id).
    pub fn wakes(&self) -> Vec<NodeId> {
        Self::WAKES.ids(self.n)
    }

    /// Builds the honest node for ring position `pos` unboxed. `WakeNode`
    /// holds no arena-backed storage (its id buffer grows on the heap per
    /// trial), so the arena is unused.
    pub fn honest_ring_node_in(&self, pos: NodeId, _arena: &mut TrialArena) -> WakeNode {
        WakeNode::new(self.ids[pos], node_rng(self.seed, pos))
    }
}

impl RingProtocol for WakeLead {
    type Msg = WakeMsg;
    type Node = WakeNode;
    const WAKES: Wakes = Wakes::All;

    fn seeded(&self, seed: u64) -> Self {
        self.clone().with_seed(seed)
    }

    fn honest_ring_node_in(&self, pos: NodeId, arena: &mut TrialArena) -> WakeNode {
        WakeLead::honest_ring_node_in(self, pos, arena)
    }
}

impl ArenaBacked for WakeNode {}

impl FleProtocol for WakeLead {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "WakeLead"
    }

    fn run_honest(&self) -> Execution {
        self.run_with(Vec::new())
    }
}

/// The honest `WakeLead` processor: collect ids, compute the layout, then
/// run the `A-LEADuni` election over it.
pub struct WakeNode {
    my_id: u64,
    rng: SplitMix64,
    /// Ids received so far, in arrival order (`collected[j]` is the id of
    /// the processor `j + 1` hops behind us).
    collected: Vec<u64>,
    election: Option<ElectionState>,
    halted: bool,
}

struct ElectionState {
    n: u64,
    /// My index relative to the origin (minimum id): 0 = origin.
    index: u64,
    /// Ids ordered by index (`ring_ids[i]` = id of the processor at
    /// election index `i`), reconstructed from arrival order.
    ring_ids: Vec<u64>,
    d: u64,
    buffer: u64,
    sum: u64,
    round: u64,
}

impl WakeNode {
    fn new(my_id: u64, rng: SplitMix64) -> Self {
        WakeNode {
            my_id,
            rng,
            collected: Vec::new(),
            election: None,
            halted: false,
        }
    }

    /// Completes the wake-up phase: derive `n`, my index, the id ring, and
    /// start the election (origin sends its data value immediately).
    fn finish_wakeup(&mut self, ctx: &mut Ctx<'_, WakeMsg>) {
        let n = self.collected.len() as u64;
        // collected[j] = id of pred^{j+1}; collected[n−1] = my own id.
        // The processor at forward distance f from me is pred^{n−f}, so
        // its id is collected[n − f − 1].
        let min_pos_in_arrivals = (0..self.collected.len())
            .min_by_key(|&j| self.collected[j])
            .expect("nonempty");
        // Origin is pred^{j+1} where j = min_pos_in_arrivals; my forward
        // distance from the origin is j + 1, i.e. my index.
        let index = (min_pos_in_arrivals as u64 + 1) % n;
        // ring_ids[i] = id of the processor at index i. The processor at
        // index i sits at forward distance (i − index) mod n from me.
        let ring_ids: Vec<u64> = (0..n)
            .map(|i| {
                let fwd = (i + n - index) % n;
                if fwd == 0 {
                    self.my_id
                } else {
                    self.collected[(n - fwd - 1) as usize]
                }
            })
            .collect();
        let d = self.rng.next_below(n);
        let mut st = ElectionState {
            n,
            index,
            ring_ids,
            d,
            buffer: d,
            sum: 0,
            round: 0,
        };
        if st.index == 0 {
            // Origin: announce the data value, then behave as a pipe.
            ctx.send(WakeMsg::Data(st.d));
            st.buffer = u64::MAX; // origin never uses the buffer
        }
        self.election = Some(st);
    }

    fn on_data(&mut self, value: u64, ctx: &mut Ctx<'_, WakeMsg>) {
        let Some(st) = self.election.as_mut() else {
            // Data before our wake-up finished: FIFO makes this impossible
            // for honest senders, so it is a detected deviation.
            self.halted = true;
            ctx.abort();
            return;
        };
        let m = value % st.n;
        st.round += 1;
        st.sum = (st.sum + m) % st.n;
        if st.index == 0 {
            // Origin pipes the first n − 1 receives.
            if st.round < st.n {
                ctx.send(WakeMsg::Data(m));
            } else if m == st.d {
                let winner = st.ring_ids[st.sum as usize];
                ctx.terminate(Some(winner));
            } else {
                self.halted = true;
                ctx.abort();
            }
        } else {
            // Normal: buffer-delay every receive.
            ctx.send(WakeMsg::Data(st.buffer));
            st.buffer = m;
            if st.round == st.n {
                if m == st.d {
                    let winner = st.ring_ids[st.sum as usize];
                    ctx.terminate(Some(winner));
                } else {
                    self.halted = true;
                    ctx.abort();
                }
            }
        }
    }
}

impl Node<WakeMsg> for WakeNode {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, WakeMsg>) {
        ctx.send(WakeMsg::Id(self.my_id));
    }

    fn on_message(&mut self, _from: NodeId, msg: WakeMsg, ctx: &mut Ctx<'_, WakeMsg>) {
        if self.halted {
            return;
        }
        match msg {
            WakeMsg::Id(id) => {
                if self.election.is_some() {
                    // Stray id after wake-up completed: deviation.
                    self.halted = true;
                    ctx.abort();
                    return;
                }
                self.collected.push(id);
                if id == self.my_id {
                    self.finish_wakeup(ctx);
                } else {
                    ctx.send(WakeMsg::Id(id));
                }
            }
            WakeMsg::Data(v) => self.on_data(v, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::Outcome;

    #[test]
    fn honest_run_elects_an_id() {
        for seed in 0..6 {
            let p = WakeLead::new(7).with_seed(seed);
            let winner = p.run_honest().outcome.elected().expect("honest success");
            assert!(p.ids().contains(&winner), "seed {seed}");
        }
    }

    #[test]
    fn winner_is_the_sum_indexed_id() {
        let p = WakeLead::new(6).with_seed(4);
        let values = p.honest_values();
        // Index computation below mirrors the protocol: indices are
        // assigned relative to the position with the minimal id.
        let origin_pos = (0..6).min_by_key(|&i| p.ids()[i]).expect("nonempty");
        // The value drawn by the processor at election index i:
        let sum: u64 = values.iter().sum::<u64>() % 6;
        let winner_pos = (origin_pos + sum as usize) % 6;
        assert_eq!(
            p.run_honest().outcome,
            Outcome::Elected(p.ids()[winner_pos])
        );
    }

    #[test]
    fn ids_are_distinct_and_in_range() {
        let p = WakeLead::new(32).with_seed(9);
        let mut ids = p.ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 32);
        assert!(ids.iter().all(|&id| id < 1 << WakeLead::ID_BITS));
    }

    #[test]
    fn message_complexity_doubles_a_lead_uni() {
        // Wake-up costs n² id hops, the election n² data hops.
        let n = 9u64;
        let exec = WakeLead::new(n as usize).with_seed(2).run_honest();
        assert_eq!(exec.stats.total_sent(), 2 * n * n);
    }

    #[test]
    fn outcome_marginals_are_uniform_over_positions() {
        let n = 5usize;
        let mut counts = vec![0u32; n];
        for seed in 0..1500 {
            let p = WakeLead::new(n).with_seed(seed);
            let winner = p.run_honest().outcome.elected().expect("honest");
            let pos = p
                .ids()
                .iter()
                .position(|&id| id == winner)
                .expect("member id");
            counts[pos] += 1;
        }
        let expect = 1500.0 / n as f64;
        for &c in &counts {
            assert!((c as f64 - expect).abs() < expect * 0.3, "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn tiny_ring_rejected() {
        let _ = WakeLead::new(1);
    }
}
