//! Timed network simulation: per-link latency, bandwidth, loss and
//! duplication over a virtual clock.
//!
//! The oblivious [`Scheduler`](crate::Scheduler)s in this crate order
//! deliveries without any notion of *time* — they can express every
//! asynchronous interleaving, but not questions like "does fairness
//! degrade when the adversary sits behind a slow link?". This module adds
//! that missing axis: a [`TimedScheduler`] keeps a virtual clock in
//! nanoseconds and a min-heap of pending events ordered by
//! `(arrival_time, sequence)`, with the sequence number as a deterministic
//! tie-break — two events stamped with the same nanosecond fire in send
//! order, so a run is a pure function of its inputs.
//!
//! Each link carries a [`LinkProfile`]: a [`LatencySpec`] (constant /
//! uniform / two-point, drawn from the trial's dedicated `SplitMix64`
//! stream), an optional FIFO bandwidth gap (consecutive departures on one
//! link are serialized `gap_ns` apart), and loss / duplication
//! probabilities in permille. A [`TimedNetConfig`] assigns profiles to
//! links — one default plus per-edge overrides, which is how asymmetric
//! scenarios (one slow link on an otherwise fast ring) are built.
//!
//! **Equivalence anchor.** With the all-zero profile (constant 0 ns
//! latency, no gap, no loss, no dup) every event is stamped with time 0,
//! so heap order degenerates to sequence order — which is exactly the
//! engine's fused global-FIFO order. The timed path is therefore
//! bit-identical to the untimed FIFO path in that configuration; the
//! differential suite in `tests/timed_paths.rs` pins this for every
//! protocol. Note that non-constant latencies may *reorder* messages on a
//! link (real networks do); the paper's protocols are defined over FIFO
//! links, so reordering runs probe robustness beyond the model rather
//! than the model itself.

use crate::rng::SplitMix64;
use crate::topology::{EdgeId, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Domain-separation salt for the per-trial network randomness stream
/// (latency draws, loss and duplication coin flips). Distinct from the
/// per-node protocol streams (salted by node id `0..n`) and from the
/// harness's trial salt, so network noise never correlates with honest
/// secrets. The value spells "TIMEDNET" in ASCII.
pub const NET_STREAM_SALT: u64 = 0x5449_4D45_444E_4554;

/// A per-link latency distribution, in virtual nanoseconds.
///
/// Draws come from the trial's network stream ([`NET_STREAM_SALT`]);
/// [`LatencySpec::Constant`] consumes no randomness at all, which is what
/// keeps the zero-latency configuration bit-identical to the untimed
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencySpec {
    /// Every message takes exactly `ns` nanoseconds.
    Constant {
        /// The fixed delay.
        ns: u64,
    },
    /// Uniform over the half-open range `[lo, hi)`; requires `hi > lo`.
    Uniform {
        /// Inclusive lower bound.
        lo: u64,
        /// Exclusive upper bound.
        hi: u64,
    },
    /// `hi` with probability `hi_permille`/1000, else `lo` — a bimodal
    /// "mostly fast, occasionally stalled" link.
    TwoPoint {
        /// The common (fast) delay.
        lo: u64,
        /// The rare (slow) delay.
        hi: u64,
        /// Probability of drawing `hi`, in permille (`0..=1000`).
        hi_permille: u32,
    },
}

impl LatencySpec {
    /// A zero-delay constant — the equivalence-anchor latency.
    pub const ZERO: LatencySpec = LatencySpec::Constant { ns: 0 };

    /// Draws one delay from this distribution.
    pub fn draw(&self, rng: &mut SplitMix64) -> u64 {
        match *self {
            LatencySpec::Constant { ns } => ns,
            LatencySpec::Uniform { lo, hi } => {
                debug_assert!(hi > lo, "uniform latency needs hi > lo");
                lo + rng.next_below(hi - lo)
            }
            LatencySpec::TwoPoint {
                lo,
                hi,
                hi_permille,
            } => {
                if rng.next_below(1000) < hi_permille as u64 {
                    hi
                } else {
                    lo
                }
            }
        }
    }
}

/// The timing and fault behaviour of one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkProfile {
    /// Propagation delay distribution.
    pub latency: LatencySpec,
    /// Probability a sent message is silently dropped, in permille.
    pub loss_permille: u32,
    /// Probability a sent message is delivered twice (the duplicate draws
    /// its own independent latency), in permille.
    pub dup_permille: u32,
    /// FIFO bandwidth queueing: consecutive departures on this link are
    /// serialized at least `gap_ns` apart (0 disables the queue entirely).
    pub gap_ns: u64,
}

impl Default for LinkProfile {
    /// The all-zero profile: instant, lossless, duplicate-free, unqueued.
    /// Under this profile a timed run is bit-identical to the untimed
    /// fused-FIFO engine path.
    fn default() -> Self {
        LinkProfile {
            latency: LatencySpec::ZERO,
            loss_permille: 0,
            dup_permille: 0,
            gap_ns: 0,
        }
    }
}

/// Assigns a [`LinkProfile`] to every link of a topology: one default
/// profile plus per-edge overrides (first matching override wins).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimedNetConfig {
    /// The profile of every link without an override.
    pub default: LinkProfile,
    /// Per-edge exceptions, e.g. the one slow link of an asymmetric ring.
    pub overrides: Vec<(EdgeId, LinkProfile)>,
}

impl TimedNetConfig {
    /// A network where every link shares `profile`.
    pub fn uniform(profile: LinkProfile) -> Self {
        TimedNetConfig {
            default: profile,
            overrides: Vec::new(),
        }
    }

    /// The profile of edge `e`.
    pub fn profile(&self, e: EdgeId) -> LinkProfile {
        self.overrides
            .iter()
            .find(|&&(edge, _)| edge == e)
            .map(|&(_, p)| p)
            .unwrap_or(self.default)
    }
}

/// One pending simulation event: a spontaneous wake-up or a message
/// arriving on a link.
pub(crate) enum TimedEvent<M> {
    /// Wake node `NodeId` spontaneously.
    Wake(NodeId),
    /// Deliver `M` along link `EdgeId`.
    Deliver(EdgeId, M),
}

/// A heap key packs `(time, seq)` into one `u128` — `time` in the high 64
/// bits, `seq` in the low — so lexicographic `(time, seq)` order is plain
/// integer order and every sift moves 16 bytes instead of a full event.
/// `seq` is unique per trial, giving a total, deterministic order
/// regardless of heap internals; [`Reverse`] turns `std`'s max-heap into
/// the min-heap we need.
#[inline]
fn pack_key(time: u64, seq: u64) -> u128 {
    ((time as u128) << 64) | seq as u128
}

/// The virtual-clock event queue driving
/// [`Schedule::Timed`](crate::Schedule::Timed) runs: a binary min-heap of
/// pending events keyed
/// by `(arrival_ns, seq)` plus the per-trial network randomness stream and
/// per-link bandwidth cursors.
///
/// Like the engine itself, a `TimedScheduler` is a reusable per-worker
/// resource: `begin_trial` re-seeds it in place, retaining (bounded)
/// allocation across a batch.
pub struct TimedScheduler<M> {
    heap: BinaryHeap<Reverse<u128>>,
    /// Event payloads indexed by sequence number; popped slots are taken,
    /// so a slot is `Some` exactly while its key sits in the heap.
    events: Vec<Option<TimedEvent<M>>>,
    /// Events pushed this trial; doubles as the unique tie-break sequence.
    seq: u64,
    /// The virtual clock: the timestamp of the last popped event.
    now: u64,
    rng: SplitMix64,
    /// Per-edge profiles, materialized once per trial so the send path
    /// never scans the override list.
    profiles: Vec<LinkProfile>,
    /// Per-edge earliest next departure (bandwidth queueing cursor).
    next_free: Vec<u64>,
    /// Decaying high-water mark of `seq`, bounding retained heap capacity
    /// (same ×4 budget policy as the engine's shrink-on-idle reset).
    hwm_events: u64,
}

impl<M> Default for TimedScheduler<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> TimedScheduler<M> {
    /// Creates an empty scheduler; [`Engine::run_into`](crate::Engine::run_into)
    /// re-seeds it per trial.
    pub fn new() -> Self {
        TimedScheduler {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            seq: 0,
            now: 0,
            rng: SplitMix64::new(0),
            profiles: Vec::new(),
            next_free: Vec::new(),
            hwm_events: 0,
        }
    }

    /// The virtual clock, in nanoseconds: the arrival time of the last
    /// delivered event. After a run this is the virtual makespan.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Resets for a new trial over `edges` links: clears the heap (bounded
    /// by the decayed high-water budget), re-seeds the network stream from
    /// `seed` via [`NET_STREAM_SALT`], and materializes per-edge profiles.
    pub(crate) fn begin_trial(&mut self, net: &TimedNetConfig, edges: usize, seed: u64) {
        self.hwm_events = self.seq.max(self.hwm_events / 2);
        let budget = (4 * self.hwm_events).max(64) as usize;
        self.heap.clear();
        if self.heap.capacity() > budget {
            self.heap.shrink_to(budget);
        }
        self.events.clear();
        if self.events.capacity() > budget {
            self.events.shrink_to(budget);
        }
        self.seq = 0;
        self.now = 0;
        self.rng = SplitMix64::new(seed).derive(NET_STREAM_SALT);
        self.profiles.clear();
        self.profiles.extend((0..edges).map(|e| net.profile(e)));
        self.next_free.clear();
        self.next_free.resize(edges, 0);
    }

    /// Schedules a spontaneous wake-up at the current virtual time.
    pub(crate) fn push_wake(&mut self, node: NodeId) {
        let time = self.now;
        self.push_at(time, TimedEvent::Wake(node));
    }

    /// Pops the earliest pending event and advances the clock to it.
    pub(crate) fn pop(&mut self) -> Option<TimedEvent<M>> {
        let Reverse(key) = self.heap.pop()?;
        self.now = (key >> 64) as u64;
        self.events[key as u64 as usize].take()
    }

    fn push_at(&mut self, time: u64, event: TimedEvent<M>) {
        let seq = self.seq;
        self.seq += 1;
        debug_assert_eq!(seq as usize, self.events.len());
        self.events.push(Some(event));
        self.heap.push(Reverse(pack_key(time, seq)));
    }
}

impl<M: Clone> TimedScheduler<M> {
    /// Sends `msg` on `edge` at the current virtual time, applying the
    /// link's profile: a loss coin first (a lost message consumes nothing
    /// further), then the bandwidth queue (departure is serialized behind
    /// the link's previous departure when `gap_ns > 0`), then a latency
    /// draw, then a duplication coin whose duplicate draws an independent
    /// latency from the same departure. Draw order is fixed so a trial is
    /// an exact function of `(seed, schedule)` — lossy and duplicating
    /// runs replay bit-identically.
    pub(crate) fn send(&mut self, edge: EdgeId, msg: M) {
        let p = self.profiles[edge];
        if p.loss_permille > 0 && self.rng.next_below(1000) < p.loss_permille as u64 {
            return;
        }
        let mut dep = self.now;
        if p.gap_ns > 0 {
            dep = dep.max(self.next_free[edge]).saturating_add(p.gap_ns);
            self.next_free[edge] = dep;
        }
        let arrive = dep.saturating_add(p.latency.draw(&mut self.rng));
        let dup_arrive = if p.dup_permille > 0 && self.rng.next_below(1000) < p.dup_permille as u64
        {
            Some(dep.saturating_add(p.latency.draw(&mut self.rng)))
        } else {
            None
        };
        match dup_arrive {
            Some(dup) => {
                // The original keeps the lower sequence number, so an
                // exact-tie duplicate delivers second.
                self.push_at(arrive, TimedEvent::Deliver(edge, msg.clone()));
                self.push_at(dup, TimedEvent::Deliver(edge, msg));
            }
            None => self.push_at(arrive, TimedEvent::Deliver(edge, msg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_times(sched: &mut TimedScheduler<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = sched.pop() {
            if let TimedEvent::Deliver(_, m) = ev {
                out.push((sched.now(), m));
            }
        }
        out
    }

    #[test]
    fn zero_profile_pops_in_send_order() {
        let mut s: TimedScheduler<u64> = TimedScheduler::new();
        s.begin_trial(&TimedNetConfig::default(), 2, 7);
        s.send(0, 10);
        s.send(1, 11);
        s.send(0, 12);
        assert_eq!(drain_times(&mut s), vec![(0, 10), (0, 11), (0, 12)]);
    }

    #[test]
    fn constant_latency_orders_by_time_then_seq() {
        let mut s: TimedScheduler<u64> = TimedScheduler::new();
        let net = TimedNetConfig {
            default: LinkProfile {
                latency: LatencySpec::Constant { ns: 5 },
                ..LinkProfile::default()
            },
            overrides: vec![(
                1,
                LinkProfile {
                    latency: LatencySpec::Constant { ns: 1 },
                    ..LinkProfile::default()
                },
            )],
        };
        s.begin_trial(&net, 2, 7);
        s.send(0, 10); // arrives at 5
        s.send(1, 11); // arrives at 1
        s.send(0, 12); // arrives at 5, after 10 by seq
        assert_eq!(drain_times(&mut s), vec![(1, 11), (5, 10), (5, 12)]);
    }

    #[test]
    fn bandwidth_gap_serializes_departures() {
        let mut s: TimedScheduler<u64> = TimedScheduler::new();
        let net = TimedNetConfig::uniform(LinkProfile {
            gap_ns: 10,
            ..LinkProfile::default()
        });
        s.begin_trial(&net, 1, 7);
        s.send(0, 1); // departs 10
        s.send(0, 2); // departs 20
        s.send(0, 3); // departs 30
        assert_eq!(drain_times(&mut s), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn loss_and_dup_replay_identically_from_one_seed() {
        let net = TimedNetConfig::uniform(LinkProfile {
            latency: LatencySpec::Uniform { lo: 1, hi: 100 },
            loss_permille: 300,
            dup_permille: 300,
            gap_ns: 0,
        });
        let run = |seed: u64| {
            let mut s: TimedScheduler<u64> = TimedScheduler::new();
            s.begin_trial(&net, 3, seed);
            for m in 0..50 {
                s.send((m % 3) as EdgeId, m);
            }
            drain_times(&mut s)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "distinct seeds must vary the noise");
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut s: TimedScheduler<u64> = TimedScheduler::new();
        let net = TimedNetConfig::uniform(LinkProfile {
            loss_permille: 1000,
            ..LinkProfile::default()
        });
        s.begin_trial(&net, 1, 3);
        s.send(0, 1);
        s.send(0, 2);
        assert!(drain_times(&mut s).is_empty());
    }

    #[test]
    fn full_dup_delivers_twice() {
        let mut s: TimedScheduler<u64> = TimedScheduler::new();
        let net = TimedNetConfig::uniform(LinkProfile {
            dup_permille: 1000,
            ..LinkProfile::default()
        });
        s.begin_trial(&net, 1, 3);
        s.send(0, 1);
        let seen: Vec<u64> = drain_times(&mut s).into_iter().map(|(_, m)| m).collect();
        assert_eq!(seen, vec![1, 1]);
    }

    #[test]
    fn heap_capacity_is_bounded_after_an_oversized_trial() {
        let mut s: TimedScheduler<u64> = TimedScheduler::new();
        let net = TimedNetConfig::default();
        s.begin_trial(&net, 1, 0);
        for m in 0..100_000 {
            s.send(0, m);
        }
        // Decay: many small trials shrink the retained heap back down.
        for trial in 0..64 {
            s.begin_trial(&net, 1, trial);
            for m in 0..8 {
                s.send(0, m);
            }
            while s.pop().is_some() {}
        }
        s.begin_trial(&net, 1, 0);
        assert!(
            s.heap.capacity() <= 1024,
            "retained {} keys",
            s.heap.capacity()
        );
        assert!(
            s.events.capacity() <= 1024,
            "retained {} event slots",
            s.events.capacity()
        );
    }
}
