//! Deterministic crash-fault injection: per-node crash-stop (with
//! optional recovery) drawn from a dedicated per-trial random stream.
//!
//! The paper's model (Section 2) assumes failure-free processors over
//! reliable FIFO links. The timed layer (`ring_sim::timed`) already steps
//! outside the *link* half of that model; this module perturbs the
//! *processor* half, in the spirit of the fail-stop leader-election
//! literature the paper contrasts itself with.
//!
//! A [`FaultPlan`] lists crash faults: node `v` stops at instant `at`
//! (and, with recovery, resumes at `recover_at`). Instants are measured
//! on the clock of whichever engine path runs the trial — the running
//! **delivery count** on the untimed paths, **virtual nanoseconds** on
//! the timed path — and a fault counts as fired once the run reaches its
//! instant ([`FaultPlan::fired_count`]). While a node is down it
//! silently drops every delivery and wake-up (the message is still
//! consumed and counted — the link is fine, the processor is not) and
//! sends nothing; recovery restores the node exactly as it was at the
//! crash instant (crash-stop with state-preserving restart — deliveries
//! that arrived while it was down are lost for good).
//!
//! Determinism: [`FaultPlan::draw_into`] derives every victim and instant
//! from the trial seed through [`FAULT_STREAM_SALT`], a stream disjoint
//! from the per-node protocol streams and the timed layer's
//! [`NET_STREAM_SALT`](crate::NET_STREAM_SALT) — so fault noise never
//! correlates with honest secrets or network noise, and a faulty trial
//! replays bit-identically from its seed.
//!
//! The empty plan is free: the engine dispatches **once** per run on
//! [`FaultPlan::is_empty`] into a monomorphized loop whose fault hook is
//! an inline `false` — the fault-free path carries no per-delivery check
//! and stays bit-identical to builds that predate this module.
//!
//! Plans also ride the lockstep engine, one per lane
//! ([`LockstepEngine::set_fault_plans`](crate::batch::LockstepEngine::set_fault_plans)),
//! on the delivery clock or on the virtual clock of a net with one
//! constant latency. The lanes keep the fault-free schedule until a
//! lane's plan drops one of its activations. If every event still queued
//! then drops too, the lane's run ends there, quiescent, and the lockstep
//! engine writes its execution on the spot; otherwise the lane reruns on
//! the scalar engine. Both engines settle a run's fired crashes the same
//! way (`FaultPlan::settle_into`).

use crate::engine::Execution;
use crate::outcome::{FailReason, Outcome};
use crate::rng::SplitMix64;
use crate::timed::clock_add;
use crate::topology::NodeId;

/// Domain-separation salt for the per-trial crash-fault stream (victim
/// draws and crash-instant draws). Distinct from the per-node protocol
/// streams and from [`NET_STREAM_SALT`](crate::NET_STREAM_SALT). The
/// value spells "CRASHFLT" in ASCII.
pub const FAULT_STREAM_SALT: u64 = 0x4352_4153_4846_4C54;

/// The clock a crash instant is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashInstant {
    /// Untimed engine paths: the instant is a running delivery count
    /// (a crash at `d` takes effect once `d` deliveries have completed).
    Deliveries(u64),
    /// The timed engine path: the instant is a virtual-clock nanosecond.
    VirtualNs(u64),
}

impl CrashInstant {
    /// The exclusive upper bound [`FaultPlan::draw_into`] draws crash
    /// instants below.
    pub fn bound(&self) -> u64 {
        match *self {
            CrashInstant::Deliveries(d) => d,
            CrashInstant::VirtualNs(t) => t,
        }
    }

    /// `true` for [`CrashInstant::VirtualNs`] (instants on the virtual
    /// clock of the timed path).
    pub fn is_timed(&self) -> bool {
        matches!(self, CrashInstant::VirtualNs(_))
    }
}

/// Shape of the crash faults one trial draws: how many nodes crash,
/// inside which window, and whether they come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Number of distinct nodes to crash (capped at the ring size by
    /// [`FaultPlan::draw_into`]).
    pub crashes: u64,
    /// Each victim's crash instant is drawn uniformly in
    /// `[0, window.bound())`, on the clock `window` names.
    pub window: CrashInstant,
    /// When set, every crashed node recovers `recover_after` clock units
    /// after its crash instant (same units as `window`); `None` is
    /// crash-stop forever.
    pub recover_after: Option<u64>,
}

/// One concrete crash fault of a drawn [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The crashing node.
    pub node: NodeId,
    /// The crash instant, on the plan's clock.
    pub at: u64,
    /// The recovery instant, if the node comes back.
    pub recover_at: Option<u64>,
}

/// A trial's concrete crash faults, in the representation the engine
/// consults per event.
///
/// Obtain one from [`FaultPlan::draw_into`] (the deterministic per-trial
/// draw) or build it explicitly with [`FaultPlan::with_crash`] (tests and
/// placement experiments). Install on an engine with
/// [`Engine::set_fault_plan`](crate::Engine::set_fault_plan).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<CrashFault>,
}

impl FaultPlan {
    /// The empty plan: no faults. Installing it is exactly the fault-free
    /// path (`tests/crash_faults.rs` pins the differential).
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when the plan holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Drops every fault in place, keeping the allocation.
    pub fn clear(&mut self) {
        self.faults.clear();
    }

    /// The plan's faults (sorted by draw order, not by node).
    pub fn faults(&self) -> &[CrashFault] {
        &self.faults
    }

    /// Adds one explicit crash fault (placement experiments and tests;
    /// sweeps use [`FaultPlan::draw_into`]).
    pub fn with_crash(mut self, node: NodeId, at: u64, recover_at: Option<u64>) -> Self {
        self.faults.push(CrashFault {
            node,
            at,
            recover_at,
        });
        self
    }

    /// Redraws this plan for one trial, in place (the per-worker reuse
    /// form): `cfg.crashes` *distinct* victims uniform over `0..n`, each
    /// with an instant uniform in `[0, cfg.window.bound())`, all from the
    /// [`FAULT_STREAM_SALT`]-derived stream of `trial_seed` — so the plan
    /// is a pure function of `(cfg, n, trial_seed)`.
    ///
    /// A `crashes` of 0 clears the plan; counts above `n` are capped at
    /// `n` (every node crashes).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` while `cfg.crashes > 0`.
    pub fn draw_into(&mut self, cfg: &FaultConfig, n: usize, trial_seed: u64) {
        self.faults.clear();
        if cfg.crashes == 0 {
            return;
        }
        assert!(n > 0, "cannot crash nodes of an empty topology");
        let mut rng = SplitMix64::new(trial_seed).derive(FAULT_STREAM_SALT);
        let crashes = (cfg.crashes).min(n as u64) as usize;
        let bound = cfg.window.bound().max(1);
        for _ in 0..crashes {
            // Distinct victims by rejection: the crash count is tiny
            // relative to n in every realistic sweep, so this terminates
            // fast (and deterministically, being a pure stream function).
            let node = loop {
                let v = rng.next_below(n as u64) as usize;
                if !self.faults.iter().any(|f| f.node == v) {
                    break v;
                }
            };
            let at = rng.next_below(bound);
            let recover_at = cfg.recover_after.map(|d| clock_add(at, d));
            self.faults.push(CrashFault {
                node,
                at,
                recover_at,
            });
        }
    }

    /// `true` while `node` is down at clock value `clock` (deliveries
    /// completed so far on the untimed paths, virtual nanoseconds on the
    /// timed path).
    #[inline]
    pub fn is_down(&self, node: NodeId, clock: u64) -> bool {
        self.faults
            .iter()
            .any(|f| f.node == node && clock >= f.at && f.recover_at.is_none_or(|r| clock < r))
    }

    /// How many of the plan's faults *fired* during a run, i.e. the run
    /// reached their instant. `last` is the clock reading of the last
    /// event the run counted, `None` if it counted none: a fault fired iff
    /// its instant is at or before `last`. The rule is the same on both
    /// clocks, since each event reads the clock before it counts (a
    /// delivery clock's `k`-th delivery reads `k - 1`, a wake-up after
    /// the last delivery reads the delivery total).
    pub fn fired_count(&self, last: Option<u64>) -> u64 {
        last.map_or(0, |last| {
            self.faults.iter().filter(|f| f.at <= last).count() as u64
        })
    }

    /// Writes a finished run's fault accounting into `out`: the faults
    /// that fired up to the clock of its last counted event `last`
    /// ([`FaultPlan::fired_count`]), and the diagnosis of a quiescence
    /// after a fired crash. The scalar and the lockstep engine both settle
    /// a run through this.
    pub(crate) fn settle_into(&self, last: Option<u64>, out: &mut Execution) {
        out.stats.crashes = self.fired_count(last);
        if out.stats.crashes > 0 && out.outcome == Outcome::Fail(FailReason::Deadlock) {
            // Quiescence with live non-terminated nodes downstream of a
            // fired crash: the fault partitioned the election, which is a
            // different diagnosis than a protocol deadlock.
            out.outcome = Outcome::Fail(FailReason::CrashPartition);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(crashes: u64, window: CrashInstant, recover_after: Option<u64>) -> FaultConfig {
        FaultConfig {
            crashes,
            window,
            recover_after,
        }
    }

    #[test]
    fn draw_is_deterministic_in_seed() {
        let c = cfg(3, CrashInstant::Deliveries(100), Some(40));
        let mut a = FaultPlan::none();
        let mut b = FaultPlan::none();
        a.draw_into(&c, 16, 77);
        b.draw_into(&c, 16, 77);
        assert_eq!(a, b);
        b.draw_into(&c, 16, 78);
        assert_ne!(a, b, "distinct seeds must vary the plan");
    }

    #[test]
    fn draw_produces_distinct_victims_within_window() {
        let c = cfg(8, CrashInstant::Deliveries(50), None);
        let mut plan = FaultPlan::none();
        for seed in 0..50 {
            plan.draw_into(&c, 8, seed);
            let mut nodes: Vec<NodeId> = plan.faults().iter().map(|f| f.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), 8, "seed {seed}: victims must be distinct");
            assert!(plan.faults().iter().all(|f| f.at < 50));
            assert!(plan.faults().iter().all(|f| f.recover_at.is_none()));
        }
    }

    #[test]
    fn crash_count_is_capped_at_n() {
        let mut plan = FaultPlan::none();
        plan.draw_into(&cfg(99, CrashInstant::Deliveries(10), None), 4, 0);
        assert_eq!(plan.faults().len(), 4);
    }

    #[test]
    fn zero_crashes_clears_the_plan() {
        let mut plan = FaultPlan::none().with_crash(1, 5, None);
        plan.draw_into(&cfg(0, CrashInstant::Deliveries(10), None), 4, 0);
        assert!(plan.is_empty());
    }

    #[test]
    fn is_down_respects_crash_and_recovery_window() {
        let plan = FaultPlan::none().with_crash(2, 10, Some(20));
        assert!(!plan.is_down(2, 9));
        assert!(plan.is_down(2, 10));
        assert!(plan.is_down(2, 19));
        assert!(!plan.is_down(2, 20), "recovered at the recovery instant");
        assert!(!plan.is_down(3, 15), "other nodes unaffected");
        let forever = FaultPlan::none().with_crash(2, 10, None);
        assert!(forever.is_down(2, u64::MAX));
    }

    #[test]
    fn fired_count_boundary_is_the_same_on_both_clocks() {
        // A fault fires iff the last counted event read its instant or a
        // later one, on the delivery clock and the virtual clock alike.
        let plan = FaultPlan::none()
            .with_crash(0, 10, None)
            .with_crash(1, 0, Some(3));
        assert_eq!(plan.fired_count(None), 0, "no event ran");
        assert_eq!(plan.fired_count(Some(0)), 1, "an event read instant 0");
        assert_eq!(plan.fired_count(Some(9)), 1);
        assert_eq!(plan.fired_count(Some(10)), 2, "the last event read 10");
        assert_eq!(plan.fired_count(Some(u64::MAX)), 2);
    }

    /// A recovery instant past the 64-bit clock trips the same debug check
    /// as the timed clock additions (`SweepSpec::validate` rejects such
    /// specs; a direct engine caller gets this panic, not a saturated
    /// instant).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "clock overflow")]
    fn recovery_instant_overflow_is_checked() {
        let window = CrashInstant::Deliveries(u64::MAX);
        let mut plan = FaultPlan::none();
        plan.draw_into(&cfg(1, window, None), 4, 0);
        assert!(plan.faults()[0].at > 0, "seed 0 draws an instant above 0");
        plan.draw_into(&cfg(1, window, Some(u64::MAX)), 4, 0);
    }

    #[test]
    fn recovery_offsets_from_the_crash_instant() {
        let c = cfg(2, CrashInstant::Deliveries(30), Some(7));
        let mut plan = FaultPlan::none();
        plan.draw_into(&c, 10, 5);
        for f in plan.faults() {
            assert_eq!(f.recover_at, Some(f.at + 7));
        }
    }

    #[test]
    fn fault_stream_is_salt_separated_from_the_net_stream() {
        // Same trial seed: the fault stream's first draw must differ from
        // the net stream's (domain separation, not stream reuse).
        let mut fault = SplitMix64::new(42).derive(FAULT_STREAM_SALT);
        let mut net = SplitMix64::new(42).derive(crate::NET_STREAM_SALT);
        assert_ne!(fault.next_u64(), net.next_u64());
    }
}
