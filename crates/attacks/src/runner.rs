//! Uniform cached dispatch over every implemented attack.
//!
//! Each attack builds its deviating nodes for one seeded protocol
//! instance and target (`adversary_nodes`, or the unboxed
//! `adversary_ring_nodes` where the coalition is homogeneous); its `run`
//! plays them on the `SimBuilder` reference path. This module drives
//! every attack through one generic [`AttackRunner`] instead: a private
//! per-attack trait names the victim protocol, the deviant node type and
//! the success predicate, and a single runner owns the victim's
//! [`TrialCache`]. [`build_runner`] resolves an [`AttackKind`] plus a
//! coalition layout into that boxed runner — built once per worker
//! thread, after which a trial allocates only its coalition's nodes and
//! their override list (rushing, say, builds its active layout and one
//! `Rusher` with its tail buffer per coalition member). The kinds
//! whose victim's messages are plain `u64`s also run `k` trials at once
//! in lockstep lanes ([`AttackRunner::run_group`]).

use crate::{
    cubic_distances, AttackError, BasicSingleAttack, CubicAttack, CubicPlan, PhaseBurstAttack,
    PhaseGuessAttack, PhaseRusher, PhaseRushingAttack, PhaseSumAttack, RandomLocatedAttack, Rusher,
    RushingAttack, WaitAndCancel, WakeupIdLieAttack, WakeupMaskAttack,
};
use fle_core::protocols::{
    ALeadUni, BasicLead, PhaseAsyncLead, PhaseMsg, PhaseSumLead, RingProtocol, TrialCache,
    WakeLead, WakeMsg,
};
use fle_core::{Coalition, Execution, Node, NodeId};
use std::str::FromStr;

/// The circularity-detection window `C` used by [`AttackKind::RandomLocated`]
/// runners (the value every experiment and test in this repository uses).
pub const RANDOM_LOCATED_WINDOW: usize = 3;

/// Every attack the runner layer can dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// [`BasicSingleAttack`] (Claim B.1) on `Basic-LEAD`.
    BasicSingle,
    /// [`RushingAttack`] (Lemma 4.1 / Thm 4.2) on `A-LEADuni`.
    Rushing,
    /// [`CubicAttack`] (Thm 4.3) on `A-LEADuni`.
    Cubic,
    /// [`RandomLocatedAttack`] (Thm C.1) on `A-LEADuni`.
    RandomLocated,
    /// [`PhaseRushingAttack`] (§6 remark) on `PhaseAsyncLead`.
    PhaseRushing,
    /// [`PhaseGuessAttack`] (§6 ablation) on `PhaseAsyncLead`.
    PhaseGuess,
    /// [`PhaseBurstAttack`] (§6 motivation, must fail) on `PhaseAsyncLead`.
    PhaseBurst,
    /// [`PhaseSumAttack`] (App. E.4) on `PhaseSumLead`.
    PhaseSum,
    /// [`WakeupIdLieAttack`] (App. H) on `WakeLead`.
    WakeupIdLie,
    /// [`WakeupMaskAttack`] (App. H) on `WakeLead`.
    WakeupMask,
}

impl AttackKind {
    /// All attack kinds, in documentation order.
    pub const ALL: [AttackKind; 10] = [
        AttackKind::BasicSingle,
        AttackKind::Rushing,
        AttackKind::Cubic,
        AttackKind::RandomLocated,
        AttackKind::PhaseRushing,
        AttackKind::PhaseGuess,
        AttackKind::PhaseBurst,
        AttackKind::PhaseSum,
        AttackKind::WakeupIdLie,
        AttackKind::WakeupMask,
    ];

    /// The canonical spelling accepted by [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::BasicSingle => "basic_single",
            AttackKind::Rushing => "rushing",
            AttackKind::Cubic => "cubic",
            AttackKind::RandomLocated => "random_located",
            AttackKind::PhaseRushing => "phase_rushing",
            AttackKind::PhaseGuess => "phase_guess",
            AttackKind::PhaseBurst => "phase_burst",
            AttackKind::PhaseSum => "phase_sum",
            AttackKind::WakeupIdLie => "wakeup_id_lie",
            AttackKind::WakeupMask => "wakeup_mask",
        }
    }

    /// The display name of the protocol this attack targets.
    pub fn protocol_name(self) -> &'static str {
        match self {
            AttackKind::BasicSingle => "Basic-LEAD",
            AttackKind::Rushing | AttackKind::Cubic | AttackKind::RandomLocated => "A-LEADuni",
            AttackKind::PhaseRushing | AttackKind::PhaseGuess | AttackKind::PhaseBurst => {
                "PhaseAsyncLead"
            }
            AttackKind::PhaseSum => "PhaseSumLead",
            AttackKind::WakeupIdLie | AttackKind::WakeupMask => "WakeLead",
        }
    }

    /// `true` iff the target protocol derives per-round values from a
    /// random function, i.e. the runner's `fn_key` argument matters.
    pub fn uses_fn_key(self) -> bool {
        matches!(
            self,
            AttackKind::PhaseRushing | AttackKind::PhaseGuess | AttackKind::PhaseBurst
        )
    }

    /// Bytes one lockstep lane of this kind's groups
    /// ([`AttackRunner::run_group`]) holds on a ring of `n`: 8·n² + 32·n,
    /// a payload slot for each of the honest run's n² sends plus the
    /// nodes' registers. Unlike the honest lane bytes
    /// ([`LockstepProtocol::lane_bytes`](fle_core::protocols::LockstepProtocol::lane_bytes)),
    /// this keeps a slot per send: a deviant's bursts can keep as many
    /// groups in flight as it likes. `None` for the kinds whose trials
    /// always run scalar: the phase kinds, where node logic rather than
    /// engine relay dominates a delivery, and the wake-up kinds, whose
    /// honest nodes branch on ids.
    pub fn lane_bytes(self, n: usize) -> Option<u64> {
        let n = n as u64;
        let batches = matches!(
            self,
            AttackKind::BasicSingle
                | AttackKind::Rushing
                | AttackKind::Cubic
                | AttackKind::RandomLocated
        );
        batches.then(|| {
            n.saturating_mul(n)
                .saturating_mul(8)
                .saturating_add(n.saturating_mul(32))
        })
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AttackKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AttackKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown attack '{s}' (expected basic_single | rushing | cubic | \
                     random_located | phase_rushing | phase_guess | phase_burst | phase_sum | \
                     wakeup_id_lie | wakeup_mask)"
                )
            })
    }
}

/// One completed adversarial trial: the cached execution plus whether the
/// attack achieved its goal (by its own success predicate — forcing a
/// specific winner for most attacks, electing a ghost id for
/// [`AttackKind::WakeupIdLie`], surviving validation for
/// [`AttackKind::PhaseGuess`]).
pub struct AttackTrialResult<'a> {
    /// The execution, borrowed from the runner's internal cache.
    pub exec: &'a Execution,
    /// Whether the attack's success predicate held.
    pub success: bool,
}

/// A reusable per-thread attack executor: protocol bases hoisted and
/// engine, scheduler and arena cached, so a trial allocates only what
/// the attack builds for it: its coalition's nodes and their override
/// list (for rushing, the active layout and one `Rusher` and tail buffer
/// per member).
///
/// `seed` is the protocol instance seed, `fn_key` selects the random
/// function for phase protocols (ignored elsewhere — see
/// [`AttackKind::uses_fn_key`]), and `target` is the attack's goal:
/// the forced leader for most attacks, the coalition member *index*
/// for [`AttackKind::WakeupMask`], and ignored by
/// [`AttackKind::PhaseGuess`] / [`AttackKind::WakeupIdLie`] whose
/// success predicates do not name a winner.
///
/// [`AttackRunner::run_group`] runs several trials at once in lockstep
/// lanes ([`TrialCache::run_group`]) for the kinds with
/// [`AttackKind::lane_bytes`]; every lane's result equals its
/// [`AttackRunner::run_trial`].
pub trait AttackRunner {
    /// Runs one trial.
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] when the attack's preconditions fail
    /// for this instance.
    fn run_trial(
        &mut self,
        seed: u64,
        fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError>;

    /// Runs one trial per `(seed, fn_key, target)` of `trials` as one
    /// lockstep group, each lane with the arguments
    /// [`AttackRunner::run_trial`] takes, and calls `lane` with every
    /// trial's result in order: the same execution and verdict as its
    /// `run_trial`.
    ///
    /// Returns `false`, having called `lane` for no trial, when the kind
    /// does not batch ([`AttackKind::lane_bytes`] is `None`), when some
    /// trial is infeasible (found before anything runs), when a timed
    /// network or crash faults are installed, or when the lanes diverged.
    /// The caller then runs each trial through `run_trial`.
    fn run_group(
        &mut self,
        trials: &[(u64, u64, u64)],
        lane: &mut dyn FnMut(AttackTrialResult<'_>),
    ) -> bool;

    /// Installs (or clears) a timed network on the runner's trial cache:
    /// subsequent trials run on the engine's virtual-clock path under
    /// `net`'s per-link latency/loss/duplication profiles, with the
    /// network-noise stream derived from each trial's seed. `None`
    /// restores the untimed FIFO fast path.
    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>);

    /// Installs (or clears) a crash-fault configuration: each subsequent
    /// trial draws a [`ring_sim::FaultPlan`] from its trial seed (through
    /// the salt-separated fault stream) and applies it for that trial.
    /// `None` restores the fault-free path.
    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>);
}

/// Builds the cached runner for `kind` on a ring of `n` with the given
/// coalition layout. It runs single trials and, for the kinds with
/// [`AttackKind::lane_bytes`], lockstep groups of them.
///
/// # Errors
///
/// [`AttackError::Infeasible`] when the coalition is for a different ring
/// size, when a single-adversary attack gets `k != 1`, or when
/// [`AttackKind::Cubic`] gets a layout other than its own Theorem 4.3
/// geometric one (pass `cubic_distances(n)?.coalition()`).
///
/// # Panics
///
/// The runner's first trial panics if `n` is below the victim protocol's
/// minimum ring size (e.g. `PhaseAsyncLead` needs `n >= 4`).
pub fn build_runner(
    kind: AttackKind,
    n: usize,
    coalition: &Coalition,
) -> Result<Box<dyn AttackRunner>, AttackError> {
    if coalition.n() != n {
        return Err(AttackError::Infeasible(format!(
            "coalition is for n={}, sweep has n={n}",
            coalition.n()
        )));
    }
    let layout = || coalition.clone();
    Ok(match kind {
        AttackKind::BasicSingle => runner(BasicSingle(single_position(kind, coalition)?), n),
        AttackKind::Rushing => runner(Rushing(layout()), n),
        AttackKind::Cubic => {
            let plan = cubic_distances(n)?;
            if plan.positions() != coalition.positions() {
                return Err(AttackError::Infeasible(format!(
                    "cubic attack dictates its own Theorem 4.3 layout {:?}; \
                     use the cubic coalition placement",
                    plan.positions()
                )));
            }
            runner(Cubic(plan), n)
        }
        AttackKind::RandomLocated => runner(RandomLocated(layout()), n),
        AttackKind::PhaseRushing => runner(PhaseRushing(layout()), n),
        AttackKind::PhaseGuess => runner(PhaseGuess(single_position(kind, coalition)?), n),
        AttackKind::PhaseBurst => runner(PhaseBurst(layout()), n),
        AttackKind::PhaseSum => runner(PhaseSum(layout()), n),
        AttackKind::WakeupIdLie => runner(WakeupIdLie(layout()), n),
        AttackKind::WakeupMask => runner(WakeupMask(layout()), n),
    })
}

fn single_position(kind: AttackKind, coalition: &Coalition) -> Result<NodeId, AttackError> {
    if coalition.k() != 1 {
        return Err(AttackError::Infeasible(format!(
            "{} takes a single adversary; got a coalition of k={}",
            kind.name(),
            coalition.k()
        )));
    }
    Ok(coalition.positions()[0])
}

/// One attack as [`Runner`] drives it: the victim protocol, the node type
/// the coalition runs, how to build those nodes for one seeded instance,
/// and when a trial counts as a success.
trait Deviation {
    /// The attack this is.
    const KIND: AttackKind;
    /// The victim protocol.
    type Protocol: RingProtocol;
    /// The coalition's node type: concrete for homogeneous coalitions, so
    /// the trial cache stores them unboxed, else a boxed mix.
    type Deviant: Node<<Self::Protocol as RingProtocol>::Msg>;

    /// The victim on a ring of `n` with random-function key `fn_key`
    /// (ignored by protocols without one).
    fn base(n: usize, fn_key: u64) -> Self::Protocol;

    /// The coalition's nodes against `protocol`, aiming at `target`.
    fn deviants(&self, protocol: &Self::Protocol, target: u64) -> Deviants<Self>;

    /// Whether the trial met the attack's goal; by default, electing
    /// `target`.
    fn success(&self, _protocol: &Self::Protocol, target: u64, exec: &Execution) -> bool {
        exec.outcome.elected() == Some(target)
    }

    /// Runs one lockstep group on `cache` ([`TrialCache::run_group`]).
    /// Only victims whose messages are plain `u64`s can, so the kinds
    /// with [`AttackKind::lane_bytes`] override this; the rest never
    /// form a group.
    fn run_group(
        cache: &mut Cache<Self>,
        protocols: &[Self::Protocol],
        overrides: impl Iterator<Item = Overrides<Self>>,
    ) -> bool {
        let _ = (cache, protocols, overrides);
        false
    }
}

type Overrides<A> = Vec<(NodeId, <A as Deviation>::Deviant)>;

type Deviants<A> = Result<Overrides<A>, AttackError>;

type Cache<A> = TrialCache<
    <<A as Deviation>::Protocol as RingProtocol>::Msg,
    <<A as Deviation>::Protocol as RingProtocol>::Node,
    <A as Deviation>::Deviant,
>;

/// The one [`AttackRunner`]: the attack's layout, its victim's base
/// instance (memoized by `fn_key` for the kinds that use one, built once
/// for the rest), the trial cache, and a group's seeded victims and
/// override lists.
struct Runner<A: Deviation> {
    attack: A,
    base: Option<(u64, A::Protocol)>,
    cache: Cache<A>,
    protocols: Vec<A::Protocol>,
    overrides: Vec<Overrides<A>>,
}

fn runner<A: Deviation + 'static>(attack: A, n: usize) -> Box<dyn AttackRunner> {
    Box::new(Runner {
        attack,
        base: None,
        cache: TrialCache::ring(n),
        protocols: Vec::new(),
        overrides: Vec::new(),
    })
}

impl<A: Deviation> Runner<A> {
    /// The victim seeded with `seed` under random-function key `fn_key`.
    fn protocol(&mut self, seed: u64, fn_key: u64) -> A::Protocol {
        let key = if A::KIND.uses_fn_key() { fn_key } else { 0 };
        if !matches!(&self.base, Some((k, _)) if *k == key) {
            self.base = Some((key, A::base(self.cache.n(), key)));
        }
        let (_, base) = self.base.as_ref().expect("base was just set");
        base.seeded(seed)
    }
}

impl<A: Deviation> AttackRunner for Runner<A> {
    fn run_trial(
        &mut self,
        seed: u64,
        fn_key: u64,
        target: u64,
    ) -> Result<AttackTrialResult<'_>, AttackError> {
        let protocol = self.protocol(seed, fn_key);
        let deviants = self.attack.deviants(&protocol, target)?;
        self.cache.set_trial_seed(seed);
        let exec = protocol.run_with_in(deviants, &mut self.cache);
        let success = self.attack.success(&protocol, target, exec);
        Ok(AttackTrialResult { exec, success })
    }

    fn run_group(
        &mut self,
        trials: &[(u64, u64, u64)],
        lane: &mut dyn FnMut(AttackTrialResult<'_>),
    ) -> bool {
        self.protocols.clear();
        self.overrides.clear();
        for &(seed, fn_key, target) in trials {
            let protocol = self.protocol(seed, fn_key);
            let Ok(deviants) = self.attack.deviants(&protocol, target) else {
                return false;
            };
            self.protocols.push(protocol);
            self.overrides.push(deviants);
        }
        if !A::run_group(&mut self.cache, &self.protocols, self.overrides.drain(..)) {
            return false;
        }
        for (l, (protocol, &(_, _, target))) in self.protocols.iter().zip(trials).enumerate() {
            let exec = self.cache.lane_execution(l);
            let success = self.attack.success(protocol, target, exec);
            lane(AttackTrialResult { exec, success });
        }
        true
    }

    fn set_timed_net(&mut self, net: Option<&ring_sim::TimedNetConfig>) {
        self.cache.set_timed_net(net);
    }

    fn set_faults(&mut self, cfg: Option<&ring_sim::FaultConfig>) {
        self.cache.set_faults(cfg);
    }
}

fn phase_base(n: usize, fn_key: u64) -> PhaseAsyncLead {
    PhaseAsyncLead::new(n).with_fn_key(fn_key)
}

struct BasicSingle(NodeId);

impl Deviation for BasicSingle {
    const KIND: AttackKind = AttackKind::BasicSingle;
    type Protocol = BasicLead;
    type Deviant = WaitAndCancel;

    fn base(n: usize, _: u64) -> BasicLead {
        BasicLead::new(n)
    }

    fn deviants(&self, protocol: &BasicLead, target: u64) -> Deviants<Self> {
        Ok(vec![
            BasicSingleAttack::new(self.0, target).adversary_ring_node(protocol)?
        ])
    }

    fn run_group(
        cache: &mut Cache<Self>,
        protocols: &[BasicLead],
        overrides: impl Iterator<Item = Overrides<Self>>,
    ) -> bool {
        cache.run_group(protocols, overrides)
    }
}

struct Rushing(Coalition);

impl Deviation for Rushing {
    const KIND: AttackKind = AttackKind::Rushing;
    type Protocol = ALeadUni;
    type Deviant = Rusher;

    fn base(n: usize, _: u64) -> ALeadUni {
        ALeadUni::new(n)
    }

    fn deviants(&self, protocol: &ALeadUni, target: u64) -> Deviants<Self> {
        RushingAttack::new(target).adversary_ring_nodes(protocol, &self.0)
    }

    fn run_group(
        cache: &mut Cache<Self>,
        protocols: &[ALeadUni],
        overrides: impl Iterator<Item = Overrides<Self>>,
    ) -> bool {
        cache.run_group(protocols, overrides)
    }
}

struct Cubic(CubicPlan);

impl Deviation for Cubic {
    const KIND: AttackKind = AttackKind::Cubic;
    type Protocol = ALeadUni;
    type Deviant = Box<dyn Node<u64>>;

    fn base(n: usize, _: u64) -> ALeadUni {
        ALeadUni::new(n)
    }

    fn deviants(&self, protocol: &ALeadUni, target: u64) -> Deviants<Self> {
        CubicAttack::new(target).adversary_nodes(protocol, &self.0)
    }

    fn run_group(
        cache: &mut Cache<Self>,
        protocols: &[ALeadUni],
        overrides: impl Iterator<Item = Overrides<Self>>,
    ) -> bool {
        cache.run_group(protocols, overrides)
    }
}

struct RandomLocated(Coalition);

impl Deviation for RandomLocated {
    const KIND: AttackKind = AttackKind::RandomLocated;
    type Protocol = ALeadUni;
    type Deviant = Box<dyn Node<u64>>;

    fn base(n: usize, _: u64) -> ALeadUni {
        ALeadUni::new(n)
    }

    fn deviants(&self, protocol: &ALeadUni, target: u64) -> Deviants<Self> {
        RandomLocatedAttack::new(target, RANDOM_LOCATED_WINDOW).adversary_nodes(protocol, &self.0)
    }

    fn run_group(
        cache: &mut Cache<Self>,
        protocols: &[ALeadUni],
        overrides: impl Iterator<Item = Overrides<Self>>,
    ) -> bool {
        cache.run_group(protocols, overrides)
    }
}

struct PhaseRushing(Coalition);

impl Deviation for PhaseRushing {
    const KIND: AttackKind = AttackKind::PhaseRushing;
    type Protocol = PhaseAsyncLead;
    type Deviant = PhaseRusher;

    fn base(n: usize, fn_key: u64) -> PhaseAsyncLead {
        phase_base(n, fn_key)
    }

    fn deviants(&self, protocol: &PhaseAsyncLead, target: u64) -> Deviants<Self> {
        PhaseRushingAttack::new(target).adversary_ring_nodes(protocol, &self.0)
    }
}

struct PhaseGuess(NodeId);

impl Deviation for PhaseGuess {
    const KIND: AttackKind = AttackKind::PhaseGuess;
    type Protocol = PhaseAsyncLead;
    type Deviant = Box<dyn Node<PhaseMsg>>;

    fn base(n: usize, fn_key: u64) -> PhaseAsyncLead {
        phase_base(n, fn_key)
    }

    fn deviants(&self, protocol: &PhaseAsyncLead, _: u64) -> Deviants<Self> {
        PhaseGuessAttack::new(self.0).adversary_nodes(protocol)
    }

    /// The guess "wins" by surviving validation at all (probability
    /// exactly `1/m`): any elected leader counts.
    fn success(&self, _: &PhaseAsyncLead, _: u64, exec: &Execution) -> bool {
        exec.outcome.elected().is_some()
    }
}

struct PhaseBurst(Coalition);

impl Deviation for PhaseBurst {
    const KIND: AttackKind = AttackKind::PhaseBurst;
    type Protocol = PhaseAsyncLead;
    type Deviant = Box<dyn Node<PhaseMsg>>;

    fn base(n: usize, fn_key: u64) -> PhaseAsyncLead {
        phase_base(n, fn_key)
    }

    fn deviants(&self, protocol: &PhaseAsyncLead, target: u64) -> Deviants<Self> {
        PhaseBurstAttack::new(target).adversary_nodes(protocol, &self.0)
    }
}

struct PhaseSum(Coalition);

impl Deviation for PhaseSum {
    const KIND: AttackKind = AttackKind::PhaseSum;
    type Protocol = PhaseSumLead;
    type Deviant = Box<dyn Node<PhaseMsg>>;

    fn base(n: usize, _: u64) -> PhaseSumLead {
        PhaseSumLead::new(n)
    }

    fn deviants(&self, protocol: &PhaseSumLead, target: u64) -> Deviants<Self> {
        PhaseSumAttack::new(target).adversary_nodes(protocol, &self.0)
    }
}

struct WakeupIdLie(Coalition);

impl Deviation for WakeupIdLie {
    const KIND: AttackKind = AttackKind::WakeupIdLie;
    type Protocol = WakeLead;
    type Deviant = Box<dyn Node<WakeMsg>>;

    fn base(n: usize, _: u64) -> WakeLead {
        WakeLead::new(n)
    }

    fn deviants(&self, protocol: &WakeLead, _: u64) -> Deviants<Self> {
        WakeupIdLieAttack::new().adversary_nodes(protocol, &self.0)
    }

    /// Success: a fabricated (ghost) id won the election.
    fn success(&self, _: &WakeLead, _: u64, exec: &Execution) -> bool {
        exec.outcome
            .elected()
            .is_some_and(WakeupIdLieAttack::is_ghost)
    }
}

/// `target` is the coalition member index.
struct WakeupMask(Coalition);

impl Deviation for WakeupMask {
    const KIND: AttackKind = AttackKind::WakeupMask;
    type Protocol = WakeLead;
    type Deviant = Box<dyn Node<WakeMsg>>;

    fn base(n: usize, _: u64) -> WakeLead {
        WakeLead::new(n)
    }

    fn deviants(&self, protocol: &WakeLead, target: u64) -> Deviants<Self> {
        WakeupMaskAttack::new(target as usize).adversary_nodes(protocol, &self.0)
    }

    /// Success: the member's fabricated id, which depends on the
    /// per-seed id draw, won. The trial ran, so the plan is feasible.
    fn success(&self, protocol: &WakeLead, target: u64, exec: &Execution) -> bool {
        WakeupMaskAttack::new(target as usize)
            .plan(protocol, &self.0)
            .is_ok_and(|plan| exec.outcome.elected() == Some(plan.target_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_kind_parses_every_canonical_name() {
        for kind in AttackKind::ALL {
            assert_eq!(kind.name().parse::<AttackKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = "rush".parse::<AttackKind>().unwrap_err();
        assert!(err.contains("unknown attack 'rush'"), "{err}");
        assert!(err.contains("wakeup_mask"), "{err}");
    }

    #[test]
    fn build_runner_rejects_bad_layouts() {
        let wrong_n = Coalition::equally_spaced(8, 2, 1).unwrap();
        assert!(build_runner(AttackKind::Rushing, 16, &wrong_n).is_err());

        let pair = Coalition::new(16, vec![3, 9]).unwrap();
        assert!(build_runner(AttackKind::BasicSingle, 16, &pair).is_err());
        assert!(build_runner(AttackKind::PhaseGuess, 16, &pair).is_err());

        let not_cubic = Coalition::equally_spaced(16, 8, 1).unwrap();
        let Err(err) = build_runner(AttackKind::Cubic, 16, &not_cubic) else {
            panic!("non-cubic layout must be rejected");
        };
        assert!(
            err.to_string().contains("Theorem 4.3 layout"),
            "unexpected error: {err}"
        );
        let cubic = cubic_distances(16).unwrap().coalition();
        assert!(build_runner(AttackKind::Cubic, 16, &cubic).is_ok());
    }

    #[test]
    fn rushing_runner_matches_direct_attack_runs() {
        let n = 16;
        let coalition = Coalition::equally_spaced(n, 7, 1).unwrap();
        let mut runner = build_runner(AttackKind::Rushing, n, &coalition).unwrap();
        for seed in 0..20u64 {
            let target = seed % n as u64;
            let p = ALeadUni::new(n).with_seed(seed);
            let direct = RushingAttack::new(target).run(&p, &coalition).unwrap();
            let cached = runner.run_trial(seed, 0, target).unwrap();
            assert_eq!(cached.exec.outcome, direct.outcome, "seed {seed}");
            assert_eq!(
                cached.success,
                direct.outcome.elected() == Some(target),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn phase_runner_matches_direct_attack_runs_across_fn_keys() {
        let n = 16;
        let coalition = Coalition::equally_spaced(n, 7, 1).unwrap();
        let mut runner = build_runner(AttackKind::PhaseRushing, n, &coalition).unwrap();
        for seed in 0..10u64 {
            let fn_key = seed / 2; // exercise both memo hits and misses
            let p = PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(fn_key);
            let direct = PhaseRushingAttack::new(3).run(&p, &coalition).unwrap();
            let cached = runner.run_trial(seed, fn_key, 3).unwrap();
            assert_eq!(cached.exec.outcome, direct.outcome, "seed {seed}");
        }
    }

    #[test]
    fn wakeup_runners_score_ghost_and_member_targets() {
        let n = 12;
        let lone = Coalition::new(n, vec![4]).unwrap();
        let mut id_lie = build_runner(AttackKind::WakeupIdLie, n, &lone).unwrap();
        let r = id_lie.run_trial(5, 0, 0).unwrap();
        if let Some(id) = r.exec.outcome.elected() {
            assert_eq!(r.success, WakeupIdLieAttack::is_ghost(id));
        }

        let coalition = Coalition::equally_spaced(n, 5, 1).unwrap();
        let mut mask = build_runner(AttackKind::WakeupMask, n, &coalition).unwrap();
        let r = mask.run_trial(5, 0, 2).unwrap();
        let p = WakeLead::new(n).with_seed(5);
        let plan = WakeupMaskAttack::new(2).plan(&p, &coalition).unwrap();
        assert_eq!(r.success, r.exec.outcome.elected() == Some(plan.target_id));
        // Out-of-range member index is an infeasibility, not a panic.
        assert!(mask.run_trial(5, 0, 99).is_err());
    }

    /// Every kind's cached runner against its `SimBuilder` reference path
    /// (the attack's own `run`): the same [`Execution`] and the same
    /// success verdict on 16 seeds at a layout the runner accepts, with
    /// `fn_key` changes for the phase kinds (memo hits and misses), and
    /// one refused target or layout per kind that can refuse one.
    #[test]
    fn every_kind_matches_its_reference_path() {
        use crate::{
            build_runner, cubic_distances, AttackError, AttackKind, BasicSingleAttack, CubicAttack,
            PhaseBurstAttack, PhaseGuessAttack, PhaseRushingAttack, PhaseSumAttack,
            RandomLocatedAttack, RushingAttack, WakeupIdLieAttack, WakeupMaskAttack,
            RANDOM_LOCATED_WINDOW,
        };
        use fle_core::protocols::{ALeadUni, BasicLead, PhaseAsyncLead, PhaseSumLead, WakeLead};
        use fle_core::{Coalition, Execution};

        /// The reference execution of one trial and its success verdict.
        fn reference(
            kind: AttackKind,
            coalition: &Coalition,
            seed: u64,
            fn_key: u64,
            target: u64,
        ) -> Result<(Execution, bool), AttackError> {
            let n = coalition.n();
            let pos = coalition.positions()[0];
            let alead = ALeadUni::new(n).with_seed(seed);
            let phase = || PhaseAsyncLead::new(n).with_seed(seed).with_fn_key(fn_key);
            let wake = WakeLead::new(n).with_seed(seed);
            let exec = match kind {
                AttackKind::BasicSingle => {
                    BasicSingleAttack::new(pos, target).run(&BasicLead::new(n).with_seed(seed))?
                }
                AttackKind::Rushing => RushingAttack::new(target).run(&alead, coalition)?,
                AttackKind::Cubic => CubicAttack::new(target).run(&alead, &cubic_distances(n)?)?,
                AttackKind::RandomLocated => {
                    RandomLocatedAttack::new(target, RANDOM_LOCATED_WINDOW)
                        .run(&alead, coalition)?
                }
                AttackKind::PhaseRushing => {
                    PhaseRushingAttack::new(target).run(&phase(), coalition)?
                }
                AttackKind::PhaseGuess => PhaseGuessAttack::new(pos).run(&phase())?,
                AttackKind::PhaseBurst => PhaseBurstAttack::new(target).run(&phase(), coalition)?,
                AttackKind::PhaseSum => PhaseSumAttack::new(target)
                    .run(&PhaseSumLead::new(n).with_seed(seed), coalition)?,
                AttackKind::WakeupIdLie => WakeupIdLieAttack::new().run(&wake, coalition)?,
                AttackKind::WakeupMask => {
                    WakeupMaskAttack::new(target as usize).run(&wake, coalition)?
                }
            };
            let elected = exec.outcome.elected();
            let success = match kind {
                AttackKind::PhaseGuess => elected.is_some(),
                AttackKind::WakeupIdLie => elected.is_some_and(WakeupIdLieAttack::is_ghost),
                AttackKind::WakeupMask => {
                    let plan = WakeupMaskAttack::new(target as usize).plan(&wake, coalition)?;
                    elected == Some(plan.target_id)
                }
                _ => elected == Some(target),
            };
            Ok((exec, success))
        }

        let spaced = |n, k, offset| Coalition::equally_spaced(n, k, offset).unwrap();
        let single = |n, pos| Coalition::new(n, vec![pos]).unwrap();
        // (kind, accepted layout, target range) per kind.
        let accepted = [
            (AttackKind::BasicSingle, single(8, 5), 8),
            (AttackKind::Rushing, spaced(16, 7, 1), 16),
            (
                AttackKind::Cubic,
                cubic_distances(27).unwrap().coalition(),
                27,
            ),
            (AttackKind::RandomLocated, spaced(49, 12, 1), 49),
            (AttackKind::PhaseRushing, spaced(16, 7, 1), 16),
            (AttackKind::PhaseGuess, single(8, 3), 8),
            (AttackKind::PhaseBurst, spaced(16, 4, 2), 16),
            (AttackKind::PhaseSum, spaced(32, 4, 1), 32),
            (AttackKind::WakeupIdLie, spaced(10, 4, 1), 1),
            (AttackKind::WakeupMask, spaced(12, 5, 1), 5),
        ];
        for (kind, coalition, targets) in accepted {
            let mut runner = build_runner(kind, coalition.n(), &coalition).unwrap();
            let (mut successes, mut groups) = (0, 0);
            for seed in 0..16u64 {
                // Phase kinds see each key twice in a row, then a new one.
                let fn_key = if kind.uses_fn_key() { seed / 2 } else { 0 };
                let target = (seed * 7 + 1) % targets;
                let (exec, success) = reference(kind, &coalition, seed, fn_key, target)
                    .unwrap_or_else(|e| panic!("{kind} seed {seed}: {e}"));
                let cached = runner.run_trial(seed, fn_key, target).unwrap();
                assert_eq!(cached.exec, &exec, "{kind} seed {seed}");
                assert_eq!(cached.success, success, "{kind} seed {seed}");
                successes += u32::from(success);
                // The same trial as a one-lane group, where the kind batches.
                let mut lanes = Vec::new();
                let trial = [(seed, fn_key, target)];
                if runner.run_group(&trial, &mut |r| lanes.push((r.exec.clone(), r.success))) {
                    assert_eq!(lanes, [(exec, success)], "{kind} seed {seed} as a group");
                    groups += 1;
                }
            }
            assert_eq!(
                groups > 0,
                kind.lane_bytes(coalition.n()).is_some(),
                "{kind}: groups run exactly for the kinds with lane bytes"
            );
            // The layouts are ones where the attack mostly works (the
            // guess and the doomed burst aside), so the verdicts are not
            // all trivially false.
            if !matches!(kind, AttackKind::PhaseGuess | AttackKind::PhaseBurst) {
                assert!(successes > 0, "{kind}: no trial succeeded");
            }
        }

        // Targets or layouts the runner accepts at build time but a trial
        // refuses, exactly as the reference path refuses them.
        let refused_trials = [
            (AttackKind::BasicSingle, single(8, 5), 8),
            (
                AttackKind::Rushing,
                Coalition::new(16, vec![5, 11]).unwrap(),
                1,
            ),
            (
                AttackKind::Cubic,
                cubic_distances(27).unwrap().coalition(),
                27,
            ),
            (AttackKind::RandomLocated, spaced(49, 12, 1), 49),
            (AttackKind::PhaseRushing, spaced(16, 7, 0), 3),
            (AttackKind::PhaseGuess, single(8, 0), 0),
            (AttackKind::PhaseBurst, spaced(16, 4, 2), 16),
            (AttackKind::PhaseSum, spaced(32, 3, 1), 2),
            (AttackKind::WakeupMask, spaced(12, 5, 1), 5),
        ];
        for (kind, coalition, target) in refused_trials {
            let refusal = reference(kind, &coalition, 1, 0, target).err();
            assert!(refusal.is_some(), "{kind}: the reference must refuse");
            let mut runner = build_runner(kind, coalition.n(), &coalition).unwrap();
            assert_eq!(runner.run_trial(1, 0, target).err(), refusal, "{kind}");
        }
        // Layouts refused when the runner is built.
        let pair = Coalition::new(16, vec![3, 9]).unwrap();
        for kind in [AttackKind::BasicSingle, AttackKind::PhaseGuess] {
            assert!(build_runner(kind, 16, &pair).is_err(), "{kind}");
        }
        assert!(build_runner(AttackKind::Cubic, 27, &spaced(27, 5, 1)).is_err());
        for kind in AttackKind::ALL {
            assert!(build_runner(kind, 12, &spaced(16, 4, 1)).is_err(), "{kind}");
        }
    }
}
