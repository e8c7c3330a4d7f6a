//! Appendix H attacks on the unknown-ids protocol `WakeLead`.
//!
//! The paper's Appendix H identifies two distinct problems with running
//! the ring election when the id set is *not* known in advance:
//!
//! 1. **The problem definition is fragile.** Under the natural extension
//!    of rational utilities to an id space `Σ` — `u₀(x) = 1[x ∉ Ω]`, where
//!    `Ω` is the true id set — a coalition that simply lies about its ids
//!    gains expected utility `k/n`, so *no* protocol is `ε`-`k`-resilient
//!    for any `k ≥ 1`. [`WakeupIdLieAttack`] reproduces this exactly: the
//!    adversaries follow the protocol to the letter, except their
//!    announcements are fabricated ids.
//!
//! 2. **The wake-up phase leaks and misleads.** Adversaries can rewrite
//!    the ids crossing them so that *every honest segment believes it
//!    contains the origin* (the minimum id): each adversary masks foreign
//!    honest ids (making them large), restores them when they re-enter
//!    their home segment, and marks coalition announcements so they pass
//!    verbatim. [`WakeupMaskAttack`] combines this with the Lemma 4.1
//!    rushing machinery: every segment runs "its own" election —
//!    fed, counted and validated exactly as `A-LEADuni` demands — yet all
//!    of them elect the same fabricated coalition id. The attack succeeds
//!    with probability 1 whenever every honest segment has `l_j ≤ k − 1`,
//!    while every honest processor passes all validations.
//!
//! The paper leaves extending the *resilience* proofs to the wake-up
//! model open; these attacks are the constructive half of Appendix H.

use crate::AttackError;
use fle_core::protocols::{FleProtocol, RingProtocol, WakeLead, WakeMsg};
use fle_core::{Coalition, DeviationNodes, Execution, Node, NodeId};
use ring_sim::Ctx;

/// High bit adversaries OR into foreign honest ids ("masking"). True ids
/// are 48-bit, so masking is invertible and collision-free.
const FOREIGN_MARK: u64 = 1 << 50;
/// High bit marking coalition announcements, which every adversary
/// forwards verbatim so all segments agree on them.
const COALITION_MARK: u64 = 1 << 51;

/// The Appendix H id-lying deviation: protocol-honest behaviour with
/// fabricated id announcements.
///
/// # Examples
///
/// ```
/// use fle_attacks::WakeupIdLieAttack;
/// use fle_core::protocols::{FleProtocol, WakeLead};
/// use fle_core::Coalition;
///
/// let protocol = WakeLead::new(8).with_seed(1);
/// let coalition = Coalition::new(8, vec![2, 5]).unwrap();
/// let exec = WakeupIdLieAttack::new().run(&protocol, &coalition).unwrap();
/// let winner = exec.outcome.elected().unwrap();
/// // The election still succeeds — but the winner may be a ghost id.
/// assert!(winner < u64::MAX);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WakeupIdLieAttack;

impl WakeupIdLieAttack {
    /// Creates the deviation.
    pub fn new() -> Self {
        Self
    }

    /// The fabricated id a coalition member at `pos` announces: its real
    /// id with the coalition mark bit set — guaranteed outside the 48-bit
    /// space `Ω`, yet indistinguishable from a legal id to processors
    /// that do not know `Ω`.
    pub fn fake_id(protocol: &WakeLead, pos: NodeId) -> u64 {
        protocol.ids()[pos] | COALITION_MARK
    }

    /// `true` iff `id` could not belong to the protocol's id space (used
    /// by experiments to score `u₀`).
    pub fn is_ghost(id: u64) -> bool {
        id >> WakeLead::ID_BITS != 0
    }

    /// Builds the deviation nodes.
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] if the coalition is for a different
    /// ring size.
    pub fn adversary_nodes(
        &self,
        protocol: &WakeLead,
        coalition: &Coalition,
    ) -> Result<DeviationNodes<WakeMsg>, AttackError> {
        if coalition.n() != protocol.n() {
            return Err(AttackError::Infeasible(format!(
                "coalition is for a ring of {} but the protocol has n={}",
                coalition.n(),
                protocol.n()
            )));
        }
        Ok(coalition
            .positions()
            .iter()
            .map(|&pos| {
                (
                    pos,
                    protocol.node_with_identity(pos, Self::fake_id(protocol, pos)),
                )
            })
            .collect())
    }

    /// Runs the deviation.
    ///
    /// # Errors
    ///
    /// Propagates [`WakeupIdLieAttack::adversary_nodes`] errors.
    pub fn run(
        &self,
        protocol: &WakeLead,
        coalition: &Coalition,
    ) -> Result<Execution, AttackError> {
        Ok(protocol.run_with(self.adversary_nodes(protocol, coalition)?))
    }
}

/// The combined masking + rushing attack of Appendix H.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeupMaskAttack {
    /// Which coalition member's fabricated id gets elected (index into
    /// the coalition's position list).
    target_member: usize,
}

/// The planning output of [`WakeupMaskAttack::plan`]: what each honest
/// segment will believe after the poisoned wake-up phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskPlan {
    /// The fabricated id every segment will elect.
    pub target_id: u64,
    /// Ring position of the targeted coalition member.
    pub target_pos: NodeId,
    /// Per non-empty honest segment: `(segment index, believed origin
    /// position, believed index of the target)`.
    pub segment_origins: Vec<(usize, NodeId, u64)>,
}

impl WakeupMaskAttack {
    /// An attack electing the fabricated id of the coalition's
    /// `target_member`-th position.
    pub fn new(target_member: usize) -> Self {
        Self { target_member }
    }

    /// Computes the per-segment beliefs the masking induces and checks
    /// the Lemma 4.1 feasibility condition (`l_j ≤ k − 1` for all `j`).
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] on layout violations.
    pub fn plan(
        &self,
        protocol: &WakeLead,
        coalition: &Coalition,
    ) -> Result<MaskPlan, AttackError> {
        let n = protocol.n();
        if coalition.n() != n {
            return Err(AttackError::Infeasible(format!(
                "coalition is for a ring of {} but the protocol has n={n}",
                coalition.n()
            )));
        }
        let k = coalition.k();
        if self.target_member >= k {
            return Err(AttackError::Infeasible(format!(
                "target member {} out of range for k={k}",
                self.target_member
            )));
        }
        if let Some((j, l)) = coalition
            .distances()
            .into_iter()
            .enumerate()
            .find(|&(_, l)| l > k - 1)
        {
            return Err(AttackError::Infeasible(format!(
                "segment I_{j} has length {l} > k - 1 = {} (Lemma 4.1 requires l_j <= k - 1)",
                k - 1
            )));
        }
        let target_pos = coalition.positions()[self.target_member];
        let target_id = protocol.ids()[target_pos] | COALITION_MARK;
        let mut segment_origins = Vec::new();
        let positions = coalition.positions();
        let distances = coalition.distances();
        for (j, (&apos, &l)) in positions.iter().zip(distances.iter()).enumerate() {
            if l == 0 {
                continue;
            }
            // Believed origin of segment j: the member with the smallest
            // *raw* id (local ids stay unmasked; everything else is
            // larger by construction).
            let origin = (1..=l)
                .map(|s| (apos + s) % n)
                .min_by_key(|&p| protocol.ids()[p])
                .expect("segment is non-empty");
            let w = ((target_pos + n - origin) % n) as u64;
            segment_origins.push((j, origin, w));
        }
        Ok(MaskPlan {
            target_id,
            target_pos,
            segment_origins,
        })
    }

    /// Builds the deviation nodes.
    ///
    /// # Errors
    ///
    /// Propagates [`WakeupMaskAttack::plan`] errors.
    pub fn adversary_nodes(
        &self,
        protocol: &WakeLead,
        coalition: &Coalition,
    ) -> Result<DeviationNodes<WakeMsg>, AttackError> {
        let plan = self.plan(protocol, coalition)?;
        let n = protocol.n();
        let k = coalition.k();
        let mut nodes: DeviationNodes<WakeMsg> = Vec::with_capacity(k);
        let distances = coalition.distances();
        for (idx, (&pos, &l)) in coalition.positions().iter().zip(&distances).enumerate() {
            // The ids of this adversary's successor segment, which it
            // must deliver unmasked for wake-ups to complete.
            let mut succ_ids = Vec::with_capacity(l);
            for step in 1..=l {
                succ_ids.push(protocol.ids()[(pos + step) % n]);
            }
            // Target index for this segment: position of the target in
            // the segment's believed ring (origin = its min raw id). For
            // empty segments the stream sum is never validated.
            let w = plan
                .segment_origins
                .iter()
                .find(|&&(j, _, _)| j == idx)
                .map(|&(_, _, w)| w)
                .unwrap_or(0);
            nodes.push((
                pos,
                Box::new(MaskRusher {
                    n: n as u64,
                    k: k as u64,
                    l: l as u64,
                    w,
                    announce: protocol.ids()[pos] | COALITION_MARK,
                    target_id: plan.target_id,
                    succ_ids,
                    ids_seen: 0,
                    count: 0,
                    sum: 0,
                    tail: Vec::with_capacity(l),
                }),
            ));
        }
        Ok(nodes)
    }

    /// Runs the full attack.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Infeasible`] when the layout precondition
    /// fails.
    pub fn run(
        &self,
        protocol: &WakeLead,
        coalition: &Coalition,
    ) -> Result<Execution, AttackError> {
        Ok(protocol.run_with(self.adversary_nodes(protocol, coalition)?))
    }
}

/// The Appendix H adversary: masks / restores ids during the wake-up
/// phase, then runs the Lemma 4.1 rushing strategy with a per-segment
/// target index.
struct MaskRusher {
    n: u64,
    k: u64,
    l: u64,
    /// Target *index* in the successor segment's believed ring.
    w: u64,
    /// Our fabricated announcement.
    announce: u64,
    /// The id every honest processor will end up electing.
    target_id: u64,
    /// Raw ids of the successor segment (delivered unmasked).
    succ_ids: Vec<u64>,
    ids_seen: u64,
    count: u64,
    sum: u64,
    tail: Vec<u64>,
}

impl Node<WakeMsg> for MaskRusher {
    fn on_wake(&mut self, ctx: &mut Ctx<'_, WakeMsg>) {
        ctx.send(WakeMsg::Id(self.announce));
    }

    fn on_message(&mut self, _from: NodeId, msg: WakeMsg, ctx: &mut Ctx<'_, WakeMsg>) {
        match msg {
            WakeMsg::Id(y) => {
                self.ids_seen += 1;
                if y == self.announce {
                    // Own announcement came full circle: wake-up done.
                    return;
                }
                if y & COALITION_MARK != 0 {
                    // Coalition announcements pass verbatim everywhere.
                    ctx.send(WakeMsg::Id(y));
                    return;
                }
                let raw = y & !FOREIGN_MARK;
                if self.succ_ids.contains(&raw) {
                    // Home-bound id: restore it so its owner's wake-up
                    // completes and the segment's local ids stay minimal.
                    ctx.send(WakeMsg::Id(raw));
                } else {
                    ctx.send(WakeMsg::Id(raw | FOREIGN_MARK));
                }
            }
            WakeMsg::Data(v) => {
                // Lemma 4.1 rushing with target index `w` (cf.
                // `RushingAttack`): pipe n − k, then burst.
                let m = v % self.n;
                self.count += 1;
                if self.count > self.n - self.k {
                    return;
                }
                self.sum = (self.sum + m) % self.n;
                if self.count > self.n - self.k - self.l {
                    self.tail.push(m);
                }
                ctx.send(WakeMsg::Data(m));
                if self.count == self.n - self.k {
                    let tail_sum = self.tail.iter().sum::<u64>() % self.n;
                    let correcting = (self.w + 2 * self.n - self.sum - tail_sum) % self.n;
                    ctx.send(WakeMsg::Data(correcting));
                    for _ in 0..(self.k - 1 - self.l) {
                        ctx.send(WakeMsg::Data(0));
                    }
                    for i in 0..self.tail.len() {
                        let v = self.tail[i];
                        ctx.send(WakeMsg::Data(v));
                    }
                    ctx.terminate(Some(self.target_id));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::Outcome;

    #[test]
    fn id_lie_elects_ghosts_at_rate_k_over_n() {
        let n = 8;
        let coalition = Coalition::new(n, vec![1, 4]).unwrap();
        let mut ghosts = 0u32;
        let trials = 400;
        for seed in 0..trials {
            let protocol = WakeLead::new(n).with_seed(seed);
            let exec = WakeupIdLieAttack::new().run(&protocol, &coalition).unwrap();
            let winner = exec.outcome.elected().expect("protocol still succeeds");
            if WakeupIdLieAttack::is_ghost(winner) {
                ghosts += 1;
            } else {
                assert!(protocol.ids().contains(&winner));
            }
        }
        // E[u0] = k/n = 1/4; allow generous sampling slack.
        let rate = ghosts as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.08, "ghost rate {rate}");
    }

    #[test]
    fn id_lie_never_fails_the_election() {
        let n = 6;
        let coalition = Coalition::new(n, vec![0, 3]).unwrap();
        for seed in 0..40 {
            let protocol = WakeLead::new(n).with_seed(seed);
            let exec = WakeupIdLieAttack::new().run(&protocol, &coalition).unwrap();
            assert!(exec.outcome.elected().is_some(), "seed {seed}");
        }
    }

    #[test]
    fn mask_attack_forces_the_fabricated_target() {
        // n = 16, k = 4 equally spaced: l_j = 3 = k − 1.
        let n = 16;
        for seed in 0..10 {
            let protocol = WakeLead::new(n).with_seed(seed);
            let coalition = Coalition::equally_spaced(n, 4, 0).unwrap();
            let attack = WakeupMaskAttack::new(2);
            let plan = attack.plan(&protocol, &coalition).unwrap();
            let exec = attack.run(&protocol, &coalition).unwrap();
            assert_eq!(
                exec.outcome,
                Outcome::Elected(plan.target_id),
                "seed {seed}"
            );
            // The elected id is a ghost: it is not in the true id space.
            assert!(WakeupIdLieAttack::is_ghost(plan.target_id));
        }
    }

    #[test]
    fn mask_attack_allocates_an_origin_in_every_segment() {
        let n = 20;
        let protocol = WakeLead::new(n).with_seed(3);
        let coalition = Coalition::equally_spaced(n, 5, 1).unwrap();
        let plan = WakeupMaskAttack::new(0)
            .plan(&protocol, &coalition)
            .unwrap();
        // Five non-empty segments, each with its own believed origin.
        assert_eq!(plan.segment_origins.len(), 5);
        let mut origins: Vec<NodeId> = plan.segment_origins.iter().map(|&(_, o, _)| o).collect();
        origins.sort_unstable();
        origins.dedup();
        assert_eq!(origins.len(), 5, "origins must be distinct processors");
        // No believed origin is a coalition member.
        assert!(origins.iter().all(|o| !coalition.contains(*o)));
    }

    #[test]
    fn mask_attack_respects_the_lemma_41_boundary() {
        let n = 24;
        let protocol = WakeLead::new(n).with_seed(0);
        // k = 3 equally spaced: l_j = 7 > k − 1 = 2.
        let coalition = Coalition::equally_spaced(n, 3, 0).unwrap();
        let err = WakeupMaskAttack::new(0)
            .run(&protocol, &coalition)
            .unwrap_err();
        assert!(matches!(err, AttackError::Infeasible(_)));
    }

    #[test]
    fn mask_attack_works_for_every_target_member() {
        let n = 12;
        let protocol = WakeLead::new(n).with_seed(7);
        let coalition = Coalition::equally_spaced(n, 4, 2).unwrap();
        for member in 0..4 {
            let attack = WakeupMaskAttack::new(member);
            let plan = attack.plan(&protocol, &coalition).unwrap();
            let exec = attack.run(&protocol, &coalition).unwrap();
            assert_eq!(
                exec.outcome,
                Outcome::Elected(plan.target_id),
                "member {member}"
            );
        }
    }

    #[test]
    fn out_of_range_target_member_is_rejected() {
        let protocol = WakeLead::new(8).with_seed(0);
        let coalition = Coalition::new(8, vec![0, 4]).unwrap();
        assert!(WakeupMaskAttack::new(2)
            .plan(&protocol, &coalition)
            .is_err());
    }
}
