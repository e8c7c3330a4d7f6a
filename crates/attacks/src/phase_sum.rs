//! The Appendix E.4 attack: four adversaries defeat phase validation when
//! the output is a **sum** instead of a random function.
//!
//! With long honest segments an adversary commits to its correcting value
//! before its own segment's secrets arrive on the data channel — but the
//! *validation channel* moves without delay, and in rounds whose validator
//! is a coalition member nobody checks the circulating value. The
//! coalition abuses exactly two such rounds:
//!
//! 1. **Accumulate** (round `r₁`, validator = second adversary): the
//!    validator originates the sum of the segment behind it; every other
//!    adversary adds its own behind-segment sum while forwarding. After a
//!    full circle the total honest sum `S` is known to two adversaries.
//! 2. **Broadcast** (round `r₂`, validator = third adversary): the second
//!    adversary *pre-sends* `S` as the round's validation value right
//!    after its data send (the validator can't object — it's in the
//!    coalition and simply treats the early value as its own origination);
//!    every adversary downstream copies `S`.
//!
//! Every adversary then knows `S` before its commitment point and steers
//! its segment's sum to the target exactly as in the rushing attack.
//! This is the experiment that motivates `PhaseAsyncLead`'s random `f`:
//! partial sums of the input are useful, partial images of a random
//! function are not.

use crate::AttackError;
use fle_core::protocols::{FleProtocol, PhaseMsg, PhaseSumLead, RingProtocol};
use fle_core::{Coalition, DeviationNodes, Execution, Node, NodeId};
use ring_sim::rng::SplitMix64;
use ring_sim::Ctx;

/// The Appendix E.4 attack on [`PhaseSumLead`] with `k ≥ 4` adversaries.
///
/// # Examples
///
/// ```
/// use fle_attacks::PhaseSumAttack;
/// use fle_core::protocols::PhaseSumLead;
/// use fle_core::Coalition;
/// use ring_sim::Outcome;
///
/// let n = 64;
/// let protocol = PhaseSumLead::new(n).with_seed(6);
/// let coalition = Coalition::equally_spaced(n, 4, 1).unwrap();
/// let exec = PhaseSumAttack::new(10).run(&protocol, &coalition).unwrap();
/// assert_eq!(exec.outcome, Outcome::Elected(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSumAttack {
    target: u64,
}

/// Per-adversary role in the two validation-channel phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Roles {
    /// Originates the accumulation in round `r₁` (the paper's `a₂`).
    is_accumulator: bool,
    /// The adversary immediately before the accumulator in ring order
    /// (the paper's `a₁`): its addition completes the sum.
    is_last_adder: bool,
    /// Validator of round `r₂` (the paper's `a₃`): delays its origination
    /// and replays the pre-sent `S`.
    is_broadcast_validator: bool,
}

impl PhaseSumAttack {
    /// An attack forcing the election of `target`.
    pub fn new(target: u64) -> Self {
        Self { target }
    }

    /// The forced leader.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Checks the attack preconditions.
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] when `k < 4`, the origin is corrupted,
    /// some adversaries are adjacent, or the broadcast round would come
    /// after some adversary's commitment point (`r₂ > n − k − l_j`).
    pub fn plan(&self, protocol: &PhaseSumLead, coalition: &Coalition) -> Result<(), AttackError> {
        let n = protocol.n();
        if coalition.n() != n {
            return Err(AttackError::Infeasible(format!(
                "coalition is for n={}, protocol has n={n}",
                coalition.n()
            )));
        }
        if self.target >= n as u64 {
            return Err(AttackError::Infeasible(format!(
                "target {} out of range for n={n}",
                self.target
            )));
        }
        if coalition.contains(0) {
            return Err(AttackError::Infeasible(
                "corrupted origin must behave honestly; pick positions >= 1".into(),
            ));
        }
        let k = coalition.k();
        if k < 4 {
            return Err(AttackError::Infeasible(format!(
                "the partial-sum relay needs k >= 4 (paper E.4), got k={k}"
            )));
        }
        if coalition.distances().contains(&0) {
            return Err(AttackError::Infeasible(
                "adjacent adversaries not supported by the relay bookkeeping".into(),
            ));
        }
        let r2 = coalition.positions()[2] + 1;
        for (j, &l) in coalition.distances().iter().enumerate() {
            if r2 > n - k - l {
                return Err(AttackError::Infeasible(format!(
                    "broadcast round r2={r2} is after adversary {j}'s commitment \
                     point {} (segments too long / too unbalanced)",
                    n - k - l
                )));
            }
        }
        Ok(())
    }

    /// Builds the deviation nodes for the coalition.
    ///
    /// # Errors
    ///
    /// Propagates [`PhaseSumAttack::plan`] errors.
    pub fn adversary_nodes(
        &self,
        protocol: &PhaseSumLead,
        coalition: &Coalition,
    ) -> Result<DeviationNodes<PhaseMsg>, AttackError> {
        self.plan(protocol, coalition)?;
        let params = protocol.params();
        let n = params.n;
        let k = coalition.k();
        let positions = coalition.positions();
        let distances = coalition.distances();
        let r1 = positions[1] + 1;
        let r2 = positions[2] + 1;
        Ok((0..k)
            .map(|j| {
                let pos = positions[j];
                // The honest segment *behind* adversary j is segment j−1.
                let l_behind = distances[(j + k - 1) % k];
                let roles = Roles {
                    is_accumulator: j == 1,
                    is_last_adder: j == 0,
                    is_broadcast_validator: j == 2,
                };
                let node: Box<dyn Node<PhaseMsg>> = Box::new(SumRelayAdversary {
                    pos,
                    n,
                    k,
                    m_range: params.m,
                    w: self.target,
                    l_own: distances[j],
                    l_behind,
                    r1,
                    r2,
                    roles,
                    rng: SplitMix64::new(0x5e4_a77ac ^ pos as u64),
                    expect_data: true,
                    data_recv: 0,
                    stream: Vec::with_capacity(n - k),
                    behind_sum: 0,
                    s_total: None,
                });
                (pos, node)
            })
            .collect())
    }

    /// Runs the deviation against a protocol instance.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Infeasible`] when preconditions fail.
    pub fn run(
        &self,
        protocol: &PhaseSumLead,
        coalition: &Coalition,
    ) -> Result<Execution, AttackError> {
        let nodes = self.adversary_nodes(protocol, coalition)?;
        Ok(protocol.run_with(nodes))
    }
}

/// The per-adversary strategy: rush the data channel, relay partial sums
/// through the two coalition-validated rounds, and steer the segment sum.
struct SumRelayAdversary {
    pos: NodeId,
    n: usize,
    k: usize,
    m_range: u64,
    w: u64,
    l_own: usize,
    l_behind: usize,
    r1: usize,
    r2: usize,
    roles: Roles,
    rng: SplitMix64,
    expect_data: bool,
    data_recv: usize,
    stream: Vec<u64>,
    behind_sum: u64,
    s_total: Option<u64>,
}

impl Node<PhaseMsg> for SumRelayAdversary {
    fn on_message(&mut self, _from: NodeId, msg: PhaseMsg, ctx: &mut Ctx<'_, PhaseMsg>) {
        let n = self.n as u64;
        match msg {
            PhaseMsg::Data(x) if self.expect_data => {
                self.expect_data = false;
                let x = x % n;
                self.data_recv += 1;
                let t = self.data_recv;
                if t <= self.n - self.k {
                    self.stream.push(x);
                    if t <= self.l_behind {
                        self.behind_sum = (self.behind_sum + x) % n;
                    }
                }
                // Data plan: pipe; correcting value; zeros; segment tail.
                let pipe_until = self.n - self.k - self.l_own;
                let out = if t <= pipe_until {
                    x
                } else if t == pipe_until + 1 {
                    let s = self.s_total.expect("S learned before commitment");
                    (self.w + n - s) % n
                } else if t <= self.n - self.l_own {
                    0
                } else {
                    self.stream[pipe_until + (t - (self.n - self.l_own)) - 1]
                };
                ctx.send(PhaseMsg::Data(out));
                // Validator duties for our own round.
                if t == self.pos + 1 {
                    if self.roles.is_accumulator {
                        // Round r1: originate the partial sum instead of a
                        // random value.
                        ctx.send(PhaseMsg::Val(self.behind_sum));
                    } else if self.roles.is_broadcast_validator {
                        // Round r2: delay origination until the pre-sent S
                        // arrives (see the Val arm below).
                    } else {
                        let v = self.rng.next_below(self.m_range);
                        ctx.send(PhaseMsg::Val(v));
                    }
                }
                // Round r2: the accumulator pre-sends S as the round's
                // validation value, ahead of the wave.
                if t == self.r2 && self.roles.is_accumulator {
                    let s = self.s_total.expect("S learned in round r1");
                    ctx.send(PhaseMsg::Val(s));
                }
            }
            PhaseMsg::Val(y) if !self.expect_data => {
                self.expect_data = true;
                let y = y % self.m_range;
                let r = self.data_recv;
                if r == self.pos + 1 {
                    // Incoming validation of our own round.
                    if self.roles.is_accumulator {
                        // r == r1: the fully accumulated S returns; absorb.
                        self.s_total = Some(y % n);
                    } else if self.roles.is_broadcast_validator {
                        // r == r2: the pre-sent S arrives; learn it and
                        // emit it as our (delayed) origination.
                        self.s_total = Some(y % n);
                        ctx.send(PhaseMsg::Val(y));
                    }
                    // Ordinary own round: absorb without checking.
                } else if r == self.r1 {
                    // Accumulation: add our behind-segment sum.
                    let v2 = (y % n + self.behind_sum) % n;
                    if self.roles.is_last_adder {
                        self.s_total = Some(v2);
                    }
                    ctx.send(PhaseMsg::Val(v2));
                } else if r == self.r2 {
                    if self.roles.is_accumulator {
                        // The broadcast value wrapped around; swallow it
                        // (we already sent our round-r2 validation early).
                    } else {
                        self.s_total = Some(y % n);
                        ctx.send(PhaseMsg::Val(y));
                    }
                } else {
                    ctx.send(PhaseMsg::Val(y));
                }
                if r == self.n {
                    ctx.terminate(Some(self.w));
                }
            }
            _ => ctx.terminate(Some(self.w)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::Outcome;

    #[test]
    fn four_adversaries_control_phase_sum_lead() {
        for n in [32, 64, 100] {
            let protocol = PhaseSumLead::new(n).with_seed(n as u64);
            let coalition = Coalition::equally_spaced(n, 4, 1).unwrap();
            for w in [0u64, (n / 2) as u64, (n - 1) as u64] {
                let exec = PhaseSumAttack::new(w).run(&protocol, &coalition).unwrap();
                assert_eq!(exec.outcome, Outcome::Elected(w), "n={n} w={w}");
            }
        }
    }

    #[test]
    fn message_counts_stay_honest_shaped() {
        let n = 48;
        let protocol = PhaseSumLead::new(n).with_seed(2);
        let coalition = Coalition::equally_spaced(n, 4, 1).unwrap();
        let exec = PhaseSumAttack::new(5).run(&protocol, &coalition).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(5));
        assert!(exec.stats.sent.iter().all(|&s| s == 2 * n as u64));
    }

    #[test]
    fn more_than_four_adversaries_also_work() {
        let n = 60;
        let protocol = PhaseSumLead::new(n).with_seed(9);
        let coalition = Coalition::equally_spaced(n, 6, 1).unwrap();
        let exec = PhaseSumAttack::new(42).run(&protocol, &coalition).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(42));
    }

    #[test]
    fn three_adversaries_are_rejected() {
        // k = 3: the broadcast round falls after the commitment point —
        // the timing argument of E.4 genuinely needs the 4th adversary.
        let n = 64;
        let protocol = PhaseSumLead::new(n).with_seed(0);
        let coalition = Coalition::equally_spaced(n, 3, 1).unwrap();
        let err = PhaseSumAttack::new(0)
            .run(&protocol, &coalition)
            .unwrap_err();
        assert!(matches!(err, AttackError::Infeasible(_)));
    }

    #[test]
    fn corrupted_origin_is_rejected() {
        let n = 32;
        let protocol = PhaseSumLead::new(n).with_seed(0);
        let coalition = Coalition::new(n, vec![0, 8, 16, 24]).unwrap();
        assert!(PhaseSumAttack::new(0).run(&protocol, &coalition).is_err());
    }

    #[test]
    fn same_coalition_fails_against_phase_async_lead() {
        // The ablation's point: swap the sum for the random f and the
        // partial-sum relay becomes useless — k = 4 is far below √n + 3,
        // and the rushing attack is infeasible for it.
        use crate::phase_rushing::PhaseRushingAttack;
        use fle_core::protocols::PhaseAsyncLead;
        let n = 64;
        let protocol = PhaseAsyncLead::new(n).with_seed(6).with_fn_key(1);
        let coalition = Coalition::equally_spaced(n, 4, 1).unwrap();
        assert!(PhaseRushingAttack::new(10)
            .run(&protocol, &coalition)
            .is_err());
    }
}
