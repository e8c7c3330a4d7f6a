//! The rushing attack of Lemma 4.1 / Theorem 4.2 on `A-LEADuni`.
//!
//! Adversaries never select a secret of their own and forward every
//! incoming message immediately instead of buffering it. After `n − k`
//! receives each adversary has seen **all** honest secrets; it then spends
//! its `k` spare messages on a correcting value `M`, padding zeros, and
//! the replayed secrets of its own honest segment, steering every
//! segment's sum to the target.
//!
//! Feasible exactly when every honest segment satisfies `l_j ≤ k − 1`
//! (Lemma 4.1) — equally-spaced coalitions of `k ≥ √n` qualify
//! (Theorem 4.2), consecutive coalitions only from `k ≥ ⌈(n+1)/2⌉`
//! (the Claim D.1 crossover).

use crate::AttackError;
use fle_core::protocols::{ALeadNode, ALeadUni, FleProtocol, TrialCache};
use fle_core::{Coalition, DeviationNodes, Execution, Node, NodeId};
use ring_sim::Ctx;

/// [`TrialCache`] for the rushing coalition's fully unboxed fast path:
/// honest positions run the concrete [`ALeadNode`], every coalition slot
/// runs the concrete [`Rusher`] — a homogeneous coalition needs no
/// `Box<dyn Node>` anywhere in the mix.
pub type RushingCache = TrialCache<u64, ALeadNode, Rusher>;

/// The Lemma 4.1 rushing attack on [`ALeadUni`].
///
/// If the origin (processor 0) is in the coalition it simply behaves
/// honestly, as in the paper's randomized attack; the layout precondition
/// is then evaluated on the remaining, actively-deviating coalition.
///
/// # Examples
///
/// ```
/// use fle_attacks::RushingAttack;
/// use fle_core::protocols::ALeadUni;
/// use fle_core::Coalition;
/// use ring_sim::Outcome;
///
/// let n = 36;
/// let protocol = ALeadUni::new(n).with_seed(1);
/// let coalition = Coalition::equally_spaced(n, 6, 1).unwrap(); // k = √n
/// let exec = RushingAttack::new(17).run(&protocol, &coalition).unwrap();
/// assert_eq!(exec.outcome, Outcome::Elected(17));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RushingAttack {
    target: u64,
}

impl RushingAttack {
    /// An attack forcing the election of `target`.
    pub fn new(target: u64) -> Self {
        Self { target }
    }

    /// The forced leader.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Checks the Lemma 4.1 precondition and returns the *active*
    /// coalition (the input minus an honestly-behaving origin).
    ///
    /// # Errors
    ///
    /// [`AttackError::Infeasible`] when the target is out of range, no
    /// active adversary remains, or some segment has `l_j > k − 1`.
    pub fn plan(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<Coalition, AttackError> {
        let n = protocol.n();
        if coalition.n() != n {
            return Err(AttackError::Infeasible(format!(
                "coalition is for a ring of {} but the protocol has n={n}",
                coalition.n()
            )));
        }
        if self.target >= n as u64 {
            return Err(AttackError::Infeasible(format!(
                "target {} out of range for n={n}",
                self.target
            )));
        }
        let active: Vec<NodeId> = coalition
            .positions()
            .iter()
            .copied()
            .filter(|&p| p != 0)
            .collect();
        if active.is_empty() {
            return Err(AttackError::Infeasible(
                "only the origin is corrupted and it must behave honestly".into(),
            ));
        }
        let active = Coalition::new(n, active).expect("subset of a valid coalition");
        let k = active.k();
        if let Some((j, l)) = active
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
        Ok(active)
    }

    /// Builds the deviation nodes for the coalition.
    ///
    /// # Errors
    ///
    /// Propagates [`RushingAttack::plan`] errors.
    pub fn adversary_nodes(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<DeviationNodes<u64>, AttackError> {
        let mut nodes: Vec<(NodeId, Box<dyn Node<u64>>)> = Vec::with_capacity(coalition.k());
        if coalition.contains(0) {
            nodes.push((0, protocol.honest_node(0)));
        }
        for (pos, rusher) in self.adversary_ring_nodes(protocol, coalition)? {
            nodes.push((pos, Box::new(rusher)));
        }
        Ok(nodes)
    }

    /// [`RushingAttack::adversary_nodes`] as concrete [`Rusher`]s — the
    /// form a [`RushingCache`] stores unboxed. A corrupted origin behaves honestly, so it is
    /// simply *omitted* here: the cache's honest builder supplies the
    /// identical [`ALeadNode`] for position 0 (bit-identical executions
    /// either way).
    ///
    /// # Errors
    ///
    /// Propagates [`RushingAttack::plan`] errors.
    pub fn adversary_ring_nodes(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<Vec<(NodeId, Rusher)>, AttackError> {
        let active = self.plan(protocol, coalition)?;
        let n = protocol.n();
        let k = active.k();
        Ok(active
            .positions()
            .iter()
            .zip(active.distances())
            .map(|(&pos, l)| {
                (
                    pos,
                    Rusher {
                        n: n as u64,
                        k: k as u64,
                        l: l as u64,
                        w: self.target,
                        count: 0,
                        sum: 0,
                        tail: Vec::with_capacity(l),
                    },
                )
            })
            .collect())
    }

    /// Runs the deviation against a protocol instance.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Infeasible`] when the layout precondition
    /// fails — the boundary the experiments probe.
    pub fn run(
        &self,
        protocol: &ALeadUni,
        coalition: &Coalition,
    ) -> Result<Execution, AttackError> {
        let nodes = self.adversary_nodes(protocol, coalition)?;
        Ok(protocol.run_with(nodes))
    }
}

/// The rushing adversary: pipes the first `n − k` messages (learning every
/// honest secret), then spends its `k` spare sends on
/// `[M, 0 × (k−1−l), secrets of its segment]`, making its outgoing sum `w`
/// while satisfying every condition of Lemma 3.3.
///
/// Public as a concrete type so a [`RushingCache`] can store the
/// homogeneous coalition unboxed; build instances with
/// [`RushingAttack::adversary_ring_nodes`].
pub struct Rusher {
    n: u64,
    k: u64,
    l: u64,
    w: u64,
    count: u64,
    sum: u64,
    tail: Vec<u64>,
}

impl Node<u64> for Rusher {
    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
        let m = msg % self.n;
        self.count += 1;
        if self.count > self.n - self.k {
            // Learning is over; surplus deliveries are ignored (we have
            // already terminated in the burst below, so the engine drops
            // them anyway).
            return;
        }
        self.sum = (self.sum + m) % self.n;
        if self.count > self.n - self.k - self.l {
            self.tail.push(m);
        }
        ctx.send(m);
        if self.count == self.n - self.k {
            // All n − k honest secrets observed; the last l of them are
            // exactly the secrets of our honest segment, in the order the
            // validations demand (Lemma 4.5).
            let tail_sum = self.tail.iter().sum::<u64>() % self.n;
            let correcting = (self.w + 2 * self.n - self.sum - tail_sum) % self.n;
            ctx.send(correcting);
            for _ in 0..(self.k - 1 - self.l) {
                ctx.send(0);
            }
            for i in 0..self.tail.len() {
                let v = self.tail[i];
                ctx.send(v);
            }
            ctx.terminate(Some(self.w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::Outcome;

    #[test]
    fn equally_spaced_sqrt_n_controls_every_target() {
        let n = 25;
        let protocol = ALeadUni::new(n).with_seed(3);
        let coalition = Coalition::equally_spaced(n, 5, 1).unwrap();
        for w in [0u64, 1, 7, 24] {
            let exec = RushingAttack::new(w).run(&protocol, &coalition).unwrap();
            assert_eq!(exec.outcome, Outcome::Elected(w), "target {w}");
        }
    }

    #[test]
    fn every_adversary_sends_exactly_n() {
        let n = 16;
        let protocol = ALeadUni::new(n).with_seed(9);
        let coalition = Coalition::equally_spaced(n, 4, 1).unwrap();
        let exec = RushingAttack::new(2).run(&protocol, &coalition).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(2));
        assert!(exec.stats.sent.iter().all(|&s| s == n as u64));
    }

    #[test]
    fn infeasible_when_a_segment_is_too_long() {
        let n = 36;
        let protocol = ALeadUni::new(n).with_seed(0);
        // k = 4 < √n: equal spacing gives l_j = 8 > k − 1 = 3.
        let coalition = Coalition::equally_spaced(n, 4, 1).unwrap();
        let err = RushingAttack::new(0)
            .run(&protocol, &coalition)
            .unwrap_err();
        assert!(matches!(err, AttackError::Infeasible(_)));
    }

    #[test]
    fn consecutive_coalition_crossover_at_half_n() {
        // Claim D.1: consecutive coalitions are harmless below ⌈(n+1)/2⌉
        // and fully controlling at/above it.
        let n = 17;
        let protocol = ALeadUni::new(n).with_seed(5);
        let below = Coalition::consecutive(n, 8, 1).unwrap(); // l = 9 > 7
        assert!(RushingAttack::new(3).run(&protocol, &below).is_err());
        let above = Coalition::consecutive(n, 9, 1).unwrap(); // l = 8 = k − 1
        let exec = RushingAttack::new(3).run(&protocol, &above).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(3));
    }

    #[test]
    fn origin_in_coalition_behaves_honestly() {
        let n = 25;
        let protocol = ALeadUni::new(n).with_seed(2);
        // Coalition includes 0; active coalition is the other 5, equally
        // spaced with l_j <= 4.
        let mut positions = vec![0];
        positions.extend(
            Coalition::equally_spaced(n, 5, 2)
                .unwrap()
                .positions()
                .to_vec(),
        );
        let coalition = Coalition::new(n, positions).unwrap();
        let exec = RushingAttack::new(11).run(&protocol, &coalition).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(11));
    }

    #[test]
    fn origin_only_coalition_is_infeasible() {
        let protocol = ALeadUni::new(8).with_seed(0);
        let coalition = Coalition::new(8, vec![0]).unwrap();
        assert!(RushingAttack::new(1).run(&protocol, &coalition).is_err());
    }

    #[test]
    fn adjacent_adversaries_act_as_pipes() {
        // Coalition with an l_j = 0 pair still succeeds.
        let n = 12;
        let protocol = ALeadUni::new(n).with_seed(7);
        let coalition = Coalition::new(n, vec![1, 2, 5, 8, 11]).unwrap();
        // distances: 1->2:0, 2->5:2, 5->8:2, 8->11:2, 11->1:1; all <= k-1=4.
        let exec = RushingAttack::new(6).run(&protocol, &coalition).unwrap();
        assert_eq!(exec.outcome, Outcome::Elected(6));
    }

    #[test]
    fn rejects_out_of_range_target() {
        let protocol = ALeadUni::new(9).with_seed(0);
        let coalition = Coalition::equally_spaced(9, 3, 1).unwrap();
        assert!(RushingAttack::new(9).run(&protocol, &coalition).is_err());
    }
}
