//! The synchronization story (Lemma D.5, Section 6): how far apart can
//! sent-message counters drift?
//!
//! Paper claims: honest `A-LEADuni` keeps everyone 1-synchronized; a
//! non-failing deviation keeps coalitions `2k²`-synchronized (Lemma D.5)
//! and the cubic attack *uses* a gap of `Ω(k²)`; `PhaseAsyncLead`'s phase
//! validation forces `O(k)`-synchronization, which is exactly why the
//! cubic attack dies there while the (validation-honest) rushing attack
//! survives with an `O(k)` gap.

use crate::Table;
use fle_attacks::{cubic_distances, CubicAttack, PhaseRushingAttack, RushingAttack};
use fle_core::protocols::{ALeadUni, PhaseAsyncLead, RingProtocol};
use fle_core::Coalition;
use ring_sim::SyncGapProbe;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let n: usize = if quick { 144 } else { 576 };
    let sqrt_n = (n as f64).sqrt() as usize;
    let mut t = Table::new(
        "sync: max over time of |Sent_i - Sent_j| (watched set)",
        &["protocol", "scenario", "k", "max gap", "reference"],
    );

    // Honest A-LEADuni over all nodes.
    {
        let protocol = ALeadUni::new(n).with_seed(1);
        let mut probe = SyncGapProbe::new((0..n).collect());
        let _ = protocol.run_with_probe(Vec::new(), &mut probe);
        t.row([
            "A-LEADuni".to_string(),
            "honest (all nodes)".to_string(),
            "-".to_string(),
            probe.max_gap().to_string(),
            "1 (round structure)".to_string(),
        ]);
    }
    // Rushing attack on A-LEADuni, gap over the coalition.
    {
        let coalition = Coalition::equally_spaced(n, sqrt_n, 1).expect("valid");
        let protocol = ALeadUni::new(n).with_seed(2);
        let mut probe = SyncGapProbe::new(coalition.positions().to_vec());
        let nodes = RushingAttack::new(0)
            .adversary_nodes(&protocol, &coalition)
            .expect("feasible at sqrt(n)");
        let _ = protocol.run_with_probe(nodes, &mut probe);
        t.row([
            "A-LEADuni".to_string(),
            "rushing attack (coalition)".to_string(),
            sqrt_n.to_string(),
            probe.max_gap().to_string(),
            format!("k = {sqrt_n}"),
        ]);
    }
    // Cubic attack on A-LEADuni: the Ω(k²) gap.
    {
        let plan = cubic_distances(n).expect("n large enough");
        let protocol = ALeadUni::new(n).with_seed(3);
        let mut probe = SyncGapProbe::new(plan.positions().to_vec());
        let nodes = CubicAttack::new(0)
            .adversary_nodes(&protocol, &plan)
            .expect("feasible");
        let _ = protocol.run_with_probe(nodes, &mut probe);
        let k = plan.k();
        t.row([
            "A-LEADuni".to_string(),
            "cubic attack (coalition)".to_string(),
            k.to_string(),
            probe.max_gap().to_string(),
            format!("k^2 = {} (Lemma D.5 cap: 2k^2 = {})", k * k, 2 * k * k),
        ]);
    }
    // Honest PhaseAsyncLead over all nodes.
    {
        let protocol = PhaseAsyncLead::new(n).with_seed(4).with_fn_key(9);
        let mut probe = SyncGapProbe::new((0..n).collect());
        let _ = protocol.run_with_probe(Vec::new(), &mut probe);
        t.row([
            "PhaseAsyncLead".to_string(),
            "honest (all nodes)".to_string(),
            "-".to_string(),
            probe.max_gap().to_string(),
            "O(1) (phase pacing)".to_string(),
        ]);
    }
    // Rushing attack on PhaseAsyncLead: gap stays O(k).
    {
        let k = sqrt_n + 3;
        let coalition = Coalition::equally_spaced(n, k, 1).expect("valid");
        let protocol = PhaseAsyncLead::new(n).with_seed(5).with_fn_key(10);
        let mut probe = SyncGapProbe::new(coalition.positions().to_vec());
        let nodes = PhaseRushingAttack::new(0)
            .adversary_nodes(&protocol, &coalition)
            .expect("feasible at sqrt(n)+3");
        let _ = protocol.run_with_probe(nodes, &mut probe);
        t.row([
            "PhaseAsyncLead".to_string(),
            "rushing attack (coalition)".to_string(),
            k.to_string(),
            probe.max_gap().to_string(),
            format!("O(k), k = {k}"),
        ]);
    }
    t.note("paper: phase validation shrinks the tolerable desync from k^2 to k (Sec 6)");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn cubic_gap_dwarfs_phase_gap() {
        let t = &super::run(true)[0];
        let s = t.render();
        // The "max gap" is the second integer token of an attack row (the
        // first is k), and the first of an honest row (k column is "-").
        let ints_of = |needle: &str| -> Vec<u64> {
            s.lines()
                .find(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("row {needle} missing: {s}"))
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        };
        let cubic_gap = ints_of("cubic attack")[1];
        let honest_phase_gap = ints_of("PhaseAsyncLead  honest")[0];
        assert!(
            cubic_gap > 20,
            "cubic gap should be Omega(k^2): {cubic_gap}"
        );
        assert!(
            honest_phase_gap <= 4,
            "phase honest gap: {honest_phase_gap}"
        );
    }
}
