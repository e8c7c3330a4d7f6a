//! Aggregated batch statistics and their JSON/CSV serializations.
//!
//! Everything here is deterministic down to the byte: aggregation walks
//! trials in index order, floats are produced by fixed-precision
//! formatting, and field order is pinned — so two [`TrialReport`]s built
//! from the same `(protocol, n, trials, base_seed)` serialize identically
//! no matter how many threads ran the batch.
//!
//! Allocation discipline: [`TrialOutcome`] is `Copy` (trials reduce to it
//! with no per-trial heap traffic), and aggregation makes a constant
//! number of batch-level allocations (the win vector plus one
//! pre-capacitated sample vector per metric, sorted in place) — there is
//! no per-trial `Vec` churn anywhere between the engine and the report.

use crate::batch::TrialFault;
use crate::json::Json;
use ring_sim::{Execution, FailReason, Outcome};

/// The per-trial measurement the harness aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialOutcome {
    /// The trial's global outcome.
    pub outcome: Outcome,
    /// Total messages sent in the trial.
    pub messages: u64,
    /// Scheduler steps (wake-ups plus deliveries) consumed.
    pub steps: u64,
}

impl TrialOutcome {
    /// Extracts the measurement from a finished [`Execution`].
    pub fn of(exec: &Execution) -> Self {
        Self {
            outcome: exec.outcome,
            messages: exec.stats.total_sent(),
            steps: exec.stats.steps,
        }
    }
}

/// Failure counts by [`FailReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailCounts {
    /// Trials where some node aborted with `⊥`.
    pub abort: u64,
    /// Trials where two nodes output different values.
    pub disagreement: u64,
    /// Trials that deadlocked.
    pub deadlock: u64,
    /// Trials that hit the step limit.
    pub step_limit: u64,
    /// Trials partitioned by an injected crash fault (quiescence with
    /// live non-terminated survivors). Always 0 on the fault-free path;
    /// serialized only when nonzero or the report carries a fault arm, so
    /// fault-free reports keep their historical bytes.
    pub crash_partition: u64,
}

impl FailCounts {
    /// Total failed trials.
    pub fn total(&self) -> u64 {
        self.abort + self.disagreement + self.deadlock + self.step_limit + self.crash_partition
    }

    pub(crate) fn record(&mut self, reason: FailReason) {
        match reason {
            FailReason::Abort => self.abort += 1,
            FailReason::Disagreement => self.disagreement += 1,
            FailReason::Deadlock => self.deadlock += 1,
            FailReason::StepLimit => self.step_limit += 1,
            FailReason::CrashPartition => self.crash_partition += 1,
        }
    }
}

/// Order statistics of one per-trial metric (messages or steps).
///
/// Percentiles use the nearest-rank method on the sorted samples; an empty
/// sample set yields all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricSummary {
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile, nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
}

impl MetricSummary {
    /// Summarizes `samples` (order-independent: sorts a copy).
    pub fn of(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let sum: u128 = sorted.iter().map(|&x| x as u128).sum();
        Self {
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: sum as f64 / sorted.len() as f64,
            p50: nearest_rank(&sorted, 50),
            p90: nearest_rank(&sorted, 90),
            p99: nearest_rank(&sorted, 99),
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            self.min,
            self.max,
            fmt_f64(self.mean),
            self.p50,
            self.p90,
            self.p99
        )
    }
}

/// Nearest-rank percentile of pre-sorted samples.
fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    let rank = (pct as u128 * sorted.len() as u128).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// Wilson score 95% confidence interval for a binomial proportion.
///
/// Returns `(lo, hi)` for `successes` out of `trials` Bernoulli trials at
/// `z = 1.96`. Unlike the normal approximation it never leaves `[0, 1]`
/// and stays informative at the boundary rates the attack tables live at
/// (`Pr = 0` and `Pr = 1`). `trials = 0` yields the vacuous `(0, 1)`.
pub fn wilson_ci95(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96_f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// The attack arm of a [`TrialReport`]: how many trials achieved the
/// attack's goal, and how many were refused as infeasible before running.
///
/// Only reports aggregated from attack sweeps carry one; honest reports
/// leave [`TrialReport::attack`] as `None` and serialize exactly as
/// before, so every pre-existing golden pin is unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackSummary {
    /// Trials where the attack achieved its goal (e.g. elected its
    /// target).
    pub successes: u64,
    /// Trials the attack refused to run (infeasible plan for that seed's
    /// instance). These count toward `trials` but contribute no execution
    /// statistics.
    pub infeasible: u64,
}

impl AttackSummary {
    /// Success rate over *all* trials (infeasible ones count as failures).
    pub fn success_rate(&self, trials: u64) -> f64 {
        self.successes as f64 / trials.max(1) as f64
    }

    /// Wilson 95% CI of the success rate over all trials.
    pub fn ci95(&self, trials: u64) -> (f64, f64) {
        wilson_ci95(self.successes, trials)
    }

    fn to_json(self, trials: u64) -> String {
        let (lo, hi) = self.ci95(trials);
        format!(
            "{{\"successes\":{},\"infeasible\":{},\"success_rate\":{},\"ci95_lo\":{},\"ci95_hi\":{}}}",
            self.successes,
            self.infeasible,
            fmt_f64(self.success_rate(trials)),
            fmt_f64(lo),
            fmt_f64(hi),
        )
    }
}

/// The fault arm of a [`TrialReport`]: how many trials saw at least one
/// injected crash fire, plus the survival probability (elected a leader
/// despite the faults) with its Wilson 95% CI.
///
/// Only reports aggregated from fault-enabled sweeps carry one; fault-free
/// reports leave [`TrialReport::fault`] as `None` and serialize exactly as
/// before, so every pre-existing golden pin is unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSummary {
    /// Trials in which at least one planned crash fired before the
    /// execution ended.
    pub crashed_trials: u64,
}

impl FaultSummary {
    /// Survival rate: `elected / trials` (a crashed trial that still
    /// elects a leader counts as surviving).
    pub fn survival_rate(elected: u64, trials: u64) -> f64 {
        elected as f64 / trials.max(1) as f64
    }

    fn to_json(self, elected: u64, trials: u64) -> String {
        let (lo, hi) = wilson_ci95(elected, trials);
        format!(
            "{{\"crashed_trials\":{},\"survival_rate\":{},\"ci95_lo\":{},\"ci95_hi\":{}}}",
            self.crashed_trials,
            fmt_f64(Self::survival_rate(elected, trials)),
            fmt_f64(lo),
            fmt_f64(hi),
        )
    }
}

/// Fixed-precision float formatting so serialized reports are
/// byte-deterministic.
fn fmt_f64(x: f64) -> String {
    format!("{x:.6}")
}

/// Aggregated statistics of one batch of trials.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialReport {
    /// Protocol name (e.g. `PhaseAsyncLead`).
    pub protocol: String,
    /// Ring size.
    pub n: usize,
    /// Number of trials aggregated.
    pub trials: u64,
    /// The batch's base seed.
    pub base_seed: u64,
    /// `wins[i]` = trials that elected node `i`.
    pub wins: Vec<u64>,
    /// Trials electing a value outside `[0, n)` — no protocol in this
    /// workspace produces one; recorded so the accounting always closes.
    pub out_of_range: u64,
    /// Failed trials by reason.
    pub fails: FailCounts,
    /// Summary of per-trial total message counts.
    pub messages: MetricSummary,
    /// Summary of per-trial scheduler step counts.
    pub steps: MetricSummary,
    /// Attack-sweep arm: present only for reports aggregated from attack
    /// trials. `None` keeps honest serializations byte-identical to the
    /// pre-attack-sweep format.
    pub attack: Option<AttackSummary>,
    /// Fault-injection arm: present only for reports aggregated from
    /// fault-enabled sweeps. `None` keeps fault-free serializations
    /// byte-identical to the pre-fault format.
    pub fault: Option<FaultSummary>,
    /// Contained trial panics (index + repro seed), in index order. These
    /// trials are excluded from `trials` and every statistic; an empty
    /// vector (every fault-free run) serializes exactly as before, so
    /// golden pins are unaffected.
    pub faults: Vec<TrialFault>,
}

impl TrialReport {
    /// Aggregates `outcomes` (in trial order) into a report.
    pub fn from_trials(
        protocol: &str,
        n: usize,
        base_seed: u64,
        outcomes: &[TrialOutcome],
    ) -> Self {
        let mut wins = vec![0u64; n];
        let mut out_of_range = 0;
        let mut fails = FailCounts::default();
        let mut messages = Vec::with_capacity(outcomes.len());
        let mut steps = Vec::with_capacity(outcomes.len());
        for t in outcomes {
            match t.outcome {
                Outcome::Elected(v) if (v as usize) < n => wins[v as usize] += 1,
                Outcome::Elected(_) => out_of_range += 1,
                Outcome::Fail(r) => fails.record(r),
            }
            messages.push(t.messages);
            steps.push(t.steps);
        }
        Self {
            protocol: protocol.to_string(),
            n,
            trials: outcomes.len() as u64,
            base_seed,
            wins,
            out_of_range,
            fails,
            messages: MetricSummary::of(&messages),
            steps: MetricSummary::of(&steps),
            attack: None,
            fault: None,
            faults: Vec::new(),
        }
    }

    /// Aggregates attack trials (in trial order) into a report.
    ///
    /// Each element is `(outcome, success)`: `outcome = None` marks a
    /// trial the attack refused as infeasible (counted in
    /// [`AttackSummary::infeasible`], contributing no execution
    /// statistics), and `success` says whether the attack achieved its
    /// goal. The returned report carries an [`AttackSummary`] and thus
    /// serializes with a trailing `attack` arm.
    #[cfg(test)]
    pub(crate) fn from_attack_trials(
        protocol: &str,
        n: usize,
        base_seed: u64,
        trials: &[(Option<TrialOutcome>, bool)],
    ) -> Self {
        let ran: Vec<TrialOutcome> = trials.iter().filter_map(|&(o, _)| o).collect();
        let mut report = Self::from_trials(protocol, n, base_seed, &ran);
        report.trials = trials.len() as u64;
        report.attack = Some(AttackSummary {
            successes: trials.iter().filter(|&&(_, s)| s).count() as u64,
            infeasible: trials.iter().filter(|&&(o, _)| o.is_none()).count() as u64,
        });
        report
    }

    /// Total trials that elected a leader in `[0, n)`.
    pub fn elected(&self) -> u64 {
        self.wins.iter().sum()
    }

    /// Serializes to a single-line JSON object with pinned field order.
    ///
    /// Byte-identical for byte-identical batches, regardless of thread
    /// count.
    pub fn to_json(&self) -> String {
        let wins = self
            .wins
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",");
        // `crash_partition` slots into the fails object only on
        // fault-enabled reports (or if a crash partition somehow got
        // counted), so fault-free reports keep the exact historical bytes.
        let crash_partition = if self.fault.is_some() || self.fails.crash_partition > 0 {
            format!(",\"crash_partition\":{}", self.fails.crash_partition)
        } else {
            String::new()
        };
        let mut out = format!(
            concat!(
                "{{\"protocol\":\"{}\",\"n\":{},\"trials\":{},\"base_seed\":{},",
                "\"elected\":{},\"out_of_range\":{},",
                "\"fails\":{{\"abort\":{},\"disagreement\":{},\"deadlock\":{},\"step_limit\":{}{}}},",
                "\"wins\":[{}],\"messages\":{},\"steps\":{}}}"
            ),
            self.protocol,
            self.n,
            self.trials,
            self.base_seed,
            self.elected(),
            self.out_of_range,
            self.fails.abort,
            self.fails.disagreement,
            self.fails.deadlock,
            self.fails.step_limit,
            crash_partition,
            wins,
            self.messages.to_json(),
            self.steps.to_json(),
        );
        if let Some(a) = self.attack {
            // The attack arm slots in before the closing brace; honest
            // reports (attack = None) keep the exact historical bytes.
            out.pop();
            out.push_str(&format!(",\"attack\":{}}}", a.to_json(self.trials)));
        }
        if let Some(f) = self.fault {
            // Likewise the fault arm: fault-free reports are unchanged.
            out.pop();
            out.push_str(&format!(
                ",\"fault\":{}}}",
                f.to_json(self.elected(), self.trials)
            ));
        }
        if !self.faults.is_empty() {
            let list = self
                .faults
                .iter()
                .map(|f| {
                    format!(
                        "{{\"index\":{},\"seed\":{},\"message\":\"{}\"}}",
                        f.index,
                        f.seed,
                        Json::escape(&f.message)
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            out.pop();
            out.push_str(&format!(",\"faults\":[{list}]}}"));
        }
        out
    }

    /// Serializes the per-node win table to CSV
    /// (`node,wins,win_rate` with a header row). Attack reports append a
    /// second section with the success rate and its Wilson 95% CI.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("node,wins,win_rate\n");
        let t = self.trials.max(1) as f64;
        for (i, &w) in self.wins.iter().enumerate() {
            out.push_str(&format!("{i},{w},{}\n", fmt_f64(w as f64 / t)));
        }
        if let Some(a) = self.attack {
            let (lo, hi) = a.ci95(self.trials);
            out.push_str("successes,infeasible,success_rate,ci95_lo,ci95_hi\n");
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                a.successes,
                a.infeasible,
                fmt_f64(a.success_rate(self.trials)),
                fmt_f64(lo),
                fmt_f64(hi),
            ));
        }
        if let Some(f) = self.fault {
            let (lo, hi) = wilson_ci95(self.elected(), self.trials);
            out.push_str("crashed_trials,survival_rate,ci95_lo,ci95_hi\n");
            out.push_str(&format!(
                "{},{},{},{}\n",
                f.crashed_trials,
                fmt_f64(FaultSummary::survival_rate(self.elected(), self.trials)),
                fmt_f64(lo),
                fmt_f64(hi),
            ));
        }
        if !self.faults.is_empty() {
            out.push_str("fault_index,seed,message\n");
            for f in &self.faults {
                out.push_str(&format!(
                    "{},{},\"{}\"\n",
                    f.index,
                    f.seed,
                    f.message.replace('"', "\"\"")
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elected(v: u64, messages: u64, steps: u64) -> TrialOutcome {
        TrialOutcome {
            outcome: Outcome::Elected(v),
            messages,
            steps,
        }
    }

    #[test]
    fn aggregates_wins_and_fails() {
        let outcomes = [
            elected(0, 10, 12),
            elected(2, 10, 14),
            elected(2, 12, 16),
            elected(9, 10, 12), // out of range for n = 4
            TrialOutcome {
                outcome: Outcome::Fail(FailReason::Abort),
                messages: 3,
                steps: 5,
            },
        ];
        let r = TrialReport::from_trials("Test", 4, 7, &outcomes);
        assert_eq!(r.wins, vec![1, 0, 2, 0]);
        assert_eq!(r.out_of_range, 1);
        assert_eq!(r.fails.abort, 1);
        assert_eq!(r.elected(), 3);
        assert_eq!(r.trials, 5);
        assert_eq!(r.messages.min, 3);
        assert_eq!(r.messages.max, 12);
    }

    #[test]
    fn metric_summary_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        let m = MetricSummary::of(&samples);
        assert_eq!(m.min, 1);
        assert_eq!(m.max, 100);
        assert_eq!(m.p50, 50);
        assert_eq!(m.p90, 90);
        assert_eq!(m.p99, 99);
        assert!((m.mean - 50.5).abs() < 1e-12);
        assert_eq!(MetricSummary::of(&[]), MetricSummary::default());
        let single = MetricSummary::of(&[42]);
        assert_eq!(
            (single.min, single.p50, single.p99, single.max),
            (42, 42, 42, 42)
        );
    }

    #[test]
    fn summary_is_order_independent() {
        let a = MetricSummary::of(&[5, 1, 9, 3, 7]);
        let b = MetricSummary::of(&[9, 7, 5, 3, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn wilson_ci95_matches_binomial_fixtures() {
        // 50/100 at z = 1.96: the textbook Wilson interval (0.4038, 0.5962).
        let (lo, hi) = wilson_ci95(50, 100);
        assert!((lo - 0.4038).abs() < 5e-4, "lo = {lo}");
        assert!((hi - 0.5962).abs() < 5e-4, "hi = {hi}");
        // 8/10: (0.4902, 0.9433) (e.g. R binom.confint method "wilson").
        let (lo, hi) = wilson_ci95(8, 10);
        assert!((lo - 0.4902).abs() < 5e-4, "lo = {lo}");
        assert!((hi - 0.9433).abs() < 5e-4, "hi = {hi}");
        // Boundary rates stay exact at the boundary but have width.
        let (lo, hi) = wilson_ci95(0, 500);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01, "hi = {hi}");
        let (lo, hi) = wilson_ci95(500, 500);
        // Exactly 1 in real arithmetic; floats land within one ulp.
        assert!((hi - 1.0).abs() < 1e-12, "hi = {hi}");
        assert!(lo > 0.99 && lo < 1.0, "lo = {lo}");
        // Degenerate batch: vacuous interval.
        assert_eq!(wilson_ci95(0, 0), (0.0, 1.0));
    }

    #[test]
    fn attack_aggregation_counts_infeasible_and_successes() {
        let trials = [
            (Some(elected(3, 10, 12)), true),
            (Some(elected(0, 10, 12)), false),
            (None, false), // infeasible: no execution statistics
            (Some(elected(3, 11, 13)), true),
        ];
        let r = TrialReport::from_attack_trials("Test", 4, 1, &trials);
        assert_eq!(r.trials, 4);
        assert_eq!(r.wins, vec![1, 0, 0, 2]);
        let a = r.attack.expect("attack arm");
        assert_eq!(a.successes, 2);
        assert_eq!(a.infeasible, 1);
        assert!((a.success_rate(r.trials) - 0.5).abs() < 1e-12);
        // Metric summaries cover only the trials that actually ran.
        assert_eq!(r.messages.max, 11);
        let json = r.to_json();
        assert!(json.ends_with(
            "\"attack\":{\"successes\":2,\"infeasible\":1,\"success_rate\":0.500000,\
             \"ci95_lo\":0.150036,\"ci95_hi\":0.849964}}"
        ));
        let csv = r.to_csv();
        assert!(csv.contains("successes,infeasible,success_rate,ci95_lo,ci95_hi\n"));
        assert!(csv.ends_with("2,1,0.500000,0.150036,0.849964\n"));
    }

    #[test]
    fn faults_section_appears_only_when_nonempty() {
        let mut r = TrialReport::from_trials("Test", 2, 3, &[elected(1, 8, 10)]);
        let plain = r.to_json();
        assert!(!plain.contains("faults"));
        r.faults.push(TrialFault {
            index: 4,
            seed: 99,
            message: "boom \"quoted\"".into(),
        });
        let json = r.to_json();
        assert!(json.starts_with(plain.trim_end_matches('}')));
        assert!(json.ends_with(
            ",\"faults\":[{\"index\":4,\"seed\":99,\"message\":\"boom \\\"quoted\\\"\"}]}"
        ));
        let csv = r.to_csv();
        assert!(csv.ends_with("fault_index,seed,message\n4,99,\"boom \"\"quoted\"\"\"\n"));
    }

    #[test]
    fn json_and_csv_are_stable() {
        let outcomes = [elected(1, 8, 10), elected(0, 8, 11)];
        let r = TrialReport::from_trials("Test", 2, 3, &outcomes);
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        assert!(json.starts_with("{\"protocol\":\"Test\",\"n\":2,\"trials\":2,\"base_seed\":3,"));
        assert!(json.contains("\"wins\":[1,1]"));
        let csv = r.to_csv();
        assert_eq!(csv, "node,wins,win_rate\n0,1,0.500000\n1,1,0.500000\n");
    }
}
