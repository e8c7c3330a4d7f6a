//! Mergeable partial reports over contiguous trial ranges.
//!
//! A [`ReportPartial`] is the resumable/shardable form of a
//! [`TrialReport`]: it aggregates any subset of a sweep's trial index
//! space as a union of disjoint ranges, carries **exact** message/step
//! histograms (counts keyed by value) instead of pre-reduced
//! [`MetricSummary`]s, and folds with an associative, commutative
//! [`ReportPartial::merge`]. Once the union covers the whole index space,
//! [`ReportPartial::finish`] reduces the histograms to the same nearest-rank
//! percentiles and `u128`-exact mean that [`TrialReport::from_trials`]
//! computes — so a sweep split across shards, checkpoints, or crash/resume
//! cycles serializes byte-identically to the monolithic run.

use std::collections::BTreeMap;

use crate::batch::TrialFault;
use crate::json::Json;
use crate::report::{
    AttackSummary, FailCounts, FaultSummary, MetricSummary, TrialOutcome, TrialReport,
};
use crate::spec::{check_keys, opt_u64, req, req_str, req_u64, req_usize, require};
use ring_sim::{Execution, Outcome};

/// Format marker every serialized partial carries.
pub const PARTIAL_FORMAT: &str = "fle-report-partial";
/// Version of the partial-report JSON schema.
pub const PARTIAL_VERSION: u64 = 1;

/// One sweep trial as the runners record it: the outcome (`None` for an
/// attack trial that was infeasible), whether the attack succeeded, and
/// whether a planned crash fired. An honest trial always has an outcome
/// and never succeeds.
pub(crate) type Trial = (Option<TrialOutcome>, bool, bool);

/// The [`Trial`] that ran to `exec`.
pub(crate) fn ran(exec: &Execution, success: bool) -> Trial {
    (
        Some(TrialOutcome::of(exec)),
        success,
        exec.stats.crashes > 0,
    )
}

/// Mergeable aggregate of a subset of one sweep's trials.
///
/// Construct with [`ReportPartial::new_honest`] /
/// [`ReportPartial::new_attack`], feed trials with the `record*` methods
/// (each trial index may be recorded exactly once across all partials of
/// a sweep), combine shards with [`merge`](ReportPartial::merge), and
/// reduce with [`finish`](ReportPartial::finish) once coverage is
/// complete.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportPartial {
    protocol: String,
    n: usize,
    base_seed: u64,
    trials_total: u64,
    attack: bool,
    /// Whether the sweep injects crash faults: set by
    /// [`with_faults`](ReportPartial::with_faults), carried through merge
    /// and serialization so the finished report grows a fault arm.
    faulty: bool,
    /// Trials in which at least one planned crash fired (fault-enabled
    /// sweeps only).
    crashed: u64,
    /// Sorted, disjoint, coalesced half-open `[lo, hi)` index ranges.
    ranges: Vec<(u64, u64)>,
    wins: Vec<u64>,
    out_of_range: u64,
    fails: FailCounts,
    successes: u64,
    infeasible: u64,
    /// Exact histogram: message count -> number of trials with it.
    messages: BTreeMap<u64, u64>,
    /// Exact histogram: step count -> number of trials with it.
    steps: BTreeMap<u64, u64>,
    /// Contained trial panics, sorted by index.
    faults: Vec<TrialFault>,
}

impl ReportPartial {
    fn new(protocol: &str, n: usize, base_seed: u64, trials_total: u64, attack: bool) -> Self {
        Self {
            protocol: protocol.to_string(),
            n,
            base_seed,
            trials_total,
            attack,
            faulty: false,
            crashed: 0,
            ranges: Vec::new(),
            wins: vec![0; n],
            out_of_range: 0,
            fails: FailCounts::default(),
            successes: 0,
            infeasible: 0,
            messages: BTreeMap::new(),
            steps: BTreeMap::new(),
            faults: Vec::new(),
        }
    }

    /// An empty partial for an honest sweep of `trials_total` trials.
    pub fn new_honest(protocol: &str, n: usize, base_seed: u64, trials_total: u64) -> Self {
        Self::new(protocol, n, base_seed, trials_total, false)
    }

    /// An empty partial for an attack sweep of `trials_total` trials.
    pub fn new_attack(protocol: &str, n: usize, base_seed: u64, trials_total: u64) -> Self {
        Self::new(protocol, n, base_seed, trials_total, true)
    }

    /// Marks this partial as aggregating a fault-enabled sweep: trials are
    /// fed through [`record_faulty`](ReportPartial::record_faulty) /
    /// [`record_attack_faulty`](ReportPartial::record_attack_faulty) and
    /// the finished report carries a [`FaultSummary`] arm. Fault-enabled
    /// and fault-free partials never merge.
    pub fn with_faults(mut self) -> Self {
        self.faulty = true;
        self
    }

    /// Whether this partial aggregates attack trials.
    pub fn is_attack(&self) -> bool {
        self.attack
    }

    /// Whether this partial aggregates a fault-enabled sweep.
    pub fn is_faulty(&self) -> bool {
        self.faulty
    }

    /// The protocol (or `protocol:attack`) label.
    pub fn protocol(&self) -> &str {
        &self.protocol
    }

    /// The ring/graph size the sweep runs on.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The full sweep's trial count this partial is a piece of.
    pub fn trials_total(&self) -> u64 {
        self.trials_total
    }

    /// The covered index ranges (sorted, disjoint, half-open).
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Number of trial indices covered so far (recorded + faulted).
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(|(lo, hi)| hi - lo).sum()
    }

    /// Contained trial faults recorded so far, sorted by index.
    pub fn faults(&self) -> &[TrialFault] {
        &self.faults
    }

    /// Marks `index` covered, keeping `ranges` sorted and coalesced.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds or already covered — both are
    /// caller bugs (each trial runs exactly once).
    fn note_index(&mut self, index: u64) {
        assert!(
            index < self.trials_total,
            "trial index {index} out of bounds for {} trials",
            self.trials_total
        );
        // Position of the first range starting after `index`.
        let at = self.ranges.partition_point(|&(lo, _)| lo <= index);
        let touches_next = at < self.ranges.len() && self.ranges[at].0 == index + 1;
        if at > 0 {
            let (lo, hi) = self.ranges[at - 1];
            assert!(
                index >= hi,
                "trial index {index} already covered [{lo},{hi})"
            );
            if hi == index {
                self.ranges[at - 1].1 = index + 1;
                if touches_next {
                    self.ranges[at - 1].1 = self.ranges[at].1;
                    self.ranges.remove(at);
                }
                return;
            }
        }
        if touches_next {
            self.ranges[at].0 = index;
        } else {
            self.ranges.insert(at, (index, index + 1));
        }
    }

    fn record_outcome(&mut self, t: &TrialOutcome) {
        match t.outcome {
            Outcome::Elected(v) if (v as usize) < self.n => self.wins[v as usize] += 1,
            Outcome::Elected(_) => self.out_of_range += 1,
            Outcome::Fail(r) => self.fails.record(r),
        }
        *self.messages.entry(t.messages).or_insert(0) += 1;
        *self.steps.entry(t.steps).or_insert(0) += 1;
    }

    /// Records one trial as the sweep runners hand it over: a [`Trial`]
    /// at global `index`, or a contained panic.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds or double-recorded index.
    pub(crate) fn record_trial(&mut self, index: u64, result: Result<Trial, TrialFault>) {
        let (outcome, success, crashed) = match result {
            Ok(trial) => trial,
            Err(fault) => return self.record_fault(fault),
        };
        self.note_index(index);
        self.successes += u64::from(success);
        self.crashed += u64::from(crashed);
        match outcome {
            Some(t) => self.record_outcome(&t),
            None => self.infeasible += 1,
        }
    }

    /// Records one honest trial at global `index`.
    ///
    /// # Panics
    ///
    /// Panics on an attack partial, an out-of-bounds index, or a
    /// double-recorded index.
    pub fn record(&mut self, index: u64, outcome: TrialOutcome) {
        assert!(!self.attack, "honest trial recorded into an attack partial");
        self.record_trial(index, Ok((Some(outcome), false, false)));
    }

    /// Records one attack trial at global `index`: `outcome = None` marks
    /// an infeasible trial (no execution statistics), `success` whether the
    /// attack achieved its goal.
    ///
    /// # Panics
    ///
    /// Panics on an honest partial, an out-of-bounds index, or a
    /// double-recorded index.
    pub fn record_attack(&mut self, index: u64, outcome: Option<TrialOutcome>, success: bool) {
        assert!(self.attack, "attack trial recorded into an honest partial");
        self.record_trial(index, Ok((outcome, success, false)));
    }

    /// Records one honest trial of a fault-enabled sweep at global
    /// `index`: `crashed` says whether at least one planned crash fired
    /// during the trial.
    ///
    /// # Panics
    ///
    /// Panics on a non-fault-enabled or attack partial, an out-of-bounds
    /// index, or a double-recorded index.
    pub fn record_faulty(&mut self, index: u64, outcome: TrialOutcome, crashed: bool) {
        assert!(
            self.faulty,
            "faulty trial recorded into a fault-free partial"
        );
        self.record(index, outcome);
        if crashed {
            self.crashed += 1;
        }
    }

    /// Records one attack trial of a fault-enabled sweep at global
    /// `index` (see [`record_attack`](ReportPartial::record_attack);
    /// `crashed` as in [`record_faulty`](ReportPartial::record_faulty)).
    ///
    /// # Panics
    ///
    /// Panics on a non-fault-enabled or honest partial, an out-of-bounds
    /// index, or a double-recorded index.
    pub fn record_attack_faulty(
        &mut self,
        index: u64,
        outcome: Option<TrialOutcome>,
        success: bool,
        crashed: bool,
    ) {
        assert!(
            self.faulty,
            "faulty trial recorded into a fault-free partial"
        );
        self.record_attack(index, outcome, success);
        if crashed {
            self.crashed += 1;
        }
    }

    /// Records a contained trial panic: its index is consumed (covered)
    /// but contributes to no statistic except the fault list.
    pub fn record_fault(&mut self, fault: TrialFault) {
        self.note_index(fault.index);
        let at = self.faults.partition_point(|f| f.index <= fault.index);
        self.faults.insert(at, fault);
    }

    /// Merges the disjoint pieces of one sweep in the order the batch
    /// runner hands them back (one per worker, at least one).
    pub(crate) fn merged(pieces: Vec<Self>) -> Self {
        pieces
            .into_iter()
            .reduce(|mut all, piece| {
                all.merge(&piece)
                    .expect("worker pieces of one sweep are disjoint");
                all
            })
            .expect("the batch runner returns one piece per worker")
    }

    /// Folds `other` (a disjoint piece of the same sweep) into `self`.
    ///
    /// Associative and commutative: any merge tree over the same set of
    /// pieces yields the same partial, so shards may arrive in any order.
    ///
    /// # Errors
    ///
    /// If the sweeps differ (protocol/n/base_seed/trials_total/kind) or
    /// the covered ranges overlap.
    pub fn merge(&mut self, other: &ReportPartial) -> Result<(), String> {
        require(
            self.protocol == other.protocol
                && self.n == other.n
                && self.base_seed == other.base_seed
                && self.trials_total == other.trials_total
                && self.attack == other.attack
                && self.faulty == other.faulty,
            &format!(
                "partials describe different sweeps: \
                 ({}, n={}, base_seed={}, trials={}, attack={}, faulty={}) vs \
                 ({}, n={}, base_seed={}, trials={}, attack={}, faulty={})",
                self.protocol,
                self.n,
                self.base_seed,
                self.trials_total,
                self.attack,
                self.faulty,
                other.protocol,
                other.n,
                other.base_seed,
                other.trials_total,
                other.attack,
                other.faulty
            ),
        )?;
        let mut ranges: Vec<(u64, u64)> =
            Vec::with_capacity(self.ranges.len() + other.ranges.len());
        ranges.extend_from_slice(&self.ranges);
        ranges.extend_from_slice(&other.ranges);
        ranges.sort_unstable();
        let mut coalesced: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            if let Some(last) = coalesced.last_mut() {
                if lo < last.1 {
                    return Err(format!(
                        "overlapping trial ranges [{},{}) and [{lo},{hi})",
                        last.0, last.1
                    ));
                }
                if lo == last.1 {
                    last.1 = hi;
                    continue;
                }
            }
            coalesced.push((lo, hi));
        }
        self.ranges = coalesced;
        for (w, o) in self.wins.iter_mut().zip(&other.wins) {
            *w += o;
        }
        self.out_of_range += other.out_of_range;
        self.fails.abort += other.fails.abort;
        self.fails.disagreement += other.fails.disagreement;
        self.fails.deadlock += other.fails.deadlock;
        self.fails.step_limit += other.fails.step_limit;
        self.fails.crash_partition += other.fails.crash_partition;
        self.crashed += other.crashed;
        self.successes += other.successes;
        self.infeasible += other.infeasible;
        for (&v, &c) in &other.messages {
            *self.messages.entry(v).or_insert(0) += c;
        }
        for (&v, &c) in &other.steps {
            *self.steps.entry(v).or_insert(0) += c;
        }
        self.faults.extend(other.faults.iter().cloned());
        self.faults.sort_by_key(|f| f.index);
        Ok(())
    }

    /// Where a checkpointed run of the range starting at `start` resumes:
    /// the end of the single covered prefix beginning there.
    ///
    /// # Errors
    ///
    /// If coverage is not empty and not one contiguous range starting at
    /// `start` (e.g. shard files were merged in).
    pub fn resume_point(&self, start: u64) -> Result<u64, String> {
        match self.ranges.as_slice() {
            [] => Ok(start),
            [(lo, hi)] if *lo == start => Ok(*hi),
            _ => Err(format!(
                "partial coverage is not a contiguous prefix from {start}: {:?}",
                self.ranges
            )),
        }
    }

    /// Reduces a fully-covered partial to the [`TrialReport`] the
    /// monolithic run would have produced (byte-identical serialization
    /// when no trial faulted; faulted trials are excluded from `trials`
    /// and listed in [`TrialReport::faults`]).
    ///
    /// # Errors
    ///
    /// If coverage is incomplete (names the covered/total counts).
    pub fn finish(&self) -> Result<TrialReport, String> {
        let complete = match self.trials_total {
            0 => self.ranges.is_empty(),
            t => self.ranges.as_slice() == [(0, t)],
        };
        require(
            complete,
            &format!(
                "partial covers {} of {} trials in {} range(s); merge the missing shards before \
                 finishing",
                self.covered(),
                self.trials_total,
                self.ranges.len()
            ),
        )?;
        Ok(TrialReport {
            protocol: self.protocol.clone(),
            n: self.n,
            trials: self.trials_total - self.faults.len() as u64,
            base_seed: self.base_seed,
            wins: self.wins.clone(),
            out_of_range: self.out_of_range,
            fails: self.fails,
            messages: summary_of_histogram(&self.messages),
            steps: summary_of_histogram(&self.steps),
            attack: self.attack.then_some(AttackSummary {
                successes: self.successes,
                infeasible: self.infeasible,
            }),
            fault: self.faulty.then_some(FaultSummary {
                crashed_trials: self.crashed,
            }),
            faults: self.faults.clone(),
        })
    }

    /// Serializes to a single-line versioned JSON object (pinned field
    /// order; [`ReportPartial::parse_json`] round-trips it).
    pub fn to_json(&self) -> String {
        let pairs = |hist: &BTreeMap<u64, u64>| {
            hist.iter()
                .map(|(v, c)| format!("[{v},{c}]"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let ranges = self
            .ranges
            .iter()
            .map(|(lo, hi)| format!("[{lo},{hi}]"))
            .collect::<Vec<_>>()
            .join(",");
        let wins = self
            .wins
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let attack_arm = if self.attack {
            format!(
                "\"successes\":{},\"infeasible\":{},",
                self.successes, self.infeasible
            )
        } else {
            String::new()
        };
        // Fault-enabled partials carry the crash counters; fault-free
        // partials keep the exact historical bytes.
        let crash_partition = if self.faulty {
            format!(",\"crash_partition\":{}", self.fails.crash_partition)
        } else {
            String::new()
        };
        let fault_arm = if self.faulty {
            format!("\"crashed\":{},", self.crashed)
        } else {
            String::new()
        };
        let faults = self
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
        format!(
            concat!(
                "{{\"format\":\"{}\",\"version\":{},\"kind\":\"{}\",\"protocol\":\"{}\",",
                "\"n\":{},\"base_seed\":{},\"trials_total\":{},\"ranges\":[{}],",
                "\"wins\":[{}],\"out_of_range\":{},",
                "\"fails\":{{\"abort\":{},\"disagreement\":{},\"deadlock\":{},\"step_limit\":{}{}}},",
                "{}{}\"messages\":[{}],\"steps\":[{}],\"faults\":[{}]}}"
            ),
            PARTIAL_FORMAT,
            PARTIAL_VERSION,
            if self.attack { "attack" } else { "honest" },
            Json::escape(&self.protocol),
            self.n,
            self.base_seed,
            self.trials_total,
            ranges,
            wins,
            self.out_of_range,
            self.fails.abort,
            self.fails.disagreement,
            self.fails.deadlock,
            self.fails.step_limit,
            crash_partition,
            attack_arm,
            fault_arm,
            pairs(&self.messages),
            pairs(&self.steps),
            faults,
        )
    }

    /// Parses the encoding produced by [`ReportPartial::to_json`] (field
    /// order free; unknown fields rejected; counts cross-checked against
    /// the covered ranges).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field or the failed
    /// consistency check.
    pub fn parse_json(src: &str) -> Result<Self, String> {
        Self::from_value(&Json::parse(src)?)
    }

    pub(crate) fn from_value(v: &Json) -> Result<Self, String> {
        let ctx = "partial report";
        check_keys(
            v,
            &[
                "format",
                "version",
                "kind",
                "protocol",
                "n",
                "base_seed",
                "trials_total",
                "ranges",
                "wins",
                "out_of_range",
                "fails",
                "successes",
                "infeasible",
                "crashed",
                "messages",
                "steps",
                "faults",
            ],
            ctx,
        )?;
        let format = req_str(v, "format", ctx)?;
        require(
            format == PARTIAL_FORMAT,
            &format!("{ctx}: format is \"{format}\", expected \"{PARTIAL_FORMAT}\""),
        )?;
        let version = req_u64(v, "version", ctx)?;
        require(
            version == PARTIAL_VERSION,
            &format!("{ctx}: unsupported version {version} (this build reads {PARTIAL_VERSION})"),
        )?;
        let attack = match req_str(v, "kind", ctx)? {
            "honest" => false,
            "attack" => true,
            other => return Err(format!("{ctx}: unknown kind \"{other}\"")),
        };
        let n = req_usize(v, "n", ctx)?;
        let mut out = Self::new(
            req_str(v, "protocol", ctx)?,
            n,
            req_u64(v, "base_seed", ctx)?,
            req_u64(v, "trials_total", ctx)?,
            attack,
        );
        let ranges = req(v, "ranges", ctx)?
            .as_array()
            .ok_or_else(|| format!("{ctx}: \"ranges\" must be an array"))?;
        let mut prev_hi: Option<u64> = None;
        for r in ranges {
            let pair = r
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("{ctx}: each range must be a [lo,hi] pair"))?;
            let lo = pair[0]
                .as_u64()
                .ok_or_else(|| format!("{ctx}: range bounds must be integers"))?;
            let hi = pair[1]
                .as_u64()
                .ok_or_else(|| format!("{ctx}: range bounds must be integers"))?;
            require(
                lo < hi && hi <= out.trials_total,
                &format!(
                    "{ctx}: range [{lo},{hi}) invalid for {} trials",
                    out.trials_total
                ),
            )?;
            // Strictly increasing with a gap: coalesced form is canonical.
            require(
                prev_hi.is_none_or(|p| lo > p),
                &format!("{ctx}: ranges must be sorted, disjoint and coalesced"),
            )?;
            prev_hi = Some(hi);
            out.ranges.push((lo, hi));
        }
        let wins = req(v, "wins", ctx)?
            .as_array()
            .ok_or_else(|| format!("{ctx}: \"wins\" must be an array"))?;
        require(
            wins.len() == n,
            &format!("{ctx}: wins has {} entries, expected n={n}", wins.len()),
        )?;
        for (slot, w) in out.wins.iter_mut().zip(wins) {
            *slot = w
                .as_u64()
                .ok_or_else(|| format!("{ctx}: win counts must be integers"))?;
        }
        out.out_of_range = req_u64(v, "out_of_range", ctx)?;
        let fails = req(v, "fails", ctx)?;
        check_keys(
            fails,
            &[
                "abort",
                "disagreement",
                "deadlock",
                "step_limit",
                "crash_partition",
            ],
            "fails",
        )?;
        out.fails.abort = req_u64(fails, "abort", "fails")?;
        out.fails.disagreement = req_u64(fails, "disagreement", "fails")?;
        out.fails.deadlock = req_u64(fails, "deadlock", "fails")?;
        out.fails.step_limit = req_u64(fails, "step_limit", "fails")?;
        // The crash counters travel together: a fault-enabled partial
        // carries both "crashed" and "fails.crash_partition", a fault-free
        // one carries neither.
        out.faulty = v.get("crashed").is_some();
        if out.faulty {
            out.crashed = req_u64(v, "crashed", ctx)?;
            out.fails.crash_partition = opt_u64(fails, "crash_partition", 0)?;
        } else {
            require(
                fails.get("crash_partition").is_none(),
                &format!("{ctx}: fault-free partials carry no crash_partition field"),
            )?;
        }
        if attack {
            out.successes = req_u64(v, "successes", ctx)?;
            out.infeasible = req_u64(v, "infeasible", ctx)?;
        } else {
            require(
                v.get("successes").is_none() && v.get("infeasible").is_none(),
                &format!("{ctx}: honest partials carry no successes/infeasible fields"),
            )?;
        }
        out.messages = parse_histogram(v, "messages", ctx)?;
        out.steps = parse_histogram(v, "steps", ctx)?;
        let faults = req(v, "faults", ctx)?
            .as_array()
            .ok_or_else(|| format!("{ctx}: \"faults\" must be an array"))?;
        let mut prev_index: Option<u64> = None;
        for f in faults {
            check_keys(f, &["index", "seed", "message"], "fault")?;
            let index = req_u64(f, "index", "fault")?;
            require(
                prev_index.is_none_or(|p| index > p),
                &format!("{ctx}: faults must be sorted by index"),
            )?;
            prev_index = Some(index);
            out.faults.push(TrialFault {
                index,
                seed: req_u64(f, "seed", "fault")?,
                message: req_str(f, "message", "fault")?.to_string(),
            });
        }
        // The books must balance: every covered index is either a fault or
        // a recorded trial, and every ran trial contributed one histogram
        // sample.
        let recorded = out
            .covered()
            .checked_sub(out.faults.len() as u64)
            .ok_or_else(|| format!("{ctx}: more faults than covered trials"))?;
        let f = &out.fails;
        let mut accounted = 0;
        add_counts(&mut accounted, &out.wins, "wins", ctx)?;
        add_counts(&mut accounted, &[out.out_of_range], "out_of_range", ctx)?;
        let fails = [
            f.abort,
            f.disagreement,
            f.deadlock,
            f.step_limit,
            f.crash_partition,
        ];
        add_counts(&mut accounted, &fails, "fails", ctx)?;
        add_counts(&mut accounted, &[out.infeasible], "infeasible", ctx)?;
        require(
            accounted == recorded,
            &format!("{ctx}: outcome counts ({accounted}) != covered trials ({recorded})"),
        )?;
        require(
            out.successes <= recorded,
            &format!(
                "{ctx}: successes ({}) exceed recorded trials ({recorded})",
                out.successes
            ),
        )?;
        let ran = recorded - out.infeasible;
        require(
            out.crashed <= ran,
            &format!(
                "{ctx}: crashed trials ({}) exceed ran trials ({ran})",
                out.crashed
            ),
        )?;
        for (name, hist) in [("messages", &out.messages), ("steps", &out.steps)] {
            let mut samples = 0;
            add_counts(&mut samples, hist.values(), name, ctx)?;
            require(
                samples == ran,
                &format!("{ctx}: {name} histogram holds {samples} samples, expected {ran}"),
            )?;
        }
        Ok(out)
    }
}

/// Adds `counts` to `total`, naming `field` if the sum leaves `u64`: a
/// hostile count near `u64::MAX` must not wrap onto the covered total.
/// Once every count is bounded by its partial's covered trials, merging
/// disjoint partials cannot overflow either.
fn add_counts<'a>(
    total: &mut u64,
    counts: impl IntoIterator<Item = &'a u64>,
    field: &str,
    ctx: &str,
) -> Result<(), String> {
    for &count in counts {
        *total = total
            .checked_add(count)
            .ok_or_else(|| format!("{ctx}: \"{field}\" counts overflow a 64-bit total"))?;
    }
    Ok(())
}

fn parse_histogram(v: &Json, key: &str, ctx: &str) -> Result<BTreeMap<u64, u64>, String> {
    let pairs = req(v, key, ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: \"{key}\" must be an array of [value,count] pairs"))?;
    let mut hist = BTreeMap::new();
    for p in pairs {
        let pair = p
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("{ctx}: each {key} entry must be a [value,count] pair"))?;
        let value = pair[0]
            .as_u64()
            .ok_or_else(|| format!("{ctx}: {key} values must be integers"))?;
        let count = pair[1]
            .as_u64()
            .ok_or_else(|| format!("{ctx}: {key} counts must be integers"))?;
        require(count >= 1, &format!("{ctx}: {key} counts must be >= 1"))?;
        require(
            hist.insert(value, count).is_none(),
            &format!("{ctx}: duplicate {key} value {value}"),
        )?;
    }
    Ok(hist)
}

/// Reduces an exact value->count histogram to the [`MetricSummary`] that
/// [`MetricSummary::of`] computes on the expanded sample list: the mean
/// sums in `u128` (order-independent, exact), and nearest-rank percentiles
/// walk the cumulative counts.
fn summary_of_histogram(hist: &BTreeMap<u64, u64>) -> MetricSummary {
    let len: u64 = hist.values().sum();
    if len == 0 {
        return MetricSummary::default();
    }
    let sum: u128 = hist.iter().map(|(&v, &c)| v as u128 * c as u128).sum();
    let rank = |pct: u64| -> u64 {
        let target = (pct as u128 * len as u128).div_ceil(100).max(1);
        let mut seen: u128 = 0;
        for (&v, &c) in hist {
            seen += c as u128;
            if seen >= target {
                return v;
            }
        }
        *hist.keys().next_back().expect("non-empty histogram")
    };
    MetricSummary {
        min: *hist.keys().next().expect("non-empty histogram"),
        max: *hist.keys().next_back().expect("non-empty histogram"),
        mean: sum as f64 / len as f64,
        p50: rank(50),
        p90: rank(90),
        p99: rank(99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::FailReason;

    fn elected(v: u64, messages: u64, steps: u64) -> TrialOutcome {
        TrialOutcome {
            outcome: Outcome::Elected(v),
            messages,
            steps,
        }
    }

    fn sample_outcomes() -> Vec<TrialOutcome> {
        (0..40)
            .map(|i| match i % 7 {
                6 => TrialOutcome {
                    outcome: Outcome::Fail(FailReason::Deadlock),
                    messages: i,
                    steps: i + 1,
                },
                r => elected(r % 4, 100 + i % 5, 200 + i % 3),
            })
            .collect()
    }

    #[test]
    fn any_split_finishes_like_from_trials() {
        let outcomes = sample_outcomes();
        let monolithic = TrialReport::from_trials("Test", 4, 9, &outcomes);
        for split in [1, 7, 20, 39] {
            let mut a = ReportPartial::new_honest("Test", 4, 9, 40);
            let mut b = ReportPartial::new_honest("Test", 4, 9, 40);
            for (i, t) in outcomes.iter().enumerate() {
                let part = if i < split { &mut a } else { &mut b };
                part.record(i as u64, *t);
            }
            // Merge in both orders: commutativity.
            let mut ab = a.clone();
            ab.merge(&b).unwrap();
            let mut ba = b.clone();
            ba.merge(&a).unwrap();
            assert_eq!(ab, ba);
            assert_eq!(ab.finish().unwrap().to_json(), monolithic.to_json());
        }
    }

    #[test]
    fn attack_split_finishes_like_from_attack_trials() {
        let trials: Vec<(Option<TrialOutcome>, bool)> = (0..30)
            .map(|i| match i % 5 {
                0 => (None, false),
                1 => (Some(elected(3, 50 + i, 60 + i)), true),
                _ => (Some(elected(i % 4, 50 + i, 60 + i)), false),
            })
            .collect();
        let monolithic = TrialReport::from_attack_trials("T:atk", 4, 2, &trials);
        let mut parts: Vec<ReportPartial> = (0..3)
            .map(|_| ReportPartial::new_attack("T:atk", 4, 2, 30))
            .collect();
        for (i, &(o, s)) in trials.iter().enumerate() {
            parts[i % 3].record_attack(i as u64, o, s);
        }
        let (head, rest) = parts.split_at_mut(1);
        let merged = &mut head[0];
        for p in rest {
            merged.merge(p).unwrap();
        }
        assert_eq!(merged.finish().unwrap().to_json(), monolithic.to_json());
    }

    #[test]
    fn merge_rejects_overlap_and_mismatched_headers() {
        let mut a = ReportPartial::new_honest("Test", 2, 0, 10);
        a.record(3, elected(0, 1, 1));
        let mut b = ReportPartial::new_honest("Test", 2, 0, 10);
        b.record(3, elected(1, 1, 1));
        assert!(a.clone().merge(&b).unwrap_err().contains("overlapping"));
        let c = ReportPartial::new_honest("Test", 2, 1, 10);
        assert!(a.merge(&c).unwrap_err().contains("different sweeps"));
    }

    #[test]
    fn finish_requires_full_coverage() {
        let mut p = ReportPartial::new_honest("Test", 2, 0, 3);
        p.record(0, elected(0, 1, 1));
        p.record(2, elected(1, 1, 1));
        let err = p.finish().unwrap_err();
        assert!(err.contains("2 of 3"), "{err}");
        p.record(1, elected(1, 1, 1));
        assert_eq!(p.finish().unwrap().trials, 3);
    }

    #[test]
    fn faults_are_excluded_from_stats_and_listed() {
        let mut p = ReportPartial::new_honest("Test", 2, 0, 4);
        p.record(0, elected(0, 5, 6));
        p.record_fault(TrialFault {
            index: 1,
            seed: 42,
            message: "boom".into(),
        });
        p.record(2, elected(1, 7, 8));
        p.record(3, elected(1, 7, 9));
        let report = p.finish().unwrap();
        assert_eq!(report.trials, 3);
        assert_eq!(report.wins, vec![1, 2]);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].seed, 42);
        assert!(report.to_json().contains("\"faults\":[{\"index\":1,"));
    }

    #[test]
    fn json_round_trips() {
        let outcomes = sample_outcomes();
        let mut p = ReportPartial::new_honest("Test", 4, 9, 50);
        for (i, t) in outcomes.iter().enumerate() {
            // Two ranges with a gap: [0,20) and [30,50).
            let index = if i < 20 { i } else { i + 10 };
            p.record(index as u64, *t);
        }
        p.record_fault(TrialFault {
            index: 25,
            seed: 7,
            message: "x\"y".into(),
        });
        let json = p.to_json();
        let back = ReportPartial::parse_json(&json).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn parse_rejects_inconsistent_books() {
        let mut p = ReportPartial::new_honest("Test", 2, 0, 5);
        p.record(0, elected(0, 3, 4));
        let good = p.to_json();
        let bad = good.replace("\"out_of_range\":0", "\"out_of_range\":1");
        assert!(ReportPartial::parse_json(&bad)
            .unwrap_err()
            .contains("outcome counts"));
        let bad = good.replace("\"version\":1", "\"version\":9");
        assert!(ReportPartial::parse_json(&bad)
            .unwrap_err()
            .contains("unsupported version"));
        // Two such partials once overflowed the successes sum in `merge`.
        let mut a = ReportPartial::new_attack("Test", 2, 0, 5);
        a.record_attack(0, Some(elected(0, 3, 4)), true);
        let bad = a
            .to_json()
            .replace("\"successes\":1", "\"successes\":18446744073709551615");
        assert!(ReportPartial::parse_json(&bad)
            .unwrap_err()
            .contains("successes (18446744073709551615) exceed recorded trials (1)"));
    }

    #[test]
    fn note_index_coalesces_in_any_order() {
        let mut p = ReportPartial::new_honest("Test", 1, 0, 10);
        for i in [4u64, 6, 5, 0, 9, 1, 8, 2, 7, 3] {
            p.record(i, elected(0, 1, 1));
        }
        assert_eq!(p.ranges(), &[(0, 10)]);
        assert_eq!(p.covered(), 10);
    }
}
