//! Crash-safe checkpointing for long sweeps.
//!
//! A [`SweepCheckpoint`] is a versioned JSON snapshot of an in-progress
//! sweep: the spec's `sha256` (so a resume never silently continues a
//! *different* sweep), the trial range being run, and the
//! [`ReportPartial`] accumulated so far. [`run_sweep_checkpointed`] writes
//! one atomically (temp file + rename) after every chunk of
//! `checkpoint_every` trials; if the process dies — SIGKILL included —
//! rerunning the same command fast-forwards the deterministic
//! [`trial_seed`](crate::trial_seed) schedule past the recorded prefix and
//! finishes with byte-identical output.

use std::path::Path;

use crate::json::{read_input, Json};
use crate::partial::ReportPartial;
use crate::sha256_hex;
use crate::spec::{check_keys, req, req_str, req_u64, require, SweepSpec};
use crate::sweep::run_sweep_partial;

/// Format marker every checkpoint file carries.
pub const CHECKPOINT_FORMAT: &str = "fle-sweep-checkpoint";
/// Version of the checkpoint JSON schema.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Snapshot of an in-progress sweep range.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// `sha256_hex` of the spec's canonical JSON ([`SweepSpec::to_json`]).
    pub spec_sha256: String,
    /// Start of the trial range this run covers (inclusive).
    pub start: u64,
    /// End of the trial range this run covers (exclusive).
    pub end: u64,
    /// Trials accumulated so far — always the contiguous prefix
    /// `[start, completed())`.
    pub partial: ReportPartial,
}

impl SweepCheckpoint {
    /// First trial index not yet covered by [`SweepCheckpoint::partial`].
    pub fn completed(&self) -> u64 {
        self.partial
            .resume_point(self.start)
            .expect("checkpoint partial is a contiguous prefix")
    }

    /// Serializes to a single-line versioned JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"format\":\"{}\",\"version\":{},\"spec_sha256\":\"{}\",\"start\":{},\"end\":{},\
             \"completed\":{},\"partial\":{}}}",
            CHECKPOINT_FORMAT,
            CHECKPOINT_VERSION,
            self.spec_sha256,
            self.start,
            self.end,
            self.completed(),
            self.partial.to_json(),
        )
    }

    /// Parses the encoding produced by [`SweepCheckpoint::to_json`],
    /// cross-checking the recorded `completed` marker against the
    /// partial's actual coverage.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn parse_json(src: &str) -> Result<Self, String> {
        let v = Json::parse(src)?;
        let ctx = "sweep checkpoint";
        check_keys(
            &v,
            &[
                "format",
                "version",
                "spec_sha256",
                "start",
                "end",
                "completed",
                "partial",
            ],
            ctx,
        )?;
        let format = req_str(&v, "format", ctx)?;
        require(
            format == CHECKPOINT_FORMAT,
            &format!("{ctx}: format is \"{format}\", expected \"{CHECKPOINT_FORMAT}\""),
        )?;
        let version = req_u64(&v, "version", ctx)?;
        require(
            version == CHECKPOINT_VERSION,
            &format!(
                "{ctx}: unsupported version {version} (this build reads {CHECKPOINT_VERSION})"
            ),
        )?;
        let cp = Self {
            spec_sha256: req_str(&v, "spec_sha256", ctx)?.to_string(),
            start: req_u64(&v, "start", ctx)?,
            end: req_u64(&v, "end", ctx)?,
            partial: ReportPartial::from_value(req(&v, "partial", ctx)?)?,
        };
        require(
            cp.start <= cp.end && cp.end <= cp.partial.trials_total(),
            &format!(
                "{ctx}: range [{}, {}) invalid for {} trials",
                cp.start,
                cp.end,
                cp.partial.trials_total()
            ),
        )?;
        let completed = cp
            .partial
            .resume_point(cp.start)
            .map_err(|e| format!("{ctx}: {e}"))?;
        require(
            completed <= cp.end,
            &format!("{ctx}: covers past its own range end {}", cp.end),
        )?;
        let recorded = req_u64(&v, "completed", ctx)?;
        require(
            recorded == completed,
            &format!(
                "{ctx}: completed marker says {recorded} but partial covers up to {completed}"
            ),
        )?;
        Ok(cp)
    }
}

/// Writes `checkpoint` to `path` atomically: the bytes land in
/// `<path>.tmp` first and are renamed over `path`, so a crash mid-write
/// leaves the previous checkpoint intact.
///
/// # Errors
///
/// The underlying I/O error, naming the path.
pub fn write_checkpoint(path: &Path, checkpoint: &SweepCheckpoint) -> Result<(), String> {
    let mut name = path
        .file_name()
        .map(|s| s.to_os_string())
        .ok_or_else(|| format!("checkpoint path {} has no file name", path.display()))?;
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, format!("{}\n", checkpoint.to_json()))
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        format!(
            "cannot rename {} over {}: {e}",
            tmp.display(),
            path.display()
        )
    })
}

/// What [`run_sweep_checkpointed`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointedRun {
    /// The accumulated partial covering the whole requested range.
    pub partial: ReportPartial,
    /// `Some(i)` if a checkpoint file existed and the run fast-forwarded
    /// to trial `i` instead of starting at `start`.
    pub resumed_from: Option<u64>,
    /// Checkpoint files written by this invocation.
    pub checkpoints_written: u64,
}

/// Runs trials `start..end` of `spec`, checkpointing to `path` after
/// every `every` trials (`0` means only once, at the end).
///
/// If `path` already holds a checkpoint, the run validates that it
/// belongs to this spec (by `sha256` of the canonical spec JSON) and this
/// exact range, then resumes after its covered prefix. The file is left
/// in place on return — covering the full range — so the caller decides
/// when the run's output is safely consumed and the file can be removed.
///
/// # Errors
///
/// Invalid spec or range, an unreadable/mismatched checkpoint, or a
/// checkpoint write failure. A mismatched spec hash is an error, never a
/// silent restart: delete the stale file to start over.
pub fn run_sweep_checkpointed(
    spec: &SweepSpec,
    path: &Path,
    every: u64,
    start: u64,
    end: u64,
) -> Result<CheckpointedRun, String> {
    let spec_sha256 = sha256_hex(spec.to_json().as_bytes());
    let (mut partial, resumed_from) = if path.exists() {
        let src = read_input(path).map_err(|e| format!("checkpoint: {e}"))?;
        let cp = SweepCheckpoint::parse_json(&src)
            .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
        require(
            cp.spec_sha256 == spec_sha256,
            &format!(
                "checkpoint {} belongs to a different spec (its spec sha256 {}, this run's {}); \
                 delete it to start over",
                path.display(),
                cp.spec_sha256,
                spec_sha256
            ),
        )?;
        require(
            cp.start == start && cp.end == end,
            &format!(
                "checkpoint {} covers trial range [{}, {}), this run asked for [{start}, {end})",
                path.display(),
                cp.start,
                cp.end
            ),
        )?;
        let at = cp.completed();
        (cp.partial, Some(at))
    } else {
        // An empty partial of the right shape (validates spec + range).
        (run_sweep_partial(spec, start, start)?, None)
    };
    let mut at = resumed_from.unwrap_or(start);
    let chunk = if every == 0 {
        (end - start).max(1)
    } else {
        every
    };
    let mut checkpoints_written = 0;
    while at < end {
        let hi = (at + chunk).min(end);
        let piece = run_sweep_partial(spec, at, hi)?;
        partial.merge(&piece)?;
        at = hi;
        let cp = SweepCheckpoint {
            spec_sha256: spec_sha256.clone(),
            start,
            end,
            partial,
        };
        write_checkpoint(path, &cp)?;
        partial = cp.partial;
        checkpoints_written += 1;
    }
    Ok(CheckpointedRun {
        partial,
        resumed_from,
        checkpoints_written,
    })
}
