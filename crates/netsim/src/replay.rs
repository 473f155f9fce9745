//! Deterministic capsule replay verification.
//!
//! A harness re-executes a [`Capsule`] (rebuilding its nodes from the
//! scenario tags, because protocol state is the one thing the capture
//! format deliberately does not serialize — seed + config + topology +
//! faults regenerate it) and packages the run as a [`ReplayRun`];
//! [`verify_replay`] asserts the recomputed [`RunDigest`] matches what
//! the capsule recorded.

use crate::capsule::{Capsule, RunDigest};
use crate::metrics::Metrics;
use crate::sim::RunReport;
use lrs_host::violation::ContentDigest;
use std::fmt;

/// A re-executed capsule: the run's report, metrics, and the digest
/// recomputed from them and its trace.
pub struct ReplayRun {
    /// The run's report.
    pub report: RunReport,
    /// The run's metric counters.
    pub metrics: Metrics,
    /// Digest recomputed from this replay.
    pub digest: RunDigest,
}

/// One digest field that differed between a capsule and its replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestMismatch {
    /// Which field diverged (`"outcome"`, `"final_time"`, `"events"`,
    /// `"trace"`, or `"metrics"`).
    pub field: &'static str,
    /// The capsule's recorded value.
    pub expected: String,
    /// The replay's value.
    pub actual: String,
}

impl fmt::Display for DigestMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay diverged on {}: recorded {}, replayed {}",
            self.field, self.expected, self.actual
        )
    }
}

/// Why [`verify_replay`] rejected a replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The capsule records no digest (it was snapshotted before running).
    NoRecordedDigest,
    /// The replay's digest differs from the recorded one.
    Mismatch(DigestMismatch),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::NoRecordedDigest => f.write_str("capsule records no digest"),
            ReplayError::Mismatch(mismatch) => mismatch.fmt(f),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Compares a recorded digest against a replayed one, skipping fields
/// the recording could not capture (a [`ContentDigest::MISSING`] trace
/// digest, e.g. from a harness's failure dump, whose trace was not
/// collected).
pub fn check_digest(recorded: &RunDigest, actual: &RunDigest) -> Result<(), DigestMismatch> {
    let diff = |field, expected: &dyn fmt::Display, actual: &dyn fmt::Display| DigestMismatch {
        field,
        expected: expected.to_string(),
        actual: actual.to_string(),
    };
    if recorded.outcome != actual.outcome {
        return Err(diff("outcome", &recorded.outcome, &actual.outcome));
    }
    if recorded.final_time != actual.final_time {
        return Err(diff(
            "final_time",
            &recorded.final_time.as_micros(),
            &actual.final_time.as_micros(),
        ));
    }
    if recorded.metrics != actual.metrics {
        return Err(diff("metrics", &recorded.metrics, &actual.metrics));
    }
    if recorded.trace != ContentDigest::MISSING {
        if recorded.events != actual.events {
            return Err(diff("events", &recorded.events, &actual.events));
        }
        if recorded.trace != actual.trace {
            return Err(diff("trace", &recorded.trace, &actual.trace));
        }
    }
    Ok(())
}

/// Verifies a replay against the capsule's recorded digest.
pub fn verify_replay(capsule: &Capsule, run: &ReplayRun) -> Result<(), ReplayError> {
    let recorded = capsule
        .digest
        .as_ref()
        .ok_or(ReplayError::NoRecordedDigest)?;
    check_digest(recorded, &run.digest).map_err(ReplayError::Mismatch)
}
