//! Typed errors for training, generation and checkpoint IO.
//!
//! The train/generate hot paths used to panic (`assert!`/`unwrap()`) on bad
//! configs, non-finite losses and corrupt files. Long unattended runs — the
//! regime the paper's §5.5 results depend on — need those conditions
//! surfaced as values a caller can match on, log, and turn into exit codes,
//! never a panic. Every variant carries enough context to act on: the
//! offending field, the fault kind, the checkpoint path, or the structured
//! [`TrainReport`] accumulated up to the abort.

#![deny(clippy::unwrap_used)]

use crate::train::TrainReport;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The kind of numerical fault the training watchdog detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The batch loss evaluated to NaN or ±∞.
    NonFiniteLoss,
    /// The global gradient norm evaluated to NaN or ±∞.
    NonFiniteGradient,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::NonFiniteLoss => write!(f, "non-finite loss"),
            FaultKind::NonFiniteGradient => write!(f, "non-finite gradient norm"),
        }
    }
}

/// Errors raised by [`crate::train::train`] and friends.
#[derive(Debug)]
pub enum TrainError {
    /// A training-configuration field failed validation.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable description of the constraint that failed.
        message: String,
    },
    /// The dataset contains no stream with at least two events, so there is
    /// nothing to fit.
    NoTrainableStreams,
    /// The watchdog exhausted its retry budget: every rollback + learning-
    /// rate backoff still re-diverged. Carries the structured report
    /// (including every recovery attempt) accumulated before the abort.
    Diverged {
        /// Fault observed on the final, fatal attempt.
        cause: FaultKind,
        /// Rollback/backoff attempts consumed before giving up.
        retries: u32,
        /// Report of everything that happened up to the abort; its
        /// `recoveries` field records each rollback.
        report: Box<TrainReport>,
    },
    /// Reading or writing a training checkpoint failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::InvalidConfig { field, message } => {
                write!(f, "invalid training config: {field}: {message}")
            }
            TrainError::NoTrainableStreams => {
                write!(f, "no trainable streams (all shorter than 2 events)")
            }
            TrainError::Diverged {
                cause, retries, ..
            } => write!(
                f,
                "training diverged ({cause}) and did not recover after {retries} rollback(s)"
            ),
            TrainError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Errors raised while saving or loading a [`crate::checkpoint::TrainCheckpoint`].
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error touching the checkpoint (or its temp file).
    Io {
        /// Checkpoint path involved.
        path: PathBuf,
        /// Underlying OS error.
        source: std::io::Error,
    },
    /// The checkpoint bytes do not parse as a checkpoint (truncated file,
    /// flipped bytes, wrong file entirely).
    Corrupt {
        /// Checkpoint path involved.
        path: PathBuf,
        /// Parser detail (includes the JSON error position).
        detail: String,
    },
    /// The checkpoint parsed but was written by an incompatible format
    /// version of this crate.
    Version {
        /// Checkpoint path involved.
        path: PathBuf,
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The checkpoint parsed but its weights are unusable: non-finite
    /// values or a tensor whose data length disagrees with its shape.
    /// Distinguished from [`CheckpointError::Corrupt`] because the bytes
    /// are well-formed JSON — the *model* is invalid, so callers map it to
    /// the bad-config/model exit code rather than the checkpoint-IO one.
    Validation {
        /// Checkpoint path involved.
        path: PathBuf,
        /// Which tensor failed and why.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint io error at {}: {source}", path.display())
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())
            }
            CheckpointError::Version {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {} has format version {found}, this build reads {expected}",
                path.display()
            ),
            CheckpointError::Validation { path, detail } => {
                write!(f, "checkpoint {} failed validation: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Errors raised by [`crate::model::CptGpt::generate`].
#[derive(Debug)]
pub enum GenerateError {
    /// A generation-configuration field failed validation.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable description of the constraint that failed.
        message: String,
    },
    /// The model has no initial-event distribution: it was never trained
    /// (or was deserialized from a bundle missing it), so inference cannot
    /// bootstrap a stream.
    UntrainedModel,
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::InvalidConfig { field, message } => {
                write!(f, "invalid generation config: {field}: {message}")
            }
            GenerateError::UntrainedModel => write!(
                f,
                "model has no initial-event distribution; train it first"
            ),
        }
    }
}

impl std::error::Error for GenerateError {}

/// The message a caught panic carried. `panic!` payloads are a `&str` or a
/// `String`; anything else (`std::panic::panic_any`) has no text to show.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string payload"
    }
}

#[cfg(test)]
mod tests {
    use super::panic_message;
    use std::panic::{catch_unwind, panic_any};

    #[test]
    fn panic_message_reads_both_string_payloads_and_names_the_rest() {
        let caught = |f: fn()| catch_unwind(f).expect_err("the closure panics");
        assert_eq!(
            panic_message(&*caught(|| panic!("static text"))),
            "static text"
        );
        assert_eq!(
            panic_message(&*caught(|| panic!("formatted {}", 7))),
            "formatted 7"
        );
        assert_eq!(
            panic_message(&*caught(|| panic_any(7u32))),
            "non-string payload"
        );
    }
}
