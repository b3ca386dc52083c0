//! Typed errors for the NetShare baseline.
//!
//! The GAN used to panic on the two conditions a long experiment run can
//! actually hit — generating from an untrained model and decoding an
//! out-of-range event index — which aborted the whole suite instead of
//! failing one stage. Both are now values the experiment supervisor can
//! catch, record in the run manifest, and step past.

#![deny(clippy::unwrap_used)]

/// Errors raised by [`crate::NetShare`] training and generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetShareError {
    /// Generation was requested before [`crate::NetShare::train`] fitted
    /// the per-stream normalizer; there is no metadata distribution to
    /// sample stream bounds from.
    Untrained,
    /// The training dataset contains no stream with at least two events.
    NoTrainableStreams,
    /// The sampled categorical index does not name an event type — the
    /// generator head width and the event vocabulary disagree, which
    /// means the model bundle does not match this build.
    BadEventIndex {
        /// Index sampled from the event-type field.
        index: usize,
        /// Size of the event vocabulary it must index into.
        vocab: usize,
    },
}

impl std::fmt::Display for NetShareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetShareError::Untrained => {
                write!(
                    f,
                    "NetShare model has no fitted normalizer; train it before generation"
                )
            }
            NetShareError::NoTrainableStreams => {
                write!(f, "no trainable streams (all shorter than 2 events)")
            }
            NetShareError::BadEventIndex { index, vocab } => write!(
                f,
                "sampled event index {index} outside the {vocab}-event vocabulary \
                 (model/build mismatch)"
            ),
        }
    }
}

impl std::error::Error for NetShareError {}
