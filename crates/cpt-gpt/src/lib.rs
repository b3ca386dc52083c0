//! CPT-GPT: a decoder-only transformer that synthesizes cellular
//! control-plane traffic without domain knowledge — the paper's primary
//! contribution (§4.4–4.5).
//!
//! The model never sees the 3GPP state machines. It is trained end-to-end
//! on raw traces using three design elements:
//!
//! 1. **Multimodal tokenization** ([`token`]): each control event becomes a
//!    9-dimensional token — a 6-wide one-hot event-type sub-token, a
//!    log-scaled interarrival-time sub-token, and a 2-wide one-hot stop
//!    flag. A linear layer replaces the NLP embedding table.
//! 2. **Distribution-parameter output** ([`model`]): the numerical
//!    (interarrival) head predicts a Gaussian's mean and log-σ, trained
//!    with Gaussian NLL; categorical heads use softmax + cross-entropy.
//!    Sampling at inference restores generation stochasticity (ablated in
//!    Table 8).
//! 3. **Transfer learning** ([`transfer`]): hour-to-hour drift is handled
//!    by fine-tuning a pretrained model instead of retraining from
//!    scratch, which is where the transformer's 3.36× training-time win
//!    over the GAN baseline comes from (Table 9).
//!
//! Inference ([`generate`]) bootstraps each stream by sampling the
//! released initial-event-type distribution, then decodes autoregressively
//! until a stop flag fires or the configured maximum length is reached;
//! [`CptGpt::generate_into`] is its one offline body, handing finished
//! streams to a sink a bounded window at a time.
//!
//! Training reads a [`ShardSource`] ([`source`]): an in-RAM
//! [`cpt_trace::Dataset`] or an out-of-core [`ColumnarSource`] over a
//! `.ctb` file, through one epoch plan and one set of entry points
//! ([`train()`], [`train_with_checkpoints`], [`resume_training`],
//! [`fine_tune`]), with bit-identical weights; [`with_training_set`]
//! decides which of the two a trace file becomes.

pub mod batch;
pub mod checkpoint;
pub mod config;
pub mod error;
pub mod faultinject;
#[cfg(test)]
mod fixtures;
pub mod generate;
mod mix;
pub mod model;
pub mod source;
pub mod stream;
pub mod token;
pub mod train;
pub mod transfer;

pub use batch::{build_batch, Batch};
pub use checkpoint::{
    load_checkpoint, save_checkpoint, CheckpointSpec, RecoveryEvent, TrainCheckpoint,
};
pub use config::{CptGptConfig, TrainConfig, WatchdogConfig};
pub use error::{panic_message, CheckpointError, FaultKind, GenerateError, TrainError};
pub use faultinject::FaultPlan;
pub use generate::{GenCounters, GenerateConfig};
pub use model::{
    load_model_file, save_model_file, BatchDecodeState, CptGpt, DecodeState, QuantDecodeWeights,
    StepOutput,
};
pub use source::{
    fit_tokenizer_streaming, with_training_set, ColumnarSource, ShardSource, TrainingSet,
};
pub use stream::{BatchDecoder, RoundOutcome, SessionDecoder, SessionEvent, StreamParams};
pub use token::{ScaleKind, Tokenizer, TokenizerFit};
// `cpt-ledger` imports the trainer under this name.
pub use train::train as train_source;
pub use train::{
    parallel_grad_step, resume_training, train, train_with_checkpoints, EpochStats, StepOutcome,
    TrainReport,
};
pub use transfer::fine_tune;
