//! Adapted NetShare baseline (§4.2.1 of the paper).
//!
//! NetShare (Yin et al., SIGCOMM'22) is the state-of-the-art GAN-based
//! traffic generator the paper compares against. The paper adapts it to
//! control-plane traffic as follows, and this crate implements exactly
//! that adapted form:
//!
//! - the MLP **metadata generator is discarded** (a UE ID is a hashed
//!   string with no semantics; it is produced by a plain random-ID
//!   generator instead);
//! - the **LSTM time-series generator** produces samples with three
//!   fields: event type, interarrival time and a stop flag;
//! - **batch generation**: each LSTM step emits `batch_gen` consecutive
//!   samples, NetShare's workaround for LSTM forgetting (L4) — which
//!   sacrifices intra-batch dependencies, one cause of its semantic
//!   violations;
//! - **per-stream min/max normalization** of the interarrival field,
//!   NetShare's mode-collapse mitigation (L5). The per-stream (min, max)
//!   pair is part of the metadata NetShare would generate; since the
//!   metadata generator is dropped, generation samples a (min, max) pair
//!   from the empirical distribution of training streams;
//! - adversarial training of the LSTM generator against an LSTM + MLP
//!   critic using the Wasserstein objective with weight clipping
//!   (NetShare itself uses Wasserstein-GP; the gradient penalty needs
//!   second-order autodiff — see DESIGN.md). Categorical fields are
//!   sampled with Gumbel-softmax during training so fake tokens are
//!   near-one-hot like real ones.
//!
//! The point of this crate is to be a *faithful baseline*, including its
//! published weaknesses: it has no notion of the 3GPP state machine, so
//! a measurable fraction of its streams violate stateful semantics
//! (Tables 3 and 5), and GAN fine-tuning converges slowly (Tables 4/9).

pub mod error;
pub mod gan;
pub mod norm;

pub use error::NetShareError;
pub use gan::{NetShare, NetShareConfig, NetShareTrainReport};
pub use norm::StreamNormalizer;
