//! Minimal CPU deep-learning substrate.
//!
//! The paper implements CPT-GPT in PyTorch on an A100; no mature Rust ML
//! training stack exists in our allowed dependency set, so this crate
//! provides the pieces both CPT-GPT and the NetShare baseline need, from
//! scratch:
//!
//! - [`tensor::Tensor`] — dense row-major `f32` tensors with the handful of
//!   kernels training needs (matmul with rayon, batched matmul, transposes,
//!   reductions, elementwise maps);
//! - [`graph::Graph`] — reverse-mode automatic differentiation on a tape:
//!   each op records a backward closure; [`graph::Graph::backward`] walks
//!   the tape in reverse accumulating gradients;
//! - [`layers`] — `Linear`, `LayerNorm`, causal multi-head self-attention,
//!   `TransformerBlock` and an `Lstm`, all parameterized through a
//!   [`layers::ParamStore`] so weights persist across per-batch graphs;
//! - [`optim`] — Adam with decoupled weight decay, global-norm gradient
//!   clipping and warmup/constant schedules;
//! - losses as fused graph ops — softmax cross-entropy, Gaussian negative
//!   log-likelihood (the interarrival head of Design 2), MSE;
//! - [`serialize`] — checkpoint save/load;
//! - [`gradcheck`] — finite-difference gradient verification used heavily
//!   by this crate's own tests.
//!
//! Design note: graphs are rebuilt per batch ("define-by-run"), which keeps
//! the API small and makes variable-length sequence models trivial. All
//! tensors are `f32`; accumulations inside kernels use `f32` too, which is
//! plenty for the model sizes used in the experiments (the paper's full
//! model is only 725 k parameters).

// The only `unsafe` in this crate is the GEMM tile and the per-ISA-level
// compilations of the row kernels in `tensor.rs`; each block states the
// CPU-feature and bounds precondition it relies on.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod gradcheck;
pub mod graph;
pub mod layers;
pub mod optim;
pub mod reduce;
pub mod scratch;
pub mod serialize;
pub mod tensor;

pub use graph::{Graph, Var};
pub use layers::{
    AttnKvCache, AttnScratch, DecodeScratch, LayerNorm, Linear, Lstm, MultiHeadSelfAttention,
    ParamId, ParamStore, QuantAttention, QuantBlock, QuantLinear, Session, TransformerBlock,
    WeightFormat,
};
pub use optim::{clip_grad_norm, Adam, LrSchedule};
pub use reduce::{scale_grads, tree_reduce_grads, GradSet};
pub use scratch::ScratchArena;
pub use tensor::{expf_glibc, gelu_rows, kernel_level, matmul_quant_into, QuantizedMatrix, Tensor};
