//! cpt-serve: a streaming multi-UE generation service over a trained
//! CPT-GPT model.
//!
//! The paper's generator is a batch tool: train, then emit N streams and
//! exit. Real control-plane workloads are *open-loop* — UEs attach and
//! detach continuously, and a traffic generator that feeds a live test
//! harness must behave like a service. This crate provides that service
//! layer:
//!
//! - [`Engine`] / [`ServeHandle`]: a continuous-batching scheduler. Every
//!   open session is a lazily-advanced KV-cached decode stream; a fixed
//!   worker pool pulls ready sessions from a run queue, advances each by a
//!   bounded slice of events, and re-enqueues — thousands of sessions on a
//!   handful of threads, no per-session thread.
//! - [`server`]: a TCP front end (`cptgen serve`) speaking the
//!   length-prefixed binary frames of [`protocol::wire`], built on std
//!   threads only.
//! - [`client`]: the one client of that wire protocol, a connection
//!   that sends requests and reads responses; `cptgen ctl` sends its
//!   lifecycle verbs through it.
//! - [`loadgen`]: a load-generator (`cptgen loadgen`) built on that client,
//!   which opens sessions at a target rate and reports achieved throughput
//!   and latency percentiles.
//!
//! Determinism contract: a session's event stream is a pure function of
//! `(model, seed, params)` — bit-identical at any worker count and across
//! decode-state reuse. See `DESIGN.md` §12.
//!
//! Failure model (DESIGN.md §14): the service is *crash-only*. Worker
//! panics are contained per-session ([`engine::SessionEvent::Failed`]),
//! drains are bounded ([`ServeHandle::drain`]), disconnects can park
//! sessions under a capability token ([`engine::DetachToken`]) instead of
//! losing them, and every failure path is exercised deterministically by
//! [`chaos::ChaosPlan`].

#![deny(clippy::unwrap_used)]

pub mod chaos;
pub mod client;
pub mod engine;
pub mod error;
pub mod lifecycle;
pub mod loadgen;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod server;
mod shard;
pub mod steer;

pub use chaos::ChaosPlan;
pub use client::Client;
pub use engine::{
    DetachToken, DrainReport, Engine, EventBatch, LifecycleEvent, ServeConfig, ServeHandle,
    SessionEvent, SessionId,
};
pub use error::ServeError;
pub use lifecycle::{Director, PublishOutcome};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use metrics::{LatencyHistogram, StatsSnapshot};
pub use registry::{
    Manifest, RecoveryReport, Registry, RegistryError, VersionRecord, VersionState,
};
pub use server::{serve, Server, ServerConfig};
