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
//! - [`loadgen`]: a load-generator client (`cptgen loadgen`) that opens
//!   sessions at a target rate and reports achieved throughput and
//!   latency percentiles.
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
pub use engine::{
    DetachToken, DrainReport, Engine, EventBatch, LifecycleEvent, ServeConfig, ServeHandle,
    SessionEvent, SessionId,
};
pub use error::ServeError;
pub use lifecycle::{Director, FineTuneSpec, PublishOutcome};
pub use loadgen::{request_once, run_loadgen, LoadgenConfig, LoadgenReport};
pub use metrics::{LatencyHistogram, StatsSnapshot};
pub use registry::{
    Manifest, RecoveryReport, Registry, RegistryError, VersionRecord, VersionState,
};
pub use server::{serve, Server, ServerConfig};

/// A validated degree of parallelism for a thread/worker-count flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// The thread count to actually use.
    pub threads: usize,
    /// Set when the request exceeded the machine and was clamped down;
    /// holds the originally requested count.
    pub clamped_from: Option<usize>,
}

/// Validates a user-supplied thread/worker/session-count flag against the
/// machine.
///
/// - `None` → all available cores.
/// - `Some(0)` → [`ServeError::InvalidConfig`]: zero threads can never
///   make progress, so it is a usage error, not something to round up.
/// - `Some(n)` with `n` above the available cores → clamped to the core
///   count (recorded in [`Parallelism::clamped_from`] so the CLI can warn)
///   rather than silently oversubscribing the host. Determinism does not
///   depend on the worker count, so clamping never changes output.
pub fn resolve_parallelism(
    requested: Option<usize>,
    flag: &str,
) -> Result<Parallelism, ServeError> {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    match requested {
        None => Ok(Parallelism {
            threads: cores,
            clamped_from: None,
        }),
        Some(0) => Err(ServeError::InvalidConfig {
            field: flag.to_string(),
            message: "must be at least 1".to_string(),
        }),
        Some(n) if n > cores => Ok(Parallelism {
            threads: cores,
            clamped_from: Some(n),
        }),
        Some(n) => Ok(Parallelism {
            threads: n,
            clamped_from: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_is_a_typed_error() {
        match resolve_parallelism(Some(0), "--workers") {
            Err(ServeError::InvalidConfig { field, .. }) => {
                assert_eq!(field, "--workers");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn oversubscription_is_clamped_with_provenance() {
        let p =
            resolve_parallelism(Some(1_000_000), "--threads").expect("clamping is not an error");
        assert_eq!(p.clamped_from, Some(1_000_000));
        assert!(p.threads >= 1);
        assert!(p.threads < 1_000_000);
    }

    #[test]
    fn in_range_and_default_pass_through() {
        let p = resolve_parallelism(Some(1), "--threads").expect("1 is valid");
        assert_eq!(p.threads, 1);
        assert_eq!(p.clamped_from, None);
        let d = resolve_parallelism(None, "--threads").expect("default is valid");
        assert!(d.threads >= 1);
        assert_eq!(d.clamped_from, None);
    }
}
