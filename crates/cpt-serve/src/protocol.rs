//! The line-delimited JSON wire protocol spoken by `cptgen serve`.
//!
//! One request per line, one response per line, over plain TCP — trivially
//! scriptable (`nc`, `jq`) and implementable with std threads only. Every
//! request carries an `"op"` tag; every response carries a `"type"` tag.
//! Errors are structured: a machine-matchable `kind` plus a human message,
//! mirroring the library's [`ServeError`] taxonomy so protocol clients can
//! distinguish *shed, retry later* from *bad request*.
//!
//! ```text
//! -> {"op":"open","seed":7,"streams":2}
//! <- {"type":"opened","session":1}
//! -> {"op":"next","session":1,"max":64,"wait_ms":100}
//! <- {"type":"events","session":1,"events":[...],"finished":false}
//! -> {"op":"close","session":1}
//! <- {"type":"closed","session":1}
//! -> {"op":"stats"}
//! <- {"type":"stats","stats":{...}}
//! ```
//!
//! Crash-only extensions:
//!
//! ```text
//! -> {"op":"detach"}                      # arm detach-on-disconnect
//! <- {"type":"detached","token":"<32 hex>"}
//! ...connection drops; sessions park under the token...
//! -> {"op":"reattach","token":"<32 hex>"} # on a new connection
//! <- {"type":"reattached","sessions":[3,4]}
//! -> {"op":"drain","timeout_ms":5000}
//! <- {"type":"drained","completed":10,"force_failed":1}
//! ```
//!
//! An event in `events` is either a decoded data event (an object with the
//! usual `stream`/`index`/... fields) or the terminal failure record
//! `{"reason":"..."}` of a session that died to a contained fault — see
//! [`SessionEvent`].
//!
//! Model-lifecycle extensions (require the server to run with a registry,
//! `cptgen serve --registry DIR`):
//!
//! ```text
//! -> {"op":"publish","path":"new-model.json"}   # stage + validate + promote
//! <- {"type":"published","version":3,"previous":2}
//! -> {"op":"rollback"}
//! <- {"type":"rolled_back","demoted":3,"live":2}
//! -> {"op":"finetune","trace":"serve-trace.jsonl"}
//! <- {"type":"finetune_started","job":1}        # supervised background task
//! -> {"op":"versions"}
//! <- {"type":"versions","live":2,"versions":[...]}
//! ```

#![deny(clippy::unwrap_used)]

pub mod wire;

use crate::engine::SessionEvent;
use crate::error::ServeError;
use crate::metrics::StatsSnapshot;
use crate::registry::{RegistryError, VersionState};
use serde::{Deserialize, Serialize};

/// Default `next` wait when the client omits `wait_ms`.
pub const DEFAULT_WAIT_MS: u64 = 100;
/// Default `next` batch size when the client omits `max`.
pub const DEFAULT_MAX_EVENTS: usize = 64;
/// Default `drain` deadline when the client omits `timeout_ms`.
pub const DEFAULT_DRAIN_TIMEOUT_MS: u64 = 10_000;

fn default_streams() -> usize {
    1
}
fn default_device() -> String {
    "phone".to_string()
}
fn default_wait_ms() -> u64 {
    DEFAULT_WAIT_MS
}
fn default_max_events() -> usize {
    DEFAULT_MAX_EVENTS
}
fn default_drain_timeout_ms() -> u64 {
    DEFAULT_DRAIN_TIMEOUT_MS
}

/// A client request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case", deny_unknown_fields)]
pub enum Request {
    /// Open a generation session.
    Open {
        /// Session seed; with the model, fully determines the output.
        seed: u64,
        /// UE streams to decode before the session finishes.
        #[serde(default = "default_streams")]
        streams: usize,
        /// Device type name (`phone`, `connected_car`, `tablet`, ...).
        #[serde(default = "default_device")]
        device: String,
        /// Optional per-stream length cap.
        #[serde(default)]
        max_stream_len: Option<usize>,
    },
    /// Fetch up to `max` events, waiting up to `wait_ms` for the first.
    Next {
        /// Session id from `opened`.
        session: u64,
        #[serde(default = "default_max_events")]
        max: usize,
        #[serde(default = "default_wait_ms")]
        wait_ms: u64,
    },
    /// Close a session (undelivered events are dropped).
    Close {
        /// Session id from `opened`.
        session: u64,
    },
    /// Arm detach-on-disconnect for this connection: the server mints a
    /// capability token now; if the connection later dies for any reason,
    /// its open sessions park under the token (TTL-bounded) instead of
    /// being closed.
    Detach,
    /// Present a detach token on a new connection, adopting the parked
    /// sessions. Delivery resumes exactly where it stopped.
    Reattach {
        /// The 32-hex-digit token from `detached`.
        token: String,
    },
    /// Stop admission, wait up to `timeout_ms` for live sessions to finish
    /// decoding, force-fail the stragglers. Admission stays suspended
    /// afterwards (new opens get a `draining` error).
    Drain {
        #[serde(default = "default_drain_timeout_ms")]
        timeout_ms: u64,
    },
    /// Fetch a server stats snapshot.
    Stats,
    /// Publish a model version through the gated path (stage if `path` is
    /// given, validate — checksum, checkpoint load, deterministic canary —
    /// then promote). Exactly one of `path`/`version` must be set:
    /// `path` stages a model file as a new candidate first, `version`
    /// re-validates and promotes an already-staged candidate.
    Publish {
        /// Model artifact to stage as a new candidate.
        #[serde(default)]
        path: Option<String>,
        /// An existing candidate version to validate and promote.
        #[serde(default)]
        version: Option<u64>,
    },
    /// Demote the live version and re-promote the previous one.
    Rollback,
    /// Fine-tune the live model on a trace file in a supervised background
    /// task, then publish the result through the gated path. The response
    /// arrives immediately; watch `stats` (`finetunes_running`) or
    /// `versions` for completion.
    Finetune {
        /// Trace file (JSONL or `.ctb`) to fine-tune on.
        trace: String,
        /// Fine-tune epochs (defaults to a fraction of the base schedule).
        #[serde(default)]
        epochs: Option<usize>,
        /// Base RNG seed for the fine-tune (bumped deterministically on
        /// each supervised retry).
        #[serde(default)]
        seed: Option<u64>,
    },
    /// List registry versions and their lifecycle states.
    Versions,
    /// Ask the server to stop accepting work and exit.
    Shutdown,
}

/// A server response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Response {
    /// Session admitted.
    Opened {
        /// The id to use in `next`/`close`.
        session: u64,
    },
    /// Events for a session, in decode order. A session that died to a
    /// contained fault ends with one `{"reason":"..."}` failure record.
    Events {
        session: u64,
        events: Vec<SessionEvent>,
        /// True once decode is complete and the queue is drained.
        finished: bool,
    },
    /// Session closed.
    Closed { session: u64 },
    /// Detach armed; keep the token to reattach after a disconnect.
    Detached {
        /// Capability token, 32 lowercase hex digits.
        token: String,
    },
    /// Reattach succeeded; these session ids are yours again.
    Reattached { sessions: Vec<u64> },
    /// Drain finished (or hit its deadline).
    Drained {
        /// Sessions that finished decoding within the deadline.
        completed: u64,
        /// Stragglers force-failed at the deadline.
        force_failed: u64,
    },
    /// Stats snapshot (boxed: it is by far the largest response body and
    /// would otherwise dominate the size of every `Response` value).
    Stats { stats: Box<StatsSnapshot> },
    /// A version passed the gate and is live.
    Published {
        /// The version new sessions now open on.
        version: u64,
        /// The demoted version (now draining), if any.
        previous: Option<u64>,
    },
    /// Rollback succeeded.
    RolledBack {
        /// The demoted version.
        demoted: u64,
        /// The version live again.
        live: u64,
    },
    /// The fine-tune job was admitted and runs in the background.
    FinetuneStarted {
        /// Job ordinal (1-based) for log correlation.
        job: u64,
    },
    /// Registry listing.
    Versions {
        /// The live version id, if any.
        live: Option<u64>,
        /// Every version the manifest knows, in id order.
        versions: Vec<VersionInfo>,
        /// The last fine-tune failure, if any (cleared by a success).
        #[serde(default)]
        last_finetune_error: Option<String>,
    },
    /// Acknowledges `shutdown`; the server exits after this.
    Bye,
    /// A request failed.
    Error {
        kind: ErrorKind,
        message: String,
    },
}

/// One registry version in a `versions` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionInfo {
    /// Version id.
    pub id: u64,
    /// Lifecycle state.
    pub state: VersionState,
    /// Open sessions pinned to it in the engine (0 for versions not
    /// installed).
    #[serde(default)]
    pub sessions: u64,
    /// Provenance note recorded at stage/quarantine time.
    #[serde(default)]
    pub note: String,
}

/// Machine-matchable error categories on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ErrorKind {
    /// Admission control shed the request; retry later.
    Overloaded,
    /// The session id is unknown or already closed.
    UnknownSession,
    /// The request was malformed or failed validation.
    InvalidRequest,
    /// The server is shutting down.
    ShuttingDown,
    /// The server is draining; existing sessions proceed, new opens fail.
    Draining,
    /// The detach token is unknown, already redeemed, or expired.
    UnknownToken,
    /// A model-lifecycle operation failed in the registry (corrupt
    /// artifact, failed validation gate, crash-window fault).
    Registry,
    /// The model version id is unknown (to the registry or the engine).
    UnknownVersion,
    /// Rollback requested but no previous version is retained.
    NoPreviousVersion,
    /// Lifecycle verbs need a server started with `--registry`.
    NoRegistry,
    /// A fine-tune job is already running; retry after it finishes.
    Busy,
    /// An internal serving failure.
    Internal,
}

impl From<&ServeError> for ErrorKind {
    fn from(e: &ServeError) -> Self {
        match e {
            ServeError::Overloaded { .. } => ErrorKind::Overloaded,
            ServeError::UnknownSession(_) => ErrorKind::UnknownSession,
            ServeError::InvalidConfig { .. } => ErrorKind::InvalidRequest,
            ServeError::ShuttingDown => ErrorKind::ShuttingDown,
            ServeError::Draining => ErrorKind::Draining,
            ServeError::UnknownToken => ErrorKind::UnknownToken,
            ServeError::Generate(_) => ErrorKind::InvalidRequest,
            ServeError::Io(_) => ErrorKind::Internal,
            ServeError::Registry(RegistryError::UnknownVersion(_)) => ErrorKind::UnknownVersion,
            ServeError::Registry(RegistryError::NoPreviousVersion) => {
                ErrorKind::NoPreviousVersion
            }
            ServeError::Registry(_) => ErrorKind::Registry,
            ServeError::UnknownVersion(_) => ErrorKind::UnknownVersion,
            ServeError::NoPreviousVersion => ErrorKind::NoPreviousVersion,
            ServeError::NoRegistry => ErrorKind::NoRegistry,
            ServeError::FineTuneBusy => ErrorKind::Busy,
        }
    }
}

impl Response {
    /// The error response for a [`ServeError`].
    pub fn from_error(e: &ServeError) -> Response {
        Response::Error {
            kind: ErrorKind::from(e),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_with_defaults() {
        let r: Request =
            serde_json::from_str(r#"{"op":"open","seed":7}"#).expect("minimal open parses");
        assert_eq!(
            r,
            Request::Open {
                seed: 7,
                streams: 1,
                device: "phone".to_string(),
                max_stream_len: None,
            }
        );
        let n: Request =
            serde_json::from_str(r#"{"op":"next","session":3}"#).expect("minimal next parses");
        assert_eq!(
            n,
            Request::Next {
                session: 3,
                max: DEFAULT_MAX_EVENTS,
                wait_ms: DEFAULT_WAIT_MS,
            }
        );
        let d: Request =
            serde_json::from_str(r#"{"op":"drain"}"#).expect("minimal drain parses");
        assert_eq!(
            d,
            Request::Drain {
                timeout_ms: DEFAULT_DRAIN_TIMEOUT_MS,
            }
        );
        for req in [
            Request::Stats,
            Request::Shutdown,
            Request::Close { session: 9 },
            Request::Detach,
            Request::Reattach {
                token: "00ff".to_string(),
            },
            Request::Drain { timeout_ms: 250 },
            Request::Publish {
                path: Some("model.json".to_string()),
                version: None,
            },
            Request::Publish {
                path: None,
                version: Some(3),
            },
            Request::Rollback,
            Request::Finetune {
                trace: "trace.jsonl".to_string(),
                epochs: Some(2),
                seed: Some(99),
            },
            Request::Versions,
        ] {
            let json = serde_json::to_string(&req).expect("serializes");
            let back: Request = serde_json::from_str(&json).expect("parses back");
            assert_eq!(req, back);
        }
    }

    #[test]
    fn lifecycle_verbs_parse_with_defaults() {
        let p: Request = serde_json::from_str(r#"{"op":"publish","path":"m.json"}"#)
            .expect("minimal publish parses");
        assert_eq!(
            p,
            Request::Publish {
                path: Some("m.json".to_string()),
                version: None,
            }
        );
        let f: Request = serde_json::from_str(r#"{"op":"finetune","trace":"t.jsonl"}"#)
            .expect("minimal finetune parses");
        assert_eq!(
            f,
            Request::Finetune {
                trace: "t.jsonl".to_string(),
                epochs: None,
                seed: None,
            }
        );
        let resp = Response::Versions {
            live: Some(2),
            versions: vec![VersionInfo {
                id: 2,
                state: VersionState::Live,
                sessions: 7,
                note: "imported".to_string(),
            }],
            last_finetune_error: None,
        };
        let json = serde_json::to_string(&resp).expect("serializes");
        assert!(json.contains("\"live\""));
        let back: Response = serde_json::from_str(&json).expect("parses back");
        assert_eq!(back, resp);
    }

    #[test]
    fn lifecycle_errors_map_to_wire_kinds() {
        assert_eq!(
            ErrorKind::from(&ServeError::NoRegistry),
            ErrorKind::NoRegistry
        );
        assert_eq!(ErrorKind::from(&ServeError::FineTuneBusy), ErrorKind::Busy);
        assert_eq!(
            ErrorKind::from(&ServeError::NoPreviousVersion),
            ErrorKind::NoPreviousVersion
        );
        assert_eq!(
            ErrorKind::from(&ServeError::UnknownVersion(4)),
            ErrorKind::UnknownVersion
        );
        assert_eq!(
            ErrorKind::from(&ServeError::Registry(RegistryError::UnknownVersion(4))),
            ErrorKind::UnknownVersion
        );
        assert_eq!(
            ErrorKind::from(&ServeError::Registry(RegistryError::CanaryFailed {
                version: 2,
                detail: "non-finite".to_string(),
            })),
            ErrorKind::Registry
        );
    }

    #[test]
    fn unknown_ops_and_fields_are_rejected() {
        assert!(serde_json::from_str::<Request>(r#"{"op":"frobnicate"}"#).is_err());
        assert!(
            serde_json::from_str::<Request>(r#"{"op":"stats","bogus":1}"#).is_err(),
            "unknown fields rejected so typos fail loudly"
        );
    }

    #[test]
    fn serve_errors_map_to_wire_kinds() {
        let shed = ServeError::Overloaded {
            open: 4,
            cap: 4,
            queued: 0,
            watermark: 100,
        };
        match Response::from_error(&shed) {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert!(message.contains("cap 4"));
            }
            other => panic!("expected error response, got {other:?}"),
        }
        assert_eq!(
            ErrorKind::from(&ServeError::UnknownSession(1)),
            ErrorKind::UnknownSession
        );
        assert_eq!(
            ErrorKind::from(&ServeError::ShuttingDown),
            ErrorKind::ShuttingDown
        );
        assert_eq!(ErrorKind::from(&ServeError::Draining), ErrorKind::Draining);
        assert_eq!(
            ErrorKind::from(&ServeError::UnknownToken),
            ErrorKind::UnknownToken
        );
    }

    #[test]
    fn failure_events_serialize_distinctly() {
        let ev = SessionEvent::Failed {
            reason: "worker panic: chaos".to_string(),
        };
        let json = serde_json::to_string(&ev).expect("serializes");
        assert!(json.contains("\"reason\""));
        let back: SessionEvent = serde_json::from_str(&json).expect("parses back");
        assert_eq!(back, ev);
    }
}
