//! The verbs `cptgen serve` speaks, as typed values.
//!
//! The socket carries exactly one codec: the length-prefixed binary frames
//! of [`wire`]. A client sends the two-byte preamble `0xCB 0x02` (magic,
//! wire version) once after connect, then one request frame per response
//! frame. Errors are structured: a machine-matchable [`ErrorKind`] plus a
//! human message, mirroring the library's [`ServeError`] taxonomy so
//! clients can distinguish *shed, retry later* from *bad request*. There is
//! no text mode; `cptgen ctl` is the human window (its `-o` writes a
//! [`Response`] as JSON).
//!
//! Body layouts, fields in order (`u64` = 8 bytes LE, `var` = LEB128
//! varint, `str` = `var` length + UTF-8, `f64` = IEEE bits LE, `opt<T>` =
//! presence byte 0/1 then `T`, `[T]` = `var` count then each `T`, `tag` =
//! one byte indexing the type's `ALL` table):
//!
//! ```text
//! op    request    body
//! 0x01  open       seed u64, streams var, device str, max_stream_len opt<var>
//! 0x02  next       session u64, max var, wait_ms var
//! 0x03  close      session u64
//! 0x04  detach     —
//! 0x05  reattach   token str
//! 0x06  drain      timeout_ms var
//! 0x07  stats      —
//! 0x08  publish    path opt<str>, version opt<u64>
//! 0x09  rollback   —
//! 0x0A  finetune   trace str, epochs opt<var>, seed opt<u64>
//! 0x0B  versions   —
//! 0x0C  shutdown   —
//!
//! op    response          body
//! 0x81  opened            session u64
//! 0x82  events            session u64, finished u8, [event]
//! 0x83  closed            session u64
//! 0x84  detached          token str
//! 0x85  reattached        [u64]
//! 0x86  drained           completed u64, force_failed u64
//! 0x87  stats             every StatsSnapshot field in declaration order
//! 0x88  published         version u64, previous opt<u64>
//! 0x89  rolled_back       demoted u64, live u64
//! 0x8A  finetune_started  job u64
//! 0x8B  versions          live opt<u64>, [id u64, state tag, sessions u64,
//!                         note str], last_finetune_error opt<str>
//! 0x8C  bye               —
//! 0x8D  error             kind tag, message str
//!
//! event := 0x00 stream var, type u8, iat f64, timestamp f64, last u8
//!        | 0x01 reason str      (terminal failure record, see SessionEvent)
//! ```
//!
//! Lifecycle verbs (`publish`, `rollback`, `finetune`, `versions`) need a
//! server started with `cptgen serve --registry DIR`; without one they
//! answer `NoRegistry`.

#![deny(clippy::unwrap_used)]

pub mod wire;

use crate::engine::SessionEvent;
use crate::error::ServeError;
use crate::metrics::StatsSnapshot;
use crate::registry::{RegistryError, VersionState};
use cpt_trace::json::{ToJson, Value};

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a generation session.
    Open {
        /// Session seed; with the model, fully determines the output.
        seed: u64,
        /// UE streams to decode before the session finishes.
        streams: usize,
        /// Device type name (`phone`, `connected_car`, `tablet`, ...).
        device: String,
        /// Optional per-stream length cap.
        max_stream_len: Option<usize>,
    },
    /// Fetch up to `max` events, waiting up to `wait_ms` for the first.
    Next {
        /// Session id from `opened`.
        session: u64,
        max: usize,
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
    Drain { timeout_ms: u64 },
    /// Fetch a server stats snapshot.
    Stats,
    /// Publish a model version through the gated path (stage if `path` is
    /// given, validate — checksum, checkpoint load, deterministic canary —
    /// then promote). Exactly one of `path`/`version` must be set:
    /// `path` stages a model file as a new candidate first, `version`
    /// re-validates and promotes an already-staged candidate.
    Publish {
        /// Model artifact to stage as a new candidate.
        path: Option<String>,
        /// An existing candidate version to validate and promote.
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
        epochs: Option<usize>,
        /// RNG seed for the fine-tune (default 0).
        seed: Option<u64>,
    },
    /// List registry versions and their lifecycle states.
    Versions,
    /// Ask the server to stop accepting work and exit.
    Shutdown,
}

/// A server response. The socket carries [`wire`] frames; the JSON form
/// ([`ToJson`], tagged by a `"type"` field) is what `cptgen ctl -o` writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session admitted.
    Opened {
        /// The id to use in `next`/`close`.
        session: u64,
    },
    /// Events for a session, in decode order. A session that died to a
    /// contained fault ends with one failure record.
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
        last_finetune_error: Option<String>,
    },
    /// Acknowledges `shutdown`; the server exits after this.
    Bye,
    /// A request failed.
    Error { kind: ErrorKind, message: String },
}

impl ToJson for Response {
    fn to_json(&self) -> Value {
        let tagged = |kind: &str, fields: Vec<(&str, Value)>| {
            Value::obj(std::iter::once(("type", Value::str(kind))).chain(fields))
        };
        match self {
            Response::Opened { session } => tagged("opened", vec![("session", session.to_json())]),
            Response::Events {
                session,
                events,
                finished,
            } => tagged(
                "events",
                vec![
                    ("session", session.to_json()),
                    ("events", events.to_json()),
                    ("finished", finished.to_json()),
                ],
            ),
            Response::Closed { session } => tagged("closed", vec![("session", session.to_json())]),
            Response::Detached { token } => tagged("detached", vec![("token", token.to_json())]),
            Response::Reattached { sessions } => {
                tagged("reattached", vec![("sessions", sessions.to_json())])
            }
            Response::Drained {
                completed,
                force_failed,
            } => tagged(
                "drained",
                vec![
                    ("completed", completed.to_json()),
                    ("force_failed", force_failed.to_json()),
                ],
            ),
            Response::Stats { stats } => tagged("stats", vec![("stats", stats.to_json())]),
            Response::Published { version, previous } => tagged(
                "published",
                vec![
                    ("version", version.to_json()),
                    ("previous", previous.to_json()),
                ],
            ),
            Response::RolledBack { demoted, live } => tagged(
                "rolled_back",
                vec![("demoted", demoted.to_json()), ("live", live.to_json())],
            ),
            Response::FinetuneStarted { job } => {
                tagged("finetune_started", vec![("job", job.to_json())])
            }
            Response::Versions {
                live,
                versions,
                last_finetune_error,
            } => tagged(
                "versions",
                vec![
                    ("live", live.to_json()),
                    ("versions", versions.to_json()),
                    ("last_finetune_error", last_finetune_error.to_json()),
                ],
            ),
            Response::Bye => tagged("bye", vec![]),
            Response::Error { kind, message } => tagged(
                "error",
                vec![("kind", kind.to_json()), ("message", message.to_json())],
            ),
        }
    }
}

/// One registry version in a `versions` response.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionInfo {
    /// Version id.
    pub id: u64,
    /// Lifecycle state.
    pub state: VersionState,
    /// Open sessions pinned to it in the engine (0 for versions not
    /// installed).
    pub sessions: u64,
    /// Provenance note recorded at stage/quarantine time.
    pub note: String,
}

cpt_trace::json_struct!(VersionInfo {
    id,
    state,
    sessions,
    note
});

/// Machine-matchable error categories on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

cpt_trace::json_unit_enum!(ErrorKind {
    Overloaded => "overloaded",
    UnknownSession => "unknown_session",
    InvalidRequest => "invalid_request",
    ShuttingDown => "shutting_down",
    Draining => "draining",
    UnknownToken => "unknown_token",
    Registry => "registry",
    UnknownVersion => "unknown_version",
    NoPreviousVersion => "no_previous_version",
    NoRegistry => "no_registry",
    Busy => "busy",
    Internal => "internal",
});

impl ErrorKind {
    /// Every kind in declaration order; a kind's wire byte is its index.
    pub const ALL: [ErrorKind; 12] = [
        ErrorKind::Overloaded,
        ErrorKind::UnknownSession,
        ErrorKind::InvalidRequest,
        ErrorKind::ShuttingDown,
        ErrorKind::Draining,
        ErrorKind::UnknownToken,
        ErrorKind::Registry,
        ErrorKind::UnknownVersion,
        ErrorKind::NoPreviousVersion,
        ErrorKind::NoRegistry,
        ErrorKind::Busy,
        ErrorKind::Internal,
    ];
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
            ServeError::Registry(RegistryError::NoPreviousVersion) => ErrorKind::NoPreviousVersion,
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

    // The three tests below pin the JSON `ctl -o` and `loadgen -o` write;
    // nothing on the socket is JSON.

    #[test]
    fn versions_response_serializes_for_ctl() {
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
        assert_eq!(
            resp.to_json().to_compact(),
            r#"{"type":"versions","live":2,"versions":[{"id":2,"state":"live","sessions":7,"note":"imported"}],"last_finetune_error":null}"#
        );
    }

    #[test]
    fn failure_events_serialize_distinctly() {
        let ev = SessionEvent::Failed {
            reason: "worker panic: chaos".to_string(),
        };
        assert_eq!(
            ev.to_json().to_compact(),
            r#"{"reason":"worker panic: chaos"}"#
        );
        let data = SessionEvent::Data(cpt_gpt::SessionEvent {
            stream: 1,
            event_type: cpt_trace::EventType::Handover,
            iat: 0.5,
            timestamp: 3.0,
            last_in_stream: false,
        });
        assert_eq!(
            data.to_json().to_compact(),
            r#"{"stream":1,"event_type":"Handover","iat":0.5,"timestamp":3.0,"last_in_stream":false}"#
        );
    }

    /// The keys `tests/serve_cli.rs` and CI's swap smoke read from
    /// `loadgen -o` (and the stats response `ctl -o` writes) exist under
    /// these names.
    #[test]
    fn report_keys_ci_reads_are_present() {
        let stats = StatsSnapshot::default();
        let report = crate::loadgen::LoadgenReport {
            server_stats: Some(stats.clone()),
            ..Default::default()
        }
        .to_json();
        for key in [
            "sessions_opened",
            "sessions_completed",
            "sessions_failed",
            "events_received",
            "events_digest",
            "errors",
            "reconnects",
        ] {
            assert!(report.get(key).is_some(), "loadgen report lacks {key:?}");
        }
        let ctl = Response::Stats {
            stats: Box::new(stats),
        }
        .to_json();
        assert_eq!(ctl.get("type").and_then(Value::as_str), Some("stats"));
        for embedded in [report.get("server_stats"), ctl.get("stats")] {
            let embedded = embedded.expect("stats embedded");
            for key in [
                "batched_tokens",
                "sequential_tokens",
                "batch_rounds",
                "batch_peak",
                "slices",
                "sessions_open",
                "shards",
                "live_version",
                "versions_published",
                "versions_quarantined",
                "finetunes_completed",
                "finetunes_failed",
            ] {
                assert!(embedded.get(key).is_some(), "stats lack {key:?}");
            }
        }
    }
}
