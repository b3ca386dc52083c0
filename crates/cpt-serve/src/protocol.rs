//! The verbs `cptgen serve` speaks, as typed values.
//!
//! The socket carries exactly one codec: the length-prefixed binary frames
//! of [`wire`]. A client sends the two-byte preamble `0xCB 0x03` (magic,
//! wire version) once after connect, then one request frame per response
//! frame. Errors are structured: a machine-matchable [`ErrorKind`] plus a
//! human message, mirroring the library's [`ServeError`] taxonomy so
//! clients can distinguish *shed, retry later* from *bad request*. There is
//! no text mode; `cptgen ctl` is the human window (its `-o` writes a
//! [`Response`] as JSON).
//!
//! Each frame is declared once, as an entry of one of the two lists below
//! (requests, then responses): its docs, opcode byte, variant, JSON
//! `"type"` name and fields in wire order. From the lists come [`Request`]
//! and [`Response`], their codec ([`wire::encode_request`] and its
//! siblings) and their tagged JSON. A payload is the opcode byte, then
//! each field through its type's layout:
//!
//! ```text
//! u64             8 bytes LE
//! f64             its IEEE-754 bits, 8 bytes LE (NaN payloads survive)
//! usize           LEB128 varint, at most MAX_FRAME_LEN (counts, sizes)
//! [Varint] u64    LEB128 varint, uncapped (wait_ms, timeout_ms)
//! bool            one byte, 0 or 1
//! String          varint byte length, then UTF-8
//! Option<T>       presence byte 0/1, then T when present
//! Vec<T>          varint count, then each T
//! ErrorKind,      one byte indexing the type's ALL table
//!   VersionState
//! VersionInfo,    its fields in declaration order
//!   StatsSnapshot
//! SessionEvent    0x00 stream varint, type u8, iat f64, timestamp f64,
//!                      last_in_stream bool
//!               | 0x01 reason String   (terminal failure record)
//! ```
//!
//! Lifecycle verbs (`publish`, `rollback`, `versions`) need a server
//! started with `cptgen serve --registry DIR`; without one they answer
//! `NoRegistry`. Publish is the one way a model enters the registry; a
//! fine-tuned candidate is trained offline (`cptgen train --from`) and
//! published like any other model file.

#![deny(clippy::unwrap_used)]

pub mod wire;

use crate::engine::SessionEvent;
use crate::error::ServeError;
use crate::metrics::StatsSnapshot;
use crate::registry::{RegistryError, VersionState};
use cpt_trace::json::{ToJson, Value};
use wire::{field, wire_struct, Cursor, Field, ProtocolError, Varint, WireField};

/// Declares one direction's frames from one list: each entry is the
/// frame's docs, opcode byte, variant, JSON `"type"` name and fields in
/// wire order (docs, name, type). `[Varint]` before a name sends that
/// `u64` through [`wire`]'s `Varint` layout instead of its type's. From
/// the list come the enum, its `WireField` layout (the opcode byte, then
/// each field; an unknown opcode is [`ProtocolError::UnknownOpcode`]) and
/// its JSON form (`"type"`, then each field), so a new verb is one entry
/// here plus the code that serves it.
macro_rules! frames {
    (
        $(#[doc = $enum_doc:literal])*
        pub enum $enum:ident;
        $(
            $(#[doc = $doc:literal])*
            $op:literal $variant:ident $json:literal $({
                $(
                    $(#[doc = $field_doc:literal])*
                    $([$layout:ident])? $name:ident: $ty:ty,
                )*
            })?,
        )*
    ) => {
        $(#[doc = $enum_doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $enum {
            $(
                $(#[doc = $doc])*
                $variant $({ $($(#[doc = $field_doc])* $name: $ty,)* })?,
            )*
        }

        // `#[inline]`: without it each codec entry point in `wire` calls
        // these through one more frame, about 12 ns on a `next` round trip.
        impl WireField for $enum {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(variant!($enum $variant $({ $($name),* })?) => {
                        out.push($op);
                        // A `[Varint]` field is wrapped to encode and
                        // unwrapped after decode.
                        $($(
                            $(let $name = &$layout(*$name);)?
                            $name.put(out);
                        )*)?
                    })*
                }
            }

            #[inline]
            fn get(c: &mut Cursor<'_>, _: Field) -> Result<Self, ProtocolError> {
                // Struct-literal fields are evaluated in the order written.
                Ok(match c.u8()? {
                    $($op => variant!($enum $variant $({ $(
                        $name: WireField::get(c, field!($name))$(.map(|$layout(v)| v))??,
                    )* })?),)*
                    op => return Err(ProtocolError::UnknownOpcode(op)),
                })
            }
        }

        impl ToJson for $enum {
            fn to_json(&self) -> Value {
                match self {
                    $(variant!($enum $variant $({ $($name),* })?) => Value::obj([
                        ("type", Value::str($json)),
                        $($((stringify!($name), $name.to_json()),)*)?
                    ]),)*
                }
            }
        }
    };
}

/// A unit variant's path, or a struct variant's pattern or literal.
macro_rules! variant {
    ($enum:ident $variant:ident) => {
        $enum::$variant
    };
    ($enum:ident $variant:ident { $($body:tt)* }) => {
        $enum::$variant { $($body)* }
    };
}

frames! {
    /// A client request.
    pub enum Request;

    /// Open a generation session.
    0x01 Open "open" {
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
    0x02 Next "next" {
        /// Session id from `opened`.
        session: u64,
        max: usize,
        [Varint] wait_ms: u64,
    },
    /// Close a session (undelivered events are dropped).
    0x03 Close "close" {
        /// Session id from `opened`.
        session: u64,
    },
    /// Arm detach-on-disconnect for this connection: the server mints a
    /// capability token now; if the connection later dies for any reason,
    /// its open sessions park under the token (TTL-bounded) instead of
    /// being closed.
    0x04 Detach "detach",
    /// Present a detach token on a new connection, adopting the sessions
    /// parked under it when its connection ended. Delivery resumes exactly
    /// where it stopped.
    0x05 Reattach "reattach" {
        /// The 32-hex-digit token from `detached`.
        token: String,
    },
    /// Stop admission, wait up to `timeout_ms` for live sessions to finish
    /// decoding, force-fail the stragglers. Admission stays suspended
    /// afterwards (new opens get a `draining` error).
    0x06 Drain "drain" {
        [Varint] timeout_ms: u64,
    },
    /// Fetch a server stats snapshot.
    0x07 Stats "stats",
    /// Publish a model version through the gated path (stage if `path` is
    /// given, validate — checksum, checkpoint load, deterministic canary —
    /// then promote). Exactly one of `path`/`version` must be set:
    /// `path` stages a model file as a new candidate first, `version`
    /// re-validates and promotes an already-staged candidate.
    0x08 Publish "publish" {
        /// Model artifact to stage as a new candidate.
        path: Option<String>,
        /// An existing candidate version to validate and promote.
        version: Option<u64>,
    },
    /// Demote the live version and re-promote the previous one.
    0x09 Rollback "rollback",
    /// List registry versions and their lifecycle states.
    0x0B Versions "versions",
    /// Ask the server to stop accepting work and exit.
    0x0C Shutdown "shutdown",
}

frames! {
    /// A server response. The socket carries [`wire`] frames; the JSON form
    /// ([`ToJson`], tagged by a `"type"` field) is what `cptgen ctl -o` writes.
    pub enum Response;

    /// Session admitted.
    0x81 Opened "opened" {
        /// The id to use in `next`/`close`.
        session: u64,
    },
    /// Events for a session, in decode order. A session that died to a
    /// contained fault ends with one failure record.
    0x82 Events "events" {
        session: u64,
        /// True once decode is complete and the queue is drained.
        finished: bool,
        events: Vec<SessionEvent>,
    },
    /// Session closed.
    0x83 Closed "closed" {
        session: u64,
    },
    /// Detach armed; keep the token to reattach after a disconnect.
    0x84 Detached "detached" {
        /// Capability token, 32 lowercase hex digits.
        token: String,
    },
    /// Reattach succeeded; these session ids are yours again.
    0x85 Reattached "reattached" {
        sessions: Vec<u64>,
    },
    /// Drain finished (or hit its deadline).
    0x86 Drained "drained" {
        /// Sessions that finished decoding within the deadline.
        completed: u64,
        /// Stragglers force-failed at the deadline.
        force_failed: u64,
    },
    /// Stats snapshot (boxed: it is by far the largest response body and
    /// would otherwise dominate the size of every `Response` value).
    0x87 Stats "stats" {
        stats: Box<StatsSnapshot>,
    },
    /// A version passed the gate and is live.
    0x88 Published "published" {
        /// The version new sessions now open on.
        version: u64,
        /// The demoted version (now draining), if any.
        previous: Option<u64>,
    },
    /// Rollback succeeded.
    0x89 RolledBack "rolled_back" {
        /// The demoted version.
        demoted: u64,
        /// The version live again.
        live: u64,
    },
    /// Registry listing.
    0x8B Versions "versions" {
        /// The live version id, if any.
        live: Option<u64>,
        /// Every version the manifest knows, in id order.
        versions: Vec<VersionInfo>,
    },
    /// Acknowledges `shutdown`; the server exits after this.
    0x8C Bye "bye",
    /// A request failed.
    0x8D Error "error" {
        kind: ErrorKind,
        message: String,
    },
}

/// One registry version in a `versions` response.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionInfo {
    /// Version id.
    pub id: u64,
    /// Lifecycle state.
    pub state: VersionState,
    /// Open sessions pinned to it in the engine (0 for versions the
    /// engine does not hold).
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
wire_struct!(VersionInfo {
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
    /// The detach token is unknown, names no parked session yet (its
    /// connection is still open), was already redeemed, or expired.
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
    Internal => "internal",
});

impl ErrorKind {
    /// Every kind in declaration order; a kind's wire byte is its index.
    pub const ALL: [ErrorKind; 11] = [
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
            ServeError::NoPreviousVersion => ErrorKind::NoPreviousVersion,
            ServeError::NoRegistry => ErrorKind::NoRegistry,
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
        assert_eq!(
            ErrorKind::from(&ServeError::NoPreviousVersion),
            ErrorKind::NoPreviousVersion
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
        };
        assert_eq!(
            resp.to_json().to_compact(),
            r#"{"type":"versions","live":2,"versions":[{"id":2,"state":"live","sessions":7,"note":"imported"}]}"#
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
            ] {
                assert!(embedded.get(key).is_some(), "stats lack {key:?}");
            }
        }
    }
}
