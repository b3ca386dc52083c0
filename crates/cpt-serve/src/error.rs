//! Typed errors for the serving layer.
//!
//! A long-running server must surface every failure as a value the caller
//! (or the wire protocol) can match on: admission-control shedding, races
//! against session close, bad configuration, and model-layer errors all
//! have distinct variants. Nothing in this crate panics on load.

#![deny(clippy::unwrap_used)]

use cpt_gpt::GenerateError;

/// Errors raised by the serving engine and its protocol front end.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control shed this `open_session`: the session cap or the
    /// global queued-events watermark is exceeded. Retry later; nothing is
    /// wrong with the request itself.
    Overloaded {
        /// Sessions currently open.
        open: usize,
        /// Configured session cap.
        cap: usize,
        /// Events currently queued across all sessions.
        queued: usize,
        /// The queued-events watermark
        /// ([`QUEUE_WATERMARK`](crate::engine::QUEUE_WATERMARK)).
        watermark: usize,
    },
    /// The session id is unknown (never opened, or already closed).
    UnknownSession(u64),
    /// A serve-configuration field or CLI flag failed validation.
    InvalidConfig {
        /// Name of the offending field/flag.
        field: String,
        /// Human-readable description of the constraint that failed.
        message: String,
    },
    /// The engine is shutting down and admits no new work.
    ShuttingDown,
    /// The engine is draining: existing sessions may finish and their
    /// events may still be fetched, but no new session is admitted.
    Draining,
    /// The detach capability token is unknown, has no session parked
    /// under it yet, was already redeemed, or its TTL expired (the parked
    /// sessions were reclaimed).
    UnknownToken,
    /// The model layer rejected the session (bad params, untrained model).
    Generate(GenerateError),
    /// A socket/network operation failed (bind, connect, read, write).
    Io(std::io::Error),
    /// A model-registry operation failed (see [`crate::registry`]).
    Registry(crate::registry::RegistryError),
    /// Rollback requested but no previous version is retained.
    NoPreviousVersion,
    /// A lifecycle verb (`publish`/`rollback`/`versions`) reached a server
    /// started without `--registry`.
    NoRegistry,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                open,
                cap,
                queued,
                watermark,
            } => {
                if open >= cap {
                    write!(f, "overloaded: {open} sessions open (cap {cap})")
                } else {
                    write!(
                        f,
                        "overloaded: {queued} events queued (watermark {watermark})"
                    )
                }
            }
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::InvalidConfig { field, message } => {
                write!(f, "invalid serve config: {field}: {message}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Draining => {
                write!(f, "server is draining and admits no new sessions")
            }
            ServeError::UnknownToken => {
                write!(f, "unknown or expired detach token")
            }
            ServeError::Generate(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "network error: {e}"),
            ServeError::Registry(e) => write!(f, "{e}"),
            ServeError::NoPreviousVersion => {
                write!(f, "no previous model version retained to roll back to")
            }
            ServeError::NoRegistry => {
                write!(
                    f,
                    "model-lifecycle verbs need a registry; start the server with --registry"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Generate(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Registry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::registry::RegistryError> for ServeError {
    fn from(e: crate::registry::RegistryError) -> Self {
        ServeError::Registry(e)
    }
}

impl From<GenerateError> for ServeError {
    fn from(e: GenerateError) -> Self {
        ServeError::Generate(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
