//! Property tests for the wire codec: every verb and response round-trips
//! bit-exactly through `encode`/`decode`; truncating an encoded frame at
//! any offset yields a typed [`ProtocolError`]; and flipping any single
//! bit anywhere in a frame decodes to `Ok` or a typed error — never a
//! panic.

use cpt_serve::metrics::VersionSessions;
use cpt_serve::protocol::wire::{self, ProtocolError};
use cpt_serve::protocol::{ErrorKind, Request, Response, VersionInfo};
use cpt_serve::{SessionEvent, StatsSnapshot, VersionState};
use cpt_trace::EventType;
use proptest::prelude::*;

type DecodedEvent = cpt_gpt::SessionEvent;

const DEVICES: [&str; 3] = ["phone", "connected_car", "tablet"];

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (0u64..u64::MAX, 1usize..9, 0usize..3, 0usize..40).prop_map(|(seed, streams, dev, cap)| {
            Request::Open {
                seed,
                streams,
                device: DEVICES[dev].to_string(),
                max_stream_len: if cap == 0 { None } else { Some(cap) },
            }
        }),
        (0u64..u64::MAX, 0usize..4096, 0u64..100_000).prop_map(|(session, max, wait_ms)| {
            Request::Next {
                session,
                max,
                wait_ms,
            }
        }),
        (0u64..u64::MAX).prop_map(|session| Request::Close { session }),
        Just(Request::Detach),
        (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(a, b)| Request::Reattach {
            token: format!("{a:016x}{b:016x}"),
        }),
        (0u64..600_000).prop_map(|timeout_ms| Request::Drain { timeout_ms }),
        Just(Request::Stats),
        (1u64..64, 0u8..2).prop_map(|(v, staged)| Request::Publish {
            path: if staged == 0 {
                Some(format!("model-{v}.json"))
            } else {
                None
            },
            version: if staged == 0 { None } else { Some(v) },
        }),
        Just(Request::Rollback),
        Just(Request::Versions),
        Just(Request::Shutdown),
    ]
}

/// Finite event payloads (NaN bit-exactness has its own unit test in the
/// codec; `PartialEq` round-trip comparison needs finite floats).
fn arb_event() -> impl Strategy<Value = SessionEvent> {
    prop_oneof![
        (
            0usize..8,
            0usize..EventType::ALL.len(),
            0.0f64..1e6,
            0.0f64..1e9,
            0u8..2
        )
            .prop_map(|(stream, et, iat, timestamp, last)| {
                SessionEvent::Data(DecodedEvent {
                    stream,
                    event_type: EventType::from_index(et).expect("index in range"),
                    iat,
                    timestamp,
                    last_in_stream: last == 1,
                })
            }),
        (0u64..1000).prop_map(|n| SessionEvent::Failed {
            reason: format!("chaos: injected panic advancing session {n}"),
        }),
    ]
}

/// A snapshot whose every field is drawn independently, so an encoder
/// that swapped two fields of one type would fail the round trip.
fn arb_stats() -> impl Strategy<Value = StatsSnapshot> {
    (
        proptest::collection::vec(0u64..u64::MAX, 34),
        (0.0f64..1e9, 0.0f64..1e9),
        1usize..4096,
        proptest::collection::vec((1u64..64, 0u64..5000), 0..4),
    )
        .prop_map(|(u, (uptime_secs, events_per_sec), workers, per_version)| {
            let mut u = u.into_iter();
            let mut next = || u.next().expect("34 u64 fields drawn");
            StatsSnapshot {
                uptime_secs,
                workers,
                sessions_open: next(),
                sessions_opened: next(),
                sessions_shed: next(),
                sessions_closed: next(),
                sessions_failed: next(),
                sessions_detached: next(),
                sessions_reattached: next(),
                sessions_expired: next(),
                sessions_force_failed: next(),
                worker_panics: next(),
                events_generated: next(),
                events_delivered: next(),
                events_per_sec,
                queued_events: next(),
                free_states: next(),
                slices: next(),
                slice_p50_us: next(),
                slice_p99_us: next(),
                batched_tokens: next(),
                sequential_tokens: next(),
                batch_rounds: next(),
                batch_p50: next(),
                batch_p99: next(),
                batch_peak: next(),
                live_version: next(),
                sessions_per_version: per_version
                    .into_iter()
                    .map(|(version, sessions)| VersionSessions { version, sessions })
                    .collect(),
                versions_published: next(),
                versions_rolled_back: next(),
                versions_quarantined: next(),
                versions_retired: next(),
                divergence_trips: next(),
                shards: next(),
                shard_sessions_max: next(),
                shard_sessions_min: next(),
                shard_runnable_max: next(),
                shard_runnable_min: next(),
            }
        })
}

fn arb_version() -> impl Strategy<Value = VersionInfo> {
    (
        1u64..64,
        0usize..VersionState::ALL.len(),
        0u64..5000,
        0u64..1000,
    )
        .prop_map(|(id, state, sessions, note)| VersionInfo {
            id,
            state: VersionState::ALL[state],
            sessions,
            note: if note == 0 {
                String::new()
            } else {
                format!("staged from model-{note}.json")
            },
        })
}

/// Every response.
fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|session| Response::Opened { session }),
        (
            0u64..u64::MAX,
            proptest::collection::vec(arb_event(), 0..16),
            0u8..2
        )
            .prop_map(|(session, events, fin)| Response::Events {
                session,
                events,
                finished: fin == 1,
            }),
        (0u64..u64::MAX).prop_map(|session| Response::Closed { session }),
        (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(a, b)| Response::Detached {
            token: format!("{a:016x}{b:016x}"),
        }),
        proptest::collection::vec(0u64..u64::MAX, 0..32)
            .prop_map(|sessions| Response::Reattached { sessions }),
        (0u64..5000, 0u64..5000).prop_map(|(completed, force_failed)| Response::Drained {
            completed,
            force_failed,
        }),
        (1u64..64, 0u64..64).prop_map(|(version, prev)| Response::Published {
            version,
            previous: if prev == 0 { None } else { Some(prev) },
        }),
        (1u64..64, 1u64..64).prop_map(|(demoted, live)| Response::RolledBack { demoted, live }),
        Just(Response::Bye),
        (0usize..ErrorKind::ALL.len(), 0u64..1000).prop_map(|(k, n)| Response::Error {
            kind: ErrorKind::ALL[k],
            message: format!("failure {n}"),
        }),
        arb_stats().prop_map(|stats| Response::Stats {
            stats: Box::new(stats),
        }),
        (0u64..64, proptest::collection::vec(arb_version(), 0..6)).prop_map(|(live, versions)| {
            Response::Versions {
                live: if live == 0 { None } else { Some(live) },
                versions,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request verb round-trips bit-exactly.
    #[test]
    fn every_request_round_trips(req in arb_request()) {
        let mut buf = Vec::new();
        wire::encode_request(&req, &mut buf);
        let back = wire::decode_request(&buf);
        prop_assert_eq!(Ok(req), back);
    }

    /// Every response round-trips bit-exactly.
    #[test]
    fn every_response_round_trips(resp in arb_response()) {
        let mut buf = Vec::new();
        wire::encode_response(&resp, &mut buf).expect("responses encode");
        let back = wire::decode_response(&buf);
        prop_assert_eq!(Ok(resp), back);
    }

    /// A request frame truncated at any strict prefix is a typed error,
    /// never a panic and never a silent partial decode.
    #[test]
    fn truncated_requests_are_typed_errors(req in arb_request(), cut in 0usize..4096) {
        let mut buf = Vec::new();
        wire::encode_request(&req, &mut buf);
        let cut = cut % buf.len(); // strict prefix: every opcode is >= 1 byte
        let got = wire::decode_request(&buf[..cut]);
        prop_assert!(got.is_err(), "prefix of len {} decoded to {:?}", cut, got);
    }

    /// A response frame truncated at any strict prefix is a typed error.
    #[test]
    fn truncated_responses_are_typed_errors(resp in arb_response(), cut in 0usize..4096) {
        let mut buf = Vec::new();
        wire::encode_response(&resp, &mut buf).expect("responses encode");
        let cut = cut % buf.len();
        let got = wire::decode_response(&buf[..cut]);
        prop_assert!(got.is_err(), "prefix of len {} decoded to {:?}", cut, got);
    }

    /// Flipping any single bit anywhere in an encoded request decodes to
    /// `Ok` (the flip landed in a value field) or a typed error — the
    /// decoder must never panic on adversarial bytes.
    #[test]
    fn bit_flipped_requests_never_panic(
        req in arb_request(),
        byte_sel in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        wire::encode_request(&req, &mut buf);
        let idx = byte_sel % buf.len();
        buf[idx] ^= 1 << bit;
        match wire::decode_request(&buf) {
            Ok(_) | Err(ProtocolError::Truncated)
            | Err(ProtocolError::BadVarint)
            | Err(ProtocolError::Oversize { .. })
            | Err(ProtocolError::UnknownOpcode(_))
            | Err(ProtocolError::BadTag { .. })
            | Err(ProtocolError::BadUtf8)
            | Err(ProtocolError::Trailing { .. }) => {}
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }
    }

    /// Same single-bit-flip robustness for encoded responses.
    #[test]
    fn bit_flipped_responses_never_panic(
        resp in arb_response(),
        byte_sel in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        wire::encode_response(&resp, &mut buf).expect("responses encode");
        let idx = byte_sel % buf.len();
        buf[idx] ^= 1 << bit;
        // Any typed outcome is acceptable; reaching this line at all is
        // the property (no panic, no abort).
        let _ = wire::decode_response(&buf);
    }

    /// Framing survives bit flips too: corrupting any byte of a framed
    /// message (length prefix included) yields a clean read, a typed
    /// frame error, or a short read — never a panic or an OOM-sized
    /// allocation.
    #[test]
    fn bit_flipped_frames_never_panic(
        req in arb_request(),
        byte_sel in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut payload = Vec::new();
        wire::encode_request(&req, &mut payload);
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &payload).expect("frame into memory");
        let idx = byte_sel % framed.len();
        framed[idx] ^= 1 << bit;
        let mut reader = framed.as_slice();
        let mut buf = Vec::new();
        let _ = wire::read_frame(&mut reader, &mut buf);
    }
}
