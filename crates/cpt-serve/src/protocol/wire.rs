//! Length-prefixed binary framing — the one codec `cptgen serve` speaks.
//!
//! A client opens with a two-byte preamble, then exchanges frames:
//!
//! ```text
//! client → server:  0xCB 0x02            # magic, wire version
//! frame    := length payload
//! length   := LEB128 varint (payload bytes; ≤ MAX_FRAME_LEN)
//! payload  := opcode body
//! opcode   := 1 byte — 0x01.. requests, 0x81.. responses
//! ```
//!
//! A wrong magic or version byte is answered with one typed
//! `InvalidRequest` error frame naming [`ProtocolError::BadPreamble`], and
//! the connection closes. The opcode and body-layout table is in
//! [`crate::protocol`]'s module doc.
//!
//! Bodies are fixed-layout little-endian: `u64` fields are 8 bytes LE,
//! counts/sizes are varints, strings are varint-length-prefixed UTF-8,
//! `Option<T>` is a presence byte (0/1) followed by `T` when present, enum
//! fields are one byte indexing the type's `ALL` table, and `f64` travels
//! as its IEEE-754 bit pattern (`to_bits`/`from_bits`), so timestamps
//! survive the wire bit-exactly.
//!
//! The hot frame is `events` (opcode 0x82): each event is a one-byte tag
//! (data/failure) and a fixed 19-byte data layout, encoded straight into a
//! pooled output buffer ([`crate::pool`]) with no intermediate values —
//! steady-state deliver is allocation-free end to end. The two cold
//! responses (`stats`, `versions`) have fixed layouts like the rest:
//! `stats` is every [`StatsSnapshot`] field in declaration order, each
//! through its type's `WireField` layout. The struct and its codec come
//! from one field list in [`crate::metrics`], so a field added there is on
//! the wire with nothing else to edit.
//!
//! Decoding is total: any byte sequence — truncated, bit-flipped, forged —
//! decodes to a typed [`ProtocolError`], never a panic. Every field read
//! is bounds-checked, every enum byte is range-checked, and a payload must
//! be consumed exactly ([`ProtocolError::Trailing`] otherwise).

#![deny(clippy::unwrap_used)]

use crate::engine::SessionEvent;
use crate::metrics::{StatsSnapshot, VersionSessions};
use crate::protocol::{ErrorKind, Request, Response, VersionInfo};
use crate::registry::VersionState;
use cpt_trace::EventType;
use std::io::{self, Read, Write};

/// First preamble byte of every connection.
pub const MAGIC: u8 = 0xCB;

/// Wire-format version carried in the preamble's second byte. 0x02 gave
/// `stats` and `versions` fixed layouts; every other body is as in 0x01.
pub const WIRE_VERSION: u8 = 0x02;

/// Hard cap on a frame payload; larger lengths are rejected before any
/// allocation, so a corrupt or hostile length prefix cannot OOM the
/// server.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Typed decode/IO-framing failure. The decoder returns these for *any*
/// malformed input; it never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before the field being read.
    Truncated,
    /// A varint ran past 10 bytes (not a canonical u64 encoding).
    BadVarint,
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversize {
        /// The claimed length.
        len: u64,
    },
    /// The opcode byte names no known request/response.
    UnknownOpcode(u8),
    /// An enum byte was out of range for its field.
    BadTag {
        /// Which field the byte belonged to.
        field: &'static str,
        /// The offending value.
        value: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The payload was longer than its decoded content.
    Trailing {
        /// Unconsumed bytes.
        extra: usize,
    },
    /// The connection preamble had the wrong magic or version.
    BadPreamble {
        /// The two bytes received.
        got: [u8; 2],
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame truncated mid-field"),
            ProtocolError::BadVarint => write!(f, "varint overflows u64"),
            ProtocolError::Oversize { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtocolError::BadTag { field, value } => {
                write!(f, "value {value} out of range for {field}")
            }
            ProtocolError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ProtocolError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            ProtocolError::BadPreamble { got } => {
                write!(
                    f,
                    "bad preamble 0x{:02x} 0x{:02x} (want 0x{MAGIC:02x} 0x{WIRE_VERSION:02x})",
                    got[0], got[1]
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A framing-layer failure: transport IO or a malformed frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The frame itself was malformed.
    Protocol(ProtocolError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<ProtocolError> for FrameError {
    fn from(e: ProtocolError) -> Self {
        FrameError::Protocol(e)
    }
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// Appends a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt<T>(out: &mut Vec<u8>, v: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put(out, x);
        }
    }
}

/// A varint count, then each item.
fn put_seq<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_varint(out, items.len() as u64);
    for x in items {
        put(out, x);
    }
}

/// Bounds-checked sequential reader over one payload.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtocolError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn varint(&mut self) -> Result<u64, ProtocolError> {
        let mut v: u64 = 0;
        for shift in 0..10 {
            let byte = self.u8()?;
            let bits = (byte & 0x7F) as u64;
            if shift == 9 && byte > 1 {
                // The 10th byte can only carry the u64's top bit.
                return Err(ProtocolError::BadVarint);
            }
            v |= bits << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(ProtocolError::BadVarint)
    }

    /// A varint that must also fit in `usize` and under the frame cap —
    /// used for every length/count so a forged count cannot drive a huge
    /// allocation.
    fn len(&mut self) -> Result<usize, ProtocolError> {
        let v = self.varint()?;
        if v > MAX_FRAME_LEN as u64 {
            return Err(ProtocolError::Oversize { len: v });
        }
        Ok(v as usize)
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn bool(&mut self, field: &'static str) -> Result<bool, ProtocolError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(ProtocolError::BadTag { field, value }),
        }
    }

    fn opt<T>(
        &mut self,
        field: &'static str,
        read: impl FnOnce(&mut Self) -> Result<T, ProtocolError>,
    ) -> Result<Option<T>, ProtocolError> {
        if self.bool(field)? {
            Ok(Some(read(self)?))
        } else {
            Ok(None)
        }
    }

    /// A varint count, then that many items. Every item is at least one
    /// byte on the wire, so a forged count cannot reserve more than the
    /// payload holds.
    fn seq<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, ProtocolError>,
    ) -> Result<Vec<T>, ProtocolError> {
        let count = self.len()?;
        let mut items = Vec::with_capacity(count.min(self.buf.len() - self.pos));
        for _ in 0..count {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// One byte indexing `all` (an enum's `ALL` table).
    fn tag<T: Copy>(&mut self, field: &'static str, all: &[T]) -> Result<T, ProtocolError> {
        let value = self.u8()?;
        all.get(value as usize)
            .copied()
            .ok_or(ProtocolError::BadTag { field, value })
    }

    fn finish(self) -> Result<(), ProtocolError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(ProtocolError::Trailing { extra });
        }
        Ok(())
    }
}

/// A type with one fixed wire layout. [`StatsSnapshot`] is one, written
/// field by field in its declaration order (the field list in
/// [`crate::metrics`]); these impls are the layouts its fields use.
pub(crate) trait WireField: Sized {
    /// Appends the value.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value back.
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtocolError>;
}

impl WireField for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtocolError> {
        c.u64()
    }
}

impl WireField for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtocolError> {
        c.f64()
    }
}

/// A count: a varint, capped like every length.
impl WireField for usize {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtocolError> {
        c.len()
    }
}

impl<T: WireField> WireField for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self, |o, x| x.put(o));
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtocolError> {
        c.seq(T::get)
    }
}

impl WireField for VersionSessions {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.version);
        put_u64(out, self.sessions);
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtocolError> {
        Ok(VersionSessions {
            version: c.u64()?,
            sessions: c.u64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Opcodes
// ---------------------------------------------------------------------------

const OP_OPEN: u8 = 0x01;
const OP_NEXT: u8 = 0x02;
const OP_CLOSE: u8 = 0x03;
const OP_DETACH: u8 = 0x04;
const OP_REATTACH: u8 = 0x05;
const OP_DRAIN: u8 = 0x06;
const OP_STATS: u8 = 0x07;
const OP_PUBLISH: u8 = 0x08;
const OP_ROLLBACK: u8 = 0x09;
const OP_FINETUNE: u8 = 0x0A;
const OP_VERSIONS: u8 = 0x0B;
const OP_SHUTDOWN: u8 = 0x0C;

const RESP_OPENED: u8 = 0x81;
const RESP_EVENTS: u8 = 0x82;
const RESP_CLOSED: u8 = 0x83;
const RESP_DETACHED: u8 = 0x84;
const RESP_REATTACHED: u8 = 0x85;
const RESP_DRAINED: u8 = 0x86;
const RESP_STATS: u8 = 0x87;
const RESP_PUBLISHED: u8 = 0x88;
const RESP_ROLLED_BACK: u8 = 0x89;
const RESP_FINETUNE_STARTED: u8 = 0x8A;
const RESP_VERSIONS: u8 = 0x8B;
const RESP_BYE: u8 = 0x8C;
const RESP_ERROR: u8 = 0x8D;

// ---------------------------------------------------------------------------
// Events (the hot payload)
// ---------------------------------------------------------------------------

const EVENT_DATA: u8 = 0;
const EVENT_FAILED: u8 = 1;

/// Appends one session event in the canonical binary layout. Also the
/// basis of the loadgen output digest: two event streams are bit-identical
/// iff their encodings are.
pub fn encode_event(ev: &SessionEvent, out: &mut Vec<u8>) {
    match ev {
        SessionEvent::Data(d) => {
            out.push(EVENT_DATA);
            put_varint(out, d.stream as u64);
            out.push(d.event_type.index() as u8);
            put_f64(out, d.iat);
            put_f64(out, d.timestamp);
            out.push(u8::from(d.last_in_stream));
        }
        SessionEvent::Failed { reason } => {
            out.push(EVENT_FAILED);
            put_str(out, reason);
        }
    }
}

fn decode_event(c: &mut Cursor<'_>) -> Result<SessionEvent, ProtocolError> {
    match c.u8()? {
        EVENT_DATA => {
            let stream = c.len()?;
            let type_byte = c.u8()?;
            let event_type =
                EventType::from_index(type_byte as usize).ok_or(ProtocolError::BadTag {
                    field: "event type",
                    value: type_byte,
                })?;
            let iat = c.f64()?;
            let timestamp = c.f64()?;
            let last_in_stream = c.bool("last_in_stream")?;
            Ok(SessionEvent::Data(cpt_gpt::SessionEvent {
                stream,
                event_type,
                iat,
                timestamp,
                last_in_stream,
            }))
        }
        EVENT_FAILED => Ok(SessionEvent::Failed {
            reason: c.string()?,
        }),
        value => Err(ProtocolError::BadTag {
            field: "event tag",
            value,
        }),
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Appends a request payload (opcode + body; no length prefix — framing is
/// [`write_frame`]'s job).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Open {
            seed,
            streams,
            device,
            max_stream_len,
        } => {
            out.push(OP_OPEN);
            put_u64(out, *seed);
            put_varint(out, *streams as u64);
            put_str(out, device);
            put_opt(out, max_stream_len, |o, v| put_varint(o, *v as u64));
        }
        Request::Next {
            session,
            max,
            wait_ms,
        } => {
            out.push(OP_NEXT);
            put_u64(out, *session);
            put_varint(out, *max as u64);
            put_varint(out, *wait_ms);
        }
        Request::Close { session } => {
            out.push(OP_CLOSE);
            put_u64(out, *session);
        }
        Request::Detach => out.push(OP_DETACH),
        Request::Reattach { token } => {
            out.push(OP_REATTACH);
            put_str(out, token);
        }
        Request::Drain { timeout_ms } => {
            out.push(OP_DRAIN);
            put_varint(out, *timeout_ms);
        }
        Request::Stats => out.push(OP_STATS),
        Request::Publish { path, version } => {
            out.push(OP_PUBLISH);
            put_opt(out, path, |o, s| put_str(o, s));
            put_opt(out, version, |o, v| put_u64(o, *v));
        }
        Request::Rollback => out.push(OP_ROLLBACK),
        Request::Finetune {
            trace,
            epochs,
            seed,
        } => {
            out.push(OP_FINETUNE);
            put_str(out, trace);
            put_opt(out, epochs, |o, v| put_varint(o, *v as u64));
            put_opt(out, seed, |o, v| put_u64(o, *v));
        }
        Request::Versions => out.push(OP_VERSIONS),
        Request::Shutdown => out.push(OP_SHUTDOWN),
    }
}

/// Decodes one request payload, which must be consumed exactly.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        OP_OPEN => Request::Open {
            seed: c.u64()?,
            streams: c.len()?,
            device: c.string()?,
            max_stream_len: c.opt("max_stream_len presence", |c| c.len())?,
        },
        OP_NEXT => Request::Next {
            session: c.u64()?,
            max: c.len()?,
            wait_ms: c.varint()?,
        },
        OP_CLOSE => Request::Close { session: c.u64()? },
        OP_DETACH => Request::Detach,
        OP_REATTACH => Request::Reattach { token: c.string()? },
        OP_DRAIN => Request::Drain {
            timeout_ms: c.varint()?,
        },
        OP_STATS => Request::Stats,
        OP_PUBLISH => Request::Publish {
            path: c.opt("path presence", |c| c.string())?,
            version: c.opt("version presence", |c| c.u64())?,
        },
        OP_ROLLBACK => Request::Rollback,
        OP_FINETUNE => Request::Finetune {
            trace: c.string()?,
            epochs: c.opt("epochs presence", |c| c.len())?,
            seed: c.opt("seed presence", |c| c.u64())?,
        },
        OP_VERSIONS => Request::Versions,
        OP_SHUTDOWN => Request::Shutdown,
        op => return Err(ProtocolError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Appends a response payload. Every response has a fixed layout, so this
/// cannot fail today; the `Result` keeps the signature its callers (the
/// ledger among them) match on.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
    match resp {
        Response::Opened { session } => {
            out.push(RESP_OPENED);
            put_u64(out, *session);
        }
        Response::Events {
            session,
            events,
            finished,
        } => {
            out.push(RESP_EVENTS);
            put_u64(out, *session);
            out.push(u8::from(*finished));
            put_varint(out, events.len() as u64);
            for ev in events {
                encode_event(ev, out);
            }
        }
        Response::Closed { session } => {
            out.push(RESP_CLOSED);
            put_u64(out, *session);
        }
        Response::Detached { token } => {
            out.push(RESP_DETACHED);
            put_str(out, token);
        }
        Response::Reattached { sessions } => {
            out.push(RESP_REATTACHED);
            put_seq(out, sessions, |o, s| put_u64(o, *s));
        }
        Response::Drained {
            completed,
            force_failed,
        } => {
            out.push(RESP_DRAINED);
            put_u64(out, *completed);
            put_u64(out, *force_failed);
        }
        Response::Stats { stats } => {
            out.push(RESP_STATS);
            stats.put(out);
        }
        Response::Published { version, previous } => {
            out.push(RESP_PUBLISHED);
            put_u64(out, *version);
            put_opt(out, previous, |o, v| put_u64(o, *v));
        }
        Response::RolledBack { demoted, live } => {
            out.push(RESP_ROLLED_BACK);
            put_u64(out, *demoted);
            put_u64(out, *live);
        }
        Response::FinetuneStarted { job } => {
            out.push(RESP_FINETUNE_STARTED);
            put_u64(out, *job);
        }
        Response::Versions {
            live,
            versions,
            last_finetune_error,
        } => {
            out.push(RESP_VERSIONS);
            put_opt(out, live, |o, v| put_u64(o, *v));
            put_seq(out, versions, |o, v| {
                let VersionInfo {
                    id,
                    state,
                    sessions,
                    note,
                } = v;
                put_u64(o, *id);
                o.push(*state as u8);
                put_u64(o, *sessions);
                put_str(o, note);
            });
            put_opt(out, last_finetune_error, |o, s| put_str(o, s));
        }
        Response::Bye => out.push(RESP_BYE),
        Response::Error { kind, message } => {
            out.push(RESP_ERROR);
            out.push(*kind as u8);
            put_str(out, message);
        }
    }
    Ok(())
}

/// Decodes one response payload, which must be consumed exactly.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        RESP_OPENED => Response::Opened { session: c.u64()? },
        RESP_EVENTS => {
            let session = c.u64()?;
            let finished = c.bool("finished")?;
            let events = c.seq(decode_event)?;
            Response::Events {
                session,
                events,
                finished,
            }
        }
        RESP_CLOSED => Response::Closed { session: c.u64()? },
        RESP_DETACHED => Response::Detached { token: c.string()? },
        RESP_REATTACHED => Response::Reattached {
            sessions: c.seq(|c| c.u64())?,
        },
        RESP_DRAINED => Response::Drained {
            completed: c.u64()?,
            force_failed: c.u64()?,
        },
        RESP_STATS => Response::Stats {
            stats: Box::new(StatsSnapshot::get(&mut c)?),
        },
        RESP_PUBLISHED => Response::Published {
            version: c.u64()?,
            previous: c.opt("previous presence", |c| c.u64())?,
        },
        RESP_ROLLED_BACK => Response::RolledBack {
            demoted: c.u64()?,
            live: c.u64()?,
        },
        RESP_FINETUNE_STARTED => Response::FinetuneStarted { job: c.u64()? },
        RESP_VERSIONS => Response::Versions {
            live: c.opt("live presence", |c| c.u64())?,
            versions: c.seq(|c| {
                Ok(VersionInfo {
                    id: c.u64()?,
                    state: c.tag("version state", &VersionState::ALL)?,
                    sessions: c.u64()?,
                    note: c.string()?,
                })
            })?,
            last_finetune_error: c.opt("last_finetune_error presence", |c| c.string())?,
        },
        RESP_BYE => Response::Bye,
        RESP_ERROR => Response::Error {
            kind: c.tag("error kind", &ErrorKind::ALL)?,
            message: c.string()?,
        },
        op => return Err(ProtocolError::UnknownOpcode(op)),
    };
    c.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame: varint payload length, then the payload. Does not
/// flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload {} exceeds cap {MAX_FRAME_LEN}",
                payload.len()
            ),
        ));
    }
    let mut prefix = [0u8; 10];
    let mut n = 0;
    let mut v = payload.len() as u64;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            prefix[n] = byte;
            n += 1;
            break;
        }
        prefix[n] = byte | 0x80;
        n += 1;
    }
    w.write_all(&prefix[..n])?;
    w.write_all(payload)
}

/// Reads one frame's payload into `buf` (cleared first). Returns `false`
/// on a clean EOF at a frame boundary — the peer closed the connection
/// between frames, which is not an error.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> Result<bool, FrameError> {
    // Varint length, byte by byte; EOF on the *first* byte is a clean
    // close, EOF anywhere later is a truncated frame.
    let mut len: u64 = 0;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && first => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(ProtocolError::Truncated.into())
            }
            Err(e) => return Err(e.into()),
        }
        first = false;
        let b = byte[0];
        if shift == 63 && b > 1 {
            return Err(ProtocolError::BadVarint.into());
        }
        len |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Err(ProtocolError::BadVarint.into());
        }
    }
    if len > MAX_FRAME_LEN as u64 {
        return Err(ProtocolError::Oversize { len }.into());
    }
    buf.clear();
    buf.resize(len as usize, 0);
    match r.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(ProtocolError::Truncated.into()),
        Err(e) => Err(e.into()),
    }
}

/// Writes the preamble a client sends once, right after connect.
pub fn write_preamble<W: Write>(w: &mut W) -> io::Result<()> {
    w.write_all(&[MAGIC, WIRE_VERSION])
}

/// Validates the two preamble bytes a server reads first.
pub fn check_preamble(got: [u8; 2]) -> Result<(), ProtocolError> {
    if got == [MAGIC, WIRE_VERSION] {
        Ok(())
    } else {
        Err(ProtocolError::BadPreamble { got })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let back = decode_request(&buf).expect("decodes");
        assert_eq!(back, req);
    }

    fn round_trip_response(resp: Response) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf).expect("encodes");
        let back = decode_response(&buf).expect("decodes");
        assert_eq!(back, resp);
    }

    #[test]
    fn fixed_layout_verbs_round_trip() {
        round_trip_request(Request::Open {
            seed: u64::MAX,
            streams: 3,
            device: "connected_car".to_string(),
            max_stream_len: Some(128),
        });
        round_trip_request(Request::Next {
            session: 0x0123_4567_89AB_CDEF,
            max: 64,
            wait_ms: 100,
        });
        round_trip_request(Request::Close { session: 1 });
        round_trip_request(Request::Detach);
        round_trip_request(Request::Reattach {
            token: "00ff00ff00ff00ff00ff00ff00ff00ff".to_string(),
        });
        round_trip_request(Request::Drain { timeout_ms: 5000 });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Publish {
            path: Some("m.cmb".to_string()),
            version: None,
        });
        round_trip_request(Request::Rollback);
        round_trip_request(Request::Finetune {
            trace: "t.jsonl".to_string(),
            epochs: None,
            seed: Some(9),
        });
        round_trip_request(Request::Versions);
        round_trip_request(Request::Shutdown);

        round_trip_response(Response::Opened { session: 5 });
        round_trip_response(Response::Events {
            session: 5,
            events: vec![
                SessionEvent::Data(cpt_gpt::SessionEvent {
                    stream: 2,
                    event_type: EventType::Handover,
                    iat: 0.125,
                    timestamp: 1.0e-300, // subnormal-adjacent: exercises full exponent range
                    last_in_stream: false,
                }),
                SessionEvent::Failed {
                    reason: "worker panic: chaos".to_string(),
                },
            ],
            finished: true,
        });
        round_trip_response(Response::Closed { session: 5 });
        round_trip_response(Response::Detached {
            token: "deadbeef".to_string(),
        });
        round_trip_response(Response::Reattached {
            sessions: vec![3, 4, 9],
        });
        round_trip_response(Response::Drained {
            completed: 10,
            force_failed: 1,
        });
        round_trip_response(Response::Published {
            version: 3,
            previous: Some(2),
        });
        round_trip_response(Response::RolledBack {
            demoted: 3,
            live: 2,
        });
        round_trip_response(Response::FinetuneStarted { job: 1 });
        round_trip_response(Response::Bye);
        round_trip_response(Response::Error {
            kind: ErrorKind::Overloaded,
            message: "shed".to_string(),
        });
    }

    #[test]
    fn cold_responses_round_trip() {
        // 41 fields that all differ, so a layout that moves, drops or
        // swaps a field changes the pinned bytes below.
        let stats = Response::Stats {
            stats: Box::new(StatsSnapshot {
                uptime_secs: 1.5,
                workers: 300,
                sessions_open: 3,
                sessions_opened: 4,
                sessions_shed: 5,
                sessions_closed: 6,
                sessions_failed: 7,
                sessions_detached: 8,
                sessions_reattached: 9,
                sessions_expired: 10,
                sessions_force_failed: 11,
                worker_panics: 12,
                events_generated: 13,
                events_delivered: 14,
                events_per_sec: 2.25,
                queued_events: 15,
                free_states: 16,
                slices: 17,
                slice_p50_us: 18,
                slice_p99_us: 19,
                batched_tokens: 20,
                sequential_tokens: 21,
                batch_rounds: 22,
                batch_p50: 23,
                batch_p99: 24,
                batch_peak: 0x0102_0304_0506_0708,
                live_version: 25,
                sessions_per_version: vec![
                    VersionSessions {
                        version: 26,
                        sessions: 27,
                    },
                    VersionSessions {
                        version: 28,
                        sessions: 29,
                    },
                ],
                versions_published: 30,
                versions_rolled_back: 31,
                versions_quarantined: 32,
                versions_retired: 33,
                divergence_trips: 34,
                finetunes_running: 35,
                finetunes_completed: 36,
                finetunes_failed: 37,
                shards: 38,
                shard_sessions_max: 39,
                shard_sessions_min: 40,
                shard_runnable_max: 41,
                shard_runnable_min: 42,
            }),
        };
        let mut payload = Vec::new();
        encode_response(&stats, &mut payload).expect("encodes");
        // Pinned at WIRE_VERSION 0x02: the layout is the field list's
        // declaration order.
        assert_eq!(payload.len(), 348);
        assert_eq!(cpt_trace::columnar::fnv1a(&payload), 0x3647_e162_368a_31db);
        // The JSON `ctl -o` writes (pretty there, compact here): same keys,
        // same order.
        assert_eq!(
            cpt_trace::json::ToJson::to_json(&stats).to_compact(),
            concat!(
                r#"{"type":"stats","stats":{"uptime_secs":1.5,"workers":300,"sessions_open":3,"#,
                r#""sessions_opened":4,"sessions_shed":5,"sessions_closed":6,"sessions_failed":7,"#,
                r#""sessions_detached":8,"sessions_reattached":9,"sessions_expired":10,"#,
                r#""sessions_force_failed":11,"worker_panics":12,"events_generated":13,"#,
                r#""events_delivered":14,"events_per_sec":2.25,"queued_events":15,"#,
                r#""free_states":16,"slices":17,"slice_p50_us":18,"slice_p99_us":19,"#,
                r#""batched_tokens":20,"sequential_tokens":21,"batch_rounds":22,"batch_p50":23,"#,
                r#""batch_p99":24,"batch_peak":72623859790382856,"live_version":25,"#,
                r#""sessions_per_version":[{"version":26,"sessions":27},"#,
                r#"{"version":28,"sessions":29}],"versions_published":30,"#,
                r#""versions_rolled_back":31,"versions_quarantined":32,"versions_retired":33,"#,
                r#""divergence_trips":34,"finetunes_running":35,"finetunes_completed":36,"#,
                r#""finetunes_failed":37,"shards":38,"shard_sessions_max":39,"#,
                r#""shard_sessions_min":40,"shard_runnable_max":41,"shard_runnable_min":42}}"#,
            )
        );
        round_trip_response(stats);
        round_trip_response(Response::Versions {
            live: Some(2),
            versions: vec![
                VersionInfo {
                    id: 1,
                    state: VersionState::Retired,
                    sessions: 0,
                    note: "bootstrap import".to_string(),
                },
                VersionInfo {
                    id: 2,
                    state: VersionState::Live,
                    sessions: 7,
                    note: String::new(),
                },
            ],
            last_finetune_error: Some("diverged".to_string()),
        });
    }

    #[test]
    fn nan_timestamps_survive_bit_exactly() {
        let bits = 0x7ff8_dead_beef_0001_u64;
        let ev = SessionEvent::Data(cpt_gpt::SessionEvent {
            stream: 0,
            event_type: EventType::Attach,
            iat: f64::from_bits(bits),
            timestamp: 0.0,
            last_in_stream: true,
        });
        let mut buf = Vec::new();
        encode_event(&ev, &mut buf);
        let mut c = Cursor::new(&buf);
        let back = decode_event(&mut c).expect("decodes");
        match back {
            SessionEvent::Data(d) => assert_eq!(d.iat.to_bits(), bits),
            other => panic!("expected data event, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        let mut buf = Vec::new();
        encode_request(
            &Request::Open {
                seed: 7,
                streams: 2,
                device: "phone".to_string(),
                max_stream_len: Some(64),
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            let got = decode_request(&buf[..cut]);
            assert!(got.is_err(), "prefix of {cut} bytes decoded: {got:?}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_request(&Request::Stats, &mut buf);
        buf.push(0);
        assert_eq!(
            decode_request(&buf),
            Err(ProtocolError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn oversize_lengths_are_rejected_before_allocation() {
        // A reattached response claiming u64::MAX sessions.
        let mut buf = vec![RESP_REATTACHED];
        put_varint(&mut buf, u64::MAX);
        assert!(matches!(
            decode_response(&buf),
            Err(ProtocolError::Oversize { .. })
        ));
    }

    #[test]
    fn unknown_opcodes_are_typed_errors() {
        assert_eq!(
            decode_request(&[0x7E]),
            Err(ProtocolError::UnknownOpcode(0x7E))
        );
        assert_eq!(
            decode_response(&[0x02]),
            Err(ProtocolError::UnknownOpcode(0x02))
        );
        assert_eq!(decode_request(&[]), Err(ProtocolError::Truncated));
    }

    #[test]
    fn error_kinds_round_trip_through_bytes() {
        for (i, kind) in ErrorKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?} out of declaration order");
            assert_eq!(Cursor::new(&[i as u8]).tag("k", &ErrorKind::ALL), Ok(kind));
        }
        for (i, state) in VersionState::ALL.into_iter().enumerate() {
            assert_eq!(state as usize, i, "{state:?} out of declaration order");
        }
        assert!(matches!(
            decode_response(&[RESP_ERROR, ErrorKind::ALL.len() as u8, 0]),
            Err(ProtocolError::BadTag { .. })
        ));
    }

    #[test]
    fn frames_round_trip_and_eof_at_boundary_is_clean() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").expect("writes");
        write_frame(&mut wire, b"").expect("writes empty");
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).expect("reads"));
        assert_eq!(&buf[..], b"abc");
        assert!(read_frame(&mut r, &mut buf).expect("reads empty"));
        assert!(buf.is_empty());
        assert!(
            !read_frame(&mut r, &mut buf).expect("clean eof"),
            "EOF at boundary"
        );
    }

    #[test]
    fn truncated_frames_and_oversize_prefixes_are_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").expect("writes");
        let mut r = &wire[..3]; // length byte + partial payload
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut buf),
            Err(FrameError::Protocol(ProtocolError::Truncated))
        ));

        // A length prefix claiming 1 TiB.
        let mut huge = Vec::new();
        put_varint(&mut huge, 1 << 40);
        let mut r = &huge[..];
        assert!(matches!(
            read_frame(&mut r, &mut buf),
            Err(FrameError::Protocol(ProtocolError::Oversize { .. }))
        ));
    }

    #[test]
    fn preamble_version_gate() {
        assert!(check_preamble([MAGIC, WIRE_VERSION]).is_ok());
        for got in [[MAGIC, 0x01], [b'{', b'"'], [0, WIRE_VERSION]] {
            assert_eq!(check_preamble(got), Err(ProtocolError::BadPreamble { got }));
        }
    }
}
