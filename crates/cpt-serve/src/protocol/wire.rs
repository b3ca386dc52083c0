//! Length-prefixed binary framing — the one codec `cptgen serve` speaks.
//!
//! A client opens with a two-byte preamble, then exchanges frames:
//!
//! ```text
//! client → server:  0xCB 0x03            # magic, wire version
//! frame    := length payload
//! length   := LEB128 varint (payload bytes; ≤ MAX_FRAME_LEN)
//! payload  := opcode body
//! opcode   := 1 byte — 0x01.. requests, 0x81.. responses
//! ```
//!
//! A wrong magic or version byte is answered with one typed
//! `InvalidRequest` error frame naming [`ProtocolError::BadPreamble`], and
//! the connection closes. Each frame's opcode and body come from its entry
//! in [`crate::protocol`]'s two frame lists, which also give every field's
//! layout; this module holds those layouts, the framing and the four entry
//! points ([`encode_request`] and its siblings).
//!
//! The hot frame is `events` (opcode 0x82): each event is a one-byte tag
//! (data/failure) and a fixed 19-byte data layout, encoded straight into a
//! pooled output buffer ([`crate::pool`]) with no intermediate values —
//! steady-state deliver is allocation-free end to end.
//!
//! Decoding is total: any byte sequence — truncated, bit-flipped, forged —
//! decodes to a typed [`ProtocolError`], never a panic. Every field read
//! is bounds-checked, every enum byte is range-checked, and a payload must
//! be consumed exactly ([`ProtocolError::Trailing`] otherwise).

#![deny(clippy::unwrap_used)]

use crate::engine::SessionEvent;
use crate::protocol::{ErrorKind, Request, Response};
use crate::registry::VersionState;
use cpt_trace::EventType;
use std::io::{self, Read, Write};

/// First preamble byte of every connection.
pub const MAGIC: u8 = 0xCB;

/// Wire-format version carried in the preamble's second byte. 0x02 gave
/// `stats` and `versions` fixed layouts; 0x03 dropped the fine-tune
/// request (0x0A) and its response (0x8A), the `versions` frame's last
/// fine-tune error, three fine-tune `stats` counters and the `busy` error
/// kind. Every other body is as in 0x01.
pub const WIRE_VERSION: u8 = 0x03;

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

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
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

    pub(crate) fn u8(&mut self) -> Result<u8, ProtocolError> {
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

// ---------------------------------------------------------------------------
// Field layouts
// ---------------------------------------------------------------------------

/// A type with one fixed wire layout. A frame of [`crate::protocol`]'s
/// lists, and a struct declared with `wire_struct!`, is its fields in
/// order, each through its type's layout below.
pub(crate) trait WireField: Sized {
    /// Appends the value.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value back; `field` names it in a [`ProtocolError::BadTag`].
    fn get(c: &mut Cursor<'_>, field: Field) -> Result<Self, ProtocolError>;
}

/// The names a declared field's decode errors carry: its own for a bad
/// `bool`, its presence byte's for an `Option`.
#[derive(Clone, Copy)]
pub(crate) struct Field {
    pub(crate) name: &'static str,
    pub(crate) presence: &'static str,
}

/// The [`Field`] of the field `$name`.
macro_rules! field {
    ($name:ident) => {
        $crate::protocol::wire::Field {
            name: stringify!($name),
            presence: concat!(stringify!($name), " presence"),
        }
    };
}
pub(crate) use field;

/// `WireField` for a struct: the listed fields in that order.
macro_rules! wire_struct {
    ($ty:ident { $($name:ident),* $(,)? }) => {
        impl $crate::protocol::wire::WireField for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::protocol::wire::WireField::put(&self.$name, out);)*
            }

            fn get(
                c: &mut $crate::protocol::wire::Cursor<'_>,
                _: $crate::protocol::wire::Field,
            ) -> Result<Self, $crate::protocol::wire::ProtocolError> {
                // Struct-literal fields are evaluated in the order written.
                Ok($ty {
                    $($name: $crate::protocol::wire::WireField::get(
                        c,
                        $crate::protocol::wire::field!($name),
                    )?,)*
                })
            }
        }
    };
}
pub(crate) use wire_struct;

/// 8 bytes LE.
impl WireField for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(c: &mut Cursor<'_>, _: Field) -> Result<Self, ProtocolError> {
        c.u64()
    }
}

/// A `u64` as a varint, uncapped: the layout a frame list marks
/// `[Varint]` (`wait_ms`, `timeout_ms`).
pub(crate) struct Varint(pub(crate) u64);

impl WireField for Varint {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.0);
    }
    fn get(c: &mut Cursor<'_>, _: Field) -> Result<Self, ProtocolError> {
        c.varint().map(Varint)
    }
}

/// Its IEEE-754 bits, 8 bytes LE, so NaN payloads survive.
impl WireField for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(c: &mut Cursor<'_>, _: Field) -> Result<Self, ProtocolError> {
        c.f64()
    }
}

/// A count: a varint, capped like every length.
impl WireField for usize {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn get(c: &mut Cursor<'_>, _: Field) -> Result<Self, ProtocolError> {
        c.len()
    }
}

/// One byte, 0 or 1.
impl WireField for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(c: &mut Cursor<'_>, field: Field) -> Result<Self, ProtocolError> {
        c.bool(field.name)
    }
}

/// A varint byte length, then UTF-8.
impl WireField for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn get(c: &mut Cursor<'_>, _: Field) -> Result<Self, ProtocolError> {
        c.string()
    }
}

/// A presence byte (0/1), then the value when present.
impl<T: WireField> WireField for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(x) = self {
            x.put(out);
        }
    }
    fn get(c: &mut Cursor<'_>, field: Field) -> Result<Self, ProtocolError> {
        if c.bool(field.presence)? {
            Ok(Some(T::get(c, field)?))
        } else {
            Ok(None)
        }
    }
}

/// A varint count, then each item.
impl<T: WireField> WireField for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for x in self {
            x.put(out);
        }
    }
    fn get(c: &mut Cursor<'_>, field: Field) -> Result<Self, ProtocolError> {
        c.seq(|c| T::get(c, field))
    }
}

impl<T: WireField> WireField for Box<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(c: &mut Cursor<'_>, field: Field) -> Result<Self, ProtocolError> {
        T::get(c, field).map(Box::new)
    }
}

/// One byte indexing the type's `ALL` table; `$field` names it in a
/// [`ProtocolError::BadTag`].
macro_rules! wire_tag {
    ($($ty:ident $field:literal),*) => {$(
        impl WireField for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(*self as u8);
            }
            fn get(c: &mut Cursor<'_>, _: Field) -> Result<Self, ProtocolError> {
                c.tag($field, &$ty::ALL)
            }
        }
    )*};
}

wire_tag!(ErrorKind "error kind", VersionState "version state");

/// The hot payload: `get` and `decode_event` are `#[inline]` so an `events`
/// frame decodes in one loop; a call per event cost about 2 ns.
impl WireField for SessionEvent {
    fn put(&self, out: &mut Vec<u8>) {
        encode_event(self, out);
    }
    #[inline]
    fn get(c: &mut Cursor<'_>, _: Field) -> Result<Self, ProtocolError> {
        decode_event(c)
    }
}

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
            d.iat.put(out);
            d.timestamp.put(out);
            out.push(u8::from(d.last_in_stream));
        }
        SessionEvent::Failed { reason } => {
            out.push(EVENT_FAILED);
            put_str(out, reason);
        }
    }
}

#[inline]
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
// Frames
// ---------------------------------------------------------------------------

/// Appends a request payload (opcode + body; no length prefix — framing is
/// [`write_frame`]'s job).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    req.put(out);
}

/// Decodes one request payload, which must be consumed exactly.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    decode_exactly(payload)
}

/// Appends a response payload. Every response has a fixed layout, so this
/// cannot fail today; the `Result` keeps the signature its callers (the
/// ledger among them) match on.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
    resp.put(out);
    Ok(())
}

/// Decodes one response payload, which must be consumed exactly.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    decode_exactly(payload)
}

fn decode_exactly<T: WireField>(payload: &[u8]) -> Result<T, ProtocolError> {
    let mut c = Cursor::new(payload);
    let frame = T::get(&mut c, field!(payload))?;
    c.finish()?;
    Ok(frame)
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
    use crate::metrics::{StatsSnapshot, VersionSessions};
    use crate::protocol::VersionInfo;

    /// Encodes `req`, checks its payload against the pinned length and
    /// `fnv1a`, and decodes it back.
    fn pin_request(req: Request, len: usize, fnv: u64) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let got = (buf.len(), cpt_trace::columnar::fnv1a(&buf));
        assert_eq!(got, (len, fnv), "{req:?}: got ({}, {:#x})", got.0, got.1);
        assert_eq!(decode_request(&buf), Ok(req));
    }

    /// [`pin_request`] for a response.
    fn pin_response(resp: &Response, len: usize, fnv: u64) {
        let mut buf = Vec::new();
        encode_response(resp, &mut buf).expect("encodes");
        let got = (buf.len(), cpt_trace::columnar::fnv1a(&buf));
        assert_eq!(got, (len, fnv), "{resp:?}: got ({}, {:#x})", got.0, got.1);
        assert_eq!(decode_response(&buf).as_ref(), Ok(resp));
    }

    fn compact_json(resp: &Response) -> String {
        cpt_trace::json::ToJson::to_json(resp).to_compact()
    }

    // Every frame is pinned at WIRE_VERSION 0x03 with fields that differ
    // within the frame, so a layout that moves, drops or swaps a field
    // changes its bytes, which a symmetric round trip alone would not see.

    #[test]
    fn fixed_layout_verbs_round_trip() {
        pin_request(
            Request::Open {
                seed: u64::MAX,
                streams: 3,
                device: "connected_car".to_string(),
                max_stream_len: Some(128),
            },
            27,
            0xe0db_e42d_f99e_20c2,
        );
        pin_request(
            Request::Next {
                session: 0x0123_4567_89AB_CDEF,
                max: 64,
                wait_ms: 100,
            },
            11,
            0x7975_dce8_8992_ec51,
        );
        pin_request(Request::Close { session: 11 }, 9, 0x524a_48d7_05b6_26b9);
        pin_request(Request::Detach, 1, 0xaf63_b94c_8601_b113);
        pin_request(
            Request::Reattach {
                token: "00ff00ff00ff00ff00ff00ff00ff00ff".to_string(),
            },
            34,
            0x6edc_7a06_3578_0160,
        );
        pin_request(
            Request::Drain { timeout_ms: 5000 },
            3,
            0xc992_0d18_6399_e5ac,
        );
        pin_request(Request::Stats, 1, 0xaf63_ba4c_8601_b2c6);
        pin_request(
            Request::Publish {
                path: None,
                version: Some(4),
            },
            11,
            0x3efb_6b1b_4c92_fe58,
        );
        pin_request(Request::Rollback, 1, 0xaf63_c44c_8601_c3c4);
        pin_request(Request::Versions, 1, 0xaf63_c64c_8601_c72a);
        pin_request(Request::Shutdown, 1, 0xaf63_c14c_8601_beab);

        pin_response(&Response::Opened { session: 5 }, 9, 0xaad4_868b_bca2_5ec9);
        pin_response(
            &Response::Events {
                session: 6,
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
            },
            52,
            0x7ef8_2cb2_6d86_8f0f,
        );
        pin_response(&Response::Closed { session: 7 }, 9, 0x8b89_db7d_2774_07b5);
        pin_response(
            &Response::Detached {
                token: "deadbeef".to_string(),
            },
            10,
            0xbb04_84cb_5156_b031,
        );
        pin_response(
            &Response::Reattached {
                sessions: vec![3, 4, 9],
            },
            26,
            0xbb40_680a_4b5f_9d97,
        );
        pin_response(
            &Response::Drained {
                completed: 10,
                force_failed: 1,
            },
            17,
            0x22fe_778b_e6f4_8892,
        );
        let published = Response::Published {
            version: 3,
            previous: Some(2),
        };
        pin_response(&published, 18, 0x6048_1295_4d51_416d);
        assert_eq!(
            compact_json(&published),
            r#"{"type":"published","version":3,"previous":2}"#
        );
        let rolled_back = Response::RolledBack {
            demoted: 8,
            live: 12,
        };
        pin_response(&rolled_back, 17, 0xe5ae_7ed5_4d6d_96c0);
        assert_eq!(
            compact_json(&rolled_back),
            r#"{"type":"rolled_back","demoted":8,"live":12}"#
        );
        pin_response(&Response::Bye, 1, 0xaf64_414c_8602_982b);
        pin_response(
            &Response::Error {
                kind: ErrorKind::Internal,
                message: "shed".to_string(),
            },
            7,
            0xf133_aa51_0212_e05c,
        );
    }

    #[test]
    fn cold_responses_round_trip() {
        // 38 fields that all differ, so a layout that moves, drops or
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
                shards: 35,
                shard_sessions_max: 36,
                shard_sessions_min: 37,
                shard_runnable_max: 38,
                shard_runnable_min: 39,
            }),
        };
        // The layout is the field list's declaration order.
        pin_response(&stats, 324, 0x02fb_a7b2_9062_5130);
        // The JSON `ctl -o` writes (pretty there, compact here): same keys,
        // same order.
        assert_eq!(
            compact_json(&stats),
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
                r#""divergence_trips":34,"shards":35,"shard_sessions_max":36,"#,
                r#""shard_sessions_min":37,"shard_runnable_max":38,"shard_runnable_min":39}}"#,
            )
        );
        pin_response(
            &Response::Versions {
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
            },
            63,
            0x7ddd_9bb1_31d5_0b0c,
        );
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
        let mut buf = vec![0x85]; // reattached
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
        // The retired fine-tune frames' opcodes are unassigned.
        assert_eq!(
            decode_request(&[0x0A]),
            Err(ProtocolError::UnknownOpcode(0x0A))
        );
        assert_eq!(
            decode_response(&[0x8A]),
            Err(ProtocolError::UnknownOpcode(0x8A))
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
        // Each out-of-range byte is named by the field it came from.
        let zero = [0u8; 8];
        let cases: [(Vec<u8>, &str, u8); 9] = [
            ([&[0x8D, 11][..], &[0]].concat(), "error kind", 11),
            (
                [&[0x8B, 0, 1][..], &zero, &[9]].concat(),
                "version state",
                9,
            ),
            ([&[0x82][..], &zero, &[2]].concat(), "finished", 2),
            ([&[0x82][..], &zero, &[1, 1, 7]].concat(), "event tag", 7),
            (vec![0x8B, 2], "live presence", 2),
            ([&[0x88][..], &zero, &[6]].concat(), "previous presence", 6),
            (
                [&[0x01][..], &zero, &[0, 0, 3]].concat(),
                "max_stream_len presence",
                3,
            ),
            (vec![0x08, 5], "path presence", 5),
            (vec![0x08, 0, 4], "version presence", 4),
        ];
        for (payload, field, value) in cases {
            let got = if payload[0] & 0x80 == 0 {
                decode_request(&payload).map(|_| ())
            } else {
                decode_response(&payload).map(|_| ())
            };
            assert_eq!(got, Err(ProtocolError::BadTag { field, value }));
        }
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
        for got in [
            [MAGIC, 0x01],
            [MAGIC, 0x02],
            [b'{', b'"'],
            [0, WIRE_VERSION],
        ] {
            assert_eq!(check_preamble(got), Err(ProtocolError::BadPreamble { got }));
        }
    }
}
