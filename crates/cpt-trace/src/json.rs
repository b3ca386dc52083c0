//! The workspace's one JSON codec: a value tree, a compact and a pretty
//! writer, and a strict parser.
//!
//! Every text file the workspace reads or writes goes through here: JSONL
//! traces ([`crate::io`]), the metadata section of `.cmb` model files
//! ([`crate::cmb`]), the model registry's and the experiment suite's
//! `manifest.json`, and the `cptgen ctl -o` / `loadgen -o` reports.
//!
//! - **Integers are exact.** A literal without fraction or exponent parses
//!   as [`Value::U64`] (or [`Value::I64`] when negative), so seeds,
//!   checksums and ids above 2^53 round-trip bit for bit.
//! - **Floats are exact, in the layout JSONL traces have always had.**
//!   [`write_f64`] prints the shortest digits that read back to the same
//!   `f64` (Rust's own shortest round-trip digits), placed the way the
//!   `ryu` crate places them: `3.0`, `1000000000000000.0`, `1e16`,
//!   `0.00001`, `1e-6`. (Rust's `{:?}` differs only in `[1e-5, 1e-4)`,
//!   which it writes as `1e-5`.)
//!   Parsing uses `str::parse::<f64>`, which is correctly rounded. JSON has
//!   no NaN or infinity: a non-finite float is written as `null`.
//! - **The parser is strict.** It accepts RFC 8259 and nothing more (no
//!   trailing commas, no leading zeros, no bare words), bounds nesting,
//!   and reports the byte offset of the first error.
//!
//! Typed values cross the tree through [`ToJson`] and [`FromJson`], which
//! each type implements by hand: there is no derive.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// One JSON value. Objects keep their keys in insertion order, so a
/// written file is a pure function of the value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal.
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in key order as written or parsed.
    Obj(Vec<(String, Value)>),
}

/// A parse or schema error: what went wrong, with the byte offset for
/// syntax errors and the field path for schema errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    /// An error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }

    /// This error, as found under the field `key`.
    pub fn in_field(self, key: &str) -> Self {
        JsonError(format!("{key}: {}", self.0))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value under `key` of an object (`None` for a missing key or a
    /// non-object).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The integer, if this is a non-negative integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            _ => None,
        }
    }

    /// The number as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Decodes the required field `key` of an object.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        if self.as_obj().is_none() {
            return Err(JsonError::new(format!(
                "expected an object with field {key:?}"
            )));
        }
        let v = self
            .get(key)
            .ok_or_else(|| JsonError::new(format!("missing field {key:?}")))?;
        T::from_json(v).map_err(|e| e.in_field(key))
    }

    /// Decodes the field `key` of an object, or `default` when it is
    /// absent (a field a later version added).
    pub fn field_or<T: FromJson>(&self, key: &str, default: T) -> Result<T, JsonError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => T::from_json(v).map_err(|e| e.in_field(key)),
        }
    }

    /// Compact single-line encoding (no whitespace at all).
    pub fn to_compact(&self) -> String {
        let mut s = String::new();
        self.write_indented(&mut s, None, 0);
        s
    }

    /// Two-space-indented encoding, `"key": value`, empty containers as
    /// `[]` / `{}`, no trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write_indented(&mut s, Some(2), 0);
        s
    }

    fn write_indented(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Value::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Value::F64(x) => write_f64(out, *x),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write_indented(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write_indented(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `x` in the `ryu` layout: the shortest round-trip digits,
/// in plain notation when the decimal point falls within 16 digits left
/// of it or 5 right of it, otherwise as `d.ddde±x`; integral values keep a
/// `.0`. Non-finite values are written as `null`.
pub fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    if x == 0.0 {
        out.push_str("0.0");
        return;
    }
    // `{:e}` prints the shortest digits that read back to `x`, as
    // `d.ddde±x`: strip the point to get the digit string and the exponent.
    // Both live on the stack: this runs once per event of a JSONL trace.
    let mut sci = AsciiBuf::default();
    let _ = write!(sci, "{:e}", x.abs());
    let (mantissa, exp) = sci.as_str().split_once('e').unwrap_or((sci.as_str(), "0"));
    let exp: i32 = exp.parse().unwrap_or(0);
    let mut digits = AsciiBuf::default();
    for part in mantissa.split('.') {
        let _ = digits.write_str(part);
    }
    let digits = digits.as_str();
    let len = digits.len() as i32;
    // x = 0.DIGITS × 10^point.
    let point = exp + 1;
    if (len..=16).contains(&point) {
        out.push_str(digits);
        out.extend(std::iter::repeat_n('0', (point - len) as usize));
        out.push_str(".0");
    } else if (1..=16).contains(&point) {
        out.push_str(&digits[..point as usize]);
        out.push('.');
        out.push_str(&digits[point as usize..]);
    } else if (-4..=0).contains(&point) {
        out.push_str("0.");
        out.extend(std::iter::repeat_n('0', (-point) as usize));
        out.push_str(digits);
    } else {
        out.push_str(&digits[..1]);
        if len > 1 {
            out.push('.');
            out.push_str(&digits[1..]);
        }
        let _ = write!(out, "e{}", point - 1);
    }
}

/// A fixed buffer for [`write_f64`]'s scratch text: `{:e}` of an `f64` is
/// at most 24 bytes (17 digits, the point, `e-308`).
#[derive(Default)]
struct AsciiBuf {
    bytes: [u8; 32],
    len: usize,
}

impl AsciiBuf {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).unwrap_or("")
    }
}

impl fmt::Write for AsciiBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.bytes
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// Appends `s` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document; whitespace may surround it, nothing else.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

/// Nesting deeper than this is rejected, so a hostile file cannot exhaust
/// the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, JsonError> {
        Err(JsonError(format!("{what} at byte {}", self.pos)))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &[u8]) -> bool {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') if self.eat(b"null") => Ok(Value::Null),
            Some(b't') if self.eat(b"true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat(b"false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b"]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b",") {
                        continue;
                    }
                    if self.eat(b"]") {
                        return Ok(Value::Arr(items));
                    }
                    return self.err("expected ',' or ']'");
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat(b"}") {
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return self.err("expected an object key");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b":") {
                        return self.err("expected ':'");
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(b",") {
                        continue;
                    }
                    if self.eat(b"}") {
                        return Ok(Value::Obj(fields));
                    }
                    return self.err("expected ',' or '}'");
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, checked before
    /// the text is handed to the standard library's parsers.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - from
        };
        let negative = self.eat(b"-");
        let int_start = self.pos;
        match digits(self) {
            0 => return self.err("expected a digit"),
            n if n > 1 && self.bytes[int_start] == b'0' => return self.err("leading zero"),
            _ => {}
        }
        let mut integral = true;
        if self.eat(b".") {
            integral = false;
            if digits(self) == 0 {
                return self.err("expected a digit after '.'");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return self.err("expected an exponent digit");
            }
        }
        // The slice is ASCII by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if integral {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(if n == 0 {
                        Value::F64(-0.0)
                    } else {
                        Value::I64(n)
                    });
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => self.err("number out of range"),
        }
    }

    /// The string literal at the cursor, borrowed from the text when it
    /// has no escape.
    fn str_cow(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let start = self.pos + 1;
        let mut end = start;
        while !matches!(self.bytes.get(end), None | Some(b'"' | b'\\' | 0..=0x1f)) {
            end += 1;
        }
        if self.bytes.get(end) == Some(&b'"') {
            if let Ok(s) = std::str::from_utf8(&self.bytes[start..end]) {
                self.pos = end + 1;
                return Ok(Cow::Borrowed(s));
            }
        }
        self.string().map(Cow::Owned)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            match std::str::from_utf8(&self.bytes[start..self.pos]) {
                Ok(s) => out.push_str(s),
                Err(_) => return self.err("invalid UTF-8 in string"),
            }
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let c = self.unicode_escape()?;
                            out.push(c);
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                Some(_) => return self.err("control character in string"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok());
        match code {
            Some(c) => {
                self.pos += 4;
                Ok(c)
            }
            None => self.err("bad \\u escape"),
        }
    }

    /// The character of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&hi) {
            if !self.eat(b"\\u") {
                return self.err("unpaired surrogate");
            }
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return self.err("unpaired surrogate");
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => self.err("unpaired surrogate"),
        }
    }
}

/// A pull reader over one JSON document, for a hot typed decoder (a JSONL
/// trace's stream lines) that reads fields straight from the text instead
/// of building a [`Value`] tree. It accepts exactly what [`parse`] does.
///
/// ```
/// # use cpt_trace::json::{Cursor, JsonError};
/// # fn main() -> Result<(), JsonError> {
/// let mut c = Cursor::new(r#"{"n": 3, "xs": [1.5], "other": null}"#);
/// let (mut n, mut xs) = (0, Vec::new());
/// c.begin_object()?;
/// while let Some(key) = c.next_key()? {
///     match &*key {
///         "n" => n = c.u64()?,
///         "xs" => {
///             c.begin_array()?;
///             while c.next_item()? {
///                 xs.push(c.f64()?);
///             }
///         }
///         _ => c.skip()?,
///     }
/// }
/// c.end()?;
/// assert_eq!((n, xs), (3, vec![1.5]));
/// # Ok(())
/// # }
/// ```
pub struct Cursor<'a> {
    p: Parser<'a>,
    /// Just past a `{` or `[`: the first member takes no `,`.
    fresh: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor {
            p: Parser {
                bytes: text.as_bytes(),
                pos: 0,
            },
            fresh: false,
        }
    }

    fn open(&mut self, bracket: u8, what: &str) -> Result<(), JsonError> {
        self.p.skip_ws();
        if !self.p.eat(&[bracket]) {
            return self.p.err(what);
        }
        self.fresh = true;
        Ok(())
    }

    /// Whether the container being read has another member: consumes the
    /// `,` before it, or `close` after the last one.
    fn more(&mut self, close: u8, what: &str) -> Result<bool, JsonError> {
        self.p.skip_ws();
        let fresh = std::mem::replace(&mut self.fresh, false);
        if self.p.eat(&[close]) {
            return Ok(false);
        }
        if fresh || self.p.eat(b",") {
            return Ok(true);
        }
        self.p.err(what)
    }

    /// Enters an object.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{', "expected an object")
    }

    /// The next key of the object being read, its `:` consumed; `None`
    /// once its `}` is.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.more(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.p.skip_ws();
        if self.p.peek() != Some(b'"') {
            return self.p.err("expected an object key");
        }
        let key = self.p.str_cow()?;
        self.p.skip_ws();
        if !self.p.eat(b":") {
            return self.p.err("expected ':'");
        }
        Ok(Some(key))
    }

    /// Enters an array.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[', "expected an array")
    }

    /// Whether the array being read has another item; `false` once its
    /// `]` is consumed.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.more(b']', "expected ',' or ']'")
    }

    /// A string, borrowed from the text when it has no escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.p.skip_ws();
        if self.p.peek() != Some(b'"') {
            return self.p.err("expected a string");
        }
        self.p.str_cow()
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        self.p.skip_ws();
        match self.p.peek() {
            Some(b'-' | b'0'..=b'9') => self.p.number(),
            _ => self.p.err("expected a number"),
        }
    }

    /// A non-negative integer literal.
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        match self.number()? {
            Value::U64(n) => Ok(n),
            _ => self.p.err("expected a non-negative integer"),
        }
    }

    /// A number, as an `f64` (integers convert).
    pub fn f64(&mut self) -> Result<f64, JsonError> {
        let v = self.number()?;
        Ok(v.as_f64().unwrap_or_default())
    }

    /// Reads past any one value.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        self.p.value(0).map(drop)
    }

    /// Checks that only whitespace is left.
    pub fn end(mut self) -> Result<(), JsonError> {
        self.p.skip_ws();
        if self.p.pos != self.p.bytes.len() {
            return self.p.err("trailing characters");
        }
        Ok(())
    }
}

/// Encoding of a typed value as a [`Value`].
pub trait ToJson {
    /// The value's JSON form.
    fn to_json(&self) -> Value;
}

/// Decoding of a typed value from a [`Value`].
pub trait FromJson: Sized {
    /// Decodes `v`, or says why it does not fit.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

fn mismatch<T>(want: &str, got: &Value) -> Result<T, JsonError> {
    let kind = match got {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::U64(_) | Value::I64(_) | Value::F64(_) => "a number",
        Value::Str(_) => "a string",
        Value::Arr(_) => "an array",
        Value::Obj(_) => "an object",
    };
    Err(JsonError(format!("expected {want}, found {kind}")))
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                match v.as_u64().map(<$t>::try_from) {
                    Some(Ok(n)) => Ok(n),
                    _ => mismatch(concat!("an integer that fits ", stringify!($t)), v),
                }
            }
        }
    )*};
}
unsigned!(u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64().map_or_else(|| mismatch("a number", v), Ok)
    }
}

/// An `f32` is written as the `f64` it widens to, which reads back and
/// narrows to the same bits.
impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        f64::from_json(v).map(|x| x as f32)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool().map_or_else(|| mismatch("a boolean", v), Ok)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::str(self.as_str())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str()
            .map_or_else(|| mismatch("a string", v), |s| Ok(s.to_owned()))
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let items = v.as_arr().map_or_else(|| mismatch("an array", v), Ok)?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.in_field(&format!("[{i}]"))))
            .collect()
    }
}

/// A pair is a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => mismatch("a two-element array", v),
        }
    }
}

/// A triple is a three-element array.
impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => mismatch("a three-element array", v),
        }
    }
}

/// A string-keyed map is an object, in key order.
impl<T: ToJson> ToJson for std::collections::BTreeMap<String, T> {
    fn to_json(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<T: FromJson> FromJson for std::collections::BTreeMap<String, T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let fields = v.as_obj().map_or_else(|| mismatch("an object", v), Ok)?;
        fields
            .iter()
            .map(|(k, item)| Ok((k.clone(), T::from_json(item).map_err(|e| e.in_field(k))?)))
            .collect()
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a fieldless enum as the
/// given variant names (strings), plus an inherent `json_name`.
#[macro_export]
macro_rules! json_unit_enum {
    ($t:ident { $($variant:ident => $name:literal),* $(,)? }) => {
        impl $t {
            /// This variant's JSON string.
            pub fn json_name(&self) -> &'static str {
                match self { $($t::$variant => $name),* }
            }

            /// The variant whose JSON string is `name`.
            pub fn from_json_name(name: &str) -> Result<Self, $crate::json::JsonError> {
                match name {
                    $($name => Ok($t::$variant),)*
                    _ => Err($crate::json::JsonError::new(format!(
                        concat!("expected one of ", $(stringify!($name), " "),* , "for ", stringify!($t), ", found {:?}"),
                        name
                    ))),
                }
            }
        }
        impl $crate::json::ToJson for $t {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::str(self.json_name())
            }
        }
        impl $crate::json::FromJson for $t {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    Some(name) => $t::from_json_name(name),
                    None => Err($crate::json::JsonError::new(format!(
                        concat!("expected one of ", $(stringify!($name), " "),* , "for ", stringify!($t), ", found {}"),
                        v.to_compact()
                    ))),
                }
            }
        }
    };
}

/// Implements [`ToJson`] and [`FromJson`] for a struct as an object of the
/// listed fields, in the listed order (every field, so both directions
/// see the whole struct). Decoding requires every field.
#[macro_export]
macro_rules! json_struct {
    ($t:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $t {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::obj([
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),*
                ])
            }
        }
        impl $crate::json::FromJson for $t {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                Ok($t { $($field: v.field(stringify!($field))?),* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f64) -> String {
        let mut s = String::new();
        write_f64(&mut s, x);
        s
    }

    #[test]
    fn floats_use_the_ryu_layout_and_round_trip() {
        for (x, text) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (3.0, "3.0"),
            (-2.5, "-2.5"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (1.5e16, "1.5e16"),
            (0.0001, "0.0001"),
            (0.00001, "0.00001"),
            (1.2034e-5, "0.000012034"),
            (1e-6, "1e-6"),
            (1.25e-7, "1.25e-7"),
            (123456789.125, "123456789.125"),
            (0.1, "0.1"),
            (1e300, "1e300"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (5e-324, "5e-324"),
        ] {
            assert_eq!(f(x), text, "{x:e}");
            match parse(text).unwrap() {
                Value::F64(back) => assert_eq!(back.to_bits(), x.to_bits(), "{text}"),
                other => panic!("{text} parsed as {other:?}"),
            }
        }
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn integers_are_exact() {
        let big = u64::MAX - 7;
        assert_eq!(parse(&big.to_string()).unwrap(), Value::U64(big));
        assert_eq!(
            parse("-9007199254740993").unwrap(),
            Value::I64(-9007199254740993)
        );
        assert_eq!(Value::U64(big).to_compact(), big.to_string());
        assert_eq!(u64::from_json(&Value::U64(big)), Ok(big));
        assert!(u32::from_json(&Value::U64(1 << 40)).is_err());
        assert!(
            u64::from_json(&Value::F64(1.0)).is_err(),
            "a float is not an integer"
        );
        assert_eq!(f64::from_json(&Value::U64(3)), Ok(3.0));
        // Past u64 the literal is still a number, as a float.
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Value::F64(18446744073709551616.0)
        );
    }

    #[test]
    fn strings_are_escaped_and_round_trip() {
        let nasty = "quote\" back\\slash\nnewline\ttab\u{1}ctl é \u{1F600}";
        let doc = Value::obj([("k\"ey", Value::str(nasty))]);
        let line = doc.to_compact();
        assert!(line.contains("\\\"") && line.contains("\\\\") && line.contains("\\n"));
        assert!(line.contains("\\u0001"), "{line}");
        assert!(!line.contains('\n'), "compact form stays on one line");
        assert_eq!(parse(&line).unwrap(), doc);
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::str("\u{1F600}"));
    }

    #[test]
    fn pretty_layout() {
        let doc = Value::obj([
            ("a", Value::Arr(vec![Value::U64(1), Value::Null])),
            ("b", Value::obj::<&str>([])),
            ("c", Value::Arr(vec![])),
        ]);
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"a\": [\n    1,\n    null\n  ],\n  \"b\": {},\n  \"c\": []\n}"
        );
        assert_eq!(doc.to_compact(), r#"{"a":[1,null],"b":{},"c":[]}"#);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "\"open",
            "01",
            "1.",
            ".5",
            "1e",
            "-",
            "+1",
            "[1] 2",
            "{\"a\":\"\\q\"}",
            "nul",
            "truex",
            "\"tab\there\"",
            "NaN",
            "1e999",
            "\"\\ud800\"",
            "{a:1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
    }

    /// Reads `[{"k": [n, ...]}, ...]` through a [`Cursor`], summing every
    /// number; any other value is skipped.
    fn cursor_sum(text: &str) -> Result<f64, JsonError> {
        let mut c = Cursor::new(text);
        let mut sum = 0.0;
        c.begin_array()?;
        while c.next_item()? {
            c.begin_object()?;
            while let Some(key) = c.next_key()? {
                if key == "k" {
                    c.begin_array()?;
                    while c.next_item()? {
                        sum += c.f64()?;
                    }
                } else {
                    c.skip()?;
                }
            }
        }
        c.end()?;
        Ok(sum)
    }

    #[test]
    fn cursor_is_as_strict_as_the_parser() {
        let good = r#" [ {"k": [1, 2.5e0]}, {}, {"x": {"k": [9]}, "k": []} ] "#;
        assert_eq!(cursor_sum(good), Ok(3.5));
        assert_eq!(cursor_sum("[]"), Ok(0.0));
        for bad in [
            "",
            "[",
            "[,{}]",
            "[{},]",
            "[{} {}]",
            "[{,\"k\":[]}]",
            "[{\"k\":[],}]",
            "[{\"k\" []}]",
            "[{\"k\":[1,]}]",
            "[{\"k\":[1 2]}]",
            "[{\"k\":[01]}]",
            "[{k:[]}]",
            "[] []",
        ] {
            assert!(cursor_sum(bad).is_err(), "{bad:?} should not read");
            assert!(parse(bad).is_err(), "{bad:?} should not parse either");
        }
        assert!(
            cursor_sum(r#"[{"k":["1"]}]"#).is_err(),
            "a string is not a number"
        );
    }

    #[test]
    fn cursor_borrows_plain_strings_and_unescapes_the_rest() {
        let mut c = Cursor::new(r#"["plain", "tab\there", "\u0041"]"#);
        c.begin_array().unwrap();
        let mut got = Vec::new();
        while c.next_item().unwrap() {
            got.push(c.str().unwrap());
        }
        assert!(matches!(got[0], Cow::Borrowed("plain")));
        assert_eq!(got[1], "tab\there");
        assert_eq!(got[2], "A");
        let mut c = Cursor::new("[-1, 2.0, 7]");
        c.begin_array().unwrap();
        assert!(c.next_item().unwrap() && c.u64().is_err(), "negative");
        assert!(c.next_item().unwrap() && c.u64().is_err(), "fraction");
        assert!(c.next_item().unwrap() && c.u64() == Ok(7));
    }

    #[test]
    fn typed_fields_decode_and_name_their_path() {
        let v = parse(r#"{"n": 3, "xs": [1.5, "no"], "pair": [1, 2.5], "opt": null}"#).unwrap();
        assert_eq!(v.field::<u32>("n"), Ok(3));
        assert_eq!(v.field::<(u64, f64)>("pair"), Ok((1, 2.5)));
        assert_eq!(v.field::<Option<u64>>("opt"), Ok(None));
        assert_eq!(v.field_or::<u64>("absent", 7), Ok(7));
        let err = v.field::<Vec<f64>>("xs").unwrap_err().to_string();
        assert!(err.starts_with("xs: [1]: expected a number"), "{err}");
        assert!(v
            .field::<u64>("absent")
            .unwrap_err()
            .to_string()
            .contains("missing"));
    }
}
