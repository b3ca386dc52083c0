//! Dataset (de)serialization.
//!
//! Datasets are stored as JSON lines: a header line with the generation,
//! then one JSON object per stream. The format is line-oriented so that
//! multi-gigabyte traces can be streamed without building the whole dataset
//! in memory, and diff-able so that fixture files stay reviewable.
//!
//! ```text
//! {"format":"cpt-trace","version":1,"generation":"Lte","num_streams":2}
//! {"ue_id":1,"device_type":"Phone","events":[{"event_type":"Attach","timestamp":0.0},…]}
//! ```
//!
//! Every line goes through [`crate::json`], whose float layout makes a
//! read-then-write of a file byte-identical. The reader checks what the
//! types promise: every timestamp finite, non-negative and no earlier than
//! the one before it in its stream.

use crate::atomic::AtomicFile;
use crate::columnar::CtbError;
use crate::json::{self, JsonError, ToJson, Value};
use crate::{Dataset, DeviceType, Event, EventType, Generation, Stream, UeId};
use std::io::{self, BufRead, Write};
use std::path::Path;

const FORMAT: &str = "cpt-trace";
const VERSION: u32 = 1;

/// Errors arising while reading or writing dataset files.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A line of the file does not parse, does not fit the schema, or
    /// breaks a stream's time order. Carries the 1-based line number (the
    /// header is line 1) and a snippet of the offending line, so a
    /// multi-gigabyte trace with one bad record is debuggable from the
    /// error message alone.
    Parse {
        /// 1-based line number within the file.
        line: usize,
        /// First ~60 characters of the offending line.
        snippet: String,
        /// What is wrong with the line.
        source: JsonError,
    },
    /// The file is not a cpt-trace file or has an unsupported version.
    BadHeader(String),
    /// The `.ctb` side of [`crate::any`]'s format-agnostic reader and
    /// writer failed.
    Ctb(CtbError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse {
                line,
                snippet,
                source,
            } => write!(
                f,
                "parse error at line {line}: {source}; offending line starts: {snippet:?}"
            ),
            IoError::BadHeader(msg) => write!(f, "bad dataset header: {msg}"),
            IoError::Ctb(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { source, .. } => Some(source),
            IoError::BadHeader(_) => None,
            IoError::Ctb(e) => e.source(),
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<CtbError> for IoError {
    fn from(e: CtbError) -> Self {
        IoError::Ctb(e)
    }
}

/// Writes the header line every dataset file starts with.
fn write_header(
    w: &mut impl Write,
    generation: Generation,
    num_streams: usize,
) -> Result<(), IoError> {
    let mut line = Value::obj([
        ("format", Value::str(FORMAT)),
        ("version", VERSION.to_json()),
        ("generation", generation.to_json()),
        ("num_streams", num_streams.to_json()),
    ])
    .to_compact();
    line.push('\n');
    Ok(w.write_all(line.as_bytes())?)
}

/// Appends one stream's line, newline included, to `out`: the bytes
/// [`Value::to_compact`] would give, written field by field. Building a
/// [`Value`] per stream instead made a `.ctb` → JSONL conversion of a
/// 1.17M-event trace ×1.8 slower.
pub fn write_stream_line(out: &mut String, stream: &Stream) {
    use std::fmt::Write as _;
    let _ = write!(out, "{{\"ue_id\":{},\"device_type\":", stream.ue_id.0);
    json::write_str(out, stream.device_type.json_name());
    out.push_str(",\"events\":[");
    for (i, e) in stream.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"event_type\":");
        json::write_str(out, e.event_type.json_name());
        out.push_str(",\"timestamp\":");
        json::write_f64(out, e.timestamp);
        out.push('}');
    }
    out.push_str("]}\n");
}

/// Decodes one stream line straight from its text through a
/// [`json::Cursor`], the mirror of [`write_stream_line`]: no [`Value`]
/// tree, nothing allocated per event but the event itself. Unknown keys
/// are skipped, a repeated or missing one is an error, and the time order
/// [`Event::timestamp`] documents is enforced (a JSON number is always
/// finite).
fn parse_stream_line(line: &str) -> Result<Stream, JsonError> {
    let mut c = json::Cursor::new(line);
    let (mut ue_id, mut device_type, mut events) = (None, None, None);
    c.begin_object()?;
    while let Some(key) = c.next_key()? {
        match &*key {
            "ue_id" => once(&mut ue_id, "ue_id", c.u64().map(UeId))?,
            "device_type" => once(
                &mut device_type,
                "device_type",
                c.str().and_then(|s| DeviceType::from_json_name(&s)),
            )?,
            "events" => once(&mut events, "events", parse_events(&mut c))?,
            _ => c.skip()?,
        }
    }
    c.end()?;
    Ok(Stream::new(
        required(ue_id, "ue_id")?,
        required(device_type, "device_type")?,
        required(events, "events")?,
    ))
}

/// The `events` array of a stream line; an error names the event's index.
fn parse_events(c: &mut json::Cursor<'_>) -> Result<Vec<Event>, JsonError> {
    let mut events = Vec::new();
    let mut prev = 0.0f64;
    c.begin_array()?;
    while c.next_item()? {
        let i = events.len();
        let in_event = |e: JsonError| e.in_field(&format!("[{i}]"));
        let (mut event_type, mut timestamp) = (None, None);
        c.begin_object().map_err(in_event)?;
        while let Some(key) = c.next_key().map_err(in_event)? {
            match &*key {
                "event_type" => once(
                    &mut event_type,
                    "event_type",
                    c.str().and_then(|s| EventType::from_json_name(&s)),
                ),
                "timestamp" => once(&mut timestamp, "timestamp", c.f64()),
                _ => c.skip(),
            }
            .map_err(in_event)?;
        }
        let event_type = required(event_type, "event_type").map_err(in_event)?;
        let timestamp = required(timestamp, "timestamp").map_err(in_event)?;
        if timestamp < 0.0 {
            return Err(in_event(JsonError::new(format!(
                "timestamp {timestamp} is negative"
            ))));
        }
        if timestamp < prev {
            return Err(in_event(JsonError::new(format!(
                "timestamp {timestamp} is earlier than the previous event's {prev}"
            ))));
        }
        prev = timestamp;
        events.push(Event::new(event_type, timestamp));
    }
    Ok(events)
}

/// Stores the decoded field `key` in its empty `slot`.
fn once<T>(slot: &mut Option<T>, key: &str, value: Result<T, JsonError>) -> Result<(), JsonError> {
    if slot.is_some() {
        return Err(JsonError::new(format!("duplicate field {key:?}")));
    }
    *slot = Some(value.map_err(|e| e.in_field(key))?);
    Ok(())
}

/// The required field `key`'s value.
fn required<T>(slot: Option<T>, key: &str) -> Result<T, JsonError> {
    slot.ok_or_else(|| JsonError::new(format!("missing field {key:?}")))
}

/// Truncates `line` to a short prefix fit for an error message.
fn snippet_of(line: &str) -> String {
    const MAX: usize = 60;
    if line.len() <= MAX {
        return line.to_owned();
    }
    let mut end = MAX;
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}...", &line[..end])
}

/// The one JSONL reader: parses and validates the header eagerly, then
/// yields one [`Stream`] at a time, so a multi-gigabyte trace can be
/// converted or folded without ever materializing a [`Dataset`]. Reading
/// is strict: the first line that does not parse is an [`IoError::Parse`],
/// and the header's stream-count promise is enforced when the file ends.
pub struct StreamReader<R: BufRead> {
    lines: std::iter::Enumerate<io::Lines<R>>,
    generation: Generation,
    promised: usize,
    delivered: usize,
}

impl<R: BufRead> StreamReader<R> {
    /// Opens a reader over JSONL content, validating the header line.
    pub fn new(r: R) -> Result<Self, IoError> {
        let mut lines = r.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| IoError::BadHeader("empty file".into()))??;
        let parse_error = |source| IoError::Parse {
            line: 1,
            snippet: snippet_of(&header_line),
            source,
        };
        let header = json::parse(&header_line).map_err(parse_error)?;
        let format: String = header.field("format").map_err(parse_error)?;
        let version: u32 = header.field("version").map_err(parse_error)?;
        let generation = header.field("generation").map_err(parse_error)?;
        let promised = header.field("num_streams").map_err(parse_error)?;
        if format != FORMAT {
            return Err(IoError::BadHeader(format!(
                "expected format {FORMAT:?}, found {format:?}"
            )));
        }
        if version != VERSION {
            return Err(IoError::BadHeader(format!(
                "unsupported version {version} (this build reads {VERSION})"
            )));
        }
        Ok(StreamReader {
            lines: lines.enumerate(),
            generation,
            promised,
            delivered: 0,
        })
    }

    /// The generation declared by the header.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The stream count the header promises.
    pub fn promised_streams(&self) -> usize {
        self.promised
    }

    /// Reads every remaining stream: the in-RAM load of the file.
    pub fn into_dataset(mut self) -> Result<Dataset, IoError> {
        let mut streams = Vec::with_capacity(self.promised);
        while let Some(stream) = self.next_stream()? {
            streams.push(stream);
        }
        Ok(Dataset::with_generation(self.generation, streams))
    }

    /// The next stream, `Ok(None)` at the end of the file, where the
    /// delivered count must equal the header's promise.
    pub fn next_stream(&mut self) -> Result<Option<Stream>, IoError> {
        for (i, line) in self.lines.by_ref() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let stream = parse_stream_line(&line).map_err(|source| IoError::Parse {
                line: i + 2, // header consumed line 1
                snippet: snippet_of(&line),
                source,
            })?;
            self.delivered += 1;
            return Ok(Some(stream));
        }
        if self.delivered != self.promised {
            return Err(IoError::BadHeader(format!(
                "header promised {} streams, file contains {}",
                self.promised, self.delivered
            )));
        }
        Ok(None)
    }
}

/// Incremental crash-safe writer: the mirror of [`StreamReader`]. Streams
/// go to a sibling `.tmp` file one at a time; [`StreamWriter::finish`]
/// enforces the promised count and commits atomically (see
/// `crate::atomic`). Dropping an unfinished writer removes the temp file,
/// so a crashed conversion can never publish a torn trace.
pub struct StreamWriter {
    file: AtomicFile,
    promised: usize,
    written: usize,
    line: String,
}

impl StreamWriter {
    /// Creates the temp file and writes the header promising `num_streams`.
    pub fn create(
        path: impl AsRef<Path>,
        generation: Generation,
        num_streams: usize,
    ) -> Result<Self, IoError> {
        let mut file = AtomicFile::create(path.as_ref())?;
        write_header(file.writer(), generation, num_streams)?;
        Ok(StreamWriter {
            file,
            promised: num_streams,
            written: 0,
            line: String::new(),
        })
    }

    /// Appends one stream record.
    pub fn push(&mut self, stream: &Stream) -> Result<(), IoError> {
        self.line.clear();
        write_stream_line(&mut self.line, stream);
        self.file.writer().write_all(self.line.as_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Validates the promised count, fsyncs, and publishes atomically.
    pub fn finish(mut self) -> Result<(), IoError> {
        if self.written != self.promised {
            return Err(IoError::BadHeader(format!(
                "header promised {} streams, writer received {}",
                self.promised, self.written
            )));
        }
        Ok(self.file.commit()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_trace, AnyTrace, DeviceType, Event, EventType, UeId};
    use std::io::Cursor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn toy() -> Dataset {
        Dataset::new(vec![
            Stream::new(
                UeId(1),
                DeviceType::Phone,
                vec![
                    Event::new(EventType::Attach, 0.0),
                    Event::new(EventType::ConnectionRelease, 12.25),
                ],
            ),
            Stream::new(UeId(2), DeviceType::ConnectedCar, vec![]),
        ])
    }

    /// The bytes a [`StreamWriter`] writes for `d`, through a temp file of
    /// this call's own.
    fn jsonl_bytes(d: &Dataset) -> Vec<u8> {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("cpt-io-bytes-{}-{call}.jsonl", std::process::id()));
        write_trace(d, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    /// Reads JSONL content whole through a [`StreamReader`].
    fn read(bytes: impl AsRef<[u8]>) -> Result<Dataset, IoError> {
        StreamReader::new(Cursor::new(bytes))?.into_dataset()
    }

    /// Reads a JSONL file whole.
    fn read_file(path: &Path) -> Result<Dataset, IoError> {
        AnyTrace::open(path)?.into_dataset()
    }

    #[test]
    fn roundtrip_in_memory() {
        let d = toy();
        assert_eq!(read(jsonl_bytes(&d)).unwrap(), d);
    }

    #[test]
    fn roundtrip_on_disk() {
        let d = toy();
        let dir = std::env::temp_dir().join(format!("cpt-trace-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.jsonl");
        write_trace(&d, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(d, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_empty_file() {
        assert!(matches!(read(""), Err(IoError::BadHeader(_))));
    }

    #[test]
    fn rejects_wrong_format() {
        let bad = r#"{"format":"pcap","version":1,"generation":"Lte","num_streams":0}"#;
        assert!(matches!(read(bad), Err(IoError::BadHeader(_))));
    }

    #[test]
    fn rejects_stream_count_mismatch() {
        // Drop the last line (one stream) while the header still says 2.
        let truncated: String = toy_text().lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(matches!(read(truncated), Err(IoError::BadHeader(_))));
    }

    fn toy_text() -> String {
        String::from_utf8(jsonl_bytes(&toy())).unwrap()
    }

    #[test]
    fn parse_error_reports_line_number_and_snippet() {
        // Corrupt the first stream record (line 2; line 1 is the header).
        let corrupted: String = toy_text()
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 1 {
                    format!("{}<<garbage", &l[..l.len() / 2])
                } else {
                    l.to_owned()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        match read(corrupted) {
            Err(IoError::Parse { line, snippet, .. }) => {
                assert_eq!(line, 2);
                assert!(!snippet.is_empty());
                assert!(snippet.len() <= 64, "snippet too long: {snippet:?}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_header_reports_line_one() {
        let bad = "{\"format\": <oops\n";
        match read(bad) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Parse error at line 1, got {other:?}"),
        }
    }

    #[test]
    fn write_is_atomic_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("cpt-trace-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        std::fs::write(&path, b"stale content").unwrap();
        write_trace(&toy(), &path).unwrap();
        assert_eq!(read_file(&path).unwrap(), toy());
        assert!(
            !dir.join("out.jsonl.tmp").exists(),
            "temp file must be renamed away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_preserves_existing_file() {
        let dir = std::env::temp_dir().join(format!("cpt-trace-crashw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        write_trace(&toy(), &path).unwrap();
        // Wedge the temp path with a directory so the next write fails
        // before it can touch the destination.
        std::fs::create_dir(dir.join("out.jsonl.tmp")).unwrap();
        let bigger = Dataset::new(vec![toy().streams[0].clone(); 5]);
        assert!(matches!(write_trace(&bigger, &path), Err(IoError::Io(_))));
        // The previously committed file is intact.
        assert_eq!(read_file(&path).unwrap(), toy());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn first_bad_line_is_the_error_whatever_follows() {
        // Header + one good stream + a corrupt JSON line + a line that
        // fails to *read* (invalid UTF-8). Reading stops at the corrupt
        // line (line 3) with a Parse error and never reads the bytes after
        // it; a cut-short final line is the same error.
        let mut bytes = Vec::new();
        for l in toy_text().lines().take(2) {
            bytes.extend_from_slice(l.as_bytes());
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(b"{broken\n");
        let text = toy_text();
        let cut_short = text.as_bytes()[..text.trim_end().len() - 10].to_vec();
        for input in [[bytes, vec![0xff, 0xfe, b'\n']].concat(), cut_short] {
            match read(input) {
                Err(IoError::Parse { line, .. }) => assert_eq!(line, 3),
                other => panic!("expected Parse error at line 3, got {other:?}"),
            }
        }
    }

    #[test]
    fn stream_writer_output_reads_back_stream_by_stream() {
        let d = toy();
        let mut path = std::env::temp_dir();
        path.push(format!("cpt-io-streamwriter-{}.jsonl", std::process::id()));
        let mut w = StreamWriter::create(&path, d.generation, d.streams.len()).unwrap();
        for s in &d.streams {
            w.push(s).unwrap();
        }
        w.finish().unwrap();
        let streamed = std::fs::read(&path).unwrap();

        let mut r = StreamReader::new(Cursor::new(streamed)).unwrap();
        assert_eq!(r.generation(), d.generation);
        assert_eq!(r.promised_streams(), d.streams.len());
        let mut streams = Vec::new();
        while let Some(s) = r.next_stream().unwrap() {
            streams.push(s);
        }
        assert_eq!(streams, d.streams);
        std::fs::remove_file(&path).ok();
    }

    /// Every branch of the float layout (plain with `.0`, plain with a
    /// fraction, `0.0000d`, exponent with one digit and with several), a
    /// `ue_id` past 2^53 and `u64::MAX`, an empty stream: read and written
    /// back, the bytes are the file's.
    #[test]
    fn golden_file_reads_and_writes_back_byte_identically() {
        let golden = include_str!("../tests/data/golden.jsonl");
        let d = read(golden).unwrap();
        assert_eq!(d.streams[0].ue_id, UeId((1 << 53) + 1));
        assert_eq!(d.streams[1].ue_id, UeId(u64::MAX));
        let ts: Vec<f64> = d.streams[0].events.iter().map(|e| e.timestamp).collect();
        let expected = [
            0.0,
            1.25e-7,
            1e-6,
            0.00001,
            3.0,
            123456789.125,
            1e15,
            1e16,
            1.5e16,
        ];
        assert_eq!(ts, expected);
        assert_eq!(String::from_utf8(jsonl_bytes(&d)).unwrap(), golden);
    }

    fn one_stream_line(events: &str) -> Vec<u8> {
        format!(
            "{{\"format\":\"cpt-trace\",\"version\":1,\"generation\":\"Lte\",\"num_streams\":2}}\n\
             {{\"ue_id\":1,\"device_type\":\"Phone\",\"events\":[]}}\n\
             {{\"ue_id\":2,\"device_type\":\"Phone\",\"events\":[{events}]}}\n"
        )
        .into_bytes()
    }

    #[test]
    fn a_decreasing_timestamp_is_a_parse_error_on_its_line() {
        let bad = one_stream_line(
            r#"{"event_type":"Attach","timestamp":5.0},{"event_type":"Detach","timestamp":4.5}"#,
        );
        match read(bad) {
            Err(IoError::Parse { line, source, .. }) => {
                assert_eq!(line, 3);
                assert!(source.to_string().contains("events: [1]: "), "{source}");
            }
            other => panic!("expected Parse error at line 3, got {other:?}"),
        }
        let equal = one_stream_line(
            r#"{"event_type":"Attach","timestamp":5.0},{"event_type":"Detach","timestamp":5.0}"#,
        );
        assert!(read(equal).is_ok(), "ties are in order");
    }

    #[test]
    fn a_negative_timestamp_is_a_parse_error_on_its_line() {
        let bad = one_stream_line(r#"{"event_type":"Attach","timestamp":-1e-9}"#);
        match read(bad) {
            Err(IoError::Parse { line, source, .. }) => {
                assert_eq!(line, 3);
                assert!(source.to_string().contains("negative"), "{source}");
            }
            other => panic!("expected Parse error at line 3, got {other:?}"),
        }
    }

    #[test]
    fn stream_lines_skip_unknown_keys_and_reject_missing_or_repeated_ones() {
        // Key order, escapes and unknown keys do not matter.
        let ok = one_stream_line(
            r#"{"note":[1,{"a":null}],"timestamp":2.0,"event_type":"\u0041ttach"}"#,
        );
        let d = read(ok).unwrap();
        assert_eq!(
            d.streams[1].events,
            vec![Event::new(EventType::Attach, 2.0)]
        );
        for (events, why) in [
            (
                r#"{"event_type":"Attach"}"#,
                "events: [0]: missing field \"timestamp\"",
            ),
            (
                r#"{"event_type":"Attach","timestamp":1.0,"timestamp":2.0}"#,
                "events: [0]: duplicate field \"timestamp\"",
            ),
            (
                r#"{"event_type":"Reboot","timestamp":1.0}"#,
                "events: [0]: event_type: expected one of",
            ),
            (
                r#"{"event_type":"Attach","timestamp":null}"#,
                "events: [0]: timestamp: expected a number",
            ),
        ] {
            match read(one_stream_line(events)) {
                Err(IoError::Parse { line, source, .. }) => {
                    assert_eq!(line, 3);
                    assert!(source.to_string().starts_with(why), "{source}");
                }
                other => panic!("expected Parse error at line 3, got {other:?}"),
            }
        }
        let no_device =
            "{\"format\":\"cpt-trace\",\"version\":1,\"generation\":\"Lte\",\"num_streams\":1}\n\
             {\"ue_id\":1,\"events\":[]}\n";
        match read(no_device) {
            Err(IoError::Parse {
                line: 2, source, ..
            }) => {
                assert_eq!(source.to_string(), "missing field \"device_type\"")
            }
            other => panic!("expected Parse error at line 2, got {other:?}"),
        }
    }

    #[test]
    fn stream_reader_enforces_promised_count() {
        // Header promises 2 streams, file carries 1: the shortfall must
        // surface at EOF, exactly like the batch reader.
        let mut text = String::new();
        for l in toy_text().lines().take(2) {
            text.push_str(l);
            text.push('\n');
        }
        let mut r = StreamReader::new(Cursor::new(text.into_bytes())).unwrap();
        assert!(r.next_stream().unwrap().is_some());
        assert!(matches!(r.next_stream(), Err(IoError::BadHeader(_))));
    }

    #[test]
    fn unfinished_stream_writer_publishes_nothing() {
        let d = toy();
        let mut path = std::env::temp_dir();
        path.push(format!("cpt-io-unfinished-{}.jsonl", std::process::id()));
        let tmp = path.with_file_name(format!(
            "cpt-io-unfinished-{}.jsonl.tmp",
            std::process::id()
        ));
        {
            let mut w = StreamWriter::create(&path, d.generation, d.streams.len()).unwrap();
            w.push(&d.streams[0]).unwrap();
            // Dropped without finish: a crashed conversion.
        }
        assert!(!path.exists(), "destination must not be published");
        assert!(!tmp.exists(), "temp file must be cleaned up");
    }

    #[test]
    fn stream_writer_rejects_count_mismatch_at_finish() {
        let d = toy();
        let mut path = std::env::temp_dir();
        path.push(format!("cpt-io-mismatch-{}.jsonl", std::process::id()));
        let mut w = StreamWriter::create(&path, d.generation, d.streams.len() + 1).unwrap();
        for s in &d.streams {
            w.push(s).unwrap();
        }
        assert!(matches!(w.finish(), Err(IoError::BadHeader(_))));
        assert!(!path.exists());
    }
}
