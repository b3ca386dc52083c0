//! Dataset (de)serialization.
//!
//! Datasets are stored as JSON lines: a header line with the generation,
//! then one JSON object per stream. The format is line-oriented so that
//! multi-gigabyte traces can be streamed without building the whole dataset
//! in memory, and diff-able so that fixture files stay reviewable.

use crate::atomic::AtomicFile;
use crate::columnar::CtbError;
use crate::{Dataset, Generation, Stream};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// Header record (first line of a dataset file).
#[derive(Debug, Serialize, Deserialize)]
struct Header {
    format: String,
    version: u32,
    generation: Generation,
    num_streams: usize,
}

const FORMAT: &str = "cpt-trace";
const VERSION: u32 = 1;

/// Errors arising while reading or writing dataset files.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Malformed JSON or schema mismatch (no position information; prefer
    /// [`IoError::Parse`], which the readers emit).
    Json(serde_json::Error),
    /// A line of the file does not parse. Carries the 1-based line number
    /// (the header is line 1) and a snippet of the offending line, so a
    /// multi-gigabyte trace with one bad record is debuggable from the
    /// error message alone.
    Parse {
        /// 1-based line number within the file.
        line: usize,
        /// First ~60 characters of the offending line.
        snippet: String,
        /// Underlying JSON error.
        source: serde_json::Error,
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
            IoError::Json(e) => write!(f, "json error: {e}"),
            IoError::Parse {
                line,
                snippet,
                source,
            } => write!(f, "parse error at line {line}: {source}; offending line starts: {snippet:?}"),
            IoError::BadHeader(msg) => write!(f, "bad dataset header: {msg}"),
            IoError::Ctb(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Json(e) => Some(e),
            IoError::Parse { source, .. } => Some(source),
            IoError::BadHeader(_) => None,
            IoError::Ctb(e) => e.source(),
        }
    }
}

/// Options controlling how a dataset file is read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadOptions {
    /// Tolerate a file whose final line was cut short (e.g. a writer died
    /// mid-record): the damaged last line is dropped and fewer streams than
    /// the header promises are accepted. Corruption anywhere *before* the
    /// final line still errors — data loss in the middle of a file is never
    /// silently skipped.
    pub allow_partial: bool,
}

impl ReadOptions {
    /// Strict reading (the default): any damage is an error.
    pub fn strict() -> Self {
        ReadOptions::default()
    }

    /// Tolerates a truncated final line.
    pub fn partial() -> Self {
        ReadOptions {
            allow_partial: true,
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

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Json(e)
    }
}

/// Writes a dataset to `path` in JSON-lines format: a [`StreamWriter`] fed
/// every stream, so the write is crash-safe (see [`crate::atomic`]) — a
/// writer dying mid-trace can never leave a header promising more streams
/// than the file holds.
pub fn write_dataset(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), IoError> {
    let mut w = StreamWriter::create(path, dataset.generation, dataset.streams.len())?;
    for stream in &dataset.streams {
        w.push(stream)?;
    }
    w.finish()
}

/// Writes the header line every dataset file starts with.
fn write_header(
    w: &mut impl Write,
    generation: Generation,
    num_streams: usize,
) -> Result<(), IoError> {
    let header = Header {
        format: FORMAT.to_owned(),
        version: VERSION,
        generation,
        num_streams,
    };
    serde_json::to_writer(&mut *w, &header)?;
    Ok(w.write_all(b"\n")?)
}

/// Writes a dataset to any writer (header line + one line per stream).
pub fn write_dataset_to(dataset: &Dataset, w: &mut impl Write) -> Result<(), IoError> {
    write_header(w, dataset.generation, dataset.streams.len())?;
    for stream in &dataset.streams {
        serde_json::to_writer(&mut *w, stream)?;
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a dataset from `path` (strict mode).
pub fn read_dataset(path: impl AsRef<Path>) -> Result<Dataset, IoError> {
    read_dataset_opts(path, ReadOptions::strict())
}

/// Reads a dataset from `path` with explicit [`ReadOptions`].
pub fn read_dataset_opts(path: impl AsRef<Path>, opts: ReadOptions) -> Result<Dataset, IoError> {
    let file = File::open(path)?;
    read_dataset_with(BufReader::new(file), opts)
}

/// Reads a dataset from any buffered reader (strict mode).
pub fn read_dataset_from(r: impl BufRead) -> Result<Dataset, IoError> {
    read_dataset_with(r, ReadOptions::strict())
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

/// Reads a dataset from any buffered reader with explicit [`ReadOptions`]:
/// a [`StreamReader`] drained into memory.
pub fn read_dataset_with(r: impl BufRead, opts: ReadOptions) -> Result<Dataset, IoError> {
    StreamReader::with_options(r, opts)?.into_dataset()
}

/// The one JSONL reader: parses and validates the header eagerly, then
/// yields one [`Stream`] at a time, so a multi-gigabyte trace can be
/// converted or folded without ever materializing a [`Dataset`]. The
/// stream-count promise in the header is enforced when the file ends.
pub struct StreamReader<R: BufRead> {
    lines: std::iter::Enumerate<io::Lines<R>>,
    generation: Generation,
    promised: usize,
    delivered: usize,
    opts: ReadOptions,
}

impl<R: BufRead> StreamReader<R> {
    /// Opens a strict reader over JSONL content, validating the header line.
    pub fn new(r: R) -> Result<Self, IoError> {
        Self::with_options(r, ReadOptions::strict())
    }

    /// Opens a reader with explicit [`ReadOptions`].
    pub fn with_options(r: R, opts: ReadOptions) -> Result<Self, IoError> {
        let mut lines = r.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| IoError::BadHeader("empty file".into()))??;
        let header: Header =
            serde_json::from_str(&header_line).map_err(|source| IoError::Parse {
                line: 1,
                snippet: snippet_of(&header_line),
                source,
            })?;
        if header.format != FORMAT {
            return Err(IoError::BadHeader(format!(
                "expected format {FORMAT:?}, found {:?}",
                header.format
            )));
        }
        if header.version != VERSION {
            return Err(IoError::BadHeader(format!(
                "unsupported version {} (this build reads {VERSION})",
                header.version
            )));
        }
        Ok(StreamReader {
            lines: lines.enumerate(),
            generation: header.generation,
            promised: header.num_streams,
            delivered: 0,
            opts,
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
    /// delivered count must equal the header's promise (partial mode also
    /// accepts fewer).
    pub fn next_stream(&mut self) -> Result<Option<Stream>, IoError> {
        while let Some((i, line)) = self.lines.next() {
            let line_no = i + 2; // header consumed line 1
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<Stream>(&line) {
                Ok(stream) => {
                    self.delivered += 1;
                    return Ok(Some(stream));
                }
                Err(source) => {
                    // Only a damaged *final* line is tolerable: scan ahead for
                    // any remaining content to distinguish a cut-short tail
                    // from mid-file corruption. An I/O error while scanning is
                    // surfaced as such — it must not masquerade as "more
                    // content follows" and turn a tail-truncation read error
                    // into a misleading mid-file parse error.
                    let mut has_more_content = false;
                    for (_, rest) in self.lines.by_ref() {
                        match rest {
                            Ok(l) if l.trim().is_empty() => continue,
                            Ok(_) => {
                                has_more_content = true;
                                break;
                            }
                            Err(e) => return Err(IoError::Io(e)),
                        }
                    }
                    if self.opts.allow_partial && !has_more_content {
                        break;
                    }
                    return Err(IoError::Parse {
                        line: line_no,
                        snippet: snippet_of(&line),
                        source,
                    });
                }
            }
        }
        let count_ok = self.delivered == self.promised
            || (self.opts.allow_partial && self.delivered < self.promised);
        if !count_ok {
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
/// [`crate::atomic`]). Dropping an unfinished writer removes the temp file,
/// so a crashed conversion can never publish a torn trace.
pub struct StreamWriter {
    file: AtomicFile,
    promised: usize,
    written: usize,
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
        })
    }

    /// Appends one stream record.
    pub fn push(&mut self, stream: &Stream) -> Result<(), IoError> {
        serde_json::to_writer(self.file.writer(), stream)?;
        self.file.writer().write_all(b"\n")?;
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
    use crate::{DeviceType, Event, EventType, UeId};
    use std::io::Cursor;

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

    #[test]
    fn roundtrip_in_memory() {
        let d = toy();
        let mut buf = Vec::new();
        write_dataset_to(&d, &mut buf).unwrap();
        let back = read_dataset_from(Cursor::new(buf)).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn roundtrip_on_disk() {
        let d = toy();
        let dir = std::env::temp_dir().join(format!("cpt-trace-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.jsonl");
        write_dataset(&d, &path).unwrap();
        let back = read_dataset(&path).unwrap();
        assert_eq!(d, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_empty_file() {
        assert!(matches!(
            read_dataset_from(Cursor::new(Vec::<u8>::new())),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_wrong_format() {
        let bad = r#"{"format":"pcap","version":1,"generation":"Lte","num_streams":0}"#;
        assert!(matches!(
            read_dataset_from(Cursor::new(bad.as_bytes().to_vec())),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_stream_count_mismatch() {
        let mut buf = Vec::new();
        write_dataset_to(&toy(), &mut buf).unwrap();
        // Drop the last line (one stream) while the header still says 2.
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            read_dataset_from(Cursor::new(truncated.into_bytes())),
            Err(IoError::BadHeader(_))
        ));
    }

    fn toy_text() -> String {
        let mut buf = Vec::new();
        write_dataset_to(&toy(), &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
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
        match read_dataset_from(Cursor::new(corrupted.into_bytes())) {
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
        match read_dataset_from(Cursor::new(bad.as_bytes().to_vec())) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Parse error at line 1, got {other:?}"),
        }
    }

    #[test]
    fn allow_partial_tolerates_truncated_final_line() {
        // Cut the final stream record in half, as if the writer died.
        let text = toy_text();
        let cut = text.trim_end().len() - 10;
        let truncated = &text[..cut];
        // Strict mode: typed parse error on the damaged line.
        match read_dataset_from(Cursor::new(truncated.as_bytes().to_vec())) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected Parse error, got {other:?}"),
        }
        // Partial mode: the damaged tail is dropped, the rest survives.
        let d = read_dataset_with(
            Cursor::new(truncated.as_bytes().to_vec()),
            ReadOptions::partial(),
        )
        .unwrap();
        assert_eq!(d.streams.len(), 1);
        assert_eq!(d.streams[0].ue_id, UeId(1));
    }

    #[test]
    fn allow_partial_still_rejects_mid_file_corruption() {
        // Damage line 2 but keep an intact line 3: this is data loss in
        // the middle of the file, not a truncated tail.
        let corrupted: String = toy_text()
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == 1 {
                    "{broken".to_owned()
                } else {
                    l.to_owned()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        match read_dataset_with(
            Cursor::new(corrupted.into_bytes()),
            ReadOptions::partial(),
        ) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn write_is_atomic_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("cpt-trace-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        std::fs::write(&path, b"stale content").unwrap();
        write_dataset(&toy(), &path).unwrap();
        assert_eq!(read_dataset(&path).unwrap(), toy());
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
        write_dataset(&toy(), &path).unwrap();
        // Wedge the temp path with a directory so the next write fails
        // before it can touch the destination.
        std::fs::create_dir(dir.join("out.jsonl.tmp")).unwrap();
        let bigger = Dataset::new(vec![toy().streams[0].clone(); 5]);
        assert!(matches!(write_dataset(&bigger, &path), Err(IoError::Io(_))));
        // The previously committed file is intact.
        assert_eq!(read_dataset(&path).unwrap(), toy());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_ahead_io_error_is_surfaced_not_misreported() {
        // Header + one good stream + a corrupt JSON line + a line that
        // fails to *read* (invalid UTF-8). The scan-ahead past the corrupt
        // line hits the read error and must surface it as IoError::Io, not
        // misreport mid-file corruption as a Parse error.
        let mut bytes = Vec::new();
        for l in toy_text().lines().take(2) {
            bytes.extend_from_slice(l.as_bytes());
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(b"{broken\n");
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        for opts in [ReadOptions::partial(), ReadOptions::strict()] {
            match read_dataset_with(Cursor::new(bytes.clone()), opts) {
                Err(IoError::Io(_)) => {}
                other => panic!("expected Io error with {opts:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn allow_partial_still_rejects_excess_streams() {
        // More streams than the header promises is never acceptable.
        let mut text = toy_text();
        let extra = text.lines().nth(1).unwrap().to_owned();
        text.push_str(&extra);
        text.push('\n');
        assert!(matches!(
            read_dataset_with(Cursor::new(text.into_bytes()), ReadOptions::partial()),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn stream_writer_output_is_byte_identical_to_batch_write() {
        let d = toy();
        let mut batch = Vec::new();
        write_dataset_to(&d, &mut batch).unwrap();

        let mut path = std::env::temp_dir();
        path.push(format!("cpt-io-streamwriter-{}.jsonl", std::process::id()));
        let mut w = StreamWriter::create(&path, d.generation, d.streams.len()).unwrap();
        for s in &d.streams {
            w.push(s).unwrap();
        }
        w.finish().unwrap();
        let streamed = std::fs::read(&path).unwrap();
        assert_eq!(batch, streamed);

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
