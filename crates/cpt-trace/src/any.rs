//! One reader and one writer over both trace formats.
//!
//! A trace file is JSON-lines ([`crate::io`]) or binary columnar
//! ([`crate::columnar`]); which one is decided here, once, from the file
//! extension ([`is_ctb`]). Consumers that only need "the generation, then
//! every stream in file order" ([`AnyTrace`]) or "these streams, written
//! crash-safely" ([`TraceWriter`], [`write_trace`]) are written once over
//! these types and never look at the extension themselves. Either side
//! holds one stream at a time, so neither format caps a consumer at in-RAM
//! scale.

use crate::columnar::{ColumnarReader, ColumnarWriter, CtbSummary};
use crate::io::{IoError, StreamReader, StreamWriter};
use crate::{Dataset, DeviceType, Generation, Stream, UeId};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// Whether `path` names a binary columnar trace (`.ctb`, any case);
/// everything else is JSON-lines.
pub fn is_ctb(path: impl AsRef<Path>) -> bool {
    path.as_ref()
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("ctb"))
}

/// An open trace of either format: the header has been read and validated,
/// no stream has.
pub enum AnyTrace {
    /// A JSON-lines file, positioned after its header line.
    Jsonl(StreamReader<BufReader<File>>),
    /// A mapped `.ctb` file, structurally validated.
    Ctb(ColumnarReader),
}

impl AnyTrace {
    /// Opens `path` as the format its extension names.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let path = path.as_ref();
        if is_ctb(path) {
            Ok(AnyTrace::Ctb(ColumnarReader::open(path)?))
        } else {
            let file = File::open(path)?;
            Ok(AnyTrace::Jsonl(StreamReader::new(BufReader::new(file))?))
        }
    }

    /// The generation the header declares.
    pub fn generation(&self) -> Generation {
        match self {
            AnyTrace::Jsonl(r) => r.generation(),
            AnyTrace::Ctb(r) => r.generation(),
        }
    }

    /// The stream count the header declares (a JSONL file is held to it
    /// when the fold reaches end of file).
    pub fn num_streams(&self) -> usize {
        match self {
            AnyTrace::Jsonl(r) => r.promised_streams(),
            AnyTrace::Ctb(r) => r.num_streams(),
        }
    }

    /// Reads the whole trace into memory (a `.ctb` file checksum-verified
    /// block by block as it is decoded).
    pub fn into_dataset(self) -> Result<Dataset, IoError> {
        match self {
            AnyTrace::Jsonl(r) => r.into_dataset(),
            AnyTrace::Ctb(r) => Ok(r.to_dataset()?),
        }
    }

    /// Hands every stream to `f` in file order, one resident at a time. A
    /// `.ctb` file has every block checksum verified before the first
    /// stream is decoded, and every stream decoded into one reused
    /// `Stream`; a JSONL file is parsed strictly, line by line.
    pub fn for_each_stream(
        self,
        mut f: impl FnMut(&Stream) -> Result<(), IoError>,
    ) -> Result<(), IoError> {
        match self {
            AnyTrace::Jsonl(mut r) => {
                while let Some(stream) = r.next_stream()? {
                    f(&stream)?;
                }
            }
            AnyTrace::Ctb(r) => {
                r.verify()?;
                let mut stream = Stream::new(UeId(0), DeviceType::Phone, Vec::new());
                for view in r.streams() {
                    view.decode_into(&mut stream)?;
                    f(&stream)?;
                }
            }
        }
        Ok(())
    }
}

/// A crash-safe writer of the format `path`'s extension names: streams are
/// pushed one at a time and the file appears at `path` only when
/// [`TraceWriter::finish`] commits it.
pub enum TraceWriter {
    /// Writing JSON-lines.
    Jsonl(StreamWriter),
    /// Writing `.ctb`.
    Ctb(ColumnarWriter),
}

impl TraceWriter {
    /// Starts a trace of `num_streams` streams (the JSONL header promises
    /// the count up front; `.ctb` counts as it goes).
    pub fn create(
        path: impl AsRef<Path>,
        generation: Generation,
        num_streams: usize,
    ) -> Result<Self, IoError> {
        let path = path.as_ref();
        if is_ctb(path) {
            Ok(TraceWriter::Ctb(ColumnarWriter::create(path, generation)?))
        } else {
            Ok(TraceWriter::Jsonl(StreamWriter::create(
                path,
                generation,
                num_streams,
            )?))
        }
    }

    /// Appends one stream.
    pub fn push(&mut self, stream: &Stream) -> Result<(), IoError> {
        match self {
            TraceWriter::Jsonl(w) => w.push(stream),
            TraceWriter::Ctb(w) => Ok(w.push_stream(stream)?),
        }
    }

    /// Commits the file; a `.ctb` reports what was written.
    pub fn finish(self) -> Result<Option<CtbSummary>, IoError> {
        match self {
            TraceWriter::Jsonl(w) => w.finish().map(|()| None),
            TraceWriter::Ctb(w) => Ok(Some(w.finish()?)),
        }
    }
}

/// Writes a whole in-memory [`Dataset`] to `path` in the format its
/// extension names.
pub fn write_trace(
    dataset: &Dataset,
    path: impl AsRef<Path>,
) -> Result<Option<CtbSummary>, IoError> {
    let mut w = TraceWriter::create(path, dataset.generation, dataset.streams.len())?;
    for stream in &dataset.streams {
        w.push(stream)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::CtbError;
    use crate::{Event, EventType};

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
            Stream::new(
                UeId(3),
                DeviceType::Tablet,
                vec![Event::new(EventType::ServiceRequest, 3.5)],
            ),
        ])
    }

    fn collect(path: &Path) -> (Generation, usize, Vec<Stream>) {
        let trace = AnyTrace::open(path).expect("open");
        let (generation, promised) = (trace.generation(), trace.num_streams());
        let mut streams = Vec::new();
        trace
            .for_each_stream(|s| {
                streams.push(s.clone());
                Ok(())
            })
            .expect("fold");
        (generation, promised, streams)
    }

    #[test]
    fn extension_decides_the_format_case_insensitively() {
        assert!(is_ctb("a/b/trace.ctb") && is_ctb("T.CTB"));
        assert!(!is_ctb("trace.jsonl") && !is_ctb("ctb") && !is_ctb("trace.ctb.jsonl"));
    }

    #[test]
    fn both_formats_fold_to_the_same_streams() {
        let dir = std::env::temp_dir().join(format!("cpt-any-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = toy();
        let jsonl = dir.join("toy.jsonl");
        let ctb = dir.join("toy.ctb");
        assert_eq!(write_trace(&d, &jsonl).unwrap(), None);
        let summary = write_trace(&d, &ctb)
            .unwrap()
            .expect("ctb reports a summary");
        assert_eq!((summary.streams, summary.events), (3, 3));
        // The generic writer produces the formats' own bytes.
        let (own_jsonl, own_ctb) = (dir.join("own.jsonl"), dir.join("own.ctb"));
        let mut w = StreamWriter::create(&own_jsonl, d.generation, d.streams.len()).unwrap();
        for s in &d.streams {
            w.push(s).unwrap();
        }
        w.finish().unwrap();
        crate::columnar::write_ctb(&d, &own_ctb).unwrap();
        for (generic, own) in [(&jsonl, &own_jsonl), (&ctb, &own_ctb)] {
            assert_eq!(std::fs::read(generic).unwrap(), std::fs::read(own).unwrap());
        }
        for path in [&jsonl, &ctb] {
            assert_eq!(collect(path), (d.generation, 3, d.streams.clone()));
            assert_eq!(AnyTrace::open(path).unwrap().into_dataset().unwrap(), d);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_keep_their_format() {
        let dir = std::env::temp_dir().join(format!("cpt-any-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            AnyTrace::open(dir.join("missing.jsonl")),
            Err(IoError::Io(_))
        ));
        assert!(matches!(
            AnyTrace::open(dir.join("missing.ctb")),
            Err(IoError::Ctb(CtbError::Io { .. }))
        ));
        // A fold stops at the first error the callback returns.
        let ctb = dir.join("toy.ctb");
        write_trace(&toy(), &ctb).unwrap();
        let mut seen = 0;
        let stopped = AnyTrace::open(&ctb).unwrap().for_each_stream(|_| {
            seen += 1;
            Err(IoError::Ctb(CtbError::TooLarge("test")))
        });
        assert!(stopped.is_err());
        assert_eq!(seen, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
