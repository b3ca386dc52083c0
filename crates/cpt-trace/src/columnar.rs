//! `.ctb` — the binary columnar trace format.
//!
//! JSON-lines traces (see [`crate::io`]) are reviewable but cap every
//! consumer at in-RAM scale: the paper's real dataset is 73M events across
//! 430k UEs, and parsing that as JSON into a [`Dataset`] is the wall the
//! ROADMAP calls out. `.ctb` is the out-of-core answer: a versioned binary
//! layout with a per-stream index and columnar event blocks, written
//! stream-by-stream and read zero-copy through a memory mapping.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! [ 0 .. 64)            header (fixed 64 bytes)
//! [64 .. index_offset)  column blocks, back to back
//! [index_offset .. )    stream index (32 B / stream), then
//!                       block index (32 B / block) to end of file
//!
//! header:  magic "cpt-ctb\0" | version u32 | generation u8 | pad[3]
//!          num_streams u64 | num_events u64 | index_offset u64
//!          num_blocks u64 | index_checksum u64 | header_checksum u64
//!
//! block:   event-type column (u8 × n_events)
//!          pad to 8-byte alignment
//!          timestamp XOR-delta column (u64 × n_events)
//!
//! stream index entry:  ue_id u64 | event_offset u64 | event_len u32
//!                      | block u32 | device u8 | pad[7]
//! block index entry:   byte_offset u64 | first_event u64 | n_events u32
//!                      | n_streams u32 | checksum u64 (FNV-1a of payload)
//! ```
//!
//! Timestamps are stored as *XOR deltas* (Gorilla-style): each event stores
//! `bits(t[i]) ^ bits(t[i-1])` with `bits(t[-1]) = 0`, so consecutive,
//! slowly-changing timestamps share leading bytes (compressible, cache
//! friendly) while decoding recovers every `f64` **bit-exactly** — an
//! arithmetic `f64` delta would not round-trip. Event types are one byte via
//! [`EventType::index`]. A stream never spans blocks, so a
//! [`StreamView`] is two contiguous sub-slices of one block.
//!
//! Durability follows the registry's torn-write discipline: the writer
//! builds `<name>.tmp`, back-patches the header, then commits it through
//! the crate's one fsync-rename-fsync guard ([`crate::atomic`]) — a crash
//! can never publish a `.ctb` whose header promises more than the file
//! holds. Every region is covered by an FNV-1a/64 checksum
//! (header, index, each block), and [`ColumnarReader::open`] cross-checks
//! the whole index structurally before handing out a single view, so a
//! truncated or bit-flipped file is rejected with a typed [`CtbError`] and
//! reads can never run past the mapping.

use crate::atomic::AtomicFile;
use crate::mmap::Mmap;
use crate::{Dataset, DeviceType, Event, EventType, Generation, Stream, UeId};
use rayon::prelude::*;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes at offset 0 of every `.ctb` file.
pub const MAGIC: [u8; 8] = *b"cpt-ctb\0";
/// Current format version.
pub const VERSION: u32 = 1;
/// Header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Bytes per stream-index entry.
pub const STREAM_ENTRY_LEN: usize = 32;
/// Bytes per block-index entry.
pub const BLOCK_ENTRY_LEN: usize = 32;
/// Target events per column block; the writer cuts a block at the first
/// stream boundary at or past this many buffered events (a single stream
/// longer than the target gets one oversized block to itself).
pub const BLOCK_TARGET_EVENTS: usize = 64 * 1024;

/// FNV-1a/64 (same constants as the model registry's artifact checksums).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

#[inline]
fn align8(n: u64) -> u64 {
    (n + 7) & !7
}

/// Errors raised by the columnar reader/writer. Corrupt input is always a
/// typed error — never a panic, never an out-of-bounds read.
#[derive(Debug)]
pub enum CtbError {
    /// Underlying filesystem error, with the path involved.
    Io {
        /// File being read or written.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// Not a `.ctb` file, or an unsupported version/generation byte.
    BadHeader(String),
    /// The file is shorter than a region the header or index promises.
    Truncated {
        /// Region that did not fit.
        what: &'static str,
        /// Bytes required.
        need: u64,
        /// Bytes present.
        have: u64,
    },
    /// A checksum mismatch in the named region.
    Checksum {
        /// Region that failed verification (`"header"`, `"index"`,
        /// `"block"`).
        what: &'static str,
        /// Block number for block checksums, 0 otherwise.
        index: u64,
    },
    /// Structurally inconsistent index or invalid column data.
    Corrupt(String),
    /// A size field exceeds what this build can address.
    TooLarge(&'static str),
    /// A stream handed to the writer is not representable (e.g. an event
    /// type that does not exist in the file's generation).
    InvalidStream(String),
}

impl std::fmt::Display for CtbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtbError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            CtbError::BadHeader(msg) => write!(f, "bad ctb header: {msg}"),
            CtbError::Truncated { what, need, have } => {
                write!(f, "truncated ctb: {what} needs {need} bytes, file has {have}")
            }
            CtbError::Checksum { what, index } => {
                write!(f, "ctb checksum mismatch in {what} {index}")
            }
            CtbError::Corrupt(msg) => write!(f, "corrupt ctb: {msg}"),
            CtbError::TooLarge(what) => write!(f, "ctb {what} exceeds addressable size"),
            CtbError::InvalidStream(msg) => write!(f, "stream not representable: {msg}"),
        }
    }
}

impl std::error::Error for CtbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CtbError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> CtbError {
    CtbError::Io {
        path: path.to_owned(),
        source,
    }
}

fn generation_code(g: Generation) -> u8 {
    match g {
        Generation::Lte => 0,
        Generation::Nr => 1,
    }
}

fn generation_from_code(c: u8) -> Option<Generation> {
    match c {
        0 => Some(Generation::Lte),
        1 => Some(Generation::Nr),
        _ => None,
    }
}

/// Summary returned by [`ColumnarWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtbSummary {
    /// Streams written.
    pub streams: u64,
    /// Events written.
    pub events: u64,
    /// Column blocks written.
    pub blocks: u64,
    /// Total file size in bytes.
    pub bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    ue_id: u64,
    event_offset: u64,
    event_len: u32,
    block: u32,
    device: u8,
}

impl StreamEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ue_id.to_le_bytes());
        out.extend_from_slice(&self.event_offset.to_le_bytes());
        out.extend_from_slice(&self.event_len.to_le_bytes());
        out.extend_from_slice(&self.block.to_le_bytes());
        out.push(self.device);
        out.extend_from_slice(&[0u8; 7]);
    }

    fn decode(b: &[u8]) -> StreamEntry {
        StreamEntry {
            ue_id: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            event_offset: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            event_len: u32::from_le_bytes(b[16..20].try_into().unwrap()),
            block: u32::from_le_bytes(b[20..24].try_into().unwrap()),
            device: b[24],
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    byte_offset: u64,
    first_event: u64,
    n_events: u32,
    n_streams: u32,
    checksum: u64,
}

impl BlockEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.byte_offset.to_le_bytes());
        out.extend_from_slice(&self.first_event.to_le_bytes());
        out.extend_from_slice(&self.n_events.to_le_bytes());
        out.extend_from_slice(&self.n_streams.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
    }

    fn decode(b: &[u8]) -> BlockEntry {
        BlockEntry {
            byte_offset: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            first_event: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            n_events: u32::from_le_bytes(b[16..20].try_into().unwrap()),
            n_streams: u32::from_le_bytes(b[20..24].try_into().unwrap()),
            checksum: u64::from_le_bytes(b[24..32].try_into().unwrap()),
        }
    }

    fn payload_len(&self) -> u64 {
        align8(self.n_events as u64) + 8 * self.n_events as u64
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming `.ctb` writer: push streams one at a time, then [`finish`].
///
/// Nothing but the current column block and the (compact) indexes is held in
/// memory, so paper-scale traces can be written without materializing a
/// [`Dataset`]. The output appears at the destination path only after
/// `finish` completes its fsync-then-rename commit; a writer dropped before
/// `finish` removes its temporary file and leaves any pre-existing
/// destination untouched.
///
/// [`finish`]: ColumnarWriter::finish
pub struct ColumnarWriter {
    file: AtomicFile,
    generation: Generation,
    /// Bytes of block payload written so far (excludes the header).
    payload_pos: u64,
    types: Vec<u8>,
    deltas: Vec<u8>,
    block_streams: u32,
    blocks: Vec<BlockEntry>,
    index: Vec<StreamEntry>,
    events_total: u64,
}

impl ColumnarWriter {
    /// Creates a writer targeting `path`. The file is written to a sibling
    /// `.tmp` path and only renamed into place by [`ColumnarWriter::finish`].
    pub fn create(path: impl AsRef<Path>, generation: Generation) -> Result<Self, CtbError> {
        let dst = path.as_ref();
        let mut file = AtomicFile::create(dst).map_err(|e| io_err(dst, e))?;
        // Placeholder header; back-patched by finish().
        file.writer()
            .write_all(&[0u8; HEADER_LEN])
            .map_err(|e| io_err(file.tmp_path(), e))?;
        Ok(ColumnarWriter {
            file,
            generation,
            payload_pos: 0,
            types: Vec::with_capacity(BLOCK_TARGET_EVENTS),
            deltas: Vec::with_capacity(BLOCK_TARGET_EVENTS * 8),
            block_streams: 0,
            blocks: Vec::new(),
            index: Vec::new(),
            events_total: 0,
        })
    }

    /// Generation this file encodes.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Appends one stream. Streams are stored in push order.
    pub fn push_stream(&mut self, stream: &Stream) -> Result<(), CtbError> {
        let len = u32::try_from(stream.events.len())
            .map_err(|_| CtbError::TooLarge("stream length"))?;
        if self.index.len() as u64 == u64::MAX {
            return Err(CtbError::TooLarge("stream count"));
        }
        let block = u32::try_from(self.blocks.len()).map_err(|_| CtbError::TooLarge("block count"))?;
        let mut prev_bits = 0u64;
        for ev in &stream.events {
            if !ev.event_type.exists_in(self.generation) {
                return Err(CtbError::InvalidStream(format!(
                    "{}: event type {} does not exist in generation {}",
                    stream.ue_id, ev.event_type, self.generation
                )));
            }
            let bits = ev.timestamp.to_bits();
            self.types.push(ev.event_type.index() as u8);
            self.deltas.extend_from_slice(&(bits ^ prev_bits).to_le_bytes());
            prev_bits = bits;
        }
        self.index.push(StreamEntry {
            ue_id: stream.ue_id.0,
            event_offset: self.events_total,
            event_len: len,
            block,
            device: stream.device_type.index() as u8,
        });
        self.events_total += len as u64;
        self.block_streams += 1;
        if self.types.len() >= BLOCK_TARGET_EVENTS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), CtbError> {
        let n_events = self.types.len() as u64;
        let pad = (align8(n_events) - n_events) as usize;
        let mut checksum = fnv1a(&self.types);
        checksum = fnv1a_continue(checksum, &[0u8; 8][..pad]);
        checksum = fnv1a_continue(checksum, &self.deltas);
        let w = self.file.writer();
        w.write_all(&self.types)
            .and_then(|_| w.write_all(&[0u8; 8][..pad]))
            .and_then(|_| w.write_all(&self.deltas))
            .map_err(|e| io_err(self.file.tmp_path(), e))?;
        let first_event = self.events_total - n_events;
        self.blocks.push(BlockEntry {
            byte_offset: HEADER_LEN as u64 + self.payload_pos,
            first_event,
            n_events: n_events as u32,
            n_streams: self.block_streams,
            checksum,
        });
        self.payload_pos += align8(n_events) + 8 * n_events;
        self.types.clear();
        self.deltas.clear();
        self.block_streams = 0;
        Ok(())
    }

    /// Flushes the final block, writes the indexes, back-patches the header,
    /// and commits the file into place (fsync, rename, directory fsync).
    pub fn finish(mut self) -> Result<CtbSummary, CtbError> {
        if !self.types.is_empty() || self.block_streams > 0 {
            self.flush_block()?;
        }
        let num_streams = self.index.len() as u64;
        let num_blocks = self.blocks.len() as u64;
        let index_offset = HEADER_LEN as u64 + self.payload_pos;

        let mut index_bytes =
            Vec::with_capacity(self.index.len() * STREAM_ENTRY_LEN + self.blocks.len() * BLOCK_ENTRY_LEN);
        for e in &self.index {
            e.encode(&mut index_bytes);
        }
        for b in &self.blocks {
            b.encode(&mut index_bytes);
        }
        let w = self.file.writer();
        w.write_all(&index_bytes)
            .map_err(|e| io_err(self.file.tmp_path(), e))?;

        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12] = generation_code(self.generation);
        header[16..24].copy_from_slice(&num_streams.to_le_bytes());
        header[24..32].copy_from_slice(&self.events_total.to_le_bytes());
        header[32..40].copy_from_slice(&index_offset.to_le_bytes());
        header[40..48].copy_from_slice(&num_blocks.to_le_bytes());
        header[48..56].copy_from_slice(&fnv1a(&index_bytes).to_le_bytes());
        let hc = fnv1a(&header[0..56]);
        header[56..64].copy_from_slice(&hc.to_le_bytes());

        let w = self.file.writer();
        w.seek(SeekFrom::Start(0))
            .and_then(|_| w.write_all(&header))
            .map_err(|e| io_err(self.file.tmp_path(), e))?;
        self.file
            .commit()
            .map_err(|e| io_err(self.file.dst_path(), e))?;
        Ok(CtbSummary {
            streams: num_streams,
            events: self.events_total,
            blocks: num_blocks,
            bytes: index_offset + index_bytes.len() as u64,
        })
    }
}

/// Continues an FNV-1a/64 hash (a [`fnv1a`] result, or an earlier
/// continuation) over more bytes: `fnv1a_continue(fnv1a(a), b)` is
/// `fnv1a(a ++ b)`.
pub fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Writes a whole in-memory [`Dataset`] to `path` as `.ctb`.
pub fn write_ctb(dataset: &Dataset, path: impl AsRef<Path>) -> Result<CtbSummary, CtbError> {
    let mut w = ColumnarWriter::create(path, dataset.generation)?;
    for s in &dataset.streams {
        w.push_stream(s)?;
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Per-stream metadata available without touching the column data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMeta {
    /// The stream's UE id.
    pub ue_id: UeId,
    /// The stream's device type.
    pub device_type: DeviceType,
    /// Number of events in the stream.
    pub len: usize,
}

/// Zero-copy `.ctb` reader over a memory-mapped file.
///
/// [`ColumnarReader::open`] validates the header, both checksummed indexes,
/// and the full structural consistency of every block and stream entry
/// (offsets contiguous, ranges in bounds) before returning, so every
/// subsequent [`StreamView`] is a pure bounds-safe slice of the mapping.
/// Block *payload* checksums are verified by [`ColumnarReader::verify`] and
/// by [`ColumnarReader::to_dataset`]'s parallel decode.
#[derive(Debug)]
pub struct ColumnarReader {
    map: Mmap,
    generation: Generation,
    num_streams: usize,
    num_events: u64,
    index_offset: usize,
    num_blocks: usize,
}

impl ColumnarReader {
    /// Opens and structurally validates a `.ctb` file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CtbError> {
        let path = path.as_ref();
        let map = Mmap::open(path).map_err(|e| io_err(path, e))?;
        Self::from_map(map)
    }

    /// Builds a reader over an in-memory buffer (used by tests and by the
    /// corruption proptests; the validation path is identical to `open`).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CtbError> {
        Self::from_map(Mmap::from_vec(bytes))
    }

    fn from_map(map: Mmap) -> Result<Self, CtbError> {
        let bytes = map.bytes();
        let file_len = bytes.len() as u64;
        let header: &[u8] = bytes.get(0..HEADER_LEN).ok_or(CtbError::Truncated {
            what: "header",
            need: HEADER_LEN as u64,
            have: file_len,
        })?;
        if header[0..8] != MAGIC {
            return Err(CtbError::BadHeader("magic mismatch (not a .ctb file)".into()));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(CtbError::BadHeader(format!(
                "unsupported version {version} (this build reads {VERSION})"
            )));
        }
        let stored_hc = u64::from_le_bytes(header[56..64].try_into().unwrap());
        if fnv1a(&header[0..56]) != stored_hc {
            return Err(CtbError::Checksum {
                what: "header",
                index: 0,
            });
        }
        let generation = generation_from_code(header[12])
            .ok_or_else(|| CtbError::BadHeader(format!("unknown generation code {}", header[12])))?;
        let num_streams = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let num_events = u64::from_le_bytes(header[24..32].try_into().unwrap());
        let index_offset = u64::from_le_bytes(header[32..40].try_into().unwrap());
        let num_blocks = u64::from_le_bytes(header[40..48].try_into().unwrap());
        let stored_ic = u64::from_le_bytes(header[48..56].try_into().unwrap());

        let index_bytes_len = num_streams
            .checked_mul(STREAM_ENTRY_LEN as u64)
            .and_then(|s| {
                num_blocks
                    .checked_mul(BLOCK_ENTRY_LEN as u64)
                    .and_then(|b| s.checked_add(b))
            })
            .ok_or(CtbError::TooLarge("index"))?;
        if index_offset < HEADER_LEN as u64 {
            return Err(CtbError::Corrupt(format!(
                "index offset {index_offset} overlaps the header"
            )));
        }
        let index_end = index_offset
            .checked_add(index_bytes_len)
            .ok_or(CtbError::TooLarge("index"))?;
        if index_end > file_len {
            return Err(CtbError::Truncated {
                what: "index",
                need: index_end,
                have: file_len,
            });
        }
        if index_end != file_len {
            return Err(CtbError::Corrupt(format!(
                "{} trailing bytes after the index",
                file_len - index_end
            )));
        }
        // usize conversions are safe: everything is <= file_len which fits
        // usize (the map exists).
        let index_offset_us = index_offset as usize;
        let num_streams_us = num_streams as usize;
        let num_blocks_us = num_blocks as usize;
        let index_region = &bytes[index_offset_us..];
        if fnv1a(index_region) != stored_ic {
            return Err(CtbError::Checksum {
                what: "index",
                index: 0,
            });
        }

        let reader = ColumnarReader {
            map,
            generation,
            num_streams: num_streams_us,
            num_events,
            index_offset: index_offset_us,
            num_blocks: num_blocks_us,
        };
        reader.validate_structure()?;
        Ok(reader)
    }

    /// Cross-checks block/stream index consistency so that every later
    /// access is a pure in-bounds slice.
    fn validate_structure(&self) -> Result<(), CtbError> {
        let mut byte_pos = HEADER_LEN as u64;
        let mut event_pos = 0u64;
        for b in 0..self.num_blocks {
            let e = self.block_entry(b);
            if e.byte_offset != byte_pos {
                return Err(CtbError::Corrupt(format!(
                    "block {b} starts at byte {} but previous data ends at {byte_pos}",
                    e.byte_offset
                )));
            }
            if e.first_event != event_pos {
                return Err(CtbError::Corrupt(format!(
                    "block {b} first event {} but running total is {event_pos}",
                    e.first_event
                )));
            }
            byte_pos = byte_pos
                .checked_add(e.payload_len())
                .ok_or(CtbError::TooLarge("block payload"))?;
            event_pos += e.n_events as u64;
        }
        if byte_pos != self.index_offset as u64 {
            return Err(CtbError::Corrupt(format!(
                "block payloads end at byte {byte_pos} but index starts at {}",
                self.index_offset
            )));
        }
        if event_pos != self.num_events {
            return Err(CtbError::Corrupt(format!(
                "blocks hold {event_pos} events but header promises {}",
                self.num_events
            )));
        }

        let mut event_pos = 0u64;
        let mut per_block_streams = vec![0u32; self.num_blocks];
        let mut last_block = 0u32;
        for i in 0..self.num_streams {
            let e = self.stream_entry(i);
            if e.event_offset != event_pos {
                return Err(CtbError::Corrupt(format!(
                    "stream {i} offset {} but running total is {event_pos}",
                    e.event_offset
                )));
            }
            if (e.block as usize) >= self.num_blocks {
                return Err(CtbError::Corrupt(format!(
                    "stream {i} references block {} of {}",
                    e.block, self.num_blocks
                )));
            }
            if e.block < last_block {
                return Err(CtbError::Corrupt(format!(
                    "stream {i} block {} precedes block {last_block}",
                    e.block
                )));
            }
            last_block = e.block;
            let blk = self.block_entry(e.block as usize);
            let end = e.event_offset + e.event_len as u64;
            if e.event_offset < blk.first_event || end > blk.first_event + blk.n_events as u64 {
                return Err(CtbError::Corrupt(format!(
                    "stream {i} events [{}, {end}) outside block {} range",
                    e.event_offset, e.block
                )));
            }
            if DeviceType::from_index(e.device as usize).is_none() {
                return Err(CtbError::Corrupt(format!(
                    "stream {i} has invalid device byte {}",
                    e.device
                )));
            }
            per_block_streams[e.block as usize] += 1;
            event_pos = end;
        }
        if event_pos != self.num_events {
            return Err(CtbError::Corrupt(format!(
                "streams hold {event_pos} events but header promises {}",
                self.num_events
            )));
        }
        for (b, &assigned) in per_block_streams.iter().enumerate() {
            let e = self.block_entry(b);
            if e.n_streams != assigned {
                return Err(CtbError::Corrupt(format!(
                    "block {b} claims {} streams, index assigns {assigned}",
                    e.n_streams
                )));
            }
        }
        Ok(())
    }

    fn stream_entry(&self, i: usize) -> StreamEntry {
        let start = self.index_offset + i * STREAM_ENTRY_LEN;
        StreamEntry::decode(&self.map.bytes()[start..start + STREAM_ENTRY_LEN])
    }

    fn block_entry(&self, b: usize) -> BlockEntry {
        let start = self.index_offset + self.num_streams * STREAM_ENTRY_LEN + b * BLOCK_ENTRY_LEN;
        BlockEntry::decode(&self.map.bytes()[start..start + BLOCK_ENTRY_LEN])
    }

    /// Generation the file encodes.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Number of streams in the file.
    pub fn num_streams(&self) -> usize {
        self.num_streams
    }

    /// Total number of events in the file.
    pub fn num_events(&self) -> u64 {
        self.num_events
    }

    /// Number of column blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Size of the underlying file in bytes.
    pub fn file_len(&self) -> u64 {
        self.map.bytes().len() as u64
    }

    /// Whether the file is served by an actual kernel memory mapping
    /// (false: the portable read-into-RAM fallback).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// How the file is held, as the CLI's header lines word it.
    pub fn mapping(&self) -> &'static str {
        if self.is_mapped() {
            "mmap'd"
        } else {
            "buffered"
        }
    }

    /// Index-only metadata for stream `i` (no column data touched).
    pub fn stream_meta(&self, i: usize) -> Option<StreamMeta> {
        if i >= self.num_streams {
            return None;
        }
        let e = self.stream_entry(i);
        Some(StreamMeta {
            ue_id: UeId(e.ue_id),
            device_type: DeviceType::from_index(e.device as usize).expect("validated at open"),
            len: e.event_len as usize,
        })
    }

    /// Streams per device type, computed from the index alone.
    pub fn device_stream_counts(&self) -> [u64; 3] {
        let mut counts = [0u64; 3];
        for i in 0..self.num_streams {
            counts[self.stream_entry(i).device as usize] += 1;
        }
        counts
    }

    /// Zero-copy view of stream `i`, or `None` if out of range.
    pub fn stream(&self, i: usize) -> Option<StreamView<'_>> {
        if i >= self.num_streams {
            return None;
        }
        let e = self.stream_entry(i);
        let blk = self.block_entry(e.block as usize);
        let rel = (e.event_offset - blk.first_event) as usize;
        let n = e.event_len as usize;
        let base = blk.byte_offset as usize;
        let deltas_base = base + align8(blk.n_events as u64) as usize;
        let bytes = self.map.bytes();
        Some(StreamView {
            ue_id: UeId(e.ue_id),
            device_type: DeviceType::from_index(e.device as usize).expect("validated at open"),
            generation: self.generation,
            types: &bytes[base + rel..base + rel + n],
            deltas: &bytes[deltas_base + 8 * rel..deltas_base + 8 * (rel + n)],
        })
    }

    /// Iterates every stream as a zero-copy [`StreamView`].
    pub fn streams(&self) -> impl Iterator<Item = StreamView<'_>> + '_ {
        (0..self.num_streams).map(move |i| self.stream(i).expect("in range"))
    }

    /// Verifies the payload checksum of block `b` and that every event-type
    /// byte in it is valid for the file's generation.
    pub fn verify_block(&self, b: usize) -> Result<(), CtbError> {
        if b >= self.num_blocks {
            return Err(CtbError::Corrupt(format!("block {b} out of range")));
        }
        let e = self.block_entry(b);
        let start = e.byte_offset as usize;
        let payload = &self.map.bytes()[start..start + e.payload_len() as usize];
        if fnv1a(payload) != e.checksum {
            return Err(CtbError::Checksum {
                what: "block",
                index: b as u64,
            });
        }
        let types = &payload[..e.n_events as usize];
        for (k, &t) in types.iter().enumerate() {
            let valid = EventType::from_index(t as usize)
                .map(|et| et.exists_in(self.generation))
                .unwrap_or(false);
            if !valid {
                return Err(CtbError::Corrupt(format!(
                    "block {b}: invalid event-type byte {t} at event {k}"
                )));
            }
        }
        Ok(())
    }

    /// Verifies every block checksum (rayon-parallel). Structural index
    /// validation already ran at open time.
    pub fn verify(&self) -> Result<(), CtbError> {
        let mut failures: Vec<(usize, CtbError)> = (0..self.num_blocks)
            .into_par_iter()
            .filter_map(|b| self.verify_block(b).err().map(|e| (b, e)))
            .collect();
        failures.sort_by_key(|(b, _)| *b);
        match failures.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Decodes the whole file into an in-memory [`Dataset`], verifying each
    /// block's checksum, with rayon-parallel per-block decode.
    pub fn to_dataset(&self) -> Result<Dataset, CtbError> {
        // Streams are stored grouped by block in index order, so each
        // block's streams form one contiguous index range.
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(self.num_blocks);
        let mut start = 0usize;
        for b in 0..self.num_blocks {
            let n = self.block_entry(b).n_streams as usize;
            ranges.push((start, start + n));
            start += n;
        }
        let chunks: Result<Vec<Vec<Stream>>, CtbError> = ranges
            .into_par_iter()
            .enumerate()
            .map(|(b, (lo, hi))| {
                self.verify_block(b)?;
                (lo..hi)
                    .map(|i| self.stream(i).expect("in range").to_stream())
                    .collect()
            })
            .collect();
        let streams: Vec<Stream> = chunks?.into_iter().flatten().collect();
        Ok(Dataset::with_generation(self.generation, streams))
    }
}

/// Reads a whole `.ctb` file into a [`Dataset`] (checksum-verified,
/// parallel decode).
pub fn read_ctb(path: impl AsRef<Path>) -> Result<Dataset, CtbError> {
    ColumnarReader::open(path)?.to_dataset()
}

/// A zero-copy view of one stream: two sub-slices borrowed straight from
/// the file mapping (event-type bytes and timestamp XOR-deltas).
#[derive(Debug, Clone, Copy)]
pub struct StreamView<'a> {
    ue_id: UeId,
    device_type: DeviceType,
    generation: Generation,
    types: &'a [u8],
    deltas: &'a [u8],
}

impl<'a> StreamView<'a> {
    /// The stream's UE id.
    pub fn ue_id(&self) -> UeId {
        self.ue_id
    }

    /// The stream's device type.
    pub fn device_type(&self) -> DeviceType {
        self.device_type
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Raw event-type column (one [`EventType::index`] byte per event).
    pub fn type_bytes(&self) -> &'a [u8] {
        self.types
    }

    /// A view of the first `n` events only (cheap: shrinks the borrowed
    /// slices). XOR-delta decoding is prefix-closed, so the truncated view
    /// decodes to exactly the first `n` events.
    pub fn prefix(&self, n: usize) -> StreamView<'a> {
        let n = n.min(self.len());
        StreamView {
            types: &self.types[..n],
            deltas: &self.deltas[..8 * n],
            ..*self
        }
    }

    /// Decodes the timestamps (bit-exact; infallible).
    pub fn timestamps(&self) -> impl Iterator<Item = f64> + 'a {
        let mut prev = 0u64;
        self.deltas.chunks_exact(8).map(move |c| {
            let bits = prev ^ u64::from_le_bytes(c.try_into().unwrap());
            prev = bits;
            f64::from_bits(bits)
        })
    }

    /// Interarrival times with the same convention as
    /// [`Stream::interarrivals`]: first event 0, later `(t - prev).max(0)`.
    pub fn interarrivals(&self) -> impl Iterator<Item = f64> + 'a {
        let mut prev: Option<f64> = None;
        self.timestamps().map(move |t| {
            let iat = match prev {
                Some(p) => (t - p).max(0.0),
                None => 0.0,
            };
            prev = Some(t);
            iat
        })
    }

    /// Materializes the stream, validating every event-type byte.
    pub fn to_stream(&self) -> Result<Stream, CtbError> {
        let mut events = Vec::with_capacity(self.len());
        let mut prev = 0u64;
        for (k, (&t, c)) in self.types.iter().zip(self.deltas.chunks_exact(8)).enumerate() {
            let event_type = EventType::from_index(t as usize)
                .filter(|et| et.exists_in(self.generation))
                .ok_or_else(|| {
                    CtbError::Corrupt(format!(
                        "{}: invalid event-type byte {t} at event {k}",
                        self.ue_id
                    ))
                })?;
            let bits = prev ^ u64::from_le_bytes(c.try_into().unwrap());
            prev = bits;
            events.push(Event {
                event_type,
                timestamp: f64::from_bits(bits),
            });
        }
        Ok(Stream {
            ue_id: self.ue_id,
            device_type: self.device_type,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpt-ctb-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn toy() -> Dataset {
        Dataset::new(vec![
            Stream::new(
                UeId(10),
                DeviceType::Phone,
                vec![
                    Event::new(EventType::Attach, 0.125),
                    Event::new(EventType::ServiceRequest, 3.5),
                    Event::new(EventType::ConnectionRelease, 3.5),
                ],
            ),
            Stream::new(UeId(11), DeviceType::ConnectedCar, vec![]),
            Stream::new(
                UeId(12),
                DeviceType::Tablet,
                vec![Event::new(EventType::TrackingAreaUpdate, 1e-300)],
            ),
        ])
    }

    fn write_bytes(d: &Dataset, tag: &str) -> Vec<u8> {
        let dir = tmpdir(tag);
        let path = dir.join("t.ctb");
        write_ctb(d, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    }

    #[test]
    fn roundtrip_bit_exact() {
        let d = toy();
        let dir = tmpdir("rt");
        let path = dir.join("t.ctb");
        let summary = write_ctb(&d, &path).unwrap();
        assert_eq!(summary.streams, 3);
        assert_eq!(summary.events, 4);
        assert_eq!(summary.bytes, std::fs::metadata(&path).unwrap().len());
        let r = ColumnarReader::open(&path).unwrap();
        assert_eq!(r.num_streams(), 3);
        assert_eq!(r.num_events(), 4);
        assert_eq!(r.generation(), Generation::Lte);
        r.verify().unwrap();
        let back = r.to_dataset().unwrap();
        assert_eq!(back, d);
        // Bit-exactness, not just PartialEq.
        for (a, b) in d.streams[0].events.iter().zip(&back.streams[0].events) {
            assert_eq!(a.timestamp.to_bits(), b.timestamp.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_views_and_prefix() {
        let d = toy();
        let r = ColumnarReader::from_bytes(write_bytes(&d, "view")).unwrap();
        let v = r.stream(0).unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v.ue_id(), UeId(10));
        assert_eq!(v.device_type(), DeviceType::Phone);
        let ts: Vec<f64> = v.timestamps().collect();
        assert_eq!(ts, vec![0.125, 3.5, 3.5]);
        let iats: Vec<f64> = v.interarrivals().collect();
        assert_eq!(iats, d.streams[0].interarrivals());
        let p = v.prefix(2);
        assert_eq!(p.to_stream().unwrap(), d.streams[0].truncated(2));
        assert!(r.stream(1).unwrap().is_empty());
        assert!(r.stream(3).is_none());
        assert_eq!(r.stream_meta(2).unwrap().len, 1);
        assert_eq!(r.device_stream_counts(), [1, 1, 1]);
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let d = Dataset::with_generation(Generation::Nr, vec![]);
        let r = ColumnarReader::from_bytes(write_bytes(&d, "empty")).unwrap();
        assert_eq!(r.num_streams(), 0);
        assert_eq!(r.generation(), Generation::Nr);
        r.verify().unwrap();
        assert_eq!(r.to_dataset().unwrap(), d);
    }

    #[test]
    fn multi_block_file() {
        // Enough events to force several blocks.
        let streams: Vec<Stream> = (0..40)
            .map(|i| {
                let events = (0..5000)
                    .map(|k| Event::new(EventType::ALL[k % 6], (i * 5000 + k) as f64 * 0.25))
                    .collect();
                Stream::new(UeId(i as u64), DeviceType::Phone, events)
            })
            .collect();
        let d = Dataset::new(streams);
        let r = ColumnarReader::from_bytes(write_bytes(&d, "blocks")).unwrap();
        assert!(r.num_blocks() > 1, "expected multiple blocks, got {}", r.num_blocks());
        r.verify().unwrap();
        assert_eq!(r.to_dataset().unwrap(), d);
    }

    #[test]
    fn rejects_nr_file_with_tau() {
        let d = Dataset::with_generation(
            Generation::Nr,
            vec![Stream::new(
                UeId(1),
                DeviceType::Phone,
                vec![Event::new(EventType::TrackingAreaUpdate, 1.0)],
            )],
        );
        let dir = tmpdir("nr-tau");
        let err = write_ctb(&d, dir.join("t.ctb")).unwrap_err();
        assert!(matches!(err, CtbError::InvalidStream(_)), "{err}");
        // The failed writer must not leave the temp file behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_before_finish_publishes_nothing() {
        let d = toy();
        let dir = tmpdir("crash");
        let path = dir.join("t.ctb");
        {
            let mut w = ColumnarWriter::create(&path, d.generation).unwrap();
            w.push_stream(&d.streams[0]).unwrap();
            // Dropped without finish(): simulated crash.
        }
        assert!(!path.exists());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_typed_error() {
        let bytes = write_bytes(&toy(), "trunc");
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            let err = ColumnarReader::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CtbError::Truncated { .. } | CtbError::Checksum { .. } | CtbError::Corrupt(_)
                ),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn bitflips_are_typed_errors() {
        let bytes = write_bytes(&toy(), "flip");
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            let reader = ColumnarReader::from_bytes(bad);
            let outcome = reader.and_then(|r| {
                r.verify()?;
                r.to_dataset()?;
                Ok(())
            });
            assert!(outcome.is_err(), "bit flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let bytes = write_bytes(&toy(), "magic");
        let mut bad = bytes.clone();
        bad[0..8].copy_from_slice(b"notctb00");
        assert!(matches!(
            ColumnarReader::from_bytes(bad).unwrap_err(),
            CtbError::BadHeader(_)
        ));
        // A version bump with a re-sealed header checksum must still be
        // rejected as unsupported, not as a checksum error.
        let mut bumped = bytes.clone();
        bumped[8..12].copy_from_slice(&2u32.to_le_bytes());
        let hc = fnv1a(&bumped[0..56]);
        bumped[56..64].copy_from_slice(&hc.to_le_bytes());
        assert!(matches!(
            ColumnarReader::from_bytes(bumped).unwrap_err(),
            CtbError::BadHeader(_)
        ));
    }

    #[test]
    fn nan_and_negative_zero_roundtrip() {
        let d = Dataset::new(vec![Stream {
            ue_id: UeId(1),
            device_type: DeviceType::Phone,
            events: vec![
                Event::new(EventType::Attach, -0.0),
                Event::new(EventType::Detach, f64::NAN),
            ],
        }]);
        let r = ColumnarReader::from_bytes(write_bytes(&d, "nan")).unwrap();
        let back = r.to_dataset().unwrap();
        let bits: Vec<u64> = back.streams[0].events.iter().map(|e| e.timestamp.to_bits()).collect();
        assert_eq!(bits[0], (-0.0f64).to_bits());
        assert_eq!(bits[1], f64::NAN.to_bits());
    }
}
