//! `.cmb` — the binary model bundle: one JSON metadata section plus named
//! `f32` tensors, verified on open.
//!
//! Every model artifact of the workspace is a `.cmb`: `cptgen train`'s
//! output, training checkpoints (with their Adam moments), the model
//! registry's versions and the experiment suite's caches. The metadata
//! section holds what is not a tensor (configuration, tokenizer, scalars)
//! as [`crate::json`]; the tensors are raw little-endian `f32`, so a model
//! reads back bit for bit with no float formatting in between.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! [ 0 .. 64)   header: magic "cpt-cmb\0" | version u32 | pad[4]
//!              file_len u64 | meta_len u64 | num_tensors u64
//!              body_checksum u64 | pad[8] | header_checksum u64
//! [64 .. )     body: metadata JSON (meta_len bytes), zero-padded to 8;
//!              then per tensor: name_len u32 | rank u32 | name bytes,
//!              zero-padded to 8 | dims u64 × rank | data f32 × Π dims,
//!              zero-padded to 8
//! ```
//!
//! The integrity scheme is `.ctb`'s: an FNV-1a/64 checksum over the header
//! and one over the body, checked before any field is trusted, and the
//! file is published through the crate's fsync-rename commit
//! (`crate::atomic`). A truncated, bit-flipped or foreign file is a
//! typed [`CmbError`], never a panic and never an oversized allocation.

use crate::atomic::AtomicFile;
use crate::columnar::fnv1a;
use crate::json::{self, Value};
use std::collections::HashSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic bytes at offset 0 of every `.cmb` file.
pub const MAGIC: [u8; 8] = *b"cpt-cmb\0";
/// Current format version.
pub const VERSION: u32 = 1;
/// Header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Tensors of higher rank are rejected as corrupt.
const MAX_RANK: usize = 8;

/// Errors raised reading or writing a `.cmb` file.
#[derive(Debug)]
pub enum CmbError {
    /// Underlying filesystem error, with the path involved.
    Io {
        /// File being read or written.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// Not a `.cmb` file, or an unsupported version. A JSON model from a
    /// build older than the format lands here, with a hint to retrain it.
    BadHeader(String),
    /// The file is shorter or longer than its header says.
    Truncated {
        /// Bytes the header promises.
        need: u64,
        /// Bytes present.
        have: u64,
    },
    /// A checksum mismatch in the named region (`"header"` or `"body"`).
    Checksum(&'static str),
    /// The body's structure or metadata is invalid.
    Corrupt(String),
}

impl std::fmt::Display for CmbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmbError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            CmbError::BadHeader(msg) => write!(f, "bad cmb header: {msg}"),
            CmbError::Truncated { need, have } => {
                write!(
                    f,
                    "truncated cmb: header promises {need} bytes, file has {have}"
                )
            }
            CmbError::Checksum(what) => write!(f, "cmb checksum mismatch in {what}"),
            CmbError::Corrupt(msg) => write!(f, "corrupt cmb: {msg}"),
        }
    }
}

impl std::error::Error for CmbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CmbError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One named tensor: row-major `f32` data of the given shape.
#[derive(Debug, Clone, PartialEq)]
pub struct CmbTensor {
    /// Unique name within the bundle.
    pub name: String,
    /// Dimensions.
    pub shape: Vec<usize>,
    /// `shape.iter().product()` values.
    pub data: Vec<f32>,
}

/// A model bundle in memory: metadata plus tensors, in write order.
#[derive(Debug, Clone, PartialEq)]
pub struct Cmb {
    /// The metadata section.
    pub meta: Value,
    /// The tensors.
    pub tensors: Vec<CmbTensor>,
}

fn pad8(out: &mut Vec<u8>) {
    out.resize(out.len().next_multiple_of(8), 0);
}

impl Cmb {
    /// An empty bundle with the given metadata.
    pub fn new(meta: Value) -> Self {
        Cmb {
            meta,
            tensors: Vec::new(),
        }
    }

    /// Appends a tensor (copying `data`).
    pub fn push(&mut self, name: impl Into<String>, shape: &[usize], data: &[f32]) {
        debug_assert_eq!(shape.iter().product::<usize>(), data.len());
        self.tensors.push(CmbTensor {
            name: name.into(),
            shape: shape.to_vec(),
            data: data.to_vec(),
        });
    }

    /// The tensors whose names start with `prefix`, with the prefix
    /// stripped: how one bundle holds several models.
    pub fn section<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a CmbTensor)> {
        self.tensors
            .iter()
            .filter_map(move |t| t.name.strip_prefix(prefix).map(|rest| (rest, t)))
    }

    /// The file image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; HEADER_LEN];
        let meta = self.meta.to_compact();
        out.extend_from_slice(meta.as_bytes());
        pad8(&mut out);
        for t in &self.tensors {
            out.extend_from_slice(&(t.name.len() as u32).to_le_bytes());
            out.extend_from_slice(&(t.shape.len() as u32).to_le_bytes());
            out.extend_from_slice(t.name.as_bytes());
            pad8(&mut out);
            for &d in &t.shape {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            out.reserve(t.data.len() * 4);
            for &x in &t.data {
                out.extend_from_slice(&x.to_le_bytes());
            }
            pad8(&mut out);
        }
        let body_checksum = fnv1a(&out[HEADER_LEN..]);
        let file_len = out.len() as u64;
        let h = &mut out[..HEADER_LEN];
        h[0..8].copy_from_slice(&MAGIC);
        h[8..12].copy_from_slice(&VERSION.to_le_bytes());
        h[16..24].copy_from_slice(&file_len.to_le_bytes());
        h[24..32].copy_from_slice(&(meta.len() as u64).to_le_bytes());
        h[32..40].copy_from_slice(&(self.tensors.len() as u64).to_le_bytes());
        h[40..48].copy_from_slice(&body_checksum.to_le_bytes());
        let header_checksum = fnv1a(&h[..56]);
        h[56..64].copy_from_slice(&header_checksum.to_le_bytes());
        out
    }

    /// Writes the bundle to `path` atomically (temp file, fsync, rename,
    /// fsync of the directory).
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), CmbError> {
        let path = path.as_ref();
        let io = |source| CmbError::Io {
            path: path.to_owned(),
            source,
        };
        let mut file = AtomicFile::create(path).map_err(io)?;
        file.writer().write_all(&self.to_bytes()).map_err(io)?;
        file.commit().map_err(io)
    }

    /// Reads and verifies the bundle at `path`.
    pub fn read(path: impl AsRef<Path>) -> Result<Cmb, CmbError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|source| CmbError::Io {
            path: path.to_owned(),
            source,
        })?;
        Cmb::from_bytes(&bytes)
    }

    /// Verifies and decodes a file image: header checksum, length, body
    /// checksum, then every field bounds-checked against the bytes present.
    pub fn from_bytes(bytes: &[u8]) -> Result<Cmb, CmbError> {
        if bytes.len() < HEADER_LEN || bytes[0..8] != MAGIC {
            let hint = if bytes.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'{') {
                "this is a JSON model written before models became .cmb files; \
                 retrain it (there is no converter)"
            } else {
                "not a .cmb model file"
            };
            return Err(CmbError::BadHeader(hint.into()));
        }
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap_or([0; 8]));
        if fnv1a(&bytes[..56]) != u64_at(56) {
            return Err(CmbError::Checksum("header"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap_or([0; 4]));
        if version != VERSION {
            return Err(CmbError::BadHeader(format!(
                "unsupported version {version} (this build reads {VERSION})"
            )));
        }
        let (file_len, meta_len, num_tensors) = (u64_at(16), u64_at(24), u64_at(32));
        if file_len != bytes.len() as u64 {
            return Err(CmbError::Truncated {
                need: file_len,
                have: bytes.len() as u64,
            });
        }
        if fnv1a(&bytes[HEADER_LEN..]) != u64_at(40) {
            return Err(CmbError::Checksum("body"));
        }
        let mut r = Reader {
            bytes,
            pos: HEADER_LEN,
        };
        let meta_bytes = r.take(meta_len, "metadata")?;
        let meta_text = std::str::from_utf8(meta_bytes)
            .map_err(|_| CmbError::Corrupt("metadata is not UTF-8".into()))?;
        let meta =
            json::parse(meta_text).map_err(|e| CmbError::Corrupt(format!("metadata: {e}")))?;
        r.align()?;
        // Every tensor takes at least 8 bytes, which bounds the count
        // before anything is allocated for it.
        if num_tensors > (bytes.len() / 8) as u64 {
            return Err(CmbError::Corrupt(format!(
                "{num_tensors} tensors cannot fit"
            )));
        }
        let mut tensors: Vec<CmbTensor> = Vec::with_capacity(num_tensors as usize);
        let mut names = HashSet::with_capacity(num_tensors as usize);
        for _ in 0..num_tensors {
            let name_len = u64::from(r.u32()?);
            let rank = r.u32()? as usize;
            if rank > MAX_RANK {
                return Err(CmbError::Corrupt(format!("tensor rank {rank}")));
            }
            let name = std::str::from_utf8(r.take(name_len, "tensor name")?)
                .map_err(|_| CmbError::Corrupt("tensor name is not UTF-8".into()))?;
            r.align()?;
            if !names.insert(name) {
                return Err(CmbError::Corrupt(format!("duplicate tensor {name:?}")));
            }
            let mut shape = Vec::with_capacity(rank);
            let mut len = 1u64;
            for _ in 0..rank {
                let d = r.u64()?;
                len = len
                    .checked_mul(d)
                    .ok_or_else(|| CmbError::Corrupt(format!("tensor {name:?} is too large")))?;
                shape.push(
                    usize::try_from(d)
                        .map_err(|_| CmbError::Corrupt(format!("tensor {name:?} is too large")))?,
                );
            }
            let raw = len
                .checked_mul(4)
                .ok_or_else(|| CmbError::Corrupt(format!("tensor {name:?} is too large")))?;
            let data = r
                .take(raw, "tensor data")?
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            r.align()?;
            tensors.push(CmbTensor {
                name: name.to_owned(),
                shape,
                data,
            });
        }
        if r.pos != bytes.len() {
            return Err(CmbError::Corrupt(format!(
                "{} bytes after the last tensor",
                bytes.len() - r.pos
            )));
        }
        Ok(Cmb { meta, tensors })
    }
}

/// A bounds-checked cursor over the body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: u64, what: &str) -> Result<&'a [u8], CmbError> {
        let left = (self.bytes.len() - self.pos) as u64;
        if n > left {
            return Err(CmbError::Corrupt(format!(
                "{what} needs {n} bytes, {left} remain"
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n as usize];
        self.pos += n as usize;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, CmbError> {
        let b = self.take(4, "tensor header")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CmbError> {
        let b = self.take(8, "tensor dims")?;
        Ok(u64::from_le_bytes(b.try_into().unwrap_or([0; 8])))
    }

    /// Skips the zero padding to the next 8-byte boundary.
    fn align(&mut self) -> Result<(), CmbError> {
        let pad = self.pos.next_multiple_of(8) - self.pos;
        if self.take(pad as u64, "padding")?.iter().any(|&b| b != 0) {
            return Err(CmbError::Corrupt("non-zero padding".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cmb {
        let mut c = Cmb::new(Value::obj([
            ("kind", Value::str("test")),
            ("seed", Value::U64(u64::MAX)),
        ]));
        c.push(
            "a.w",
            &[2, 3],
            &[1.0, -2.5, f32::MIN_POSITIVE, 0.0, -0.0, 7.0],
        );
        c.push("a.b", &[3], &[0.1, 0.2, 0.3]);
        c.push("scalar", &[], &[42.0]);
        c.push("empty", &[0, 4], &[]);
        c
    }

    #[test]
    fn round_trips_bit_for_bit_through_a_file() {
        let c = sample();
        let dir = std::env::temp_dir().join(format!("cpt-cmb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.cmb");
        c.write(&path).unwrap();
        let back = Cmb::read(&path).unwrap();
        assert_eq!(back.meta, c.meta);
        assert_eq!(back.tensors.len(), 4);
        for (a, b) in c.tensors.iter().zip(&back.tensors) {
            assert_eq!((&a.name, &a.shape), (&b.name, &b.shape));
            let bits = |t: &CmbTensor| t.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
        assert_eq!(
            back.to_bytes(),
            std::fs::read(&path).unwrap(),
            "re-encoding is stable"
        );
        assert!(!dir.join("m.cmb.tmp").exists());
        let names: Vec<_> = back.section("a.").map(|(n, _)| n).collect();
        assert_eq!(names, ["w", "b"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_and_bit_flip_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Cmb::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for pos in 0..bytes.len() {
            for bit in [0, 5] {
                let mut b = bytes.clone();
                b[pos] ^= 1 << bit;
                assert!(Cmb::from_bytes(&b).is_err(), "flip at {pos} bit {bit}");
            }
        }
        let mut longer = bytes.clone();
        longer.extend_from_slice(&[0; 8]);
        assert!(matches!(
            Cmb::from_bytes(&longer),
            Err(CmbError::Truncated { .. })
        ));
    }

    #[test]
    fn a_json_model_is_told_to_retrain() {
        match Cmb::from_bytes(b"{\"config\":{}}") {
            Err(CmbError::BadHeader(msg)) => assert!(msg.contains("retrain"), "{msg}"),
            other => panic!("expected BadHeader, got {other:?}"),
        }
        assert!(matches!(
            Cmb::from_bytes(b"cpt-ctb\0"),
            Err(CmbError::BadHeader(_))
        ));
    }

    /// A forged file whose checksums are consistent but whose fields lie
    /// is still rejected before any allocation the bytes cannot back.
    #[test]
    fn forged_sizes_are_rejected() {
        let reseal = |mut b: Vec<u8>| {
            let body = fnv1a(&b[HEADER_LEN..]);
            b[40..48].copy_from_slice(&body.to_le_bytes());
            let h = fnv1a(&b[..56]);
            b[56..64].copy_from_slice(&h.to_le_bytes());
            b
        };
        let good = sample().to_bytes();
        let meta_len = u64::from_le_bytes(good[24..32].try_into().unwrap()) as usize;
        let first = HEADER_LEN + meta_len.next_multiple_of(8);
        // A dimension of 2^62.
        let mut b = good.clone();
        let dims = first + 8 + 8; // after name_len, rank and the padded "a.w"
        b[dims..dims + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        assert!(matches!(
            Cmb::from_bytes(&reseal(b)),
            Err(CmbError::Corrupt(_))
        ));
        // A tensor count the file cannot hold.
        let mut b = good.clone();
        b[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Cmb::from_bytes(&reseal(b)),
            Err(CmbError::Corrupt(_))
        ));
        // Two tensors with one name.
        let mut c = sample();
        c.tensors[1].name = "a.w".into();
        assert!(matches!(
            Cmb::from_bytes(&c.to_bytes()),
            Err(CmbError::Corrupt(_))
        ));
        // As many distinct names as a few megabytes hold: the duplicate
        // check is linear (comparing every pair would take minutes), and a
        // repeat at the very end is still found.
        let mut c = Cmb::new(Value::Null);
        for i in 0..200_000 {
            c.push(format!("t{i}"), &[0], &[]);
        }
        let start = std::time::Instant::now();
        assert_eq!(
            Cmb::from_bytes(&c.to_bytes()).unwrap().tensors.len(),
            200_000
        );
        c.push("t0", &[0], &[]);
        assert!(matches!(
            Cmb::from_bytes(&c.to_bytes()),
            Err(CmbError::Corrupt(_))
        ));
        let took = start.elapsed();
        assert!(took.as_secs() < 5, "200 000 names took {took:?}");
    }
}
