//! Seeded damage to files and text, for the fault-tolerance tests. The same
//! seed always damages the same bytes, so a test can assert on the
//! recovery rather than hope to observe one.

use rand::splitmix64;
use std::fs;
use std::io;
use std::path::Path;

/// Flip one bit in each of `n_flips` seed-chosen bytes of the file at
/// `path`, in place. Deterministic: the same (file length, seed, n_flips)
/// always damages the same offsets. Returns the offsets touched.
pub fn corrupt_file_bytes(path: &Path, seed: u64, n_flips: usize) -> io::Result<Vec<usize>> {
    let mut bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    let mut state = seed ^ bytes.len() as u64;
    let mut offsets = Vec::with_capacity(n_flips);
    for _ in 0..n_flips {
        state = splitmix64(state);
        let off = (state % bytes.len() as u64) as usize;
        state = splitmix64(state);
        let bit = (state % 8) as u8;
        bytes[off] ^= 1 << bit;
        offsets.push(off);
    }
    fs::write(path, &bytes)?;
    Ok(offsets)
}

/// Truncate the file at `path` to `keep_fraction` of its length (clamped to
/// `[0, 1]`), simulating a write cut short by a crash or full disk.
pub fn truncate_file(path: &Path, keep_fraction: f64) -> io::Result<()> {
    let bytes = fs::read(path)?;
    let keep = ((bytes.len() as f64) * keep_fraction.clamp(0.0, 1.0)) as usize;
    fs::write(path, &bytes[..keep])
}

/// Mangle line `line_idx` (0-based) of a JSONL text by chopping it mid-way
/// and appending garbage, returning the damaged text. Lines out of range
/// leave the text unchanged.
pub fn malform_jsonl_line(text: &str, line_idx: usize) -> String {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            if i == line_idx {
                let cut = line.len() / 2;
                format!("{}<<corrupt>>", &line[..cut])
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scratch;

    #[test]
    fn corruption_is_deterministic() {
        let dir = Scratch::new("faults-det");
        let a = dir.path("a.bin");
        let b = dir.path("b.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        fs::write(&a, &payload).expect("write a");
        fs::write(&b, &payload).expect("write b");
        let offs_a = corrupt_file_bytes(&a, 42, 5).expect("corrupt a");
        let offs_b = corrupt_file_bytes(&b, 42, 5).expect("corrupt b");
        assert_eq!(offs_a, offs_b);
        assert_eq!(fs::read(&a).expect("read a"), fs::read(&b).expect("read b"));
        assert_ne!(fs::read(&a).expect("read a"), payload);
    }

    #[test]
    fn truncation_shortens_file() {
        let dir = Scratch::new("faults-trunc");
        let p = dir.path("t.bin");
        fs::write(&p, vec![7u8; 100]).expect("write");
        truncate_file(&p, 0.25).expect("truncate");
        assert_eq!(fs::read(&p).expect("read").len(), 25);
    }

    #[test]
    fn malform_hits_only_requested_line() {
        let text = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n";
        let out = malform_jsonl_line(text, 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "{\"a\":1}");
        assert!(lines[1].contains("<<corrupt>>"));
        assert_eq!(lines[2], "{\"c\":3}");
    }
}
