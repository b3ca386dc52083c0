//! Checkpoint save/load for [`ParamStore`]s.
//!
//! Checkpoints are JSON with explicit names and shapes so that transfer
//! learning (load a model trained on one hour, fine-tune on another — §4.4
//! Design 3) can verify architecture compatibility instead of silently
//! mis-assigning weights.

use crate::layers::ParamStore;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Errors arising from checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(std::io::Error),
    /// Malformed JSON.
    Json(serde_json::Error),
    /// The checkpoint's parameters do not match the target store.
    Mismatch(String),
    /// The checkpoint parsed but holds unusable weights: a tensor whose
    /// data length disagrees with its shape, or a non-finite value.
    /// Loading such a store would not fail immediately — it would train
    /// and generate garbage — so it is rejected at the door.
    Invalid(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Json(e) => write!(f, "checkpoint json error: {e}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::Invalid(m) => write!(f, "invalid checkpoint weights: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Json(e)
    }
}

/// Writes `store` to `w` as JSON.
pub fn save_store(store: &ParamStore, w: &mut impl Write) -> Result<(), CheckpointError> {
    serde_json::to_writer(w, store)?;
    Ok(())
}

/// Serializes `value` as JSON to `path` atomically: the bytes land in a
/// temp file in the same directory, are synced, and only then renamed over
/// `path`, after which the directory is synced so the new name survives
/// power loss. A crash mid-write leaves either the old file or nothing at
/// the destination — never a half-written checkpoint. The temp file is
/// cleaned up on failure.
pub fn atomic_write_json<T: serde::Serialize>(
    value: &T,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    // Rename is only atomic within a filesystem, so the temp file must live
    // in the destination directory.
    let tmp: PathBuf = {
        let mut name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "checkpoint".into());
        name.push(format!(".tmp.{}", std::process::id()));
        path.with_file_name(name)
    };
    let write_result = (|| -> Result<(), CheckpointError> {
        let file = File::create(&tmp)?;
        let mut w = BufWriter::new(file);
        serde_json::to_writer(&mut w, value)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        drop(w);
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if let Err(e) = write_result {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    // The rename is durable only once the directory entry is. Directories
    // cannot be opened as files on non-unix targets.
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// Writes `store` to a file atomically (temp file + rename).
pub fn save_store_to_path(
    store: &ParamStore,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    atomic_write_json(store, path)
}

/// Deterministic FNV-1a/64 checksum of a store's contents: every
/// parameter's name, shape, and exact f32 bit pattern, in registration
/// order. Two stores hash equal iff they are bit-identical, so the value
/// doubles as an integrity header for model artifacts: a truncated or
/// bit-flipped weight changes the checksum even when the JSON still
/// parses and every value stays finite.
pub fn store_checksum(store: &ParamStore) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for id in store.ids() {
        eat(store.name(id).as_bytes());
        let t = store.value(id);
        eat(&(t.shape.len() as u64).to_le_bytes());
        for &d in &t.shape {
            eat(&(d as u64).to_le_bytes());
        }
        eat(&(t.data.len() as u64).to_le_bytes());
        for &v in &t.data {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Validates every tensor of `store`: the data length must equal the shape
/// product and every value must be finite. A store that fails this check
/// came from a corrupt/truncated file or a diverged run and must not be
/// loaded — NaN weights propagate through every forward pass silently.
pub fn validate_store(store: &ParamStore) -> Result<(), CheckpointError> {
    for id in store.ids() {
        let t = store.value(id);
        let expected: usize = t.shape.iter().product();
        if t.data.len() != expected {
            return Err(CheckpointError::Invalid(format!(
                "tensor {:?} has {} values but shape {:?} implies {expected}",
                store.name(id),
                t.data.len(),
                t.shape
            )));
        }
        if let Some(pos) = t.data.iter().position(|v| !v.is_finite()) {
            return Err(CheckpointError::Invalid(format!(
                "tensor {:?} has non-finite value {} at index {pos}",
                store.name(id),
                t.data[pos]
            )));
        }
    }
    Ok(())
}

/// Reads a full store from `r` (for loading a model whose architecture is
/// reconstructed from config), rejecting stores with non-finite or
/// mis-shaped weights.
pub fn load_store(r: &mut impl Read) -> Result<ParamStore, CheckpointError> {
    let store: ParamStore = serde_json::from_reader(r)?;
    validate_store(&store)?;
    Ok(store)
}

/// Reads a store from a file.
pub fn load_store_from_path(path: impl AsRef<Path>) -> Result<ParamStore, CheckpointError> {
    let mut r = BufReader::new(File::open(path)?);
    load_store(&mut r)
}

/// Copies the values of `source` into `target`, matching parameters by
/// name and verifying shapes. This is the transfer-learning entry point:
/// `target` is a freshly constructed model (so layer objects hold valid
/// [`crate::layers::ParamId`]s) and `source` provides pretrained weights.
pub fn load_weights_into(
    target: &mut ParamStore,
    source: &ParamStore,
) -> Result<(), CheckpointError> {
    validate_store(source)?;
    if target.num_tensors() != source.num_tensors() {
        return Err(CheckpointError::Mismatch(format!(
            "parameter count {} vs {}",
            target.num_tensors(),
            source.num_tensors()
        )));
    }
    for id in target.ids() {
        let name = target.name(id).to_owned();
        let src = source
            .params
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| CheckpointError::Mismatch(format!("missing parameter {name:?}")))?;
        if src.value.shape != target.value(id).shape {
            return Err(CheckpointError::Mismatch(format!(
                "shape of {name:?}: {:?} vs {:?}",
                target.value(id).shape,
                src.value.shape
            )));
        }
        *target.value_mut(id) = src.value.clone();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn store() -> ParamStore {
        let mut s = ParamStore::new();
        s.add("layer.w", Tensor::new(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]));
        s.add("layer.b", Tensor::new(vec![0.5, -0.5], vec![2]));
        s
    }

    #[test]
    fn save_load_roundtrip() {
        let s = store();
        let mut buf = Vec::new();
        save_store(&s, &mut buf).unwrap();
        let back = load_store(&mut buf.as_slice()).unwrap();
        assert_eq!(back.num_tensors(), 2);
        assert_eq!(back.value(back.ids()[0]).data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn file_roundtrip() {
        let s = store();
        let dir = std::env::temp_dir().join(format!("cpt-nn-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        save_store_to_path(&s, &path).unwrap();
        let back = load_store_from_path(&path).unwrap();
        assert_eq!(back.num_params(), s.num_params());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_weights_into_matches_by_name() {
        let mut target = ParamStore::new();
        // Register in a different order than the source.
        let b = target.add("layer.b", Tensor::zeros(&[2]));
        let w = target.add("layer.w", Tensor::zeros(&[2, 2]));
        load_weights_into(&mut target, &store()).unwrap();
        assert_eq!(target.value(w).data, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(target.value(b).data, vec![0.5, -0.5]);
    }

    #[test]
    fn load_weights_rejects_shape_mismatch() {
        let mut target = ParamStore::new();
        target.add("layer.w", Tensor::zeros(&[3, 2]));
        target.add("layer.b", Tensor::zeros(&[2]));
        assert!(matches!(
            load_weights_into(&mut target, &store()),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn atomic_write_leaves_no_temp_files_and_replaces_existing() {
        let s = store();
        let dir = std::env::temp_dir().join(format!("cpt-nn-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        std::fs::write(&path, b"stale previous checkpoint").unwrap();
        atomic_write_json(&s, &path).unwrap();
        let back = load_store_from_path(&path).unwrap();
        assert_eq!(back.num_params(), s.num_params());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_atomic_write_keeps_the_old_file_and_removes_its_temp() {
        let s = store();
        let dir = std::env::temp_dir().join(format!("cpt-nn-atomic-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        atomic_write_json(&s, &path).unwrap();
        let committed = std::fs::read(&path).unwrap();
        // Wedge the temp path with a directory so the next write fails
        // before it can touch the destination.
        let wedge = dir.join(format!("model.json.tmp.{}", std::process::id()));
        std::fs::create_dir(&wedge).unwrap();
        assert!(matches!(atomic_write_json(&s, &path), Err(CheckpointError::Io(_))));
        std::fs::remove_dir(&wedge).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), committed);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["model.json"], "only the committed file remains");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_checksum_is_stable_and_sensitive() {
        let s = store();
        let a = store_checksum(&s);
        assert_eq!(a, store_checksum(&store()), "checksum must be deterministic");
        let mut flipped = store();
        let id = flipped.ids()[0];
        let bits = flipped.value(id).data[2].to_bits() ^ 1;
        flipped.value_mut(id).data[2] = f32::from_bits(bits);
        assert_ne!(a, store_checksum(&flipped), "single-bit flip must change checksum");
        let mut truncated = store();
        let id = truncated.ids()[0];
        truncated.value_mut(id).data.pop();
        assert_ne!(a, store_checksum(&truncated), "truncation must change checksum");
    }

    #[test]
    fn load_rejects_non_finite_weights() {
        let mut s = store();
        let id = s.ids()[0];
        s.value_mut(id).data[1] = f32::NAN;
        let mut buf = Vec::new();
        serde_json::to_writer(&mut buf, &s).unwrap();
        assert!(matches!(
            load_store(&mut buf.as_slice()),
            Err(CheckpointError::Invalid(_))
        ));
        let mut target = ParamStore::new();
        target.add("layer.w", Tensor::zeros(&[2, 2]));
        target.add("layer.b", Tensor::zeros(&[2]));
        assert!(matches!(
            load_weights_into(&mut target, &s),
            Err(CheckpointError::Invalid(_))
        ));
    }

    #[test]
    fn load_rejects_shape_data_disagreement() {
        let mut s = store();
        let id = s.ids()[0];
        // Truncate the data behind the shape's back, as a torn write would.
        s.value_mut(id).data.pop();
        let mut buf = Vec::new();
        serde_json::to_writer(&mut buf, &s).unwrap();
        assert!(matches!(
            load_store(&mut buf.as_slice()),
            Err(CheckpointError::Invalid(_))
        ));
    }

    #[test]
    fn load_weights_rejects_missing_name() {
        let mut target = ParamStore::new();
        target.add("other.w", Tensor::zeros(&[2, 2]));
        target.add("layer.b", Tensor::zeros(&[2]));
        assert!(matches!(
            load_weights_into(&mut target, &store()),
            Err(CheckpointError::Mismatch(_))
        ));
    }
}
