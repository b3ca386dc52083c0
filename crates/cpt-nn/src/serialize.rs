//! Checkpoint helpers for [`ParamStore`]s: the weight checksum, load-time
//! validation, name-matched weight transfer, and the one mapping between a
//! store and a section of a `.cmb` model file ([`cpt_trace::cmb`]).
//!
//! Model files store tensors with explicit names and shapes. Loading builds
//! the model afresh and copies the stored tensors in by name
//! ([`load_section_into`], the file side of [`load_weights_into`]), so a
//! file whose architecture does not match its configuration is a typed
//! error, and transfer learning (load a model trained on one hour,
//! fine-tune on another — §4.4 Design 3) verifies compatibility instead of
//! silently mis-assigning weights.

use crate::layers::ParamStore;
use crate::tensor::Tensor;
use cpt_trace::cmb::Cmb;
use cpt_trace::columnar::{fnv1a, fnv1a_continue};
use std::collections::HashMap;

/// Errors arising from checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
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
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::Invalid(m) => write!(f, "invalid checkpoint weights: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Deterministic FNV-1a/64 checksum of a store's contents: every
/// parameter's name, shape, and exact f32 bit pattern, in registration
/// order. Two stores hash equal iff they are bit-identical, so the value
/// doubles as an integrity header for model artifacts: a truncated or
/// bit-flipped weight changes the checksum even when every value stays
/// finite.
pub fn store_checksum(store: &ParamStore) -> u64 {
    let mut h = fnv1a(&[]);
    let mut eat = |bytes: &[u8]| h = fnv1a_continue(h, bytes);
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

/// The check every loaded tensor passes: the data length must equal the
/// shape product and every value must be finite. A tensor that fails it
/// came from a corrupt/truncated file or a diverged run and must not be
/// loaded — NaN weights propagate through every forward pass silently.
fn validate_tensor(name: &str, shape: &[usize], data: &[f32]) -> Result<(), CheckpointError> {
    let expected: usize = shape.iter().product();
    if data.len() != expected {
        return Err(CheckpointError::Invalid(format!(
            "tensor {name:?} has {} values but shape {shape:?} implies {expected}",
            data.len()
        )));
    }
    if let Some(pos) = data.iter().position(|v| !v.is_finite()) {
        return Err(CheckpointError::Invalid(format!(
            "tensor {name:?} has non-finite value {} at index {pos}",
            data[pos]
        )));
    }
    Ok(())
}

/// Copies the values of `source` into `target`, matching parameters by
/// name and verifying shapes. This is the transfer-learning entry point:
/// `target` is a freshly constructed model (so layer objects hold valid
/// [`crate::layers::ParamId`]s) and `source` provides pretrained weights.
pub fn load_weights_into(
    target: &mut ParamStore,
    source: &ParamStore,
) -> Result<(), CheckpointError> {
    let named = source.params.iter();
    load_named(
        target,
        named.map(|p| (&*p.name, &*p.value.shape, &*p.value.data)),
    )
}

/// Copies the tensors of `cmb` named `prefix` + parameter name into
/// `target`, with [`load_weights_into`]'s checks: every parameter present
/// with its shape, no other tensor in the section, finite values only.
pub fn load_section_into(
    target: &mut ParamStore,
    cmb: &Cmb,
    prefix: &str,
) -> Result<(), CheckpointError> {
    let named = cmb.section(prefix);
    load_named(target, named.map(|(name, t)| (name, &*t.shape, &*t.data)))
}

/// Scalar values in the tensors of `cmb` named `prefix` + anything: what a
/// loader checks a configuration against before building a model from it.
pub fn section_params(cmb: &Cmb, prefix: &str) -> usize {
    cmb.section(prefix).map(|(_, t)| t.data.len()).sum()
}

/// Appends `values`, one per parameter of `store` in registration order,
/// to `cmb` as tensors named `prefix` + parameter name: the weights
/// themselves ([`push_store`]) or per-parameter state such as an
/// optimizer's moments.
pub fn push_per_param<'a>(
    cmb: &mut Cmb,
    prefix: &str,
    store: &ParamStore,
    values: impl IntoIterator<Item = &'a Tensor>,
) {
    for (p, t) in store.params.iter().zip(values) {
        cmb.push(format!("{prefix}{}", p.name), &t.shape, &t.data);
    }
}

/// Appends every weight of `store` to `cmb` as a tensor named `prefix` +
/// its parameter name (read back by [`load_section_into`]).
pub fn push_store(cmb: &mut Cmb, prefix: &str, store: &ParamStore) {
    push_per_param(cmb, prefix, store, store.params.iter().map(|p| &p.value));
}

/// The loader behind [`load_weights_into`] and [`load_section_into`]:
/// validates every source tensor, then matches them to `target`'s
/// parameters by name through a map, so the work is linear in the
/// source's size whatever a forged file holds.
fn load_named<'a>(
    target: &mut ParamStore,
    source: impl Iterator<Item = (&'a str, &'a [usize], &'a [f32])>,
) -> Result<(), CheckpointError> {
    // Names are unique in both sources: `ParamStore::add` and
    // `Cmb::from_bytes` refuse a repeat.
    let mut by_name = HashMap::new();
    for (name, shape, data) in source {
        validate_tensor(name, shape, data)?;
        by_name.insert(name, (shape, data));
    }
    if target.num_tensors() != by_name.len() {
        return Err(CheckpointError::Mismatch(format!(
            "parameter count {} vs {}",
            target.num_tensors(),
            by_name.len()
        )));
    }
    for id in target.ids() {
        let name = target.name(id);
        let &(shape, data) = by_name
            .get(name)
            .ok_or_else(|| CheckpointError::Mismatch(format!("missing parameter {name:?}")))?;
        if shape != target.value(id).shape {
            return Err(CheckpointError::Mismatch(format!(
                "shape of {name:?}: {:?} vs {shape:?}",
                target.value(id).shape
            )));
        }
        *target.value_mut(id) = Tensor::new(data.to_vec(), shape.to_vec());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamStore {
        let mut s = ParamStore::new();
        s.add("layer.w", Tensor::new(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]));
        s.add("layer.b", Tensor::new(vec![0.5, -0.5], vec![2]));
        s
    }

    /// Every tensor of `store` through the load path's check.
    fn validate_store(store: &ParamStore) -> Result<(), CheckpointError> {
        for p in &store.params {
            validate_tensor(&p.name, &p.value.shape, &p.value.data)?;
        }
        Ok(())
    }

    #[test]
    fn a_store_round_trips_through_a_cmb_section() {
        let mut cmb = Cmb::new(cpt_trace::json::Value::Null);
        push_store(&mut cmb, "m/", &store());
        let doubled: Vec<Tensor> = store()
            .params
            .iter()
            .map(|p| {
                Tensor::new(
                    p.value.data.iter().map(|x| 2.0 * x).collect(),
                    p.value.shape.clone(),
                )
            })
            .collect();
        push_per_param(&mut cmb, "x2/", &store(), &doubled);
        let cmb = Cmb::from_bytes(&cmb.to_bytes()).unwrap();
        assert_eq!(section_params(&cmb, "m/"), 6);
        // Registered in another order than the file's.
        let mut target = ParamStore::new();
        let b = target.add("layer.b", Tensor::zeros(&[2]));
        let w = target.add("layer.w", Tensor::zeros(&[2, 2]));
        load_section_into(&mut target, &cmb, "m/").unwrap();
        assert_eq!(target.value(w).data, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(target.value(b).data, vec![0.5, -0.5]);
        load_section_into(&mut target, &cmb, "x2/").unwrap();
        assert_eq!(target.value(w).data, vec![2.0, 4.0, 6.0, 8.0]);
        // The section "" holds all four tensors: not this store.
        assert!(matches!(
            load_section_into(&mut target, &cmb, ""),
            Err(CheckpointError::Mismatch(_))
        ));
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
    fn store_checksum_is_stable_and_sensitive() {
        let s = store();
        let a = store_checksum(&s);
        assert_eq!(
            a,
            store_checksum(&store()),
            "checksum must be deterministic"
        );
        let mut flipped = store();
        let id = flipped.ids()[0];
        let bits = flipped.value(id).data[2].to_bits() ^ 1;
        flipped.value_mut(id).data[2] = f32::from_bits(bits);
        assert_ne!(
            a,
            store_checksum(&flipped),
            "single-bit flip must change checksum"
        );
        let mut truncated = store();
        let id = truncated.ids()[0];
        truncated.value_mut(id).data.pop();
        assert_ne!(
            a,
            store_checksum(&truncated),
            "truncation must change checksum"
        );
    }

    #[test]
    fn load_rejects_non_finite_weights() {
        let mut s = store();
        let id = s.ids()[0];
        s.value_mut(id).data[1] = f32::NAN;
        assert!(matches!(
            validate_store(&s),
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
        assert!(matches!(
            validate_store(&s),
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
