//! Shared plumbing for the experiments: ground-truth traces, trained
//! models, and the per-device generator suite that Tables 5–7 and
//! Figures 2/5 all consume.

use crate::suite::{bumped, SuiteError};
use crate::Scale;
use cpt_gpt::{fine_tune, train, CptGpt, GenerateConfig, Tokenizer, TrainReport};
use cpt_gpt::transfer::FineTuneConfig;
use cpt_metrics::{
    fidelity_from_accumulators, select_checkpoint, FidelityReport, StreamAccumulator,
    ViolationStats,
};
use cpt_netshare::{NetShare, NetShareTrainReport};
use cpt_smm::{SemiMarkovModel, SmmEnsemble};
use cpt_statemachine::StateMachine;
use cpt_trace::{Dataset, DeviceType};
use cpt_synth::{generate_device, SynthConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The generators compared throughout §5, in the paper's column order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum GeneratorKind {
    /// Single semi-Markov model per device type.
    Smm1,
    /// Clustered SMM ensemble (the SMM-20k mechanism).
    SmmK,
    /// Adapted NetShare (GAN + LSTM).
    NetShare,
    /// CPT-GPT (ours).
    CptGpt,
}

impl GeneratorKind {
    /// All generators in table order.
    pub const ALL: [GeneratorKind; 4] = [
        GeneratorKind::Smm1,
        GeneratorKind::SmmK,
        GeneratorKind::NetShare,
        GeneratorKind::CptGpt,
    ];

    /// Column label as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            GeneratorKind::Smm1 => "SMM-1",
            GeneratorKind::SmmK => "SMM-20k",
            GeneratorKind::NetShare => "NetShare",
            GeneratorKind::CptGpt => "CPT-GPT",
        }
    }
}

/// Seeds are all derived from this base so the whole suite is
/// reproducible end to end.
pub const BASE_SEED: u64 = 20240704;

/// Ground-truth ("real") trace for one device type and hour-of-day.
/// `salt` distinguishes train/test/validation draws.
pub fn ground_truth(scale: &Scale, device: DeviceType, hour: usize, salt: u64, ues: usize) -> Dataset {
    let cfg = SynthConfig::new(0, BASE_SEED ^ (salt.wrapping_mul(0x9E37_79B9)))
        .starting_at(hour as f64)
        .hours(1.0);
    // Cap at max_len (not max_len+1): generated streams contain at most
    // max_len events, and mismatched caps produce a spurious CDF jump in
    // the flow-length metric at the cap point.
    generate_device(&cfg, device, ues).clamp_lengths(2, scale.max_len)
}

/// Training trace for (device, hour).
pub fn train_trace(scale: &Scale, device: DeviceType, hour: usize) -> Dataset {
    ground_truth(scale, device, hour, 1000 + hour as u64, scale.train_ues)
}

/// Held-out test trace for (device, hour).
pub fn test_trace(scale: &Scale, device: DeviceType, hour: usize) -> Dataset {
    ground_truth(scale, device, hour, 2000 + hour as u64, scale.test_ues)
}

/// Trains CPT-GPT on `data` (phone hour-0 unless stated otherwise in the
/// experiment).
pub fn train_cptgpt(
    scale: &Scale,
    data: &Dataset,
    seed: u64,
) -> Result<(CptGpt, TrainReport), SuiteError> {
    let tokenizer = Tokenizer::fit(data);
    let mut model = CptGpt::new(scale.gpt.with_seed(seed), tokenizer);
    let report = train(&mut model, data, &scale.gpt_train.with_seed(seed))?;
    Ok((model, report))
}

/// Trains the adapted NetShare on `data`.
pub fn train_netshare(
    scale: &Scale,
    data: &Dataset,
    seed: u64,
) -> Result<(NetShare, NetShareTrainReport), SuiteError> {
    let mut model = NetShare::new(scale.ns.with_seed(seed));
    let report = model.train(data)?;
    Ok((model, report))
}

/// Everything the distribution experiments need for one device type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteResult {
    /// Device type of this suite.
    pub device: DeviceType,
    /// Training trace.
    pub real_train: Dataset,
    /// Held-out test trace used as the fidelity reference.
    pub real_test: Dataset,
    /// Synthesized dataset per generator.
    pub synth: BTreeMap<GeneratorKind, Dataset>,
    /// Fidelity report per generator (vs `real_test`).
    pub reports: BTreeMap<GeneratorKind, FidelityReport>,
    /// Violation statistics per generator.
    pub violations: BTreeMap<GeneratorKind, ViolationStats>,
    /// The trained CPT-GPT model (phone models seed the other devices'
    /// transfer learning).
    pub gpt: CptGpt,
    /// The trained NetShare model.
    pub netshare: NetShare,
}

/// Format version of the on-disk suite cache; bumped on incompatible
/// layout changes so stale cache files are recomputed, not misread.
pub const SUITE_CACHE_FORMAT_VERSION: u32 = 1;

/// On-disk wrapper around a [`SuiteResult`], keyed by `(scale, device,
/// seed)` so a resumed run only reuses models trained under the exact
/// configuration it would otherwise recompute.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CachedSuite {
    format_version: u32,
    scale: String,
    device: String,
    seed: u64,
    suite: SuiteResult,
}

/// The cache index maps each `(scale, device)` to the seed of its current
/// authoritative suite file. Normally that seed is the unbumped base seed,
/// but when a retry (which reseeds) produced the suite, the index lets a
/// resumed process find and reuse it instead of retraining at the base
/// seed and silently mixing models across stages.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct CacheIndex {
    #[serde(default)]
    format_version: u32,
    #[serde(default)]
    entries: BTreeMap<String, u64>,
}

/// Caches per-device suites so the `all` command trains each model once,
/// and — when constructed with [`SuiteCache::persistent`] — mirrors every
/// computed suite to disk so `experiments --resume` reuses trained models
/// across process restarts.
#[derive(Default)]
pub struct SuiteCache {
    map: BTreeMap<usize, SuiteResult>,
    disk_dir: Option<PathBuf>,
    seed_bump: u64,
}

impl SuiteCache {
    /// Creates an in-memory-only cache (tests, one-shot library use).
    pub fn new() -> Self {
        SuiteCache::default()
    }

    /// Creates a cache that persists every computed suite under `dir`
    /// (created lazily on first write).
    pub fn persistent(dir: impl Into<PathBuf>) -> Self {
        SuiteCache {
            map: BTreeMap::new(),
            disk_dir: Some(dir.into()),
            seed_bump: 0,
        }
    }

    /// Sets the seed bump mixed into every seed derived while *computing*
    /// a suite. Bump 0 reproduces the historical seeds; the supervisor
    /// raises it on each retry of a stage so divergence-class failures are
    /// retried on a fresh random trajectory. Already-cached suites are
    /// unaffected.
    pub fn set_seed_bump(&mut self, bump: u64) {
        self.seed_bump = bump;
    }

    fn index_path(dir: &Path) -> PathBuf {
        dir.join("index.json")
    }

    fn suite_path(dir: &Path, scale: &Scale, device: DeviceType, seed: u64) -> PathBuf {
        dir.join(format!("suite-{}-{device}-{seed}.json", scale.name))
    }

    fn index_key(scale: &Scale, device: DeviceType) -> String {
        format!("{}/{device}", scale.name)
    }

    /// Loads the cache index, treating a missing or corrupt index as
    /// empty: the cache is an optimization, never a failure source.
    fn load_index(dir: &Path) -> CacheIndex {
        let Ok(text) = std::fs::read_to_string(Self::index_path(dir)) else {
            return CacheIndex::default();
        };
        match serde_json::from_str::<CacheIndex>(&text) {
            Ok(idx) if idx.format_version == SUITE_CACHE_FORMAT_VERSION => idx,
            _ => CacheIndex::default(),
        }
    }

    /// Validates and unwraps a cached suite file; `None` (with a warning)
    /// for anything unusable — wrong version/scale/device, unparseable
    /// bytes, or model weights that fail the finite/shape checks.
    fn try_load(dir: &Path, scale: &Scale, device: DeviceType, seed: u64) -> Option<SuiteResult> {
        let path = Self::suite_path(dir, scale, device, seed);
        let text = std::fs::read_to_string(&path).ok()?;
        let cached: CachedSuite = match serde_json::from_str(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!(
                    "warning: suite cache {} is corrupt ({e}); recomputing",
                    path.display()
                );
                return None;
            }
        };
        if cached.format_version != SUITE_CACHE_FORMAT_VERSION
            || cached.scale != scale.name
            || cached.device != device.to_string()
            || cached.seed != seed
        {
            eprintln!(
                "warning: suite cache {} does not match this run; recomputing",
                path.display()
            );
            return None;
        }
        for (label, store) in [
            ("CPT-GPT", &cached.suite.gpt.store),
            ("NetShare", &cached.suite.netshare.store),
        ] {
            if let Err(e) = cpt_nn::serialize::validate_store(store) {
                eprintln!(
                    "warning: cached {label} model in {} failed validation ({e}); recomputing",
                    path.display()
                );
                return None;
            }
        }
        Some(cached.suite)
    }

    /// Best-effort persistence: cache write failures degrade to a warning
    /// because the in-memory result is already correct.
    fn persist(dir: &Path, scale: &Scale, suite: &SuiteResult, seed: u64) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create suite cache dir {}: {e}", dir.display());
            return;
        }
        let cached = CachedSuite {
            format_version: SUITE_CACHE_FORMAT_VERSION,
            scale: scale.name.to_string(),
            device: suite.device.to_string(),
            seed,
            suite: suite.clone(),
        };
        let path = Self::suite_path(dir, scale, suite.device, seed);
        if let Err(e) = cpt_nn::serialize::atomic_write_json(&cached, &path) {
            eprintln!("warning: cannot write suite cache {}: {e}", path.display());
            return;
        }
        let mut index = Self::load_index(dir);
        index.format_version = SUITE_CACHE_FORMAT_VERSION;
        index
            .entries
            .insert(Self::index_key(scale, suite.device), seed);
        if let Err(e) = cpt_nn::serialize::atomic_write_json(&index, Self::index_path(dir)) {
            eprintln!("warning: cannot write suite cache index: {e}");
        }
    }

    /// Makes sure the suite for `device` is in the in-memory map, loading
    /// it from disk when a valid cached copy exists and computing (then
    /// persisting) it otherwise.
    fn ensure(&mut self, scale: &Scale, device: DeviceType) -> Result<(), SuiteError> {
        if self.map.contains_key(&device.index()) {
            return Ok(());
        }
        if let Some(dir) = self.disk_dir.clone() {
            let index = Self::load_index(&dir);
            if let Some(&seed) = index.entries.get(&Self::index_key(scale, device)) {
                if let Some(suite) = Self::try_load(&dir, scale, device, seed) {
                    println!(
                        "  [reusing cached {device} suite (scale {}, seed {seed})]",
                        scale.name
                    );
                    self.map.insert(device.index(), suite);
                    return Ok(());
                }
            }
        }
        let suite = if device == DeviceType::Phone {
            run_suite(scale, device, None, self.seed_bump)?
        } else {
            let (gpt, ns) = {
                let phone = &self.map[&DeviceType::Phone.index()];
                (phone.gpt.clone(), phone.netshare.clone())
            };
            run_suite(scale, device, Some((&gpt, &ns)), self.seed_bump)?
        };
        if let Some(dir) = self.disk_dir.clone() {
            let seed = bumped(BASE_SEED + device.index() as u64, self.seed_bump);
            Self::persist(&dir, scale, &suite, seed);
        }
        self.map.insert(device.index(), suite);
        Ok(())
    }

    /// Returns the suite for `device`, computing or loading it (and,
    /// first, the phone suite it transfers from) if needed.
    pub fn get(&mut self, scale: &Scale, device: DeviceType) -> Result<&SuiteResult, SuiteError> {
        self.ensure(scale, DeviceType::Phone)?;
        if device != DeviceType::Phone {
            self.ensure(scale, device)?;
        }
        Ok(&self.map[&device.index()])
    }
}

/// Trains all four generators on the hour-0 trace of `device` and
/// evaluates `scale.gen_streams` synthesized streams against the held-out
/// test trace. §5.1: CPT-GPT and NetShare are first trained on phones and
/// transferred to the other device types; we apply the same recipe.
/// `seed_bump` is 0 on the normal path and rises on supervisor retries
/// (see [`bumped`]).
pub fn run_suite(
    scale: &Scale,
    device: DeviceType,
    phone_models: Option<(&CptGpt, &NetShare)>,
    seed_bump: u64,
) -> Result<SuiteResult, SuiteError> {
    let machine = StateMachine::lte();
    let real_train = train_trace(scale, device, 0);
    let real_test = test_trace(scale, device, 0);
    let dev_seed = bumped(BASE_SEED + device.index() as u64, seed_bump);

    // SMM baselines are always fitted per device (domain-knowledge models
    // have no transfer story).
    let smm1 = SemiMarkovModel::fit(machine, &real_train, device);
    let smmk = SmmEnsemble::fit(machine, &real_train, device, scale.smm_clusters, dev_seed);

    // ML models: train from scratch on phones, transfer to other devices
    // (§5.1), matching the paper's protocol.
    let (gpt, ns) = match (device, phone_models) {
        (DeviceType::Phone, _) | (_, None) => {
            let (g, _) = train_cptgpt(scale, &real_train, dev_seed)?;
            let (n, _) = train_netshare(scale, &real_train, dev_seed)?;
            (g, n)
        }
        (_, Some((phone_gpt, phone_ns))) => {
            let (g, _) = fine_tune(
                phone_gpt,
                &real_train,
                &scale.gpt_train,
                &FineTuneConfig::default(),
            )?;
            let ft_epochs = (scale.ns.epochs / 2).max(1);
            let (n, _) = phone_ns.fine_tune(&real_train, ft_epochs)?;
            (g, n)
        }
    };

    let n = scale.gen_streams;
    let mut synth = BTreeMap::new();
    // SMM output is duration-bounded, not length-bounded; clamp to the
    // same maximum stream length the real traces (and both ML models)
    // observe so flow-length comparisons are apples-to-apples.
    synth.insert(
        GeneratorKind::Smm1,
        smm1.generate(n, 3600.0, dev_seed + 10)
            .clamp_lengths(1, scale.max_len),
    );
    synth.insert(
        GeneratorKind::SmmK,
        smmk.generate(n, 3600.0, dev_seed + 11)
            .clamp_lengths(1, scale.max_len),
    );
    synth.insert(
        GeneratorKind::NetShare,
        ns.generate(n, device, dev_seed + 12)?,
    );
    synth.insert(
        GeneratorKind::CptGpt,
        gpt.generate(&GenerateConfig::new(n, dev_seed + 13).device(device))?,
    );

    // One fold per trace: a generator's report and violation statistics
    // are two views of the same accumulator.
    let real = StreamAccumulator::of(&machine, &real_test);
    let mut reports = BTreeMap::new();
    let mut violations = BTreeMap::new();
    for (kind, ds) in &synth {
        let acc = StreamAccumulator::of(&machine, ds);
        reports.insert(*kind, fidelity_from_accumulators(&real, &acc));
        violations.insert(*kind, acc.violations());
    }
    Ok(SuiteResult {
        device,
        real_train,
        real_test,
        synth,
        reports,
        violations,
        gpt,
        netshare: ns,
    })
}

/// §5.5 time-to-convergence: trains with snapshots, scores each snapshot's
/// fidelity against a validation trace, applies the checkpoint-selection
/// heuristic and returns the wall-clock seconds *up to the selected
/// checkpoint* plus the selected epoch.
pub struct ConvergedTime {
    /// Seconds of training until the selected checkpoint.
    pub seconds: f64,
    /// Selected (0-based) epoch.
    pub epoch: usize,
}

/// One snapshot's output scored against the validation trace, which the
/// caller folded once, outside its snapshot loop.
fn snapshot_metrics(machine: &StateMachine, real: &StreamAccumulator, synth: &Dataset) -> Vec<f64> {
    fidelity_from_accumulators(real, &StreamAccumulator::of(machine, synth)).metric_vector()
}

/// CPT-GPT variant of the checkpoint-time measurement.
pub fn cptgpt_time_to_converge(
    scale: &Scale,
    data: &Dataset,
    validation: &Dataset,
    base: Option<&CptGpt>,
    seed: u64,
) -> Result<(CptGpt, ConvergedTime), SuiteError> {
    let machine = StateMachine::lte();
    let mut cfg = scale.gpt_train.with_seed(seed);
    cfg.snapshot_every = Some(scale.snapshot_every);
    let (mut model, report) = match base {
        None => {
            let tokenizer = Tokenizer::fit(data);
            let mut m = CptGpt::new(scale.gpt.with_seed(seed), tokenizer);
            let r = train(&mut m, data, &cfg)?;
            (m, r)
        }
        Some(b) => {
            let ft = FineTuneConfig::default();
            fine_tune(b, data, &cfg, &ft)?
        }
    };
    // Score every snapshot.
    let device = validation
        .streams
        .first()
        .map(|s| s.device_type)
        .unwrap_or(DeviceType::Phone);
    let real = StreamAccumulator::of(&machine, validation);
    let mut metrics = Vec::new();
    for (_, params) in &report.snapshots {
        let mut snap = model.clone();
        snap.store = params.clone();
        let synth = snap
            .generate(&GenerateConfig::new(scale.snapshot_eval_streams, seed + 99).device(device))?;
        metrics.push(snapshot_metrics(&machine, &real, &synth));
    }
    let (seconds, epoch) = if metrics.is_empty() {
        (report.total_seconds, report.epochs.len().saturating_sub(1))
    } else {
        let chosen = select_checkpoint(&metrics, 0.2);
        let epoch = report.snapshots[chosen].0;
        let secs: f64 = report.epochs.iter().take(epoch + 1).map(|e| e.seconds).sum();
        // Restore the selected snapshot as the final model.
        model.store = report.snapshots[chosen].1.clone();
        (secs, epoch)
    };
    Ok((model, ConvergedTime { seconds, epoch }))
}

/// NetShare variant of the checkpoint-time measurement.
pub fn netshare_time_to_converge(
    scale: &Scale,
    data: &Dataset,
    validation: &Dataset,
    base: Option<&NetShare>,
    seed: u64,
) -> Result<(NetShare, ConvergedTime), SuiteError> {
    let machine = StateMachine::lte();
    let mut ns_cfg = scale.ns.with_seed(seed);
    ns_cfg.snapshot_every = Some(scale.snapshot_every);
    let (mut model, report) = match base {
        None => {
            let mut m = NetShare::new(ns_cfg);
            let r = m.train(data)?;
            (m, r)
        }
        Some(b) => {
            let mut m = b.clone();
            m.config = ns_cfg;
            m.config.seed = seed.wrapping_add(7919);
            let r = m.train(data)?;
            (m, r)
        }
    };
    let device = validation
        .streams
        .first()
        .map(|s| s.device_type)
        .unwrap_or(DeviceType::Phone);
    let real = StreamAccumulator::of(&machine, validation);
    let mut metrics = Vec::new();
    for (_, params) in &report.snapshots {
        let mut snap = model.clone();
        snap.store = params.clone();
        let synth = snap.generate(scale.snapshot_eval_streams, device, seed + 99)?;
        metrics.push(snapshot_metrics(&machine, &real, &synth));
    }
    let (seconds, epoch) = if metrics.is_empty() {
        (
            report.total_seconds,
            report.epochs.len().saturating_sub(1),
        )
    } else {
        let chosen = select_checkpoint(&metrics, 0.2);
        let epoch = report.snapshots[chosen].0;
        let secs: f64 = report
            .epochs
            .iter()
            .take(epoch + 1)
            .map(|(_, _, _, s)| s)
            .sum();
        model.store = report.snapshots[chosen].1.clone();
        (secs, epoch)
    };
    Ok((model, ConvergedTime { seconds, epoch }))
}

/// Concatenates hourly traces into one multi-hour dataset (stream ids are
/// disambiguated by hour like the paper treats the same UE on different
/// days as different UEs).
pub fn concat_hours(hours: &[Dataset]) -> Dataset {
    let mut streams = Vec::new();
    let mut next = 0u64;
    for ds in hours {
        for s in &ds.streams {
            let mut s = s.clone();
            s.ue_id = cpt_trace::UeId(next);
            next += 1;
            streams.push(s);
        }
    }
    Dataset::new(streams)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_kinds_cover_paper_columns() {
        let labels: Vec<&str> = GeneratorKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["SMM-1", "SMM-20k", "NetShare", "CPT-GPT"]);
    }

    #[test]
    fn ground_truth_is_deterministic_and_clamped() {
        let scale = crate::Scale::quick();
        let a = ground_truth(&scale, DeviceType::Phone, 0, 1, 40);
        let b = ground_truth(&scale, DeviceType::Phone, 0, 1, 40);
        assert_eq!(a, b);
        assert!(a.streams.iter().all(|s| s.len() >= 2 && s.len() <= scale.max_len));
        // Different salts give different traces (train vs test).
        let c = ground_truth(&scale, DeviceType::Phone, 0, 2, 40);
        assert_ne!(a, c);
    }

    #[test]
    fn hourly_traces_differ_by_hour() {
        let scale = crate::Scale::quick();
        let h0 = train_trace(&scale, DeviceType::Phone, 0);
        let h5 = train_trace(&scale, DeviceType::Phone, 5);
        assert_ne!(h0, h5);
    }

    #[test]
    fn concat_hours_renumbers_ues() {
        let scale = crate::Scale::quick();
        let a = ground_truth(&scale, DeviceType::Phone, 0, 1, 10);
        let b = ground_truth(&scale, DeviceType::Phone, 1, 2, 10);
        let both = concat_hours(&[a.clone(), b.clone()]);
        assert_eq!(both.num_streams(), a.num_streams() + b.num_streams());
        let mut ids: Vec<u64> = both.streams.iter().map(|s| s.ue_id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), both.num_streams(), "UE ids must be unique");
    }

    #[test]
    fn scales_resolve_by_name() {
        assert_eq!(crate::Scale::by_name("quick").unwrap().name, "quick");
        assert_eq!(crate::Scale::by_name("full").unwrap().name, "full");
        assert_eq!(crate::Scale::by_name("tiny").unwrap().name, "tiny");
        assert!(crate::Scale::by_name("bogus").is_none());
        // full is strictly larger than quick.
        let q = crate::Scale::quick();
        let f = crate::Scale::full();
        assert!(f.train_ues > q.train_ues);
        assert!(f.max_len > q.max_len);
    }
}
