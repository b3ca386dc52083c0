//! Shared plumbing for the experiments: ground-truth traces, trained
//! models, and the per-device generator suite that Tables 5–7 and
//! Figures 2/5 all consume.

use crate::suite::SuiteError;
use crate::Scale;
use cpt_gpt::transfer::FineTuneConfig;
use cpt_gpt::{fine_tune, train, CptGpt, GenerateConfig, Tokenizer, TrainReport};
use cpt_metrics::{
    fidelity_from_accumulators, select_checkpoint, FidelityReport, StreamAccumulator,
    ViolationStats,
};
use cpt_netshare::{NetShare, NetShareTrainReport};
use cpt_nn::layers::ParamStore;
use cpt_nn::serialize::push_store;
use cpt_smm::{SemiMarkovModel, SmmEnsemble};
use cpt_statemachine::StateMachine;
use cpt_synth::{generate_device, SynthConfig};
use cpt_trace::json::{ToJson, Value};
use cpt_trace::{Cmb, CmbError, Dataset, DeviceType};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The generators compared throughout §5, in the paper's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
pub fn ground_truth(
    scale: &Scale,
    device: DeviceType,
    hour: usize,
    salt: u64,
    ues: usize,
) -> Dataset {
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
#[derive(Debug, Clone)]
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
/// Version 3 is the `.cmb` file holding the two trained models only.
pub const SUITE_CACHE_FORMAT_VERSION: u32 = 3;

/// Reads the cache file `path` and checks its header fields: `kind`,
/// `format_version` and `scale` must be this run's. `None` for a missing
/// file, and `None` with a warning for anything unusable — damaged bytes,
/// a foreign or stale file. The cache is an optimization, never a failure
/// source.
pub(crate) fn read_cache(path: &Path, kind: &str, version: u32, scale: &Scale) -> Option<Cmb> {
    let cmb = match Cmb::read(path) {
        Ok(c) => c,
        Err(CmbError::Io { source, .. }) if source.kind() == std::io::ErrorKind::NotFound => {
            return None
        }
        Err(e) => {
            let path = path.display();
            eprintln!("warning: cache {path} is unusable ({e}); recomputing");
            return None;
        }
    };
    let meta = &cmb.meta;
    if meta.get("kind").and_then(Value::as_str) != Some(kind)
        || meta.get("format_version").and_then(Value::as_u64) != Some(u64::from(version))
        || meta.get("scale").and_then(Value::as_str) != Some(scale.name)
    {
        let path = path.display();
        eprintln!("warning: cache {path} does not match this run; recomputing");
        return None;
    }
    Some(cmb)
}

/// A cache file's header fields (see [`read_cache`]) followed by `rest`.
pub(crate) fn cache_meta(
    kind: &str,
    version: u32,
    scale: &Scale,
    rest: impl IntoIterator<Item = (&'static str, Value)>,
) -> Vec<(&'static str, Value)> {
    let mut meta = vec![
        ("kind", Value::str(kind)),
        ("format_version", version.to_json()),
        ("scale", Value::str(scale.name)),
    ];
    meta.extend(rest);
    meta
}

/// The CPT-GPT model stored under `key` (metadata field and tensor prefix
/// `key/`) in a cache file.
pub(crate) fn cached_gpt(cmb: &Cmb, key: &str, path: &Path) -> Result<CptGpt, String> {
    let meta = cmb.meta.get(key).ok_or_else(|| format!("no {key} model"))?;
    CptGpt::from_cmb(meta, cmb, &format!("{key}/"), path).map_err(|e| e.to_string())
}

/// The NetShare model stored under `key` in a cache file.
pub(crate) fn cached_netshare(cmb: &Cmb, key: &str) -> Result<NetShare, String> {
    let meta = cmb.meta.get(key).ok_or_else(|| format!("no {key} model"))?;
    NetShare::from_cmb(meta, cmb, &format!("{key}/")).map_err(|e| format!("{key}: {e}"))
}

/// Best-effort persistence: cache write failures degrade to a warning
/// because the in-memory result is already correct.
pub(crate) fn write_cache(path: &Path, cmb: &Cmb) {
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create cache dir {}: {e}", dir.display());
            return;
        }
    }
    if let Err(e) = cmb.write(path) {
        eprintln!("warning: cannot write cache {}: {e}", path.display());
    }
}

/// Caches per-device suites so the `all` command trains each model once,
/// and — when constructed with [`SuiteCache::persistent`] — mirrors every
/// trained model pair to disk so `experiments --resume` reuses trained
/// models across process restarts. Only the models are stored: everything
/// else in a [`SuiteResult`] is a pure function of them and the
/// `(scale, device)` seeds, and is recomputed ([`finish_suite`]).
#[derive(Default)]
pub struct SuiteCache {
    map: BTreeMap<usize, SuiteResult>,
    disk_dir: Option<PathBuf>,
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
        }
    }

    fn suite_path(dir: &Path, scale: &Scale, device: DeviceType) -> PathBuf {
        dir.join(format!("suite-{}-{device}.cmb", scale.name))
    }

    /// The models of a cached suite, or `None` (with a warning for a file
    /// that exists but cannot be used: see [`read_cache`]; models whose
    /// weights fail the name, shape or finiteness checks count too).
    fn try_load(dir: &Path, scale: &Scale, device: DeviceType) -> Option<(CptGpt, NetShare)> {
        let path = Self::suite_path(dir, scale, device);
        let cmb = read_cache(&path, "suite", SUITE_CACHE_FORMAT_VERSION, scale)?;
        if cmb.meta.get("device").and_then(Value::as_str) != Some(&device.to_string()) {
            let path = path.display();
            eprintln!("warning: cache {path} does not match this run; recomputing");
            return None;
        }
        let models = cached_gpt(&cmb, "gpt", &path)
            .and_then(|g| Ok((g, cached_netshare(&cmb, "netshare")?)));
        match models {
            Ok(models) => Some(models),
            Err(e) => {
                eprintln!(
                    "warning: cached models in {} failed validation ({e}); recomputing",
                    path.display()
                );
                None
            }
        }
    }

    fn persist(dir: &Path, scale: &Scale, suite: &SuiteResult) {
        let meta = cache_meta(
            "suite",
            SUITE_CACHE_FORMAT_VERSION,
            scale,
            [
                ("device", Value::str(suite.device.to_string())),
                ("gpt", suite.gpt.cmb_meta()),
                ("netshare", suite.netshare.cmb_meta()),
            ],
        );
        let mut cmb = Cmb::new(Value::obj(meta));
        push_store(&mut cmb, "gpt/", &suite.gpt.store);
        push_store(&mut cmb, "netshare/", &suite.netshare.store);
        write_cache(&Self::suite_path(dir, scale, suite.device), &cmb);
    }

    /// Makes sure the suite for `device` is in the in-memory map, loading
    /// it from disk when a valid cached copy exists and computing (then
    /// persisting) it otherwise.
    fn ensure(&mut self, scale: &Scale, device: DeviceType) -> Result<(), SuiteError> {
        if self.map.contains_key(&device.index()) {
            return Ok(());
        }
        if let Some(dir) = &self.disk_dir {
            if let Some((gpt, ns)) = Self::try_load(dir, scale, device) {
                println!("  [reusing cached {device} suite (scale {})]", scale.name);
                let real_train = train_trace(scale, device, 0);
                let suite = finish_suite(scale, device, real_train, gpt, ns)?;
                self.map.insert(device.index(), suite);
                return Ok(());
            }
        }
        let suite = if device == DeviceType::Phone {
            run_suite(scale, device, None)?
        } else {
            let (gpt, ns) = {
                let phone = &self.map[&DeviceType::Phone.index()];
                (phone.gpt.clone(), phone.netshare.clone())
            };
            run_suite(scale, device, Some((&gpt, &ns)))?
        };
        if let Some(dir) = &self.disk_dir {
            Self::persist(dir, scale, &suite);
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
pub fn run_suite(
    scale: &Scale,
    device: DeviceType,
    phone_models: Option<(&CptGpt, &NetShare)>,
) -> Result<SuiteResult, SuiteError> {
    let real_train = train_trace(scale, device, 0);
    let dev_seed = BASE_SEED + device.index() as u64;
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
    finish_suite(scale, device, real_train, gpt, ns)
}

/// Everything of a suite but the training trace and the trained ML
/// models, which it takes: the test trace, the SMM baselines (always fitted
/// per device — domain-knowledge models have no transfer story), every
/// generator's synthetic dataset and its scores. A pure function of
/// `(scale, device)` and the two models.
pub fn finish_suite(
    scale: &Scale,
    device: DeviceType,
    real_train: Dataset,
    gpt: CptGpt,
    ns: NetShare,
) -> Result<SuiteResult, SuiteError> {
    let machine = StateMachine::lte();
    let real_test = test_trace(scale, device, 0);
    let dev_seed = BASE_SEED + device.index() as u64;
    let smm1 = SemiMarkovModel::fit(machine, &real_train, device);
    let smmk = SmmEnsemble::fit(machine, &real_train, device, scale.smm_clusters, dev_seed);

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

/// The tail both checkpoint-time measurements share: scores what each
/// snapshot generates against the validation trace (folded once), picks
/// one with [`select_checkpoint`], sums the seconds of training up to its
/// epoch and restores its store into `model`. Without snapshots the whole
/// run counts and `model` keeps its final weights.
fn converge_on_snapshot<M: Clone>(
    model: &mut M,
    store: fn(&mut M) -> &mut ParamStore,
    snapshots: &[(usize, ParamStore)],
    epoch_seconds: &[f64],
    total_seconds: f64,
    validation: &Dataset,
    generate: impl Fn(&M, DeviceType) -> Result<Dataset, SuiteError>,
) -> Result<ConvergedTime, SuiteError> {
    let machine = StateMachine::lte();
    let device = validation
        .streams
        .first()
        .map(|s| s.device_type)
        .unwrap_or(DeviceType::Phone);
    let real = StreamAccumulator::of(&machine, validation);
    let mut metrics = Vec::new();
    for (_, params) in snapshots {
        let mut snap = model.clone();
        *store(&mut snap) = params.clone();
        let synth = StreamAccumulator::of(&machine, &generate(&snap, device)?);
        metrics.push(fidelity_from_accumulators(&real, &synth).metric_vector());
    }
    if metrics.is_empty() {
        return Ok(ConvergedTime {
            seconds: total_seconds,
            epoch: epoch_seconds.len().saturating_sub(1),
        });
    }
    let chosen = select_checkpoint(&metrics, 0.2);
    let epoch = snapshots[chosen].0;
    *store(model) = snapshots[chosen].1.clone();
    Ok(ConvergedTime {
        seconds: epoch_seconds.iter().take(epoch + 1).sum(),
        epoch,
    })
}

/// CPT-GPT variant of the checkpoint-time measurement.
pub fn cptgpt_time_to_converge(
    scale: &Scale,
    data: &Dataset,
    validation: &Dataset,
    base: Option<&CptGpt>,
    seed: u64,
) -> Result<(CptGpt, ConvergedTime), SuiteError> {
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
    let epoch_seconds: Vec<f64> = report.epochs.iter().map(|e| e.seconds).collect();
    let time = converge_on_snapshot(
        &mut model,
        |m| &mut m.store,
        &report.snapshots,
        &epoch_seconds,
        report.total_seconds,
        validation,
        |snap, device| {
            let cfg = GenerateConfig::new(scale.snapshot_eval_streams, seed + 99).device(device);
            Ok(snap.generate(&cfg)?)
        },
    )?;
    Ok((model, time))
}

/// NetShare variant of the checkpoint-time measurement.
pub fn netshare_time_to_converge(
    scale: &Scale,
    data: &Dataset,
    validation: &Dataset,
    base: Option<&NetShare>,
    seed: u64,
) -> Result<(NetShare, ConvergedTime), SuiteError> {
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
    let epoch_seconds: Vec<f64> = report.epochs.iter().map(|e| e.3).collect();
    let time = converge_on_snapshot(
        &mut model,
        |m| &mut m.store,
        &report.snapshots,
        &epoch_seconds,
        report.total_seconds,
        validation,
        |snap, device| Ok(snap.generate(scale.snapshot_eval_streams, device, seed + 99)?),
    )?;
    Ok((model, time))
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
        assert!(a
            .streams
            .iter()
            .all(|s| s.len() >= 2 && s.len() <= scale.max_len));
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
