//! Stage supervisor for the experiment suite: isolation and resume.
//!
//! The `experiments` binary used to be a straight-line loop — one panic in
//! table 9 threw away the hours of training that tables 3–8 had already
//! consumed. This module turns every table/figure/ablation into a named
//! *stage* run under a supervisor:
//!
//! - each stage executes behind [`std::panic::catch_unwind`], so a panic
//!   becomes a typed [`SuiteError::Panic`] instead of a process abort;
//! - a failed stage is recorded and not retried. Stages are deterministic
//!   CPU work: a rerun under the same seed repeats the same failure, and a
//!   rerun under another seed would report a different experiment from
//!   the one its seed names. Training divergence has one recovery layer,
//!   the trainer's own watchdog (epoch rollback and learning-rate
//!   backoff); a stage that fails past it is a result, and `--keep-going`
//!   steps past it;
//! - after every stage the supervisor atomically rewrites
//!   `<out>/manifest.json` ([`RunManifest`]) recording status, duration
//!   and error, so a crash between stages loses at most the stage in
//!   flight;
//! - `--resume` reloads the manifest, skips stages already `completed`
//!   (leaving their output files byte-for-byte untouched), and re-runs the
//!   rest; a corrupt or truncated manifest is moved aside to
//!   `manifest.json.corrupt` and the run starts over rather than panicking;
//! - trained model suites are persisted under `<out>/cache/` keyed by
//!   `(scale, device)` (see [`crate::pipeline::SuiteCache`]) and the
//!   shared transfer-protocol runs under `cache/transfer-<scale>.cmb`, so
//!   a resumed process reuses models instead of retraining them;
//! - the final [`RunReport`] lists completed / skipped / failed stages
//!   and classifies the run for the exit-code contract: 0 all completed,
//!   8 partial success (some stages completed, some failed), 1 nothing
//!   completed, 2 usage errors (rejected before any stage runs).

#![deny(clippy::unwrap_used)]

use crate::experiments::transfer::TransferRuns;
use crate::experiments::{
    ablations, distributions, downstream, memorization, scalability, transfer, violations,
};
use crate::output::Output;
use crate::pipeline::{SuiteCache, BASE_SEED};
use crate::Scale;
use cpt_gpt::{GenerateError, TrainError};
use cpt_netshare::NetShareError;
use cpt_trace::json::{FromJson, ToJson};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every stage the suite knows, in the canonical `all` order.
pub const ALL_STAGES: [&str; 16] = [
    "table3",
    "fig2",
    "table4",
    "table5",
    "table6",
    "fig5",
    "table7",
    "table8",
    "fig6",
    "table9",
    "table10",
    "table11",
    "fig7",
    "ablation-logscale",
    "ablation-batchgen",
    "downstream",
];

/// Typed failure of one suite stage (or of suite bookkeeping).
#[derive(Debug)]
pub enum SuiteError {
    /// CPT-GPT training or fine-tuning failed.
    Train(TrainError),
    /// CPT-GPT generation failed.
    Generate(GenerateError),
    /// NetShare training, fine-tuning or generation failed.
    NetShare(NetShareError),
    /// A configuration precondition failed (unknown stage, bad flag value,
    /// scale too small for the experiment). Rejected before any stage runs
    /// where possible; maps to the usage exit code.
    Config {
        /// What was wrong.
        what: String,
    },
    /// Filesystem error on suite state (manifest, cache, results dir).
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying OS error.
        source: std::io::Error,
    },
    /// The stage panicked; the payload message is preserved.
    Panic {
        /// Panic payload, downcast to a string when possible.
        detail: String,
    },
    /// The stage named by `--inject-fail` was failed instead of run.
    Injected {
        /// Stage the fault was scheduled for.
        stage: String,
    },
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::Train(e) => write!(f, "training failed: {e}"),
            SuiteError::Generate(e) => write!(f, "generation failed: {e}"),
            SuiteError::NetShare(e) => write!(f, "NetShare failed: {e}"),
            SuiteError::Config { what } => write!(f, "configuration error: {what}"),
            SuiteError::Io { path, source } => {
                write!(f, "io error at {}: {source}", path.display())
            }
            SuiteError::Panic { detail } => write!(f, "stage panicked: {detail}"),
            SuiteError::Injected { stage } => write!(f, "injected fault: stage {stage}"),
        }
    }
}

impl std::error::Error for SuiteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SuiteError::Train(e) => Some(e),
            SuiteError::Generate(e) => Some(e),
            SuiteError::NetShare(e) => Some(e),
            SuiteError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<TrainError> for SuiteError {
    fn from(e: TrainError) -> Self {
        SuiteError::Train(e)
    }
}

impl From<GenerateError> for SuiteError {
    fn from(e: GenerateError) -> Self {
        SuiteError::Generate(e)
    }
}

impl From<NetShareError> for SuiteError {
    fn from(e: NetShareError) -> Self {
        SuiteError::NetShare(e)
    }
}

/// Format version of `manifest.json`; bumped on incompatible layout
/// changes so stale manifests are recovered-from, not misread. A version-1
/// record could name a stage completed on a retry's reseeded trajectory,
/// so such manifests are moved aside rather than trusted.
pub const MANIFEST_FORMAT_VERSION: u32 = 2;

/// Terminal status of one stage in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// The stage finished and its outputs are on disk.
    Completed,
    /// The stage returned an error or panicked.
    Failed,
}

cpt_trace::json_unit_enum!(StageStatus { Completed => "completed", Failed => "failed" });

/// What happened to one stage, as recorded in `manifest.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Terminal status.
    pub status: StageStatus,
    /// Wall-clock seconds the stage ran.
    pub duration_secs: f64,
    /// Error message for failed stages.
    pub error: Option<String>,
}

cpt_trace::json_struct!(StageRecord {
    status,
    duration_secs,
    error
});

/// The on-disk record of a suite run, written atomically after every
/// stage. `--resume` trusts `completed` entries and re-runs everything
/// else.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Layout version (see [`MANIFEST_FORMAT_VERSION`]).
    pub format_version: u32,
    /// Scale name the run was started with; a resume under a different
    /// scale must not reuse the records.
    pub scale: String,
    /// The suite-wide base seed every stage derives its seeds from.
    pub base_seed: u64,
    /// Per-stage records, keyed by stage name.
    pub stages: BTreeMap<String, StageRecord>,
}

cpt_trace::json_struct!(RunManifest {
    format_version,
    scale,
    base_seed,
    stages
});

impl RunManifest {
    /// An empty manifest for `scale`.
    pub fn fresh(scale: &str) -> Self {
        RunManifest {
            format_version: MANIFEST_FORMAT_VERSION,
            scale: scale.to_string(),
            base_seed: BASE_SEED,
            stages: BTreeMap::new(),
        }
    }

    /// The manifest path inside `out_dir`.
    pub fn path(out_dir: &Path) -> PathBuf {
        out_dir.join("manifest.json")
    }

    /// Loads the manifest at `path`, tolerating every way it can be bad.
    ///
    /// Missing file → fresh manifest (first run). Unparseable, version-
    /// skewed or wrong-scale file → the file is moved aside to
    /// `<path>.corrupt` (best effort) and a fresh manifest is returned;
    /// the second tuple element is `true` so the caller can warn. Never
    /// panics: a half-written manifest must not take the suite down with
    /// it.
    pub fn load_or_recover(path: &Path, scale: &str) -> (RunManifest, bool) {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(_) => return (RunManifest::fresh(scale), false),
        };
        let parsed = cpt_trace::json::parse(&text).and_then(|v| RunManifest::from_json(&v));
        match parsed {
            Ok(m) if m.format_version == MANIFEST_FORMAT_VERSION && m.scale == scale => (m, false),
            _ => {
                let backup = path.with_extension("json.corrupt");
                let _ = std::fs::rename(path, &backup);
                (RunManifest::fresh(scale), true)
            }
        }
    }

    /// Atomically writes the manifest to `path` (temp file + rename, via
    /// the same primitive the model files use), pretty-printed.
    pub fn save(&self, path: &Path) -> Result<(), SuiteError> {
        let text = self.to_json().to_pretty() + "\n";
        cpt_trace::write_atomic(path, text.as_bytes()).map_err(|source| SuiteError::Io {
            path: path.to_path_buf(),
            source,
        })
    }
}

/// Supervisor policy for one `experiments` invocation.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Run sizes.
    pub scale: Scale,
    /// Results directory (manifest, cache and stage outputs live here).
    pub out_dir: PathBuf,
    /// Reload the manifest and skip stages already completed.
    pub resume: bool,
    /// Continue with later stages after a stage fails (the run then exits
    /// 8 instead of stopping at the first failure).
    pub keep_going: bool,
    /// Stage to fail instead of running (`--inject-fail`), for tests and
    /// CI drills of the failure and resume paths.
    pub inject_fail: Option<String>,
}

impl SuiteConfig {
    /// Defaults: no resume, stop on first failure, no injected fault.
    pub fn new(scale: Scale, out_dir: impl Into<PathBuf>) -> Self {
        SuiteConfig {
            scale,
            out_dir: out_dir.into(),
            resume: false,
            keep_going: false,
            inject_fail: None,
        }
    }
}

/// Overall classification of a supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every requested stage completed (now or in the resumed-from run).
    AllCompleted,
    /// Some stages completed, some failed or never ran.
    PartialFailure,
    /// No requested stage completed.
    AllFailed,
}

/// Final report of a supervised run; rendered to stdout and
/// `<out>/run_report.txt`.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Overall classification.
    pub status: RunStatus,
    /// True if a corrupt manifest was moved aside during startup.
    pub manifest_recovered: bool,
    /// Stages completed in this invocation.
    pub completed: Vec<String>,
    /// Stages skipped because the manifest already records them completed.
    pub skipped: Vec<String>,
    /// Stages that failed.
    pub failed: Vec<String>,
    /// Stages never started (failure earlier in the plan without
    /// `--keep-going`).
    pub not_run: Vec<String>,
    /// Wall-clock seconds for the whole invocation.
    pub total_seconds: f64,
}

impl RunReport {
    /// Process exit code under the documented contract: 0 all completed,
    /// 8 partial success, 1 nothing completed.
    pub fn exit_code(&self) -> u8 {
        match self.status {
            RunStatus::AllCompleted => 0,
            RunStatus::PartialFailure => 8,
            RunStatus::AllFailed => 1,
        }
    }

    /// Human-readable run report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let status = match self.status {
            RunStatus::AllCompleted => "all stages completed",
            RunStatus::PartialFailure => "PARTIAL FAILURE",
            RunStatus::AllFailed => "ALL STAGES FAILED",
        };
        s.push_str(&format!(
            "== Suite run report: {status} (exit {}) in {:.1}s ==\n",
            self.exit_code(),
            self.total_seconds
        ));
        if self.manifest_recovered {
            s.push_str("manifest.json was corrupt; moved aside and rebuilt from scratch\n");
        }
        let section = |s: &mut String, label: &str, names: &[String]| {
            if !names.is_empty() {
                s.push_str(&format!("{label}: {}\n", names.join(" ")));
            }
        };
        section(&mut s, "completed", &self.completed);
        section(&mut s, "skipped (already completed)", &self.skipped);
        section(&mut s, "failed", &self.failed);
        section(&mut s, "not run", &self.not_run);
        s
    }
}

/// Expands `all`, validates every stage name against [`ALL_STAGES`] and
/// drops duplicates while preserving first-occurrence order. Rejecting
/// unknown names here — before any stage executes — is what keeps a typo
/// from costing a half-run suite.
pub fn expand_commands(commands: &[String]) -> Result<Vec<String>, SuiteError> {
    let mut plan: Vec<String> = Vec::new();
    for cmd in commands {
        if cmd == "all" {
            for s in ALL_STAGES {
                if !plan.iter().any(|p| p == s) {
                    plan.push(s.to_string());
                }
            }
        } else if ALL_STAGES.contains(&cmd.as_str()) {
            if !plan.iter().any(|p| p == cmd) {
                plan.push(cmd.clone());
            }
        } else {
            return Err(SuiteError::Config {
                what: format!("unknown command {cmd:?}"),
            });
        }
    }
    Ok(plan)
}

/// Runs `stage`, converting a panic into [`SuiteError::Panic`].
/// `AssertUnwindSafe` is sound here because the mutable state crossing the
/// boundary (the model cache and transfer slot) is only published *after*
/// a computation fully succeeds, so an unwound stage leaves both exactly
/// as they were.
fn run_guarded(
    stage: &str,
    cfg: &SuiteConfig,
    out: &Output,
    cache: &mut SuiteCache,
    transfer_runs: &mut Option<TransferRuns>,
) -> Result<(), SuiteError> {
    match catch_unwind(AssertUnwindSafe(|| {
        dispatch(stage, cfg, out, cache, transfer_runs)
    })) {
        Ok(r) => r,
        Err(payload) => Err(SuiteError::Panic {
            detail: cpt_gpt::panic_message(&*payload).to_string(),
        }),
    }
}

/// Loads the shared transfer-protocol runs from the on-disk cache or
/// computes (and persists) them. Tables 4, 9 and 10 all consume the same
/// runs, and they are the most expensive thing the suite trains — reusing
/// them across restarts is most of what `--resume` buys.
fn ensure_transfer<'a>(
    cfg: &SuiteConfig,
    out: &Output,
    slot: &'a mut Option<TransferRuns>,
) -> Result<&'a TransferRuns, SuiteError> {
    if slot.is_none() {
        let path = cfg
            .out_dir
            .join("cache")
            .join(format!("transfer-{}.cmb", cfg.scale.name));
        if let Some(runs) = transfer::load_cached_runs(&path, &cfg.scale) {
            out.note("  [reusing cached transfer-protocol runs]");
            *slot = Some(runs);
        } else {
            out.note("== Running the transfer-learning protocol (shared by Tables 4/9/10) ==");
            let runs = transfer::run_transfer_protocol(&cfg.scale, out)?;
            transfer::persist_runs(&path, &cfg.scale, &runs);
            *slot = Some(runs);
        }
    }
    slot.as_ref().ok_or_else(|| SuiteError::Config {
        what: "transfer runs missing after initialization".to_string(),
    })
}

fn dispatch(
    stage: &str,
    cfg: &SuiteConfig,
    out: &Output,
    cache: &mut SuiteCache,
    transfer_runs: &mut Option<TransferRuns>,
) -> Result<(), SuiteError> {
    let scale = &cfg.scale;
    match stage {
        "table3" => violations::run_table3(scale, out, cache),
        "table5" => violations::run_table5(scale, out, cache),
        "fig2" => distributions::run_fig2(scale, out, cache),
        "table6" => distributions::run_table6(scale, out, cache),
        "fig5" => distributions::run_fig5(scale, out, cache),
        "table7" => distributions::run_table7(scale, out, cache),
        "table8" => ablations::run_table8(scale, out),
        "fig6" => scalability::run_fig6(scale, out, cache),
        "table4" => {
            let runs = ensure_transfer(cfg, out, transfer_runs)?;
            transfer::run_table4(out, runs, scale.hours);
            Ok(())
        }
        "table9" => {
            let runs = ensure_transfer(cfg, out, transfer_runs)?;
            transfer::run_table9(out, runs, scale.hours);
            Ok(())
        }
        "table10" => {
            let runs = ensure_transfer(cfg, out, transfer_runs)?;
            transfer::run_table10(scale, out, runs)
        }
        "table11" => memorization::run_table11(scale, out, cache),
        "fig7" => memorization::run_fig7(scale, out, cache),
        "downstream" => downstream::run_downstream(scale, out, cache),
        "ablation-logscale" => ablations::run_ablation_logscale(scale, out),
        "ablation-batchgen" => ablations::run_ablation_batchgen(scale, out),
        other => Err(SuiteError::Config {
            what: format!("unknown stage {other:?} reached the dispatcher"),
        }),
    }
}

/// Runs `commands` under the supervisor. Returns `Err` only for setup
/// failures (unknown commands, unwritable results dir, manifest write
/// failures); per-stage failures are captured in the returned
/// [`RunReport`] instead.
pub fn run_stages(cfg: &SuiteConfig, commands: &[String]) -> Result<RunReport, SuiteError> {
    let stages = expand_commands(commands)?;
    if stages.is_empty() {
        return Err(SuiteError::Config {
            what: "no stages requested".to_string(),
        });
    }
    if let Some(stage) = &cfg.inject_fail {
        if !ALL_STAGES.contains(&stage.as_str()) {
            return Err(SuiteError::Config {
                what: format!("--inject-fail names unknown stage {stage:?}"),
            });
        }
    }
    let out = Output::new(&cfg.out_dir).map_err(|source| SuiteError::Io {
        path: cfg.out_dir.clone(),
        source,
    })?;
    let manifest_path = RunManifest::path(&cfg.out_dir);
    let (mut manifest, manifest_recovered) = if cfg.resume {
        RunManifest::load_or_recover(&manifest_path, cfg.scale.name)
    } else {
        (RunManifest::fresh(cfg.scale.name), false)
    };
    if manifest_recovered {
        out.note(&format!(
            "warning: {} was unreadable or from a different run; moved aside to manifest.json.corrupt",
            manifest_path.display()
        ));
    }
    let mut cache = SuiteCache::persistent(cfg.out_dir.join("cache"));
    let mut transfer_runs: Option<TransferRuns> = None;
    let started = Instant::now();
    let mut completed = Vec::new();
    let mut skipped = Vec::new();
    let mut failed = Vec::new();
    let mut not_run = Vec::new();
    let mut stopped = false;

    for stage in &stages {
        if stopped {
            not_run.push(stage.clone());
            continue;
        }
        if cfg.resume
            && manifest
                .stages
                .get(stage.as_str())
                .is_some_and(|rec| rec.status == StageStatus::Completed)
        {
            out.note(&format!("  [{stage}: already completed, skipping]"));
            skipped.push(stage.clone());
            continue;
        }
        let stage_started = Instant::now();
        let result = if cfg.inject_fail.as_ref() == Some(stage) {
            Err(SuiteError::Injected {
                stage: stage.clone(),
            })
        } else {
            run_guarded(stage, cfg, &out, &mut cache, &mut transfer_runs)
        };
        let duration_secs = stage_started.elapsed().as_secs_f64();
        manifest.stages.insert(
            stage.clone(),
            StageRecord {
                status: if result.is_ok() {
                    StageStatus::Completed
                } else {
                    StageStatus::Failed
                },
                duration_secs,
                error: result.as_ref().err().map(|e| e.to_string()),
            },
        );
        manifest.save(&manifest_path)?;
        match result {
            Ok(()) => {
                completed.push(stage.clone());
                out.note(&format!("  [{stage} done in {duration_secs:.1}s]\n"));
            }
            Err(err) => {
                out.note(&format!("  [{stage} failed: {err}]"));
                failed.push(stage.clone());
                if !cfg.keep_going {
                    out.note(&format!(
                        "  [stopping after failed stage {stage}; pass --keep-going to continue]"
                    ));
                    stopped = true;
                }
            }
        }
    }

    let status = if failed.is_empty() && not_run.is_empty() {
        RunStatus::AllCompleted
    } else if completed.is_empty() && skipped.is_empty() {
        RunStatus::AllFailed
    } else {
        RunStatus::PartialFailure
    };
    let report = RunReport {
        status,
        manifest_recovered,
        completed,
        skipped,
        failed,
        not_run,
        total_seconds: started.elapsed().as_secs_f64(),
    };
    out.table("run_report", &report.render());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_testkit::{truncate_file, Scratch};

    #[test]
    fn expand_rejects_unknown_and_dedups() {
        let cmds = vec![
            "table3".to_string(),
            "table3".to_string(),
            "fig2".to_string(),
        ];
        let plan = expand_commands(&cmds).expect("valid");
        assert_eq!(plan, vec!["table3".to_string(), "fig2".to_string()]);

        let all = expand_commands(&["all".to_string()]).expect("valid");
        assert_eq!(all.len(), ALL_STAGES.len());

        let err = expand_commands(&["table99".to_string()]).expect_err("unknown");
        assert!(matches!(err, SuiteError::Config { .. }), "{err}");
    }

    #[test]
    fn manifest_roundtrips_and_recovers_from_corruption() {
        let dir = Scratch::new("suite-manifest");
        let path = RunManifest::path(dir.dir());
        let mut m = RunManifest::fresh("quick");
        m.stages.insert(
            "table3".to_string(),
            StageRecord {
                status: StageStatus::Completed,
                duration_secs: 1.5,
                error: None,
            },
        );
        m.save(&path).expect("save");
        let (back, recovered) = RunManifest::load_or_recover(&path, "quick");
        assert!(!recovered);
        assert_eq!(back, m);

        // Truncated file: recovered flag set, backup written, fresh state.
        truncate_file(&path, 0.5).expect("truncate");
        let (fresh, recovered) = RunManifest::load_or_recover(&path, "quick");
        assert!(recovered);
        assert!(fresh.stages.is_empty());
        assert!(path.with_extension("json.corrupt").exists());
        assert!(!path.exists(), "corrupt manifest must be moved aside");

        // Wrong scale is also treated as unusable.
        m.save(&path).expect("save");
        let (_, recovered) = RunManifest::load_or_recover(&path, "full");
        assert!(recovered);

        // So is an older layout, whose completed records may come from a
        // reseeded retry.
        let old = RunManifest {
            format_version: 1,
            ..m
        };
        old.save(&path).expect("save");
        let (fresh, recovered) = RunManifest::load_or_recover(&path, "quick");
        assert!(recovered);
        assert!(fresh.stages.is_empty());
    }

    #[test]
    fn missing_manifest_is_a_fresh_start_not_a_recovery() {
        let dir = Scratch::new("suite-manifest-missing");
        let (m, recovered) = RunManifest::load_or_recover(&RunManifest::path(dir.dir()), "quick");
        assert!(!recovered);
        assert!(m.stages.is_empty());
    }

    #[test]
    fn run_report_classifies_exit_codes() {
        let base = RunReport {
            status: RunStatus::AllCompleted,
            manifest_recovered: false,
            completed: vec!["table3".into()],
            skipped: vec![],
            failed: vec![],
            not_run: vec![],
            total_seconds: 1.0,
        };
        assert_eq!(base.exit_code(), 0);
        let partial = RunReport {
            status: RunStatus::PartialFailure,
            failed: vec!["fig2".into()],
            ..base.clone()
        };
        assert_eq!(partial.exit_code(), 8);
        assert!(partial.render().contains("PARTIAL FAILURE"));
        assert!(partial.render().contains("failed: fig2"));
        let dead = RunReport {
            status: RunStatus::AllFailed,
            completed: vec![],
            ..base
        };
        assert_eq!(dead.exit_code(), 1);
    }

    #[test]
    fn config_errors_are_rejected_before_any_stage_runs() {
        let dir = Scratch::new("suite-reject");
        let cfg = SuiteConfig::new(Scale::tiny(), dir.path("results"));
        let err =
            run_stages(&cfg, &["definitely-not-a-stage".to_string()]).expect_err("unknown command");
        assert!(matches!(err, SuiteError::Config { .. }));
        assert!(
            !dir.path("results").join("manifest.json").exists(),
            "validation failures must not touch the results dir"
        );

        let mut bad = SuiteConfig::new(Scale::tiny(), dir.path("results"));
        bad.inject_fail = Some("not-a-stage".to_string());
        let err = run_stages(&bad, &["table3".to_string()]).expect_err("bad fault spec");
        assert!(matches!(err, SuiteError::Config { .. }));
    }
}
