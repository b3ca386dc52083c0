//! Crash-safe on-disk model registry.
//!
//! The registry is the durable half of model hot-swap: a directory of
//! immutable, versioned model artifacts plus one atomically rewritten
//! `manifest.json` recording every version's state in the promotion state
//! machine (`candidate → validated → live → draining → retired`, with
//! `quarantined` as the off-ramp for damaged artifacts). Every transition
//! is a manifest commit through the workspace's write-temp + fsync +
//! rename idiom, so a crash at any byte leaves either the old manifest or
//! the new one — never a mix.
//!
//! Layout under the registry root:
//!
//! ```text
//! registry/
//!   manifest.json          current state (atomic rewrite per transition)
//!   manifest.prev.json     state before the latest commit (recovery fallback)
//!   versions/v0007/model.json   immutable checksummed artifacts
//!   quarantine/v0007/...        damaged versions, moved aside on recovery
//! ```
//!
//! **Recovery** ([`Registry::open`]) trusts nothing: a corrupt manifest
//! falls back to `manifest.prev.json` (the state as of the last durable
//! commit); every referenced artifact is re-verified against its recorded
//! byte checksum; damaged or unreferenced (partially staged) version
//! directories are moved to `quarantine/` and recorded as such; leftover
//! manifest temp files from a crashed commit are removed; and if the live
//! version itself is damaged, the registry falls back to the previous
//! version — so startup always lands on the last durable, intact version.
//!
//! **The validation gate** ([`Registry::validate`]) is what `publish`
//! runs before any session can see a candidate: the artifact's byte
//! checksum, the checkpoint-load validation in [`cpt_gpt::load_model_file`]
//! (its own weight checksum, shapes, finiteness), and a deterministic
//! canary — decode a fixed number of events from fixed seeds under
//! `catch_unwind` and require every event to be well-formed and finite.
//! The canary fingerprint (a hash of the exact events) is recorded in the
//! manifest so later re-validation can detect serve-time drift.
//!
//! Chaos hooks ([`ChaosPlan::crash_manifest_commit`],
//! [`ChaosPlan::corrupt_candidate`]) make the two nastiest windows —
//! crash between temp-write and rename, corrupt candidate artifact —
//! deterministically testable.

#![deny(clippy::unwrap_used)]

use crate::chaos::ChaosPlan;
use crate::steer::splitmix64;
use cpt_gpt::{CheckpointError, CptGpt, StreamParams};
use cpt_trace::columnar::fnv1a;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Manifest file name under the registry root.
pub const MANIFEST: &str = "manifest.json";
/// Previous-manifest backup, the recovery fallback for a damaged manifest.
pub const MANIFEST_PREV: &str = "manifest.prev.json";
/// Artifact file name inside each version directory.
pub const ARTIFACT: &str = "model.json";

/// Fixed seeds the deterministic canary decodes from. Constant across
/// builds so a canary fingerprint recorded at publish time stays
/// comparable for the lifetime of the registry.
pub const CANARY_SEEDS: [u64; 3] = [11, 23, 37];
/// Events decoded per canary seed.
pub const CANARY_EVENTS: usize = 24;

/// Typed registry failures. Every lifecycle transition that can go wrong
/// does so as a value — a serving process must survive a bad artifact,
/// a torn write, or a crash mid-promotion without panicking.
#[derive(Debug)]
pub enum RegistryError {
    /// Filesystem failure (create, read, rename, copy).
    Io {
        /// The path being operated on.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Both `manifest.json` and its backup are unreadable or unparseable.
    CorruptManifest {
        /// The manifest path.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// A version's artifact is missing, truncated, or fails its checksum.
    CorruptArtifact {
        /// The damaged version.
        version: u64,
        /// The artifact path.
        path: PathBuf,
        /// What the verification found.
        detail: String,
    },
    /// The version id is not in the manifest.
    UnknownVersion(u64),
    /// A transition was requested from the wrong state (e.g. promoting a
    /// version that never passed validation).
    InvalidTransition {
        /// The version.
        version: u64,
        /// Its current state.
        state: VersionState,
        /// The transition that was requested.
        wanted: &'static str,
    },
    /// Checkpoint-load validation rejected the candidate's weights.
    ValidationFailed {
        /// The candidate version.
        version: u64,
        /// The checkpoint error, stringified.
        detail: String,
    },
    /// The deterministic canary rejected the candidate: a decode panic,
    /// a non-finite or malformed event.
    CanaryFailed {
        /// The candidate version.
        version: u64,
        /// What the canary observed.
        detail: String,
    },
    /// The registry holds no live version (empty or fully quarantined).
    NoLiveVersion,
    /// Rollback requested but no previous version is retained.
    NoPreviousVersion,
    /// A chaos-injected crash in the commit window between temp-write and
    /// rename. The durable manifest is the *old* one; the in-memory
    /// registry matches it.
    SimulatedCrash {
        /// Which window the crash landed in.
        point: &'static str,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io { path, source } => {
                write!(f, "registry io error at {}: {source}", path.display())
            }
            RegistryError::CorruptManifest { path, detail } => {
                write!(f, "corrupt registry manifest {}: {detail}", path.display())
            }
            RegistryError::CorruptArtifact {
                version,
                path,
                detail,
            } => write!(
                f,
                "corrupt artifact for version {version} at {}: {detail}",
                path.display()
            ),
            RegistryError::UnknownVersion(id) => write!(f, "unknown registry version {id}"),
            RegistryError::InvalidTransition {
                version,
                state,
                wanted,
            } => write!(
                f,
                "version {version} is {state:?}; cannot {wanted} from that state"
            ),
            RegistryError::ValidationFailed { version, detail } => {
                write!(f, "version {version} failed checkpoint validation: {detail}")
            }
            RegistryError::CanaryFailed { version, detail } => {
                write!(f, "version {version} failed the canary gate: {detail}")
            }
            RegistryError::NoLiveVersion => write!(f, "registry has no live version"),
            RegistryError::NoPreviousVersion => {
                write!(f, "registry retains no previous version to roll back to")
            }
            RegistryError::SimulatedCrash { point } => {
                write!(f, "chaos: simulated crash in the {point} window")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Where a version sits in the promotion state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum VersionState {
    /// Staged on disk, not yet validated; invisible to sessions.
    Candidate,
    /// Passed the validation gate (checksum + checkpoint load + canary).
    Validated,
    /// The version new sessions open on.
    Live,
    /// Demoted (superseded or rolled back); pinned sessions still drain
    /// on it.
    Draining,
    /// No sessions reference it; its in-engine copy has been freed. The
    /// artifact stays on disk as history.
    Retired,
    /// Damaged (failed checksum, load, or canary); moved aside, never
    /// served.
    Quarantined,
}

impl std::fmt::Display for VersionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VersionState::Candidate => "candidate",
            VersionState::Validated => "validated",
            VersionState::Live => "live",
            VersionState::Draining => "draining",
            VersionState::Retired => "retired",
            VersionState::Quarantined => "quarantined",
        };
        f.write_str(s)
    }
}

/// One version's manifest record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionRecord {
    /// Monotonically increasing version id (never reused, even across
    /// quarantines).
    pub id: u64,
    /// Artifact path relative to the registry root.
    pub file: String,
    /// Artifact size in bytes at stage time.
    pub bytes: u64,
    /// FNV-1a/64 over the artifact's raw bytes at stage time.
    pub file_checksum: u64,
    /// Position in the promotion state machine.
    pub state: VersionState,
    /// Canary fingerprint recorded when validation passed (0 until then).
    #[serde(default)]
    pub canary: u64,
    /// Provenance note ("imported at startup", "finetune of v3 on …").
    #[serde(default)]
    pub note: String,
}

/// The durable registry state, rewritten atomically on every transition.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest schema version.
    pub format_version: u32,
    /// The version new sessions open on.
    pub live: Option<u64>,
    /// The version `rollback` restores; retained in the engine until a
    /// later promote displaces it.
    pub previous: Option<u64>,
    /// Every version ever staged, including quarantined ones.
    pub versions: Vec<VersionRecord>,
}

impl Manifest {
    /// The record for version `id`, if it exists.
    pub fn record(&self, id: u64) -> Option<&VersionRecord> {
        self.versions.iter().find(|r| r.id == id)
    }

    fn record_mut(&mut self, id: u64) -> Option<&mut VersionRecord> {
        self.versions.iter_mut().find(|r| r.id == id)
    }
}

/// What [`Registry::open`] had to repair.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Versions quarantined during recovery, with the reason.
    pub quarantined: Vec<(u64, String)>,
    /// The manifest was unreadable and state came from
    /// `manifest.prev.json`.
    pub manifest_from_backup: bool,
    /// The recorded live version was damaged and the registry fell back
    /// to this one.
    pub live_fell_back_to: Option<u64>,
    /// Leftover commit temp files removed (a crash landed between
    /// temp-write and rename).
    pub torn_commits_cleaned: usize,
}

impl RecoveryReport {
    /// True when recovery found a registry exactly as the last commit
    /// left it.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && !self.manifest_from_backup
            && self.live_fell_back_to.is_none()
            && self.torn_commits_cleaned == 0
    }
}

fn io_err(path: &Path, source: std::io::Error) -> RegistryError {
    RegistryError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Decodes [`CANARY_EVENTS`] events from each of [`CANARY_SEEDS`] on
/// `model` under `catch_unwind`, requiring every event to be well-formed
/// (stream index in range, non-negative finite interarrival, finite
/// timestamp) — and returns a fingerprint over the exact events. The
/// fingerprint is a pure function of the model weights, so an identical
/// model always produces an identical fingerprint, and a serve-time
/// re-run that disagrees with the recorded value proves the in-memory or
/// on-disk weights drifted.
pub fn canary_fingerprint(model: &CptGpt) -> Result<u64, String> {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &seed in &CANARY_SEEDS {
            let params = StreamParams::new(seed)
                .streams(2)
                .with_max_stream_len(CANARY_EVENTS);
            let mut dec = model
                .open_session(params)
                .map_err(|e| format!("canary session rejected: {e}"))?;
            let mut emitted = 0usize;
            while emitted < CANARY_EVENTS {
                let Some(ev) = dec.next_event(model) else {
                    break;
                };
                if ev.stream >= 2 {
                    return Err(format!(
                        "malformed canary event: stream index {} out of range",
                        ev.stream
                    ));
                }
                if !ev.iat.is_finite() || ev.iat < 0.0 || !ev.timestamp.is_finite() {
                    return Err(format!(
                        "non-finite canary event: iat={} timestamp={}",
                        ev.iat, ev.timestamp
                    ));
                }
                eat(seed);
                eat(ev.stream as u64);
                eat(ev.event_type.index() as u64);
                eat(ev.iat.to_bits());
                eat(ev.timestamp.to_bits());
                eat(u64::from(ev.last_in_stream));
                emitted += 1;
            }
            if emitted == 0 {
                return Err(format!("canary seed {seed} produced no events"));
            }
        }
        Ok(h)
    }));
    match run {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "canary decode panicked: {}",
            cpt_gpt::panic_message(&*payload)
        )),
    }
}

/// The crash-safe model registry. All mutating operations follow a
/// clone-mutate-commit discipline: the in-memory manifest only changes
/// after the new state is durably renamed into place, so a failed (or
/// chaos-crashed) commit leaves memory and disk agreeing on the *old*
/// state.
pub struct Registry {
    root: PathBuf,
    manifest: Manifest,
    chaos: ChaosPlan,
    /// Manifest commits performed by this instance (chaos coordinate).
    commits: u64,
    /// Candidates staged by this instance (chaos coordinate).
    stages: u64,
}

impl Registry {
    /// Opens (creating if absent) the registry at `root`, running full
    /// crash recovery: manifest fallback, artifact verification,
    /// quarantine of damaged or unreferenced versions, live-version
    /// fallback, and torn-commit cleanup.
    pub fn open(root: impl Into<PathBuf>) -> Result<(Registry, RecoveryReport), RegistryError> {
        Registry::open_with_chaos(root, ChaosPlan::default())
    }

    /// [`Registry::open`] with a chaos plan wired into later commits and
    /// stagings (recovery itself is never chaos-injected: the recovering
    /// process is the one that *survived* the crash).
    pub fn open_with_chaos(
        root: impl Into<PathBuf>,
        chaos: ChaosPlan,
    ) -> Result<(Registry, RecoveryReport), RegistryError> {
        let root = root.into();
        for sub in ["versions", "quarantine"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        let mut report = RecoveryReport {
            torn_commits_cleaned: clean_torn_commits(&root)?,
            ..RecoveryReport::default()
        };
        let mut manifest = load_manifest(&root, &mut report)?;
        verify_and_quarantine(&root, &mut manifest, &mut report)?;
        let mut reg = Registry {
            root,
            manifest: manifest.clone(),
            chaos,
            commits: 0,
            stages: 0,
        };
        if !report.is_clean() || !reg.root.join(MANIFEST).exists() {
            // Persist the repaired view (without chaos: recovery commits
            // must always land).
            reg.write_manifest(&manifest)?;
            reg.manifest = manifest;
        }
        Ok((reg, report))
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The current manifest (read-only view).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The live version id, if any.
    pub fn live(&self) -> Option<u64> {
        self.manifest.live
    }

    /// True when no non-quarantined version exists (fresh registry).
    pub fn is_empty(&self) -> bool {
        !self
            .manifest
            .versions
            .iter()
            .any(|r| r.state != VersionState::Quarantined)
    }

    /// Absolute path of a version's artifact.
    pub fn artifact_path(&self, id: u64) -> Result<PathBuf, RegistryError> {
        let rec = self
            .manifest
            .record(id)
            .ok_or(RegistryError::UnknownVersion(id))?;
        Ok(self.root.join(&rec.file))
    }

    /// Stages `model` as a new immutable candidate version: writes the
    /// checksummed artifact atomically, records its byte checksum, and
    /// commits a `Candidate` record. Returns the new version id.
    pub fn stage(&mut self, model: &CptGpt, note: &str) -> Result<u64, RegistryError> {
        self.stages += 1;
        let stage_ordinal = self.stages;
        let id = self
            .manifest
            .versions
            .iter()
            .map(|r| r.id)
            .max()
            .unwrap_or(0)
            + 1;
        let rel = format!("versions/v{id:04}/{ARTIFACT}");
        let dir = self.root.join(format!("versions/v{id:04}"));
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let path = self.root.join(&rel);
        cpt_gpt::save_model_file(model, &path).map_err(|e| RegistryError::CorruptArtifact {
            version: id,
            path: path.clone(),
            detail: format!("stage write failed: {e}"),
        })?;
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        let file_checksum = fnv1a(&bytes);
        let size = bytes.len() as u64;
        if self.chaos.corrupts_candidate(stage_ordinal) {
            // Flip one byte in place *after* the good checksum was
            // recorded — the validation gate must catch the damage.
            let mut damaged = bytes;
            let pos = (splitmix64(self.chaos.seed ^ id) as usize) % damaged.len();
            damaged[pos] ^= 0x20;
            std::fs::write(&path, &damaged).map_err(|e| io_err(&path, e))?;
        }
        let mut next = self.manifest.clone();
        next.versions.push(VersionRecord {
            id,
            file: rel,
            bytes: size,
            file_checksum,
            state: VersionState::Candidate,
            canary: 0,
            note: note.to_string(),
        });
        self.commit(next)?;
        Ok(id)
    }

    /// Runs the full validation gate on candidate `id`: artifact byte
    /// checksum, checkpoint-load validation, and the deterministic
    /// canary. On success the record moves to `Validated` (canary
    /// fingerprint recorded) and the loaded model is returned. On any
    /// failure the version is quarantined and a typed error reports why.
    pub fn validate(&mut self, id: u64) -> Result<CptGpt, RegistryError> {
        let rec = self
            .manifest
            .record(id)
            .ok_or(RegistryError::UnknownVersion(id))?
            .clone();
        match rec.state {
            VersionState::Candidate | VersionState::Validated => {}
            state => {
                return Err(RegistryError::InvalidTransition {
                    version: id,
                    state,
                    wanted: "validate",
                })
            }
        }
        let path = self.root.join(&rec.file);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                let err = RegistryError::CorruptArtifact {
                    version: id,
                    path: path.clone(),
                    detail: format!("unreadable artifact: {e}"),
                };
                self.quarantine(id, &format!("unreadable artifact: {e}"))?;
                return Err(err);
            }
        };
        let actual = fnv1a(&bytes);
        if actual != rec.file_checksum {
            let detail = format!(
                "file checksum mismatch: recorded {:#018x}, computed {actual:#018x}",
                rec.file_checksum
            );
            self.quarantine(id, &detail)?;
            return Err(RegistryError::CorruptArtifact {
                version: id,
                path,
                detail,
            });
        }
        let model = match cpt_gpt::load_model_file(&path) {
            Ok(m) => m,
            Err(e) => {
                let (err, detail) = match &e {
                    CheckpointError::Validation { detail, .. } => (
                        RegistryError::ValidationFailed {
                            version: id,
                            detail: detail.clone(),
                        },
                        format!("checkpoint validation failed: {detail}"),
                    ),
                    other => (
                        RegistryError::CorruptArtifact {
                            version: id,
                            path: path.clone(),
                            detail: other.to_string(),
                        },
                        format!("artifact load failed: {other}"),
                    ),
                };
                self.quarantine(id, &detail)?;
                return Err(err);
            }
        };
        let fingerprint = match canary_fingerprint(&model) {
            Ok(fp) => fp,
            Err(detail) => {
                self.quarantine(id, &detail)?;
                return Err(RegistryError::CanaryFailed {
                    version: id,
                    detail,
                });
            }
        };
        let mut next = self.manifest.clone();
        if let Some(r) = next.record_mut(id) {
            r.state = VersionState::Validated;
            r.canary = fingerprint;
        }
        self.commit(next)?;
        Ok(model)
    }

    /// Promotes a `Validated` version to `Live`; the old live version (if
    /// any) moves to `Draining` and becomes the rollback target. Returns
    /// the demoted version. This is the commit the chaos crash window
    /// targets.
    pub fn promote(&mut self, id: u64) -> Result<Option<u64>, RegistryError> {
        let rec = self
            .manifest
            .record(id)
            .ok_or(RegistryError::UnknownVersion(id))?;
        if self.manifest.live == Some(id) {
            return Ok(None);
        }
        if rec.state != VersionState::Validated {
            return Err(RegistryError::InvalidTransition {
                version: id,
                state: rec.state,
                wanted: "promote",
            });
        }
        let old = self.manifest.live;
        let mut next = self.manifest.clone();
        if let Some(old_id) = old {
            if let Some(r) = next.record_mut(old_id) {
                r.state = VersionState::Draining;
            }
        }
        if let Some(r) = next.record_mut(id) {
            r.state = VersionState::Live;
        }
        next.previous = old;
        next.live = Some(id);
        self.commit(next)?;
        Ok(old)
    }

    /// Re-promotes the previous version and demotes the current live one
    /// (to `Draining`: pinned sessions may still be finishing on it).
    /// Returns `(demoted, restored)`.
    pub fn rollback(&mut self) -> Result<(u64, u64), RegistryError> {
        let live = self.manifest.live.ok_or(RegistryError::NoLiveVersion)?;
        let prev = self
            .manifest
            .previous
            .ok_or(RegistryError::NoPreviousVersion)?;
        let mut next = self.manifest.clone();
        if let Some(r) = next.record_mut(live) {
            r.state = VersionState::Draining;
        }
        if let Some(r) = next.record_mut(prev) {
            r.state = VersionState::Live;
        }
        next.live = Some(prev);
        next.previous = None;
        self.commit(next)?;
        Ok((live, prev))
    }

    /// Marks a drained version `Retired` (its last pinned session ended
    /// and the engine freed its in-memory copy). Retiring a version that
    /// is live, quarantined, or unknown is a no-op: the engine's retire
    /// notifications race benignly with promotes and recoveries.
    pub fn retire(&mut self, id: u64) -> Result<(), RegistryError> {
        if self.manifest.live == Some(id) {
            return Ok(());
        }
        let Some(rec) = self.manifest.record(id) else {
            return Ok(());
        };
        if !matches!(rec.state, VersionState::Draining | VersionState::Validated) {
            return Ok(());
        }
        let mut next = self.manifest.clone();
        if let Some(r) = next.record_mut(id) {
            r.state = VersionState::Retired;
        }
        self.commit(next)
    }

    /// Moves version `id` to quarantine (directory and record), recording
    /// the reason in the note. The artifact is preserved for post-mortem,
    /// never served.
    pub fn quarantine(&mut self, id: u64, reason: &str) -> Result<(), RegistryError> {
        let mut next = self.manifest.clone();
        quarantine_in(&self.root, &mut next, id, reason)?;
        self.commit(next)
    }

    /// Loads and fully verifies the live version's artifact. This is the
    /// startup path a restarted server takes to resume serving the last
    /// durable version.
    pub fn load_live(&mut self) -> Result<(u64, CptGpt), RegistryError> {
        let live = self.manifest.live.ok_or(RegistryError::NoLiveVersion)?;
        let rec = self
            .manifest
            .record(live)
            .ok_or(RegistryError::UnknownVersion(live))?
            .clone();
        let path = self.root.join(&rec.file);
        match cpt_gpt::load_model_file(&path) {
            Ok(m) => Ok((live, m)),
            Err(e) => Err(RegistryError::CorruptArtifact {
                version: live,
                path,
                detail: e.to_string(),
            }),
        }
    }

    /// Commits `next` durably (backup current, write-temp + fsync +
    /// rename), then — and only then — adopts it in memory. The chaos
    /// crash hook aborts between temp-write and rename, leaving exactly
    /// the torn state a real crash would.
    fn commit(&mut self, next: Manifest) -> Result<(), RegistryError> {
        self.commits += 1;
        if self.chaos.crash_at_commit(self.commits) {
            // Leave the evidence a real crash leaves: the fully written
            // temp file, not yet renamed, with the old manifest intact.
            let tmp = self.root.join(format!("{MANIFEST}.tmp.crashed"));
            let json = serde_json::to_string(&next).unwrap_or_default();
            std::fs::write(&tmp, json).map_err(|e| io_err(&tmp, e))?;
            return Err(RegistryError::SimulatedCrash {
                point: "manifest temp-write/rename",
            });
        }
        self.write_manifest(&next)?;
        self.manifest = next;
        Ok(())
    }

    fn write_manifest(&self, next: &Manifest) -> Result<(), RegistryError> {
        let path = self.root.join(MANIFEST);
        if path.exists() {
            let prev = self.root.join(MANIFEST_PREV);
            std::fs::copy(&path, &prev).map_err(|e| io_err(&prev, e))?;
        }
        cpt_nn::serialize::atomic_write_json(next, &path).map_err(|e| match e {
            cpt_nn::serialize::CheckpointError::Io(source) => io_err(&path, source),
            other => RegistryError::CorruptManifest {
                path,
                detail: other.to_string(),
            },
        })
    }
}

/// Removes `manifest.json.tmp.*` leftovers from a crash between
/// temp-write and rename. Returns how many were cleaned.
fn clean_torn_commits(root: &Path) -> Result<usize, RegistryError> {
    let mut cleaned = 0usize;
    let entries = std::fs::read_dir(root).map_err(|e| io_err(root, e))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(&format!("{MANIFEST}.tmp.")) {
            std::fs::remove_file(entry.path()).map_err(|e| io_err(&entry.path(), e))?;
            cleaned += 1;
        }
    }
    Ok(cleaned)
}

/// Parses the manifest, falling back to the previous-commit backup when
/// the current file is damaged. A fresh registry (no manifest at all)
/// starts empty.
fn load_manifest(root: &Path, report: &mut RecoveryReport) -> Result<Manifest, RegistryError> {
    let path = root.join(MANIFEST);
    let prev = root.join(MANIFEST_PREV);
    let parse = |p: &Path| -> Result<Manifest, String> {
        let bytes = std::fs::read(p).map_err(|e| e.to_string())?;
        serde_json::from_slice(&bytes).map_err(|e| e.to_string())
    };
    if path.exists() {
        match parse(&path) {
            Ok(m) => return Ok(m),
            Err(detail) => {
                // Preserve the damaged manifest for post-mortem, then fall
                // back to the last durable commit.
                let aside = root.join("quarantine").join("manifest.corrupt.json");
                std::fs::rename(&path, &aside).map_err(|e| io_err(&aside, e))?;
                if prev.exists() {
                    match parse(&prev) {
                        Ok(m) => {
                            report.manifest_from_backup = true;
                            return Ok(m);
                        }
                        Err(prev_detail) => {
                            return Err(RegistryError::CorruptManifest {
                                path,
                                detail: format!(
                                    "{detail}; backup also unreadable: {prev_detail}"
                                ),
                            })
                        }
                    }
                }
                return Err(RegistryError::CorruptManifest { path, detail });
            }
        }
    }
    if prev.exists() {
        if let Ok(m) = parse(&prev) {
            report.manifest_from_backup = true;
            return Ok(m);
        }
    }
    Ok(Manifest {
        format_version: 1,
        ..Manifest::default()
    })
}

/// Moves a version's directory into `quarantine/` (deduping the target
/// name) and flips its record to `Quarantined`, appending the reason to
/// its note. Purely in-memory + filesystem; the caller commits.
fn quarantine_in(
    root: &Path,
    manifest: &mut Manifest,
    id: u64,
    reason: &str,
) -> Result<(), RegistryError> {
    let Some(rec) = manifest.record_mut(id) else {
        return Err(RegistryError::UnknownVersion(id));
    };
    let src_dir = root.join(format!("versions/v{id:04}"));
    let mut dst_rel = format!("quarantine/v{id:04}");
    let mut n = 1;
    while root.join(&dst_rel).exists() {
        n += 1;
        dst_rel = format!("quarantine/v{id:04}.{n}");
    }
    if src_dir.exists() {
        let dst = root.join(&dst_rel);
        std::fs::rename(&src_dir, &dst).map_err(|e| io_err(&dst, e))?;
        rec.file = format!("{dst_rel}/{ARTIFACT}");
    }
    rec.state = VersionState::Quarantined;
    if rec.note.is_empty() {
        rec.note = format!("quarantined: {reason}");
    } else {
        rec.note = format!("{}; quarantined: {reason}", rec.note);
    }
    Ok(())
}

/// Verifies every non-quarantined record's artifact against its recorded
/// byte checksum, quarantines the damaged ones (and unreferenced version
/// directories from partial stagings), and falls the live pointer back to
/// the newest intact previously-serving version if the live artifact is
/// among the casualties.
fn verify_and_quarantine(
    root: &Path,
    manifest: &mut Manifest,
    report: &mut RecoveryReport,
) -> Result<(), RegistryError> {
    let ids: Vec<u64> = manifest
        .versions
        .iter()
        .filter(|r| r.state != VersionState::Quarantined)
        .map(|r| r.id)
        .collect();
    for id in ids {
        let Some(rec) = manifest.record(id) else {
            continue;
        };
        let path = root.join(&rec.file);
        let reason = match std::fs::read(&path) {
            Err(e) => Some(format!("artifact unreadable: {e}")),
            Ok(bytes) => {
                let actual = fnv1a(&bytes);
                if actual != rec.file_checksum {
                    Some(format!(
                        "file checksum mismatch: recorded {:#018x}, computed {actual:#018x}",
                        rec.file_checksum
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(reason) = reason {
            quarantine_in(root, manifest, id, &reason)?;
            report.quarantined.push((id, reason));
        }
    }
    // Version directories the manifest does not know about are partial
    // stagings from a crash before their manifest commit.
    let versions_dir = root.join("versions");
    let entries = std::fs::read_dir(&versions_dir).map_err(|e| io_err(&versions_dir, e))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        let referenced = manifest
            .versions
            .iter()
            .any(|r| r.file.starts_with(&format!("versions/{name}/")));
        if !referenced {
            let id = name
                .strip_prefix('v')
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(0);
            let mut dst_rel = format!("quarantine/{name}");
            let mut n = 1;
            while root.join(&dst_rel).exists() {
                n += 1;
                dst_rel = format!("quarantine/{name}.{n}");
            }
            let dst = root.join(&dst_rel);
            std::fs::rename(entry.path(), &dst).map_err(|e| io_err(&dst, e))?;
            report
                .quarantined
                .push((id, "unreferenced partial staging".to_string()));
        }
    }
    // If the live version was quarantined, fall back to the last durable
    // intact version that has served before (previous first, then the
    // newest Draining/Retired record).
    if let Some(live) = manifest.live {
        let live_ok = manifest
            .record(live)
            .map(|r| r.state == VersionState::Live)
            .unwrap_or(false);
        if !live_ok {
            let fallback = manifest
                .previous
                .filter(|p| {
                    manifest
                        .record(*p)
                        .map(|r| r.state != VersionState::Quarantined)
                        .unwrap_or(false)
                })
                .or_else(|| {
                    manifest
                        .versions
                        .iter()
                        .filter(|r| {
                            matches!(
                                r.state,
                                VersionState::Draining | VersionState::Retired
                            )
                        })
                        .map(|r| r.id)
                        .max()
                });
            manifest.live = fallback;
            manifest.previous = None;
            if let Some(fb) = fallback {
                if let Some(r) = manifest.record_mut(fb) {
                    r.state = VersionState::Live;
                }
                report.live_fell_back_to = Some(fb);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_gpt::{CptGptConfig, Tokenizer, TrainConfig};
    use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};
    use std::sync::{Arc, OnceLock};

    fn alternating_dataset(n: usize) -> Dataset {
        let streams = (0..n)
            .map(|i| {
                let mut t = 0.0;
                let events = (0..6 + (i % 3) * 2)
                    .map(|k| {
                        let (et, gap) = if k % 2 == 0 {
                            (EventType::ServiceRequest, 100.0)
                        } else {
                            (EventType::ConnectionRelease, 10.0)
                        };
                        t += gap;
                        Event::new(et, t)
                    })
                    .collect();
                Stream::new(UeId(i as u64), DeviceType::Phone, events)
            })
            .collect();
        Dataset::new(streams)
    }

    fn trained_model() -> Arc<CptGpt> {
        static MODEL: OnceLock<Arc<CptGpt>> = OnceLock::new();
        Arc::clone(MODEL.get_or_init(|| {
            let data = alternating_dataset(12);
            let cfg = CptGptConfig {
                d_model: 16,
                n_blocks: 1,
                n_heads: 2,
                d_mlp: 32,
                d_head: 16,
                max_len: 16,
                ..CptGptConfig::small()
            };
            let mut model = CptGpt::new(cfg, Tokenizer::fit(&data));
            cpt_gpt::train(&mut model, &data, &TrainConfig::quick().with_epochs(2))
                .expect("fixture training failed");
            Arc::new(model)
        }))
    }

    /// A scratch registry root, removed on drop.
    struct ScratchRoot(PathBuf);

    impl ScratchRoot {
        fn new(tag: &str) -> ScratchRoot {
            let dir = std::env::temp_dir()
                .join(format!("cpt-registry-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchRoot(dir)
        }
    }

    impl Drop for ScratchRoot {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn full_lifecycle_is_durable_across_reopen() {
        let root = ScratchRoot::new("lifecycle");
        let model = trained_model();
        {
            let (mut reg, report) = Registry::open(&root.0).expect("fresh open");
            assert!(report.is_clean());
            assert!(reg.is_empty());

            let v1 = reg.stage(&model, "first import").expect("stage v1");
            assert_eq!(v1, 1);
            let record_state = |reg: &Registry, id: u64| {
                reg.manifest().record(id).expect("record exists").state
            };
            assert_eq!(record_state(&reg, v1), VersionState::Candidate);

            let loaded = reg.validate(v1).expect("validate v1");
            assert_eq!(record_state(&reg, v1), VersionState::Validated);
            let fp = reg.manifest().record(v1).expect("record").canary;
            assert_ne!(fp, 0, "canary fingerprint recorded");
            assert_eq!(
                canary_fingerprint(&loaded).expect("canary reruns"),
                fp,
                "canary fingerprint is a pure function of the weights"
            );

            assert_eq!(reg.promote(v1).expect("promote v1"), None);
            assert_eq!(reg.live(), Some(v1));
            assert_eq!(record_state(&reg, v1), VersionState::Live);

            let v2 = reg.stage(&model, "second import").expect("stage v2");
            reg.validate(v2).expect("validate v2");
            assert_eq!(reg.promote(v2).expect("promote v2"), Some(v1));
            assert_eq!(reg.live(), Some(v2));
            assert_eq!(record_state(&reg, v1), VersionState::Draining);

            let (demoted, restored) = reg.rollback().expect("rollback");
            assert_eq!((demoted, restored), (v2, v1));
            assert_eq!(reg.live(), Some(v1));
            assert_eq!(record_state(&reg, v2), VersionState::Draining);

            reg.retire(v2).expect("retire v2");
            assert_eq!(record_state(&reg, v2), VersionState::Retired);
            // Retiring the live version is a benign no-op.
            reg.retire(v1).expect("retire live no-op");
            assert_eq!(record_state(&reg, v1), VersionState::Live);
        }
        // Every transition above was a durable manifest commit: a fresh
        // process recovers the exact same state.
        let (mut reg, report) = Registry::open(&root.0).expect("reopen");
        assert!(report.is_clean(), "clean shutdown recovers clean: {report:?}");
        assert_eq!(reg.live(), Some(1));
        let (live, _) = reg.load_live().expect("live artifact loads");
        assert_eq!(live, 1);
    }

    #[test]
    fn promote_before_validate_is_a_typed_invalid_transition() {
        let root = ScratchRoot::new("unvalidated");
        let (mut reg, _) = Registry::open(&root.0).expect("open");
        let v1 = reg.stage(&trained_model(), "raw candidate").expect("stage");
        let err = reg.promote(v1).expect_err("unvalidated promote must fail");
        assert!(
            matches!(
                err,
                RegistryError::InvalidTransition {
                    version,
                    state: VersionState::Candidate,
                    wanted: "promote",
                } if version == v1
            ),
            "expected InvalidTransition, got {err:?}"
        );
        assert!(reg.live().is_none(), "nothing went live");
    }

    #[test]
    fn corrupt_candidate_is_quarantined_with_typed_error() {
        let root = ScratchRoot::new("corrupt");
        let chaos = ChaosPlan {
            corrupt_candidate: Some(1),
            ..ChaosPlan::default()
        };
        let (mut reg, _) = Registry::open_with_chaos(&root.0, chaos).expect("open");
        let v1 = reg.stage(&trained_model(), "sabotaged").expect("stage");
        let err = reg.validate(v1).expect_err("damaged artifact must fail the gate");
        assert!(
            matches!(&err, RegistryError::CorruptArtifact { version, detail, .. }
                if *version == v1 && detail.contains("checksum mismatch")),
            "expected CorruptArtifact checksum mismatch, got {err:?}"
        );
        let rec = reg.manifest().record(v1).expect("record kept for post-mortem");
        assert_eq!(rec.state, VersionState::Quarantined);
        assert!(rec.file.starts_with("quarantine/"), "artifact moved aside: {}", rec.file);
        assert!(root.0.join(&rec.file).exists(), "quarantined artifact preserved");
        assert!(reg.is_empty(), "a quarantined-only registry counts as empty");
    }

    #[test]
    fn crash_between_temp_write_and_rename_keeps_old_manifest() {
        let root = ScratchRoot::new("crashcommit");
        let model = trained_model();
        {
            let (mut reg, _) = Registry::open(&root.0).expect("open");
            let v1 = reg.stage(&model, "survivor").expect("stage v1");
            reg.validate(v1).expect("validate v1");
            reg.promote(v1).expect("promote v1");
        }
        {
            // Crash the very next commit: the v2 staging's manifest write.
            let chaos = ChaosPlan {
                crash_manifest_commit: Some(1),
                ..ChaosPlan::default()
            };
            let (mut reg, report) =
                Registry::open_with_chaos(&root.0, chaos).expect("reopen with chaos");
            assert!(report.is_clean());
            let err = reg.stage(&model, "doomed").expect_err("commit must crash");
            assert!(
                matches!(err, RegistryError::SimulatedCrash { .. }),
                "expected SimulatedCrash, got {err:?}"
            );
            // Clone-mutate-commit: the in-memory view never adopted v2.
            assert_eq!(reg.live(), Some(1));
            assert!(reg.manifest().record(2).is_none());
        }
        // The crash left a torn temp file and an unreferenced version
        // directory; recovery cleans both and lands on the last durable
        // version.
        let (mut reg, report) = Registry::open(&root.0).expect("recover");
        assert_eq!(report.torn_commits_cleaned, 1, "torn temp file cleaned");
        assert!(
            report
                .quarantined
                .iter()
                .any(|(id, reason)| *id == 2 && reason.contains("partial staging")),
            "partial staging quarantined: {:?}",
            report.quarantined
        );
        assert_eq!(reg.live(), Some(1));
        let (live, _) = reg.load_live().expect("durable version still serves");
        assert_eq!(live, 1);
    }

    #[test]
    fn corrupt_manifest_falls_back_to_previous_commit() {
        let root = ScratchRoot::new("manifestfallback");
        let model = trained_model();
        {
            let (mut reg, _) = Registry::open(&root.0).expect("open");
            let v1 = reg.stage(&model, "base").expect("stage");
            reg.validate(v1).expect("validate");
            reg.promote(v1).expect("promote");
        }
        // Damage the current manifest in a way no parser accepts.
        let path = root.0.join(MANIFEST);
        let mut bytes = std::fs::read(&path).expect("read manifest");
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).expect("truncate manifest");

        let (reg, report) = Registry::open(&root.0).expect("recover from backup");
        assert!(report.manifest_from_backup, "fell back to manifest.prev.json");
        // The backup predates the promote commit, so v1 may be validated
        // rather than live — but the registry must be consistent and the
        // damaged manifest preserved for post-mortem.
        assert!(reg.manifest().record(1).is_some());
        assert!(
            root.0.join("quarantine").join("manifest.corrupt.json").exists(),
            "damaged manifest kept for post-mortem"
        );
    }

    #[test]
    fn live_artifact_damage_falls_back_to_previous_version() {
        let root = ScratchRoot::new("livefallback");
        let model = trained_model();
        {
            let (mut reg, _) = Registry::open(&root.0).expect("open");
            for note in ["v1", "v2"] {
                let id = reg.stage(&model, note).expect("stage");
                reg.validate(id).expect("validate");
                reg.promote(id).expect("promote");
            }
            assert_eq!(reg.live(), Some(2));
        }
        // Flip one byte in the live artifact on disk.
        let artifact = root.0.join("versions/v0002").join(ARTIFACT);
        let mut bytes = std::fs::read(&artifact).expect("read artifact");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&artifact, &bytes).expect("damage artifact");

        let (mut reg, report) = Registry::open(&root.0).expect("recover");
        assert!(
            report.quarantined.iter().any(|(id, _)| *id == 2),
            "damaged live version quarantined: {:?}",
            report.quarantined
        );
        assert_eq!(report.live_fell_back_to, Some(1));
        assert_eq!(reg.live(), Some(1));
        let (live, _) = reg.load_live().expect("fallback version loads");
        assert_eq!(live, 1);
    }
}
