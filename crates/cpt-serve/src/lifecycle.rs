//! The lifecycle director: the single owner of the model [`Registry`] at
//! serve time.
//!
//! The engine knows nothing about disk — it serves whatever versions are
//! installed in it. The registry knows nothing about sessions — it is a
//! durable state machine over artifacts. The [`Director`] is the bridge:
//! every `publish`/`rollback`/`finetune` verb flows through it, and it
//! keeps the two sides convergent:
//!
//! - **publish** stages (or looks up) a candidate, runs the validation
//!   gate (file checksum + checkpoint-load validation + deterministic
//!   canary), installs the model in the engine, commits the durable
//!   promotion, and only then flips the engine's live version. A crash
//!   (or chaos-simulated crash) between the durable commit steps leaves
//!   the old version serving and the candidate either staged or
//!   quarantined — never a half-promoted hybrid.
//! - **engine → registry feedback** (version retirement when the last
//!   pinned session drains, trip-wire demotions) arrives on the engine's
//!   lifecycle hook, which may fire *under engine locks*. The director
//!   therefore never touches the registry from the hook: the hook does a
//!   non-blocking channel send, and a dedicated `cpt-serve-lifecycle`
//!   thread applies the durable transition. This breaks the AB-BA cycle
//!   between the registry mutex (held across publish) and the engine
//!   state lock (held while hooks fire).
//! - **finetune** runs the deterministic trainer in a supervised
//!   background thread: panics are contained with `catch_unwind`,
//!   divergence is retried a bounded number of times with deterministic
//!   seed bumps, and the result — success or typed failure — never
//!   disturbs the serving model except through the same gated publish
//!   path.

#![deny(clippy::unwrap_used)]

use crate::chaos::ChaosPlan;
use crate::engine::{LifecycleEvent, ServeHandle};
use crate::error::ServeError;
use crate::registry::{Registry, RegistryError, VersionRecord};
use cpt_gpt::transfer::{fine_tune, FineTuneConfig};
use cpt_gpt::{panic_message, with_training_set, TrainConfig, TrainError};
use cpt_trace::AnyTrace;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Bounded retry budget for one fine-tune job: the first attempt plus
/// this many deterministic-seed-bump retries after divergence or a panic.
pub const FINETUNE_ATTEMPTS: u64 = 3;

/// What a successful publish did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishOutcome {
    /// The version now live.
    pub version: u64,
    /// The version it displaced (None when the registry was empty).
    pub previous: Option<u64>,
}

/// A supervised online fine-tune request.
#[derive(Debug, Clone)]
pub struct FineTuneSpec {
    /// Path to the adaptation trace (JSON-lines dataset).
    pub trace: String,
    /// Base epochs before the fine-tune fraction is applied
    /// (default 4; always at least 1 after scaling).
    pub epochs: Option<usize>,
    /// Training seed (default 0). Retries bump it deterministically.
    pub seed: Option<u64>,
}

/// Messages for the lifecycle-persistence thread.
enum DirectorMsg {
    Event(LifecycleEvent),
    Stop,
}

/// Shared state between the director, the persistence thread, and the
/// fine-tune thread.
struct Inner {
    registry: Mutex<Registry>,
    handle: ServeHandle,
    chaos: ChaosPlan,
    /// One supervised fine-tune at a time; `swap(true)` is the admission.
    finetune_busy: AtomicBool,
    /// Monotonic job ids returned by [`Director::finetune`].
    finetune_seq: AtomicU64,
    /// Global attempt ordinal (1-based, across jobs) — the chaos
    /// coordinate for [`ChaosPlan::panics_finetune`].
    finetune_attempts: AtomicU64,
    /// The last fine-tune failure, for `versions` reporting; cleared by
    /// the next success.
    last_finetune_error: Mutex<Option<String>>,
    finetune_join: Mutex<Option<JoinHandle<()>>>,
}

impl Inner {
    /// Registry lock with poison recovery: the registry's own discipline
    /// is clone-mutate-commit, so state observed after a panic is always
    /// a durably committed manifest.
    fn lock_registry(&self) -> MutexGuard<'_, Registry> {
        match self.registry.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_last_error(&self) -> MutexGuard<'_, Option<String>> {
        match self.last_finetune_error.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The gated promotion path shared by `publish` and `finetune`:
    /// validate → install in engine → durable promote → engine promote.
    /// The registry lock is held across the whole sequence so publishes
    /// serialize; the engine's lifecycle hook never takes this lock
    /// in-line (see module docs), so this cannot deadlock.
    fn publish_locked(&self, reg: &mut Registry, id: u64) -> Result<PublishOutcome, ServeError> {
        let model = match reg.validate(id) {
            Ok(m) => m,
            Err(e) => {
                if matches!(
                    e,
                    RegistryError::CorruptArtifact { .. }
                        | RegistryError::ValidationFailed { .. }
                        | RegistryError::CanaryFailed { .. }
                ) {
                    // The registry already quarantined it durably; this
                    // only surfaces the count in /stats.
                    self.handle.note_version_quarantined();
                }
                return Err(e.into());
            }
        };
        self.handle.install_version(id, Arc::new(model));
        if let Some(delay) = self.chaos.publish_delay() {
            // Chaos: widen the window between validation and promotion so
            // concurrent session traffic can land inside it.
            std::thread::sleep(delay);
        }
        match reg.promote(id) {
            Ok(previous) => {
                // Durable state has switched; now flip the engine. New
                // sessions open on `id` from here on; pinned sessions
                // keep draining on the displaced version.
                self.handle.promote_version(id)?;
                Ok(PublishOutcome {
                    version: id,
                    previous,
                })
            }
            Err(e) => {
                // The durable promotion did not happen (torn-commit chaos,
                // IO failure): the old version must keep serving, so the
                // staged in-engine copy is dropped. `uninstall_version`
                // refuses if anything pinned it, which cannot happen for a
                // never-promoted version.
                self.handle.uninstall_version(id);
                Err(e.into())
            }
        }
    }
}

/// The model-lifecycle front end: owns the registry, mediates every
/// publish/rollback/finetune, and persists engine-originated transitions
/// (retirement, trip-wire demotions) from a dedicated thread.
pub struct Director {
    inner: Arc<Inner>,
    tx: mpsc::Sender<DirectorMsg>,
    events_join: Mutex<Option<JoinHandle<()>>>,
}

impl Director {
    /// Wires a registry to a running engine: installs the engine's
    /// lifecycle hook (a non-blocking channel send) and starts the
    /// persistence thread that applies retire/rollback transitions to
    /// the registry.
    pub fn new(
        registry: Registry,
        handle: ServeHandle,
        chaos: ChaosPlan,
    ) -> Result<Director, ServeError> {
        let inner = Arc::new(Inner {
            registry: Mutex::new(registry),
            handle,
            chaos,
            finetune_busy: AtomicBool::new(false),
            finetune_seq: AtomicU64::new(0),
            finetune_attempts: AtomicU64::new(0),
            last_finetune_error: Mutex::new(None),
            finetune_join: Mutex::new(None),
        });
        let (tx, rx) = mpsc::channel();
        let thread_inner = Arc::clone(&inner);
        let events_join = std::thread::Builder::new()
            .name("cpt-serve-lifecycle".to_string())
            .spawn(move || event_loop(&thread_inner, &rx))?;
        let hook_tx = tx.clone();
        inner.handle.set_lifecycle_hook(move |ev| {
            // May run under engine locks: send and return, never block.
            let _ = hook_tx.send(DirectorMsg::Event(ev));
        });
        Ok(Director {
            inner,
            tx,
            events_join: Mutex::new(Some(events_join)),
        })
    }

    /// Stages a model file as a new candidate and promotes it through the
    /// full gate. The source file is copied into the registry; the
    /// original is never served from directly.
    pub fn publish_path(&self, path: &Path) -> Result<PublishOutcome, ServeError> {
        let mut reg = self.inner.lock_registry();
        let model = cpt_gpt::load_model_file(path).map_err(|e| {
            // Not yet staged, so there is no version id to blame; the
            // detail names the offending source file.
            ServeError::Registry(RegistryError::ValidationFailed {
                version: 0,
                detail: format!("cannot load candidate {}: {e}", path.display()),
            })
        })?;
        let id = reg.stage(&model, &format!("published from {}", path.display()))?;
        self.inner.publish_locked(&mut reg, id)
    }

    /// Promotes an already-staged candidate (e.g. one left behind by a
    /// crashed publish) through the full gate.
    pub fn publish_version(&self, id: u64) -> Result<PublishOutcome, ServeError> {
        let mut reg = self.inner.lock_registry();
        self.inner.publish_locked(&mut reg, id)
    }

    /// Demotes the live version and restores the previous one, durably
    /// first, then in the engine. Returns `(demoted, live)`.
    pub fn rollback(&self) -> Result<(u64, u64), ServeError> {
        let mut reg = self.inner.lock_registry();
        let (demoted, live) = reg.rollback()?;
        match self.inner.handle.rollback_version() {
            Ok(_) => Ok((demoted, live)),
            // A trip-wire can beat an operator rollback to the engine;
            // if the engine already serves what we just restored, the two
            // sides agree and the verb succeeded.
            Err(ServeError::NoPreviousVersion)
                if self.inner.handle.live_version() == live =>
            {
                Ok((demoted, live))
            }
            Err(e) => Err(e),
        }
    }

    /// Starts a supervised background fine-tune; returns the job id
    /// immediately. Only one job runs at a time ([`ServeError::FineTuneBusy`]).
    pub fn finetune(&self, spec: FineTuneSpec) -> Result<u64, ServeError> {
        if self.inner.finetune_busy.swap(true, Ordering::SeqCst) {
            return Err(ServeError::FineTuneBusy);
        }
        // Reap the previous job's thread so handles never accumulate.
        if let Some(h) = self.take_finetune_join() {
            let _ = h.join();
        }
        let job = self.inner.finetune_seq.fetch_add(1, Ordering::SeqCst) + 1;
        self.inner.handle.note_finetune_started();
        let inner = Arc::clone(&self.inner);
        let spawned = std::thread::Builder::new()
            .name(format!("cpt-serve-finetune-{job}"))
            .spawn(move || {
                match run_finetune(&inner, &spec) {
                    Ok(_) => {
                        *inner.lock_last_error() = None;
                        inner.handle.note_finetune_completed();
                    }
                    Err(msg) => {
                        *inner.lock_last_error() = Some(msg);
                        inner.handle.note_finetune_failed();
                    }
                }
                inner.finetune_busy.store(false, Ordering::SeqCst);
            });
        match spawned {
            Ok(h) => {
                *lock_join(&self.inner.finetune_join) = Some(h);
                Ok(job)
            }
            Err(e) => {
                self.inner.handle.note_finetune_failed();
                self.inner.finetune_busy.store(false, Ordering::SeqCst);
                Err(ServeError::Io(e))
            }
        }
    }

    /// True while a fine-tune job is running.
    pub fn finetune_running(&self) -> bool {
        self.inner.finetune_busy.load(Ordering::SeqCst)
    }

    /// Registry snapshot for the `versions` verb: the live id, every
    /// manifest record, and the last fine-tune failure (if any).
    pub fn versions(&self) -> (Option<u64>, Vec<VersionRecord>, Option<String>) {
        let reg = self.inner.lock_registry();
        let live = reg.live();
        let records = reg.manifest().versions.clone();
        drop(reg);
        let last_err = self.inner.lock_last_error().clone();
        (live, records, last_err)
    }

    /// Blocks until an in-flight fine-tune (if any) finishes. Test/CLI
    /// helper; the serve path polls stats instead.
    pub fn join_finetune(&self) {
        if let Some(h) = self.take_finetune_join() {
            let _ = h.join();
        }
    }

    fn take_finetune_join(&self) -> Option<JoinHandle<()>> {
        lock_join(&self.inner.finetune_join).take()
    }

    /// Orderly stop: join any in-flight fine-tune (it publishes through
    /// the normal gate), then drain and stop the persistence thread. The
    /// engine hook stays installed but its sends go nowhere once the
    /// receiver is gone — a late event after shutdown is dropped, and the
    /// next `Registry::open` reconciles states from the manifest.
    pub fn shutdown(&self) {
        if let Some(h) = self.take_finetune_join() {
            let _ = h.join();
        }
        let _ = self.tx.send(DirectorMsg::Stop);
        let join = match self.events_join.lock() {
            Ok(mut g) => g.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        if let Some(h) = join {
            let _ = h.join();
        }
    }
}

fn lock_join(m: &Mutex<Option<JoinHandle<()>>>) -> MutexGuard<'_, Option<JoinHandle<()>>> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The persistence thread: applies engine-originated transitions to the
/// durable registry, outside any engine lock.
fn event_loop(inner: &Inner, rx: &mpsc::Receiver<DirectorMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            DirectorMsg::Stop => break,
            DirectorMsg::Event(LifecycleEvent::Retired(version)) => {
                // Best-effort: a version that is no longer Draining (an
                // operator re-promoted it meanwhile) is left alone.
                let _ = inner.lock_registry().retire(version);
            }
            DirectorMsg::Event(LifecycleEvent::TripWire { demoted, .. }) => {
                let mut reg = inner.lock_registry();
                // The engine already demoted in-memory; mirror it durably
                // only if the manifest still believes the bad version is
                // live (an operator rollback may have raced us here). The
                // engine side is authoritative for serving either way.
                if reg.live() == Some(demoted) {
                    let _ = reg.rollback();
                }
            }
        }
    }
}

/// The supervised fine-tune body: bounded retries around a contained
/// trainer run, then the gated publish. Returns a human-readable failure
/// reason (already typed at the wire as `finetunes_failed` + the
/// `versions` verb's `last_finetune_error`).
fn run_finetune(inner: &Inner, spec: &FineTuneSpec) -> Result<PublishOutcome, String> {
    let unreadable = |e| format!("cannot read fine-tune trace {}: {e}", spec.trace);
    let trace = AnyTrace::open(&spec.trace).map_err(unreadable)?;
    // Fine-tune from exactly what is serving: the live artifact, loaded
    // fresh through its checksum gate.
    let (base_version, base) = inner
        .lock_registry()
        .load_live()
        .map_err(|e| format!("cannot load live version: {e}"))?;
    with_training_set(trace, &spec.trace, base.config.max_len, |set| {
        let base_cfg = TrainConfig {
            epochs: spec.epochs.unwrap_or(4).max(1),
            seed: spec.seed.unwrap_or(0),
            ..TrainConfig::quick()
        };
        let ft = FineTuneConfig::default();
        let mut last_err = String::new();
        for attempt in 0..FINETUNE_ATTEMPTS {
            let attempt_idx = inner.finetune_attempts.fetch_add(1, Ordering::SeqCst) + 1;
            // Deterministic seed bump: a diverged attempt re-runs with a
            // different but reproducible data order.
            let cfg = TrainConfig {
                seed: base_cfg.seed.wrapping_add(attempt),
                ..base_cfg
            };
            let chaos = inner.chaos;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if chaos.panics_finetune(attempt_idx) {
                    panic!("chaos: scheduled fine-tune panic (attempt {attempt_idx})");
                }
                fine_tune(&base, set.source, &cfg, &ft)
            }));
            match outcome {
                Ok(Ok((model, _report))) => {
                    let mut reg = inner.lock_registry();
                    let note = format!(
                        "finetune of v{base_version} on {} (seed {})",
                        spec.trace, cfg.seed
                    );
                    let id = reg
                        .stage(&model, &note)
                        .map_err(|e| format!("cannot stage fine-tuned model: {e}"))?;
                    return inner
                        .publish_locked(&mut reg, id)
                        .map_err(|e| format!("fine-tuned candidate rejected: {e}"));
                }
                Ok(Err(TrainError::Diverged { cause, retries, .. })) => {
                    last_err = format!(
                        "attempt {}: diverged ({cause:?}) after {retries} watchdog retries",
                        attempt + 1
                    );
                }
                Ok(Err(e)) => return Err(format!("fine-tune failed: {e}")),
                Err(payload) => {
                    last_err = format!(
                        "attempt {}: panicked: {}",
                        attempt + 1,
                        panic_message(&*payload)
                    );
                }
            }
        }
        Err(format!(
            "fine-tune gave up after {FINETUNE_ATTEMPTS} attempts; last failure: {last_err}"
        ))
    })
    .map_err(unreadable)?
}
