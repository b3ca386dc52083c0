//! The lifecycle director: the single owner of the model [`Registry`] at
//! serve time.
//!
//! The engine knows nothing about disk — it serves whatever version was
//! last made live in it. The registry knows nothing about sessions — it is a
//! durable state machine over artifacts. The [`Director`] is the bridge:
//! every `publish`/`rollback` verb flows through it, and it keeps the two
//! sides convergent:
//!
//! - **publish** stages (or looks up) a candidate, runs the validation
//!   gate (file checksum + checkpoint-load validation + deterministic
//!   canary), commits the durable promotion, and only then makes the
//!   model live in the engine with one call. The engine holds nothing of
//!   a candidate before that call, so a crash (or chaos-simulated crash)
//!   between the durable commit steps leaves the old version serving and
//!   the candidate either staged or quarantined — never a half-promoted
//!   hybrid. Publish is the one way a candidate enters a serving
//!   registry: a fine-tuned model is the output of an offline `cptgen
//!   train --from BASE.cmb` run, published like any other model file.
//! - **engine → registry feedback** (version retirement when the last
//!   pinned session drains, trip-wire demotions) arrives on the engine's
//!   lifecycle hook, which may fire *under engine locks*. The director
//!   therefore never touches the registry from the hook: the hook does a
//!   non-blocking channel send, and a dedicated `cpt-serve-lifecycle`
//!   thread applies the durable transition. This breaks the AB-BA cycle
//!   between the registry mutex (held across publish) and the engine
//!   state lock (held while hooks fire).

#![deny(clippy::unwrap_used)]

use crate::chaos::ChaosPlan;
use crate::engine::{LifecycleEvent, ServeHandle};
use crate::error::ServeError;
use crate::metrics::Counter;
use crate::registry::{Registry, RegistryError, VersionRecord};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// What a successful publish did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishOutcome {
    /// The version now live.
    pub version: u64,
    /// The version it displaced (None when the registry was empty).
    pub previous: Option<u64>,
}

/// Messages for the lifecycle-persistence thread.
enum DirectorMsg {
    Event(LifecycleEvent),
    Stop,
}

/// Shared state between the director and the persistence thread.
struct Inner {
    registry: Mutex<Registry>,
    handle: ServeHandle,
    chaos: ChaosPlan,
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

    /// The gated promotion path of both publish verbs: validate →
    /// durable promote → engine promote.
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
                    self.handle.count(Counter::VersionsQuarantined);
                }
                return Err(e.into());
            }
        };
        if let Some(delay) = self.chaos.publish_delay() {
            // Chaos: widen the window between validation and promotion so
            // concurrent session traffic can land inside it.
            std::thread::sleep(delay);
        }
        // A failed durable promotion (torn-commit chaos, IO failure) leaves
        // the engine as it was: the old version keeps serving.
        let previous = reg.promote(id)?;
        // Durable state has switched; now flip the engine. New sessions
        // open on `id` from here on; pinned sessions keep draining on the
        // displaced version.
        self.handle.promote_version(id, Arc::new(model));
        Ok(PublishOutcome {
            version: id,
            previous,
        })
    }
}

/// The model-lifecycle front end: owns the registry, mediates every
/// publish and rollback, and persists engine-originated transitions
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
            Err(ServeError::NoPreviousVersion) if self.inner.handle.live_version() == live => {
                Ok((demoted, live))
            }
            Err(e) => Err(e),
        }
    }

    /// Registry snapshot for the `versions` verb: the live id and every
    /// manifest record.
    pub fn versions(&self) -> (Option<u64>, Vec<VersionRecord>) {
        let reg = self.inner.lock_registry();
        (reg.live(), reg.manifest().versions.clone())
    }

    /// Orderly stop: drain and stop the persistence thread. The engine
    /// hook stays installed but its sends go nowhere once the receiver is
    /// gone — a late event after shutdown is dropped, and the next
    /// `Registry::open` reconciles states from the manifest.
    pub fn shutdown(&self) {
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
