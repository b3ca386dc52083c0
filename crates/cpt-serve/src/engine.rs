//! The sharded continuous-batching serving engine.
//!
//! The engine is N shared-nothing shards (see `crate::shard`), each a
//! complete scheduler: its own sessions, run queue, decode workers, KV
//! free-list, and latency counters. An `open` is steered to a shard by a
//! stable hash of its seed and open ordinal, and the shard index is
//! encoded in the low bits of the session id (see [`crate::steer`]), so
//! every later verb routes with a mask — the hot path never takes a lock
//! shared between shards. What remains engine-wide is cold: the model
//! lifecycle (promote/rollback/retire), the parked-session map and its
//! reaper, drain, and a pair of relaxed-atomic admission gauges.
//!
//! **Backpressure** is two-level. Per session: a bounded event queue; a
//! session whose consumer lags is *parked* (not re-enqueued) until
//! `next_events` drains below capacity, so a slow reader costs nothing but
//! its own queue memory. Globally: admission control sheds `open_session`
//! with [`ServeError::Overloaded`] once the session cap or the total
//! queued-events watermark ([`QUEUE_WATERMARK`]) is hit — the cap is
//! enforced by an atomic reservation, so it stays strict without a global
//! lock.
//!
//! **Crash-only**: each worker's decode slice runs under `catch_unwind`. A
//! panic fails *only the session being advanced* — its consumer receives
//! the already-decoded prefix of the slice followed by a terminal
//! [`SessionEvent::Failed`], the worker re-enters its loop, and the panic
//! is counted. Shard mutexes recover from poisoning, so a panicking slice
//! can never wedge a scheduler. Failure is in-band data, not process
//! death.
//!
//! **Drain**: [`ServeHandle::drain`] stops admission (typed
//! [`ServeError::Draining`]), lets live sessions finish decoding, and
//! force-fails the stragglers at the deadline — the primitive a hot-swap
//! model registry needs (quiesce, swap, resume). It waits on each shard's
//! delivery condvar, which every way out of decoding signals, not on a
//! clock.
//!
//! **Stopping** is by state, not by polling. The engine's sleepers wait
//! on condvars — workers on their shard's `work` with no timeout, the
//! reaper on `reaper` until the next token expiry, consumers on their
//! shard's `delivery` — and none wakes up only to look at a flag. The stop
//! flag each one reads lives under the mutex it waits with: `stopping` in
//! every shard's state and in the detach state. Dropping the [`Engine`]
//! sets each flag under its lock and then notifies, so a sleeper has
//! either seen the flag or is already waiting when the notify comes, and
//! the joins that follow cannot hang.
//!
//! **Detach/reattach**: a connection front end can park its sessions under
//! a capability token ([`DetachToken`]) instead of closing them on
//! disconnect. Parked sessions keep decoding until their bounded queue
//! fills (the normal backpressure path), and a client presenting the token
//! within the TTL resumes exactly where delivery stopped — byte-identical
//! to an undisturbed run. Minting a token registers nothing: the engine
//! holds a token only while sessions are parked under it, and a reaper
//! thread reclaims expired ones.
//!
//! **Versions under sharding**: a model version is one `Version` shared
//! as `Arc<Version>`. A session pins the version it opened on by holding
//! that `Arc` in its slot; the engine's lifecycle lock holds the live
//! version and the rollback target, and every shard keeps a replica of
//! the live `Arc` (what new sessions pin), written under the lifecycle
//! lock. One call, [`ServeHandle::promote_version`], makes a version
//! live. When the engine demotes a version and lets go of it, the version
//! is *released*: whoever drops its last reference (the last pinned
//! session's close or reap, or the worker publishing that session's
//! final slice) frees its weights and reports [`LifecycleEvent::Retired`].
//! Nothing counts pins, so pins always equal live sessions and a pinned or
//! rollback-target version cannot be freed. Lock order is strictly engine
//! (lifecycle or detach) → shard; shards call upward (divergence
//! trip-wire) only after dropping their own lock.
//!
//! **Determinism**: a session's event sequence is a pure function of
//! `(model, StreamParams)`. Each shard guarantees at most one worker ever
//! holds a session's decoder, each session owns its RNG, and free-list
//! reuse is byte-equivalent to fresh allocation — so output is
//! bit-identical at any shard count × worker count, including 1×1. Which
//! shard a session lands on cannot influence its bytes.
//!
//! **Allocation**: steady-state serving is allocation-free per event. All
//! decode buffers live in the session's `DecodeState` (recycled through a
//! per-shard free-list on close); each worker reuses one slice buffer;
//! per-session queues only grow to the configured capacity once.

#![deny(clippy::unwrap_used)]

use crate::chaos::ChaosPlan;
use crate::error::ServeError;
use crate::metrics::{Counter, Metrics, SnapshotGauges, StatsSnapshot};
use crate::shard::{worker_loop, Gauges, ShardShared, ShardUplink};
use crate::steer::{Steering, MAX_SHARDS};
use cpt_gpt::{CptGpt, StreamParams};
use rand::{splitmix64, GOLDEN_GAMMA};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// The decoded event type produced by the model layer.
pub type DecodedEvent = cpt_gpt::SessionEvent;

/// One event delivered to a session consumer: either decoded data or the
/// terminal record of a contained failure.
///
/// On the socket the two are told apart by a tag byte
/// ([`crate::protocol::wire::encode_event`]). In JSON (`cptgen ctl -o`) a
/// data event is its fields and a failure is `{"reason": "..."}`, which no
/// data event can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// A decoded control-plane event.
    Data(DecodedEvent),
    /// Terminal: the session died to a contained fault (worker panic or
    /// drain force-fail). No further events will ever arrive after this.
    Failed {
        /// Human-readable cause (panic payload or drain deadline note).
        reason: String,
    },
}

impl SessionEvent {
    /// The decoded event, if this is a data event.
    pub fn data(&self) -> Option<&DecodedEvent> {
        match self {
            SessionEvent::Data(ev) => Some(ev),
            SessionEvent::Failed { .. } => None,
        }
    }

    /// The failure reason, if this is a terminal failure record.
    pub fn failure(&self) -> Option<&str> {
        match self {
            SessionEvent::Data(_) => None,
            SessionEvent::Failed { reason } => Some(reason),
        }
    }

    /// True for the terminal failure record.
    pub fn is_failure(&self) -> bool {
        matches!(self, SessionEvent::Failed { .. })
    }
}

impl cpt_trace::json::ToJson for SessionEvent {
    fn to_json(&self) -> cpt_trace::json::Value {
        match self {
            SessionEvent::Data(ev) => ev.to_json(),
            SessionEvent::Failed { reason } => {
                cpt_trace::json::Value::obj([("reason", cpt_trace::json::Value::str(reason))])
            }
        }
    }
}

impl From<DecodedEvent> for SessionEvent {
    fn from(ev: DecodedEvent) -> Self {
        SessionEvent::Data(ev)
    }
}

/// Global admission watermark on the events queued across all sessions:
/// an `open` is shed once this many are undelivered. The default
/// 4096-session cap times the default 256-event queue is 2²⁰ itself, and
/// the cap sheds first, so the watermark only comes into play once
/// `--max-sessions` (or `--queue-capacity`) is raised.
pub const QUEUE_WATERMARK: usize = 1 << 20;

/// Serving-engine configuration (plus the front-end knobs the TCP server
/// reads from the same validated struct: connection cap, detach TTL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Decode worker threads, divided across shards (each shard gets at
    /// least one).
    pub workers: usize,
    /// Independent shared-nothing engine shards. 1 reproduces the
    /// unsharded engine exactly, including its session-id sequence.
    pub shards: usize,
    /// Admission cap on concurrently open sessions (global, across
    /// shards).
    pub max_sessions: usize,
    /// Bound on each session's undelivered-event queue; a full queue parks
    /// the session until its consumer drains.
    pub queue_capacity: usize,
    /// Maximum events a worker decodes for one session per scheduling
    /// slice before re-enqueueing it (fairness knob).
    pub slice_budget: usize,
    /// How long a detach token keeps parked sessions alive before the
    /// reaper reclaims them (seconds).
    pub detach_ttl_secs: u64,
    /// Concurrent connection cap for the TCP front end; excess connections
    /// get one error line and are dropped.
    pub max_connections: usize,
    /// Maximum sessions one worker stacks into a single forward pass (one
    /// packed per-layer GEMM over all of them). Purely a throughput knob:
    /// a session's output is bit-identical at any value, and 1 decodes one
    /// session at a time.
    pub batch_max: usize,
}

impl ServeConfig {
    /// Defaults tuned for a small host: `workers` decode threads, one
    /// shard, a 4096-session cap, 256-event queues, 64-event slices, 60 s
    /// detach TTL, 256 connections.
    pub fn new(workers: usize) -> Self {
        ServeConfig {
            workers,
            shards: 1,
            max_sessions: 4096,
            queue_capacity: 256,
            slice_budget: 64,
            detach_ttl_secs: 60,
            max_connections: 256,
            batch_max: 64,
        }
    }

    /// Checks every field against its domain, returning the first
    /// violation as [`ServeError::InvalidConfig`].
    pub fn validate(&self) -> Result<(), ServeError> {
        fn bad(field: &str, message: impl Into<String>) -> ServeError {
            ServeError::InvalidConfig {
                field: field.to_string(),
                message: message.into(),
            }
        }
        if self.workers == 0 {
            return Err(bad("workers", "must be at least 1"));
        }
        if self.shards == 0 {
            return Err(bad("shards", "must be at least 1"));
        }
        if self.shards > MAX_SHARDS {
            return Err(bad(
                "shards",
                format!("must be at most {MAX_SHARDS}, got {}", self.shards),
            ));
        }
        if self.max_sessions == 0 {
            return Err(bad("max_sessions", "must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(bad("queue_capacity", "must be at least 1"));
        }
        if self.slice_budget == 0 {
            return Err(bad("slice_budget", "must be at least 1"));
        }
        if self.queue_capacity > QUEUE_WATERMARK {
            return Err(bad(
                "queue_capacity",
                format!(
                    "must be at most the queued-events watermark ({QUEUE_WATERMARK}), got {}",
                    self.queue_capacity
                ),
            ));
        }
        if self.detach_ttl_secs == 0 {
            return Err(bad("detach_ttl_secs", "must be at least 1"));
        }
        if self.max_connections == 0 {
            return Err(bad("max_connections", "must be at least 1"));
        }
        if self.batch_max == 0 {
            return Err(bad("batch_max", "must be at least 1"));
        }
        Ok(())
    }
}

/// Opaque session identifier handed out by [`ServeHandle::open_session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// A capability for reclaiming detached sessions: 128 bits, unguessable,
/// single-use. Printed/parsed as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetachToken(pub u128);

impl std::fmt::Display for DetachToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl std::str::FromStr for DetachToken {
    type Err = ServeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        u128::from_str_radix(s.trim(), 16)
            .map(DetachToken)
            .map_err(|_| ServeError::UnknownToken)
    }
}

/// What a drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Sessions that finished decoding (or were closed by their consumer)
    /// within the deadline.
    pub completed: u64,
    /// Stragglers force-failed at the deadline (each delivered a terminal
    /// [`SessionEvent::Failed`]).
    pub force_failed: u64,
}

/// Events delivered by one [`ServeHandle::next_events`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBatch {
    /// Events in decode order (possibly empty if the wait timed out).
    pub events: Vec<SessionEvent>,
    /// True once the session's decode is complete *and* its queue is fully
    /// drained; no further events will ever arrive.
    pub finished: bool,
}

/// Sessions parked under one detach token.
struct ParkedGroup {
    sessions: Vec<u64>,
    expires_at: Instant,
}

/// Out-of-band model-lifecycle notifications from the engine. Emitted via
/// the hook installed with [`ServeHandle::set_lifecycle_hook`], which the
/// registry director uses to persist engine-initiated transitions.
///
/// The hook may be invoked while engine-internal locks are held, so it
/// must never call back into the engine and should hand the event to a
/// queue rather than doing blocking work inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// The last pinned session on a demoted version ended and the engine
    /// freed its in-memory weights.
    Retired(u64),
    /// The serve-time divergence trip-wire (a non-finite decoded event)
    /// demoted the live version and re-promoted the previous one without
    /// a restart.
    TripWire {
        /// The version that produced the divergent event.
        demoted: u64,
        /// The version that is live again.
        restored: u64,
    },
}

/// Observer callback for engine-initiated lifecycle transitions.
type LifecycleHook = Box<dyn Fn(LifecycleEvent) + Send + Sync>;

/// One model version the engine serves, shared as `Arc<Version>`: a session's pin
/// is the reference its slot holds.
pub(crate) struct Version {
    pub(crate) id: u64,
    pub(crate) model: Arc<CptGpt>,
    /// Where a released version reports its retirement.
    engine: Weak<EngineCore>,
    /// Set once, when the engine demotes this version and drops its own
    /// reference (see [`Version::release`]).
    released: AtomicBool,
}

impl Version {
    fn new(id: u64, model: Arc<CptGpt>, engine: Weak<EngineCore>) -> Arc<Version> {
        Arc::new(Version {
            id,
            model,
            engine,
            released: AtomicBool::new(false),
        })
    }

    /// The engine lets go of a demoted version: it retires when its last
    /// pinned session is disposed (at once when none is pinned).
    fn release(self: Arc<Self>) {
        self.released.store(true, Ordering::Relaxed);
    }
}

impl Drop for Version {
    /// The last reference to a released version reports its retirement.
    /// Every version dropped with the engine goes silently.
    fn drop(&mut self) {
        if !*self.released.get_mut() {
            return;
        }
        if let Some(core) = self.engine.upgrade() {
            core.metrics.add(Counter::VersionsRetired, 1);
            core.emit_lifecycle([LifecycleEvent::Retired(self.id)]);
        }
    }
}

/// The engine-wide half of the version lifecycle. `live` is copied down
/// to every shard under this lock.
struct LifecycleState {
    live: Arc<Version>,
    /// The rollback target.
    previous: Option<Arc<Version>>,
}

/// Parked session groups keyed by capability token. A minted token is
/// absent until sessions park under it.
struct DetachState {
    parked: HashMap<u128, ParkedGroup>,
    /// The engine is stopping; the reaper exits. Under the lock the
    /// reaper waits with, like each shard's own `stopping`.
    stopping: bool,
}

/// Everything the engine owns above the shards. Shards hold a `Weak` to
/// this (as `dyn ShardUplink`) for the divergence trip-wire.
struct EngineCore {
    cfg: ServeConfig,
    steer: Steering,
    shards: Vec<Arc<ShardShared>>,
    gauges: Arc<Gauges>,
    /// Admission is suspended (drain in progress or completed).
    draining: AtomicBool,
    /// Engine-level counters (shed/detach/lifecycle); shard counters merge
    /// in at snapshot time.
    metrics: Metrics,
    lifecycle: Mutex<LifecycleState>,
    detach: Mutex<DetachState>,
    /// The token reaper waits here between expiries.
    reaper: Condvar,
    /// Nonce folded into detach-token minting.
    token_nonce: AtomicU64,
    /// Monotone open counter fed to the steering hash.
    open_ordinal: AtomicU64,
    /// Observer for engine-initiated lifecycle transitions (see
    /// [`LifecycleEvent`]).
    lifecycle_hook: Mutex<Option<LifecycleHook>>,
}

impl EngineCore {
    fn lock_lifecycle(&self) -> MutexGuard<'_, LifecycleState> {
        match self.lifecycle.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_detach(&self) -> MutexGuard<'_, DetachState> {
        match self.detach.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Routes a session id to its owning shard, rejecting ids whose shard
    /// bits name a shard that does not exist.
    fn shard_for(&self, id: u64) -> Result<&Arc<ShardShared>, ServeError> {
        self.steer
            .shard_of(id)
            .map(|i| &self.shards[i])
            .ok_or(ServeError::UnknownSession(id))
    }

    /// Invokes the lifecycle hook for each event. The hook contract (see
    /// [`LifecycleEvent`]) makes this safe to call from any engine path:
    /// the hook must be non-blocking and never re-enter the engine.
    fn emit_lifecycle(&self, events: impl IntoIterator<Item = LifecycleEvent>) {
        let hook = match self.lifecycle_hook.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(h) = hook.as_ref() {
            for ev in events {
                h(ev);
            }
        }
    }

    /// Makes the live version `next` engine-wide. Each shard clears its
    /// free-list: the states belong to the old version's buffer geometry.
    /// Caller holds the lifecycle lock; returns the demoted version.
    fn set_live_locked(&self, lc: &mut LifecycleState, next: Arc<Version>) -> Arc<Version> {
        for s in &self.shards {
            s.set_live(Arc::clone(&next));
        }
        std::mem::replace(&mut lc.live, next)
    }

    /// Re-promotes the rollback target, consuming it; returns the demoted
    /// version, or `None` when there is no target.
    fn roll_back_locked(&self, lc: &mut LifecycleState) -> Option<Arc<Version>> {
        let prev = lc.previous.take()?;
        self.metrics.add(Counter::VersionsRolledBack, 1);
        Some(self.set_live_locked(lc, prev))
    }

    /// Reclaims one parked group's sessions (TTL expiry), returning how
    /// many were reclaimed.
    fn reap_group(&self, group: ParkedGroup) -> u64 {
        let reclaimed = group
            .sessions
            .into_iter()
            .filter(|&id| self.shard_for(id).is_ok_and(|s| s.reap_detached(id)))
            .count() as u64;
        self.metrics.add(Counter::SessionsExpired, reclaimed);
        reclaimed
    }

    /// The live version, the rollback target and their pinned-session
    /// counts (summed across shards), sorted by id. A released version is
    /// listed while any session still pins it.
    fn sessions_per_version(&self) -> Vec<(u64, u64)> {
        let mut per: BTreeMap<u64, u64> = {
            let lc = self.lock_lifecycle();
            std::iter::once(&lc.live)
                .chain(&lc.previous)
                .map(|v| (v.id, 0))
                .collect()
        };
        for s in &self.shards {
            s.count_pins(&mut per);
        }
        per.into_iter().collect()
    }
}

impl ShardUplink for EngineCore {
    /// The automatic divergence trip-wire: a worker observed a non-finite
    /// event decoded by `version`. If that version is still live and a
    /// previous version is retained, demote it and re-promote the previous
    /// one in-engine — no restart, no operator.
    fn trip_divergence(&self, version: &Arc<Version>) {
        let mut lc = self.lock_lifecycle();
        if !Arc::ptr_eq(&lc.live, version) {
            return;
        }
        let Some(demoted) = self.roll_back_locked(&mut lc) else {
            return;
        };
        let restored = lc.live.id;
        drop(lc);
        self.emit_lifecycle([LifecycleEvent::TripWire {
            demoted: demoted.id,
            restored,
        }]);
        demoted.release();
    }
}

/// The serving engine: owns the per-shard worker pools and the token
/// reaper. Obtain a [`ServeHandle`] via [`Engine::handle`] to open and
/// drive sessions; drop (or [`Engine::shutdown`]) to stop the workers.
pub struct Engine {
    core: Arc<EngineCore>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Validates `cfg`, spawns the worker pool, and returns the running
    /// engine.
    /// The model is live as version 1.
    pub fn start(model: Arc<CptGpt>, cfg: ServeConfig) -> Result<Engine, ServeError> {
        Engine::start_versioned(model, 1, cfg, ChaosPlan::default())
    }

    /// [`Engine::start`] with an explicit id for the initial model version
    /// and a chaos plan wired into the decode loop — the registry front
    /// end passes the live version id recovered from disk so engine and
    /// manifest agree from the first session.
    pub fn start_versioned(
        model: Arc<CptGpt>,
        version: u64,
        cfg: ServeConfig,
        chaos: ChaosPlan,
    ) -> Result<Engine, ServeError> {
        cfg.validate()?;
        // Pack the decode weights before any session can open: the panels
        // live in the model's own store, shared by every shard holding the
        // `Arc`, so neither the first request nor a hot-swap packs.
        model.pack_decode_weights();
        let steer = Steering::new(cfg.shards);
        let gauges = Arc::new(Gauges::new());
        let core = Arc::new_cyclic(|weak: &Weak<EngineCore>| {
            let uplink: Weak<dyn ShardUplink> = weak.clone();
            let live = Version::new(version, model, weak.clone());
            let shards: Vec<Arc<ShardShared>> = (0..cfg.shards)
                .map(|i| {
                    // Divide the worker budget across shards, at least one
                    // each (so shards > workers still all make progress).
                    let workers = (cfg.workers / cfg.shards
                        + usize::from(i < cfg.workers % cfg.shards))
                    .max(1);
                    Arc::new(ShardShared::new(
                        cfg,
                        i,
                        workers,
                        steer,
                        chaos,
                        Arc::clone(&gauges),
                        uplink.clone(),
                        Arc::clone(&live),
                    ))
                })
                .collect();
            EngineCore {
                cfg,
                steer,
                shards,
                gauges,
                draining: AtomicBool::new(false),
                metrics: Metrics::new(),
                lifecycle: Mutex::new(LifecycleState {
                    live,
                    previous: None,
                }),
                detach: Mutex::new(DetachState {
                    parked: HashMap::new(),
                    stopping: false,
                }),
                reaper: Condvar::new(),
                token_nonce: AtomicU64::new(0x5EED),
                lifecycle_hook: Mutex::new(None),
                open_ordinal: AtomicU64::new(0),
            }
        });
        let spawn_err = |e: std::io::Error| ServeError::InvalidConfig {
            field: "workers".to_string(),
            message: format!("cannot spawn engine thread: {e}"),
        };
        let mut threads = Vec::new();
        for s in &core.shards {
            for w in 0..s.workers {
                let shard = Arc::clone(s);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("cpt-serve-s{}-w{w}", shard.idx))
                        .spawn(move || worker_loop(&shard))
                        .map_err(spawn_err)?,
                );
            }
        }
        let reaper_core = Arc::clone(&core);
        threads.push(
            std::thread::Builder::new()
                .name("cpt-serve-reaper".to_string())
                .spawn(move || reaper_loop(&reaper_core))
                .map_err(spawn_err)?,
        );
        Ok(Engine { core, threads })
    }

    /// A cloneable handle for opening and driving sessions.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            core: Arc::clone(&self.core),
        }
    }

    /// Stops the workers and the reaper and joins them, as dropping the
    /// engine does. Open sessions are dropped.
    pub fn shutdown(self) {
        drop(self);
    }

    /// See [`ServeHandle::drain`].
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        self.handle().drain(timeout)
    }
}

impl Drop for Engine {
    /// Stops every shard and the reaper, each under the lock its threads
    /// wait with, then joins them all.
    fn drop(&mut self) {
        for s in &self.core.shards {
            s.stop();
        }
        self.core.lock_detach().stopping = true;
        self.core.reaper.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Cloneable front end to a running [`Engine`]. All methods are safe to
/// call from any number of threads concurrently.
#[derive(Clone)]
pub struct ServeHandle {
    core: Arc<EngineCore>,
}

impl ServeHandle {
    /// Admits a new session, or sheds it with [`ServeError::Overloaded`]
    /// when the session cap or queued-events watermark is exceeded.
    /// While the engine drains, admission fails with
    /// [`ServeError::Draining`] instead.
    ///
    /// Admission is a lock-free atomic reservation on the global open
    /// gauge (strict cap) plus a relaxed read of the queued-events gauge
    /// (watermark); the admitted session is then steered to a shard by a
    /// stable hash of (seed, open ordinal). The session's decode state
    /// comes from the shard's free-list when one is available, so
    /// steady-state open/close cycles allocate nothing.
    pub fn open_session(&self, params: StreamParams) -> Result<SessionId, ServeError> {
        let core = &self.core;
        // A stopped shard refuses the open itself; this check only keeps
        // `ShuttingDown` ahead of `Draining` when both hold.
        if core.draining.load(Ordering::SeqCst) && !self.is_shutting_down() {
            return Err(ServeError::Draining);
        }
        let open = core.gauges.open.fetch_add(1, Ordering::Relaxed);
        let queued = core.gauges.queued.load(Ordering::Relaxed);
        if open >= core.cfg.max_sessions || queued >= QUEUE_WATERMARK {
            core.gauges.open.fetch_sub(1, Ordering::Relaxed);
            core.metrics.add(Counter::SessionsShed, 1);
            return Err(ServeError::Overloaded {
                open,
                cap: core.cfg.max_sessions,
                queued,
                watermark: QUEUE_WATERMARK,
            });
        }
        let ordinal = core.open_ordinal.fetch_add(1, Ordering::Relaxed);
        let shard = &core.shards[core.steer.steer(params.seed, ordinal)];
        match shard.open_session(params) {
            Ok(id) => Ok(SessionId(id)),
            Err(e) => {
                // Back the admission reservation out; the session never
                // existed.
                core.gauges.open.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Delivers up to `max` decoded events in order, blocking up to `wait`
    /// while the queue is empty and the session is still decoding. Returns
    /// `finished = true` once decode is complete and the queue is drained.
    /// A session that died to a contained fault delivers its decoded
    /// prefix followed by one terminal [`SessionEvent::Failed`].
    ///
    /// Draining a parked session re-enqueues it — this is the consumer
    /// half of the per-session backpressure loop.
    pub fn next_events(
        &self,
        id: SessionId,
        max: usize,
        wait: Duration,
    ) -> Result<EventBatch, ServeError> {
        self.core.shard_for(id.0)?.next_events(id.0, max, wait)
    }

    /// Closes a session, recycling its decode buffers into its shard's
    /// free-list. Undelivered events are discarded.
    pub fn close_session(&self, id: SessionId) -> Result<(), ServeError> {
        self.core.shard_for(id.0)?.close_session(id.0)
    }

    /// Mints a fresh detach capability. It registers nothing: the engine
    /// holds the token only once [`ServeHandle::park_sessions`] parks
    /// sessions under it, and the TTL runs from then. The TCP front end
    /// calls this when a client *arms* detach-on-disconnect, so the token
    /// exists on the client side before any disconnect can happen.
    ///
    /// Unguessability comes from 128 bits of splitmix64-mixed wall clock
    /// and nonce; uniqueness from the nonce alone, since splitmix64 is a
    /// bijection and `lo` mixes `hi` with a distinct odd multiple of the
    /// nonce, so two nonces with equal `hi` still differ in `lo`.
    pub fn mint_detach_token(&self) -> DetachToken {
        let nonce = self.core.token_nonce.fetch_add(1, Ordering::Relaxed);
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let hi = splitmix64(now ^ nonce.rotate_left(17));
        let lo = splitmix64(hi ^ nonce.wrapping_mul(GOLDEN_GAMMA));
        DetachToken(((hi as u128) << 64) | lo as u128)
    }

    /// Parks `ids` under `token`, detaching them from delivery until
    /// [`ServeHandle::reattach`] presents the token again; the token's TTL
    /// starts at its first park. A later park under the same token joins
    /// that group and keeps its `expires_at`, so one reattach returns
    /// every session parked under the token and the token never outlives
    /// its first TTL. Parked sessions keep decoding until their bounded
    /// queue fills. Unknown or already-detached ids are skipped (the
    /// disconnect path races with closes), and when none is left the token
    /// stays as it was; returns how many sessions were parked.
    pub fn park_sessions(
        &self,
        token: DetachToken,
        ids: impl IntoIterator<Item = SessionId>,
    ) -> usize {
        let core = &self.core;
        let mut parked: Vec<u64> = Vec::new();
        for id in ids {
            if let Ok(shard) = core.shard_for(id.0) {
                if shard.mark_detached(id.0) {
                    parked.push(id.0);
                }
            }
        }
        let n = parked.len();
        if n == 0 {
            return 0;
        }
        let expires_at = Instant::now() + Duration::from_secs(core.cfg.detach_ttl_secs);
        core.lock_detach()
            .parked
            .entry(token.0)
            .or_insert_with(|| ParkedGroup {
                sessions: Vec::new(),
                expires_at,
            })
            .sessions
            .extend(parked);
        core.reaper.notify_all();
        core.metrics.add(Counter::SessionsDetached, n as u64);
        n
    }

    /// Redeems a detach token: the parked sessions re-attach (delivery
    /// resumes exactly where it stopped) and the token dies. Fails with
    /// [`ServeError::UnknownToken`] when the token was never minted, has
    /// no session parked under it yet (it stays usable), was already
    /// redeemed, or expired.
    pub fn reattach(&self, token: DetachToken) -> Result<Vec<SessionId>, ServeError> {
        let core = &self.core;
        let group = {
            let mut dt = core.lock_detach();
            match dt.parked.remove(&token.0) {
                Some(g) if g.expires_at > Instant::now() => g,
                Some(expired) => {
                    // Expired but not yet reaped: reclaim now, token is
                    // dead.
                    drop(dt);
                    core.reap_group(expired);
                    return Err(ServeError::UnknownToken);
                }
                None => return Err(ServeError::UnknownToken),
            }
        };
        let mut ids = Vec::with_capacity(group.sessions.len());
        for id in group.sessions {
            let reattached = core
                .shard_for(id)
                .map(|s| s.clear_detached(id))
                .unwrap_or(false);
            if reattached {
                ids.push(SessionId(id));
            }
        }
        core.metrics
            .add(Counter::SessionsReattached, ids.len() as u64);
        Ok(ids)
    }

    /// Stops admission ([`ServeError::Draining`]) and waits for live
    /// sessions to finish decoding. Stragglers still decoding at the
    /// deadline — including detached sessions nobody reattached — are
    /// force-failed: each gets a terminal [`SessionEvent::Failed`] and
    /// counts in [`DrainReport::force_failed`]. Delivery of already-decoded
    /// events continues after the drain; admission stays suspended until
    /// [`ServeHandle::resume_admission`].
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        let core = &self.core;
        core.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        let initial: u64 = core.shards.iter().map(|s| s.unclosed_count()).sum();
        // One shard at a time, each on its own delivery condvar.
        if core.shards.iter().all(|s| s.wait_decoded(deadline)) {
            return DrainReport {
                completed: initial,
                force_failed: 0,
            };
        }
        // Deadline: force-fail everything still decoding.
        let force_failed: u64 = core.shards.iter().map(|s| s.force_fail_undone()).sum();
        DrainReport {
            completed: initial.saturating_sub(force_failed),
            force_failed,
        }
    }

    /// Re-opens admission after a drain (the hot-swap "resume" half).
    pub fn resume_admission(&self) {
        self.core.draining.store(false, Ordering::SeqCst);
    }

    /// True while admission is suspended by a drain.
    pub fn is_draining(&self) -> bool {
        self.core.draining.load(Ordering::SeqCst)
    }

    /// Sessions currently open (the global admission gauge).
    pub fn sessions_open(&self) -> usize {
        self.core.gauges.open.load(Ordering::Relaxed)
    }

    /// A point-in-time stats snapshot: engine-level counters plus every
    /// shard's counters merged (histograms bucket-wise, peaks by max),
    /// with per-shard occupancy for the imbalance stats.
    pub fn stats(&self) -> StatsSnapshot {
        let core = &self.core;
        let per_version = core.sessions_per_version();
        let mut occupancy: Vec<(u64, u64)> = Vec::with_capacity(core.shards.len());
        let mut free = 0usize;
        let mut workers = 0usize;
        for s in &core.shards {
            let (open, runnable, free_states) = s.occupancy();
            occupancy.push((open as u64, runnable as u64));
            free += free_states;
            workers += s.workers;
        }
        let live = core.lock_lifecycle().live.id;
        let merged = Metrics::merged(&core.metrics, core.shards.iter().map(|s| &s.metrics));
        merged.snapshot(
            SnapshotGauges {
                sessions_open: core.gauges.open.load(Ordering::Relaxed),
                queued_events: core.gauges.queued.load(Ordering::Relaxed),
                free_states: free,
                workers,
                live_version: live,
            },
            &per_version,
            &occupancy,
        )
    }

    /// True once the engine refuses new work.
    pub fn is_shutting_down(&self) -> bool {
        self.core.lock_detach().stopping
    }

    /// The model version new sessions currently open on.
    pub fn live_version(&self) -> u64 {
        self.core.lock_lifecycle().live.id
    }

    /// The live version, the rollback target, and any released version a
    /// session still pins, with their pinned-session counts (summed across
    /// shards), sorted by id.
    pub fn sessions_per_version(&self) -> Vec<(u64, u64)> {
        self.core.sessions_per_version()
    }

    /// Makes `model` live as version `id`: new sessions open on it from
    /// the moment this returns, while sessions pinned to the old live
    /// version keep draining on it. The old version becomes the rollback
    /// target, releasing any earlier one (freed once its last pinned
    /// session ends). When `id` is the rollback target, that target's own
    /// version goes live again, so the sessions still pinned to it and the
    /// new ones share one version. The decode weights are packed here,
    /// outside every engine lock. Returns the demoted version, or `None`
    /// if `id` was already live.
    pub fn promote_version(&self, id: u64, model: Arc<CptGpt>) -> Option<u64> {
        model.pack_decode_weights();
        let core = &self.core;
        let mut lc = core.lock_lifecycle();
        if lc.live.id == id {
            return None;
        }
        let next = lc
            .previous
            .take_if(|p| p.id == id)
            .unwrap_or_else(|| Version::new(id, model, Arc::downgrade(core)));
        let old = core.set_live_locked(&mut lc, next);
        let demoted = old.id;
        let displaced = lc.previous.replace(old);
        core.metrics.add(Counter::VersionsPublished, 1);
        drop(lc);
        if let Some(d) = displaced {
            d.release();
        }
        Some(demoted)
    }

    /// Demotes the live version and re-promotes the previous one (the
    /// manual half of the divergence trip-wire). Returns
    /// `(demoted, restored)`.
    pub fn rollback_version(&self) -> Result<(u64, u64), ServeError> {
        let core = &self.core;
        let mut lc = core.lock_lifecycle();
        let demoted = core
            .roll_back_locked(&mut lc)
            .ok_or(ServeError::NoPreviousVersion)?;
        let restored = (demoted.id, lc.live.id);
        drop(lc);
        demoted.release();
        Ok(restored)
    }

    /// Installs the observer for engine-initiated lifecycle transitions
    /// (retirements, trip-wire rollbacks). See the [`LifecycleEvent`]
    /// contract: the hook must be non-blocking and never re-enter the
    /// engine.
    pub fn set_lifecycle_hook(&self, hook: impl Fn(LifecycleEvent) + Send + Sync + 'static) {
        let mut g = match self.core.lifecycle_hook.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *g = Some(Box::new(hook));
    }

    /// Counts one lifecycle event the engine does not see itself: a
    /// candidate quarantined by the registry validation gate.
    pub(crate) fn count(&self, counter: Counter) {
        self.core.metrics.add(counter, 1);
    }
}

/// The token reaper: sleeps until the next TTL expiry — with no token
/// parked, until sessions park — and reclaims expired parked sessions,
/// until the engine stops.
fn reaper_loop(core: &EngineCore) {
    let mut dt = core.lock_detach();
    while !dt.stopping {
        let now = Instant::now();
        let tokens: Vec<u128> = dt
            .parked
            .iter()
            .filter(|(_, g)| g.expires_at <= now)
            .map(|(t, _)| *t)
            .collect();
        if !tokens.is_empty() {
            let expired: Vec<ParkedGroup> =
                tokens.iter().filter_map(|t| dt.parked.remove(t)).collect();
            // Reap outside the detach lock: reaping takes shard locks,
            // which never nest inside `detach`.
            drop(dt);
            for group in expired {
                core.reap_group(group);
            }
            dt = core.lock_detach();
            continue;
        }
        let next_expiry = dt.parked.values().map(|g| g.expires_at).min();
        dt = match next_expiry {
            None => match core.reaper.wait(dt) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            },
            Some(at) => match core.reaper.wait_timeout(dt, at - now) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            },
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_zeroes() {
        let ok = ServeConfig::new(2);
        assert!(ok.validate().is_ok());
        for (field, cfg) in [
            ("workers", ServeConfig { workers: 0, ..ok }),
            ("shards", ServeConfig { shards: 0, ..ok }),
            (
                "shards",
                ServeConfig {
                    shards: MAX_SHARDS + 1,
                    ..ok
                },
            ),
            (
                "max_sessions",
                ServeConfig {
                    max_sessions: 0,
                    ..ok
                },
            ),
            (
                "queue_capacity",
                ServeConfig {
                    queue_capacity: 0,
                    ..ok
                },
            ),
            (
                "slice_budget",
                ServeConfig {
                    slice_budget: 0,
                    ..ok
                },
            ),
            (
                "queue_capacity",
                ServeConfig {
                    queue_capacity: QUEUE_WATERMARK + 1,
                    ..ok
                },
            ),
            (
                "detach_ttl_secs",
                ServeConfig {
                    detach_ttl_secs: 0,
                    ..ok
                },
            ),
            (
                "max_connections",
                ServeConfig {
                    max_connections: 0,
                    ..ok
                },
            ),
            ("batch_max", ServeConfig { batch_max: 0, ..ok }),
        ] {
            let got = cfg.validate();
            assert!(
                matches!(&got, Err(ServeError::InvalidConfig { field: f, .. }) if f == field),
                "expected InvalidConfig({field}), got {got:?}"
            );
        }
    }

    #[test]
    fn detach_tokens_round_trip_as_hex() {
        let t = DetachToken(0x00ab_cdef_0123_4567_89ab_cdef_0123_4567);
        let s = t.to_string();
        assert_eq!(s.len(), 32);
        let back: DetachToken = s.parse().expect("hex parses");
        assert_eq!(back, t);
        assert!(
            matches!(
                "not-hex".parse::<DetachToken>(),
                Err(ServeError::UnknownToken)
            ),
            "garbage tokens are typed errors"
        );
    }

    #[test]
    fn session_events_classify_data_and_failure() {
        let fail = SessionEvent::Failed {
            reason: "x".to_string(),
        };
        assert!(fail.is_failure());
        assert_eq!(fail.failure(), Some("x"));
        assert!(fail.data().is_none());
    }
}
