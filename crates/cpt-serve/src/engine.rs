//! The sharded continuous-batching serving engine.
//!
//! The engine is N shared-nothing shards (see [`crate::shard`]), each a
//! complete scheduler: its own sessions, run queue, decode workers, KV
//! free-list, and latency counters. An `open` is steered to a shard by a
//! stable hash of its seed and open ordinal, and the shard index is
//! encoded in the low bits of the session id (see [`crate::steer`]), so
//! every later verb routes with a mask — the hot path never takes a lock
//! shared between shards. What remains engine-wide is cold: the model
//! lifecycle (install/promote/rollback/retire), the detach-token map and
//! its reaper, drain, and a pair of relaxed-atomic admission gauges.
//!
//! **Backpressure** is two-level. Per session: a bounded event queue; a
//! session whose consumer lags is *parked* (not re-enqueued) until
//! `next_events` drains below capacity, so a slow reader costs nothing but
//! its own queue memory. Globally: admission control sheds `open_session`
//! with [`ServeError::Overloaded`] once the session cap or the total
//! queued-events watermark is hit — the cap is enforced by an atomic
//! reservation, so it stays strict without a global lock.
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
//! model registry needs (quiesce, swap, resume).
//!
//! **Detach/reattach**: a connection front end can park its sessions under
//! a capability token ([`DetachToken`]) instead of closing them on
//! disconnect. Parked sessions keep decoding until their bounded queue
//! fills (the normal backpressure path), and a client presenting the token
//! within the TTL resumes exactly where delivery stopped — byte-identical
//! to an undisturbed run. A reaper thread reclaims expired tokens.
//!
//! **Versions under sharding**: every shard holds a replica of each
//! installed version's weight Arcs plus a *shard-local* pin refcount; the
//! engine's lifecycle lock owns the live/previous designation and sweeps
//! a retired version only when the refcounts sum to zero across shards.
//! Shards check "retired?" through a shared atomic flag, so the steady-
//! state close path never touches the lifecycle lock. Lock order is
//! strictly engine (lifecycle or detach) → shard; shards call upward
//! (divergence trip-wire) only after dropping their own lock.
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
use crate::metrics::{Metrics, SnapshotGauges, StatsSnapshot};
use crate::shard::{worker_loop, Gauges, ShardShared, ShardUplink, VersionMeta};
use crate::steer::{splitmix64, Steering, MAX_SHARDS};
use cpt_gpt::{CptGpt, StreamParams};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// The decoded event type produced by the model layer.
pub type DecodedEvent = cpt_gpt::SessionEvent;

/// One event delivered to a session consumer: either decoded data or the
/// terminal record of a contained failure.
///
/// On the wire a data event serializes exactly as before (untagged), so
/// clients that predate failure containment keep parsing; a failure
/// serializes as `{"reason": "..."}`, which no data event can produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
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

impl From<DecodedEvent> for SessionEvent {
    fn from(ev: DecodedEvent) -> Self {
        SessionEvent::Data(ev)
    }
}

/// Serving-engine configuration (plus the front-end knobs the TCP server
/// reads from the same validated struct: read timeout, connection cap,
/// detach TTL).
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
    /// Global admission watermark on total queued events across sessions.
    pub queue_watermark: usize,
    /// How long a detach token keeps parked sessions alive before the
    /// reaper reclaims them (seconds).
    pub detach_ttl_secs: u64,
    /// Connection-thread read timeout (ms); bounds how long a server
    /// thread can miss the stop flag while a client idles.
    pub read_timeout_ms: u64,
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
    /// detach TTL, 200 ms read timeout, 256 connections.
    pub fn new(workers: usize) -> Self {
        ServeConfig {
            workers,
            shards: 1,
            max_sessions: 4096,
            queue_capacity: 256,
            slice_budget: 64,
            queue_watermark: 1 << 20,
            detach_ttl_secs: 60,
            read_timeout_ms: 200,
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
        if self.queue_watermark < self.queue_capacity {
            return Err(bad(
                "queue_watermark",
                format!(
                    "must be at least queue_capacity ({}), got {}",
                    self.queue_capacity, self.queue_watermark
                ),
            ));
        }
        if self.detach_ttl_secs == 0 {
            return Err(bad("detach_ttl_secs", "must be at least 1"));
        }
        if self.read_timeout_ms == 0 {
            return Err(bad(
                "read_timeout_ms",
                "must be at least 1 (0 would never re-check the stop flag)",
            ));
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// The engine-wide half of the version lifecycle. `versions` mirrors the
/// replica maps on every shard; `live`/`previous` are authoritative here
/// and copied down to shards under this lock.
struct LifecycleState {
    live: u64,
    previous: Option<u64>,
    versions: HashMap<u64, Arc<VersionMeta>>,
}

/// Detached session groups keyed by capability token.
struct DetachState {
    parked: HashMap<u128, ParkedGroup>,
}

/// Everything the engine owns above the shards. Shards hold a `Weak` to
/// this (as `dyn ShardUplink`) for the divergence trip-wire.
struct EngineCore {
    cfg: ServeConfig,
    steer: Steering,
    shards: Vec<Arc<ShardShared>>,
    gauges: Arc<Gauges>,
    shutdown: Arc<AtomicBool>,
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

    /// Frees a demoted version once nothing references it anywhere: zero
    /// pinned sessions summed across shards, marked retired, not live, not
    /// the rollback target. Caller holds the lifecycle lock.
    fn sweep_locked(&self, lc: &mut LifecycleState, version: u64) -> Option<LifecycleEvent> {
        let retired = lc
            .versions
            .get(&version)
            .map(|m| m.retired.load(Ordering::Relaxed))
            .unwrap_or(false);
        if !retired || lc.live == version || lc.previous == Some(version) {
            return None;
        }
        let total: u64 = self.shards.iter().map(|s| s.version_refs(version)).sum();
        if total != 0 {
            return None;
        }
        for s in &self.shards {
            s.remove_version_entry(version);
        }
        lc.versions.remove(&version);
        self.metrics.inc_version_retired();
        Some(LifecycleEvent::Retired(version))
    }

    /// A shard reported its last pin on a retired version dropped: try the
    /// engine-wide sweep. Idempotent and race-tolerant — if another close
    /// is still in flight the sum stays nonzero and that close retries.
    fn maybe_sweep(&self, version: u64) {
        let ev = {
            let mut lc = self.lock_lifecycle();
            self.sweep_locked(&mut lc, version)
        };
        self.emit_lifecycle(ev);
    }

    /// Mints a fresh, unregistered capability token. Uniqueness against
    /// live tokens is checked under the detach lock; unguessability comes
    /// from 128 bits of splitmix64-mixed wall-clock + nonce.
    fn mint_locked(&self, dt: &DetachState) -> DetachToken {
        loop {
            let nonce = self.token_nonce.fetch_add(1, Ordering::Relaxed);
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            let hi = splitmix64(now ^ nonce.rotate_left(17));
            let lo = splitmix64(hi ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let token = ((hi as u128) << 64) | lo as u128;
            if token != 0 && !dt.parked.contains_key(&token) {
                return DetachToken(token);
            }
        }
    }

    /// Reclaims one parked group's sessions (TTL expiry), returning how
    /// many were reclaimed. Sweeps any versions whose last pin dropped.
    fn reap_group(&self, group: ParkedGroup) -> u64 {
        let mut reclaimed = 0u64;
        let mut sweeps: Vec<u64> = Vec::new();
        for id in group.sessions {
            let Ok(shard) = self.shard_for(id) else {
                continue;
            };
            if let Some(out) = shard.reap_detached(id) {
                reclaimed += 1;
                if out.sweep_candidate {
                    sweeps.push(out.version);
                }
            }
        }
        self.metrics.add_expired(reclaimed);
        sweeps.sort_unstable();
        sweeps.dedup();
        for v in sweeps {
            self.maybe_sweep(v);
        }
        reclaimed
    }
}

impl ShardUplink for EngineCore {
    /// The automatic divergence trip-wire: a worker observed a non-finite
    /// event decoded by `version`. If that version is still live and a
    /// previous version is retained, demote it and re-promote the previous
    /// one in-engine — no restart, no operator.
    fn trip_divergence(&self, version: u64) {
        let events = {
            let mut lc = self.lock_lifecycle();
            if lc.live != version {
                return;
            }
            let Some(prev) = lc.previous else {
                return;
            };
            if !lc.versions.contains_key(&prev) {
                return;
            }
            if let Some(m) = lc.versions.get(&version) {
                m.retired.store(true, Ordering::Relaxed);
            }
            if let Some(m) = lc.versions.get(&prev) {
                m.retired.store(false, Ordering::Relaxed);
            }
            lc.live = prev;
            lc.previous = None;
            for s in &self.shards {
                s.set_versions(prev, None);
            }
            self.metrics.inc_version_rolled_back();
            let mut events = vec![LifecycleEvent::TripWire {
                demoted: version,
                restored: prev,
            }];
            events.extend(self.sweep_locked(&mut lc, version));
            events
        };
        self.emit_lifecycle(events);
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
    pub fn start(model: Arc<CptGpt>, cfg: ServeConfig) -> Result<Engine, ServeError> {
        Engine::start_with_chaos(model, cfg, ChaosPlan::default())
    }

    /// [`Engine::start`] with a chaos plan wired into the decode loop.
    /// The model is installed as version 1.
    pub fn start_with_chaos(
        model: Arc<CptGpt>,
        cfg: ServeConfig,
        chaos: ChaosPlan,
    ) -> Result<Engine, ServeError> {
        Engine::start_versioned(model, 1, cfg, chaos)
    }

    /// [`Engine::start_with_chaos`] with an explicit id for the initial
    /// model version — the registry front end passes the live version id
    /// recovered from disk so engine and manifest agree from the first
    /// session.
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
        let shutdown = Arc::new(AtomicBool::new(false));
        let meta = Arc::new(VersionMeta {
            retired: AtomicBool::new(false),
        });
        let core = Arc::new_cyclic(|weak: &Weak<EngineCore>| {
            let uplink: Weak<dyn ShardUplink> = weak.clone();
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
                        Arc::clone(&shutdown),
                        uplink.clone(),
                        version,
                    ))
                })
                .collect();
            let mut versions = HashMap::new();
            versions.insert(version, Arc::clone(&meta));
            EngineCore {
                cfg,
                steer,
                shards,
                gauges,
                shutdown,
                draining: AtomicBool::new(false),
                metrics: Metrics::new(),
                lifecycle: Mutex::new(LifecycleState {
                    live: version,
                    previous: None,
                    versions,
                }),
                detach: Mutex::new(DetachState {
                    parked: HashMap::new(),
                }),
                reaper: Condvar::new(),
                token_nonce: AtomicU64::new(0x5EED),
                lifecycle_hook: Mutex::new(None),
                open_ordinal: AtomicU64::new(0),
            }
        });
        // Workers are not running yet, so this install cannot race.
        for s in &core.shards {
            s.install_entry(version, Arc::clone(&model), Arc::clone(&meta));
        }
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

    /// Stops the workers and joins them. Open sessions are dropped.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// See [`ServeHandle::drain`].
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        self.handle().drain(timeout)
    }

    fn shutdown_inner(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        for s in &self.core.shards {
            s.notify_all();
        }
        self.core.reaper.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_inner();
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
        if core.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        if core.draining.load(Ordering::SeqCst) {
            return Err(ServeError::Draining);
        }
        let open = core.gauges.open.fetch_add(1, Ordering::Relaxed);
        let queued = core.gauges.queued.load(Ordering::Relaxed);
        if open >= core.cfg.max_sessions || queued >= core.cfg.queue_watermark {
            core.gauges.open.fetch_sub(1, Ordering::Relaxed);
            core.metrics.inc_shed();
            return Err(ServeError::Overloaded {
                open,
                cap: core.cfg.max_sessions,
                queued,
                watermark: core.cfg.queue_watermark,
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
        let outcome = self.core.shard_for(id.0)?.close_session(id.0)?;
        if outcome.sweep_candidate {
            self.core.maybe_sweep(outcome.version);
        }
        Ok(())
    }

    /// Mints a fresh detach capability and registers it (with an empty
    /// session group) so the TTL clock starts now. The TCP front end calls
    /// this when a client *arms* detach-on-disconnect, so the token exists
    /// on the client side before any disconnect can happen.
    pub fn mint_detach_token(&self) -> DetachToken {
        let core = &self.core;
        let token = {
            let mut dt = core.lock_detach();
            let token = core.mint_locked(&dt);
            let expires_at = Instant::now() + Duration::from_secs(core.cfg.detach_ttl_secs);
            dt.parked.insert(
                token.0,
                ParkedGroup {
                    sessions: Vec::new(),
                    expires_at,
                },
            );
            token
        };
        core.reaper.notify_all();
        token
    }

    /// Parks `ids` under `token` (refreshing its TTL), detaching them from
    /// delivery until [`ServeHandle::reattach`] presents the token again.
    /// Parked sessions keep decoding until their bounded queue fills.
    /// Unknown or already-detached ids are skipped (the disconnect path
    /// races with closes); returns how many sessions were parked.
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
        {
            let mut dt = core.lock_detach();
            if parked.is_empty() {
                // Nothing survived to park; the armed placeholder (if any)
                // is useless now.
                dt.parked.remove(&token.0);
            } else {
                let expires_at =
                    Instant::now() + Duration::from_secs(core.cfg.detach_ttl_secs);
                dt.parked.insert(
                    token.0,
                    ParkedGroup {
                        sessions: parked,
                        expires_at,
                    },
                );
            }
        }
        core.reaper.notify_all();
        core.metrics.add_detached(n as u64);
        n
    }

    /// Convenience for library users: mint a token and park `ids` under it
    /// in one call. Fails with [`ServeError::UnknownSession`] (parking
    /// nothing) if any id is not an open, attached session.
    pub fn detach_sessions(&self, ids: &[SessionId]) -> Result<DetachToken, ServeError> {
        for id in ids {
            let attached = self
                .core
                .shard_for(id.0)
                .map(|s| s.is_attached_open(id.0))
                .unwrap_or(false);
            if !attached {
                return Err(ServeError::UnknownSession(id.0));
            }
        }
        let token = self.mint_detach_token();
        self.park_sessions(token, ids.iter().copied());
        Ok(token)
    }

    /// Redeems a detach token: the parked sessions re-attach (delivery
    /// resumes exactly where it stopped) and the token dies. Fails with
    /// [`ServeError::UnknownToken`] when the token was never minted,
    /// already redeemed, or expired.
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
        core.metrics.add_reattached(ids.len() as u64);
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
        loop {
            let unfinished = core.shards.iter().any(|s| s.has_undone());
            if !unfinished || core.shutdown.load(Ordering::SeqCst) {
                return DrainReport {
                    completed: initial,
                    force_failed: 0,
                };
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Bounded poll slices across N shards (each shard has its own
            // delivery condvar, so a single engine-wide wait is not
            // possible; 10 ms keeps drain latency negligible next to the
            // typical multi-second timeout).
            std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
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
        let mut per_version: HashMap<u64, u64> = HashMap::new();
        let mut occupancy: Vec<(u64, u64)> = Vec::with_capacity(core.shards.len());
        let mut free = 0usize;
        let mut workers = 0usize;
        for s in &core.shards {
            for (v, refs) in s.per_version_refs() {
                *per_version.entry(v).or_insert(0) += refs;
            }
            let (open, runnable, free_states) = s.occupancy();
            occupancy.push((open as u64, runnable as u64));
            free += free_states;
            workers += s.workers;
        }
        let mut per_version: Vec<(u64, u64)> = per_version.into_iter().collect();
        per_version.sort_unstable();
        let live = core.lock_lifecycle().live;
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
        self.core.shutdown.load(Ordering::SeqCst)
    }

    /// The model version new sessions currently open on.
    pub fn live_version(&self) -> u64 {
        self.core.lock_lifecycle().live
    }

    /// Installed versions and their pinned-session counts (summed across
    /// shards), sorted by id.
    pub fn sessions_per_version(&self) -> Vec<(u64, u64)> {
        let mut per_version: HashMap<u64, u64> = HashMap::new();
        for s in &self.core.shards {
            for (v, refs) in s.per_version_refs() {
                *per_version.entry(v).or_insert(0) += refs;
            }
        }
        let mut v: Vec<(u64, u64)> = per_version.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Installs `model` under version `id` without promoting it: sessions
    /// cannot open on it until [`ServeHandle::promote_version`]. Idempotent
    /// when the id is already installed. The version's decode weights are
    /// packed here, outside every engine lock, then the same Arc is
    /// replicated to every shard.
    pub fn install_version(&self, id: u64, model: Arc<CptGpt>) {
        model.pack_decode_weights();
        let mut lc = self.core.lock_lifecycle();
        let meta = Arc::clone(lc.versions.entry(id).or_insert_with(|| {
            Arc::new(VersionMeta {
                retired: AtomicBool::new(false),
            })
        }));
        // Fan out under the lifecycle lock so a concurrent promote cannot
        // observe the version installed engine-side but missing on a
        // shard.
        for s in &self.core.shards {
            s.install_entry(id, Arc::clone(&model), Arc::clone(&meta));
        }
    }

    /// Removes an installed-but-never-promoted version (the cleanup path
    /// when a registry promotion fails after the engine install). Refuses
    /// — returning `false` — when the version is live, is the rollback
    /// target, or has pinned sessions on any shard.
    pub fn uninstall_version(&self, id: u64) -> bool {
        let core = &self.core;
        let mut lc = core.lock_lifecycle();
        if !lc.versions.contains_key(&id) || lc.live == id || lc.previous == Some(id) {
            return false;
        }
        let total: u64 = core.shards.iter().map(|s| s.version_refs(id)).sum();
        if total != 0 {
            return false;
        }
        for s in &core.shards {
            s.remove_version_entry(id);
        }
        lc.versions.remove(&id);
        true
    }

    /// Promotes installed version `id`: new sessions open on it from the
    /// moment this returns, while sessions pinned to the old live version
    /// keep draining on it. The old version becomes the rollback target
    /// (displacing — and freeing, once unpinned everywhere — any earlier
    /// one). Returns the demoted version, or `Ok(None)` if `id` was
    /// already live.
    pub fn promote_version(&self, id: u64) -> Result<Option<u64>, ServeError> {
        let core = &self.core;
        let (demoted, events) = {
            let mut lc = core.lock_lifecycle();
            if !lc.versions.contains_key(&id) {
                return Err(ServeError::UnknownVersion(id));
            }
            if lc.live == id {
                return Ok(None);
            }
            let old = lc.live;
            let displaced = lc.previous.take();
            lc.previous = Some(old);
            lc.live = id;
            if let Some(m) = lc.versions.get(&id) {
                m.retired.store(false, Ordering::Relaxed);
            }
            // Replicate the transition to every shard; each clears its
            // free-list (the states belong to the old version's buffer
            // geometry).
            for s in &core.shards {
                s.set_versions(id, Some(old));
            }
            let mut events = Vec::new();
            if let Some(d) = displaced {
                if let Some(m) = lc.versions.get(&d) {
                    m.retired.store(true, Ordering::Relaxed);
                }
                events.extend(core.sweep_locked(&mut lc, d));
            }
            core.metrics.inc_version_published();
            (old, events)
        };
        core.emit_lifecycle(events);
        Ok(Some(demoted))
    }

    /// Demotes the live version and re-promotes the previous one (the
    /// manual half of the divergence trip-wire). Returns
    /// `(demoted, restored)`.
    pub fn rollback_version(&self) -> Result<(u64, u64), ServeError> {
        let core = &self.core;
        let (demoted, restored, events) = {
            let mut lc = core.lock_lifecycle();
            let Some(prev) = lc.previous else {
                return Err(ServeError::NoPreviousVersion);
            };
            if !lc.versions.contains_key(&prev) {
                return Err(ServeError::UnknownVersion(prev));
            }
            let demoted = lc.live;
            if let Some(m) = lc.versions.get(&demoted) {
                m.retired.store(true, Ordering::Relaxed);
            }
            if let Some(m) = lc.versions.get(&prev) {
                m.retired.store(false, Ordering::Relaxed);
            }
            lc.live = prev;
            lc.previous = None;
            for s in &core.shards {
                s.set_versions(prev, None);
            }
            core.metrics.inc_version_rolled_back();
            let events: Vec<LifecycleEvent> =
                core.sweep_locked(&mut lc, demoted).into_iter().collect();
            (demoted, prev, events)
        };
        core.emit_lifecycle(events);
        Ok((demoted, restored))
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

    /// Counts a candidate quarantined by the registry validation gate.
    pub fn note_version_quarantined(&self) {
        self.core.metrics.inc_version_quarantined();
    }

    /// Counts a fine-tune job entering its background task.
    pub fn note_finetune_started(&self) {
        self.core.metrics.finetune_started();
    }

    /// Counts a fine-tune job that published successfully.
    pub fn note_finetune_completed(&self) {
        self.core.metrics.finetune_completed();
    }

    /// Counts a fine-tune job that failed (divergence, panic, bad trace,
    /// or a rejected publish), leaving the serving model untouched.
    pub fn note_finetune_failed(&self) {
        self.core.metrics.finetune_failed();
    }
}

/// The token reaper: wakes at the next TTL expiry (or when a token is
/// minted/refreshed) and reclaims expired parked sessions.
fn reaper_loop(core: &Arc<EngineCore>) {
    loop {
        if core.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        let expired: Vec<ParkedGroup> = {
            let mut dt = core.lock_detach();
            let tokens: Vec<u128> = dt
                .parked
                .iter()
                .filter(|(_, g)| g.expires_at <= now)
                .map(|(t, _)| *t)
                .collect();
            tokens
                .into_iter()
                .filter_map(|t| dt.parked.remove(&t))
                .collect()
        };
        // Reap outside the detach lock: reaping takes shard locks and the
        // lifecycle lock, which never nest inside `detach`.
        for group in expired {
            core.reap_group(group);
        }
        let dt = core.lock_detach();
        if core.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let wait = dt
            .parked
            .values()
            .map(|g| g.expires_at.saturating_duration_since(Instant::now()))
            .min()
            .unwrap_or(Duration::from_secs(3600))
            .max(Duration::from_millis(10));
        drop(match core.reaper.wait_timeout(dt, wait) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        });
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
            ("max_sessions", ServeConfig { max_sessions: 0, ..ok }),
            ("queue_capacity", ServeConfig { queue_capacity: 0, ..ok }),
            ("slice_budget", ServeConfig { slice_budget: 0, ..ok }),
            (
                "queue_watermark",
                ServeConfig {
                    queue_watermark: 1,
                    queue_capacity: 64,
                    ..ok
                },
            ),
            ("detach_ttl_secs", ServeConfig { detach_ttl_secs: 0, ..ok }),
            ("read_timeout_ms", ServeConfig { read_timeout_ms: 0, ..ok }),
            ("max_connections", ServeConfig { max_connections: 0, ..ok }),
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
            matches!("not-hex".parse::<DetachToken>(), Err(ServeError::UnknownToken)),
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
