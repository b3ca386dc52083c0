//! One shard of the shared-nothing serve engine.
//!
//! A shard is a complete miniature of the old single-lock engine: it owns
//! its sessions, run queue, decode-state free-list, model-version
//! replicas, latency counters, and a private `work`/`delivery` condvar
//! pair. Decode workers are pinned to exactly one shard, so on the hot
//! path (`open`/`next`/`close`/decode slice) a thread only ever takes *its
//! own shard's* mutex — shards never touch each other's state, in the
//! TrafficEngine shared-nothing idiom.
//!
//! The only cross-shard state is [`Gauges`] (relaxed atomics for global
//! admission) and the engine-level lifecycle/detach maps, which shards
//! reach strictly *upward* through [`ShardUplink`] after dropping their
//! own lock — the lock order is always engine → shard, never shard →
//! engine, so no lock cycle exists.
//!
//! Determinism is untouched by sharding: a session's event sequence is a
//! pure function of `(model, StreamParams)`, each shard schedules its
//! sessions exactly as the unsharded engine did, and which shard a
//! session lands on cannot influence its bytes.

#![deny(clippy::unwrap_used)]

use crate::chaos::ChaosPlan;
use crate::engine::{DecodedEvent, EventBatch, ServeConfig, SessionEvent};
use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::steer::Steering;
use cpt_gpt::{
    panic_message, BatchDecoder, CptGpt, DecodeState, RoundOutcome, SessionDecoder, StreamParams,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// Global admission gauges — the only hot-path state shared by every
/// shard, all relaxed atomics. `open` is reserved *before* a shard is
/// picked (fetch_add, backed out on failure), so the session cap stays
/// strict even though no lock spans the shards; `queued` is a watermark
/// gauge maintained by every queue mutation.
pub(crate) struct Gauges {
    /// Open sessions across all shards (admission cap).
    pub(crate) open: AtomicUsize,
    /// Undelivered events across all shards (admission watermark).
    pub(crate) queued: AtomicUsize,
}

impl Gauges {
    pub(crate) fn new() -> Gauges {
        Gauges {
            open: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
        }
    }
}

/// Engine services a shard may call *after dropping its own lock*. The
/// engine implements this; shards hold it weakly so shutdown can tear the
/// engine down while workers are mid-slice.
pub(crate) trait ShardUplink: Send + Sync {
    /// A worker decoded a non-finite event from `version`: demote it
    /// engine-wide (the divergence trip-wire).
    fn trip_divergence(&self, version: u64);
}

/// A model version's engine-wide lifecycle flags, shared by reference
/// with every shard's [`ModelEntry`] replica so the hot close path can
/// check "retired?" without the engine's lifecycle lock.
pub(crate) struct VersionMeta {
    /// Demoted and no longer the rollback target: the engine sweeps the
    /// version once every shard's refcount hits zero.
    pub(crate) retired: AtomicBool,
}

/// Scheduling state of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// In the run queue, awaiting a worker.
    Queued,
    /// A worker currently holds the decoder.
    Running,
    /// Event queue full; waiting for the consumer to drain.
    Parked,
    /// Decode complete (or failed); only delivery remains.
    Done,
}

struct SessionSlot {
    /// The decoder; `None` while a worker runs the session, and forever
    /// after a contained failure (the unwind consumed it).
    decoder: Option<SessionDecoder>,
    /// Undelivered events, bounded by `queue_capacity` (+1 for a terminal
    /// failure record, which is always accepted).
    queue: VecDeque<SessionEvent>,
    run: RunState,
    /// Close was requested while a worker held the decoder; the worker
    /// disposes of the session at slice end.
    closed: bool,
    /// The session died to a contained fault; its queue ends with
    /// [`SessionEvent::Failed`] and any in-flight slice is discarded.
    failed: bool,
    /// Parked under a detach token; unreachable through
    /// `next_events`/`close_session` until reattached.
    detached: bool,
    /// The model version this session opened on, pinned for its whole
    /// life (refcounted in this shard's [`ModelEntry`]).
    version: u64,
}

/// This shard's replica of one installed model version: the weight Arcs
/// every shard shares, plus the *shard-local* pin count. The engine sums
/// the per-shard counts (under its lifecycle lock) to decide retirement.
struct ModelEntry {
    model: Arc<CptGpt>,
    /// Sessions on *this shard* pinned to this version.
    refs: u64,
    /// Engine-wide lifecycle flags (see [`VersionMeta`]).
    meta: Arc<VersionMeta>,
}

struct ShardState {
    /// Sessions this shard owns, keyed by **global** session id (the
    /// shard bits are this shard's index — see [`Steering`]).
    sessions: HashMap<u64, SessionSlot>,
    run_queue: VecDeque<u64>,
    /// Recycled decode states. Invariant: every state here came from a
    /// session pinned to `live_version` — version transitions clear the
    /// list — so reuse can never leak one version's buffer geometry into
    /// another's decode.
    free_states: Vec<DecodeState>,
    /// Open sessions on this shard (occupancy stat; the admission cap
    /// uses the global gauge).
    open_count: usize,
    /// Shard-local id counter; composed with the shard index into the
    /// global session id.
    next_local: u64,
    /// Installed version replicas by id (same Arcs on every shard).
    models: HashMap<u64, ModelEntry>,
    /// Replica of the engine's live version (kept in sync under the
    /// engine's lifecycle lock).
    live_version: u64,
    /// Replica of the engine's rollback target.
    previous_version: Option<u64>,
}

/// Everything one shard's workers and front-end verbs share.
pub(crate) struct ShardShared {
    pub(crate) cfg: ServeConfig,
    /// This shard's index (the low id bits of every session it owns).
    pub(crate) idx: usize,
    /// Decode workers pinned to this shard (the batch fair-share
    /// divisor; the engine splits `cfg.workers` across shards).
    pub(crate) workers: usize,
    pub(crate) steer: Steering,
    pub(crate) chaos: ChaosPlan,
    state: Mutex<ShardState>,
    /// This shard's workers wait here for its run queue to fill.
    work: Condvar,
    /// This shard's consumers wait here for events to arrive.
    delivery: Condvar,
    /// Per-shard counters, merged engine-wide at `/stats`.
    pub(crate) metrics: Metrics,
    pub(crate) gauges: Arc<Gauges>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Upward path to the engine (trip-wire), called only lock-free.
    uplink: Weak<dyn ShardUplink>,
}

/// What a close/reap observed about the session's pinned version: when
/// the shard-local refcount hit zero on a retired version, the engine
/// should try a sweep.
pub(crate) struct ReleaseOutcome {
    pub(crate) version: u64,
    /// This shard's last pin on a retired version just dropped.
    pub(crate) sweep_candidate: bool,
}

impl ShardShared {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cfg: ServeConfig,
        idx: usize,
        workers: usize,
        steer: Steering,
        chaos: ChaosPlan,
        gauges: Arc<Gauges>,
        shutdown: Arc<AtomicBool>,
        uplink: Weak<dyn ShardUplink>,
        live_version: u64,
    ) -> ShardShared {
        ShardShared {
            cfg,
            idx,
            workers,
            steer,
            chaos,
            state: Mutex::new(ShardState {
                sessions: HashMap::new(),
                run_queue: VecDeque::new(),
                free_states: Vec::new(),
                open_count: 0,
                next_local: 1,
                models: HashMap::new(),
                live_version,
                previous_version: None,
            }),
            work: Condvar::new(),
            delivery: Condvar::new(),
            metrics: Metrics::new(),
            gauges,
            shutdown,
            uplink,
        }
    }

    /// Locks the shard state, recovering from a poisoned mutex (a panic
    /// in one worker must not wedge the shard).
    fn lock_state(&self) -> MutexGuard<'_, ShardState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Wakes everything waiting on this shard (shutdown/drain path).
    pub(crate) fn notify_all(&self) {
        self.work.notify_all();
        self.delivery.notify_all();
    }

    /// Returns a decode state to the free-list — but only when it comes
    /// from a session pinned to the live version (cross-version reuse is
    /// never allowed).
    fn recycle(st: &mut ShardState, cap: usize, version: u64, decode: DecodeState) {
        if version == st.live_version && st.free_states.len() < cap {
            st.free_states.push(decode);
        }
    }

    /// Removes a session's storage (immediately, or deferred to the
    /// worker holding its decoder). Does *not* touch `open_count`, the
    /// open gauge, or the version refcount — callers own that.
    fn dispose_locked(&self, st: &mut ShardState, id: u64) {
        let running = st
            .sessions
            .get(&id)
            .map(|s| s.run == RunState::Running)
            .unwrap_or(false);
        if running {
            if let Some(slot) = st.sessions.get_mut(&id) {
                slot.closed = true;
                let n = slot.queue.len();
                slot.queue.clear();
                self.gauges.queued.fetch_sub(n, Ordering::Relaxed);
            }
        } else if let Some(slot) = st.sessions.remove(&id) {
            self.gauges
                .queued
                .fetch_sub(slot.queue.len(), Ordering::Relaxed);
            if let Some(decoder) = slot.decoder {
                ShardShared::recycle(st, self.cfg.max_sessions, slot.version, decoder.into_state());
            }
        }
    }

    /// Drops one session's pin on `version`, reporting whether the
    /// engine should attempt a retirement sweep.
    fn release_version_locked(&self, st: &mut ShardState, version: u64) -> ReleaseOutcome {
        let sweep_candidate = match st.models.get_mut(&version) {
            Some(e) => {
                e.refs = e.refs.saturating_sub(1);
                e.refs == 0 && e.meta.retired.load(Ordering::Relaxed)
            }
            None => false,
        };
        ReleaseOutcome {
            version,
            sweep_candidate,
        }
    }

    /// Marks a session failed: appends the terminal failure record, stops
    /// scheduling, and counts it. The failure record is always accepted
    /// even into a full queue (bound +1) so the consumer cannot miss it.
    fn fail_locked(&self, st: &mut ShardState, id: u64, reason: String) -> bool {
        let Some(slot) = st.sessions.get_mut(&id) else {
            return false;
        };
        if slot.closed || slot.failed {
            return false;
        }
        slot.queue.push_back(SessionEvent::Failed { reason });
        slot.run = RunState::Done;
        slot.failed = true;
        self.gauges.queued.fetch_add(1, Ordering::Relaxed);
        self.metrics.inc_failed();
        true
    }

    /// Admits a session on this shard. The caller (engine) has already
    /// passed global admission and *reserved* the open-gauge slot; on
    /// error the caller backs the reservation out.
    pub(crate) fn open_session(&self, params: StreamParams) -> Result<u64, ServeError> {
        let mut st = self.lock_state();
        // Pin the live version: the session decodes with these weights
        // for its whole life, whatever publishes happen meanwhile.
        let version = st.live_version;
        let model = match st.models.get(&version) {
            Some(e) => Arc::clone(&e.model),
            None => return Err(ServeError::UnknownVersion(version)),
        };
        let decoder = match st.free_states.pop() {
            Some(state) => model.open_session_reusing(params, state)?,
            None => model.open_session(params)?,
        };
        let local = st.next_local;
        st.next_local += 1;
        let id = self.steer.compose(self.idx, local);
        st.sessions.insert(
            id,
            SessionSlot {
                decoder: Some(decoder),
                queue: VecDeque::new(),
                run: RunState::Queued,
                closed: false,
                failed: false,
                detached: false,
                version,
            },
        );
        if let Some(e) = st.models.get_mut(&version) {
            e.refs += 1;
        }
        st.open_count += 1;
        st.run_queue.push_back(id);
        self.metrics.inc_opened();
        drop(st);
        self.work.notify_one();
        Ok(id)
    }

    /// Delivers up to `max` events in order, blocking up to `wait` while
    /// the queue is empty and the session is still decoding (see
    /// `ServeHandle::next_events` for the full contract).
    pub(crate) fn next_events(
        &self,
        id: u64,
        max: usize,
        wait: Duration,
    ) -> Result<EventBatch, ServeError> {
        let max = max.max(1);
        let deadline = Instant::now() + wait;
        let mut st = self.lock_state();
        loop {
            {
                let slot = st
                    .sessions
                    .get(&id)
                    .filter(|s| !s.closed && !s.detached)
                    .ok_or(ServeError::UnknownSession(id))?;
                if !slot.queue.is_empty() || slot.run == RunState::Done {
                    break;
                }
            }
            let now = Instant::now();
            if now >= deadline || self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            st = match self.delivery.wait_timeout(st, deadline - now) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }

        let (events, finished, wake) = {
            let slot = st
                .sessions
                .get_mut(&id)
                .filter(|s| !s.closed && !s.detached)
                .ok_or(ServeError::UnknownSession(id))?;
            let n = slot.queue.len().min(max);
            let events: Vec<SessionEvent> = slot.queue.drain(..n).collect();
            let wake =
                slot.run == RunState::Parked && slot.queue.len() < self.cfg.queue_capacity;
            if wake {
                slot.run = RunState::Queued;
            }
            let finished = slot.run == RunState::Done && slot.queue.is_empty();
            (events, finished, wake)
        };
        self.gauges.queued.fetch_sub(events.len(), Ordering::Relaxed);
        if wake {
            st.run_queue.push_back(id);
        }
        drop(st);
        if wake {
            self.work.notify_one();
        }
        self.metrics.add_delivered(events.len() as u64);
        Ok(EventBatch { events, finished })
    }

    /// Closes a session, recycling its decode buffers. The caller owns
    /// the open-gauge decrement and any retirement sweep.
    pub(crate) fn close_session(&self, id: u64) -> Result<ReleaseOutcome, ServeError> {
        let mut st = self.lock_state();
        let Some(version) = st
            .sessions
            .get(&id)
            .filter(|s| !s.closed && !s.detached)
            .map(|s| s.version)
        else {
            return Err(ServeError::UnknownSession(id));
        };
        self.dispose_locked(&mut st, id);
        st.open_count -= 1;
        self.gauges.open.fetch_sub(1, Ordering::Relaxed);
        let outcome = self.release_version_locked(&mut st, version);
        self.metrics.inc_closed();
        Ok(outcome)
    }

    /// True when `id` is an open, attached session on this shard.
    pub(crate) fn is_attached_open(&self, id: u64) -> bool {
        self.lock_state()
            .sessions
            .get(&id)
            .map(|s| !s.closed && !s.detached)
            .unwrap_or(false)
    }

    /// Marks a session detached (parked under a token). Returns false
    /// for unknown/closed/already-detached ids.
    pub(crate) fn mark_detached(&self, id: u64) -> bool {
        let mut st = self.lock_state();
        match st
            .sessions
            .get_mut(&id)
            .filter(|s| !s.closed && !s.detached)
        {
            Some(slot) => {
                slot.detached = true;
                true
            }
            None => false,
        }
    }

    /// Clears a session's detached flag (reattach). Returns false when
    /// the session is gone or was not detached.
    pub(crate) fn clear_detached(&self, id: u64) -> bool {
        let mut st = self.lock_state();
        match st.sessions.get_mut(&id).filter(|s| s.detached) {
            Some(slot) => {
                slot.detached = false;
                true
            }
            None => false,
        }
    }

    /// Reclaims one expired detached session. Returns the release
    /// outcome, or `None` when the session already ended another way.
    pub(crate) fn reap_detached(&self, id: u64) -> Option<ReleaseOutcome> {
        let mut st = self.lock_state();
        let version = st
            .sessions
            .get(&id)
            .filter(|s| s.detached)
            .map(|s| s.version)?;
        self.dispose_locked(&mut st, id);
        st.open_count -= 1;
        self.gauges.open.fetch_sub(1, Ordering::Relaxed);
        Some(self.release_version_locked(&mut st, version))
    }

    /// Sessions on this shard not yet closed (drain accounting).
    pub(crate) fn unclosed_count(&self) -> u64 {
        self.lock_state()
            .sessions
            .values()
            .filter(|s| !s.closed)
            .count() as u64
    }

    /// True while any session on this shard is still decoding.
    pub(crate) fn has_undone(&self) -> bool {
        self.lock_state()
            .sessions
            .values()
            .any(|s| !s.closed && s.run != RunState::Done)
    }

    /// Force-fails every session still decoding (drain deadline).
    pub(crate) fn force_fail_undone(&self) -> u64 {
        let mut st = self.lock_state();
        let stragglers: Vec<u64> = st
            .sessions
            .iter()
            .filter(|(_, s)| !s.closed && s.run != RunState::Done)
            .map(|(id, _)| *id)
            .collect();
        let mut force_failed = 0u64;
        for id in stragglers {
            if self.fail_locked(&mut st, id, "drain deadline exceeded".to_string()) {
                self.metrics.inc_force_failed();
                force_failed += 1;
            }
        }
        drop(st);
        self.delivery.notify_all();
        force_failed
    }

    /// Installs (or refreshes) a version replica on this shard.
    /// Idempotent: an existing entry (and its refcount) is kept.
    pub(crate) fn install_entry(&self, id: u64, model: Arc<CptGpt>, meta: Arc<VersionMeta>) {
        let mut st = self.lock_state();
        st.models.entry(id).or_insert(ModelEntry {
            model,
            refs: 0,
            meta,
        });
    }

    /// Drops a version replica. Only called by the engine once every
    /// shard's refcount is zero (or at uninstall of a never-promoted
    /// version); refuses if sessions are still pinned here.
    pub(crate) fn remove_version_entry(&self, id: u64) -> bool {
        let mut st = self.lock_state();
        let removable = st.models.get(&id).map(|e| e.refs == 0).unwrap_or(false);
        if removable {
            st.models.remove(&id);
        }
        removable
    }

    /// Sessions on this shard pinned to `id`.
    pub(crate) fn version_refs(&self, id: u64) -> u64 {
        self.lock_state()
            .models
            .get(&id)
            .map(|e| e.refs)
            .unwrap_or(0)
    }

    /// All version replicas and their shard-local pin counts.
    pub(crate) fn per_version_refs(&self) -> Vec<(u64, u64)> {
        self.lock_state()
            .models
            .iter()
            .map(|(v, e)| (*v, e.refs))
            .collect()
    }

    /// Updates this shard's live/previous replica after a version
    /// transition (promote/rollback/trip), clearing the free-list: its
    /// states belong to the old version's buffer geometry.
    pub(crate) fn set_versions(&self, live: u64, previous: Option<u64>) {
        let mut st = self.lock_state();
        st.live_version = live;
        st.previous_version = previous;
        st.free_states.clear();
    }

    /// Point-in-time occupancy: (open sessions, run-queue depth,
    /// free-list length).
    pub(crate) fn occupancy(&self) -> (usize, usize, usize) {
        let st = self.lock_state();
        (st.open_count, st.run_queue.len(), st.free_states.len())
    }
}

/// Blocks until ready sessions are available on this shard or shutdown is
/// requested (`None`): fills `out` with `(id, decoder, budget)` triples of
/// a single model version in run-queue order — stale entries (closed,
/// failed or re-scheduled sessions) are skipped — capped at `batch_max`
/// and a fair share of this shard's queue across this shard's workers, and
/// returns that version with its model.
fn next_work_batch(
    shard: &ShardShared,
    out: &mut Vec<(u64, SessionDecoder, usize)>,
) -> Option<(u64, Arc<CptGpt>)> {
    out.clear();
    let mut st = shard.lock_state();
    loop {
        if shard.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let share = (st.run_queue.len() / shard.workers.max(1)).max(1);
        let cap = shard.cfg.batch_max.min(share);
        let mut version: Option<u64> = None;
        let mut deferred: Vec<u64> = Vec::new();
        while out.len() < cap {
            let Some(id) = st.run_queue.pop_front() else {
                break;
            };
            if let Some(slot) = st.sessions.get_mut(&id) {
                if slot.run == RunState::Queued && !slot.closed && !slot.failed {
                    if let Some(v) = version {
                        if v != slot.version {
                            deferred.push(id);
                            continue;
                        }
                    }
                    if let Some(decoder) = slot.decoder.take() {
                        slot.run = RunState::Running;
                        version = Some(slot.version);
                        let room = shard
                            .cfg
                            .queue_capacity
                            .saturating_sub(slot.queue.len());
                        out.push((id, decoder, room.min(shard.cfg.slice_budget)));
                    }
                }
            }
        }
        // Other-version sessions go back to the head in original order.
        for id in deferred.into_iter().rev() {
            st.run_queue.push_front(id);
        }
        if let Some(v) = version {
            if let Some(entry) = st.models.get(&v) {
                let model = Arc::clone(&entry.model);
                let more = !st.run_queue.is_empty();
                drop(st);
                if more {
                    shard.work.notify_one();
                }
                return Some((v, model));
            }
            // Defensive: the pinned version vanished. Fail the grabbed
            // sessions rather than decode with the wrong weights.
            for (id, decoder, _) in out.drain(..) {
                drop(decoder);
                shard.fail_locked(&mut st, id, format!("model version {v} vanished"));
            }
            shard.delivery.notify_all();
            continue;
        }
        st = match shard.work.wait(st) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
    }
}

/// One session's in-flight state during a batched slice.
struct BatchEntry {
    id: u64,
    /// `None` once the entry panicked or tripped (the decoder's state may
    /// be corrupt, so it is dropped, never recycled).
    decoder: Option<SessionDecoder>,
    /// Event budget for this slice (slice budget capped by queue room).
    budget: usize,
    /// Events decoded this slice, published in order at slice end.
    buf: Vec<DecodedEvent>,
    done: bool,
    panic: Option<String>,
    /// The failure was the divergence trip-wire (non-finite event), not a
    /// panic: counted separately, and it triggers the automatic rollback
    /// after the slice publishes.
    tripped: bool,
}

/// Publishes one batch entry's slice under the shard lock: vanished
/// (defensive; close defers removal) and close-pending sessions recycle
/// their buffers, force-failed sessions (drain deadline) discard the slice
/// — the terminal record is already queued, and data after it would
/// corrupt the stream — panicked entries deliver their decoded prefix then
/// the terminal failure record, and live sessions re-enqueue / park /
/// finish. Returns
/// the entry's event buffer, emptied, so the worker can reuse its capacity
/// for a later slice.
fn publish_entry(
    shard: &ShardShared,
    st: &mut ShardState,
    version: u64,
    e: BatchEntry,
) -> Vec<DecodedEvent> {
    let mut buf = e.buf;
    match e.panic {
        Some(reason) => match st.sessions.get_mut(&e.id) {
            None => {}
            Some(slot) if slot.closed => {
                st.sessions.remove(&e.id);
            }
            Some(slot) => {
                let produced = buf.len();
                slot.queue.extend(buf.drain(..).map(SessionEvent::Data));
                slot.decoder = None;
                shard.gauges.queued.fetch_add(produced, Ordering::Relaxed);
                shard.fail_locked(st, e.id, reason);
            }
        },
        None => {
            let decoder = e.decoder.expect("non-panicked entry keeps its decoder");
            match st.sessions.get_mut(&e.id) {
                None => {
                    ShardShared::recycle(st, shard.cfg.max_sessions, version, decoder.into_state());
                }
                Some(slot) if slot.closed => {
                    st.sessions.remove(&e.id);
                    ShardShared::recycle(st, shard.cfg.max_sessions, version, decoder.into_state());
                }
                Some(slot) if slot.failed => {
                    slot.decoder = None;
                    ShardShared::recycle(st, shard.cfg.max_sessions, version, decoder.into_state());
                }
                Some(slot) => {
                    let produced = buf.len();
                    slot.queue.extend(buf.drain(..).map(SessionEvent::Data));
                    if e.done {
                        slot.run = RunState::Done;
                        slot.decoder = Some(decoder);
                    } else if slot.queue.len() >= shard.cfg.queue_capacity {
                        slot.run = RunState::Parked;
                        slot.decoder = Some(decoder);
                    } else {
                        slot.run = RunState::Queued;
                        slot.decoder = Some(decoder);
                        st.run_queue.push_back(e.id);
                        shard.work.notify_one();
                    }
                    shard.gauges.queued.fetch_add(produced, Ordering::Relaxed);
                }
            }
        }
    }
    buf.clear();
    buf
}

/// One decode worker, pinned to one shard: grab up to `batch_max` ready
/// sessions, advance them together one event per round through a
/// [`BatchDecoder`] (one packed per-layer GEMM over all live entries per
/// round), publish each session at slice end, repeat. `batch_max = 1` is
/// one session at a time; a session's bytes are the same at any setting.
///
/// Containment is two-level: the `BatchDecoder` contains per-entry panics
/// (the chaos hook and sampling run per entry), failing only the targeted
/// session while the rest of the batch proceeds; a panic inside the shared
/// forward pass itself is caught here and fails every live entry — the
/// decode states may be mid-scatter, so none of them can be trusted.
pub(crate) fn worker_loop(shard: &ShardShared) {
    let chaos = shard.chaos;
    // One BatchDecoder per model version this worker has recently served:
    // during a hot-swap drain old and new versions decode side by side.
    // Swept aggressively — steady state is a single entry.
    let mut decoders: HashMap<u64, BatchDecoder> = HashMap::new();
    let mut work: Vec<(u64, SessionDecoder, usize)> = Vec::with_capacity(shard.cfg.batch_max);
    let mut entries: Vec<BatchEntry> = Vec::with_capacity(shard.cfg.batch_max);
    let mut outcomes: Vec<RoundOutcome> = Vec::with_capacity(shard.cfg.batch_max);
    // Per-round index vectors and per-entry event buffers, reused across
    // rounds and slices: steady state allocates neither.
    let mut live: Vec<usize> = Vec::with_capacity(shard.cfg.batch_max);
    let mut live_ids: Vec<u64> = Vec::with_capacity(shard.cfg.batch_max);
    let mut spare_bufs: Vec<Vec<DecodedEvent>> = Vec::with_capacity(shard.cfg.batch_max);
    let mut slice_idx: u64 = 0;
    while let Some((version, model)) = next_work_batch(shard, &mut work) {
        let t0 = Instant::now();
        if decoders.len() > 4 {
            decoders.retain(|v, _| *v == version);
        }
        let bd = decoders
            .entry(version)
            .or_insert_with(|| BatchDecoder::new(&model, shard.cfg.batch_max));
        entries.clear();
        entries.extend(work.drain(..).map(|(id, decoder, budget)| BatchEntry {
            id,
            decoder: Some(decoder),
            budget,
            buf: spare_bufs.pop().unwrap_or_default(),
            done: false,
            panic: None,
            tripped: false,
        }));
        loop {
            live.clear();
            live.extend((0..entries.len()).filter(|&k| {
                let e = &entries[k];
                e.panic.is_none() && !e.done && e.buf.len() < e.budget
            }));
            if live.is_empty() {
                break;
            }
            live_ids.clear();
            live_ids.extend(live.iter().map(|&k| entries[k].id));
            let mut refs: Vec<&mut SessionDecoder> = {
                let mut want = live.iter().copied().peekable();
                let mut refs = Vec::with_capacity(live.len());
                for (k, e) in entries.iter_mut().enumerate() {
                    if want.peek() == Some(&k) {
                        want.next();
                        refs.push(e.decoder.as_mut().expect("live entry keeps its decoder"));
                    }
                }
                refs
            };
            let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bd.next_events(
                    &model,
                    &mut refs,
                    &mut |slot, events| {
                        let id = live_ids[slot];
                        if chaos.should_panic(id, events) {
                            panic!("chaos: injected panic advancing session {id}");
                        }
                    },
                    &mut outcomes,
                )
            }));
            match round {
                Ok(rows) => {
                    let mut produced = 0u64;
                    for (&k, oc) in live.iter().zip(outcomes.drain(..)) {
                        match oc {
                            RoundOutcome::Event(mut ev) => {
                                let e = &mut entries[k];
                                let emitted = e
                                    .decoder
                                    .as_ref()
                                    .map(|d| d.events_emitted())
                                    .unwrap_or(0);
                                if chaos.should_poison(e.id, emitted) {
                                    ev.iat = f64::NAN;
                                }
                                if !ev.iat.is_finite() || !ev.timestamp.is_finite() {
                                    // Divergence trip-wire: the event is
                                    // garbage, so the decode state is not
                                    // trusted either. Fail the session and
                                    // let the post-slice hook demote the
                                    // version.
                                    e.decoder = None;
                                    e.panic = Some(format!(
                                        "divergence trip-wire: non-finite event \
                                         (iat={}, timestamp={})",
                                        ev.iat, ev.timestamp
                                    ));
                                    e.tripped = true;
                                    shard.metrics.inc_divergence_trip();
                                } else {
                                    e.buf.push(ev);
                                    produced += 1;
                                }
                            }
                            RoundOutcome::Finished => entries[k].done = true,
                            RoundOutcome::Panicked(reason) => {
                                entries[k].decoder = None;
                                entries[k].panic = Some(reason);
                                shard.metrics.inc_worker_panic();
                            }
                        }
                    }
                    shard.metrics.record_batch_round(rows as u64, produced);
                }
                Err(payload) => {
                    let reason = format!("worker panic: {}", panic_message(payload.as_ref()));
                    shard.metrics.inc_worker_panic();
                    for &k in &live {
                        entries[k].decoder = None;
                        entries[k].panic = Some(reason.clone());
                    }
                    break;
                }
            }
        }
        let total: u64 = entries.iter().map(|e| e.buf.len() as u64).sum();
        shard.metrics.record_slice(t0.elapsed(), total);
        if let Some(delay) = chaos.slice_delay(slice_idx) {
            std::thread::sleep(delay);
        }
        slice_idx += 1;

        let mut st = shard.lock_state();
        let mut tripped = false;
        for e in entries.drain(..) {
            tripped |= e.tripped;
            spare_bufs.push(publish_entry(shard, &mut st, version, e));
        }
        drop(st);
        shard.delivery.notify_all();
        if tripped {
            // Strictly after dropping the shard lock: the uplink takes
            // the engine lifecycle lock, which nests *outside* shard
            // locks.
            if let Some(up) = shard.uplink.upgrade() {
                up.trip_divergence(version);
            }
        }
    }
}
