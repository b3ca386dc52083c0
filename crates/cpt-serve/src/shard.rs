//! One shard of the shared-nothing serve engine.
//!
//! A shard is a complete miniature of the old single-lock engine: it owns
//! its sessions, run queue, decode-state free-list, a replica of the live
//! model version, latency counters, and a private `work`/`delivery`
//! condvar pair. Decode workers are pinned to exactly one shard, so on the hot
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
//! A session pins its model version by holding the `Arc<Version>` it
//! opened on; the slot drops it when the session is disposed (at close,
//! reap, or — when a worker holds the decoder — at that worker's publish).
//! Nothing here counts pins: a demoted version is freed, and reports
//! itself retired, when its last reference goes.
//!
//! Determinism is untouched by sharding: a session's event sequence is a
//! pure function of `(model, StreamParams)`, each shard schedules its
//! sessions exactly as the unsharded engine did, and which shard a
//! session lands on cannot influence its bytes.

#![deny(clippy::unwrap_used)]

use crate::chaos::ChaosPlan;
use crate::engine::{DecodedEvent, EventBatch, ServeConfig, SessionEvent, Version};
use crate::error::ServeError;
use crate::metrics::{Counter, Metrics};
use crate::steer::Steering;
use cpt_gpt::{
    panic_message, BatchDecoder, DecodeState, RoundOutcome, SessionDecoder, StreamParams,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    fn trip_divergence(&self, version: &Arc<Version>);
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
    /// life: the slot's reference is the pin.
    version: Arc<Version>,
}

struct ShardState {
    /// Sessions this shard owns, keyed by **global** session id (the
    /// shard bits are this shard's index — see [`Steering`]).
    sessions: HashMap<u64, SessionSlot>,
    run_queue: VecDeque<u64>,
    /// Recycled decode states. Invariant: every state here came from a
    /// session pinned to `live` — version transitions clear the list — so
    /// reuse can never leak one version's buffer geometry into another's
    /// decode.
    free_states: Vec<DecodeState>,
    /// Open sessions on this shard (occupancy stat; the admission cap
    /// uses the global gauge).
    open_count: usize,
    /// Shard-local id counter; composed with the shard index into the
    /// global session id.
    next_local: u64,
    /// Replica of the engine's live version, which new sessions pin (kept
    /// in sync under the engine's lifecycle lock).
    live: Arc<Version>,
    /// The engine is stopping: workers exit, waiting consumers return and
    /// `open` refuses. Under the lock its sleepers wait with, so none can
    /// check it and then sleep through the notify that follows.
    stopping: bool,
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
    /// Upward path to the engine (trip-wire), called only lock-free.
    uplink: Weak<dyn ShardUplink>,
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
        uplink: Weak<dyn ShardUplink>,
        live: Arc<Version>,
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
                live,
                stopping: false,
            }),
            work: Condvar::new(),
            delivery: Condvar::new(),
            metrics: Metrics::new(),
            gauges,
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

    /// Stops the shard: sets `stopping` under the lock, then wakes every
    /// worker and consumer waiting on it.
    pub(crate) fn stop(&self) {
        self.lock_state().stopping = true;
        self.work.notify_all();
        self.delivery.notify_all();
    }

    /// Returns a decode state to the free-list — but only when it comes
    /// from a session pinned to the live version (cross-version reuse is
    /// never allowed).
    fn recycle(st: &mut ShardState, cap: usize, version: &Arc<Version>, decode: DecodeState) {
        if Arc::ptr_eq(version, &st.live) && st.free_states.len() < cap {
            st.free_states.push(decode);
        }
    }

    /// Removes a session's storage (immediately, or deferred to the
    /// worker holding its decoder), dropping its version pin with it, and
    /// counts it out of `open_count` and the open gauge. A session that
    /// was still decoding wakes `delivery`: a drain may be waiting for it.
    fn dispose_locked(&self, st: &mut ShardState, id: u64) {
        let Some(run) = st.sessions.get(&id).map(|s| s.run) else {
            return;
        };
        st.open_count -= 1;
        self.gauges.open.fetch_sub(1, Ordering::Relaxed);
        if run != RunState::Done {
            self.delivery.notify_all();
        }
        if run == RunState::Running {
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
                let cap = self.cfg.max_sessions;
                ShardShared::recycle(st, cap, &slot.version, decoder.into_state());
            }
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
        self.metrics.add(Counter::SessionsFailed, 1);
        true
    }

    /// Admits a session on this shard. The caller (engine) has already
    /// passed global admission and *reserved* the open-gauge slot; on
    /// error the caller backs the reservation out.
    pub(crate) fn open_session(&self, params: StreamParams) -> Result<u64, ServeError> {
        let mut st = self.lock_state();
        if st.stopping {
            return Err(ServeError::ShuttingDown);
        }
        // Pin the live version: the session decodes with these weights
        // for its whole life, whatever publishes happen meanwhile.
        let version = Arc::clone(&st.live);
        let decoder = match st.free_states.pop() {
            Some(state) => version.model.open_session_reusing(params, state)?,
            None => version.model.open_session(params)?,
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
        st.open_count += 1;
        st.run_queue.push_back(id);
        self.metrics.add(Counter::SessionsOpened, 1);
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
            if now >= deadline || st.stopping {
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
            let wake = slot.run == RunState::Parked && slot.queue.len() < self.cfg.queue_capacity;
            if wake {
                slot.run = RunState::Queued;
            }
            let finished = slot.run == RunState::Done && slot.queue.is_empty();
            (events, finished, wake)
        };
        self.gauges
            .queued
            .fetch_sub(events.len(), Ordering::Relaxed);
        if wake {
            st.run_queue.push_back(id);
        }
        drop(st);
        if wake {
            self.work.notify_one();
        }
        self.metrics
            .add(Counter::EventsDelivered, events.len() as u64);
        Ok(EventBatch { events, finished })
    }

    /// Closes a session, recycling its decode buffers and releasing its
    /// open-gauge slot.
    pub(crate) fn close_session(&self, id: u64) -> Result<(), ServeError> {
        let mut st = self.lock_state();
        if !st
            .sessions
            .get(&id)
            .is_some_and(|s| !s.closed && !s.detached)
        {
            return Err(ServeError::UnknownSession(id));
        }
        self.dispose_locked(&mut st, id);
        self.metrics.add(Counter::SessionsClosed, 1);
        Ok(())
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

    /// Reclaims one expired detached session. Returns false when the
    /// session already ended another way.
    pub(crate) fn reap_detached(&self, id: u64) -> bool {
        let mut st = self.lock_state();
        if !st.sessions.get(&id).is_some_and(|s| s.detached) {
            return false;
        }
        self.dispose_locked(&mut st, id);
        true
    }

    /// Sessions on this shard not yet closed (drain accounting).
    pub(crate) fn unclosed_count(&self) -> u64 {
        self.lock_state()
            .sessions
            .values()
            .filter(|s| !s.closed)
            .count() as u64
    }

    /// Blocks until no session on this shard is still decoding (or the
    /// shard stops); false when `deadline` passes first. Every way out of
    /// decoding wakes `delivery`: a slice published `Done` or failed, a
    /// force-fail, and the close or reap of an undone session.
    pub(crate) fn wait_decoded(&self, deadline: Instant) -> bool {
        let mut st = self.lock_state();
        loop {
            let undone = st
                .sessions
                .values()
                .any(|s| !s.closed && s.run != RunState::Done);
            if !undone || st.stopping {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            st = match self.delivery.wait_timeout(st, deadline - now) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
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
                self.metrics.add(Counter::SessionsForceFailed, 1);
                force_failed += 1;
            }
        }
        drop(st);
        self.delivery.notify_all();
        force_failed
    }

    /// Adds this shard's open sessions to `per`, by the id of the version
    /// each one pins.
    pub(crate) fn count_pins(&self, per: &mut BTreeMap<u64, u64>) {
        for slot in self.lock_state().sessions.values().filter(|s| !s.closed) {
            *per.entry(slot.version.id).or_insert(0) += 1;
        }
    }

    /// Updates this shard's live replica after a version transition
    /// (promote/rollback/trip), clearing the free-list: its states belong
    /// to the old version's buffer geometry.
    pub(crate) fn set_live(&self, live: Arc<Version>) {
        let mut st = self.lock_state();
        st.live = live;
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
/// returns that version.
fn next_work_batch(
    shard: &ShardShared,
    out: &mut Vec<(u64, SessionDecoder, usize)>,
) -> Option<Arc<Version>> {
    out.clear();
    let mut st = shard.lock_state();
    loop {
        if st.stopping {
            return None;
        }
        let share = (st.run_queue.len() / shard.workers.max(1)).max(1);
        let cap = shard.cfg.batch_max.min(share);
        let mut version: Option<Arc<Version>> = None;
        let mut deferred: Vec<u64> = Vec::new();
        while out.len() < cap {
            let Some(id) = st.run_queue.pop_front() else {
                break;
            };
            if let Some(slot) = st.sessions.get_mut(&id) {
                if slot.run == RunState::Queued && !slot.closed && !slot.failed {
                    if let Some(v) = &version {
                        if !Arc::ptr_eq(v, &slot.version) {
                            deferred.push(id);
                            continue;
                        }
                    }
                    if let Some(decoder) = slot.decoder.take() {
                        slot.run = RunState::Running;
                        version.get_or_insert_with(|| Arc::clone(&slot.version));
                        let room = shard.cfg.queue_capacity.saturating_sub(slot.queue.len());
                        out.push((id, decoder, room.min(shard.cfg.slice_budget)));
                    }
                }
            }
        }
        // Other-version sessions go back to the head in original order.
        for id in deferred.into_iter().rev() {
            st.run_queue.push_front(id);
        }
        if version.is_some() {
            let more = !st.run_queue.is_empty();
            drop(st);
            if more {
                shard.work.notify_one();
            }
            return version;
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

/// Publishes one batch entry's slice under the shard lock, dropping the
/// version pin of any session it disposes: vanished (defensive; close
/// defers removal) and close-pending sessions recycle
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
    version: &Arc<Version>,
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
    // Keyed by identity, not id (a released version's id can be promoted
    // again while sessions still pin the old one) and held weakly, so the
    // cache never pins a version; an entry goes with its version — steady
    // state is a single entry.
    let mut decoders: Vec<(Weak<Version>, BatchDecoder)> = Vec::new();
    let mut work: Vec<(u64, SessionDecoder, usize)> = Vec::with_capacity(shard.cfg.batch_max);
    let mut entries: Vec<BatchEntry> = Vec::with_capacity(shard.cfg.batch_max);
    let mut outcomes: Vec<RoundOutcome> = Vec::with_capacity(shard.cfg.batch_max);
    // Per-round index vectors and per-entry event buffers, reused across
    // rounds and slices: steady state allocates neither.
    let mut live: Vec<usize> = Vec::with_capacity(shard.cfg.batch_max);
    let mut live_ids: Vec<u64> = Vec::with_capacity(shard.cfg.batch_max);
    let mut spare_bufs: Vec<Vec<DecodedEvent>> = Vec::with_capacity(shard.cfg.batch_max);
    let mut slice_idx: u64 = 0;
    while let Some(version) = next_work_batch(shard, &mut work) {
        let t0 = Instant::now();
        let model = &version.model;
        decoders.retain(|(v, _)| v.strong_count() > 0);
        let k = match decoders
            .iter()
            .position(|(v, _)| std::ptr::eq(v.as_ptr(), Arc::as_ptr(&version)))
        {
            Some(k) => k,
            None => {
                let bd = BatchDecoder::new(model, shard.cfg.batch_max);
                decoders.push((Arc::downgrade(&version), bd));
                decoders.len() - 1
            }
        };
        let bd = &mut decoders[k].1;
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
                    model,
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
                                let emitted =
                                    e.decoder.as_ref().map(|d| d.events_emitted()).unwrap_or(0);
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
                                    shard.metrics.add(Counter::DivergenceTrips, 1);
                                } else {
                                    e.buf.push(ev);
                                    produced += 1;
                                }
                            }
                            RoundOutcome::Finished => entries[k].done = true,
                            RoundOutcome::Panicked(reason) => {
                                entries[k].decoder = None;
                                entries[k].panic = Some(reason);
                                shard.metrics.add(Counter::WorkerPanics, 1);
                            }
                        }
                    }
                    shard.metrics.record_batch_round(rows as u64, produced);
                }
                Err(payload) => {
                    let reason = format!("worker panic: {}", panic_message(payload.as_ref()));
                    shard.metrics.add(Counter::WorkerPanics, 1);
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
            spare_bufs.push(publish_entry(shard, &mut st, &version, e));
        }
        drop(st);
        shard.delivery.notify_all();
        if tripped {
            // Strictly after dropping the shard lock: the uplink takes
            // the engine lifecycle lock, which nests *outside* shard
            // locks.
            if let Some(up) = shard.uplink.upgrade() {
                up.trip_divergence(&version);
            }
        }
    }
}
