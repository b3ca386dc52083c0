//! Serving metrics: lock-free counters plus a log₂-bucketed latency
//! histogram for per-slice decode latency. Everything is atomics, so
//! workers record without touching the engine lock, and a `/stats`
//! snapshot is a consistent-enough read for monitoring (counters may be a
//! few events apart — that is fine for operational visibility).

#![deny(clippy::unwrap_used)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of log₂ buckets: covers 0 µs to ~2⁴⁶ µs (≈ 2 years) per slice.
const BUCKETS: usize = 48;

/// A log₂-bucketed latency histogram over microseconds.
///
/// Bucket `i` holds samples whose bit length is `i` (so bucket 0 is `0 µs`,
/// bucket 1 is `1 µs`, bucket 11 is `1024..2047 µs`, …). Quantiles are
/// reported as the upper bound of the bucket containing the target rank —
/// at most 2× off, which is plenty for p50/p99 monitoring and keeps
/// recording to one atomic increment.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    pub fn record(&self, d: Duration) {
        self.record_value(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one raw value (the histogram is unit-agnostic: slice
    /// latency uses microseconds, batch occupancy uses session counts).
    pub fn record_value(&self, v: u64) {
        let idx = (64 - v.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile in microseconds (upper bucket bound); 0 if empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.quantile(q)
    }

    /// Adds `other`'s samples bucket-wise (sharded-engine merge: the
    /// union histogram of per-shard histograms is exact, because buckets
    /// are positionally identical).
    pub fn absorb(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// The `q`-quantile in the histogram's raw unit (upper bucket bound);
    /// 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper bound of bucket `idx`: largest value with that bit
                // length (bucket 0 holds only 0).
                return if idx == 0 { 0 } else { (1u64 << idx) - 1 };
            }
        }
        (1u64 << (BUCKETS - 1)) - 1
    }
}

/// Lock-free serving counters, owned by the engine and shared with every
/// worker and protocol thread.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    sessions_opened: AtomicU64,
    sessions_shed: AtomicU64,
    sessions_closed: AtomicU64,
    sessions_failed: AtomicU64,
    sessions_detached: AtomicU64,
    sessions_reattached: AtomicU64,
    sessions_expired: AtomicU64,
    sessions_force_failed: AtomicU64,
    worker_panics: AtomicU64,
    events_generated: AtomicU64,
    events_delivered: AtomicU64,
    slices: AtomicU64,
    slice_latency: LatencyHistogram,
    /// Events decoded through the batched (packed-GEMM) path.
    batched_tokens: AtomicU64,
    /// Batched decode rounds executed (one packed forward pass each).
    batch_rounds: AtomicU64,
    /// Largest GEMM row count observed in one batched round.
    batch_peak: AtomicU64,
    /// Log₂-bucketed histogram of GEMM rows per batched round.
    batch_occupancy: LatencyHistogram,
    /// Model versions promoted to live since start.
    versions_published: AtomicU64,
    /// Rollbacks (manual verb or divergence trip-wire) since start.
    versions_rolled_back: AtomicU64,
    /// Candidate versions quarantined by the validation gate since start.
    versions_quarantined: AtomicU64,
    /// Demoted versions freed after their last pinned session ended.
    versions_retired: AtomicU64,
    /// Serve-time divergence trip-wire firings since start.
    divergence_trips: AtomicU64,
    /// Fine-tune jobs currently running (0 or 1; gauge).
    finetunes_running: AtomicU64,
    /// Fine-tune jobs that published successfully since start.
    finetunes_completed: AtomicU64,
    /// Fine-tune jobs that failed (divergence, panic, rejected publish)
    /// since start.
    finetunes_failed: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// The point-in-time lock-guarded gauges the engine supplies to
/// [`Metrics::snapshot`]; everything else in the snapshot comes from the
/// merged atomic counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotGauges {
    /// Sessions currently open engine-wide.
    pub sessions_open: usize,
    /// Events queued across all sessions.
    pub queued_events: usize,
    /// Recycled decode states summed over shard free-lists.
    pub free_states: usize,
    /// Decode workers across all shards.
    pub workers: usize,
    /// The model version new sessions open on.
    pub live_version: u64,
}

impl Metrics {
    /// Fresh metrics; the uptime clock starts now.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            sessions_opened: AtomicU64::new(0),
            sessions_shed: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            sessions_failed: AtomicU64::new(0),
            sessions_detached: AtomicU64::new(0),
            sessions_reattached: AtomicU64::new(0),
            sessions_expired: AtomicU64::new(0),
            sessions_force_failed: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            events_generated: AtomicU64::new(0),
            events_delivered: AtomicU64::new(0),
            slices: AtomicU64::new(0),
            slice_latency: LatencyHistogram::new(),
            batched_tokens: AtomicU64::new(0),
            batch_rounds: AtomicU64::new(0),
            batch_peak: AtomicU64::new(0),
            batch_occupancy: LatencyHistogram::new(),
            versions_published: AtomicU64::new(0),
            versions_rolled_back: AtomicU64::new(0),
            versions_quarantined: AtomicU64::new(0),
            versions_retired: AtomicU64::new(0),
            divergence_trips: AtomicU64::new(0),
            finetunes_running: AtomicU64::new(0),
            finetunes_completed: AtomicU64::new(0),
            finetunes_failed: AtomicU64::new(0),
        }
    }

    /// Counts a model version promoted to live.
    pub fn inc_version_published(&self) {
        self.versions_published.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a rollback (manual or trip-wire).
    pub fn inc_version_rolled_back(&self) {
        self.versions_rolled_back.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a candidate quarantined by the validation gate.
    pub fn inc_version_quarantined(&self) {
        self.versions_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a released version freed when its last reference dropped.
    pub fn inc_version_retired(&self) {
        self.versions_retired.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a divergence trip-wire firing.
    pub fn inc_divergence_trip(&self) {
        self.divergence_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a fine-tune job as running (gauge up).
    pub fn finetune_started(&self) {
        self.finetunes_running.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the running fine-tune job as published (gauge down).
    pub fn finetune_completed(&self) {
        self.finetunes_running.fetch_sub(1, Ordering::Relaxed);
        self.finetunes_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the running fine-tune job as failed (gauge down).
    pub fn finetune_failed(&self) {
        self.finetunes_running.fetch_sub(1, Ordering::Relaxed);
        self.finetunes_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batched decode round: `rows` sessions went through the
    /// packed GEMM and `events` events were produced (GEMM rows plus any
    /// bootstrap events, which skip the forward pass).
    pub fn record_batch_round(&self, rows: u64, events: u64) {
        self.batch_rounds.fetch_add(1, Ordering::Relaxed);
        self.batched_tokens.fetch_add(events, Ordering::Relaxed);
        if rows > 0 {
            // Peak first: a snapshot clamps the quantiles to it.
            self.batch_peak.fetch_max(rows, Ordering::Relaxed);
            self.batch_occupancy.record_value(rows);
        }
    }

    /// Records one scheduling slice: its wall-clock latency and the number
    /// of events it decoded.
    pub fn record_slice(&self, latency: Duration, events: u64) {
        self.slices.fetch_add(1, Ordering::Relaxed);
        self.events_generated.fetch_add(events, Ordering::Relaxed);
        self.slice_latency.record(latency);
    }

    /// Counts an admitted `open_session`.
    pub fn inc_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a shed `open_session`.
    pub fn inc_shed(&self) {
        self.sessions_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a closed session.
    pub fn inc_closed(&self) {
        self.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts events handed to a consumer by `next_events`.
    pub fn add_delivered(&self, n: u64) {
        self.events_delivered.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a session terminated by a contained failure (worker panic or
    /// drain force-fail).
    pub fn inc_failed(&self) {
        self.sessions_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a session parked under a detach token.
    pub fn add_detached(&self, n: u64) {
        self.sessions_detached.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a session resumed from a detach token.
    pub fn add_reattached(&self, n: u64) {
        self.sessions_reattached.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a parked session reclaimed because its token's TTL expired.
    pub fn add_expired(&self, n: u64) {
        self.sessions_expired.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a session force-failed at a drain deadline.
    pub fn inc_force_failed(&self) {
        self.sessions_force_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a worker panic that was contained by `catch_unwind`.
    pub fn inc_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `other`'s counters into `self` (the sharded engine's `/stats`
    /// merge: counter sums are exact, histograms merge bucket-wise, and
    /// `batch_peak` takes the max across shards).
    pub fn absorb(&self, other: &Metrics) {
        fn add(dst: &AtomicU64, src: &AtomicU64) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        add(&self.sessions_opened, &other.sessions_opened);
        add(&self.sessions_shed, &other.sessions_shed);
        add(&self.sessions_closed, &other.sessions_closed);
        add(&self.sessions_failed, &other.sessions_failed);
        add(&self.sessions_detached, &other.sessions_detached);
        add(&self.sessions_reattached, &other.sessions_reattached);
        add(&self.sessions_expired, &other.sessions_expired);
        add(&self.sessions_force_failed, &other.sessions_force_failed);
        add(&self.worker_panics, &other.worker_panics);
        add(&self.events_generated, &other.events_generated);
        add(&self.events_delivered, &other.events_delivered);
        add(&self.slices, &other.slices);
        self.slice_latency.absorb(&other.slice_latency);
        add(&self.batched_tokens, &other.batched_tokens);
        add(&self.batch_rounds, &other.batch_rounds);
        self.batch_peak
            .fetch_max(other.batch_peak.load(Ordering::Relaxed), Ordering::Relaxed);
        self.batch_occupancy.absorb(&other.batch_occupancy);
        add(&self.versions_published, &other.versions_published);
        add(&self.versions_rolled_back, &other.versions_rolled_back);
        add(&self.versions_quarantined, &other.versions_quarantined);
        add(&self.versions_retired, &other.versions_retired);
        add(&self.divergence_trips, &other.divergence_trips);
        add(&self.finetunes_running, &other.finetunes_running);
        add(&self.finetunes_completed, &other.finetunes_completed);
        add(&self.finetunes_failed, &other.finetunes_failed);
    }

    /// Builds the engine-wide view of `base` (whose uptime clock is kept)
    /// plus every shard's counters.
    pub fn merged<'a>(base: &Metrics, others: impl IntoIterator<Item = &'a Metrics>) -> Metrics {
        let out = Metrics {
            started: base.started,
            ..Metrics::new()
        };
        out.absorb(base);
        for m in others {
            out.absorb(m);
        }
        out
    }

    /// Builds a snapshot; the engine supplies the lock-guarded gauges
    /// (including the live version id, the per-version pinned-session
    /// counts, and each shard's `(open sessions, runnable sessions)`
    /// occupancy pair for the imbalance stats).
    pub fn snapshot(
        &self,
        gauges: SnapshotGauges,
        sessions_per_version: &[(u64, u64)],
        shard_occupancy: &[(u64, u64)],
    ) -> StatsSnapshot {
        let SnapshotGauges {
            sessions_open,
            queued_events,
            free_states,
            workers,
            live_version,
        } = gauges;
        let uptime = self.started.elapsed().as_secs_f64();
        let generated = self.events_generated.load(Ordering::Relaxed);
        let batch_peak = self.batch_peak.load(Ordering::Relaxed);
        StatsSnapshot {
            uptime_secs: uptime,
            workers,
            sessions_open: sessions_open as u64,
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_shed: self.sessions_shed.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            sessions_failed: self.sessions_failed.load(Ordering::Relaxed),
            sessions_detached: self.sessions_detached.load(Ordering::Relaxed),
            sessions_reattached: self.sessions_reattached.load(Ordering::Relaxed),
            sessions_expired: self.sessions_expired.load(Ordering::Relaxed),
            sessions_force_failed: self.sessions_force_failed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            events_generated: generated,
            events_delivered: self.events_delivered.load(Ordering::Relaxed),
            events_per_sec: if uptime > 0.0 {
                generated as f64 / uptime
            } else {
                0.0
            },
            queued_events: queued_events as u64,
            free_states: free_states as u64,
            slices: self.slices.load(Ordering::Relaxed),
            slice_p50_us: self.slice_latency.quantile_us(0.50),
            slice_p99_us: self.slice_latency.quantile_us(0.99),
            batched_tokens: self.batched_tokens.load(Ordering::Relaxed),
            sequential_tokens: 0,
            batch_rounds: self.batch_rounds.load(Ordering::Relaxed),
            // The histogram reports a log₂ bucket's upper edge, which can
            // lie above every sample in the bucket; the exact peak bounds it.
            batch_p50: self.batch_occupancy.quantile(0.50).min(batch_peak),
            batch_p99: self.batch_occupancy.quantile(0.99).min(batch_peak),
            batch_peak,
            live_version,
            sessions_per_version: sessions_per_version
                .iter()
                .map(|&(version, sessions)| VersionSessions { version, sessions })
                .collect(),
            versions_published: self.versions_published.load(Ordering::Relaxed),
            versions_rolled_back: self.versions_rolled_back.load(Ordering::Relaxed),
            versions_quarantined: self.versions_quarantined.load(Ordering::Relaxed),
            versions_retired: self.versions_retired.load(Ordering::Relaxed),
            divergence_trips: self.divergence_trips.load(Ordering::Relaxed),
            finetunes_running: self.finetunes_running.load(Ordering::Relaxed),
            finetunes_completed: self.finetunes_completed.load(Ordering::Relaxed),
            finetunes_failed: self.finetunes_failed.load(Ordering::Relaxed),
            shards: shard_occupancy.len() as u64,
            shard_sessions_max: shard_occupancy.iter().map(|&(s, _)| s).max().unwrap_or(0),
            shard_sessions_min: shard_occupancy.iter().map(|&(s, _)| s).min().unwrap_or(0),
            shard_runnable_max: shard_occupancy.iter().map(|&(_, r)| r).max().unwrap_or(0),
            shard_runnable_min: shard_occupancy.iter().map(|&(_, r)| r).min().unwrap_or(0),
        }
    }
}

/// Pinned-session count for one installed model version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VersionSessions {
    /// The installed version id.
    pub version: u64,
    /// Open sessions pinned to it.
    pub sessions: u64,
}

/// A point-in-time view of the serving metrics, as reported by the
/// `stats` protocol verb and the library `ServeHandle::stats`.
///
/// No longer `Copy` since the model-lifecycle fields landed (the
/// per-version session table is heap data); clone it explicitly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Seconds since the engine started.
    pub uptime_secs: f64,
    /// Decode worker threads.
    pub workers: usize,
    /// Sessions currently open.
    pub sessions_open: u64,
    /// Sessions admitted since start.
    pub sessions_opened: u64,
    /// Sessions shed by admission control since start.
    pub sessions_shed: u64,
    /// Sessions closed since start.
    pub sessions_closed: u64,
    /// Sessions terminated by a contained failure (worker panic or drain
    /// force-fail) since start.
    pub sessions_failed: u64,
    /// Sessions parked under a detach token since start.
    pub sessions_detached: u64,
    /// Sessions resumed from a detach token since start.
    pub sessions_reattached: u64,
    /// Parked sessions reclaimed by token-TTL expiry since start.
    pub sessions_expired: u64,
    /// Sessions force-failed at a drain deadline since start.
    pub sessions_force_failed: u64,
    /// Worker panics contained by `catch_unwind` since start.
    pub worker_panics: u64,
    /// Events decoded by workers since start.
    pub events_generated: u64,
    /// Events handed to consumers since start.
    pub events_delivered: u64,
    /// Decoded events per second of uptime.
    pub events_per_sec: f64,
    /// Events currently buffered in per-session queues.
    pub queued_events: u64,
    /// Recycled `DecodeState`s currently in the free-list.
    pub free_states: u64,
    /// Scheduling slices executed since start.
    pub slices: u64,
    /// Median decode-slice latency (µs, log₂-bucket upper bound).
    pub slice_p50_us: u64,
    /// 99th-percentile decode-slice latency (µs, log₂-bucket upper bound).
    pub slice_p99_us: u64,
    /// Events decoded through the batched (packed-GEMM) path since start.
    pub batched_tokens: u64,
    /// Always 0: the one-session-at-a-time worker loop that counted here
    /// is gone (every event is a batched token; `batch_max = 1` is the
    /// sequential case). The field stays for `crates/cpt-ledger`, its last
    /// reader, and for `/stats` consumers that assert it is zero.
    pub sequential_tokens: u64,
    /// Batched decode rounds (one packed forward pass each) since start.
    pub batch_rounds: u64,
    /// Median GEMM rows per batched round (log₂-bucket upper bound, never
    /// above `batch_peak`).
    pub batch_p50: u64,
    /// 99th-percentile GEMM rows per batched round (log₂-bucket upper
    /// bound, never above `batch_peak`).
    pub batch_p99: u64,
    /// Largest GEMM row count observed in one batched round.
    pub batch_peak: u64,
    /// The model version new sessions currently open on (1 when serving
    /// without a registry).
    pub live_version: u64,
    /// Installed versions and their pinned-session counts, sorted by id.
    pub sessions_per_version: Vec<VersionSessions>,
    /// Model versions promoted to live since start.
    pub versions_published: u64,
    /// Rollbacks (manual verb or divergence trip-wire) since start.
    pub versions_rolled_back: u64,
    /// Candidate versions quarantined by the validation gate since start.
    pub versions_quarantined: u64,
    /// Demoted versions freed after their last pinned session ended.
    pub versions_retired: u64,
    /// Serve-time divergence trip-wire firings since start.
    pub divergence_trips: u64,
    /// Fine-tune jobs currently running (0 or 1).
    pub finetunes_running: u64,
    /// Fine-tune jobs that published successfully since start.
    pub finetunes_completed: u64,
    /// Fine-tune jobs that failed since start, leaving the serving model
    /// untouched.
    pub finetunes_failed: u64,
    /// Engine shards (0 in snapshots recorded before sharding).
    pub shards: u64,
    /// Open sessions on the most-loaded shard (shard-imbalance stat).
    pub shard_sessions_max: u64,
    /// Open sessions on the least-loaded shard.
    pub shard_sessions_min: u64,
    /// Run-queue depth of the deepest shard at snapshot time.
    pub shard_runnable_max: u64,
    /// Run-queue depth of the shallowest shard at snapshot time.
    pub shard_runnable_min: u64,
}

// The `stats` verb's JSON form (`cptgen ctl -o`, `loadgen -o`).
cpt_trace::json_struct!(VersionSessions { version, sessions });
cpt_trace::json_struct!(StatsSnapshot {
    uptime_secs,
    workers,
    sessions_open,
    sessions_opened,
    sessions_shed,
    sessions_closed,
    sessions_failed,
    sessions_detached,
    sessions_reattached,
    sessions_expired,
    sessions_force_failed,
    worker_panics,
    events_generated,
    events_delivered,
    events_per_sec,
    queued_events,
    free_states,
    slices,
    slice_p50_us,
    slice_p99_us,
    batched_tokens,
    sequential_tokens,
    batch_rounds,
    batch_p50,
    batch_p99,
    batch_peak,
    live_version,
    sessions_per_version,
    versions_published,
    versions_rolled_back,
    versions_quarantined,
    versions_retired,
    divergence_trips,
    finetunes_running,
    finetunes_completed,
    finetunes_failed,
    shards,
    shard_sessions_max,
    shard_sessions_min,
    shard_runnable_max,
    shard_runnable_min,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bucket_correctly() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram reports 0");
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket 4 (8..15)
        }
        h.record(Duration::from_micros(5_000)); // bucket 13 (4096..8191)
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.5), 15);
        assert_eq!(h.quantile_us(0.99), 15);
        assert_eq!(h.quantile_us(1.0), 8191);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new();
        m.inc_opened();
        m.inc_opened();
        m.inc_shed();
        m.inc_closed();
        m.record_slice(Duration::from_micros(100), 7);
        m.add_delivered(5);
        m.inc_failed();
        m.inc_worker_panic();
        m.add_detached(2);
        m.add_reattached(1);
        m.add_expired(1);
        m.inc_force_failed();
        m.record_batch_round(5, 6);
        m.record_batch_round(0, 1); // all-bootstrap round: no GEMM rows
        m.inc_version_published();
        m.inc_version_rolled_back();
        m.inc_version_quarantined();
        m.inc_version_retired();
        m.inc_divergence_trip();
        m.finetune_started();
        m.finetune_completed();
        m.finetune_started();
        m.finetune_failed();
        let s = m.snapshot(
            SnapshotGauges {
                sessions_open: 1,
                queued_events: 2,
                free_states: 3,
                workers: 4,
                live_version: 7,
            },
            &[(5, 0), (7, 1)],
            &[(9, 2), (3, 0)],
        );
        assert_eq!(s.sessions_failed, 1);
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.sessions_detached, 2);
        assert_eq!(s.sessions_reattached, 1);
        assert_eq!(s.sessions_expired, 1);
        assert_eq!(s.sessions_force_failed, 1);
        assert_eq!(s.sessions_opened, 2);
        assert_eq!(s.sessions_shed, 1);
        assert_eq!(s.sessions_closed, 1);
        assert_eq!(s.events_generated, 7);
        assert_eq!(s.events_delivered, 5);
        assert_eq!(s.sessions_open, 1);
        assert_eq!(s.queued_events, 2);
        assert_eq!(s.free_states, 3);
        assert_eq!(s.workers, 4);
        assert_eq!(s.slices, 1);
        assert!(s.slice_p50_us >= 100);
        assert_eq!(s.batched_tokens, 7);
        assert_eq!(s.sequential_tokens, 0);
        assert_eq!(s.batch_rounds, 2);
        assert_eq!(s.batch_peak, 5);
        // One occupancy sample of 5 → bucket 3, upper bound 7, clamped to
        // the observed peak.
        assert_eq!(s.batch_p50, 5);
        assert_eq!(s.batch_p99, 5);
        assert_eq!(s.live_version, 7);
        assert_eq!(
            s.sessions_per_version,
            vec![
                VersionSessions {
                    version: 5,
                    sessions: 0
                },
                VersionSessions {
                    version: 7,
                    sessions: 1
                },
            ]
        );
        assert_eq!(s.versions_published, 1);
        assert_eq!(s.versions_rolled_back, 1);
        assert_eq!(s.versions_quarantined, 1);
        assert_eq!(s.versions_retired, 1);
        assert_eq!(s.divergence_trips, 1);
        assert_eq!(s.finetunes_running, 0, "gauge returns to zero");
        assert_eq!(s.finetunes_completed, 1);
        assert_eq!(s.finetunes_failed, 1);
        assert_eq!(s.shards, 2);
        assert_eq!(s.shard_sessions_max, 9);
        assert_eq!(s.shard_sessions_min, 3);
        assert_eq!(s.shard_runnable_max, 2);
        assert_eq!(s.shard_runnable_min, 0);
    }

    #[test]
    fn merged_metrics_sum_counters_and_max_peaks() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.inc_opened();
        a.record_slice(Duration::from_micros(10), 4);
        a.record_batch_round(3, 3);
        b.inc_opened();
        b.inc_opened();
        b.record_slice(Duration::from_micros(10), 6);
        b.record_batch_round(8, 8);
        let engine = Metrics::new();
        engine.inc_shed();
        let merged = Metrics::merged(&engine, [&a, &b]);
        let s = merged.snapshot(
            SnapshotGauges {
                workers: 2,
                live_version: 1,
                ..SnapshotGauges::default()
            },
            &[],
            &[],
        );
        assert_eq!(s.sessions_opened, 3);
        assert_eq!(s.sessions_shed, 1);
        assert_eq!(s.events_generated, 10);
        assert_eq!(s.slices, 2);
        assert_eq!(s.batch_rounds, 2);
        assert_eq!(s.batched_tokens, 11);
        assert_eq!(s.batch_peak, 8, "peak is a max, not a sum");
        assert_eq!(s.shards, 0, "no occupancy supplied");
    }

    #[test]
    fn batch_quantiles_never_exceed_peak() {
        let snapshot_of = |rounds: &[u64]| {
            let m = Metrics::new();
            for &rows in rounds {
                m.record_batch_round(rows, rows);
            }
            let gauges = SnapshotGauges {
                sessions_open: 0,
                queued_events: 0,
                free_states: 0,
                workers: 1,
                live_version: 1,
            };
            (
                m.batch_occupancy.quantile(0.99),
                m.snapshot(gauges, &[], &[]),
            )
        };
        // The shape of the committed serve_steady baseline: rounds of up
        // to 29 rows land in the 16..=31 bucket, whose upper edge is 31.
        let (raw_p99, s) = snapshot_of(&[3, 7, 7, 20, 29, 29, 29]);
        assert_eq!(raw_p99, 31, "the histogram itself is unchanged");
        assert_eq!(s.batch_peak, 29);
        assert_eq!(s.batch_p99, 29);
        assert_eq!(
            s.batch_p50, 29,
            "median sample 20 reports its bucket edge 31, clamped"
        );
        // A quantile below the peak stays what the histogram says.
        let (_, s) = snapshot_of(&[2, 2, 2, 29]);
        assert_eq!(s.batch_p50, 3);
        assert_eq!(s.batch_p99, 29);
    }
}
