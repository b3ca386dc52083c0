//! Serving metrics: lock-free counters plus a log₂-bucketed latency
//! histogram for per-slice decode latency. Everything is atomics, so
//! workers record without touching the engine lock, and a `/stats`
//! snapshot is a consistent-enough read for monitoring (counters may be a
//! few events apart — that is fine for operational visibility). The
//! snapshot's fields, and which of them are counters, are one list below.

#![deny(clippy::unwrap_used)]

use crate::protocol::wire::wire_struct;
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
        add_all(&self.buckets, &other.buckets);
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

/// Declares [`StatsSnapshot`] from one field list: each entry is the
/// field's docs, name and type, and `[Variant]` before a name marks a
/// counter that [`Metrics`] keeps in one atomic slot and sums across
/// shards. From the list come the struct, its JSON form (`cptgen ctl -o`,
/// `loadgen -o`), its `stats` wire body (`wire_struct!`, every field in
/// declaration order), and [`Counter`], so a new stat is one entry here
/// plus the call that sets it.
macro_rules! stats_snapshot {
    ($(
        $(#[doc = $doc:literal])*
        $([$counter:ident])? $name:ident: $ty:ty,
    )*) => {
        /// A point-in-time view of the serving metrics, as reported by the
        /// `stats` protocol verb and the library `ServeHandle::stats`.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct StatsSnapshot {
            $($(#[doc = $doc])* pub $name: $ty,)*
        }

        cpt_trace::json_struct!(StatsSnapshot { $($name),* });

        wire_struct!(StatsSnapshot { $($name),* });

        /// The summed counters, one per `[Variant]` entry of the list.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Counter {
            $($($counter,)?)*
        }

        impl Counter {
            const COUNT: usize = [$($(Counter::$counter,)?)*].len();
        }

        impl StatsSnapshot {
            /// The counters in `counts` (indexed by [`Counter`]), every
            /// other field zero.
            fn from_counters(counts: [u64; Counter::COUNT]) -> Self {
                StatsSnapshot {
                    $($($name: counts[Counter::$counter as usize],)?)*
                    ..Default::default()
                }
            }
        }
    };
}

stats_snapshot! {
    /// Seconds since the engine started.
    uptime_secs: f64,
    /// Decode worker threads.
    workers: usize,
    /// Sessions currently open.
    sessions_open: u64,
    /// Sessions admitted since start.
    [SessionsOpened] sessions_opened: u64,
    /// Sessions shed by admission control since start.
    [SessionsShed] sessions_shed: u64,
    /// Sessions closed since start.
    [SessionsClosed] sessions_closed: u64,
    /// Sessions terminated by a contained failure (worker panic or drain
    /// force-fail) since start.
    [SessionsFailed] sessions_failed: u64,
    /// Sessions parked under a detach token since start.
    [SessionsDetached] sessions_detached: u64,
    /// Sessions resumed from a detach token since start.
    [SessionsReattached] sessions_reattached: u64,
    /// Parked sessions reclaimed by token-TTL expiry since start.
    [SessionsExpired] sessions_expired: u64,
    /// Sessions force-failed at a drain deadline since start.
    [SessionsForceFailed] sessions_force_failed: u64,
    /// Worker panics contained by `catch_unwind` since start.
    [WorkerPanics] worker_panics: u64,
    /// Events decoded by workers since start.
    [EventsGenerated] events_generated: u64,
    /// Events handed to consumers since start.
    [EventsDelivered] events_delivered: u64,
    /// Decoded events per second of uptime.
    events_per_sec: f64,
    /// Events currently buffered in per-session queues.
    queued_events: u64,
    /// Recycled `DecodeState`s currently in the free-list.
    free_states: u64,
    /// Scheduling slices executed since start.
    [Slices] slices: u64,
    /// Median decode-slice latency (µs, log₂-bucket upper bound).
    slice_p50_us: u64,
    /// 99th-percentile decode-slice latency (µs, log₂-bucket upper bound).
    slice_p99_us: u64,
    /// Events decoded through the batched (packed-GEMM) path since start
    /// (GEMM rows plus bootstrap events, which skip the forward pass).
    [BatchedTokens] batched_tokens: u64,
    /// Always 0: the one-session-at-a-time worker loop that counted here
    /// is gone (every event is a batched token; `batch_max = 1` is the
    /// sequential case). The field stays for `crates/cpt-ledger`, its last
    /// reader, and for `/stats` consumers that assert it is zero.
    sequential_tokens: u64,
    /// Batched decode rounds (one packed forward pass each) since start.
    [BatchRounds] batch_rounds: u64,
    /// Median GEMM rows per batched round (log₂-bucket upper bound, never
    /// above `batch_peak`).
    batch_p50: u64,
    /// 99th-percentile GEMM rows per batched round (log₂-bucket upper
    /// bound, never above `batch_peak`).
    batch_p99: u64,
    /// Largest GEMM row count observed in one batched round.
    batch_peak: u64,
    /// The model version new sessions currently open on (1 when serving
    /// without a registry).
    live_version: u64,
    /// Installed versions and their pinned-session counts, sorted by id.
    sessions_per_version: Vec<VersionSessions>,
    /// Model versions promoted to live since start.
    [VersionsPublished] versions_published: u64,
    /// Rollbacks (manual verb or divergence trip-wire) since start.
    [VersionsRolledBack] versions_rolled_back: u64,
    /// Candidate versions quarantined by the validation gate since start.
    [VersionsQuarantined] versions_quarantined: u64,
    /// Demoted versions freed after their last pinned session ended.
    [VersionsRetired] versions_retired: u64,
    /// Serve-time divergence trip-wire firings since start.
    [DivergenceTrips] divergence_trips: u64,
    /// Engine shards.
    shards: u64,
    /// Open sessions on the most-loaded shard (shard-imbalance stat).
    shard_sessions_max: u64,
    /// Open sessions on the least-loaded shard.
    shard_sessions_min: u64,
    /// Run-queue depth of the deepest shard at snapshot time.
    shard_runnable_max: u64,
    /// Run-queue depth of the shallowest shard at snapshot time.
    shard_runnable_min: u64,
}

/// Pinned-session count for one model version the engine holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VersionSessions {
    /// The version id.
    pub version: u64,
    /// Open sessions pinned to it.
    pub sessions: u64,
}

cpt_trace::json_struct!(VersionSessions { version, sessions });
wire_struct!(VersionSessions { version, sessions });

/// Adds each of `src`'s values into the matching slot of `dst`.
fn add_all(dst: &[AtomicU64], src: &[AtomicU64]) {
    for (mine, theirs) in dst.iter().zip(src) {
        let n = theirs.load(Ordering::Relaxed);
        if n > 0 {
            mine.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Lock-free serving counters, owned by the engine and shared with every
/// worker and protocol thread.
#[derive(Debug)]
pub(crate) struct Metrics {
    started: Instant,
    /// The summed counters, indexed by [`Counter`].
    counters: [AtomicU64; Counter::COUNT],
    /// Largest GEMM row count observed in one batched round.
    batch_peak: AtomicU64,
    slice_latency: LatencyHistogram,
    /// Log₂-bucketed histogram of GEMM rows per batched round.
    batch_occupancy: LatencyHistogram,
}

/// The point-in-time lock-guarded gauges the engine supplies to
/// [`Metrics::snapshot`]; everything else in the snapshot comes from the
/// merged atomic counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SnapshotGauges {
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
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_peak: AtomicU64::new(0),
            slice_latency: LatencyHistogram::new(),
            batch_occupancy: LatencyHistogram::new(),
        }
    }

    /// Adds `n` to `counter` (wrapping, so `1u64.wrapping_neg()` takes a
    /// gauge down by one).
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Records one batched decode round: `rows` sessions went through the
    /// packed GEMM and `events` events were produced (GEMM rows plus any
    /// bootstrap events, which skip the forward pass).
    pub fn record_batch_round(&self, rows: u64, events: u64) {
        self.add(Counter::BatchRounds, 1);
        self.add(Counter::BatchedTokens, events);
        if rows > 0 {
            // Peak first: a snapshot clamps the quantiles to it.
            self.batch_peak.fetch_max(rows, Ordering::Relaxed);
            self.batch_occupancy.record_value(rows);
        }
    }

    /// Records one scheduling slice: its wall-clock latency and the number
    /// of events it decoded.
    pub fn record_slice(&self, latency: Duration, events: u64) {
        self.add(Counter::Slices, 1);
        self.add(Counter::EventsGenerated, events);
        self.slice_latency.record(latency);
    }

    /// Adds `other`'s counters into `self` (the sharded engine's `/stats`
    /// merge: counter sums are exact, histograms merge bucket-wise, and
    /// `batch_peak` takes the max across shards).
    pub fn absorb(&self, other: &Metrics) {
        add_all(&self.counters, &other.counters);
        self.batch_peak
            .fetch_max(other.batch_peak.load(Ordering::Relaxed), Ordering::Relaxed);
        self.slice_latency.absorb(&other.slice_latency);
        self.batch_occupancy.absorb(&other.batch_occupancy);
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
        let counts = self.counters.each_ref().map(|c| c.load(Ordering::Relaxed));
        let uptime = self.started.elapsed().as_secs_f64();
        let generated = counts[Counter::EventsGenerated as usize];
        let batch_peak = self.batch_peak.load(Ordering::Relaxed);
        let sessions = shard_occupancy.iter().map(|&(s, _)| s);
        let runnable = shard_occupancy.iter().map(|&(_, r)| r);
        StatsSnapshot {
            uptime_secs: uptime,
            workers: gauges.workers,
            sessions_open: gauges.sessions_open as u64,
            events_per_sec: if uptime > 0.0 {
                generated as f64 / uptime
            } else {
                0.0
            },
            queued_events: gauges.queued_events as u64,
            free_states: gauges.free_states as u64,
            slice_p50_us: self.slice_latency.quantile_us(0.50),
            slice_p99_us: self.slice_latency.quantile_us(0.99),
            // The histogram reports a log₂ bucket's upper edge, which can
            // lie above every sample in the bucket; the exact peak bounds it.
            batch_p50: self.batch_occupancy.quantile(0.50).min(batch_peak),
            batch_p99: self.batch_occupancy.quantile(0.99).min(batch_peak),
            batch_peak,
            live_version: gauges.live_version,
            sessions_per_version: sessions_per_version
                .iter()
                .map(|&(version, sessions)| VersionSessions { version, sessions })
                .collect(),
            shards: shard_occupancy.len() as u64,
            shard_sessions_max: sessions.clone().max().unwrap_or(0),
            shard_sessions_min: sessions.min().unwrap_or(0),
            shard_runnable_max: runnable.clone().max().unwrap_or(0),
            shard_runnable_min: runnable.min().unwrap_or(0),
            ..StatsSnapshot::from_counters(counts)
        }
    }
}

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
        m.add(Counter::SessionsOpened, 1);
        m.add(Counter::SessionsOpened, 1);
        m.add(Counter::SessionsShed, 1);
        m.add(Counter::SessionsClosed, 1);
        m.record_slice(Duration::from_micros(100), 7);
        m.add(Counter::EventsDelivered, 5);
        m.add(Counter::SessionsFailed, 1);
        m.add(Counter::WorkerPanics, 1);
        m.add(Counter::SessionsDetached, 2);
        m.add(Counter::SessionsReattached, 1);
        m.add(Counter::SessionsExpired, 1);
        m.add(Counter::SessionsForceFailed, 1);
        m.record_batch_round(5, 6);
        m.record_batch_round(0, 1); // all-bootstrap round: no GEMM rows
        m.add(Counter::VersionsPublished, 1);
        m.add(Counter::VersionsRolledBack, 1);
        m.add(Counter::VersionsQuarantined, 1);
        m.add(Counter::VersionsRetired, 1);
        m.add(Counter::DivergenceTrips, 1);
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
        a.add(Counter::SessionsOpened, 1);
        a.record_slice(Duration::from_micros(10), 4);
        a.record_batch_round(3, 3);
        b.add(Counter::SessionsOpened, 1);
        b.add(Counter::SessionsOpened, 1);
        b.record_slice(Duration::from_micros(10), 6);
        b.record_batch_round(8, 8);
        let engine = Metrics::new();
        engine.add(Counter::SessionsShed, 1);
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
