//! The load-generator client behind `cptgen loadgen`.
//!
//! Opens sessions against a running `cptgen serve` at a target rate and
//! drives them to completion, multiplexing many concurrently open
//! sessions per connection — a handful of client threads sustain
//! thousands of concurrent sessions, mirroring the server's own
//! no-thread-per-session design. Reports achieved throughput, shed
//! counts, and client-observed latency percentiles for the `open` and
//! `next` verbs.
//!
//! Transient-failure policy: connects are retried on `ECONNREFUSED` and
//! admission sheds (`overloaded`) are retried, both with capped, jittered
//! exponential backoff — a shed is the server asking for patience, not an
//! error. When a connection dies mid-run the thread reconnects and
//! presents its detach token (armed at connect time via the `detach`
//! verb), resuming its parked sessions where delivery stopped; only if
//! that fails are the sessions counted lost. Every retry, shed,
//! reconnect, and reattach is counted in the report.
//!
//! Every connection is a [`Client`]; the retry, backoff and
//! detach/reattach policy here is built on it.

#![deny(clippy::unwrap_used)]

use crate::client::Client;
use crate::error::ServeError;
use crate::metrics::{LatencyHistogram, StatsSnapshot};
use crate::protocol::wire;
use crate::protocol::{ErrorKind, Request, Response};
use cpt_trace::columnar::{fnv1a, fnv1a_continue};
use rand::splitmix64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:9000`.
    pub addr: String,
    /// Total sessions to open (0 = unlimited; requires `duration`).
    pub sessions: u64,
    /// Target concurrently open sessions across all threads.
    pub concurrent: usize,
    /// Session opens per second across all threads (0 = as fast as
    /// possible).
    pub rate: f64,
    /// UE streams each session decodes.
    pub streams: usize,
    /// Client threads (each one connection, multiplexing its share of
    /// `concurrent`). At most `concurrent` of them run: a thread with no
    /// share would have nothing to hold open.
    pub threads: usize,
    /// Stop opening new sessions after this long.
    pub duration: Option<Duration>,
    /// Base session seed; session `i` uses `seed_base + i`.
    pub seed_base: u64,
    /// Hard cap on draining in-flight sessions after the open phase.
    pub drain_timeout: Duration,
    /// Send a `shutdown` verb to the server once done.
    pub shutdown: bool,
}

/// Extra connect attempts on `ECONNREFUSED` before giving up.
const CONNECT_RETRIES: u32 = 5;
/// Base backoff between retries (ms); grows exponentially with a
/// deterministic jitter, capped at 2 s for connects and 0.5 s for sheds.
const RETRY_BACKOFF_MS: u64 = 50;

impl LoadgenConfig {
    /// Defaults: 100 sessions, 32 concurrent, unpaced, 1 stream each,
    /// 2 threads, 60 s drain, no server shutdown.
    pub fn new(addr: impl Into<String>) -> Self {
        LoadgenConfig {
            addr: addr.into(),
            sessions: 100,
            concurrent: 32,
            rate: 0.0,
            streams: 1,
            threads: 2,
            duration: None,
            seed_base: 1,
            drain_timeout: Duration::from_secs(60),
            shutdown: false,
        }
    }

    fn validate(&self) -> Result<(), ServeError> {
        fn bad(field: &str, message: &str) -> ServeError {
            ServeError::InvalidConfig {
                field: field.to_string(),
                message: message.to_string(),
            }
        }
        if self.sessions == 0 && self.duration.is_none() {
            return Err(bad(
                "sessions",
                "0 (unlimited) requires a duration to bound the run",
            ));
        }
        if self.concurrent == 0 {
            return Err(bad("concurrent", "must be at least 1"));
        }
        if self.threads == 0 {
            return Err(bad("threads", "must be at least 1"));
        }
        if self.streams == 0 {
            return Err(bad("streams", "must be at least 1"));
        }
        if !self.rate.is_finite() || self.rate < 0.0 {
            return Err(bad("rate", "must be a finite non-negative number"));
        }
        Ok(())
    }
}

/// What the load generator observed, printed (and optionally written as
/// JSON) by `cptgen loadgen`.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Sessions successfully opened.
    pub sessions_opened: u64,
    /// Opens shed by server admission control (`overloaded`); every shed
    /// was retried, so sheds do not imply lost sessions.
    pub sessions_shed: u64,
    /// Sessions driven to `finished` and closed.
    pub sessions_completed: u64,
    /// Sessions that ended with a terminal failure record (contained
    /// worker panic or drain force-fail).
    pub sessions_failed: u64,
    /// Sessions resumed via `reattach` after a dropped connection.
    pub sessions_reattached: u64,
    /// Events received over the wire (data events only).
    pub events_received: u64,
    /// Order-independent digest of every data event received, as 16 hex
    /// digits: per session, FNV-1a over the session seed and the canonical
    /// binary encoding ([`wire::encode_event`]) of its events in order;
    /// across sessions, a wrapping sum. Two runs that delivered
    /// bit-identical per-stream events produce the same digest at any
    /// shard × worker × thread count: the digest hashes the event bytes
    /// as they crossed the socket.
    pub events_digest: String,
    /// Non-overload protocol errors observed (including sessions lost to
    /// an unrecoverable disconnect).
    pub errors: u64,
    /// Connect attempts retried after `ECONNREFUSED`.
    pub connect_retries: u64,
    /// Open attempts retried after an admission shed.
    pub open_retries: u64,
    /// Mid-run reconnects that successfully reattached.
    pub reconnects: u64,
    /// Wall-clock run time in seconds.
    pub elapsed_secs: f64,
    /// Events received per second of run time.
    pub events_per_sec: f64,
    /// Data events delivered per session, aggregated over every session
    /// this client pulled events from (nearest-rank percentiles over the
    /// exact counts, not histogram buckets).
    pub events_per_session_p50: u64,
    pub events_per_session_p99: u64,
    pub events_per_session_mean: f64,
    pub events_per_session_max: u64,
    /// Client-observed `open` latency, p50/p99 (µs, bucket upper bound).
    pub open_p50_us: u64,
    pub open_p99_us: u64,
    /// Client-observed `next` latency, p50/p99 (µs, bucket upper bound).
    pub next_p50_us: u64,
    pub next_p99_us: u64,
    /// The server's final stats snapshot, if it could be fetched.
    pub server_stats: Option<StatsSnapshot>,
}

// `cptgen loadgen -o`'s report.
cpt_trace::json_struct!(LoadgenReport {
    sessions_opened,
    sessions_shed,
    sessions_completed,
    sessions_failed,
    sessions_reattached,
    events_received,
    events_digest,
    errors,
    connect_retries,
    open_retries,
    reconnects,
    elapsed_secs,
    events_per_sec,
    events_per_session_p50,
    events_per_session_p99,
    events_per_session_mean,
    events_per_session_max,
    open_p50_us,
    open_p99_us,
    next_p50_us,
    next_p99_us,
    server_stats,
});

/// Counters shared across client threads.
#[derive(Default)]
struct Tally {
    opened: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    reattached: AtomicU64,
    events: AtomicU64,
    errors: AtomicU64,
    connect_retries: AtomicU64,
    open_retries: AtomicU64,
    reconnects: AtomicU64,
    /// Open attempts so far, used for rate pacing and seed assignment.
    attempts: AtomicU64,
    /// Order-independent events digest: wrapping sum of per-session
    /// FNV-1a digests, folded in as each thread exits.
    digest: AtomicU64,
    /// Per-session data-event counts, merged in as each thread exits.
    per_session: Mutex<Vec<u64>>,
}

/// What one client thread tracks per open session: the running event
/// count and digest state. The digest is seeded from the session *seed*,
/// not the session id — ids embed shard bits, seeds are stable across
/// shard counts.
struct SessionTally {
    events: u64,
    fnv: u64,
}

impl SessionTally {
    fn new(seed: u64) -> SessionTally {
        SessionTally {
            events: 0,
            fnv: fnv1a(&seed.to_le_bytes()),
        }
    }
}

/// Capped exponential backoff with deterministic jitter in
/// `[cap/2, cap]`, so synchronized retry storms decorrelate without a
/// global RNG.
fn backoff_with_jitter(base_ms: u64, attempt: u32, salt: u64, cap_ms: u64) -> Duration {
    let exp = base_ms
        .saturating_mul(1u64 << attempt.min(10))
        .min(cap_ms)
        .max(1);
    let jitter = splitmix64(salt ^ u64::from(attempt)) % (exp / 2 + 1);
    Duration::from_millis(exp - exp / 2 + jitter)
}

/// Connects, retrying `ECONNREFUSED` with backoff (a restarting server is
/// a transient, not an error). Other failures surface immediately.
fn connect_with_retry(cfg: &LoadgenConfig, tally: &Tally) -> Result<Client, ServeError> {
    let mut attempt: u32 = 0;
    loop {
        match Client::connect(&cfg.addr) {
            Ok(c) => return Ok(c),
            Err(ServeError::Io(e))
                if e.kind() == std::io::ErrorKind::ConnectionRefused
                    && attempt < CONNECT_RETRIES =>
            {
                tally.connect_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff_with_jitter(
                    RETRY_BACKOFF_MS,
                    attempt,
                    cfg.seed_base,
                    2_000,
                ));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// A connection plus the detach token arming its disconnect behavior.
struct Conn {
    client: Client,
    /// Present once `detach` is armed; used to reattach after a drop.
    token: Option<String>,
}

/// Connects (with retry) and arms detach-on-disconnect.
fn establish(cfg: &LoadgenConfig, tally: &Tally) -> Result<Conn, ServeError> {
    let mut client = connect_with_retry(cfg, tally)?;
    let token = match client.request(&Request::Detach) {
        Ok(Response::Detached { token }) => Some(token),
        _ => None,
    };
    Ok(Conn { client, token })
}

/// After a dropped connection: reconnect, present the detach token, and
/// adopt the parked sessions. On success `open` holds exactly the
/// server-side surviving set. `None` means the sessions are lost.
fn recover(cfg: &LoadgenConfig, tally: &Tally, token: &str, open: &mut Vec<u64>) -> Option<Conn> {
    let mut conn = establish(cfg, tally).ok()?;
    match conn.client.request(&Request::Reattach {
        token: token.to_string(),
    }) {
        Ok(Response::Reattached { sessions }) => {
            tally
                .reattached
                .fetch_add(sessions.len() as u64, Ordering::Relaxed);
            tally.reconnects.fetch_add(1, Ordering::Relaxed);
            *open = sessions;
            Some(conn)
        }
        _ => None,
    }
}

/// Splits `concurrent` open sessions over at most `threads` client threads:
/// thread `i` holds `concurrent / threads`, plus one if `i` is below the
/// remainder. The shares sum to `concurrent` and none is 0.
fn session_shares(concurrent: usize, threads: usize) -> Vec<usize> {
    let threads = threads.min(concurrent);
    (0..threads)
        .map(|i| concurrent / threads + usize::from(i < concurrent % threads))
        .collect()
}

/// Runs the load generator to completion and reports what it observed.
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<LoadgenReport, ServeError> {
    cfg.validate()?;
    let start = Instant::now();
    let open_deadline = cfg.duration.map(|d| start + d);
    let tally = Arc::new(Tally::default());
    let open_hist = Arc::new(LatencyHistogram::new());
    let next_hist = Arc::new(LatencyHistogram::new());

    // Fail fast (and typed) if the server is unreachable, before spawning.
    // Retries absorb a server that is still binding its socket.
    drop(connect_with_retry(cfg, &tally)?);

    let threads: Vec<_> = session_shares(cfg.concurrent, cfg.threads)
        .into_iter()
        .enumerate()
        .map(|(i, per_thread)| {
            let cfg = cfg.clone();
            let tally = Arc::clone(&tally);
            let open_hist = Arc::clone(&open_hist);
            let next_hist = Arc::clone(&next_hist);
            std::thread::Builder::new()
                .name(format!("cpt-loadgen-{i}"))
                .spawn(move || {
                    let mut counts: HashMap<u64, SessionTally> = HashMap::new();
                    client_thread(
                        &cfg,
                        per_thread,
                        start,
                        open_deadline,
                        &tally,
                        &open_hist,
                        &next_hist,
                        &mut counts,
                    );
                    let mut digest: u64 = 0;
                    let mut per = tally
                        .per_session
                        .lock()
                        .expect("per-session tally poisoned");
                    for t in counts.into_values() {
                        per.push(t.events);
                        digest = digest.wrapping_add(t.fnv);
                    }
                    drop(per);
                    tally.digest.fetch_add(digest, Ordering::Relaxed);
                })
        })
        .collect::<Result<_, _>>()
        .map_err(ServeError::Io)?;
    for t in threads {
        let _ = t.join();
    }

    // Final server snapshot (and optional shutdown) on a fresh connection.
    let mut server_stats = None;
    if let Ok(mut client) = Client::connect(&cfg.addr) {
        if let Ok(Response::Stats { stats }) = client.request(&Request::Stats) {
            server_stats = Some(*stats);
        }
        if cfg.shutdown {
            let _ = client.request(&Request::Shutdown);
        }
    }

    let elapsed = start.elapsed().as_secs_f64();
    let events = tally.events.load(Ordering::Relaxed);
    let mut per_session = std::mem::take(
        &mut *tally
            .per_session
            .lock()
            .expect("per-session tally poisoned"),
    );
    per_session.sort_unstable();
    let nearest_rank = |q: f64| -> u64 {
        match per_session.len() {
            0 => 0,
            n => per_session[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
        }
    };
    Ok(LoadgenReport {
        sessions_opened: tally.opened.load(Ordering::Relaxed),
        sessions_shed: tally.shed.load(Ordering::Relaxed),
        sessions_completed: tally.completed.load(Ordering::Relaxed),
        sessions_failed: tally.failed.load(Ordering::Relaxed),
        sessions_reattached: tally.reattached.load(Ordering::Relaxed),
        events_received: events,
        events_digest: format!("{:016x}", tally.digest.load(Ordering::Relaxed)),
        errors: tally.errors.load(Ordering::Relaxed),
        connect_retries: tally.connect_retries.load(Ordering::Relaxed),
        open_retries: tally.open_retries.load(Ordering::Relaxed),
        reconnects: tally.reconnects.load(Ordering::Relaxed),
        elapsed_secs: elapsed,
        events_per_sec: if elapsed > 0.0 {
            events as f64 / elapsed
        } else {
            0.0
        },
        events_per_session_p50: nearest_rank(0.50),
        events_per_session_p99: nearest_rank(0.99),
        events_per_session_mean: if per_session.is_empty() {
            0.0
        } else {
            per_session.iter().sum::<u64>() as f64 / per_session.len() as f64
        },
        events_per_session_max: per_session.last().copied().unwrap_or(0),
        open_p50_us: open_hist.quantile_us(0.50),
        open_p99_us: open_hist.quantile_us(0.99),
        next_p50_us: next_hist.quantile_us(0.50),
        next_p99_us: next_hist.quantile_us(0.99),
        server_stats,
    })
}

/// True while this thread may claim another open attempt; claims the
/// attempt index (for pacing + seed) when it may.
fn claim_attempt(
    cfg: &LoadgenConfig,
    open_deadline: Option<Instant>,
    tally: &Tally,
) -> Option<u64> {
    if let Some(d) = open_deadline {
        if Instant::now() >= d {
            return None;
        }
    }
    // Claim optimistically, then give the slot back if over target.
    let idx = tally.attempts.fetch_add(1, Ordering::SeqCst);
    if cfg.sessions > 0 && idx >= cfg.sessions {
        None
    } else {
        Some(idx)
    }
}

/// Handles a failed connection mid-run: close it, then reattach when
/// detach was armed; otherwise the thread's open sessions are lost
/// (counted as errors). The connection may still be open on the server (a
/// read timed out, a response did not decode), and until it ends there the
/// token names no parked session: a reattach then would be refused.
/// Returns the new connection, or `None` when the thread should give up.
fn handle_disconnect(
    cfg: &LoadgenConfig,
    tally: &Tally,
    conn: Conn,
    open: &mut Vec<u64>,
) -> Option<Conn> {
    conn.client.close();
    if let Some(token) = conn.token {
        if let Some(fresh) = recover(cfg, tally, &token, open) {
            return Some(fresh);
        }
    }
    // Sessions abandoned server-side (or parked until the TTL reaper
    // reclaims them): each is an observable loss.
    tally
        .errors
        .fetch_add(open.len() as u64 + 1, Ordering::Relaxed);
    open.clear();
    None
}

#[allow(clippy::too_many_arguments)]
fn client_thread(
    cfg: &LoadgenConfig,
    per_thread: usize,
    start: Instant,
    open_deadline: Option<Instant>,
    tally: &Tally,
    open_hist: &LatencyHistogram,
    next_hist: &LatencyHistogram,
    counts: &mut HashMap<u64, SessionTally>,
) {
    let mut conn = match establish(cfg, tally) {
        Ok(c) => c,
        Err(_) => {
            tally.errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    // Sessions this thread currently has open.
    let mut open: Vec<u64> = Vec::with_capacity(per_thread);
    // A claimed-but-unopened attempt (kept across shed/disconnect retries
    // so no claimed session is ever silently dropped).
    let mut pending: Option<u64> = None;
    let mut shed_streak: u32 = 0;
    let mut opening_done = false;
    let mut drain_deadline: Option<Instant> = None;
    // Reused scratch for canonical event encoding (digest folding).
    let mut scratch: Vec<u8> = Vec::new();

    loop {
        // Open phase: top up to this thread's share of the concurrency
        // target, paced to the global rate.
        while !opening_done && open.len() < per_thread {
            let idx = match pending.take() {
                Some(i) => i,
                None => match claim_attempt(cfg, open_deadline, tally) {
                    Some(i) => i,
                    None => {
                        opening_done = true;
                        drain_deadline = Some(Instant::now() + cfg.drain_timeout);
                        break;
                    }
                },
            };
            if cfg.rate > 0.0 {
                let target = start + Duration::from_secs_f64(idx as f64 / cfg.rate);
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
            }
            let req = Request::Open {
                seed: cfg.seed_base + idx,
                streams: cfg.streams,
                device: "phone".to_string(),
                max_stream_len: None,
            };
            let t0 = Instant::now();
            match conn.client.request(&req) {
                Ok(Response::Opened { session }) => {
                    open_hist.record(t0.elapsed());
                    tally.opened.fetch_add(1, Ordering::Relaxed);
                    counts.insert(session, SessionTally::new(cfg.seed_base + idx));
                    open.push(session);
                    shed_streak = 0;
                }
                Ok(Response::Error {
                    kind: ErrorKind::Overloaded,
                    ..
                }) => {
                    open_hist.record(t0.elapsed());
                    tally.shed.fetch_add(1, Ordering::Relaxed);
                    tally.open_retries.fetch_add(1, Ordering::Relaxed);
                    // Retry the same attempt after a backoff; meanwhile
                    // fall through to the drive phase so this thread's own
                    // sessions progress (and free server slots).
                    pending = Some(idx);
                    std::thread::sleep(backoff_with_jitter(
                        RETRY_BACKOFF_MS,
                        shed_streak,
                        cfg.seed_base ^ idx,
                        500,
                    ));
                    shed_streak = shed_streak.saturating_add(1);
                    break;
                }
                Ok(_) => {
                    tally.errors.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    pending = Some(idx);
                    match handle_disconnect(cfg, tally, conn, &mut open) {
                        Some(fresh) => conn = fresh,
                        None => return,
                    }
                }
            }
        }

        if open.is_empty() {
            if opening_done {
                return;
            }
            continue;
        }
        if let Some(d) = drain_deadline {
            if Instant::now() >= d {
                // Give up on stragglers; close them so the server reclaims
                // the slots.
                for id in open.drain(..) {
                    let _ = conn.client.request(&Request::Close { session: id });
                }
                return;
            }
        }

        // Drive phase: round-robin one `next` over every open session,
        // closing the ones that finish.
        let mut i = 0;
        while i < open.len() {
            let id = open[i];
            let req = Request::Next {
                session: id,
                max: 64,
                wait_ms: 50,
            };
            let t0 = Instant::now();
            match conn.client.request(&req) {
                Ok(Response::Events {
                    events, finished, ..
                }) => {
                    next_hist.record(t0.elapsed());
                    let data = events.iter().filter(|e| e.data().is_some()).count() as u64;
                    let failed = events.iter().any(|e| e.is_failure());
                    tally.events.fetch_add(data, Ordering::Relaxed);
                    if let Some(t) = counts.get_mut(&id) {
                        // Fold each data event's canonical encoding into
                        // the session digest.
                        for e in events.iter().filter(|e| e.data().is_some()) {
                            scratch.clear();
                            wire::encode_event(e, &mut scratch);
                            t.fnv = fnv1a_continue(t.fnv, &scratch);
                        }
                        t.events += data;
                    }
                    if finished {
                        let closed = matches!(
                            conn.client.request(&Request::Close { session: id }),
                            Ok(Response::Closed { .. })
                        );
                        if failed {
                            // Terminal failure record: the session ended,
                            // but not successfully.
                            tally.failed.fetch_add(1, Ordering::Relaxed);
                        } else if closed {
                            tally.completed.fetch_add(1, Ordering::Relaxed);
                        } else {
                            tally.errors.fetch_add(1, Ordering::Relaxed);
                        }
                        open.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
                Ok(Response::Error {
                    kind: ErrorKind::Overloaded,
                    ..
                }) => {
                    // An overloaded server shedding mid-session is asking
                    // for patience, not reporting a failure: count it as a
                    // shed, distinct from generic errors, and retry the
                    // session on the next round-robin pass.
                    tally.shed.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                Ok(_) => {
                    tally.errors.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                Err(_) => {
                    // `recover` rebuilds `open` from the server's parked
                    // set, so restart the round-robin from the front.
                    match handle_disconnect(cfg, tally, conn, &mut open) {
                        Some(fresh) => {
                            conn = fresh;
                            i = 0;
                        }
                        None => return,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosPlan, ServeConfig, Server, ServerConfig};

    #[test]
    fn sessions_come_back_when_the_failed_connection_is_still_open() {
        let server = Server::bind(
            cpt_testkit::fixture_model(),
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                serve: ServeConfig::new(2),
                chaos: ChaosPlan::default(),
                registry: None,
            },
        )
        .expect("server binds");
        let addr = server.local_addr().expect("bound address");
        let stop = server.stopper();
        let thread = std::thread::spawn(move || server.run().expect("server run"));

        let cfg = LoadgenConfig::new(addr.to_string());
        let tally = Tally::default();
        let mut a = establish(&cfg, &tally).expect("connects");
        assert!(a.token.is_some(), "detach is armed");
        let mut open = Vec::new();
        for seed in 0..4 {
            let req = Request::Open {
                seed,
                streams: 1,
                device: "phone".to_string(),
                max_stream_len: None,
            };
            match a.client.request(&req) {
                Ok(Response::Opened { session }) => open.push(session),
                other => panic!("open: {other:?}"),
            }
        }
        let mut want = open.clone();
        want.sort_unstable();

        // Connection A has not failed on the server's side: a read that
        // timed out looks like this.
        let mut fresh = handle_disconnect(&cfg, &tally, a, &mut open).expect("sessions resume");
        open.sort_unstable();
        assert_eq!(open, want);
        assert_eq!(tally.reattached.load(Ordering::Relaxed), 4);
        assert_eq!(tally.reconnects.load(Ordering::Relaxed), 1);
        assert_eq!(tally.errors.load(Ordering::Relaxed), 0);
        for &session in &want {
            match fresh.client.request(&Request::Close { session }) {
                Ok(Response::Closed { .. }) => {}
                other => panic!("close {session}: {other:?}"),
            }
        }

        drop(fresh);
        stop();
        thread.join().expect("server thread joins");
    }

    #[test]
    fn session_shares_sum_to_concurrent_and_none_is_empty() {
        for concurrent in 1..=9 {
            for threads in 1..=9 {
                let shares = session_shares(concurrent, threads);
                assert_eq!(shares.len(), concurrent.min(threads));
                assert_eq!(shares.iter().sum::<usize>(), concurrent, "{shares:?}");
                assert!(shares.iter().all(|&n| n > 0), "{shares:?}");
                let spread =
                    shares.iter().max().expect("a share") - shares.iter().min().expect("a share");
                assert!(spread <= 1, "{shares:?}");
            }
        }
    }
}
