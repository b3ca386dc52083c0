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

#![deny(clippy::unwrap_used)]

use crate::error::ServeError;
use crate::metrics::{LatencyHistogram, StatsSnapshot};
use crate::protocol::wire;
use crate::protocol::{ErrorKind, Request, Response};
use crate::steer::splitmix64;
use cpt_trace::columnar::{fnv1a, fnv1a_continue};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which codec the client speaks: JSON lines (the scriptable default) or
/// the negotiated binary framing of [`crate::protocol::wire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Line-delimited JSON (works against any server version).
    #[default]
    Json,
    /// Length-prefixed binary frames (negotiated by preamble).
    Bin,
}

impl std::str::FromStr for WireMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(WireMode::Json),
            "bin" => Ok(WireMode::Bin),
            other => Err(format!("unknown wire mode `{other}` (want json|bin)")),
        }
    }
}

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
    /// `concurrent`).
    pub threads: usize,
    /// Stop opening new sessions after this long.
    pub duration: Option<Duration>,
    /// Base session seed; session `i` uses `seed_base + i`.
    pub seed_base: u64,
    /// Hard cap on draining in-flight sessions after the open phase.
    pub drain_timeout: Duration,
    /// Send a `shutdown` verb to the server once done.
    pub shutdown: bool,
    /// Extra connect attempts on `ECONNREFUSED` before giving up.
    pub connect_retries: u32,
    /// Base backoff between retries (ms); grows exponentially with a
    /// deterministic jitter, capped at ~2 s.
    pub retry_backoff_ms: u64,
    /// Arm detach-on-disconnect and reattach after a dropped connection
    /// instead of abandoning the sessions.
    pub reattach: bool,
    /// Codec to speak: JSON lines or negotiated binary frames.
    pub wire: WireMode,
}

impl LoadgenConfig {
    /// Defaults: 100 sessions, 32 concurrent, unpaced, 1 stream each,
    /// 2 threads, 60 s drain, no server shutdown, 5 connect retries with
    /// 50 ms base backoff, reattach on.
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
            connect_retries: 5,
            retry_backoff_ms: 50,
            reattach: true,
            wire: WireMode::Json,
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    #[serde(default)]
    pub sessions_failed: u64,
    /// Sessions resumed via `reattach` after a dropped connection.
    #[serde(default)]
    pub sessions_reattached: u64,
    /// Events received over the wire (data events only).
    pub events_received: u64,
    /// Order-independent digest of every data event received, as 16 hex
    /// digits: per session, FNV-1a over the session seed and the canonical
    /// binary encoding ([`wire::encode_event`]) of its events in order;
    /// across sessions, a wrapping sum. Two runs that delivered
    /// bit-identical per-stream events produce the same digest at any
    /// shard × worker × thread count and under either codec (the JSON
    /// path re-encodes through the same canonical binary form;
    /// `serde_json`'s `float_roundtrip` keeps the f64 bits exact).
    #[serde(default)]
    pub events_digest: String,
    /// Non-overload protocol errors observed (including sessions lost to
    /// an unrecoverable disconnect).
    pub errors: u64,
    /// Connect attempts retried after `ECONNREFUSED`.
    #[serde(default)]
    pub connect_retries: u64,
    /// Open attempts retried after an admission shed.
    #[serde(default)]
    pub open_retries: u64,
    /// Mid-run reconnects that successfully reattached.
    #[serde(default)]
    pub reconnects: u64,
    /// Wall-clock run time in seconds.
    pub elapsed_secs: f64,
    /// Events received per second of run time.
    pub events_per_sec: f64,
    /// Data events delivered per session, aggregated over every session
    /// this client pulled events from (nearest-rank percentiles over the
    /// exact counts, not histogram buckets).
    #[serde(default)]
    pub events_per_session_p50: u64,
    #[serde(default)]
    pub events_per_session_p99: u64,
    #[serde(default)]
    pub events_per_session_mean: f64,
    #[serde(default)]
    pub events_per_session_max: u64,
    /// Client-observed `open` latency, p50/p99 (µs, bucket upper bound).
    pub open_p50_us: u64,
    pub open_p99_us: u64,
    /// Client-observed `next` latency, p50/p99 (µs, bucket upper bound).
    pub next_p50_us: u64,
    pub next_p99_us: u64,
    /// The server's final stats snapshot, if it could be fetched.
    pub server_stats: Option<StatsSnapshot>,
    /// Model-lifecycle counters copied out of [`Self::server_stats`] so a
    /// CI gate can assert on them without digging into the nested
    /// snapshot (all zero when the snapshot could not be fetched or the
    /// server runs without a registry).
    #[serde(default)]
    pub live_version: u64,
    #[serde(default)]
    pub versions_published: u64,
    #[serde(default)]
    pub versions_rolled_back: u64,
    #[serde(default)]
    pub versions_quarantined: u64,
    #[serde(default)]
    pub finetunes_completed: u64,
    #[serde(default)]
    pub finetunes_failed: u64,
    /// Shard layout copied out of [`Self::server_stats`] (zero when the
    /// snapshot could not be fetched): shard count and the max/min
    /// runnable-session occupancy across shards, so imbalance is visible
    /// without digging into the nested snapshot.
    #[serde(default)]
    pub shards: u64,
    #[serde(default)]
    pub shard_runnable_max: u64,
    #[serde(default)]
    pub shard_runnable_min: u64,
}

/// One connection to the server, speaking either codec. The JSON path
/// reuses one line `String`; the binary path reuses one outbound and one
/// inbound frame buffer — steady-state requests allocate nothing but the
/// decoded response.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    mode: WireMode,
    line: String,
    frame: Vec<u8>,
    payload: Vec<u8>,
}

impl Client {
    fn connect(addr: &str, mode: WireMode) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small writes; Nagle only delays them.
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            mode,
            line: String::new(),
            frame: Vec::new(),
            payload: Vec::new(),
        };
        if mode == WireMode::Bin {
            // Buffered with the first request frame — one packet, and the
            // server's codec peek sees MAGIC first.
            wire::write_preamble(&mut client.writer)?;
        }
        Ok(client)
    }

    fn request(&mut self, req: &Request) -> Result<Response, ServeError> {
        match self.mode {
            WireMode::Json => {
                serde_json::to_writer(&mut self.writer, req).map_err(std::io::Error::other)?;
                self.writer.write_all(b"\n")?;
                self.writer.flush()?;
                self.line.clear();
                let n = self.reader.read_line(&mut self.line)?;
                if n == 0 {
                    return Err(ServeError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )));
                }
                Ok(serde_json::from_str(&self.line).map_err(std::io::Error::other)?)
            }
            WireMode::Bin => {
                self.frame.clear();
                wire::encode_request(req, &mut self.frame);
                wire::write_frame(&mut self.writer, &self.frame)?;
                self.writer.flush()?;
                let got = wire::read_frame(&mut self.reader, &mut self.payload)
                    .map_err(frame_to_io)?;
                if !got {
                    return Err(ServeError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )));
                }
                Ok(wire::decode_response(&self.payload).map_err(std::io::Error::other)?)
            }
        }
    }
}

/// One request/response round-trip over a fresh JSON-lines connection:
/// how `cptgen ctl` sends a lifecycle verb (rare enough that connection
/// reuse buys nothing).
pub fn request_once(addr: &str, req: &Request) -> Result<Response, ServeError> {
    Client::connect(addr, WireMode::Json)?.request(req)
}

fn frame_to_io(e: wire::FrameError) -> std::io::Error {
    match e {
        wire::FrameError::Io(io) => io,
        wire::FrameError::Protocol(p) => std::io::Error::other(p),
    }
}

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
        match Client::connect(&cfg.addr, cfg.wire) {
            Ok(c) => return Ok(c),
            Err(ServeError::Io(e))
                if e.kind() == std::io::ErrorKind::ConnectionRefused
                    && attempt < cfg.connect_retries =>
            {
                tally.connect_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff_with_jitter(
                    cfg.retry_backoff_ms,
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

/// Connects (with retry) and, when configured, arms detach-on-disconnect.
fn establish(cfg: &LoadgenConfig, tally: &Tally) -> Result<Conn, ServeError> {
    let mut client = connect_with_retry(cfg, tally)?;
    let mut token = None;
    if cfg.reattach {
        if let Ok(Response::Detached { token: t }) = client.request(&Request::Detach) {
            token = Some(t);
        }
    }
    Ok(Conn { client, token })
}

/// After a dropped connection: reconnect, present the detach token, and
/// adopt the parked sessions. On success `open` holds exactly the
/// server-side surviving set. `None` means the sessions are lost.
fn recover(
    cfg: &LoadgenConfig,
    tally: &Tally,
    token: &str,
    open: &mut Vec<u64>,
) -> Option<Conn> {
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

    let per_thread = cfg.concurrent.div_ceil(cfg.threads);
    let threads: Vec<_> = (0..cfg.threads)
        .map(|i| {
            let cfg = cfg.clone();
            let tally = Arc::clone(&tally);
            let open_hist = Arc::clone(&open_hist);
            let next_hist = Arc::clone(&next_hist);
            std::thread::Builder::new()
                .name(format!("cpt-loadgen-{i}"))
                .spawn(move || {
                    let mut counts: HashMap<u64, SessionTally> = HashMap::new();
                    client_thread(&cfg, per_thread, start, open_deadline, &tally, &open_hist,
                        &next_hist, &mut counts);
                    let mut digest: u64 = 0;
                    let mut per = tally.per_session.lock().expect("per-session tally poisoned");
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
    if let Ok(mut client) = Client::connect(&cfg.addr, cfg.wire) {
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
        &mut *tally.per_session.lock().expect("per-session tally poisoned"),
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
        events_per_sec: if elapsed > 0.0 { events as f64 / elapsed } else { 0.0 },
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
        live_version: server_stats.as_ref().map(|s| s.live_version).unwrap_or(0),
        versions_published: server_stats
            .as_ref()
            .map(|s| s.versions_published)
            .unwrap_or(0),
        versions_rolled_back: server_stats
            .as_ref()
            .map(|s| s.versions_rolled_back)
            .unwrap_or(0),
        versions_quarantined: server_stats
            .as_ref()
            .map(|s| s.versions_quarantined)
            .unwrap_or(0),
        finetunes_completed: server_stats
            .as_ref()
            .map(|s| s.finetunes_completed)
            .unwrap_or(0),
        finetunes_failed: server_stats
            .as_ref()
            .map(|s| s.finetunes_failed)
            .unwrap_or(0),
        shards: server_stats.as_ref().map(|s| s.shards).unwrap_or(0),
        shard_runnable_max: server_stats
            .as_ref()
            .map(|s| s.shard_runnable_max)
            .unwrap_or(0),
        shard_runnable_min: server_stats
            .as_ref()
            .map(|s| s.shard_runnable_min)
            .unwrap_or(0),
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

/// Handles a dead connection mid-run: reattach when armed, otherwise the
/// thread's open sessions are lost (counted as errors). Returns the new
/// connection, or `None` when the thread should give up.
fn handle_disconnect(
    cfg: &LoadgenConfig,
    tally: &Tally,
    conn: &Conn,
    open: &mut Vec<u64>,
) -> Option<Conn> {
    if let Some(token) = conn.token.clone() {
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
                Ok(Response::Error { kind: ErrorKind::Overloaded, .. }) => {
                    open_hist.record(t0.elapsed());
                    tally.shed.fetch_add(1, Ordering::Relaxed);
                    tally.open_retries.fetch_add(1, Ordering::Relaxed);
                    // Retry the same attempt after a backoff; meanwhile
                    // fall through to the drive phase so this thread's own
                    // sessions progress (and free server slots).
                    pending = Some(idx);
                    std::thread::sleep(backoff_with_jitter(
                        cfg.retry_backoff_ms,
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
                    match handle_disconnect(cfg, tally, &conn, &mut open) {
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
                Ok(Response::Events { events, finished, .. }) => {
                    next_hist.record(t0.elapsed());
                    let data = events.iter().filter(|e| e.data().is_some()).count() as u64;
                    let failed = events.iter().any(|e| e.is_failure());
                    tally.events.fetch_add(data, Ordering::Relaxed);
                    if let Some(t) = counts.get_mut(&id) {
                        // Fold each data event's canonical binary encoding
                        // into the session digest — codec-independent, so
                        // JSON and binary clients produce the same digest.
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
                Ok(Response::Error { kind: ErrorKind::Overloaded, .. }) => {
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
                    match handle_disconnect(cfg, tally, &conn, &mut open) {
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
