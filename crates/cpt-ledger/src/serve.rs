//! `serve_steady` and `serve_churn`: a stream of per-UE sessions pulled
//! from `cpt-serve` over real loopback TCP with the binary codec.
//!
//! Both use the same server (`ServeConfig::new(nproc)`) and the same
//! client shape — `nproc` client threads (at most two), one connection
//! each, 64 sessions in flight in total — and use the `cpt-serve` layer in
//! opposite ways:
//!
//! * `serve_steady` serves two-stream sessions from a paper-width model,
//!   so per-layer GEMMs and batch occupancy set the result;
//! * `serve_churn` serves sessions of at most eight events from a micro
//!   model, so admission, steering, the shard lock and condvar, the wire
//!   codec and the thread-per-connection socket path do.
//!
//! The loop is closed because each testbed consumer waits for its reply.
//! A traced `serve_churn` run adds an open-loop phase on a fixed arrival
//! schedule; its tail latencies did not repeat between identical runs, so
//! they are reported per layer and never gated.
//!
//! `Stats`/`Versions` are never sent over the wire (their binary encoding
//! embeds a JSON blob, which the offline stub cannot produce); counters
//! come from `Server::handle().stats()` in process. `cpt_serve::loadgen`
//! is not reused: it requests `Stats` at exit and keeps log2 buckets.

use crate::span;
use crate::stats;
use crate::sys::{self, ProcSample};
use crate::workload::{Fnv, Outcome, Params, Res, MODEL_SEED};
use cpt_gpt::{CptGpt, CptGptConfig, StreamParams, Tokenizer, TrainConfig};
use cpt_serve::protocol::{wire, Request, Response};
use cpt_serve::{Engine, ServeConfig, ServeHandle, Server, ServerConfig, SessionEvent, SessionId};
use cpt_synth::SynthConfig;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MAX_LEN: usize = 64;
/// Sessions in flight over all client threads.
const IN_FLIGHT: usize = 64;
/// Sessions whose bytes are checked against a direct decode.
const DIGESTED: u64 = 64;
/// Arrival rate of the open-loop phase, in sessions per second.
const OPEN_LOOP_RATE: f64 = 4000.0;

/// What one session asks for.
#[derive(Debug, Clone, Copy)]
struct Shape {
    streams: usize,
    max_stream_len: Option<usize>,
    next_max: usize,
    wait_ms: u64,
}

impl Shape {
    fn params(&self, seed: u64) -> StreamParams {
        let mut p = StreamParams::new(seed).streams(self.streams);
        p.max_stream_len = self.max_stream_len;
        p
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Steady,
    Churn,
}

impl Kind {
    fn model_config(self, seed: u64) -> CptGptConfig {
        let base = match self {
            Kind::Steady => CptGptConfig::paper(),
            Kind::Churn => CptGptConfig {
                d_model: 16,
                n_blocks: 1,
                n_heads: 2,
                d_mlp: 48,
                d_head: 16,
                ..CptGptConfig::small()
            },
        };
        base.with_max_len(MAX_LEN).with_seed(seed)
    }

    fn shape(self) -> Shape {
        match self {
            Kind::Steady => Shape {
                streams: 2,
                max_stream_len: None,
                next_max: 32,
                wait_ms: 100,
            },
            // The length cap makes every session short whatever the
            // briefly trained model's stop head does, which is the point
            // of the workload.
            Kind::Churn => Shape {
                streams: 1,
                max_stream_len: Some(8),
                next_max: 32,
                wait_ms: 100,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Server under test
// ---------------------------------------------------------------------------

fn train_model(kind: Kind, p: &Params) -> Res<CptGpt> {
    let data = cpt_synth::generate(&SynthConfig::new(p.scaled(64, 16), MODEL_SEED).hours(2.0));
    let mut model = CptGpt::new(kind.model_config(MODEL_SEED), Tokenizer::fit(&data));
    let cfg = TrainConfig::quick().with_epochs(1).with_seed(MODEL_SEED);
    cpt_gpt::train(&mut model, &data, &cfg).map_err(|e| format!("train serve model: {e}"))?;
    Ok(model)
}

/// A bound server running on its own thread; stopped and joined on drop,
/// so no exit path leaves it behind.
struct Running {
    addr: SocketAddr,
    handle: ServeHandle,
    model: Arc<CptGpt>,
    stop: Box<dyn Fn() + Send + Sync>,
    thread:
        Option<std::thread::JoinHandle<Result<cpt_serve::StatsSnapshot, cpt_serve::ServeError>>>,
}

impl Running {
    fn start(model: Arc<CptGpt>) -> Res<Running> {
        let cfg = ServerConfig::new("127.0.0.1:0", sys::nproc());
        let server = Server::bind(Arc::clone(&model), cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let handle = server.handle();
        let stop = Box::new(server.stopper());
        let thread = std::thread::Builder::new()
            .name("ledger-server".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn server: {e}"))?;
        Ok(Running {
            addr,
            handle,
            model,
            stop,
            thread: Some(thread),
        })
    }

    fn shutdown(&mut self) -> Res<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        (self.stop)();
        match thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server stopped with: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// Why a call did not succeed.
enum Fail {
    /// The server answered with an error: this session failed, the run
    /// goes on.
    Session(String),
    /// The connection itself is unusable.
    Transport(String),
}

/// The three verbs, over a socket or straight into the engine, so the same
/// driver measures both and their quotient is the socket + wire share.
trait Transport {
    fn open(&mut self, seed: u64, shape: &Shape, op: u64) -> Result<u64, Fail>;
    fn next(
        &mut self,
        id: u64,
        max: usize,
        wait_ms: u64,
        op: u64,
    ) -> Result<(Vec<SessionEvent>, bool), Fail>;
    fn close(&mut self, id: u64, op: u64) -> Result<(), Fail>;
}

/// One binary-codec connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
    payload: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Res<Conn> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        // A server that stops answering must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        let mut conn = Conn {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            frame: Vec::new(),
            payload: Vec::new(),
        };
        wire::write_preamble(&mut conn.writer).map_err(|e| format!("preamble: {e}"))?;
        Ok(conn)
    }

    fn request(&mut self, name: &'static str, op: u64, req: &Request) -> Result<Response, Fail> {
        let _call = span::enter(name, op);
        {
            let _s = span::enter("client.encode", op);
            self.frame.clear();
            wire::encode_request(req, &mut self.frame);
        }
        {
            let _s = span::enter("client.socket", op);
            wire::write_frame(&mut self.writer, &self.frame)
                .and_then(|()| self.writer.flush())
                .map_err(|e| Fail::Transport(format!("send: {e}")))?;
            match wire::read_frame(&mut self.reader, &mut self.payload) {
                Ok(true) => {}
                Ok(false) => return Err(Fail::Transport("server closed the connection".into())),
                Err(e) => return Err(Fail::Transport(format!("receive: {e:?}"))),
            }
        }
        let _s = span::enter("client.decode", op);
        match wire::decode_response(&self.payload) {
            Ok(Response::Error { kind, message }) => {
                Err(Fail::Session(format!("{kind:?}: {message}")))
            }
            Ok(resp) => Ok(resp),
            Err(e) => Err(Fail::Transport(format!("undecodable response: {e}"))),
        }
    }
}

fn unexpected<T>(resp: Response) -> Result<T, Fail> {
    Err(Fail::Session(format!("unexpected response {resp:?}")))
}

impl Transport for Conn {
    fn open(&mut self, seed: u64, shape: &Shape, op: u64) -> Result<u64, Fail> {
        let req = Request::Open {
            seed,
            streams: shape.streams,
            device: "phone".into(),
            max_stream_len: shape.max_stream_len,
        };
        match self.request("client.open", op, &req)? {
            Response::Opened { session } => Ok(session),
            other => unexpected(other),
        }
    }

    fn next(
        &mut self,
        id: u64,
        max: usize,
        wait_ms: u64,
        op: u64,
    ) -> Result<(Vec<SessionEvent>, bool), Fail> {
        let req = Request::Next {
            session: id,
            max,
            wait_ms,
        };
        match self.request("client.next", op, &req)? {
            Response::Events {
                events, finished, ..
            } => Ok((events, finished)),
            other => unexpected(other),
        }
    }

    fn close(&mut self, id: u64, op: u64) -> Result<(), Fail> {
        match self.request("client.close", op, &Request::Close { session: id })? {
            Response::Closed { .. } => Ok(()),
            other => unexpected(other),
        }
    }
}

/// The same verbs called on the engine in process.
struct Direct(ServeHandle);

impl Transport for Direct {
    fn open(&mut self, seed: u64, shape: &Shape, _op: u64) -> Result<u64, Fail> {
        self.0
            .open_session(shape.params(seed))
            .map(|id| id.0)
            .map_err(|e| Fail::Session(e.to_string()))
    }

    fn next(
        &mut self,
        id: u64,
        max: usize,
        wait_ms: u64,
        _op: u64,
    ) -> Result<(Vec<SessionEvent>, bool), Fail> {
        self.0
            .next_events(SessionId(id), max, Duration::from_millis(wait_ms))
            .map(|b| (b.events, b.finished))
            .map_err(|e| Fail::Session(e.to_string()))
    }

    fn close(&mut self, id: u64, _op: u64) -> Result<(), Fail> {
        self.0
            .close_session(SessionId(id))
            .map_err(|e| Fail::Session(e.to_string()))
    }
}

// ---------------------------------------------------------------------------
// Load drivers
// ---------------------------------------------------------------------------

/// What one client thread saw. Latencies are exact samples in nanoseconds.
#[derive(Default)]
struct Tally {
    /// Data events received / sessions closed inside the measured window.
    events: u64,
    sessions: u64,
    /// The same two counts per slice of the window (see [`Window`]).
    events_by_slice: [u64; SLICES],
    sessions_by_slice: [u64; SLICES],
    opened: u64,
    failed: u64,
    first_event_ns: Vec<f64>,
    /// `Next` round trips that returned at least one event.
    next_ns: Vec<f64>,
    session_ns: Vec<f64>,
    open_call_ns: Vec<f64>,
    next_call_ns: Vec<f64>,
    close_call_ns: Vec<f64>,
    /// `(seed index, seed, digest of the bytes received)`.
    digests: Vec<(u64, u64, u64)>,
    empty_polls: u64,
    late_ns_max: u64,
}

impl Tally {
    /// Count per second at the median slice of a window `secs` long. A
    /// window so short that most slices are empty (the tests' scale) falls
    /// back to the whole-window mean.
    fn median_rate(by_slice: &[u64; SLICES], secs: f64) -> f64 {
        let counts: Vec<f64> = by_slice.iter().map(|&c| c as f64).collect();
        match stats::median(&counts) {
            m if m > 0.0 => m * SLICES as f64 / secs,
            _ => counts.iter().sum::<f64>() / secs,
        }
    }

    fn absorb(&mut self, o: Tally) {
        self.events += o.events;
        self.sessions += o.sessions;
        for k in 0..SLICES {
            self.events_by_slice[k] += o.events_by_slice[k];
            self.sessions_by_slice[k] += o.sessions_by_slice[k];
        }
        self.opened += o.opened;
        self.failed += o.failed;
        self.first_event_ns.extend(o.first_event_ns);
        self.next_ns.extend(o.next_ns);
        self.session_ns.extend(o.session_ns);
        self.open_call_ns.extend(o.open_call_ns);
        self.next_call_ns.extend(o.next_call_ns);
        self.close_call_ns.extend(o.close_call_ns);
        self.digests.extend(o.digests);
        self.empty_polls += o.empty_polls;
        self.late_ns_max = self.late_ns_max.max(o.late_ns_max);
    }
}

/// When a driver measures: sessions and events count between `from` and
/// `until`; after `until` nothing new is opened and what is in flight is
/// driven to completion. The window is cut into [`SLICES`] equal slices —
/// the serving form of the measuring rule: a rate is the median slice's,
/// so a half-second stall of the VM does not set it.
#[derive(Clone, Copy)]
struct Window {
    from: Instant,
    until: Instant,
}

const SLICES: usize = 30;

impl Window {
    fn holds(&self, t: Instant) -> bool {
        self.from <= t && t < self.until
    }

    /// Index of the slice `t` falls in, if it is inside the window.
    fn slice_of(&self, t: Instant) -> Option<usize> {
        let span = (self.until - self.from).as_secs_f64();
        self.holds(t)
            .then(|| (((t - self.from).as_secs_f64() / span) * SLICES as f64) as usize)
            .map(|k| k.min(SLICES - 1))
    }
}

/// Which sessions a client thread opens: thread `t` of `n` takes seed
/// indices `t, t + n, t + 2n, …`, each mapped to a seed by the run seed.
struct Seeds {
    run_seed: u64,
    next_idx: u64,
    stride: u64,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seeds {
    fn take(&mut self) -> (u64, u64) {
        let idx = self.next_idx;
        self.next_idx += self.stride;
        (
            idx,
            splitmix64(self.run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ idx),
        )
    }
}

struct Live {
    id: u64,
    seed_idx: u64,
    seed: u64,
    /// When the `Open` was sent — or, in the open loop, was due.
    sent_at: Instant,
    measured: bool,
    got_first: bool,
    failed: bool,
    digest: Fnv,
}

/// Sends one `Open` and files the session.
fn open_one<T: Transport>(
    t: &mut T,
    shape: &Shape,
    seeds: &mut Seeds,
    sent_at: Instant,
    measured: bool,
    live: &mut VecDeque<Live>,
    tally: &mut Tally,
) -> Res<()> {
    let (seed_idx, seed) = seeds.take();
    tally.opened += 1;
    let called = Instant::now();
    match t.open(seed, shape, seed_idx) {
        Ok(id) => {
            tally.open_call_ns.push(called.elapsed().as_nanos() as f64);
            live.push_back(Live {
                id,
                seed_idx,
                seed,
                sent_at,
                measured,
                got_first: false,
                failed: false,
                digest: Fnv::new(),
            });
            Ok(())
        }
        // Shed or refused: a failed operation, not a broken run.
        Err(Fail::Session(_)) => {
            tally.failed += 1;
            Ok(())
        }
        Err(Fail::Transport(e)) => Err(e),
    }
}

/// Polls the session at the head of `live` once; finished sessions are
/// closed and tallied, the others go to the back of the queue.
fn poll_one<T: Transport>(
    t: &mut T,
    shape: &Shape,
    wait_ms: u64,
    window: &Window,
    live: &mut VecDeque<Live>,
    tally: &mut Tally,
    scratch: &mut Vec<u8>,
) -> Res<()> {
    let Some(mut s) = live.pop_front() else {
        return Ok(());
    };
    let called = Instant::now();
    let (events, finished) = match t.next(s.id, shape.next_max, wait_ms, s.seed_idx) {
        Ok(batch) => batch,
        Err(Fail::Session(_)) => {
            // The session is gone or broken server-side; closing is best
            // effort and its outcome does not matter any more.
            let _ = t.close(s.id, s.seed_idx);
            tally.failed += 1;
            return Ok(());
        }
        Err(Fail::Transport(e)) => return Err(e),
    };
    let now = Instant::now();
    let call_ns = (now - called).as_nanos() as f64;
    tally.next_call_ns.push(call_ns);
    let data = events.iter().filter(|e| !e.is_failure()).count() as u64;
    s.failed |= data != events.len() as u64;
    if data > 0 {
        if let Some(k) = window.slice_of(now) {
            tally.events += data;
            tally.events_by_slice[k] += data;
            tally.next_ns.push(call_ns);
        }
        if !s.got_first {
            s.got_first = true;
            if s.measured {
                tally
                    .first_event_ns
                    .push((now - s.sent_at).as_nanos() as f64);
            }
        }
        if s.seed_idx < DIGESTED {
            for ev in &events {
                scratch.clear();
                wire::encode_event(ev, scratch);
                s.digest.eat(scratch);
            }
        }
    } else if !finished {
        tally.empty_polls += 1;
    }
    if !finished {
        live.push_back(s);
        return Ok(());
    }
    let called = Instant::now();
    match t.close(s.id, s.seed_idx) {
        Ok(()) => {}
        Err(Fail::Session(_)) => s.failed = true,
        Err(Fail::Transport(e)) => return Err(e),
    }
    let now = Instant::now();
    tally.close_call_ns.push((now - called).as_nanos() as f64);
    // A session with no event at all never produced what it was for.
    if s.failed || !s.got_first {
        tally.failed += 1;
        return Ok(());
    }
    if let Some(k) = window.slice_of(now) {
        tally.sessions += 1;
        tally.sessions_by_slice[k] += 1;
    }
    if s.measured {
        tally.session_ns.push((now - s.sent_at).as_nanos() as f64);
    }
    if s.seed_idx < DIGESTED {
        tally.digests.push((s.seed_idx, s.seed, s.digest.0));
    }
    Ok(())
}

/// Closed loop: keep `in_flight` sessions open, poll them round-robin, and
/// replace each one that finishes.
fn closed_loop<T: Transport>(
    t: &mut T,
    shape: &Shape,
    in_flight: usize,
    window: Window,
    mut seeds: Seeds,
) -> Res<Tally> {
    let mut tally = Tally::default();
    let mut live = VecDeque::with_capacity(in_flight);
    let mut scratch = Vec::new();
    loop {
        // A refused open ends the refill for this turn, so that a server
        // refusing every open cannot keep the client from polling what is
        // in flight or from seeing the window end.
        let mut refused = false;
        while !refused && live.len() < in_flight {
            let sent_at = Instant::now();
            if sent_at >= window.until {
                break;
            }
            let before = live.len();
            open_one(
                t,
                shape,
                &mut seeds,
                sent_at,
                window.holds(sent_at),
                &mut live,
                &mut tally,
            )?;
            refused = live.len() == before;
        }
        if live.is_empty() {
            if refused {
                continue;
            }
            return Ok(tally);
        }
        poll_one(
            t,
            shape,
            shape.wait_ms,
            &window,
            &mut live,
            &mut tally,
            &mut scratch,
        )?;
    }
}

/// A fixed-rate arrival schedule, in nanoseconds since its start. Pure
/// arithmetic over the clock readings it is handed, so a test can drive
/// it with a fake clock.
#[derive(Debug)]
pub struct Schedule {
    interval_ns: u64,
    offset_ns: u64,
    total: u64,
    sent: u64,
    late_max_ns: u64,
}

impl Schedule {
    /// `total` arrivals, one every `interval_ns`, the first at `offset_ns`.
    pub fn new(interval_ns: u64, offset_ns: u64, total: u64) -> Schedule {
        Schedule {
            interval_ns,
            offset_ns,
            total,
            sent: 0,
            late_max_ns: 0,
        }
    }

    /// Due time of the next arrival, or `None` when all have been taken.
    pub fn next_due_ns(&self) -> Option<u64> {
        (self.sent < self.total).then(|| self.offset_ns + self.sent * self.interval_ns)
    }

    /// Takes the next arrival if it is due at `now_ns` and returns its due
    /// time. The generator's lateness is accounted against that due time:
    /// an arrival taken late is still timed from when it should have
    /// gone out, so a stall charges every arrival it delayed.
    pub fn take_due(&mut self, now_ns: u64) -> Option<u64> {
        let due = self.next_due_ns().filter(|&due| due <= now_ns)?;
        self.sent += 1;
        self.late_max_ns = self.late_max_ns.max(now_ns - due);
        Some(due)
    }

    pub fn late_max_ns(&self) -> u64 {
        self.late_max_ns
    }
}

/// Open loop: open sessions when the schedule says so, whatever the state
/// of the ones in flight, and poll those without blocking in between.
fn open_loop<T: Transport>(
    t: &mut T,
    shape: &Shape,
    start: Instant,
    mut schedule: Schedule,
    mut seeds: Seeds,
) -> Res<Tally> {
    let mut tally = Tally::default();
    let mut live = VecDeque::new();
    let mut scratch = Vec::new();
    // Everything the open loop starts is measured.
    let window = Window {
        from: start,
        until: start + Duration::from_secs(3600),
    };
    loop {
        let now_ns = start.elapsed().as_nanos() as u64;
        if let Some(due_ns) = schedule.take_due(now_ns) {
            let due_at = start + Duration::from_nanos(due_ns);
            open_one(t, shape, &mut seeds, due_at, true, &mut live, &mut tally)?;
        } else if !live.is_empty() {
            poll_one(t, shape, 0, &window, &mut live, &mut tally, &mut scratch)?;
        } else if let Some(due_ns) = schedule.next_due_ns() {
            std::thread::sleep(Duration::from_nanos(due_ns - now_ns));
        } else {
            tally.late_ns_max = schedule.late_max_ns();
            return Ok(tally);
        }
    }
}

// ---------------------------------------------------------------------------
// Running a phase on client threads
// ---------------------------------------------------------------------------

/// Runs `drive` on each client thread and merges what they saw. Every
/// thread is joined before an error is reported, so a failing client never
/// leaves the others (or the server) running unattended.
/// Client threads, one connection each: never more than the cores there
/// are to run them.
fn client_threads() -> usize {
    sys::nproc().min(2)
}

fn on_clients(release: &AtomicBool, drive: impl Fn(usize) -> Res<Tally> + Sync) -> Res<Tally> {
    let results: Vec<Res<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..client_threads())
            .map(|i| {
                let drive = &drive;
                scope.spawn(move || {
                    sys::exclude_thread_from_alloc_count();
                    let tally = drive(i);
                    // Stay alive until the main thread has read the
                    // per-task counters in /proc.
                    while !release.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    span::flush_thread();
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Tally::default();
    for r in results {
        all.absorb(r?);
    }
    Ok(all)
}

fn seeds_for(p: &Params, thread: usize, first_idx: u64) -> Seeds {
    Seeds {
        run_seed: p.seed,
        next_idx: first_idx + thread as u64,
        stride: client_threads() as u64,
    }
}

/// Closed loop over sockets for `window`, one connection per thread.
fn socket_phase(
    server: &Running,
    p: &Params,
    shape: &Shape,
    window: Window,
    first_idx: u64,
    release: &AtomicBool,
) -> Res<Tally> {
    on_clients(release, |i| {
        let _root = span::enter("client.thread", 0);
        let mut conn = Conn::connect(server.addr)?;
        let in_flight = IN_FLIGHT / client_threads();
        closed_loop(
            &mut conn,
            shape,
            in_flight,
            window,
            seeds_for(p, i, first_idx),
        )
    })
}

fn check_digests(model: &CptGpt, shape: &Shape, tally: &Tally) -> Res<String> {
    let mut seen: Vec<(u64, u64, u64)> = tally.digests.clone();
    seen.sort_unstable();
    if seen.len() as u64 != DIGESTED.min(tally.opened) {
        return Err(format!(
            "{} of the first {DIGESTED} sessions completed",
            seen.len()
        ));
    }
    let mut all = Fnv::new();
    let mut scratch = Vec::new();
    for (idx, seed, got) in seen {
        let mut decoder = model
            .open_session(shape.params(seed))
            .map_err(|e| format!("direct decode of session {idx}: {e}"))?;
        let mut want = Fnv::new();
        while let Some(ev) = decoder.next_event(model) {
            scratch.clear();
            wire::encode_event(&SessionEvent::Data(ev), &mut scratch);
            want.eat(&scratch);
        }
        if want.0 != got {
            return Err(format!(
                "session {idx} (seed {seed}): bytes over the socket differ from a direct decode"
            ));
        }
        all.eat(&got.to_le_bytes());
    }
    Ok(all.hex())
}

fn percentile_ms(samples: &mut [f64], p: f64) -> f64 {
    stats::sort(samples);
    stats::nearest_rank(samples, p) / 1e6
}

fn median_us(samples: &mut [f64]) -> f64 {
    stats::sort(samples);
    stats::nearest_rank(samples, 50.0) / 1e3
}

pub fn run(kind: Kind, p: &Params) -> Res<Outcome> {
    let mut out = Outcome::default();
    let shape = kind.shape();
    let no_wait = AtomicBool::new(true);
    let warmup = Duration::from_secs_f64(0.5 * p.scale);

    // Set-up: synthesise, train the model, bind, connect, and push enough
    // traffic through to fill the decode-state free list and fault in the
    // per-connection buffers.
    let clock = Instant::now();
    let server = Running::start(Arc::new(train_model(kind, p)?))?;
    let now = Instant::now();
    let nothing_measured = Window {
        from: now + warmup,
        until: now + warmup,
    };
    let warm = socket_phase(&server, p, &shape, nothing_measured, 0, &no_wait)?;
    if warm.failed > 0 {
        return Err(format!("{} warm-up sessions failed", warm.failed));
    }
    out.put("setup_s", clock.elapsed().as_secs_f64(), "s");

    // Measured phase: a short ramp while all 64 sessions open at once,
    // then the window. The main thread only samples counters.
    let release = AtomicBool::new(false);
    let now = Instant::now();
    let window = Window {
        from: now + warmup,
        until: now + warmup + p.budget(),
    };
    let (mut tally, procs, allocs, snapshot) = std::thread::scope(|scope| -> Res<_> {
        let clients = scope.spawn(|| socket_phase(&server, p, &shape, window, 0, &release));
        std::thread::sleep(window.from.saturating_duration_since(Instant::now()));
        let proc_before = ProcSample::now();
        let alloc_before = sys::alloc_counts();
        std::thread::sleep(window.until.saturating_duration_since(Instant::now()));
        let alloc_after = sys::alloc_counts();
        let procs = ProcSample::now().since(&proc_before);
        let allocs = (
            alloc_after.0 - alloc_before.0,
            alloc_after.1 - alloc_before.1,
        );
        let snapshot = server.handle.stats();
        release.store(true, Ordering::Release);
        let tally = clients
            .join()
            .map_err(|_| "client driver panicked".to_string())??;
        Ok((tally, procs, allocs, snapshot))
    })?;

    let secs = p.budget().as_secs_f64();
    let serve_digest = check_digests(&server.model, &shape, &tally)?;
    out.ops_attempted = tally.opened;
    out.ops_failed = tally.failed;
    if tally.sessions == 0 || tally.first_event_ns.is_empty() {
        return Err("no session completed inside the measured window".into());
    }
    let events_per_s = Tally::median_rate(&tally.events_by_slice, secs);
    let sessions_per_s = Tally::median_rate(&tally.sessions_by_slice, secs);
    let n_first = tally.first_event_ns.len() as f64;
    let first_p50 = percentile_ms(&mut tally.first_event_ns, 50.0);
    let session_p50 = percentile_ms(&mut tally.session_ns, 50.0);
    match kind {
        Kind::Steady => {
            out.put_slot("primary_rate", "serve_events_per_s", events_per_s);
            out.put_slot("secondary_rate", "serve_sessions_per_s", sessions_per_s);
            out.put_slot("op_ms_p50", "first_event_ms_p50", first_p50);
            out.put("session_ms_p50", session_p50, "ms");
        }
        Kind::Churn => {
            out.put_slot("primary_rate", "serve_sessions_per_s", sessions_per_s);
            out.put_slot("secondary_rate", "serve_events_per_s", events_per_s);
            out.put_slot("op_ms_p50", "session_ms_p50", session_p50);
            out.put("first_event_ms_p50", first_p50, "ms");
        }
    }
    let tail = stats::supported_tail(tally.first_event_ns.len()).unwrap_or(50.0);
    out.put_noted(
        "first_event_ms_p99",
        percentile_ms(&mut tally.first_event_ns, 99.0),
        "ms",
        &[("samples", n_first), ("highest_supported_percentile", tail)],
    );
    let n_next = tally.next_ns.len() as f64;
    out.put_noted(
        "next_ms_p99",
        percentile_ms(&mut tally.next_ns, 99.0),
        "ms",
        &[("samples", n_next)],
    );
    out.put("serve_events", tally.events as f64, "count");
    out.put("serve_sessions", tally.sessions as f64, "count");
    out.quality("serve_digest", serve_digest);

    out.put_proc(&procs, tally.events as f64);
    if p.trace {
        out.put(
            "alloc.allocs_per_served_event",
            allocs.0 as f64 / tally.events.max(1) as f64,
            "count",
        );
        out.put(
            "alloc.bytes_per_served_event",
            allocs.1 as f64 / tally.events.max(1) as f64,
            "B",
        );
    }
    let s = snapshot;
    for (name, value, unit) in [
        ("batch_p50", s.batch_p50, "count"),
        ("batch_p99", s.batch_p99, "count"),
        ("batch_peak", s.batch_peak, "count"),
        ("batch_rounds", s.batch_rounds, "count"),
        ("batched_tokens", s.batched_tokens, "count"),
        ("sequential_tokens", s.sequential_tokens, "count"),
        ("slices", s.slices, "count"),
        ("slice_p50_us", s.slice_p50_us, "us"),
        ("slice_p99_us", s.slice_p99_us, "us"),
        ("free_states", s.free_states, "count"),
        ("sessions_shed", s.sessions_shed, "count"),
        ("shard_runnable_max", s.shard_runnable_max, "count"),
        ("shard_runnable_min", s.shard_runnable_min, "count"),
    ] {
        out.put(format!("serve.{name}"), value as f64, unit);
    }

    if p.trace {
        diagnostics(kind, p, &server, &shape, &mut out)?;
    }
    let mut server = server;
    server.shutdown()?;
    Ok(out)
}

/// The traced run's extras: the socket round trip on its own, the same
/// load straight into an engine, and (for `serve_churn`) the open loop.
fn diagnostics(
    kind: Kind,
    p: &Params,
    server: &Running,
    shape: &Shape,
    out: &mut Outcome,
) -> Res<()> {
    // These are measurements of their own, not part of the traced run.
    span::pause();
    let transport = |f: Fail| match f {
        Fail::Session(e) | Fail::Transport(e) => e,
    };
    // Round trip of a request the server answers without decoding: `Next`
    // on a session that has finished and been drained.
    let mut conn = Conn::connect(server.addr)?;
    let id = conn
        .open(p.seed ^ 0xD1A6, shape, u64::MAX)
        .map_err(transport)?;
    while !conn
        .next(id, shape.next_max, shape.wait_ms, u64::MAX)
        .map_err(transport)?
        .1
    {}
    let mut rtt = Vec::new();
    for _ in 0..p.scaled(4000, 50) {
        let t = Instant::now();
        conn.next(id, shape.next_max, 0, u64::MAX)
            .map_err(transport)?;
        rtt.push(t.elapsed().as_nanos() as f64);
    }
    conn.close(id, u64::MAX).map_err(transport)?;
    drop(conn);
    out.put("serve.socket_rtt_us", median_us(&mut rtt), "us");

    // The same closed loop with no socket and no codec.
    let released = AtomicBool::new(true);
    let engine = Engine::start(Arc::clone(&server.model), ServeConfig::new(sys::nproc()))
        .map_err(|e| format!("engine: {e}"))?;
    let now = Instant::now();
    let span_s = 0.2 * p.budget().as_secs_f64();
    let window = Window {
        from: now,
        until: now + Duration::from_secs_f64(span_s),
    };
    let handle = engine.handle();
    let direct = on_clients(&released, |i| {
        closed_loop(
            &mut Direct(handle.clone()),
            shape,
            IN_FLIGHT / client_threads(),
            window,
            seeds_for(p, i, 1 << 32),
        )
    });
    engine.shutdown();
    let mut direct = direct?;
    out.put(
        "serve.engine_events_per_s",
        direct.events as f64 / span_s,
        "1/s",
    );
    out.put(
        "serve.engine_sessions_per_s",
        direct.sessions as f64 / span_s,
        "1/s",
    );
    out.put(
        "serve.engine_open_us",
        median_us(&mut direct.open_call_ns),
        "us",
    );
    out.put(
        "serve.engine_next_us",
        median_us(&mut direct.next_call_ns),
        "us",
    );
    out.put(
        "serve.engine_close_us",
        median_us(&mut direct.close_call_ns),
        "us",
    );

    if kind == Kind::Churn {
        let span_s = 0.6 * p.budget().as_secs_f64();
        let threads = client_threads() as u64;
        let interval_ns = (1e9 * threads as f64 / OPEN_LOOP_RATE) as u64;
        let total = (span_s * OPEN_LOOP_RATE / threads as f64) as u64;
        let start = Instant::now();
        let mut open = on_clients(&released, |i| {
            let mut conn = Conn::connect(server.addr)?;
            // Threads interleave: thread i's arrivals sit i/n of an
            // interval after thread 0's.
            let schedule = Schedule::new(interval_ns, interval_ns * i as u64 / threads, total);
            open_loop(&mut conn, shape, start, schedule, seeds_for(p, i, 1 << 33))
        })?;
        let n = open.first_event_ns.len() as f64;
        out.put_noted(
            "serve.openloop_first_event_ms_p50",
            percentile_ms(&mut open.first_event_ns, 50.0),
            "ms",
            &[("samples", n), ("rate_per_s", OPEN_LOOP_RATE)],
        );
        out.put(
            "serve.openloop_first_event_ms_p99",
            percentile_ms(&mut open.first_event_ns, 99.0),
            "ms",
        );
        out.put(
            "serve.openloop_session_ms_p50",
            percentile_ms(&mut open.session_ns, 50.0),
            "ms",
        );
        out.put(
            "serve.openloop_late_ms_max",
            open.late_ns_max as f64 / 1e6,
            "ms",
        );
        out.put(
            "serve.openloop_empty_polls",
            open.empty_polls as f64,
            "count",
        );
        out.ops_attempted += open.opened;
        out.ops_failed += open.failed;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that refuses every `Open`.
    struct Refusing;

    impl Transport for Refusing {
        fn open(&mut self, _seed: u64, _shape: &Shape, _op: u64) -> Result<u64, Fail> {
            Err(Fail::Session("Overloaded: admission full".into()))
        }
        fn next(
            &mut self,
            _id: u64,
            _max: usize,
            _wait_ms: u64,
            _op: u64,
        ) -> Result<(Vec<SessionEvent>, bool), Fail> {
            unreachable!("no session was ever opened")
        }
        fn close(&mut self, _id: u64, _op: u64) -> Result<(), Fail> {
            unreachable!("no session was ever opened")
        }
    }

    #[test]
    fn a_server_refusing_every_open_fails_sessions_and_the_run_still_ends() {
        let now = Instant::now();
        let window = Window {
            from: now,
            until: now + Duration::from_millis(20),
        };
        let seeds = Seeds {
            run_seed: 1,
            next_idx: 0,
            stride: 1,
        };
        let tally = closed_loop(&mut Refusing, &Kind::Churn.shape(), 32, window, seeds).unwrap();
        assert!(Instant::now() >= window.until, "it kept trying to the end");
        assert!(tally.opened > 0);
        assert_eq!(tally.failed, tally.opened, "each refusal is a failed op");
        assert_eq!(tally.sessions, 0);
    }

    #[test]
    fn schedule_releases_arrivals_when_due_and_never_early() {
        // 4 arrivals, one per 250 ns, the first at 100 ns.
        let mut s = Schedule::new(250, 100, 4);
        assert_eq!(s.next_due_ns(), Some(100));
        assert_eq!(s.take_due(99), None, "nothing is due before its time");
        assert_eq!(s.take_due(100), Some(100));
        assert_eq!(s.late_max_ns(), 0);
        assert_eq!(s.take_due(100), None, "the second arrival is due at 350");
        assert_eq!(s.next_due_ns(), Some(350));
    }

    #[test]
    fn a_stalled_generator_is_charged_from_the_intended_instant() {
        let mut s = Schedule::new(250, 100, 4);
        assert_eq!(s.take_due(100), Some(100));
        // The generator stalls until t = 1000: arrivals 2–4 were due at
        // 350, 600 and 850 and are released back to back, each timed from
        // its own due time, not from when the generator woke up.
        assert_eq!(s.take_due(1000), Some(350));
        assert_eq!(s.late_max_ns(), 650);
        assert_eq!(s.take_due(1010), Some(600));
        assert_eq!(s.take_due(1020), Some(850));
        assert_eq!(s.late_max_ns(), 650, "the worst lateness is kept");
        assert_eq!(s.take_due(5000), None, "all four have gone out");
        assert_eq!(s.next_due_ns(), None);
    }
}
