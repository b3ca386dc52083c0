//! The TCP front end: length-prefixed binary frames
//! ([`crate::protocol::wire`]) over std-thread networking.
//!
//! One thread per connection (capped), each multiplexing any number of
//! sessions over the shared [`Engine`] — the decode work itself always
//! happens on the engine's worker pool, so connection threads only decode,
//! dispatch, and encode.
//!
//! A connection starts with the client's two-byte preamble; a wrong magic
//! or version byte gets one typed `InvalidRequest` frame and the
//! connection closes. So does a connection past
//! [`ServeConfig::max_connections`], with a typed `Overloaded` frame.
//! Responses are encoded into pooled buffers ([`crate::pool::BufferPool`]),
//! so steady state allocates nothing per response. All sockets run with
//! `TCP_NODELAY`: responses are latency-sensitive single writes, already
//! batched by the `BufWriter`, and Nagle coalescing only adds tail latency.
//!
//! Disconnect policy is *crash-only*: by default a connection that dies
//! has all its still-open sessions closed for it, so abandoned clients
//! cannot leak session slots. A client that sends `detach` first instead
//! gets a capability token, and on disconnect its sessions park under
//! that token (TTL-bounded, still decoding until their queues fill); a
//! new connection presenting the token resumes them byte-identically.
//!
//! Shutdown is by state, not by polling: one connection table holds every
//! live connection's socket and the stop flag under one lock. The
//! `shutdown` verb (or [`Server::stopper`]) sets the flag and shuts every
//! registered socket down, which ends a blocked read or write at once, then
//! self-connects to unblock `accept`. A connection accepted after the stop
//! is never registered. `run` waits on the table until the last
//! connection has left. Reads carry no timeout.
//!
//! Chaos: when a [`ChaosPlan`] schedules it, the accept loop numbers
//! connections and the read loop numbers requests, so connection drops
//! land at exact, reproducible coordinates.

#![deny(clippy::unwrap_used)]

use crate::chaos::ChaosPlan;
use crate::engine::{DetachToken, Engine, ServeConfig, ServeHandle, SessionId};
use crate::error::ServeError;
use crate::lifecycle::Director;
use crate::metrics::{Counter, StatsSnapshot};
use crate::pool::BufferPool;
use crate::protocol::wire;
use crate::protocol::{ErrorKind, Request, Response, VersionInfo};
use crate::registry::Registry;
use cpt_gpt::{CptGpt, StreamParams};
use std::collections::{HashMap, HashSet};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// TCP server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:9000` (port 0 picks a free port).
    pub addr: String,
    /// Engine + front-end configuration (workers, caps, watermarks,
    /// connection cap, detach TTL).
    pub serve: ServeConfig,
    /// Deterministic fault injection; `ChaosPlan::default()` is a no-op.
    pub chaos: ChaosPlan,
    /// Model-registry root directory. `Some` enables the lifecycle verbs
    /// (`publish`/`rollback`/`versions`): the bootstrap model is imported
    /// as the first version if the registry is empty, and the registry's
    /// live version is served otherwise (the `--model` flag is then only
    /// the bootstrap source). The live artifact sits at
    /// `DIR/versions/vNNNN/model.cmb`, the base a `cptgen train --from`
    /// fine-tune reads. `None` serves the given model, and the lifecycle
    /// verbs answer `no_registry`.
    pub registry: Option<std::path::PathBuf>,
}

impl ServerConfig {
    /// Defaults: the given address, engine defaults for `workers` workers,
    /// no chaos, no registry.
    pub fn new(addr: impl Into<String>, workers: usize) -> Self {
        ServerConfig {
            addr: addr.into(),
            serve: ServeConfig::new(workers),
            chaos: ChaosPlan::default(),
            registry: None,
        }
    }
}

/// A bound, running generation server.
pub struct Server {
    listener: TcpListener,
    engine: Engine,
    director: Option<Arc<Director>>,
    cfg: ServerConfig,
    conns: Arc<ConnTable>,
}

/// The server's one connection table: every live connection's socket and
/// the stop flag, under one lock. A connection is either registered before
/// the stop, and shut down by it, or never registered.
#[derive(Default)]
struct ConnTable {
    state: Mutex<Conns>,
    /// Signalled whenever a connection leaves; `run` waits here after the
    /// stop for the table to empty.
    left: Condvar,
}

#[derive(Default)]
struct Conns {
    stopping: bool,
    /// Live connections by accept index.
    open: HashMap<u64, Arc<TcpStream>>,
}

/// The accept loop's verdict on a new connection.
enum Admit {
    Serve,
    OverCap,
    Stopping,
}

impl ConnTable {
    fn lock(&self) -> MutexGuard<'_, Conns> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers connection `idx` unless the server is stopping or `cap`
    /// connections are live.
    fn admit(&self, idx: u64, stream: &Arc<TcpStream>, cap: usize) -> Admit {
        let mut c = self.lock();
        if c.stopping {
            Admit::Stopping
        } else if c.open.len() >= cap {
            Admit::OverCap
        } else {
            c.open.insert(idx, Arc::clone(stream));
            Admit::Serve
        }
    }

    fn leave(&self, idx: u64) {
        self.lock().open.remove(&idx);
        self.left.notify_all();
    }

    /// Sets the stop flag and shuts every live socket down: a blocked
    /// read returns end-of-file and a blocked write fails.
    fn stop(&self) {
        let mut c = self.lock();
        c.stopping = true;
        for s in c.open.values() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Blocks until no connection is registered.
    fn wait_empty(&self) {
        let mut c = self.lock();
        while !c.open.is_empty() {
            c = match self.left.wait(c) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

impl Server {
    /// Starts the engine and binds the listener. The engine is live (and
    /// the port reachable) when this returns.
    ///
    /// With [`ServerConfig::registry`] set, the registry is opened (and
    /// crash-recovered) first: an empty registry imports `model` as the
    /// first version through the full validation gate; a populated one
    /// serves its durable live version instead, so a restart always comes
    /// back on exactly what the last successful promotion published.
    pub fn bind(model: Arc<CptGpt>, cfg: ServerConfig) -> Result<Server, ServeError> {
        let (engine, director) = match &cfg.registry {
            None => (
                Engine::start_versioned(model, 1, cfg.serve, cfg.chaos)?,
                None,
            ),
            Some(root) => {
                let (mut registry, report) = Registry::open_with_chaos(root, cfg.chaos)?;
                let (version, live_model) = if registry.is_empty() {
                    let id = registry.stage(&model, "bootstrap import")?;
                    let validated = registry.validate(id)?;
                    registry.promote(id)?;
                    (id, Arc::new(validated))
                } else {
                    let (id, m) = registry.load_live()?;
                    (id, Arc::new(m))
                };
                let engine = Engine::start_versioned(live_model, version, cfg.serve, cfg.chaos)?;
                for _ in &report.quarantined {
                    engine.handle().count(Counter::VersionsQuarantined);
                }
                let director = Director::new(registry, engine.handle(), cfg.chaos)?;
                (engine, Some(Arc::new(director)))
            }
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server {
            listener,
            engine,
            director,
            cfg,
            conns: Arc::new(ConnTable::default()),
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// A library handle onto the same engine (used by in-process tests).
    pub fn handle(&self) -> ServeHandle {
        self.engine.handle()
    }

    /// The lifecycle director, when the server was bound with a registry
    /// (used by in-process tests and the CLI wait loop).
    pub fn director(&self) -> Option<Arc<Director>> {
        self.director.clone()
    }

    /// A stop trigger usable from another thread: stops the connection
    /// table and self-connects to unblock `accept`.
    pub fn stopper(&self) -> impl Fn() + Send + Sync + 'static {
        let conns = Arc::clone(&self.conns);
        let addr = self.listener.local_addr();
        move || {
            conns.stop();
            if let Ok(addr) = addr {
                let _ = TcpStream::connect(addr);
            }
        }
    }

    /// Serves connections until `shutdown` is requested, then waits for
    /// the connection threads to leave, stops the engine, and returns the
    /// final stats.
    pub fn run(self) -> Result<StatsSnapshot, ServeError> {
        let cap = self.cfg.serve.max_connections;
        let mut conn_idx: u64 = 0;
        for stream in self.listener.incoming() {
            let stream = match stream {
                Ok(s) => Arc::new(s),
                Err(_) => continue,
            };
            // Responses are single buffered writes; Nagle only delays them.
            let _ = stream.set_nodelay(true);
            match self.conns.admit(conn_idx, &stream, cap) {
                Admit::Stopping => break,
                Admit::OverCap => {
                    // Off the accept loop: the refusal lingers for the close.
                    let _ = std::thread::Builder::new()
                        .name("cpt-serve-refuse".to_string())
                        .spawn(move || refuse_connection(&stream, cap));
                    continue;
                }
                Admit::Serve => {}
            }
            let handle = self.engine.handle();
            let director = self.director.clone();
            let stopper = self.stopper();
            let conn = ConnContext {
                idx: conn_idx,
                chaos: self.cfg.chaos,
                conns: Arc::clone(&self.conns),
            };
            conn_idx += 1;
            // A failed spawn drops the closure, and `conn` with it.
            let _ = std::thread::Builder::new()
                .name("cpt-serve-conn".to_string())
                .spawn(move || {
                    handle_connection(&stream, &handle, director.as_deref(), &stopper, conn)
                });
        }
        self.conns.wait_empty();
        // Flush lifecycle persistence before stopping the engine, so a
        // retirement or trip-wire demotion the engine already raised lands
        // durably rather than being torn off mid-flight.
        if let Some(d) = &self.director {
            d.shutdown();
        }
        let stats = self.engine.handle().stats();
        self.engine.shutdown();
        Ok(stats)
    }
}

/// Answers a connection past the cap with one typed `Overloaded` frame,
/// then closes it. The frame is written before the preamble is read: a
/// client reads it as the reply to whatever it sent first.
fn refuse_connection(stream: &TcpStream, cap: usize) -> std::io::Result<()> {
    let resp = Response::Error {
        kind: ErrorKind::Overloaded,
        message: format!("too many connections (cap {cap})"),
    };
    write_last_response(
        &mut BufWriter::new(stream),
        &resp,
        &BufferPool::for_connection(),
    )
}

/// Encodes a response into a pooled frame buffer and writes it as one
/// length-prefixed frame.
fn write_response(
    w: &mut BufWriter<&TcpStream>,
    resp: &Response,
    pool: &Arc<BufferPool>,
) -> std::io::Result<()> {
    let mut buf = pool.get();
    wire::encode_response(resp, &mut buf).map_err(std::io::Error::other)?;
    wire::write_frame(w, &buf)?;
    w.flush()
}

/// How long [`write_last_response`] waits for the client to close.
const LAST_FRAME_LINGER: Duration = Duration::from_secs(1);

/// Writes a connection's last frame, sends FIN behind it, then discards
/// whatever the client still sends until it closes, for at most
/// [`LAST_FRAME_LINGER`]. Closing a socket with unread input makes the
/// kernel send RST, which drops any of the frame not yet transmitted;
/// draining first lets the close be a plain FIN. A client that keeps
/// sending past the linger can still be reset.
fn write_last_response(
    w: &mut BufWriter<&TcpStream>,
    resp: &Response,
    pool: &Arc<BufferPool>,
) -> std::io::Result<()> {
    write_response(w, resp, pool)?;
    let mut s: &TcpStream = w.get_ref();
    s.shutdown(Shutdown::Write)?;
    let deadline = Instant::now() + LAST_FRAME_LINGER;
    let mut sink = [0u8; 256];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(());
        }
        s.set_read_timeout(Some(left))?;
        match s.read(&mut sink) {
            Ok(0) | Err(_) => return Ok(()),
            Ok(_) => {}
        }
    }
}

/// Per-connection context the accept loop hands to the connection thread.
/// Dropping it takes the connection out of the table; `handle_connection`
/// owns it, so that happens after the connection's sessions were closed or
/// parked, on return and on unwind alike.
struct ConnContext {
    /// 0-based accept index: the table key and the chaos drop coordinate.
    idx: u64,
    chaos: ChaosPlan,
    conns: Arc<ConnTable>,
}

impl Drop for ConnContext {
    fn drop(&mut self) {
        self.conns.leave(self.idx);
    }
}

/// What this connection owns and how its disconnect should be handled.
struct ConnState {
    /// Sessions opened (or reattached) on this connection.
    owned: HashSet<u64>,
    /// Set once the client arms `detach`: on disconnect, owned sessions
    /// park under this token instead of being closed.
    armed: Option<DetachToken>,
}

/// Serves one client: check the preamble, then read a request frame,
/// dispatch, write a response frame, repeat until disconnect or shutdown.
/// On exit, sessions the client left open are closed — or parked under
/// the armed detach token.
fn handle_connection(
    stream: &TcpStream,
    handle: &ServeHandle,
    director: Option<&Director>,
    stopper: &(impl Fn() + Send + Sync),
    conn: ConnContext,
) {
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    let mut state = ConnState {
        owned: HashSet::new(),
        armed: None,
    };
    serve_frames(
        &mut reader,
        &mut writer,
        handle,
        director,
        stopper,
        &conn,
        &mut state,
    );

    match state.armed {
        Some(token) if !state.owned.is_empty() => {
            handle.park_sessions(token, state.owned.iter().map(|&id| SessionId(id)));
        }
        _ => {
            for id in state.owned.drain() {
                let _ = handle.close_session(SessionId(id));
            }
        }
    }
}

/// The preamble check, then the request loop. Frame buffers (inbound
/// payload and outbound responses) come from a per-connection pool, so
/// steady-state request/response cycles allocate nothing.
fn serve_frames(
    reader: &mut BufReader<&TcpStream>,
    writer: &mut BufWriter<&TcpStream>,
    handle: &ServeHandle,
    director: Option<&Director>,
    stopper: &(impl Fn() + Send + Sync),
    conn: &ConnContext,
    state: &mut ConnState,
) {
    let pool = BufferPool::for_connection();
    let mut preamble = [0u8; 2];
    if reader.read_exact(&mut preamble).is_err() {
        return; // closed (or server stopping) before a full preamble
    }
    if let Err(e) = wire::check_preamble(preamble) {
        let resp = Response::Error {
            kind: ErrorKind::InvalidRequest,
            message: e.to_string(),
        };
        let _ = write_last_response(writer, &resp, &pool);
        return;
    }

    let mut payload = pool.get();
    let mut req_idx: u64 = 0;
    loop {
        match wire::read_frame(reader, &mut payload) {
            Ok(false) => return, // clean close at a frame boundary
            Ok(true) => {}
            Err(wire::FrameError::Protocol(e)) => {
                // A malformed frame desynchronizes the stream — answer
                // typed, then drop the connection (resync is impossible).
                let resp = Response::Error {
                    kind: ErrorKind::InvalidRequest,
                    message: format!("bad frame: {e}"),
                };
                let _ = write_last_response(writer, &resp, &pool);
                return;
            }
            Err(wire::FrameError::Io(_)) => return,
        }
        if conn.chaos.should_drop(conn.idx, req_idx) {
            // Hard drop: no response, no goodbye — exactly what a network
            // failure looks like to the disconnect path.
            return;
        }
        req_idx += 1;
        // A well-framed payload that does not decode (unknown opcode, bad
        // field) leaves the stream in sync: answer typed and carry on.
        let (resp, quit) = match wire::decode_request(&payload) {
            Ok(req) => dispatch(req, handle, director, state),
            Err(e) => (
                Response::Error {
                    kind: ErrorKind::InvalidRequest,
                    message: format!("bad request frame: {e}"),
                },
                false,
            ),
        };
        let sent = write_response(writer, &resp, &pool);
        if quit {
            // After the `bye`: the stop shuts this socket down too.
            stopper();
        }
        if sent.is_err() || quit {
            return;
        }
    }
}

/// Executes one request; returns the response and whether the server
/// should stop once it is written (only for `shutdown`).
fn dispatch(
    req: Request,
    handle: &ServeHandle,
    director: Option<&Director>,
    state: &mut ConnState,
) -> (Response, bool) {
    match req {
        Request::Open {
            seed,
            streams,
            device,
            max_stream_len,
        } => {
            let device_type = match device.parse() {
                Ok(d) => d,
                Err(_) => {
                    return (
                        Response::Error {
                            kind: ErrorKind::InvalidRequest,
                            message: format!("unknown device type: {device}"),
                        },
                        false,
                    )
                }
            };
            let mut params = StreamParams::new(seed).streams(streams).device(device_type);
            params.max_stream_len = max_stream_len;
            match handle.open_session(params) {
                Ok(id) => {
                    state.owned.insert(id.0);
                    (Response::Opened { session: id.0 }, false)
                }
                Err(e) => (Response::from_error(&e), false),
            }
        }
        Request::Next {
            session,
            max,
            wait_ms,
        } => {
            // Cap the server-side block so one request cannot pin a
            // connection thread for long.
            let wait = Duration::from_millis(wait_ms.min(10_000));
            match handle.next_events(SessionId(session), max, wait) {
                Ok(batch) => (
                    Response::Events {
                        session,
                        events: batch.events,
                        finished: batch.finished,
                    },
                    false,
                ),
                Err(e) => (Response::from_error(&e), false),
            }
        }
        Request::Close { session } => match handle.close_session(SessionId(session)) {
            Ok(()) => {
                state.owned.remove(&session);
                (Response::Closed { session }, false)
            }
            Err(e) => (Response::from_error(&e), false),
        },
        Request::Detach => {
            // Re-arming reuses the already-minted token so the client's
            // copy stays valid.
            let token = match state.armed {
                Some(t) => t,
                None => {
                    let t = handle.mint_detach_token();
                    state.armed = Some(t);
                    t
                }
            };
            (
                Response::Detached {
                    token: token.to_string(),
                },
                false,
            )
        }
        Request::Reattach { token } => {
            let parsed: Result<DetachToken, _> = token.parse();
            match parsed.and_then(|t| handle.reattach(t)) {
                Ok(ids) => {
                    let sessions: Vec<u64> = ids.iter().map(|id| id.0).collect();
                    state.owned.extend(sessions.iter().copied());
                    (Response::Reattached { sessions }, false)
                }
                Err(e) => (Response::from_error(&e), false),
            }
        }
        Request::Drain { timeout_ms } => {
            // Cap the deadline so a typo cannot pin a connection thread
            // (and therefore a drain) for hours.
            let report = handle.drain(Duration::from_millis(timeout_ms.min(600_000)));
            (
                Response::Drained {
                    completed: report.completed,
                    force_failed: report.force_failed,
                },
                false,
            )
        }
        Request::Stats => (
            Response::Stats {
                stats: Box::new(handle.stats()),
            },
            false,
        ),
        Request::Publish { path, version } => {
            let Some(d) = director else {
                return (Response::from_error(&ServeError::NoRegistry), false);
            };
            let result = match (path, version) {
                (Some(p), None) => d.publish_path(std::path::Path::new(&p)),
                (None, Some(v)) => d.publish_version(v),
                _ => {
                    return (
                        Response::Error {
                            kind: ErrorKind::InvalidRequest,
                            message: "publish takes exactly one of `path` or `version`".to_string(),
                        },
                        false,
                    )
                }
            };
            match result {
                Ok(out) => (
                    Response::Published {
                        version: out.version,
                        previous: out.previous,
                    },
                    false,
                ),
                Err(e) => (Response::from_error(&e), false),
            }
        }
        Request::Rollback => {
            let Some(d) = director else {
                return (Response::from_error(&ServeError::NoRegistry), false);
            };
            match d.rollback() {
                Ok((demoted, live)) => (Response::RolledBack { demoted, live }, false),
                Err(e) => (Response::from_error(&e), false),
            }
        }
        Request::Versions => {
            let Some(d) = director else {
                return (Response::from_error(&ServeError::NoRegistry), false);
            };
            let (live, records) = d.versions();
            let per_version = handle.sessions_per_version();
            let versions = records
                .into_iter()
                .map(|r| {
                    let sessions = per_version
                        .iter()
                        .find(|(v, _)| *v == r.id)
                        .map(|(_, n)| *n)
                        .unwrap_or(0);
                    VersionInfo {
                        id: r.id,
                        state: r.state,
                        sessions,
                        note: r.note,
                    }
                })
                .collect();
            (Response::Versions { live, versions }, false)
        }
        Request::Shutdown => (Response::Bye, true),
    }
}

/// Binds and runs a server to completion (the `cptgen serve` entry point).
/// `on_ready` receives the bound address before the accept loop starts —
/// the CLI prints its "listening on" line from it.
pub fn serve(
    model: Arc<CptGpt>,
    cfg: ServerConfig,
    on_ready: impl FnOnce(std::net::SocketAddr),
) -> Result<StatsSnapshot, ServeError> {
    let server = Server::bind(model, cfg)?;
    on_ready(server.local_addr()?);
    server.run()
}
