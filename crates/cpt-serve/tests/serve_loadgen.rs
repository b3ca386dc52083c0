//! Integration tests for the TCP server and the load-generator client:
//! overload shedding surfaces as a typed protocol error (per session and
//! per connection), closes are clean, `/stats` counters move, bad frames
//! and preambles get typed answers, disconnected clients leak nothing, and
//! the engine sustains 1000 concurrent sessions with bit-identical output
//! at 1 and 8 workers (the acceptance criteria, at test scale).

use cpt_gpt::{SessionEvent, StreamParams};
use cpt_serve::client::READ_TIMEOUT;
use cpt_serve::protocol::{wire, ErrorKind, Request, Response};
use cpt_serve::{
    run_loadgen, ChaosPlan, Client, Engine, LoadgenConfig, ServeConfig, Server, ServerConfig,
    SessionId,
};
use cpt_testkit::fixture_model;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A running in-process server plus the means to stop it.
struct TestServer {
    addr: std::net::SocketAddr,
    stop: Box<dyn Fn() + Send + Sync>,
    thread: std::thread::JoinHandle<()>,
    handle: cpt_serve::ServeHandle,
}

fn start_server(serve_cfg: ServeConfig) -> TestServer {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        serve: serve_cfg,
        chaos: ChaosPlan::default(),
        registry: None,
    };
    let server = Server::bind(fixture_model(), cfg).expect("server binds");
    let addr = server.local_addr().expect("bound address");
    let stop = Box::new(server.stopper());
    let handle = server.handle();
    let thread = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    TestServer {
        addr,
        stop,
        thread,
        handle,
    }
}

impl TestServer {
    fn shutdown(self) {
        (self.stop)();
        self.thread.join().expect("server thread joins");
    }
}

/// A connection for what [`Client`] cannot send: raw payloads and a
/// forged preamble. Reads are bounded like the client's, so a server that
/// never answers fails the test instead of hanging it.
fn raw_connect(addr: std::net::SocketAddr, preamble: [u8; 2]) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("set nodelay");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("set read timeout");
    (&stream).write_all(&preamble).expect("write preamble");
    stream
}

/// Sends one raw payload as a frame.
fn write_raw(stream: &TcpStream, payload: &[u8]) {
    wire::write_frame(&mut &*stream, payload).expect("write frame");
}

/// The next response frame on a raw connection, or `None` once the server
/// has closed it.
fn read_raw(stream: &TcpStream) -> Option<Response> {
    let mut payload = Vec::new();
    match wire::read_frame(&mut &*stream, &mut payload) {
        Ok(true) => Some(wire::decode_response(&payload).expect("response decodes")),
        Ok(false) => None,
        Err(e) => panic!("reading a response frame: {e}"),
    }
}

/// Opens a one-stream phone session at `seed`.
fn open(client: &mut Client, seed: u64) -> Response {
    request(
        client,
        &Request::Open {
            seed,
            streams: 1,
            device: "phone".to_string(),
            max_stream_len: None,
        },
    )
}

/// One round trip that must get an answer.
fn request(client: &mut Client, req: &Request) -> Response {
    client.request(req).expect("a response frame")
}

/// Asserts the response is `opened` and extracts the session id.
fn opened_id(resp: Response) -> u64 {
    assert!(
        matches!(resp, Response::Opened { .. }),
        "expected opened, got {resp:?}"
    );
    if let Response::Opened { session } = resp {
        session
    } else {
        unreachable!()
    }
}

/// Satellite (4): open past the cap over the wire, assert typed
/// `overloaded` shedding, clean close making room, and non-zero stats.
#[test]
fn overload_sheds_with_typed_protocol_error() {
    let server = start_server(ServeConfig {
        max_sessions: 4,
        ..ServeConfig::new(2)
    });
    let mut client = Client::connect(server.addr).expect("client connects");

    let ids: Vec<u64> = (0..4)
        .map(|seed| opened_id(open(&mut client, seed)))
        .collect();
    let shed = open(&mut client, 99);
    assert!(
        matches!(
            &shed,
            Response::Error { kind: ErrorKind::Overloaded, message }
                if message.contains("cap 4")
        ),
        "expected overloaded with a helpful message, got {shed:?}"
    );

    // A clean close makes room for a new session.
    let closed = request(&mut client, &Request::Close { session: ids[0] });
    assert!(
        matches!(&closed, Response::Closed { session } if *session == ids[0]),
        "expected closed {}, got {closed:?}",
        ids[0]
    );
    let reopened = open(&mut client, 100);
    assert!(
        matches!(reopened, Response::Opened { .. }),
        "expected opened after close, got {reopened:?}"
    );

    // Stats over the wire reflect all of the above.
    let resp = request(&mut client, &Request::Stats);
    assert!(
        matches!(&resp, Response::Stats { .. }),
        "expected stats, got {resp:?}"
    );
    if let Response::Stats { stats } = resp {
        assert_eq!(stats.sessions_opened, 5);
        assert_eq!(stats.sessions_shed, 1);
        assert_eq!(stats.sessions_closed, 1);
        assert_eq!(stats.sessions_open, 4);
        assert_eq!(stats.workers, 2);
    }

    // Malformed and unknown-session requests are typed errors, not drops:
    // an unknown opcode in a well-formed frame leaves the connection usable.
    let raw = raw_connect(server.addr, [wire::MAGIC, wire::WIRE_VERSION]);
    write_raw(&raw, &[0x7E]);
    let bad = read_raw(&raw);
    assert!(
        matches!(
            bad,
            Some(Response::Error {
                kind: ErrorKind::InvalidRequest,
                ..
            })
        ),
        "expected invalid_request, got {bad:?}"
    );
    let mut payload = Vec::new();
    wire::encode_request(
        &Request::Next {
            session: ids[1],
            max: 1,
            wait_ms: 1_000,
        },
        &mut payload,
    );
    write_raw(&raw, &payload);
    let next = read_raw(&raw);
    assert!(
        matches!(&next, Some(Response::Events { session, .. }) if *session == ids[1]),
        "expected events after the bad frame, got {next:?}"
    );
    let unknown = request(
        &mut client,
        &Request::Next {
            session: 424242,
            max: 1,
            wait_ms: 0,
        },
    );
    assert!(
        matches!(
            unknown,
            Response::Error {
                kind: ErrorKind::UnknownSession,
                ..
            }
        ),
        "expected unknown_session, got {unknown:?}"
    );

    server.shutdown();
}

/// A client that disconnects with sessions open leaks no session slots.
#[test]
fn disconnect_reclaims_abandoned_sessions() {
    let server = start_server(ServeConfig::new(2));
    {
        let mut client = Client::connect(server.addr).expect("client connects");
        for seed in 0..3 {
            opened_id(open(&mut client, seed));
        }
        assert_eq!(server.handle.stats().sessions_open, 3);
    } // client dropped: connection closes without close_session calls

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.handle.stats().sessions_open == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned sessions were not reclaimed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
}

/// End-to-end loadgen against a live server: every session opens, streams,
/// and closes cleanly, and the final server stats are coherent.
#[test]
fn loadgen_end_to_end() {
    let server = start_server(ServeConfig::new(2));
    let mut cfg = LoadgenConfig::new(server.addr.to_string());
    cfg.sessions = 40;
    cfg.concurrent = 16;
    cfg.threads = 2;
    cfg.streams = 2;
    let report = run_loadgen(&cfg).expect("loadgen runs");

    assert_eq!(report.sessions_opened, 40);
    assert_eq!(report.sessions_completed, 40);
    assert_eq!(report.sessions_shed, 0);
    assert_eq!(report.errors, 0);
    assert!(report.events_received > 0);
    let server_stats = report.server_stats.expect("server stats fetched");
    assert_eq!(server_stats.sessions_opened, 40);
    assert_eq!(server_stats.sessions_closed, 40);
    assert_eq!(server_stats.sessions_open, 0);
    assert_eq!(server_stats.events_delivered, report.events_received);
    assert!(server_stats.slices > 0);
    server.shutdown();
}

/// The loadgen digest is also stable across server shard counts: the same
/// seeds against a 1-shard and a 4-shard server produce the same streams.
#[test]
fn loadgen_digest_stable_across_shard_counts() {
    let run = |shards: usize| {
        let server = start_server(ServeConfig {
            shards,
            ..ServeConfig::new(4)
        });
        let mut cfg = LoadgenConfig::new(server.addr.to_string());
        cfg.sessions = 32;
        cfg.concurrent = 12;
        cfg.threads = 2;
        cfg.streams = 2;
        cfg.seed_base = 11_000;
        let report = run_loadgen(&cfg).expect("loadgen runs");
        server.shutdown();
        report
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.events_received, four.events_received);
    assert_eq!(
        one.events_digest, four.events_digest,
        "event streams must be bit-identical at any shard count"
    );
    assert_eq!(
        four.server_stats.map(|s| s.shards),
        Some(4),
        "report carries the server shard count"
    );
}

/// A connection past `max_connections` reads exactly one typed
/// `Overloaded` frame naming the cap, then the server closes it.
#[test]
fn over_cap_connection_gets_one_overloaded_frame() {
    let server = start_server(ServeConfig {
        max_connections: 1,
        ..ServeConfig::new(1)
    });
    let mut first = Client::connect(server.addr).expect("client connects");
    assert!(matches!(
        request(&mut first, &Request::Stats),
        Response::Stats { .. }
    ));

    let mut second = Client::connect(server.addr).expect("client connects");
    second.send(&Request::Stats).expect("send stats");
    let refused = second.recv().expect("a frame or a clean close");
    assert!(
        matches!(
            &refused,
            Some(Response::Error { kind: ErrorKind::Overloaded, message })
                if message.contains("cap 1")
        ),
        "expected one overloaded frame, got {refused:?}"
    );
    assert!(
        second.recv().expect("a clean close").is_none(),
        "connection closes after the refusal"
    );

    // The admitted connection is unaffected.
    assert!(matches!(
        request(&mut first, &Request::Stats),
        Response::Stats { .. }
    ));
    server.shutdown();
}

/// A wrong preamble (here the retired wire version 0x01, followed by a
/// request and more bytes than the server's read buffer, none of which it
/// parses) gets one typed `InvalidRequest` frame naming the bad preamble,
/// then a clean EOF once the server has drained the trailing bytes.
#[test]
fn bad_preamble_gets_a_typed_error_then_close() {
    let server = start_server(ServeConfig::new(1));
    let raw = raw_connect(server.addr, [wire::MAGIC, 0x01]);
    let mut payload = Vec::new();
    wire::encode_request(&Request::Stats, &mut payload);
    write_raw(&raw, &payload);
    write_raw(&raw, &[0u8; 64 * 1024]);
    let resp = read_raw(&raw);
    assert!(
        matches!(
            &resp,
            Some(Response::Error { kind: ErrorKind::InvalidRequest, message })
                if message.contains("bad preamble")
        ),
        "expected a bad-preamble error, got {resp:?}"
    );
    assert!(
        read_raw(&raw).is_none(),
        "connection closes after the error"
    );
    server.shutdown();
}

/// The `shutdown` verb stops the server from the client side.
#[test]
fn shutdown_verb_stops_the_server() {
    let server = start_server(ServeConfig::new(1));
    let mut client = Client::connect(server.addr).expect("client connects");
    let bye = request(&mut client, &Request::Shutdown);
    assert!(matches!(bye, Response::Bye), "expected bye, got {bye:?}");
    // run() returns once the stop flag is seen; join must not hang.
    server.thread.join().expect("server exits after shutdown");
}

/// Stopping the server ends every connection at once, including one
/// whose thread is blocked writing to a client that never reads: the stop
/// shuts each live socket down instead of waiting for its thread to poll.
#[test]
fn stop_ends_connections_blocked_on_a_silent_client() {
    let server = start_server(ServeConfig::new(1));
    // An idle connection, past its preamble.
    let mut idle = Client::connect(server.addr).expect("client connects");
    assert!(matches!(
        request(&mut idle, &Request::Stats),
        Response::Stats { .. }
    ));
    // A connection that pipelines far more `stats` requests than the
    // socket buffers hold answers for, and reads none of them.
    let mut flood = Client::connect(server.addr).expect("client connects");
    let writer = std::thread::spawn(move || {
        for _ in 0..200_000 {
            if flood.send(&Request::Stats).is_err() {
                break;
            }
        }
        flood
    });
    std::thread::sleep(Duration::from_millis(500));

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        tx.send(()).ok();
    });
    assert!(
        rx.recv_timeout(Duration::from_secs(20)).is_ok(),
        "the server did not stop while a connection was blocked writing"
    );
    drop(writer.join().expect("writer thread"));
}

/// Acceptance at test scale: 1000 concurrent sessions, no shedding, and
/// per-session output bit-identical between 1 and 8 workers.
#[test]
fn thousand_concurrent_sessions_bit_identical_across_workers() {
    let run = |workers: usize| -> Vec<Vec<SessionEvent>> {
        let engine =
            Engine::start(fixture_model(), ServeConfig::new(workers)).expect("engine starts");
        let handle = engine.handle();
        let ids: Vec<SessionId> = (0..1000u64)
            .map(|i| {
                handle
                    .open_session(StreamParams::new(i))
                    .expect("session admitted under the 4096 cap")
            })
            .collect();
        assert_eq!(handle.stats().sessions_open, 1000);
        let mut outputs: Vec<Vec<SessionEvent>> = vec![Vec::new(); ids.len()];
        let mut done = vec![false; ids.len()];
        while !done.iter().all(|d| *d) {
            for (i, id) in ids.iter().enumerate() {
                if done[i] {
                    continue;
                }
                let b = handle
                    .next_events(*id, 64, Duration::from_secs(10))
                    .expect("next_events");
                outputs[i].extend(b.events.iter().map(|e| {
                    assert!(!e.is_failure(), "unexpected failure record: {e:?}");
                    *e.data().expect("data event")
                }));
                if b.finished {
                    handle.close_session(*id).expect("close");
                    done[i] = true;
                }
            }
        }
        engine.shutdown();
        outputs
    };
    let serial = run(1);
    assert!(serial.iter().all(|s| !s.is_empty()));
    let parallel = run(8);
    assert_eq!(serial, parallel, "output differs between 1 and 8 workers");
}
