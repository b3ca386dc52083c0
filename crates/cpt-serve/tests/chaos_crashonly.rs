//! Crash-only acceptance tests for the serving engine: contained worker
//! panics, bounded drains, detach/reattach, token-TTL reclamation — all
//! driven by the deterministic [`ChaosPlan`] — and a stop no thread can
//! miss.
//!
//! The acceptance criterion from the failure-model design: a chaos plan
//! that panics one worker mid-slice must fail *only* the targeted session
//! (its consumer sees the decoded prefix plus one terminal failure
//! record), every other session's event stream must be byte-identical to
//! an uninjected run at 1, 2, and 8 workers, and a reattached consumer
//! must resume parked sessions byte-identically.

use cpt_gpt::StreamParams;
use cpt_serve::{ChaosPlan, Engine, ServeConfig, ServeError, SessionEvent, SessionId};
use cpt_testkit::{drain_session, fixture_model, served_reference};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Opens `params` in order on an engine with `chaos` and drains every
/// session round-robin; returns each session's full stream.
fn run_engine(
    workers: usize,
    chaos: ChaosPlan,
    all_params: &[StreamParams],
) -> (Vec<Vec<SessionEvent>>, cpt_serve::StatsSnapshot) {
    let cfg = ServeConfig {
        slice_budget: 3,
        queue_capacity: 8,
        ..ServeConfig::new(workers)
    };
    let engine = Engine::start_versioned(fixture_model(), 1, cfg, chaos).expect("engine starts");
    let handle = engine.handle();
    let ids: Vec<SessionId> = all_params
        .iter()
        .map(|p| handle.open_session(*p).expect("session admitted"))
        .collect();
    let mut outputs: Vec<Vec<SessionEvent>> = vec![Vec::new(); ids.len()];
    let mut done = vec![false; ids.len()];
    while !done.iter().all(|d| *d) {
        for (i, id) in ids.iter().enumerate() {
            if done[i] {
                continue;
            }
            let b = handle
                .next_events(*id, 5, Duration::from_secs(10))
                .expect("next_events");
            outputs[i].extend(b.events);
            if b.finished {
                handle.close_session(*id).expect("close");
                done[i] = true;
            }
        }
    }
    let stats = handle.stats();
    engine.shutdown();
    (outputs, stats)
}

/// The acceptance criterion: an injected worker panic fails only the
/// targeted session; every other stream is byte-identical to an
/// uninjected run at 1, 2, and 8 workers.
#[test]
fn injected_panic_fails_only_the_targeted_session_at_any_worker_count() {
    let all_params: Vec<StreamParams> = (0..8u64)
        .map(|i| StreamParams::new(1000 + i * 7919).streams(2))
        .collect();
    let expected: Vec<Vec<SessionEvent>> = all_params
        .iter()
        .map(|p| served_reference(&fixture_model(), *p))
        .collect();
    // Sessions are opened in order from one thread, so engine ids are
    // 1..=N deterministically; target the third session after it has
    // emitted 2 events.
    let target_idx = 2usize;
    let target_id = target_idx as u64 + 1;
    let panic_at = 2u64;
    let chaos = ChaosPlan::panic_session_at(target_id, panic_at);

    for workers in [1usize, 2, 8] {
        let (got, stats) = run_engine(workers, chaos, &all_params);
        for (i, stream) in got.iter().enumerate() {
            if i == target_idx {
                // Decoded prefix (exactly `panic_at` events), then one
                // terminal failure record — nothing after it.
                let expect_prefix = &expected[i][..panic_at as usize];
                assert_eq!(
                    &stream[..panic_at as usize],
                    expect_prefix,
                    "targeted session's prefix diverged at {workers} workers"
                );
                assert_eq!(
                    stream.len(),
                    panic_at as usize + 1,
                    "targeted session should end right after the failure record"
                );
                let last = stream.last().expect("non-empty");
                assert!(
                    matches!(last, SessionEvent::Failed { reason } if reason.contains("chaos")),
                    "expected a chaos failure record, got {last:?}"
                );
            } else {
                assert_eq!(
                    stream, &expected[i],
                    "non-targeted session {i} diverged at {workers} workers"
                );
            }
        }
        assert_eq!(stats.worker_panics, 1, "exactly one contained panic");
        assert_eq!(stats.sessions_failed, 1, "exactly one failed session");
        // The uninjected comparison run is implicit: `expected` comes from
        // fresh single-session decoders, which the engine matches.
    }
}

/// A worker that panicked re-enters its loop: with a single worker, the
/// engine must still finish other sessions after containing a panic.
#[test]
fn single_worker_survives_a_contained_panic() {
    let chaos = ChaosPlan::panic_session_at(1, 0); // first session, first event
    let cfg = ServeConfig {
        slice_budget: 4,
        ..ServeConfig::new(1)
    };
    let engine = Engine::start_versioned(fixture_model(), 1, cfg, chaos).expect("engine starts");
    let handle = engine.handle();
    let doomed = handle
        .open_session(StreamParams::new(7))
        .expect("doomed session admitted");
    let healthy = handle
        .open_session(StreamParams::new(8).streams(2))
        .expect("healthy session admitted");

    let doomed_stream = drain_session(&handle, doomed, 64);
    assert_eq!(
        doomed_stream.len(),
        1,
        "no data events before an at-0 panic"
    );
    assert!(doomed_stream[0].is_failure());

    let healthy_stream = drain_session(&handle, healthy, 64);
    assert_eq!(
        healthy_stream,
        served_reference(&fixture_model(), StreamParams::new(8).streams(2)),
        "the surviving worker must decode untouched sessions byte-identically"
    );
    // And the engine still admits + completes brand-new work.
    let after = handle
        .open_session(StreamParams::new(9))
        .expect("engine admits after a contained panic");
    assert_eq!(
        drain_session(&handle, after, 64),
        served_reference(&fixture_model(), StreamParams::new(9))
    );
    engine.shutdown();
}

/// Drain with a generous deadline: live sessions finish decoding, nothing
/// is force-failed, admission is suspended until `resume_admission`.
#[test]
fn drain_completes_live_sessions_and_suspends_admission() {
    let engine = Engine::start(fixture_model(), ServeConfig::new(2)).expect("starts");
    let handle = engine.handle();
    let a = handle.open_session(StreamParams::new(1)).expect("admitted");
    let b = handle.open_session(StreamParams::new(2)).expect("admitted");

    let report = handle.drain(Duration::from_secs(30));
    assert_eq!(report.completed, 2);
    assert_eq!(report.force_failed, 0);
    assert!(handle.is_draining());
    assert!(
        matches!(
            handle.open_session(StreamParams::new(3)),
            Err(ServeError::Draining)
        ),
        "admission must shed with the typed draining error"
    );

    // Delivery continues after the drain: both sessions produce their full
    // reference streams.
    assert_eq!(
        drain_session(&handle, a, 64),
        served_reference(&fixture_model(), StreamParams::new(1))
    );
    assert_eq!(
        drain_session(&handle, b, 64),
        served_reference(&fixture_model(), StreamParams::new(2))
    );

    handle.resume_admission();
    assert!(!handle.is_draining());
    handle
        .open_session(StreamParams::new(3))
        .expect("admission resumes after resume_admission");
    engine.shutdown();
}

/// Drain with a deadline too short for a parked session (its consumer
/// never drains): the straggler is force-failed with a terminal record.
#[test]
fn drain_force_fails_parked_stragglers_at_the_deadline() {
    let cfg = ServeConfig {
        queue_capacity: 4,
        slice_budget: 4,
        ..ServeConfig::new(2)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("starts");
    let handle = engine.handle();
    let id = handle
        .open_session(StreamParams::new(5).streams(8))
        .expect("admitted");
    // Wait until the undrained session parks on its full queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().queued_events < 4 {
        assert!(Instant::now() < deadline, "session never filled its queue");
        std::thread::sleep(Duration::from_millis(10));
    }

    let report = handle.drain(Duration::from_millis(50));
    assert_eq!(report.force_failed, 1, "the parked session is a straggler");
    assert_eq!(handle.stats().sessions_force_failed, 1);

    // Its consumer still gets the buffered events plus the terminal record.
    let stream = drain_session(&handle, id, 64);
    let last = stream.last().expect("non-empty stream");
    assert!(
        matches!(last, SessionEvent::Failed { reason } if reason.contains("drain")),
        "expected a drain failure record, got {last:?}"
    );
    assert!(
        stream
            .iter()
            .take(stream.len() - 1)
            .all(|e| !e.is_failure()),
        "exactly one terminal failure record"
    );
    engine.shutdown();
}

/// A drain waits on state, not on a clock: closing its last straggler
/// ends it at once, long before the deadline and with nothing
/// force-failed.
#[test]
fn drain_returns_when_its_last_straggler_closes() {
    let cfg = ServeConfig {
        queue_capacity: 4,
        slice_budget: 4,
        ..ServeConfig::new(2)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("starts");
    let handle = engine.handle();
    let id = handle
        .open_session(StreamParams::new(5).streams(8))
        .expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().queued_events < 4 {
        assert!(Instant::now() < deadline, "session never filled its queue");
        std::thread::sleep(Duration::from_millis(10));
    }

    let drainer = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.drain(Duration::from_secs(60)))
    };
    std::thread::sleep(Duration::from_millis(50));
    let closed_at = Instant::now();
    handle
        .close_session(id)
        .expect("close the parked straggler");
    let report = drainer.join().expect("drain returns");
    assert!(
        closed_at.elapsed() < Duration::from_secs(10),
        "drain outlived its last straggler by {:?}",
        closed_at.elapsed()
    );
    assert_eq!(report.force_failed, 0);
    engine.shutdown();
}

/// Dropping an engine always joins its threads. Each cycle drops the
/// engine while its workers are starting up, so over many cycles some
/// worker is between its stop check and its wait when the stop lands; the
/// stop is set under the lock that wait releases, so the worker still
/// hears it. A stop flag kept outside that lock usually hangs this loop
/// long before it ends.
#[test]
fn engine_drop_never_misses_the_stop() {
    let model = fixture_model();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cfg = ServeConfig {
            shards: 2,
            ..ServeConfig::new(4)
        };
        for _ in 0..20_000 {
            drop(Engine::start(Arc::clone(&model), cfg).expect("starts"));
        }
        tx.send(()).ok();
    });
    assert!(
        rx.recv_timeout(Duration::from_secs(120)).is_ok(),
        "an engine drop never returned: a worker slept through the stop"
    );
}

/// Detach parks sessions under a capability token; reattaching resumes
/// delivery exactly where it stopped — the combined stream is
/// byte-identical to an undisturbed run.
#[test]
fn reattached_sessions_resume_byte_identically() {
    let cfg = ServeConfig {
        queue_capacity: 8,
        slice_budget: 3,
        ..ServeConfig::new(2)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("starts");
    let handle = engine.handle();
    let params = StreamParams::new(77).streams(4);
    let expected = served_reference(&fixture_model(), params);
    let id = handle.open_session(params).expect("admitted");

    // Deliver a few events, then detach mid-stream.
    let before = handle
        .next_events(id, 3, Duration::from_secs(10))
        .expect("partial delivery");
    assert!(!before.finished, "fixture session must outlive the prefix");
    let token = handle.mint_detach_token();
    assert_eq!(handle.park_sessions(token, [id]), 1);

    // While parked the session is unreachable to ordinary consumers...
    assert!(matches!(
        handle.next_events(id, 1, Duration::ZERO),
        Err(ServeError::UnknownSession(_))
    ));
    assert!(matches!(
        handle.close_session(id),
        Err(ServeError::UnknownSession(_))
    ));
    // ...but keeps decoding into its bounded queue in the background.
    std::thread::sleep(Duration::from_millis(100));

    let ids = handle.reattach(token).expect("token redeems");
    assert_eq!(ids, vec![id]);
    // A token is single-use.
    assert!(matches!(
        handle.reattach(token),
        Err(ServeError::UnknownToken)
    ));

    let mut got = before.events;
    got.extend(drain_session(&handle, id, 5));
    assert_eq!(got, expected, "reattached stream diverged from reference");

    let stats = handle.stats();
    assert_eq!(stats.sessions_detached, 1);
    assert_eq!(stats.sessions_reattached, 1);
    engine.shutdown();
}

/// An unredeemed token expires: the reaper reclaims the parked sessions
/// and later reattach attempts get the typed unknown-token error.
#[test]
fn expired_detach_tokens_are_reaped() {
    let cfg = ServeConfig {
        detach_ttl_secs: 1,
        ..ServeConfig::new(1)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("starts");
    let handle = engine.handle();
    let id = handle.open_session(StreamParams::new(3)).expect("admitted");
    let token = handle.mint_detach_token();
    assert_eq!(handle.park_sessions(token, [id]), 1);
    assert_eq!(handle.sessions_open(), 1, "parked sessions stay open");

    // Past the TTL the reaper reclaims the slot and the token dies.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.sessions_open() > 0 {
        assert!(
            Instant::now() < deadline,
            "reaper never reclaimed the session"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(matches!(
        handle.reattach(token),
        Err(ServeError::UnknownToken)
    ));
    assert_eq!(handle.stats().sessions_expired, 1);

    // The reclaimed slot is genuinely free: a new session is admitted and
    // decodes to the reference.
    let fresh = handle.open_session(StreamParams::new(4)).expect("admitted");
    assert_eq!(
        drain_session(&handle, fresh, 64),
        served_reference(&fixture_model(), StreamParams::new(4))
    );
    engine.shutdown();
}

/// The reaper parks on a condvar rather than polling: an engine holding
/// a detach token with an enormous TTL must still shut down promptly —
/// a TTL-length sleep in the reaper would stall this join for days.
#[test]
fn reaper_with_huge_ttl_does_not_delay_shutdown() {
    let cfg = ServeConfig {
        detach_ttl_secs: 1_000_000,
        ..ServeConfig::new(1)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("starts");
    let handle = engine.handle();
    let id = handle.open_session(StreamParams::new(3)).expect("admitted");
    assert_eq!(handle.park_sessions(handle.mint_detach_token(), [id]), 1);

    let begin = Instant::now();
    engine.shutdown();
    assert!(
        begin.elapsed() < Duration::from_secs(10),
        "shutdown stalled behind the reaper's TTL wait ({:?})",
        begin.elapsed()
    );
}

/// Garbage and never-minted tokens are typed errors.
#[test]
fn bogus_tokens_are_typed_errors() {
    let engine = Engine::start(fixture_model(), ServeConfig::new(1)).expect("starts");
    let handle = engine.handle();
    assert!(matches!(
        handle.reattach(cpt_serve::DetachToken(0xDEAD_BEEF)),
        Err(ServeError::UnknownToken)
    ));
    engine.shutdown();
}

/// A token is armed before its connection ends and registered only when
/// that connection parks its sessions: presented while the session is
/// still attached it is unknown, and it stays usable, so once the session
/// parks the same token brings it back.
#[test]
fn an_armed_token_is_unknown_until_its_sessions_park() {
    let engine = Engine::start(fixture_model(), ServeConfig::new(1)).expect("starts");
    let handle = engine.handle();
    let params = StreamParams::new(21).streams(2);
    let id = handle.open_session(params).expect("admitted");
    let token = handle.mint_detach_token();
    assert!(matches!(
        handle.reattach(token),
        Err(ServeError::UnknownToken)
    ));
    assert_eq!(handle.park_sessions(token, [id]), 1);
    assert_eq!(handle.reattach(token).expect("token redeems"), [id]);
    assert_eq!(
        drain_session(&handle, id, 16),
        served_reference(&fixture_model(), params)
    );
    engine.shutdown();
}

/// Two parks under one token make one group: a single reattach returns
/// the sessions of both, and each then drains to its reference and
/// closes, freeing its slot. Had the second park replaced the first
/// group, the first session would stay parked under no token.
#[test]
fn a_second_park_under_a_token_joins_its_group() {
    let engine = Engine::start(fixture_model(), ServeConfig::new(1)).expect("starts");
    let handle = engine.handle();
    let params = [
        StreamParams::new(31),
        StreamParams::new(32).streams(2),
        StreamParams::new(33),
    ];
    let ids: Vec<SessionId> = params
        .iter()
        .map(|p| handle.open_session(*p).expect("admitted"))
        .collect();
    let token = handle.mint_detach_token();
    assert_eq!(handle.park_sessions(token, [ids[0]]), 1);
    assert_eq!(handle.park_sessions(token, [ids[1], ids[2]]), 2);
    let mut back = handle.reattach(token).expect("token redeems");
    back.sort();
    assert_eq!(back, ids, "one reattach returns both parks");
    for (id, p) in ids.iter().zip(params) {
        assert_eq!(
            drain_session(&handle, *id, 16),
            served_reference(&fixture_model(), p)
        );
    }
    assert_eq!(handle.sessions_open(), 0, "every slot is free again");
    engine.shutdown();
}
