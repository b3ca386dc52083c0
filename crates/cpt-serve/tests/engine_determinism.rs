//! The engine's acceptance property: a session's event stream is a pure
//! function of `(model, params)` — bit-identical whether it is decoded by
//! a fresh single-session `SessionDecoder`, or by the continuous-batching
//! engine at 1, 2, or 8 workers, interleaved with other sessions, through
//! recycled decode states, under tiny slice budgets and queue capacities
//! that force parking and re-queueing.

use cpt_gpt::{SessionEvent, StreamParams};
use cpt_serve::{Engine, ServeConfig, ServeError, SessionId};
use cpt_testkit::{data_events, fixture_model, reference};
use proptest::prelude::*;
use std::time::Duration;

/// Opens every session on one engine and drains them round-robin with the
/// given per-call batch size, returning each session's full event stream.
fn drain_on_engine(
    workers: usize,
    all_params: &[StreamParams],
    batch: usize,
) -> Vec<Vec<SessionEvent>> {
    // Tiny slices and queues on purpose: force many park/re-queue cycles
    // so scheduling has every chance to leak into the output if it can.
    let cfg = ServeConfig {
        slice_budget: 3,
        queue_capacity: 8,
        ..ServeConfig::new(workers)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("engine starts");
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
                .next_events(*id, batch, Duration::from_secs(10))
                .expect("next_events on open session");
            outputs[i].extend(data_events(&b.events));
            if b.finished {
                handle.close_session(*id).expect("close finished session");
                done[i] = true;
            }
        }
    }
    engine.shutdown();
    outputs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleaved engine decode at 1/2/8 workers, through recycled decode
    /// states, matches the fresh-state single-session reference byte for
    /// byte. This is satellite (3) and the worker-count half of the
    /// acceptance criteria.
    #[test]
    fn engine_matches_reference_at_any_worker_count(
        seed in 0u64..10_000,
        sessions in 1usize..6,
        streams in 1usize..4,
        batch in 1usize..16,
    ) {
        let all_params: Vec<StreamParams> = (0..sessions as u64)
            .map(|i| StreamParams::new(seed.wrapping_add(i * 7919)).streams(streams))
            .collect();
        let expected: Vec<Vec<SessionEvent>> =
            all_params.iter().map(|p| reference(&fixture_model(), *p)).collect();
        for workers in [1usize, 2, 8] {
            let got = drain_on_engine(workers, &all_params, batch);
            prop_assert_eq!(
                &expected,
                &got,
                "engine output differs from reference at {} workers",
                workers
            );
        }
    }

    /// Open/close churn recycles decode states through the free-list; a
    /// session served from a recycled state must be identical to one
    /// served from a fresh allocation.
    #[test]
    fn free_list_reuse_is_invisible(
        seed in 0u64..10_000,
        rounds in 2usize..5,
    ) {
        let engine = Engine::start(fixture_model(), ServeConfig::new(2))
            .expect("engine starts");
        let handle = engine.handle();
        let params = StreamParams::new(seed).streams(2);
        let expected = reference(&fixture_model(), params);
        for round in 0..rounds {
            let id = handle.open_session(params).expect("session admitted");
            let mut got = Vec::new();
            loop {
                let b = handle
                    .next_events(id, 64, Duration::from_secs(10))
                    .expect("next_events");
                got.extend(data_events(&b.events));
                if b.finished {
                    break;
                }
            }
            handle.close_session(id).expect("close");
            prop_assert_eq!(&expected, &got, "round {} diverged", round);
        }
        // The churn actually exercised the free-list.
        prop_assert!(handle.stats().free_states >= 1);
        engine.shutdown();
    }

    /// Crash-only satellite: `shutdown()` with decode slices in flight and
    /// consumers parked on the delivery condvar must never deadlock — the
    /// workers and the reaper always join, blocked consumers return, and
    /// the handle degrades to a typed shutting-down error.
    #[test]
    fn shutdown_mid_decode_joins_workers(
        seed in 0u64..10_000,
        sessions in 1usize..6,
        consumed in 0usize..3,
    ) {
        let cfg = ServeConfig {
            queue_capacity: 4,
            slice_budget: 2,
            ..ServeConfig::new(4)
        };
        let engine = Engine::start(fixture_model(), cfg).expect("engine starts");
        let handle = engine.handle();
        let ids: Vec<SessionId> = (0..sessions as u64)
            .map(|i| {
                handle
                    .open_session(StreamParams::new(seed.wrapping_add(i)).streams(8))
                    .expect("session admitted")
            })
            .collect();
        // Partially drain a prefix of the sessions so a mix of Running,
        // Parked, and freshly Queued slots exists when the shutdown lands.
        for id in ids.iter().take(consumed) {
            handle
                .next_events(*id, 2, Duration::from_millis(20))
                .expect("next_events");
        }
        // Park a consumer mid-wait on the delivery condvar; only its
        // returning matters, not what it returns.
        let blocked = {
            let handle = handle.clone();
            let id = ids[0];
            std::thread::spawn(move || {
                let _ = handle.next_events(id, 64, Duration::from_secs(30));
            })
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let shutter = std::thread::spawn(move || {
            engine.shutdown(); // joins workers and the reaper
            tx.send(()).ok();
        });
        prop_assert!(
            rx.recv_timeout(Duration::from_secs(30)).is_ok(),
            "shutdown deadlocked with parked consumers and live decode"
        );
        shutter.join().expect("shutdown thread joins");
        blocked.join().expect("blocked consumer returns");
        prop_assert!(matches!(
            handle.open_session(StreamParams::new(seed)),
            Err(ServeError::ShuttingDown)
        ));
    }
}

/// Admission control: the cap sheds with a typed error carrying the
/// observed occupancy, and closing a session makes room again.
#[test]
fn session_cap_sheds_with_typed_error() {
    let cfg = ServeConfig {
        max_sessions: 3,
        ..ServeConfig::new(1)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("engine starts");
    let handle = engine.handle();
    let ids: Vec<SessionId> = (0..3)
        .map(|i| {
            handle
                .open_session(StreamParams::new(i))
                .expect("under cap admits")
        })
        .collect();
    let got = handle.open_session(StreamParams::new(99));
    assert!(
        matches!(
            &got,
            Err(ServeError::Overloaded {
                open: 3,
                cap: 3,
                ..
            })
        ),
        "expected Overloaded with open=3 cap=3, got {got:?}"
    );
    assert_eq!(handle.stats().sessions_shed, 1);
    handle.close_session(ids[0]).expect("close");
    handle
        .open_session(StreamParams::new(100))
        .expect("closing made room");
    engine.shutdown();
}

/// A consumer that never drains parks its session: the queue stays
/// bounded at `queue_capacity` instead of buffering the whole session.
#[test]
fn slow_consumer_is_parked_not_buffered() {
    let cfg = ServeConfig {
        queue_capacity: 4,
        slice_budget: 4,
        ..ServeConfig::new(2)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("engine starts");
    let handle = engine.handle();
    let id = handle
        .open_session(StreamParams::new(1).streams(8))
        .expect("admitted");
    // Let workers run; with nobody draining, the queue must cap at 4.
    std::thread::sleep(Duration::from_millis(200));
    let stats = handle.stats();
    assert!(
        stats.queued_events <= 4,
        "parked session buffered {} events past its 4-event queue",
        stats.queued_events
    );
    // Draining un-parks and eventually completes the session.
    let mut total = 0usize;
    loop {
        let b = handle
            .next_events(id, 2, Duration::from_secs(10))
            .expect("next_events");
        total += b.events.len();
        if b.finished {
            break;
        }
    }
    assert!(total > 4, "session produced more than one queue's worth");
    handle.close_session(id).expect("close");
    engine.shutdown();
}

/// Unknown and double-closed session ids are typed errors, not panics.
#[test]
fn unknown_sessions_are_typed_errors() {
    let engine = Engine::start(fixture_model(), ServeConfig::new(1)).expect("engine starts");
    let handle = engine.handle();
    assert!(matches!(
        handle.next_events(SessionId(42), 1, Duration::ZERO),
        Err(ServeError::UnknownSession(42))
    ));
    assert!(matches!(
        handle.close_session(SessionId(42)),
        Err(ServeError::UnknownSession(42))
    ));
    let id = handle.open_session(StreamParams::new(7)).expect("admitted");
    handle.close_session(id).expect("first close");
    assert!(matches!(
        handle.close_session(id),
        Err(ServeError::UnknownSession(_))
    ));
    engine.shutdown();
}
