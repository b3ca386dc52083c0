//! Integration tests for the shared-nothing sharded engine: per-session
//! output is bit-identical at any shard × worker shape, the admission cap
//! is strict under concurrent opens racing across shards, occupancy and
//! imbalance stats are coherent, detach/reattach and drain work when the
//! parked group spans shards, and version promote/rollback retire a
//! version once no shard pins it.

use cpt_gpt::StreamParams;
use cpt_serve::{ChaosPlan, Engine, LifecycleEvent, ServeConfig, ServeError, SessionId};
use cpt_testkit::{
    data_events, drain_session, fixture_model, fixture_model_v2, reference, DecodedEvent,
};
use cpt_trace::EventType;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The tentpole determinism contract: the same 24 seeds produce
/// bit-identical per-session streams at every shard × worker shape,
/// matching the fresh single-session reference — steering, per-shard
/// free-lists, and worker counts must never leak into the output.
#[test]
fn bit_identical_at_any_shard_and_worker_count() {
    let all_params: Vec<StreamParams> = (0..24u64)
        .map(|i| StreamParams::new(1000 + i * 7919).streams(1 + (i as usize) % 2))
        .collect();
    let expected: Vec<Vec<DecodedEvent>> = all_params
        .iter()
        .map(|p| reference(&fixture_model(), *p))
        .collect();
    for (shards, workers) in [(1usize, 1usize), (1, 8), (4, 4), (8, 8), (8, 1)] {
        let cfg = ServeConfig {
            shards,
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
        let got: Vec<Vec<DecodedEvent>> = ids
            .iter()
            .map(|id| data_events(&drain_session(&handle, *id, 64)))
            .collect();
        engine.shutdown();
        assert_eq!(
            expected, got,
            "output diverged at {shards} shards / {workers} workers"
        );
    }
}

/// One seed, one trace: a served session with seed S and n streams emits
/// the UEs of the offline `generate(GenerateConfig::new(n, S))`, in order,
/// at any shard × worker shape and any offline batch size.
#[test]
fn served_session_is_the_offline_trace_of_the_same_seed() {
    let (seed, n) = (4242u64, 9usize);
    let model = fixture_model();
    let offline = model
        .generate(&cpt_gpt::GenerateConfig {
            batch_size: 4,
            ..cpt_gpt::GenerateConfig::new(n, seed)
        })
        .expect("offline generate");
    let offline: Vec<Vec<(EventType, u64)>> = offline
        .streams
        .iter()
        .map(|s| {
            s.events
                .iter()
                .map(|e| (e.event_type, e.timestamp.to_bits()))
                .collect()
        })
        .collect();
    for (shards, workers) in [(1usize, 1usize), (4, 4), (8, 1)] {
        let engine = Engine::start(
            Arc::clone(&model),
            ServeConfig {
                shards,
                ..ServeConfig::new(workers)
            },
        )
        .expect("engine starts");
        let handle = engine.handle();
        let id = handle
            .open_session(StreamParams::new(seed).streams(n))
            .expect("session admitted");
        let mut served: Vec<Vec<(EventType, u64)>> = vec![Vec::new(); n];
        for ev in data_events(&drain_session(&handle, id, 64)) {
            served[ev.stream].push((ev.event_type, ev.timestamp.to_bits()));
        }
        engine.shutdown();
        assert_eq!(
            offline, served,
            "served trace differs at {shards} shards / {workers} workers"
        );
    }
}

/// Occupancy and imbalance stats: every shard is reported, the max/min
/// bracket the mean, and the totals agree with the global gauges.
#[test]
fn occupancy_and_imbalance_stats_are_coherent() {
    let cfg = ServeConfig {
        shards: 4,
        ..ServeConfig::new(4)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("engine starts");
    let handle = engine.handle();
    let ids: Vec<SessionId> = (0..24u64)
        .map(|i| {
            handle
                .open_session(StreamParams::new(i * 131))
                .expect("session admitted")
        })
        .collect();
    let stats = handle.stats();
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.sessions_open, 24);
    assert!(
        stats.shard_sessions_max >= stats.shard_sessions_min,
        "imbalance bracket inverted: max {} < min {}",
        stats.shard_sessions_max,
        stats.shard_sessions_min
    );
    // Pigeonhole: with 24 sessions on 4 shards the fullest holds >= 6 and
    // the emptiest <= 6.
    assert!(stats.shard_sessions_max >= 6);
    assert!(stats.shard_sessions_min <= 6);
    assert!(
        stats.shard_runnable_max >= stats.shard_runnable_min,
        "runnable bracket inverted"
    );
    for id in ids {
        handle.close_session(id).expect("close");
    }
    let stats = handle.stats();
    assert_eq!(stats.sessions_open, 0);
    assert_eq!(stats.shard_sessions_max, 0);
    engine.shutdown();
}

/// The admission cap is strict even when opens race from many threads
/// across shards: the open gauge is reserved before shard placement, so
/// the cap can never be overshot, and every rejection is a typed
/// `Overloaded` counted as a shed.
#[test]
fn admission_cap_is_strict_under_concurrent_opens() {
    let cfg = ServeConfig {
        shards: 4,
        max_sessions: 16,
        ..ServeConfig::new(4)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("engine starts");
    let handle = engine.handle();
    let opened: Vec<SessionId> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..4u64)
            .map(|t| {
                let handle = handle.clone();
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..16u64 {
                        match handle.open_session(StreamParams::new(t * 1000 + i)) {
                            Ok(id) => mine.push(id),
                            Err(ServeError::Overloaded { open, cap, .. }) => {
                                assert!(open >= cap, "shed below cap: open {open} cap {cap}");
                            }
                            Err(other) => panic!("unexpected open error: {other:?}"),
                        }
                    }
                    mine
                })
            })
            .collect();
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("opener thread"))
            .collect()
    });
    assert_eq!(opened.len(), 16, "exactly the cap must be admitted");
    let stats = handle.stats();
    assert_eq!(stats.sessions_open, 16);
    assert_eq!(stats.sessions_shed, 64 - 16);
    engine.shutdown();
}

/// Detach/reattach with a parked group spanning shards: delivery resumes
/// exactly where it stopped on every session, and the final streams match
/// the reference bit for bit.
#[test]
fn detach_reattach_spans_shards() {
    let cfg = ServeConfig {
        shards: 4,
        slice_budget: 3,
        queue_capacity: 8,
        ..ServeConfig::new(4)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("engine starts");
    let handle = engine.handle();
    let all_params: Vec<StreamParams> = (0..8u64)
        .map(|i| StreamParams::new(4000 + i * 97).streams(2))
        .collect();
    let ids: Vec<SessionId> = all_params
        .iter()
        .map(|p| handle.open_session(*p).expect("session admitted"))
        .collect();
    // Consume a partial prefix from each session so the resume point is
    // mid-stream, not at the start.
    let mut prefixes: Vec<Vec<DecodedEvent>> = Vec::new();
    for id in &ids {
        let b = handle
            .next_events(*id, 2, Duration::from_secs(10))
            .expect("partial drain");
        prefixes.push(b.events.iter().map(|e| *e.data().expect("data")).collect());
    }
    let token = handle.mint_detach_token();
    assert_eq!(handle.park_sessions(token, ids.iter().copied()), ids.len());
    let mut back = handle.reattach(token).expect("reattach");
    back.sort();
    let mut want = ids.clone();
    want.sort();
    assert_eq!(back, want, "every parked session comes back");
    // A redeemed token is single-use.
    assert!(matches!(
        handle.reattach(token),
        Err(ServeError::UnknownToken)
    ));
    for ((id, prefix), params) in ids.iter().zip(prefixes).zip(&all_params) {
        let mut got = prefix;
        got.extend(data_events(&drain_session(&handle, *id, 64)));
        assert_eq!(
            reference(&fixture_model(), *params),
            got,
            "stream diverged across detach/reattach"
        );
    }
    engine.shutdown();
}

/// Drain with sessions spread across shards: every session finishes
/// within the deadline, admission is suspended engine-wide (all shards),
/// and `resume_admission` reopens it.
#[test]
fn drain_suspends_admission_across_shards() {
    let cfg = ServeConfig {
        shards: 4,
        ..ServeConfig::new(4)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("engine starts");
    let handle = engine.handle();
    let ids: Vec<SessionId> = (0..8u64)
        .map(|i| {
            handle
                .open_session(StreamParams::new(6000 + i * 31))
                .expect("session admitted")
        })
        .collect();
    let report = handle.drain(Duration::from_secs(30));
    assert_eq!(report.force_failed, 0, "small sessions finish in time");
    assert_eq!(report.completed, 8);
    assert!(handle.is_draining());
    assert!(matches!(
        handle.open_session(StreamParams::new(7777)),
        Err(ServeError::Draining)
    ));
    // Decoded events are still deliverable after the drain.
    for id in ids {
        let b = handle
            .next_events(id, 1024, Duration::from_secs(10))
            .expect("post-drain delivery");
        assert!(!b.events.is_empty() || b.finished);
    }
    handle.resume_admission();
    handle
        .open_session(StreamParams::new(8888))
        .expect("admission resumes");
    engine.shutdown();
}

/// Promote and rollback with sessions pinned across shards: per-version
/// session counts are summed over shards, sessions opened after the
/// promote decode on the new version, pinned sessions finish on their
/// original version, and rollback restores the old live version.
#[test]
fn promote_and_rollback_with_sessions_pinned_across_shards() {
    let cfg = ServeConfig {
        shards: 4,
        slice_budget: 3,
        queue_capacity: 8,
        ..ServeConfig::new(4)
    };
    let engine = Engine::start(fixture_model(), cfg).expect("engine starts");
    let handle = engine.handle();
    let v1_params: Vec<StreamParams> = (0..8u64)
        .map(|i| StreamParams::new(9000 + i * 61).streams(2))
        .collect();
    let v1_ids: Vec<SessionId> = v1_params
        .iter()
        .map(|p| handle.open_session(*p).expect("session admitted"))
        .collect();
    // Nudge each session mid-stream so it is live when the promote lands.
    for id in &v1_ids {
        handle
            .next_events(*id, 1, Duration::from_secs(10))
            .expect("partial drain");
    }

    assert_eq!(handle.promote_version(2, fixture_model_v2()), Some(1));
    assert_eq!(handle.live_version(), 2);
    let per: Vec<(u64, u64)> = handle.sessions_per_version();
    assert_eq!(
        per.iter().find(|(v, _)| *v == 1).map(|(_, n)| *n),
        Some(8),
        "pinned v1 sessions survive the promote: {per:?}"
    );

    // A post-promote session decodes on v2, wherever it is steered.
    let new_params = StreamParams::new(12345).streams(1);
    let new_id = handle.open_session(new_params).expect("open on v2");
    assert_eq!(
        reference(&fixture_model_v2(), new_params),
        data_events(&drain_session(&handle, new_id, 64)),
        "post-promote session must decode on the new version"
    );

    // The pinned originals still complete byte-identically on v1.
    for (id, params) in v1_ids.iter().zip(&v1_params) {
        let mut got: Vec<DecodedEvent> = Vec::new();
        // Their first event was already consumed above; re-derive it from
        // the reference instead of tracking it.
        let want = reference(&fixture_model(), *params);
        got.push(want[0]);
        got.extend(data_events(&drain_session(&handle, *id, 64)));
        assert_eq!(want, got, "v1-pinned session diverged after promote");
    }
    // Every v1 session is closed, but v1 is the rollback target: it stays
    // installed at zero refs rather than being swept.
    let per = handle.sessions_per_version();
    assert_eq!(
        per.iter().find(|(v, _)| *v == 1).map(|(_, n)| *n),
        Some(0),
        "rollback target retained unpinned: {per:?}"
    );

    // Rollback demotes v2 and restores v1 engine-wide.
    let (demoted, live) = handle.rollback_version().expect("rollback to v1");
    assert_eq!((demoted, live), (2, 1));
    assert_eq!(handle.live_version(), 1);
    // v2 has no pinned sessions left (its one session closed above), is
    // retired, and is neither live nor the rollback target — swept.
    let per = handle.sessions_per_version();
    assert!(
        !per.iter().any(|(v, _)| *v == 2),
        "demoted unpinned version swept on rollback: {per:?}"
    );
    // The rollback consumed the target; a second one must fail typed.
    assert!(matches!(
        handle.rollback_version(),
        Err(ServeError::NoPreviousVersion)
    ));

    // Promoting twice displaces the older rollback target, which retires
    // once unpinned: after promote(3) then promote(4), v1 is gone.
    assert_eq!(handle.promote_version(3, fixture_model_v2()), Some(1));
    assert_eq!(handle.promote_version(4, fixture_model()), Some(3));
    let per = handle.sessions_per_version();
    assert!(
        !per.iter().any(|(v, _)| *v == 1),
        "displaced rollback target swept: {per:?}"
    );
    assert_eq!(handle.live_version(), 4);
    engine.shutdown();
}

/// How the last session pinned to a released version ends.
#[derive(Clone, Copy, Debug)]
enum Ending {
    /// `close` of a session no worker holds.
    Close,
    /// `close` while a worker holds the session mid-slice: the dispose is
    /// deferred to that worker's publish.
    CloseWhileDecoding,
    /// A detached session nobody reattaches, reclaimed at TTL expiry.
    Reaped,
}

/// Waits (bounded) until `events` holds `n` entries, then returns them.
fn await_events(events: &Mutex<Vec<LifecycleEvent>>, n: usize) -> Vec<LifecycleEvent> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = events.lock().expect("events lock").clone();
        if got.len() >= n || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One version lifecycle through the public API: v1 is pinned by one
/// session, becomes the rollback target on promote(2), is released by
/// promote(3), and must retire exactly when `ending` disposes that
/// session — never earlier, never twice. Along the way: the live version
/// and the rollback target never retire, a released version nothing pins
/// retires at once, and dropping the engine retires nothing, even a
/// released version that is still pinned.
fn retire_on(shards: usize, ending: Ending) {
    let chaos = match ending {
        // Every slice is held for a second before it publishes, so a
        // decoding session sits in a worker's hands almost all the time.
        Ending::CloseWhileDecoding => ChaosPlan {
            delay_every: 1,
            delay_slice_ms: 1000,
            ..ChaosPlan::default()
        },
        _ => ChaosPlan::default(),
    };
    let cfg = ServeConfig {
        shards,
        slice_budget: 1,
        detach_ttl_secs: 1,
        ..ServeConfig::new(shards)
    };
    let engine = Engine::start_versioned(fixture_model(), 1, cfg, chaos).expect("engine starts");
    let handle = engine.handle();
    let events: Arc<Mutex<Vec<LifecycleEvent>>> = Arc::default();
    let sink = Arc::clone(&events);
    handle.set_lifecycle_hook(move |ev| sink.lock().expect("events lock").push(ev));
    let seen = || events.lock().expect("events lock").clone();
    let ctx = format!("{ending:?} at {shards} shard(s)");

    let params = StreamParams::new(4242).streams(4);
    assert!(
        reference(&fixture_model(), params).len() >= 8,
        "fixture session too short to stay mid-decode"
    );
    let pinned = handle.open_session(params).expect("open on v1");
    if let Ending::CloseWhileDecoding = ending {
        // The first event proves a worker has the session; the worker
        // takes it straight back for the next (held) slice.
        handle
            .next_events(pinned, 1, Duration::from_secs(10))
            .expect("first event");
    }

    assert_eq!(handle.promote_version(2, fixture_model_v2()), Some(1));
    assert_eq!(handle.promote_version(3, fixture_model()), Some(2));
    assert!(
        handle.sessions_per_version().contains(&(1, 1)),
        "released v1 stays listed while pinned ({ctx})"
    );
    assert_eq!(seen(), [], "nothing retires while pinned ({ctx})");

    match ending {
        Ending::Close => {
            // Decode to the end first, so no worker holds the session.
            data_events(&drain_session(&handle, pinned, 64));
        }
        Ending::CloseWhileDecoding => {
            std::thread::sleep(Duration::from_millis(100));
            handle.close_session(pinned).expect("close mid-decode");
            assert_eq!(
                seen(),
                [],
                "the worker still holds the session, and with it v1 ({ctx})"
            );
        }
        Ending::Reaped => {
            let token = handle.mint_detach_token();
            assert_eq!(handle.park_sessions(token, [pinned]), 1);
        }
    }
    assert_eq!(
        await_events(&events, 1),
        [LifecycleEvent::Retired(1)],
        "v1 retires once its last session is disposed ({ctx})"
    );
    let per = handle.sessions_per_version();
    assert!(
        !per.iter().any(|(v, _)| *v == 1),
        "v1 freed ({ctx}): {per:?}"
    );

    // A session on v3, then two promotes: v2 (the rollback target,
    // unpinned) is released and retires at once; v3 is released pinned.
    handle
        .open_session(StreamParams::new(77))
        .expect("open on v3");
    handle.promote_version(4, fixture_model_v2());
    handle.promote_version(5, fixture_model());
    let want = [LifecycleEvent::Retired(1), LifecycleEvent::Retired(2)];
    assert_eq!(
        await_events(&events, 2),
        want,
        "unpinned v2 retires ({ctx})"
    );
    assert!(handle.sessions_per_version().contains(&(3, 1)));
    assert_eq!(handle.stats().versions_retired, 2);

    // Shutdown drops v3's pin, v4 (rollback target) and v5 (live): none
    // of that is a retirement.
    drop(handle);
    drop(engine);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(seen(), want, "engine drop retires nothing ({ctx})");
}

/// `LifecycleEvent::Retired` fires once per released version, after its
/// last pinned session ends — by close, by close while a worker holds it,
/// or by TTL reap — at one shard and across four.
#[test]
fn released_version_retires_when_its_last_session_ends() {
    for shards in [1, 4] {
        for ending in [Ending::Close, Ending::CloseWhileDecoding, Ending::Reaped] {
            retire_on(shards, ending);
        }
    }
}

/// The divergence trip-wire demotes the live version back to the rollback
/// target, and the demoted version retires once the session it failed is
/// closed.
#[test]
fn trip_wire_releases_the_demoted_version() {
    // One shard numbers sessions 1, 2, …: the first session is poisoned.
    let chaos = ChaosPlan {
        poison_session: Some(1),
        poison_at_event: 0,
        ..ChaosPlan::default()
    };
    let engine =
        Engine::start_versioned(fixture_model(), 1, ServeConfig::new(1), chaos).expect("starts");
    let handle = engine.handle();
    let events: Arc<Mutex<Vec<LifecycleEvent>>> = Arc::default();
    let sink = Arc::clone(&events);
    handle.set_lifecycle_hook(move |ev| sink.lock().expect("events lock").push(ev));
    handle.promote_version(2, fixture_model_v2());

    let id = handle
        .open_session(StreamParams::new(5))
        .expect("open on v2");
    assert_eq!(id, SessionId(1));
    let trip = LifecycleEvent::TripWire {
        demoted: 2,
        restored: 1,
    };
    assert_eq!(await_events(&events, 1), [trip]);
    assert_eq!(handle.live_version(), 1);
    let batch = handle
        .next_events(id, 8, Duration::from_secs(10))
        .expect("failure record");
    assert!(batch.events.last().is_some_and(|e| e.is_failure()));
    assert_eq!(
        events.lock().expect("events lock").clone(),
        [trip],
        "the failed session still pins v2"
    );
    handle.close_session(id).expect("close");
    assert_eq!(await_events(&events, 2), [trip, LifecycleEvent::Retired(2)]);
    drop(engine);
}
