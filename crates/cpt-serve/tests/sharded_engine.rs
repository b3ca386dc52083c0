//! Integration tests for the shared-nothing sharded engine: per-session
//! output is bit-identical at any shard × worker shape, the admission cap
//! is strict under concurrent opens racing across shards, occupancy and
//! imbalance stats are coherent, detach/reattach and drain work when the
//! parked group spans shards, and version promote/rollback sweeps on
//! per-shard refcounts.

use cpt_gpt::{CptGpt, CptGptConfig, StreamParams, Tokenizer, TrainConfig};
use cpt_serve::{Engine, ServeConfig, ServeError, SessionId};
use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

type DecodedEvent = cpt_gpt::SessionEvent;

fn alternating_dataset(n: usize) -> Dataset {
    let streams = (0..n)
        .map(|i| {
            let mut t = 0.0;
            let events = (0..6 + (i % 3) * 2)
                .map(|k| {
                    let (et, gap) = if k % 2 == 0 {
                        (EventType::ServiceRequest, 100.0)
                    } else {
                        (EventType::ConnectionRelease, 10.0)
                    };
                    t += gap;
                    Event::new(et, t)
                })
                .collect();
            Stream::new(UeId(i as u64), DeviceType::Phone, events)
        })
        .collect();
    Dataset::new(streams)
}

fn trained_model() -> Arc<CptGpt> {
    static MODEL: OnceLock<Arc<CptGpt>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let data = alternating_dataset(12);
        let cfg = CptGptConfig {
            d_model: 16,
            n_blocks: 1,
            n_heads: 2,
            d_mlp: 32,
            d_head: 16,
            max_len: 16,
            ..CptGptConfig::small()
        };
        let mut model = CptGpt::new(cfg, Tokenizer::fit(&data));
        cpt_gpt::train(&mut model, &data, &TrainConfig::quick().with_epochs(2))
            .expect("fixture training failed");
        Arc::new(model)
    }))
}

/// A second, differently-trained version for promote/rollback tests.
fn trained_v2() -> Arc<CptGpt> {
    static MODEL: OnceLock<Arc<CptGpt>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let mut model = (*trained_model()).clone();
        cpt_gpt::train(
            &mut model,
            &alternating_dataset(12),
            &TrainConfig::quick().with_epochs(1),
        )
        .expect("fixture v2 training failed");
        Arc::new(model)
    }))
}

/// Ground truth: a fresh single-session decoder on `model`, drained fully.
fn reference(model: &Arc<CptGpt>, params: StreamParams) -> Vec<DecodedEvent> {
    let mut dec = model.open_session(params).expect("open reference session");
    let mut out = Vec::new();
    while let Some(ev) = dec.next_event(model) {
        out.push(ev);
    }
    out
}

/// Drains one session to completion on a running engine.
fn drain_session(handle: &cpt_serve::ServeHandle, id: SessionId) -> Vec<DecodedEvent> {
    let mut out = Vec::new();
    loop {
        let b = handle
            .next_events(id, 64, Duration::from_secs(10))
            .expect("next_events");
        out.extend(b.events.iter().map(|e| {
            assert!(!e.is_failure(), "unexpected failure record: {e:?}");
            *e.data().expect("data event")
        }));
        if b.finished {
            handle.close_session(id).expect("close finished session");
            return out;
        }
    }
}

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
        .map(|p| reference(&trained_model(), *p))
        .collect();
    for (shards, workers) in [(1usize, 1usize), (1, 8), (4, 4), (8, 8), (8, 1)] {
        let cfg = ServeConfig {
            shards,
            slice_budget: 3,
            queue_capacity: 8,
            ..ServeConfig::new(workers)
        };
        let engine = Engine::start(trained_model(), cfg).expect("engine starts");
        let handle = engine.handle();
        let ids: Vec<SessionId> = all_params
            .iter()
            .map(|p| handle.open_session(*p).expect("session admitted"))
            .collect();
        let got: Vec<Vec<DecodedEvent>> =
            ids.iter().map(|id| drain_session(&handle, *id)).collect();
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
    let model = trained_model();
    let offline = model
        .generate(&cpt_gpt::GenerateConfig { batch_size: 4, ..cpt_gpt::GenerateConfig::new(n, seed) })
        .expect("offline generate");
    let offline: Vec<Vec<(EventType, u64)>> = offline
        .streams
        .iter()
        .map(|s| s.events.iter().map(|e| (e.event_type, e.timestamp.to_bits())).collect())
        .collect();
    for (shards, workers) in [(1usize, 1usize), (4, 4), (8, 1)] {
        let engine = Engine::start(Arc::clone(&model), ServeConfig { shards, ..ServeConfig::new(workers) })
            .expect("engine starts");
        let handle = engine.handle();
        let id = handle
            .open_session(StreamParams::new(seed).streams(n))
            .expect("session admitted");
        let mut served: Vec<Vec<(EventType, u64)>> = vec![Vec::new(); n];
        for ev in drain_session(&handle, id) {
            served[ev.stream].push((ev.event_type, ev.timestamp.to_bits()));
        }
        engine.shutdown();
        assert_eq!(offline, served, "served trace differs at {shards} shards / {workers} workers");
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
    let engine = Engine::start(trained_model(), cfg).expect("engine starts");
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
    let engine = Engine::start(trained_model(), cfg).expect("engine starts");
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
    let engine = Engine::start(trained_model(), cfg).expect("engine starts");
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
    let token = handle.detach_sessions(&ids).expect("detach all");
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
        got.extend(drain_session(&handle, *id));
        assert_eq!(
            reference(&trained_model(), *params),
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
    let engine = Engine::start(trained_model(), cfg).expect("engine starts");
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
fn promote_and_rollback_with_per_shard_refcounts() {
    let cfg = ServeConfig {
        shards: 4,
        slice_budget: 3,
        queue_capacity: 8,
        ..ServeConfig::new(4)
    };
    let engine = Engine::start(trained_model(), cfg).expect("engine starts");
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

    handle.install_version(2, trained_v2());
    assert_eq!(handle.promote_version(2).expect("promote"), Some(1));
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
        reference(&trained_v2(), new_params),
        drain_session(&handle, new_id),
        "post-promote session must decode on the new version"
    );

    // The pinned originals still complete byte-identically on v1.
    for (id, params) in v1_ids.iter().zip(&v1_params) {
        let mut got: Vec<DecodedEvent> = Vec::new();
        // Their first event was already consumed above; re-derive it from
        // the reference instead of tracking it.
        let want = reference(&trained_model(), *params);
        got.push(want[0]);
        got.extend(drain_session(&handle, *id));
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

    // Promoting twice displaces the older rollback target, which sweeps
    // once unpinned: after promote(3) then promote(4), v1 is gone.
    handle.install_version(3, trained_v2());
    assert_eq!(handle.promote_version(3).expect("promote v3"), Some(1));
    handle.install_version(4, trained_model());
    assert_eq!(handle.promote_version(4).expect("promote v4"), Some(3));
    let per = handle.sessions_per_version();
    assert!(
        !per.iter().any(|(v, _)| *v == 1),
        "displaced rollback target swept: {per:?}"
    );
    assert_eq!(handle.live_version(), 4);
    engine.shutdown();
}
