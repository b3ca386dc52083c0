//! Acceptance tests for validated hot-swap through the crash-safe model
//! registry: publish a new version while sessions stream, under chaos.
//!
//! The acceptance criterion: with ≥64 sessions streaming, a publish must
//! leave pinned sessions byte-identical to an un-swapped run while new
//! sessions open on the new version — at 1, 2, and 8 workers; a corrupt
//! candidate must be rejected with a typed error while the previous
//! version keeps serving; a crash between the manifest temp-write and
//! rename must leave the old version durable, with a restart recovering
//! it; and a worker panic mid-publish must fail only the targeted
//! session.

use cpt_gpt::{CptGpt, StreamParams};
use cpt_serve::registry::{Registry, RegistryError, VersionState};
use cpt_serve::{
    ChaosPlan, Director, Engine, ServeConfig, ServeError, ServeHandle, SessionEvent, SessionId,
};
use cpt_testkit::{drain_session, fixture_model, fixture_model_v2, served_reference, Scratch};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Writes `model` into `scratch` as a publishable candidate file and
/// returns its path.
fn write_candidate(scratch: &Scratch, name: &str, model: &CptGpt) -> PathBuf {
    let path = scratch.path(name);
    cpt_gpt::save_model_file(model, &path).expect("write candidate file");
    path
}

/// Bootstraps the registry with v1 promoted live (chaos-free), then
/// reopens it with `chaos` and wires the engine + director — exactly the
/// server's startup sequence, so the director's first staged candidate is
/// chaos stage ordinal 1.
fn start_stack(
    scratch: &Scratch,
    workers: usize,
    chaos: ChaosPlan,
) -> (Engine, ServeHandle, Arc<Director>) {
    let root = scratch.path("registry");
    {
        let (mut reg, report) = Registry::open(&root).expect("bootstrap registry");
        if reg.is_empty() {
            assert!(report.is_clean());
            let id = reg
                .stage(&fixture_model(), "bootstrap import")
                .expect("stage v1");
            reg.validate(id).expect("validate v1");
            reg.promote(id).expect("promote v1");
        }
    }
    let (mut reg, _) = Registry::open_with_chaos(&root, chaos).expect("reopen registry");
    let (live, model) = reg.load_live().expect("live version loads");
    let engine = Engine::start_versioned(Arc::new(model), live, ServeConfig::new(workers), chaos)
        .expect("engine starts");
    let handle = engine.handle();
    let director = Arc::new(Director::new(reg, engine.handle(), chaos).expect("director starts"));
    (engine, handle, director)
}

/// The swap-under-load acceptance: 64 sessions pinned to v1 keep decoding
/// byte-identically across a mid-stream publish while new sessions open
/// on v2 — at 1, 2, and 8 workers.
#[test]
fn publish_under_load_pins_old_sessions_and_switches_new_ones() {
    for workers in [1usize, 2, 8] {
        let scratch = Scratch::new(&format!("swap{workers}"));
        let (engine, handle, director) = start_stack(&scratch, workers, ChaosPlan::default());
        assert_eq!(handle.live_version(), 1);

        let pinned_params: Vec<StreamParams> = (0..64u64)
            .map(|i| StreamParams::new(4000 + i * 101).streams(2))
            .collect();
        let pinned: Vec<SessionId> = pinned_params
            .iter()
            .map(|p| handle.open_session(*p).expect("pinned session admitted"))
            .collect();

        // Deliver a prefix so every session is demonstrably mid-stream,
        // then swap underneath it.
        let mut outputs: Vec<Vec<SessionEvent>> = Vec::with_capacity(pinned.len());
        for id in &pinned {
            let b = handle
                .next_events(*id, 2, Duration::from_secs(10))
                .expect("prefix delivery");
            outputs.push(b.events);
        }

        let candidate = write_candidate(&scratch, "v2-candidate.cmb", &fixture_model_v2());
        let outcome = director.publish_path(&candidate).expect("publish succeeds");
        assert_eq!(outcome.version, 2);
        assert_eq!(outcome.previous, Some(1));
        assert_eq!(handle.live_version(), 2, "new sessions must open on v2");

        // Sessions opened after the publish decode with v2's weights.
        let fresh_params: Vec<StreamParams> = (0..16u64)
            .map(|i| StreamParams::new(9000 + i * 17).streams(2))
            .collect();
        for p in &fresh_params {
            let id = handle.open_session(*p).expect("fresh session admitted");
            assert_eq!(
                drain_session(&handle, id, 16),
                served_reference(&fixture_model_v2(), *p),
                "post-swap session diverged from the v2 reference at {workers} workers"
            );
        }
        let per_version = handle.sessions_per_version();
        assert!(
            per_version.contains(&(1, 64)),
            "64 sessions must stay pinned to v1, got {per_version:?}"
        );

        // Pinned sessions complete byte-identically to an un-swapped run.
        for ((id, prefix), p) in pinned.iter().zip(outputs).zip(&pinned_params) {
            let mut got = prefix;
            got.extend(drain_session(&handle, *id, 16));
            assert_eq!(
                got,
                served_reference(&fixture_model(), *p),
                "pinned session diverged from the v1 reference at {workers} workers"
            );
        }

        // A second publish displaces v1 as the rollback target; with its
        // last pinned session gone the engine frees it and the director
        // persists the retirement.
        let outcome = director.publish_path(&candidate).expect("second publish");
        assert_eq!(outcome.version, 3);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, records) = director.versions();
            let v1_state = records
                .iter()
                .find(|r| r.id == 1)
                .expect("v1 record persists")
                .state;
            if v1_state == VersionState::Retired {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "v1 was never retired durably (state {v1_state:?})"
            );
            std::thread::sleep(Duration::from_millis(25));
        }

        let stats = handle.stats();
        assert_eq!(stats.versions_published, 2);
        assert_eq!(stats.versions_retired, 1);
        director.shutdown();
        engine.shutdown();
    }
}

/// A corrupt candidate is rejected with a typed error and quarantined
/// durably; the previous version never stops serving.
#[test]
fn corrupt_candidate_is_rejected_typed_while_v1_keeps_serving() {
    let scratch = Scratch::new("corrupt");
    let chaos = ChaosPlan {
        corrupt_candidate: Some(1),
        ..ChaosPlan::default()
    };
    let (engine, handle, director) = start_stack(&scratch, 2, chaos);

    let params: Vec<StreamParams> = (0..8u64)
        .map(|i| StreamParams::new(100 + i * 7).streams(2))
        .collect();
    let ids: Vec<SessionId> = params
        .iter()
        .map(|p| handle.open_session(*p).expect("admitted"))
        .collect();

    let candidate = write_candidate(&scratch, "v2-candidate.cmb", &fixture_model_v2());
    let err = director
        .publish_path(&candidate)
        .expect_err("a corrupt candidate must not publish");
    assert!(
        matches!(
            &err,
            ServeError::Registry(RegistryError::CorruptArtifact { version: 2, detail, .. })
                if detail.contains("checksum mismatch")
        ),
        "expected a typed corrupt-artifact rejection, got {err:?}"
    );
    assert_eq!(handle.live_version(), 1, "v1 must keep serving");
    assert_eq!(handle.stats().versions_quarantined, 1);
    let (live, records) = director.versions();
    assert_eq!(live, Some(1));
    assert_eq!(
        records
            .iter()
            .find(|r| r.id == 2)
            .expect("record kept")
            .state,
        VersionState::Quarantined
    );

    // In-flight and brand-new sessions still decode v1 exactly.
    for (id, p) in ids.iter().zip(&params) {
        assert_eq!(
            drain_session(&handle, *id, 16),
            served_reference(&fixture_model(), *p)
        );
    }
    let p = StreamParams::new(777).streams(2);
    let fresh = handle.open_session(p).expect("still admitting");
    assert_eq!(
        drain_session(&handle, fresh, 16),
        served_reference(&fixture_model(), p)
    );
    director.shutdown();
    engine.shutdown();
}

/// A crash in the promote commit window (between manifest temp-write and
/// rename) leaves v1 durable and serving; a restart recovers it, and the
/// interrupted candidate — staged and validated durably — can then be
/// published to completion.
#[test]
fn crash_in_promote_commit_window_recovers_to_last_durable_version() {
    let scratch = Scratch::new("crashpromote");
    // Publishing stages (commit 1), validates (commit 2), promotes
    // (commit 3): crash the promote.
    let chaos = ChaosPlan {
        crash_manifest_commit: Some(3),
        ..ChaosPlan::default()
    };
    let (engine, handle, director) = start_stack(&scratch, 2, chaos);
    let p = StreamParams::new(42).streams(2);
    let id = handle.open_session(p).expect("admitted");

    let candidate = write_candidate(&scratch, "v2-candidate.cmb", &fixture_model_v2());
    let err = director
        .publish_path(&candidate)
        .expect_err("the crashed commit must surface");
    assert!(
        matches!(
            err,
            ServeError::Registry(RegistryError::SimulatedCrash { .. })
        ),
        "expected the simulated crash, got {err:?}"
    );
    assert_eq!(handle.live_version(), 1, "the engine must not half-promote");
    assert_eq!(
        handle.sessions_per_version(),
        [(1, 1)],
        "the engine holds nothing of the candidate"
    );
    assert_eq!(
        drain_session(&handle, id, 16),
        served_reference(&fixture_model(), p)
    );
    director.shutdown();
    engine.shutdown();

    // Restart: recovery cleans the torn temp file, lands on v1, and keeps
    // the durably staged candidate (it never got damaged).
    let (mut reg, report) = Registry::open(scratch.path("registry")).expect("recovery");
    assert_eq!(report.torn_commits_cleaned, 1);
    let (live, model) = reg.load_live().expect("durable version loads");
    assert_eq!(live, 1);
    assert_eq!(
        reg.manifest().record(2).expect("candidate survived").state,
        VersionState::Validated
    );

    let engine = Engine::start_versioned(
        Arc::new(model),
        live,
        ServeConfig::new(2),
        ChaosPlan::default(),
    )
    .expect("engine restarts");
    let handle = engine.handle();
    let director =
        Director::new(reg, engine.handle(), ChaosPlan::default()).expect("director restarts");
    let outcome = director
        .publish_version(2)
        .expect("the interrupted swap completes after restart");
    assert_eq!(outcome.version, 2);
    assert_eq!(handle.live_version(), 2);
    let fresh = handle.open_session(p).expect("admitted");
    assert_eq!(
        drain_session(&handle, fresh, 16),
        served_reference(&fixture_model_v2(), p)
    );
    director.shutdown();
    engine.shutdown();
}

/// A worker panic landing inside the publish window (widened by chaos)
/// fails only the targeted session; the publish itself and every other
/// pinned session are untouched.
#[test]
fn worker_panic_mid_publish_fails_only_the_targeted_session() {
    let scratch = Scratch::new("panicswap");
    // Session id 3 panics after 2 events; the publish window is held open
    // for 100ms so the panic lands inside it.
    let chaos = ChaosPlan {
        publish_delay_ms: 100,
        ..ChaosPlan::panic_session_at(3, 2)
    };
    let (engine, handle, director) = start_stack(&scratch, 2, chaos);

    let params: Vec<StreamParams> = (0..8u64)
        .map(|i| StreamParams::new(300 + i * 13).streams(2))
        .collect();
    let ids: Vec<SessionId> = params
        .iter()
        .map(|p| handle.open_session(*p).expect("admitted"))
        .collect();

    let candidate = write_candidate(&scratch, "v2-candidate.cmb", &fixture_model_v2());
    let publisher = {
        let director = Arc::clone(&director);
        std::thread::spawn(move || director.publish_path(&candidate))
    };

    // Drain everything while the publish is in flight.
    let streams: Vec<Vec<SessionEvent>> = ids
        .iter()
        .map(|id| drain_session(&handle, *id, 4))
        .collect();
    let outcome = publisher
        .join()
        .expect("publisher thread joins")
        .expect("publish succeeds despite the contained panic");
    assert_eq!(outcome.version, 2);
    assert_eq!(handle.live_version(), 2);

    for (i, (stream, p)) in streams.iter().zip(&params).enumerate() {
        let expected = served_reference(&fixture_model(), *p);
        if i == 2 {
            // The targeted session: its decoded prefix, then exactly one
            // terminal failure record.
            assert_eq!(&stream[..2], &expected[..2]);
            assert_eq!(stream.len(), 3, "prefix + one failure record");
            assert!(
                matches!(&stream[2], SessionEvent::Failed { reason } if reason.contains("chaos")),
                "expected a chaos failure record, got {:?}",
                stream[2]
            );
        } else {
            assert_eq!(stream, &expected, "untargeted session {i} diverged");
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.sessions_failed, 1);
    director.shutdown();
    engine.shutdown();
}
