//! Acceptance properties for cross-session batched decode: the engine
//! (packed per-layer GEMMs over whatever sessions a worker holds) must be
//! byte-identical to the fresh-state single-session reference — a direct
//! `SessionDecoder::next_event` drain — at 1, 2, and 8 workers, for any
//! `batch_max` in 1..=64 (1 is one session at a time), with sessions
//! joining and leaving mid-stream, and with a chaos panic injected inside a
//! batch failing only the targeted entry's session.
//!
//! (These are proptests; the deterministic offline-runnable coverage of
//! the batched path lives in `chaos_crashonly.rs` and
//! `engine_determinism.rs`, which run it via the default config.)

use cpt_gpt::StreamParams;
use cpt_serve::{ChaosPlan, Engine, ServeConfig, SessionEvent, SessionId, StatsSnapshot};
use cpt_testkit::{fixture_model, served_reference};
use proptest::prelude::*;
use std::time::Duration;

/// Runs every session to completion on one engine, returning each
/// session's full delivered stream plus the final stats snapshot.
///
/// With `stagger`, only the first half of the sessions is opened up
/// front; a couple of events are pulled from each (so they are genuinely
/// mid-stream), then the second half joins — batch composition changes as
/// sessions join, and again as each one finishes and leaves.
fn run_engine(
    cfg: ServeConfig,
    chaos: ChaosPlan,
    all_params: &[StreamParams],
    stagger: bool,
) -> (Vec<Vec<SessionEvent>>, StatsSnapshot) {
    let engine = Engine::start_versioned(fixture_model(), 1, cfg, chaos).expect("engine starts");
    let handle = engine.handle();
    let n = all_params.len();
    let mut ids: Vec<Option<SessionId>> = vec![None; n];
    let mut outputs: Vec<Vec<SessionEvent>> = vec![Vec::new(); n];
    let mut done = vec![false; n];
    let first_wave = if stagger { n.div_ceil(2) } else { n };
    for i in 0..first_wave {
        ids[i] = Some(
            handle
                .open_session(all_params[i])
                .expect("session admitted"),
        );
    }
    if stagger {
        for i in 0..first_wave {
            let id = ids[i].expect("opened");
            let b = handle
                .next_events(id, 2, Duration::from_secs(10))
                .expect("next_events");
            outputs[i].extend(b.events);
            if b.finished {
                handle.close_session(id).expect("close");
                done[i] = true;
            }
        }
        for i in first_wave..n {
            ids[i] = Some(
                handle
                    .open_session(all_params[i])
                    .expect("session admitted"),
            );
        }
    }
    while !done.iter().all(|d| *d) {
        for i in 0..n {
            if done[i] {
                continue;
            }
            let id = ids[i].expect("opened");
            let b = handle
                .next_events(id, 5, Duration::from_secs(10))
                .expect("next_events");
            outputs[i].extend(b.events);
            if b.finished {
                handle.close_session(id).expect("close");
                done[i] = true;
            }
        }
    }
    let stats = handle.stats();
    engine.shutdown();
    (outputs, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole property: for any worker count, any `batch_max` in
    /// 1..=64 and at `batch_max` 1, and sessions joining/leaving
    /// mid-stream, the engine's per-session output is byte-identical to
    /// the single-session reference.
    #[test]
    fn batched_decode_matches_reference(
        seed in 0u64..10_000,
        sessions in 1usize..6,
        streams in 1usize..4,
        batch_max in 1usize..=64,
    ) {
        let all_params: Vec<StreamParams> = (0..sessions as u64)
            .map(|i| StreamParams::new(seed.wrapping_add(i * 7919)).streams(streams))
            .collect();
        let expected: Vec<Vec<SessionEvent>> =
            all_params.iter().map(|p| served_reference(&fixture_model(), *p)).collect();
        for workers in [1usize, 2, 8] {
            for batch_max in [1, batch_max] {
                let cfg = ServeConfig {
                    slice_budget: 3,
                    queue_capacity: 8,
                    batch_max,
                    ..ServeConfig::new(workers)
                };
                let (got, stats) = run_engine(cfg, ChaosPlan::default(), &all_params, true);
                prop_assert_eq!(
                    &got, &expected,
                    "engine diverged from reference at {} workers / batch_max {}",
                    workers, batch_max
                );
                // Every event is a batched token, and the occupancy
                // accounting is wired up.
                prop_assert!(stats.batched_tokens > 0 && stats.sequential_tokens == 0);
                prop_assert!(stats.batch_rounds > 0);
                prop_assert!(stats.batch_peak as usize <= batch_max);
            }
        }
    }

    /// Containment inside a batch: a chaos panic targeting one session
    /// fails only that entry — its consumer sees exactly the pre-panic
    /// prefix plus one terminal failure record, while every other session
    /// in the same batches stays byte-identical to the reference.
    #[test]
    fn chaos_panic_inside_a_batch_fails_only_the_target(
        seed in 0u64..10_000,
        target_idx in 0usize..4,
        panic_at in 0u64..4,
    ) {
        let all_params: Vec<StreamParams> = (0..4u64)
            .map(|i| StreamParams::new(seed.wrapping_add(i * 131)).streams(2))
            .collect();
        let expected: Vec<Vec<SessionEvent>> =
            all_params.iter().map(|p| served_reference(&fixture_model(), *p)).collect();
        // Sessions open in order from one thread, so engine ids are 1..=N.
        let chaos = ChaosPlan::panic_session_at(target_idx as u64 + 1, panic_at);
        // One wide-open worker batch: the target is advanced in the same
        // packed GEMM as its neighbours when they are runnable together.
        let cfg = ServeConfig {
            slice_budget: 4,
            queue_capacity: 8,
            batch_max: 64,
            ..ServeConfig::new(2)
        };
        let (got, stats) = run_engine(cfg, chaos, &all_params, false);
        // The panic fires iff the target would ever reach `panic_at`
        // emitted events (the chaos check precedes every advance,
        // including the finish-discovering one).
        let fires = expected[target_idx].len() as u64 >= panic_at;
        prop_assert_eq!(stats.worker_panics, u64::from(fires));
        prop_assert_eq!(stats.sessions_failed, u64::from(fires));
        for (i, stream) in got.iter().enumerate() {
            if i == target_idx && fires {
                let p = panic_at as usize;
                prop_assert_eq!(&stream[..p], &expected[i][..p], "target prefix diverged");
                prop_assert_eq!(
                    stream.len(), p + 1,
                    "target must end right after the failure record"
                );
                let last = stream.last().expect("non-empty");
                prop_assert!(
                    matches!(last, SessionEvent::Failed { reason } if reason.contains("chaos")),
                    "expected a chaos failure record, got {:?}", last
                );
            } else {
                prop_assert_eq!(stream, &expected[i], "untargeted session {} diverged", i);
            }
        }
    }
}
