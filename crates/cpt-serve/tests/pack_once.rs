//! The engine packs a version's decode weights when it promotes the
//! version, never on the request path, and each version keeps its own
//! panels: during a hot-swap two versions with different weights are live
//! at once, sessions pinned to the old one keep producing the old one's
//! bits, and the first `next` on the new one finds nothing left to pack.

use cpt_gpt::{CptGpt, CptGptConfig, StreamParams, Tokenizer, TrainConfig};
use cpt_serve::{Engine, ServeConfig, SessionId};
use cpt_testkit::{data_events, drain_session, reference, DecodedEvent};
use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};
use std::sync::Arc;
use std::time::Duration;

fn dataset() -> Dataset {
    let streams = (0..8u64)
        .map(|i| {
            let mut t = 0.0;
            let events = (0..6 + (i % 3) * 2)
                .map(|k| {
                    let (et, gap) = if k % 2 == 0 {
                        (EventType::ServiceRequest, 90.0 + 7.0 * i as f64)
                    } else {
                        (EventType::ConnectionRelease, 10.0 + i as f64)
                    };
                    t += gap;
                    Event::new(et, t)
                })
                .collect();
            Stream::new(UeId(i), DeviceType::Phone, events)
        })
        .collect();
    Dataset::new(streams)
}

/// A briefly trained model whose stop head is then pinned by its output
/// bias: `always_stop` ends every stream after its first sampled event,
/// otherwise streams run to `max_len`. Two such versions decode differently
/// whatever the training run or the sampling seed did.
fn model(always_stop: bool) -> CptGpt {
    let data = dataset();
    let cfg = CptGptConfig {
        d_model: 16,
        n_blocks: 2,
        n_heads: 2,
        d_mlp: 32,
        d_head: 16,
        max_len: 16,
        ..CptGptConfig::small()
    };
    let mut model = CptGpt::new(cfg, Tokenizer::fit(&data));
    cpt_gpt::train(&mut model, &data, &TrainConfig::quick().with_epochs(2))
        .expect("fixture training failed");
    let stop_bias = model
        .store
        .ids()
        .into_iter()
        .find(|id| model.store.name(*id) == "head_stop.fc2.b")
        .expect("head_stop.fc2.b exists");
    let toward_stop = if always_stop { 50.0 } else { -50.0 };
    model.store.value_mut(stop_bias).data = vec![-toward_stop, toward_stop];
    model
}

/// Ground truth on a private copy of `model`, so the engine's instance is
/// not warmed by the reference decode.
fn cold_reference(model: &CptGpt, params: StreamParams) -> Vec<DecodedEvent> {
    reference(&model.clone(), params)
}

#[test]
fn promote_packs_each_version_once_and_pinned_sessions_keep_their_bits() {
    let v1 = Arc::new(model(false));
    let v2 = Arc::new(model(true));
    assert_eq!(v1.store.packed_floats(), 0, "training packs nothing");

    let cfg = ServeConfig {
        shards: 2,
        slice_budget: 2,
        ..ServeConfig::new(2)
    };
    let engine = Engine::start(Arc::clone(&v1), cfg).expect("engine starts");
    let handle = engine.handle();
    let packed = v1.store.packed_floats();
    assert!(packed > 0, "start packs the initial version");

    let old_params: Vec<StreamParams> = (0..6u64)
        .map(|i| StreamParams::new(300 + i * 13).streams(2))
        .collect();
    let old_ids: Vec<SessionId> = old_params
        .iter()
        .map(|p| handle.open_session(*p).expect("session admitted"))
        .collect();
    let mut old_got: Vec<Vec<DecodedEvent>> = old_ids
        .iter()
        .map(|id| {
            let b = handle
                .next_events(*id, 1, Duration::from_secs(10))
                .expect("prefix delivery");
            b.events
                .iter()
                .map(|e| *e.data().expect("data event"))
                .collect()
        })
        .collect();

    assert_eq!(v2.store.packed_floats(), 0);
    assert_eq!(handle.promote_version(2, Arc::clone(&v2)), Some(1));
    assert_eq!(
        v2.store.packed_floats(),
        packed,
        "promote packs every decode weight of the new version"
    );

    let new_params = StreamParams::new(777).streams(2);
    assert_ne!(
        cold_reference(&v1, new_params),
        cold_reference(&v2, new_params),
        "the two versions must decode differently for the test to mean anything"
    );
    let new_id = handle.open_session(new_params).expect("open on v2");
    let first = handle
        .next_events(new_id, 1, Duration::from_secs(10))
        .expect("first next on v2");
    assert_eq!(
        v2.store.packed_floats(),
        packed,
        "the first next on the new version packed something"
    );
    let mut new_got: Vec<DecodedEvent> = first
        .events
        .iter()
        .map(|e| *e.data().expect("data event"))
        .collect();
    if !first.finished {
        new_got.extend(data_events(&drain_session(&handle, new_id, 8)));
    }
    assert_eq!(new_got, cold_reference(&v2, new_params));

    for ((id, params), got) in old_ids.iter().zip(&old_params).zip(&mut old_got) {
        got.extend(data_events(&drain_session(&handle, *id, 8)));
        assert_eq!(
            *got,
            cold_reference(&v1, *params),
            "v1-pinned session diverged after promote"
        );
    }
    assert_eq!(v1.store.packed_floats(), packed);
    engine.shutdown();
}
