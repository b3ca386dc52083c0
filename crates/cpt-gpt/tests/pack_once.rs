//! The pack-once weight cache must be invisible. Decode reads each weight
//! through panels `ParamStore` packs once and drops on the next write, so
//! these tests pin the contract from the outside: every write route is seen
//! by the next decode step, clones share nothing, nothing derived from the
//! weights (checksum, JSON) depends on whether the cache is warm, a cold
//! model may be hit by many threads at once, and the decode GEMMs give the
//! same bits whatever rayon pool they run inside (they never fork into it).

use cpt_gpt::{CptGpt, CptGptConfig, Tokenizer, TrainConfig};
use cpt_nn::serialize::load_weights_into;
use cpt_nn::Tensor;
use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};

fn dataset() -> Dataset {
    let streams = (0..8u64)
        .map(|i| {
            let mut t = 0.0;
            let events = (0..8)
                .map(|k| {
                    let (et, gap) = if k % 2 == 0 {
                        (EventType::ServiceRequest, 90.0 + i as f64)
                    } else {
                        (EventType::ConnectionRelease, 10.0)
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

fn tiny_model(seed: u64) -> CptGpt {
    let cfg = CptGptConfig {
        d_model: 16,
        n_blocks: 2,
        n_heads: 2,
        d_mlp: 40,
        d_head: 24,
        max_len: 16,
        seed,
        ..CptGptConfig::small()
    };
    CptGpt::new(cfg, Tokenizer::fit(&dataset()))
}

/// A model built from scratch that holds `model`'s weights: it has never
/// packed anything, so its decode is what a stale cache must not differ
/// from.
fn rebuilt(model: &CptGpt) -> CptGpt {
    let mut fresh = CptGpt::new(model.config, model.tokenizer.clone());
    load_weights_into(&mut fresh.store, &model.store).expect("same architecture");
    fresh
}

/// Bits of every head output over a few two-stream decode steps on fixed
/// tokens.
fn decode_bits(model: &CptGpt) -> Vec<u32> {
    let dtok = model.tokenizer.token_dim();
    let mut state = model.begin_decode(2);
    let mut bits = Vec::new();
    for step in 0..3 {
        let data = (0..2 * dtok)
            .map(|i| ((i + 3 * step) % 7) as f32 * 0.125 - 0.25)
            .collect();
        let out = model.decode_step(&mut state, &Tensor::new(data, vec![2, 1, dtok]));
        let floats = out
            .event_logits
            .data
            .iter()
            .chain(&out.iat_mean)
            .chain(&out.iat_log_std)
            .chain(&out.stop_logits.data);
        bits.extend(floats.map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn every_write_route_is_seen_by_the_next_decode() {
    let mut model = tiny_model(5);
    let cold = decode_bits(&model);
    assert!(model.store.packed_floats() > 0, "decode packs on first use");
    assert_eq!(cold, decode_bits(&model), "warm decode equals the cold one");

    // Adam steps (the trainer writes every weight through value_mut).
    cpt_gpt::train(&mut model, &dataset(), &TrainConfig::quick().with_epochs(1))
        .expect("training failed");
    let trained = decode_bits(&model);
    assert_ne!(trained, cold, "training must change the decode");
    assert_eq!(trained, decode_bits(&rebuilt(&model)));

    // Checkpoint load-into over a warm store.
    let other = tiny_model(6);
    load_weights_into(&mut model.store, &other.store).expect("same architecture");
    let loaded = decode_bits(&model);
    assert_ne!(loaded, trained);
    assert_eq!(loaded, decode_bits(&other));

    // A raw write to one matrix entry.
    let fc1 = model
        .store
        .ids()
        .into_iter()
        .find(|id| model.store.name(*id) == "block1.fc1.w")
        .expect("block1.fc1.w exists");
    model.store.value_mut(fc1).data[7] += 0.5;
    let poked = decode_bits(&model);
    assert_ne!(poked, loaded);
    assert_eq!(poked, decode_bits(&rebuilt(&model)));
}

#[test]
fn training_a_clone_leaves_the_original_decode_alone() {
    let model = tiny_model(7);
    let before = decode_bits(&model);
    let mut copy = model.clone();
    assert_eq!(copy.store.packed_floats(), 0, "a clone starts cold");
    cpt_gpt::train(&mut copy, &dataset(), &TrainConfig::quick().with_epochs(1))
        .expect("training failed");
    assert_ne!(decode_bits(&copy), before);
    assert_eq!(decode_bits(&model), before);
}

#[test]
fn checksum_ignores_the_cache() {
    let model = tiny_model(8);
    let cold = model.checksum();
    model.pack_decode_weights();
    assert!(model.store.packed_floats() > 0);
    assert_eq!(model.checksum(), cold);
    assert_eq!(model.clone().checksum(), cold);
}

#[test]
fn json_ignores_the_cache() {
    let model = tiny_model(9);
    let cold = model.to_json().expect("serializes");
    model.pack_decode_weights();
    assert_eq!(model.to_json().expect("serializes"), cold);
    let back = CptGpt::from_json(&cold).expect("parses");
    assert_eq!(back.store.packed_floats(), 0, "a parsed model starts cold");
    assert_eq!(decode_bits(&back), decode_bits(&model));
}

#[test]
fn pack_decode_weights_leaves_nothing_for_the_first_step() {
    let model = tiny_model(10);
    model.pack_decode_weights();
    let packed = model.store.packed_floats();
    decode_bits(&model);
    let mut bstate = model.begin_batch_decode(2);
    let mut a = model.begin_decode(1);
    let mut b = model.begin_decode(1);
    let tokens = vec![0.25; 2 * model.tokenizer.token_dim()];
    model.decode_step_batch(&mut bstate, &mut [&mut a, &mut b], &tokens);
    assert_eq!(model.store.packed_floats(), packed, "a decode step packed something");
}

#[test]
fn threads_racing_the_first_decode_of_a_cold_model_agree() {
    let model = tiny_model(11);
    let expected = decode_bits(&rebuilt(&model));
    assert_eq!(model.store.packed_floats(), 0);
    let barrier = std::sync::Barrier::new(8);
    let results: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    decode_bits(&model)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("decode thread panicked"))
            .collect()
    });
    for (i, bits) in results.iter().enumerate() {
        assert_eq!(bits, &expected, "thread {i}");
    }
}

/// A 16-session batched step at paper width: 16 × 128 × 1024 is far above
/// the product at which `matmul_into` forks into the current rayon pool.
fn batched_step_bits() -> Vec<u32> {
    let cfg = CptGptConfig {
        d_model: 128,
        n_blocks: 1,
        n_heads: 4,
        d_mlp: 1024,
        d_head: 64,
        max_len: 8,
        ..CptGptConfig::small()
    };
    let model = CptGpt::new(cfg, Tokenizer::fit(&dataset()));
    let dtok = model.tokenizer.token_dim();
    let n = 16;
    let mut bstate = model.begin_batch_decode(n);
    let mut states: Vec<_> = (0..n).map(|_| model.begin_decode(1)).collect();
    let mut bits = Vec::new();
    for step in 0..2 {
        let tokens: Vec<f32> = (0..n * dtok)
            .map(|i| ((i * 5 + step) % 11) as f32 * 0.1 - 0.5)
            .collect();
        let mut refs: Vec<_> = states.iter_mut().collect();
        let out = model.decode_step_batch(&mut bstate, &mut refs, &tokens);
        let floats = out
            .event_logits
            .data
            .iter()
            .chain(&out.iat_mean)
            .chain(&out.iat_log_std)
            .chain(&out.stop_logits.data);
        bits.extend(floats.map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn batched_decode_is_the_same_inside_any_rayon_pool() {
    let on_pool = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("cannot build rayon pool")
            .install(batched_step_bits)
    };
    let bare = batched_step_bits();
    assert_eq!(on_pool(1), bare);
    assert_eq!(on_pool(8), bare);
}
