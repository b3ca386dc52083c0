//! Streaming-train equivalence (DESIGN.md §17): training from an
//! out-of-core `.ctb` columnar trace must be *bit-identical* to training
//! from the same data loaded in RAM — same tokenizer, same initial-event
//! distribution, same per-epoch losses, same final weights.
//!
//! The in-RAM reference is the exact pipeline `cptgen train` uses on a
//! JSONL trace: `dataset.clamp_lengths(2, max_len + 1)` then fit + train.
//! The streaming side writes the *unclamped* dataset to a `.ctb` file and
//! relies on [`ColumnarSource`]/[`fit_tokenizer_streaming`] to perform the
//! equivalent filtering and truncation on the fly.

use cpt_gpt::config::CptGptConfig;
use cpt_gpt::{
    fit_tokenizer_streaming, train, Batch, ColumnarSource, CptGpt, ScaleKind, ShardSource,
    Tokenizer, TrainConfig,
};
use cpt_synth::SynthConfig;
use cpt_testkit::Scratch;
use cpt_trace::columnar::{write_ctb, ColumnarReader};
use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};

/// The model shape under test: the kit's, at `max_len` 12.
fn tiny_config() -> CptGptConfig {
    cpt_testkit::tiny_config().with_max_len(12)
}

/// A dataset engineered to hit every filtering/truncation edge:
/// single-event streams (dropped by both paths), streams longer than
/// `max_len + 1` (truncated by both paths) whose largest interarrival
/// lies *beyond* the truncation point (must not leak into the tokenizer),
/// and all three device types.
fn edge_dataset() -> Dataset {
    let mut streams = Vec::new();
    let devices = [
        DeviceType::Phone,
        DeviceType::ConnectedCar,
        DeviceType::Tablet,
    ];
    for i in 0..40usize {
        let len = match i % 5 {
            0 => 1, // untrainable: filtered by clamp / source
            1 => 2, // minimal trainable stream
            2 => 7,
            3 => 20, // longer than max_len + 1 = 13: truncated
            _ => 13, // exactly at the truncation boundary
        };
        let mut t = 0.0;
        let events = (0..len)
            .map(|k| {
                let et = if k % 2 == 0 {
                    EventType::ServiceRequest
                } else {
                    EventType::ConnectionRelease
                };
                // Gaps spread over orders of magnitude; events past the
                // truncation point get a huge gap that must NOT affect
                // the streaming tokenizer fit.
                let gap = if k > 13 {
                    90_000.0 + i as f64
                } else {
                    0.5 + (i * 7 + k * 3) as f64 % 47.0
                };
                t += gap;
                Event::new(et, t)
            })
            .collect();
        streams.push(Stream::new(
            UeId(i as u64),
            devices[i % devices.len()],
            events,
        ));
    }
    Dataset::new(streams)
}

fn assert_models_bit_identical(a: &CptGpt, b: &CptGpt) {
    assert_eq!(a.tokenizer, b.tokenizer);
    assert_eq!(a.initial_event_dist, b.initial_event_dist);
    let ids_a = a.store.ids();
    let ids_b = b.store.ids();
    assert_eq!(ids_a.len(), ids_b.len());
    for (ia, ib) in ids_a.iter().zip(ids_b.iter()) {
        let va = &a.store.value(*ia).data;
        let vb = &b.store.value(*ib).data;
        assert_eq!(va, vb, "parameter tensor differs between sources");
    }
}

#[test]
fn streaming_tokenizer_fit_matches_in_ram() {
    let data = edge_dataset();
    let max_len = tiny_config().max_len;
    let clamped = data.clamp_lengths(2, max_len + 1);

    let dir = Scratch::new("streaming-train-tok");
    let path = dir.path("trace.ctb");
    write_ctb(&data, &path).expect("write ctb");
    let reader = ColumnarReader::open(&path).expect("open ctb");

    for scale in [ScaleKind::Log, ScaleKind::Linear] {
        let in_ram = Tokenizer::fit_with(&clamped, scale);
        let streamed = fit_tokenizer_streaming(&reader, max_len, scale);
        assert_eq!(in_ram, streamed, "tokenizer fit diverged for {scale:?}");
    }
}

#[test]
fn columnar_source_matches_dataset_source_metadata() {
    let data = edge_dataset();
    let max_len = tiny_config().max_len;
    let clamped = data.clamp_lengths(2, max_len + 1);

    let dir = Scratch::new("streaming-train-meta");
    let path = dir.path("trace.ctb");
    write_ctb(&data, &path).expect("write ctb");
    let reader = ColumnarReader::open(&path).expect("open ctb");
    let columnar = ColumnarSource::new(&reader).expect("source over verified ctb");
    let in_ram: &dyn ShardSource = &clamped;

    assert_eq!(columnar.num_trainable(), in_ram.num_trainable());
    assert!(columnar.num_trainable() > 0);
    assert_eq!(columnar.generation(), in_ram.generation());
    assert_eq!(
        columnar.initial_event_distribution(),
        in_ram.initial_event_distribution()
    );
    // The one epoch plan over either source: equal batches for equal RNGs,
    // from the clamped dataset and from the unclamped one alike.
    let tok = Tokenizer::fit(&clamped);
    let plan = |source: &dyn ShardSource| -> Vec<Vec<Batch>> {
        let rng = rand::SeedableRng::seed_from_u64(3);
        source.epoch_steps(&tok, 5, 2, max_len, rng).collect()
    };
    assert_eq!(plan(&columnar).len(), columnar.num_trainable().div_ceil(5));
    assert_eq!(plan(&columnar), plan(in_ram));
    assert_eq!(plan(&columnar), plan(&data));
}

#[test]
fn streaming_train_weights_are_bit_identical() {
    let data = edge_dataset();
    let max_len = tiny_config().max_len;
    let clamped = data.clamp_lengths(2, max_len + 1);

    let dir = Scratch::new("streaming-train-train");
    let path = dir.path("trace.ctb");
    write_ctb(&data, &path).expect("write ctb");
    let reader = ColumnarReader::open(&path).expect("open ctb");

    // Multi-step, multi-shard, ragged final step: 32 trainable streams,
    // batch_size 32 would be one step, so shrink via microbatch and epochs
    // to exercise the shard layout thoroughly.
    let cfg = TrainConfig::quick()
        .with_epochs(3)
        .with_microbatch(4)
        .with_seed(42);

    let tok = Tokenizer::fit_with(&clamped, ScaleKind::Log);
    assert_eq!(
        tok,
        fit_tokenizer_streaming(&reader, max_len, ScaleKind::Log)
    );

    let mut in_ram = CptGpt::new(tiny_config(), tok.clone());
    let report_ram = train(&mut in_ram, &clamped, &cfg).expect("in-RAM train");

    let source = ColumnarSource::new(&reader).expect("columnar source");
    let mut streamed = CptGpt::new(tiny_config(), tok);
    let report_st = train(&mut streamed, &source, &cfg).expect("streaming train");

    assert_eq!(report_ram.epochs.len(), report_st.epochs.len());
    for (a, b) in report_ram.epochs.iter().zip(report_st.epochs.iter()) {
        assert_eq!(
            a.mean_loss, b.mean_loss,
            "per-epoch loss must match bit for bit"
        );
    }
    assert_models_bit_identical(&in_ram, &streamed);
}

#[test]
fn streaming_train_matches_on_synthesized_trace() {
    // End-to-end shape: a real simulator trace (varied lengths, device
    // mix) rather than a hand-built one.
    let data = cpt_synth::generate(&SynthConfig::new(60, 11).hours(0.2));
    let max_len = tiny_config().max_len;
    let clamped = data.clamp_lengths(2, max_len + 1);

    let dir = Scratch::new("streaming-train-synth");
    let path = dir.path("trace.ctb");
    write_ctb(&data, &path).expect("write ctb");
    let reader = ColumnarReader::open(&path).expect("open ctb");

    let cfg = TrainConfig::quick().with_epochs(2).with_seed(7);
    let tok = fit_tokenizer_streaming(&reader, max_len, ScaleKind::Log);
    assert_eq!(tok, Tokenizer::fit_with(&clamped, ScaleKind::Log));

    let mut in_ram = CptGpt::new(tiny_config(), tok.clone());
    train(&mut in_ram, &clamped, &cfg).expect("in-RAM train");

    let source = ColumnarSource::new(&reader).expect("columnar source");
    let mut streamed = CptGpt::new(tiny_config(), tok);
    train(&mut streamed, &source, &cfg).expect("streaming train");

    assert_models_bit_identical(&in_ram, &streamed);
}
