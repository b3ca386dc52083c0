//! Property tests for offline generation: "one seed, one trace". UE `i` of
//! `generate(cfg)` is stream `i` of the session `open_session(seed, n)`,
//! drawing from an RNG derived from `(seed, i)` alone (splitmix64), so
//! neither the schedule — 1 thread, 2, 8, or work-stealing in any order —
//! nor `batch_size` can leak into the output, and draining the session one
//! event at a time yields the same dataset and guardrail counters.

use cpt_gpt::{
    CptGpt, CptGptConfig, GenCounters, GenerateConfig, GenerateError, StreamParams, Tokenizer,
    TrainConfig,
};
use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};
use proptest::prelude::*;
use std::sync::OnceLock;

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

/// One tiny trained model shared by every case — training per case would
/// dominate the runtime.
fn trained_model() -> &'static CptGpt {
    static MODEL: OnceLock<CptGpt> = OnceLock::new();
    MODEL.get_or_init(|| {
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
        model
    })
}

/// Generates on a freshly built pool pinned to `threads` workers.
fn generate_on(threads: usize, cfg: &GenerateConfig) -> (Dataset, GenCounters) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("cannot build rayon pool")
        .install(|| {
            trained_model()
                .generate_with_report(cfg)
                .expect("generation failed")
        })
}

/// The same run as one session drained event by event: the oracle.
fn drain_session(cfg: &GenerateConfig) -> (Dataset, GenCounters) {
    let model = trained_model();
    let params = StreamParams {
        seed: cfg.seed,
        device_type: cfg.device_type,
        num_streams: cfg.num_streams,
        max_stream_len: cfg.max_stream_len,
    };
    let mut session = model.open_session(params).expect("open_session");
    let mut streams: Vec<Stream> = (0..cfg.num_streams)
        .map(|i| Stream::new(UeId(i as u64), cfg.device_type, Vec::new()))
        .collect();
    while let Some(ev) = session.next_event(model) {
        streams[ev.stream].events.push(Event::new(ev.event_type, ev.timestamp));
    }
    (Dataset::new(streams), *session.counters())
}

/// Event types and exact timestamp bits, UE by UE.
fn bits(d: &Dataset) -> Vec<(u64, Vec<(EventType, u64)>)> {
    d.streams
        .iter()
        .map(|s| {
            let events = s.events.iter().map(|e| (e.event_type, e.timestamp.to_bits()));
            (s.ue_id.0, events.collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance property for generate(): any thread count, any
    /// batch size, any stream count (including partial final chunks), same
    /// bits out — the bits of the session with the same seed.
    #[test]
    fn generation_is_the_session_at_any_batch_size_and_thread_count(
        seed in 0u64..10_000,
        num_streams in 1usize..64,
        knobs in 0usize..3,
    ) {
        let base = GenerateConfig::new(num_streams, seed);
        let cfg = match knobs {
            0 => base,
            1 => base.with_max_stream_len(5),
            _ => base.device(DeviceType::Tablet).with_max_stream_len(9),
        };
        let (oracle, oracle_counters) = drain_session(&cfg);
        prop_assert_eq!(oracle.num_streams(), num_streams);
        for batch_size in [1usize, 7, 64] {
            for threads in [1usize, 2, 8] {
                let (out, counters) = generate_on(threads, &GenerateConfig { batch_size, ..cfg });
                prop_assert_eq!(
                    bits(&out),
                    bits(&oracle),
                    "batch_size {} on {} threads differs from the session",
                    batch_size,
                    threads
                );
                prop_assert!(out.streams.iter().all(|s| s.device_type == cfg.device_type));
                prop_assert_eq!(counters, oracle_counters);
            }
        }
    }
}

/// The chunk fan-out assigns UE ids by absolute chunk offset, not arrival
/// order — ids must come back 0..n in order even under work stealing.
#[test]
fn ue_ids_are_dense_and_ordered() {
    let cfg = GenerateConfig {
        batch_size: 4,
        ..GenerateConfig::new(19, 42)
    };
    let (out, _) = generate_on(8, &cfg);
    let ids: Vec<u64> = out.streams.iter().map(|s| s.ue_id.0).collect();
    assert_eq!(ids, (0..19).collect::<Vec<u64>>());
}

/// `generate_into` hands over UEs `0..n` in order — the streams of the
/// session with the same seed — whether the run fits one window of chunks
/// (16 per rayon thread) or takes several.
#[test]
fn generate_into_delivers_the_session_in_ue_order_across_windows() {
    for num_streams in [7usize, 150] {
        let base = GenerateConfig::new(num_streams, 11);
        let (oracle, oracle_counters) = drain_session(&base);
        for batch_size in [1usize, 3, 64] {
            for threads in [1usize, 8] {
                let cfg = GenerateConfig { batch_size, ..base };
                let mut delivered = Vec::new();
                let counters = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("cannot build rayon pool")
                    .install(|| {
                        trained_model().generate_into(&cfg, |stream| {
                            delivered.push(stream);
                            Ok::<(), GenerateError>(())
                        })
                    })
                    .expect("generation failed");
                let ids: Vec<u64> = delivered.iter().map(|s| s.ue_id.0).collect();
                assert_eq!(ids, (0..num_streams as u64).collect::<Vec<_>>());
                assert_eq!(
                    bits(&Dataset::new(delivered)),
                    bits(&oracle),
                    "{num_streams} streams, batch_size {batch_size}, {threads} threads"
                );
                assert_eq!(counters, oracle_counters);
            }
        }
    }
}

/// The run stops at the sink's first error and returns it.
#[test]
fn generate_into_stops_at_the_first_sink_error() {
    #[derive(Debug, PartialEq)]
    enum SinkError {
        Full(u64),
        Generate,
    }
    impl From<GenerateError> for SinkError {
        fn from(_: GenerateError) -> Self {
            SinkError::Generate
        }
    }
    // Stream 20 is in the second window at batch_size 1 on one thread.
    for (batch_size, k) in [(1usize, 20u64), (3, 4), (64, 0)] {
        let cfg = GenerateConfig {
            batch_size,
            ..GenerateConfig::new(40, 5)
        };
        let mut calls = 0u64;
        let result = trained_model().generate_into(&cfg, |stream| {
            calls += 1;
            if stream.ue_id.0 == k {
                return Err(SinkError::Full(k));
            }
            Ok(())
        });
        assert_eq!(result, Err(SinkError::Full(k)));
        assert_eq!(calls, k + 1, "batch_size {batch_size}");
    }
}
