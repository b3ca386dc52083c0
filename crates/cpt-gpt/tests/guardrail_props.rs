//! Property tests for the generation guardrails: whatever the seed,
//! stream count or length cap, synthesized traffic is always
//! numerically sane — finite non-negative interarrivals and bounded
//! stream lengths.

use cpt_gpt::{CptGpt, CptGptConfig, GenerateConfig, Tokenizer, TrainConfig};
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

/// One tiny trained model shared by every proptest case — training per
/// case would dominate the runtime.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interarrivals_are_finite_and_non_negative(
        seed in 0u64..10_000,
        n in 1usize..6,
    ) {
        let config = GenerateConfig::new(n, seed);
        let (synth, counters) = trained_model()
            .generate_with_report(&config)
            .expect("generation must not fail on a valid config");
        prop_assert_eq!(synth.num_streams(), n);
        for iat in synth.interarrivals() {
            prop_assert!(iat.is_finite(), "non-finite interarrival {iat}");
            prop_assert!(iat >= 0.0, "negative interarrival {iat}");
        }
        // A healthy model needs no numeric interventions.
        prop_assert_eq!(counters.non_finite_logits, 0);
        prop_assert_eq!(counters.clamped_iat, 0);
    }

    #[test]
    fn stream_lengths_respect_the_configured_cap(
        seed in 0u64..10_000,
        cap in 1usize..12,
    ) {
        let config = GenerateConfig::new(4, seed).with_max_stream_len(cap);
        let (synth, _) = trained_model()
            .generate_with_report(&config)
            .expect("generation must not fail on a valid config");
        for s in &synth.streams {
            prop_assert!(
                s.events.len() <= cap,
                "stream length {} exceeds cap {cap}",
                s.events.len()
            );
        }
    }

    #[test]
    fn timestamps_are_monotone_within_each_stream(seed in 0u64..10_000) {
        let config = GenerateConfig::new(3, seed);
        let (synth, _) = trained_model()
            .generate_with_report(&config)
            .expect("generation must not fail on a valid config");
        for s in &synth.streams {
            for w in s.events.windows(2) {
                prop_assert!(
                    w[1].timestamp >= w[0].timestamp,
                    "timestamps went backwards: {} -> {}",
                    w[0].timestamp,
                    w[1].timestamp
                );
            }
        }
    }
}
