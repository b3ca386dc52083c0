//! Property tests for the generation guardrails: whatever the seed,
//! stream count or length cap, synthesized traffic is always
//! numerically sane — finite non-negative interarrivals and bounded
//! stream lengths.

use cpt_gpt::GenerateConfig;
use cpt_testkit::fixture_model;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interarrivals_are_finite_and_non_negative(
        seed in 0u64..10_000,
        n in 1usize..6,
    ) {
        let config = GenerateConfig::new(n, seed);
        let (synth, counters) = fixture_model()
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
        let (synth, _) = fixture_model()
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
        let (synth, _) = fixture_model()
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
