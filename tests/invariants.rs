//! Property-based cross-crate invariants.

use cpt::metrics::ngram_repeat_fraction;
use cpt::statemachine::{replay, StateMachine};
use cpt::synth::{generate, generate_device, SynthConfig};
use cpt::trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};
use proptest::prelude::*;

/// Arbitrary (possibly semantically invalid) streams.
fn arb_stream() -> impl Strategy<Value = Stream> {
    (
        proptest::collection::vec((0usize..6, 0.0f64..100.0), 0..40),
        0u64..1000,
    )
        .prop_map(|(pairs, id)| {
            let mut t = 0.0;
            let events = pairs
                .into_iter()
                .map(|(ei, gap)| {
                    t += gap;
                    Event::new(EventType::from_index(ei).unwrap(), t)
                })
                .collect();
            Stream::new(UeId(id), DeviceType::Phone, events)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay never panics and its accounting is internally consistent on
    /// arbitrary (even protocol-violating) streams.
    #[test]
    fn replay_accounting_is_consistent(stream in arb_stream()) {
        for machine in [StateMachine::lte(), StateMachine::nr()] {
            let out = replay(&machine, &stream);
            prop_assert!(out.violations.len() <= out.events_checked);
            prop_assert!(out.events_checked <= stream.len());
            if !out.bootstrapped {
                prop_assert_eq!(out.events_checked, 0);
                prop_assert!(out.sojourns.is_empty());
            }
            // Sojourns are non-negative and bounded by stream duration.
            let total: f64 = out.sojourns.iter().map(|s| s.duration).sum();
            prop_assert!(out.sojourns.iter().all(|s| s.duration >= 0.0));
            prop_assert!(total <= stream.duration() + 1e-6);
        }
    }

    /// A dataset is always a perfect self-memorizer: every n-gram of a
    /// dataset repeats from itself at any tolerance.
    #[test]
    fn dataset_self_memorization_is_total(seed in 0u64..50) {
        let d = generate_device(&SynthConfig::new(0, seed), DeviceType::Phone, 8);
        let with_ngrams = d.streams.iter().any(|s| s.len() >= 5);
        if with_ngrams {
            prop_assert_eq!(ngram_repeat_fraction(&d, &d, 5, 0.01), 1.0);
        }
    }

    /// Simulated ground truth is always semantically valid — the property
    /// that makes it a stand-in for a real carrier trace.
    #[test]
    fn simulator_output_is_always_valid(seed in 0u64..25, ues in 1usize..40) {
        let d = generate(&SynthConfig::new(ues, seed));
        let machine = StateMachine::lte();
        for s in &d.streams {
            let out = replay(&machine, s);
            prop_assert!(out.violations.is_empty(), "violation in {}", s.ue_id);
        }
    }

    /// Violation metrics are invariant under stream order.
    #[test]
    fn violation_stats_order_invariant(streams in proptest::collection::vec(arb_stream(), 1..10)) {
        let machine = StateMachine::lte();
        let d1 = Dataset::new(streams.clone());
        let mut rev = streams;
        rev.reverse();
        let d2 = Dataset::new(rev);
        let a = cpt::metrics::violation_stats(&machine, &d1);
        let b = cpt::metrics::violation_stats(&machine, &d2);
        prop_assert_eq!(a.violating_events, b.violating_events);
        prop_assert_eq!(a.events_checked, b.events_checked);
        prop_assert_eq!(a.violating_streams, b.violating_streams);
    }
}
