//! n-gram memorization analysis (§5.6, Table 11).
//!
//! Two n-grams "repeat" if they have the same event-type sequence and
//! every corresponding pair of interarrival times falls within relative
//! tolerance ε: `(1−ε) < t_gen/t_real < (1+ε)`. We report the fraction of
//! generated n-grams with at least one repeat in the training set.

use cpt_trace::{Dataset, Stream};
use std::collections::HashMap;

/// One n-gram: event indices plus interarrival seconds.
fn ngrams(stream: &Stream, n: usize) -> Vec<(Vec<u8>, Vec<f64>)> {
    if stream.len() < n {
        return Vec::new();
    }
    let iats = stream.interarrivals();
    let types: Vec<u8> = stream
        .events
        .iter()
        .map(|e| e.event_type.index() as u8)
        .collect();
    (0..=stream.len() - n)
        .map(|i| (types[i..i + n].to_vec(), iats[i..i + n].to_vec()))
        .collect()
}

fn iats_match(gen: &[f64], real: &[f64], eps: f64) -> bool {
    gen.iter().zip(real).all(|(g, r)| {
        if *r <= 1e-9 {
            // Ratio undefined at zero: only a zero matches a zero.
            *g <= 1e-9
        } else {
            let ratio = g / r;
            ratio > 1.0 - eps && ratio < 1.0 + eps
        }
    })
}

/// Fraction of `n`-grams in `generated` that repeat (within tolerance
/// `eps`) from `training`. Returns 0 when `generated` contains no
/// n-grams of length `n`.
pub fn ngram_repeat_fraction(generated: &Dataset, training: &Dataset, n: usize, eps: f64) -> f64 {
    assert!(n >= 1, "n must be >= 1");
    assert!((0.0..1.0).contains(&eps), "eps must be in [0, 1)");
    // Index the training n-grams by event-type sequence.
    let mut index: HashMap<Vec<u8>, Vec<Vec<f64>>> = HashMap::new();
    for s in &training.streams {
        for (key, iats) in ngrams(s, n) {
            index.entry(key).or_default().push(iats);
        }
    }
    let mut total = 0usize;
    let mut repeats = 0usize;
    for s in &generated.streams {
        for (key, gen_iats) in ngrams(s, n) {
            total += 1;
            if let Some(candidates) = index.get(&key) {
                if candidates
                    .iter()
                    .any(|real| iats_match(&gen_iats, real, eps))
                {
                    repeats += 1;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        repeats as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::{DeviceType, Event, EventType, Stream, UeId};

    fn stream(id: u64, gaps: &[f64]) -> Stream {
        let mut t = 0.0;
        let events = gaps
            .iter()
            .enumerate()
            .map(|(i, g)| {
                t += g;
                let et = if i % 2 == 0 {
                    EventType::ServiceRequest
                } else {
                    EventType::ConnectionRelease
                };
                Event::new(et, t)
            })
            .collect();
        Stream::new(UeId(id), DeviceType::Phone, events)
    }

    #[test]
    fn exact_copy_repeats_fully() {
        let train = Dataset::new(vec![stream(0, &[0.0, 5.0, 30.0, 5.0, 30.0])]);
        let gen = train.clone();
        assert_eq!(ngram_repeat_fraction(&gen, &train, 3, 0.1), 1.0);
    }

    #[test]
    fn different_event_sequence_never_repeats() {
        let train = Dataset::new(vec![stream(0, &[0.0, 5.0, 30.0])]);
        // All-HO stream: no event-sequence match.
        let gen = Dataset::new(vec![Stream::new(
            UeId(9),
            DeviceType::Phone,
            vec![
                Event::new(EventType::Handover, 0.0),
                Event::new(EventType::Handover, 5.0),
                Event::new(EventType::Handover, 35.0),
            ],
        )]);
        assert_eq!(ngram_repeat_fraction(&gen, &train, 3, 0.5), 0.0);
    }

    #[test]
    fn tolerance_widens_matches() {
        let train = Dataset::new(vec![stream(0, &[0.0, 10.0, 100.0])]);
        // Same event pattern with interarrivals 15 % off.
        let gen = Dataset::new(vec![stream(1, &[0.0, 11.5, 115.0])]);
        assert_eq!(ngram_repeat_fraction(&gen, &train, 3, 0.10), 0.0);
        assert_eq!(ngram_repeat_fraction(&gen, &train, 3, 0.20), 1.0);
    }

    #[test]
    fn zero_iat_only_matches_zero() {
        let train = Dataset::new(vec![stream(0, &[0.0, 10.0])]);
        let gen_zero = Dataset::new(vec![stream(1, &[0.0, 10.0])]);
        let gen_nonzero = {
            // Same event types, but first interarrival nonzero (window cut).
            let mut d = Dataset::new(vec![stream(2, &[0.0, 10.0])]);
            d.streams[0] = Stream::from_interarrivals(
                UeId(2),
                DeviceType::Phone,
                &[EventType::ServiceRequest, EventType::ConnectionRelease],
                &[5.0, 10.0],
            );
            d
        };
        // n-gram of length 2 includes the leading 0 interarrival.
        assert_eq!(ngram_repeat_fraction(&gen_zero, &train, 2, 0.1), 1.0);
        // from_interarrivals sets absolute offsets; interarrivals() returns
        // [0, 10] again, so force mismatch via windowing semantics instead:
        // a 2-gram starting at event 1 does not exist in a 2-event stream,
        // so compare with n=1-style logic is unnecessary — assert the
        // helper directly.
        assert!(iats_match(&[0.0, 10.0], &[0.0, 10.0], 0.1));
        assert!(!iats_match(&[5.0, 10.0], &[0.0, 10.0], 0.1));
        let _ = gen_nonzero;
    }

    #[test]
    fn longer_n_reduces_repeats() {
        // Training has the pair (5, 30) everywhere; generated shares short
        // patterns but diverges over longer windows.
        let train = Dataset::new(vec![stream(0, &[0.0, 5.0, 30.0, 5.0, 30.0, 5.0])]);
        let gen = Dataset::new(vec![stream(1, &[0.0, 5.0, 30.0, 500.0, 30.0, 5.0])]);
        let short = ngram_repeat_fraction(&gen, &train, 2, 0.1);
        let long = ngram_repeat_fraction(&gen, &train, 5, 0.1);
        assert!(short > long, "short {short} vs long {long}");
        assert_eq!(long, 0.0);
    }

    #[test]
    fn empty_generated_is_zero() {
        let train = Dataset::new(vec![stream(0, &[0.0, 5.0])]);
        let gen = Dataset::new(vec![]);
        assert_eq!(ngram_repeat_fraction(&gen, &train, 2, 0.1), 0.0);
    }
}
