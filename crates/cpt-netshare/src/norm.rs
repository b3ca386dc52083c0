//! Per-stream min/max normalization of interarrival times (NetShare's
//! mode-collapse mitigation, L5 in §4.2.2).
//!
//! Each stream's log-scaled interarrivals are normalized with the *stream's
//! own* min and max rather than global bounds. The (min, max) pair is
//! stream metadata; with the metadata generator dropped (§4.2.1), inference
//! draws a pair from the empirical distribution of training pairs.

use cpt_trace::json::{FromJson, JsonError, ToJson, Value};
use cpt_trace::stats::{log_scale, log_unscale};
use cpt_trace::{Dataset, Stream};
use rand::Rng;

/// Per-stream normalization bounds in log space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamBounds {
    /// Min of `ln(iat+1)` within the stream.
    pub log_min: f64,
    /// Max of `ln(iat+1)` within the stream.
    pub log_max: f64,
}

impl StreamBounds {
    /// Bounds of one stream (first-token zero interarrival included, as in
    /// the tokenization convention). Degenerate streams get a unit span.
    pub fn of(stream: &Stream) -> Self {
        let mut log_min = f64::INFINITY;
        let mut log_max = f64::NEG_INFINITY;
        for iat in stream.interarrivals() {
            let l = log_scale(iat);
            log_min = log_min.min(l);
            log_max = log_max.max(l);
        }
        if !log_min.is_finite() || log_max - log_min < 1e-9 {
            let base = if log_min.is_finite() { log_min } else { 0.0 };
            return StreamBounds {
                log_min: base,
                log_max: base + 1.0,
            };
        }
        StreamBounds { log_min, log_max }
    }

    /// Normalizes an interarrival (seconds) to `[0, 1]` under these bounds.
    pub fn normalize(&self, iat: f64) -> f32 {
        (((log_scale(iat.max(0.0)) - self.log_min) / (self.log_max - self.log_min)).clamp(0.0, 1.0))
            as f32
    }

    /// Inverse of [`StreamBounds::normalize`].
    pub fn denormalize(&self, v: f32) -> f64 {
        let l = self.log_min + (v as f64).clamp(0.0, 1.0) * (self.log_max - self.log_min);
        log_unscale(l).max(0.0)
    }
}

/// Empirical distribution of per-stream bounds, sampled at inference in
/// lieu of NetShare's metadata generator.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamNormalizer {
    bounds: Vec<StreamBounds>,
}

impl StreamNormalizer {
    /// Fits per-stream bounds over a dataset.
    pub fn fit(dataset: &Dataset) -> Self {
        let mut bounds: Vec<StreamBounds> = dataset
            .streams
            .iter()
            .filter(|s| s.len() >= 2)
            .map(StreamBounds::of)
            .collect();
        if bounds.is_empty() {
            bounds.push(StreamBounds {
                log_min: 0.0,
                log_max: log_scale(3600.0),
            });
        }
        StreamNormalizer { bounds }
    }

    /// Number of fitted (min, max) pairs.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether any pairs were fitted (never false after `fit`).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Samples a (min, max) pair for a generated stream.
    pub fn sample(&self, rng: &mut impl Rng) -> StreamBounds {
        self.bounds[rng.gen_range(0..self.bounds.len())]
    }
}

/// The fitted pairs as `[log_min, log_max]` arrays, bit-exact.
impl ToJson for StreamNormalizer {
    fn to_json(&self) -> Value {
        Value::Arr(
            self.bounds
                .iter()
                .map(|b| (b.log_min, b.log_max).to_json())
                .collect(),
        )
    }
}

impl FromJson for StreamNormalizer {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let pairs: Vec<(f64, f64)> = Vec::from_json(v)?;
        if pairs.is_empty() {
            return Err(JsonError::new("a normalizer holds at least one pair"));
        }
        let bounds = pairs
            .into_iter()
            .map(|(log_min, log_max)| StreamBounds { log_min, log_max })
            .collect();
        Ok(StreamNormalizer { bounds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::{DeviceType, Event, EventType, UeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream(gaps: &[f64]) -> Stream {
        let mut t = 0.0;
        Stream::new(
            UeId(0),
            DeviceType::Phone,
            gaps.iter()
                .map(|g| {
                    t += g;
                    Event::new(EventType::ServiceRequest, t)
                })
                .collect(),
        )
    }

    #[test]
    fn bounds_normalize_within_stream() {
        let s = stream(&[0.0, 10.0, 100.0]);
        let b = StreamBounds::of(&s);
        // Stream interarrivals: 0, 10, 100 → min log(1)=0, max log(101).
        assert!((b.normalize(0.0) - 0.0).abs() < 1e-6);
        assert!((b.normalize(100.0) - 1.0).abs() < 1e-6);
        let mid = b.normalize(10.0);
        assert!(mid > 0.0 && mid < 1.0);
        // Roundtrip.
        assert!((b.denormalize(mid) - 10.0).abs() < 0.1);
    }

    #[test]
    fn degenerate_stream_gets_unit_span() {
        let s = stream(&[0.0]);
        let b = StreamBounds::of(&s);
        assert!(b.log_max > b.log_min);
        let v = b.normalize(0.0);
        assert!((b.denormalize(v) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn normalizer_fits_and_samples_deterministically() {
        let d = Dataset::new(vec![stream(&[0.0, 5.0, 20.0]), stream(&[0.0, 300.0])]);
        let n = StreamNormalizer::fit(&d);
        assert_eq!(n.len(), 2);
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        assert_eq!(n.sample(&mut r1), n.sample(&mut r2));
    }

    #[test]
    fn empty_dataset_has_fallback() {
        let n = StreamNormalizer::fit(&Dataset::new(vec![]));
        assert_eq!(n.len(), 1);
    }
}
