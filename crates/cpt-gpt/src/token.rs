//! Multimodal tokenization (Design 1, §4.4).
//!
//! Each control event becomes one token that concatenates three sub-tokens:
//!
//! - **event type** — one-hot over the generation's event vocabulary
//!   (6 for LTE);
//! - **interarrival time** — `ln(x+1)` then linearly scaled to `[0, 1]`
//!   using the dataset's min/max (footnote 3: log scaling makes the
//!   long-tailed interarrival distribution roughly uniform);
//! - **stop flag** — one-hot over {continue, stop}, marking the last token
//!   of a stream (as in NetShare).
//!
//! For LTE the token dimension is 6 + 1 + 2 = 9, exactly the `d_token = 9`
//! in the paper's Figure 3.

use cpt_trace::stats::{log_scale, log_unscale};
use cpt_trace::{Dataset, EventType, Generation, Stream};

/// How the interarrival field is mapped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleKind {
    /// The paper's default: `ln(x+1)` then min/max scaling (footnote 3).
    #[default]
    Log,
    /// Plain min/max scaling in seconds — the ablation showing why log
    /// scaling matters for long-tailed interarrivals (Appendix B).
    Linear,
}

cpt_trace::json_unit_enum!(ScaleKind { Log => "Log", Linear => "Linear" });

impl ScaleKind {
    fn forward(self, x: f64) -> f64 {
        match self {
            ScaleKind::Log => log_scale(x),
            ScaleKind::Linear => x,
        }
    }

    fn inverse(self, y: f64) -> f64 {
        match self {
            ScaleKind::Log => log_unscale(y),
            ScaleKind::Linear => y,
        }
    }
}

/// Incremental tokenizer fit: feed interarrivals one at a time, then
/// [`TokenizerFit::finish`]. Min/max folding is order-independent and
/// exact, so a streaming fit over the same interarrivals produces a
/// tokenizer bit-identical to [`Tokenizer::fit_with`] (which is itself
/// implemented on top of this).
#[derive(Debug, Clone)]
pub struct TokenizerFit {
    scale: ScaleKind,
    log_min: f64,
    log_max: f64,
}

impl TokenizerFit {
    /// Starts an empty fit with the given scaling kind.
    pub fn new(scale: ScaleKind) -> Self {
        TokenizerFit {
            scale,
            log_min: f64::INFINITY,
            log_max: f64::NEG_INFINITY,
        }
    }

    /// Folds one interarrival time (seconds) into the scaling bounds.
    pub fn observe(&mut self, iat: f64) {
        let l = self.scale.forward(iat);
        self.log_min = self.log_min.min(l);
        self.log_max = self.log_max.max(l);
    }

    /// Finalizes the fit. Degenerate inputs (no observations, or all-equal
    /// interarrivals) fall back to a 1-hour span so scaling stays
    /// invertible.
    pub fn finish(self, generation: Generation) -> Tokenizer {
        let (mut log_min, mut log_max) = (self.log_min, self.log_max);
        if !log_min.is_finite() || !log_max.is_finite() || log_max <= log_min {
            log_min = 0.0;
            log_max = self.scale.forward(3600.0);
        }
        Tokenizer {
            generation,
            scale: self.scale,
            log_min,
            log_max,
        }
    }
}

/// Fitted tokenizer: event vocabulary + interarrival scaling bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Tokenizer {
    generation: Generation,
    scale: ScaleKind,
    /// Min of the scaled interarrival over the training set.
    log_min: f64,
    /// Max of the scaled interarrival over the training set.
    log_max: f64,
}

// The form a model file's metadata carries: the scaling bounds exactly.
cpt_trace::json_struct!(Tokenizer {
    generation,
    scale,
    log_min,
    log_max
});

/// One decoded sample (the inverse of a token).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Event type.
    pub event_type: EventType,
    /// Interarrival time in seconds.
    pub interarrival: f64,
    /// Whether this is the last sample of the stream.
    pub stop: bool,
}

impl Tokenizer {
    /// Fits scaling bounds on a dataset.
    ///
    /// The first event of each stream has interarrival 0 by convention, so
    /// `log_min` is 0 in practice; `log_max` is the largest observed
    /// `ln(iat+1)`.
    pub fn fit(dataset: &Dataset) -> Self {
        Tokenizer::fit_with(dataset, ScaleKind::Log)
    }

    /// Fits with an explicit scaling kind (the `Linear` variant exists for
    /// the log-scaling ablation).
    pub fn fit_with(dataset: &Dataset, scale: ScaleKind) -> Self {
        let mut fit = TokenizerFit::new(scale);
        for s in &dataset.streams {
            for iat in s.interarrivals() {
                fit.observe(iat);
            }
        }
        fit.finish(dataset.generation)
    }

    /// The generation this tokenizer encodes.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Number of event types in the vocabulary.
    pub fn num_events(&self) -> usize {
        self.generation.num_event_types()
    }

    /// Total token dimension: one-hot events + scaled interarrival + one-
    /// hot stop flag (9 for LTE).
    pub fn token_dim(&self) -> usize {
        self.num_events() + 1 + 2
    }

    /// Offset of the interarrival slot within a token.
    pub fn iat_slot(&self) -> usize {
        self.num_events()
    }

    /// Offset of the stop-flag one-hot within a token.
    pub fn stop_slot(&self) -> usize {
        self.num_events() + 1
    }

    /// Scales an interarrival (seconds) to `[0, 1]`.
    pub fn scale_iat(&self, iat: f64) -> f32 {
        let l = self.scale.forward(iat.max(0.0));
        (((l - self.log_min) / (self.log_max - self.log_min)).clamp(0.0, 1.0)) as f32
    }

    /// Inverse of [`Tokenizer::scale_iat`]. Input is clamped to `[0, 1]`
    /// (model samples can overshoot).
    pub fn unscale_iat(&self, scaled: f32) -> f64 {
        let l = self.log_min + (scaled as f64).clamp(0.0, 1.0) * (self.log_max - self.log_min);
        self.scale.inverse(l).max(0.0)
    }

    /// Encodes one sample into a token.
    pub fn encode_sample(&self, event: EventType, iat: f64, stop: bool) -> Vec<f32> {
        let mut tok = vec![0.0f32; self.token_dim()];
        self.encode_sample_into(event, iat, stop, &mut tok);
        tok
    }

    /// [`Tokenizer::encode_sample`] into a caller-provided `token_dim`
    /// slice (overwritten entirely). The allocation-free form used by the
    /// generation hot loop, which re-encodes one token per stream per step.
    pub fn encode_sample_into(&self, event: EventType, iat: f64, stop: bool, out: &mut [f32]) {
        assert!(
            event.exists_in(self.generation),
            "{event} does not exist in {}",
            self.generation
        );
        assert_eq!(out.len(), self.token_dim(), "token width");
        out.fill(0.0);
        out[event.index()] = 1.0;
        out[self.iat_slot()] = self.scale_iat(iat);
        out[self.stop_slot() + usize::from(stop)] = 1.0;
    }

    /// Encodes a stream as a flat token matrix (`len × token_dim`). The
    /// first token carries interarrival 0; the last carries stop = 1
    /// (matching the paper's training convention, §4.5).
    pub fn encode_stream(&self, stream: &Stream) -> Vec<f32> {
        let iats = stream.interarrivals();
        let n = stream.len();
        let mut out = Vec::with_capacity(n * self.token_dim());
        for (i, (ev, iat)) in stream.events.iter().zip(&iats).enumerate() {
            out.extend(self.encode_sample(ev.event_type, *iat, i + 1 == n));
        }
        out
    }

    /// Decodes a token back into a sample (argmax for categorical slots):
    /// the tests' inverse of [`Tokenizer::encode_sample`].
    #[cfg(test)]
    fn decode_token(&self, token: &[f32]) -> Sample {
        assert_eq!(token.len(), self.token_dim(), "token width");
        let e = self.num_events();
        let (event_idx, _) = token[..e]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("nonempty vocab");
        let stop = token[self.stop_slot() + 1] > token[self.stop_slot()];
        Sample {
            event_type: EventType::from_index(event_idx).expect("valid index"),
            interarrival: self.unscale_iat(token[self.iat_slot()]),
            stop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::{DeviceType, Event, UeId};
    use proptest::prelude::*;

    fn toy_dataset() -> Dataset {
        Dataset::new(vec![Stream::new(
            UeId(0),
            DeviceType::Phone,
            vec![
                Event::new(EventType::ServiceRequest, 0.0),
                Event::new(EventType::ConnectionRelease, 10.0),
                Event::new(EventType::ServiceRequest, 3610.0),
            ],
        )])
    }

    #[test]
    fn token_dim_is_9_for_lte() {
        let t = Tokenizer::fit(&toy_dataset());
        assert_eq!(t.token_dim(), 9);
        assert_eq!(t.iat_slot(), 6);
        assert_eq!(t.stop_slot(), 7);
    }

    #[test]
    fn scaling_hits_bounds() {
        let t = Tokenizer::fit(&toy_dataset());
        // Max observed interarrival (3600 s) scales to 1, zero to 0.
        assert!((t.scale_iat(3600.0) - 1.0).abs() < 1e-6);
        assert!(t.scale_iat(0.0).abs() < 1e-6);
        // Midrange is strictly inside.
        let mid = t.scale_iat(10.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn encode_stream_layout() {
        let t = Tokenizer::fit(&toy_dataset());
        let flat = t.encode_stream(&toy_dataset().streams[0]);
        assert_eq!(flat.len(), 3 * 9);
        // First token: SRV_REQ one-hot, iat 0, stop=continue.
        assert_eq!(flat[EventType::ServiceRequest.index()], 1.0);
        assert_eq!(flat[6], 0.0);
        assert_eq!(flat[7], 1.0); // continue
        assert_eq!(flat[8], 0.0);
        // Last token: stop = 1.
        assert_eq!(flat[2 * 9 + 8], 1.0);
        assert_eq!(flat[2 * 9 + 7], 0.0);
    }

    #[test]
    fn decode_roundtrips_event_and_stop() {
        let t = Tokenizer::fit(&toy_dataset());
        for ev in Generation::Lte.event_types() {
            for stop in [false, true] {
                let tok = t.encode_sample(*ev, 25.0, stop);
                let s = t.decode_token(&tok);
                assert_eq!(s.event_type, *ev);
                assert_eq!(s.stop, stop);
                assert!((s.interarrival - 25.0).abs() / 25.0 < 1e-3);
            }
        }
    }

    #[test]
    fn degenerate_dataset_gets_fallback_bounds() {
        let empty = Dataset::new(vec![]);
        let t = Tokenizer::fit(&empty);
        // Still invertible over a sane range.
        let x = t.scale_iat(60.0);
        assert!((t.unscale_iat(x) - 60.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn rejects_tau_in_5g() {
        let mut d = toy_dataset();
        d.generation = Generation::Nr;
        let t = Tokenizer::fit(&d);
        t.encode_sample(EventType::TrackingAreaUpdate, 1.0, false);
    }

    #[test]
    fn linear_scaling_roundtrips_too() {
        let t = Tokenizer::fit_with(&toy_dataset(), ScaleKind::Linear);
        for iat in [0.0, 10.0, 1800.0, 3600.0] {
            let s = t.scale_iat(iat);
            assert!((0.0..=1.0).contains(&s));
            assert!((t.unscale_iat(s) - iat).abs() < 0.5, "iat {iat}");
        }
    }

    proptest! {
        /// scale ∘ unscale is identity on [0,1]; unscale ∘ scale is identity
        /// on in-range interarrivals.
        #[test]
        fn scaling_roundtrip(iat in 0.0f64..3600.0) {
            let t = Tokenizer::fit(&toy_dataset());
            let s = t.scale_iat(iat);
            prop_assert!((0.0..=1.0).contains(&s));
            let back = t.unscale_iat(s);
            prop_assert!((back - iat).abs() < 1e-2 * (1.0 + iat), "{} vs {}", back, iat);
        }

        #[test]
        fn unscale_clamps(out_of_range in -2.0f32..3.0) {
            let t = Tokenizer::fit(&toy_dataset());
            let v = t.unscale_iat(out_of_range);
            prop_assert!(v >= 0.0);
            prop_assert!(v <= 3600.0 + 1.0);
        }
    }
}
