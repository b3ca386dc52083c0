//! Autoregressive inference (§4.5) with numeric guardrails.
//!
//! Each stream starts from a token whose event type is sampled from the
//! released initial-event-type distribution and whose interarrival and
//! stop flag are zero (matching training, where the first token always has
//! interarrival 0 and length-1 streams are excluded). The model is then
//! decoded recursively — the (K+1)-th token is predicted from the previous
//! K — until it emits a stop flag or hits the configured maximum length.
//!
//! Categorical fields are sampled from the predicted softmax; the
//! interarrival is sampled from the predicted Gaussian (Design 2). That
//! procedure lives in [`crate::stream`]; [`CptGpt::generate_into`] drives
//! it ([`CptGpt::generate`] collects what it hands over): UE `i` is stream
//! `i` of the session `(model, seed)`, drawing from an RNG derived from
//! `(seed, i)` alone (see [`crate::mix`]), so the output is bit-identical
//! at any thread count and any `batch_size`, and equal to what a served
//! session with the same seed emits.
//!
//! Guardrails: a poisoned or half-trained model can emit NaN logits or a
//! non-finite interarrival. Inference never panics on these — non-finite
//! interarrival draws are resampled up to `MAX_RESAMPLE` (8) times and then
//! clamped; non-finite logits fall back to sanitized (ultimately uniform)
//! sampling; stream length is capped. Every intervention is tallied in
//! [`GenCounters`] so callers can tell a clean run from a degraded one.

use crate::error::GenerateError;
use crate::model::{CptGpt, DecodeState};
use crate::stream::{BatchDecoder, RoundOutcome, SessionDecoder, StreamParams};
use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};
use rand::rngs::StdRng;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Inference configuration. The categorical heads are sampled from the
/// full softmax at temperature 1, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerateConfig {
    /// Number of UE streams to synthesize.
    pub num_streams: usize,
    /// Device type stamped on the generated streams (the model itself is
    /// per-device-type, as in §5.1).
    pub device_type: DeviceType,
    /// RNG seed.
    pub seed: u64,
    /// Streams advanced together through one packed forward pass (a speed
    /// and memory knob only: the output does not depend on it).
    pub batch_size: usize,
    /// Optional stream-length cap below the model's `max_len` (runaway
    /// guard); `None` uses the model's limit.
    #[serde(default)]
    pub max_stream_len: Option<usize>,
}

/// Retry budget for a non-finite interarrival draw before it degrades to a
/// clamped value.
pub(crate) const MAX_RESAMPLE: u32 = 8;

/// Chunks of `batch_size` streams decoded per rayon thread between two
/// hand-overs to [`CptGpt::generate_into`]'s sink: what bounds the streams
/// resident at once (a few MB of events at the default `batch_size`).
const WINDOW_CHUNKS_PER_THREAD: usize = 16;

impl GenerateConfig {
    /// Generates `n` phone streams.
    pub fn new(n: usize, seed: u64) -> Self {
        GenerateConfig {
            num_streams: n,
            device_type: DeviceType::Phone,
            seed,
            batch_size: 64,
            max_stream_len: None,
        }
    }

    /// Builder: sets the device type.
    pub fn device(mut self, device_type: DeviceType) -> Self {
        self.device_type = device_type;
        self
    }

    /// Builder: caps generated stream length below the model's `max_len`.
    pub fn with_max_stream_len(mut self, n: usize) -> Self {
        self.max_stream_len = Some(n);
        self
    }

    /// Checks every field against its domain, returning the first
    /// violation as [`GenerateError::InvalidConfig`].
    pub fn validate(&self) -> Result<(), GenerateError> {
        if self.batch_size == 0 {
            return Err(GenerateError::InvalidConfig {
                field: "batch_size",
                message: "must be at least 1".into(),
            });
        }
        validate_max_stream_len(self.max_stream_len)
    }

    /// The session whose streams `0..num_streams` are this run's UEs.
    fn stream_params(&self) -> StreamParams {
        StreamParams {
            seed: self.seed,
            device_type: self.device_type,
            num_streams: self.num_streams,
            max_stream_len: self.max_stream_len,
        }
    }
}

/// The domain check [`GenerateConfig`] and [`StreamParams`] share.
pub(crate) fn validate_max_stream_len(max_stream_len: Option<usize>) -> Result<(), GenerateError> {
    if max_stream_len == Some(0) {
        return Err(GenerateError::InvalidConfig {
            field: "max_stream_len",
            message: "must be at least 1 when set".into(),
        });
    }
    Ok(())
}

/// Per-run tally of inference guardrail interventions.
///
/// All zeros means the model behaved numerically cleanly and no stream hit
/// the length cap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenCounters {
    /// Non-finite interarrival draws retried within the resample budget.
    pub resampled_iat: u64,
    /// Interarrivals that exhausted the budget and were clamped to a safe
    /// fallback (degraded output).
    pub clamped_iat: u64,
    /// Sampler invocations that saw at least one non-finite logit and fell
    /// back to sanitized/uniform sampling.
    pub non_finite_logits: u64,
    /// Streams cut at the length cap without the model emitting stop.
    pub truncated_streams: u64,
}

impl GenCounters {
    /// Total number of guardrail interventions.
    pub fn total_interventions(&self) -> u64 {
        self.resampled_iat + self.clamped_iat + self.non_finite_logits + self.truncated_streams
    }

    /// Sums another tally into this one (used to merge per-chunk counters
    /// after parallel generation).
    pub fn merge(&mut self, other: &GenCounters) {
        self.resampled_iat += other.resampled_iat;
        self.clamped_iat += other.clamped_iat;
        self.non_finite_logits += other.non_finite_logits;
        self.truncated_streams += other.truncated_streams;
    }

    /// True if generation required no intervention at all.
    pub fn is_clean(&self) -> bool {
        self.total_interventions() == 0
    }
}

impl std::fmt::Display for GenCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "resampled_iat={} clamped_iat={} non_finite_logits={} truncated_streams={}",
            self.resampled_iat, self.clamped_iat, self.non_finite_logits, self.truncated_streams
        )
    }
}

impl CptGpt {
    /// Synthesizes a dataset of `cfg.num_streams` streams.
    pub fn generate(&self, cfg: &GenerateConfig) -> Result<Dataset, GenerateError> {
        self.generate_with_report(cfg).map(|(d, _)| d)
    }

    /// Like [`CptGpt::generate`], additionally returning the guardrail
    /// counters so callers can detect degraded output:
    /// [`CptGpt::generate_into`] collected into a [`Dataset`].
    pub fn generate_with_report(
        &self,
        cfg: &GenerateConfig,
    ) -> Result<(Dataset, GenCounters), GenerateError> {
        let mut streams = Vec::new();
        let counters = self.generate_into(cfg, |stream| {
            streams.push(stream);
            Ok::<(), GenerateError>(())
        })?;
        Ok((
            Dataset::with_generation(self.config.generation, streams),
            counters,
        ))
    }

    /// Synthesizes `cfg.num_streams` streams and hands them to `sink` in UE
    /// order, stopping at the sink's first error; returns the guardrail
    /// counters.
    ///
    /// UE `i` is stream `i` of `open_session(StreamParams { seed: cfg.seed,
    /// num_streams: cfg.num_streams, .. })`: one single-stream
    /// [`SessionDecoder`] each, advanced `cfg.batch_size` at a time by a
    /// [`BatchDecoder`], the chunks in parallel across however many rayon
    /// threads are available. No RNG state flows between streams, so the
    /// output is a pure function of the config minus `batch_size`. Chunks
    /// are decoded a bounded window at a time, so no more than
    /// `WINDOW_CHUNKS_PER_THREAD × threads × batch_size` streams are ever
    /// resident, whatever `num_streams` is.
    pub fn generate_into<E: From<GenerateError>>(
        &self,
        cfg: &GenerateConfig,
        mut sink: impl FnMut(Stream) -> Result<(), E>,
    ) -> Result<GenCounters, E> {
        cfg.validate()?;
        if self.initial_event_dist.is_empty() {
            return Err(GenerateError::UntrainedModel.into());
        }
        let n_chunks = cfg.num_streams.div_ceil(cfg.batch_size);
        let window = WINDOW_CHUNKS_PER_THREAD * rayon::current_num_threads();
        let mut counters = GenCounters::default();
        for start in (0..n_chunks).step_by(window) {
            // Each rayon worker keeps one decoder and the decode states of
            // the chunk it last finished, so a window allocates KV memory
            // for `threads × batch_size` streams.
            let per_chunk: Vec<(Vec<Stream>, GenCounters)> = (start..n_chunks.min(start + window))
                .into_par_iter()
                .map_init(
                    || (BatchDecoder::new(self, cfg.batch_size), Vec::new()),
                    |(decoder, spare), c| {
                        let first = c * cfg.batch_size;
                        let end = cfg.num_streams.min(first + cfg.batch_size);
                        self.generate_chunk(cfg, first..end, decoder, spare)
                    },
                )
                .collect::<Result<_, GenerateError>>()?;
            for (chunk, tally) in per_chunk {
                counters.merge(&tally);
                for stream in chunk {
                    sink(stream)?;
                }
            }
        }
        Ok(counters)
    }

    /// Decodes UEs `ues` to completion, one event per live stream per
    /// round; a stream that has ended leaves the packed step. `spare`
    /// supplies recycled decode states and receives this chunk's.
    fn generate_chunk(
        &self,
        cfg: &GenerateConfig,
        ues: std::ops::Range<usize>,
        decoder: &mut BatchDecoder,
        spare: &mut Vec<DecodeState>,
    ) -> Result<(Vec<Stream>, GenCounters), GenerateError> {
        let params = cfg.stream_params();
        let mut sessions = ues
            .clone()
            .map(|ue| {
                let state = spare.pop().unwrap_or_else(|| self.begin_decode(1));
                self.open_streams(StreamParams { num_streams: ue + 1, ..params }, ue, state)
            })
            .collect::<Result<Vec<SessionDecoder>, _>>()?;
        let mut events: Vec<Vec<Event>> = vec![Vec::new(); sessions.len()];
        let mut round = Vec::with_capacity(sessions.len());
        loop {
            let mut live: Vec<&mut SessionDecoder> =
                sessions.iter_mut().filter(|s| !s.is_finished()).collect();
            if live.is_empty() {
                break;
            }
            decoder.next_events(self, &mut live, &mut |_, _| {}, &mut round);
            for outcome in round.drain(..) {
                match outcome {
                    // `ev.stream` is the UE: each session starts at its own.
                    RoundOutcome::Event(ev) => {
                        events[ev.stream - ues.start].push(Event::new(ev.event_type, ev.timestamp))
                    }
                    RoundOutcome::Finished => {}
                    // Nothing here injects panics; one caught while
                    // sampling is a bug, reported as the panic it was.
                    RoundOutcome::Panicked(reason) => panic!("{reason}"),
                }
            }
        }
        let mut counters = GenCounters::default();
        let streams = ues
            .zip(sessions.into_iter().zip(events))
            .map(|(ue, (session, events))| {
                counters.merge(session.counters());
                spare.push(session.into_state());
                Stream::new(UeId(ue as u64), cfg.device_type, events)
            })
            .collect();
        Ok((streams, counters))
    }

    /// Draws the scaled interarrival for row `s` of a step, guarding
    /// against non-finite head outputs: retry up to [`MAX_RESAMPLE`] times,
    /// then degrade to a clamped mean (or 0 if the mean itself is
    /// poisoned). The returned value is always in `[0, 1]`.
    pub(crate) fn sample_scaled_iat(
        &self,
        out: &crate::model::InferStep,
        s: usize,
        rng: &mut StdRng,
        counters: &mut GenCounters,
    ) -> f32 {
        let mu = out.iat_mean[s];
        if self.config.point_iat_head {
            return if mu.is_finite() {
                mu.clamp(0.0, 1.0)
            } else {
                counters.clamped_iat += 1;
                0.0
            };
        }
        let sigma = out.iat_log_std[s].clamp(-7.0, 3.0).exp();
        let mut draw = mu + sigma * sample_normal(rng);
        let mut attempts = 0u32;
        while !draw.is_finite() && attempts < MAX_RESAMPLE {
            attempts += 1;
            counters.resampled_iat += 1;
            draw = mu + sigma * sample_normal(rng);
        }
        if draw.is_finite() {
            draw.clamp(0.0, 1.0)
        } else {
            counters.clamped_iat += 1;
            if mu.is_finite() {
                mu.clamp(0.0, 1.0)
            } else {
                0.0
            }
        }
    }
}

fn sample_normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Samples an index proportional to `probs`, tolerating zero, negative and
/// non-finite entries (they contribute no mass). A fully degenerate vector
/// (no positive finite mass) falls back to a uniform draw, so this never
/// panics and never returns an out-of-range index for non-empty input.
pub(crate) fn sample_categorical(probs: &[f64], rng: &mut impl Rng) -> usize {
    if probs.is_empty() {
        return 0;
    }
    let total: f64 = probs.iter().filter(|p| p.is_finite() && **p > 0.0).sum();
    if !(total.is_finite() && total > 0.0) {
        return rng.gen_range(0..probs.len());
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, p) in probs.iter().enumerate() {
        if !(p.is_finite() && *p > 0.0) {
            continue;
        }
        if target < *p {
            return i;
        }
        target -= p;
    }
    probs.len() - 1
}

/// Widest logit row the sampler sees: the event head has at most one logit
/// per [`EventType`], the stop head two.
const MAX_CLASSES: usize = EventType::ALL.len();

/// Samples the softmax of raw logits (at most [`MAX_CLASSES`] of them), on
/// the stack: decoding an event allocates nothing. Panic-free for any
/// logit values: non-finite logits map to zero probability (degenerating
/// to a uniform draw if nothing survives).
pub(crate) fn sample_logits(logits: &[f32], rng: &mut impl Rng) -> usize {
    let max = logits
        .iter()
        .cloned()
        .filter(|l| l.is_finite())
        .fold(f32::NEG_INFINITY, f32::max);
    let mut probs = [0.0f64; MAX_CLASSES];
    let probs = &mut probs[..logits.len()];
    for (p, l) in probs.iter_mut().zip(logits) {
        let x = (l - max) as f64;
        if x.is_finite() {
            *p = x.exp();
        }
    }
    sample_categorical(probs, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CptGptConfig, TrainConfig};
    use crate::token::Tokenizer;
    use crate::train::train;
    use rand::SeedableRng;

    fn tiny_config() -> CptGptConfig {
        CptGptConfig {
            d_model: 16,
            n_blocks: 1,
            n_heads: 2,
            d_mlp: 32,
            d_head: 16,
            max_len: 12,
            ..CptGptConfig::small()
        }
    }

    fn alternating_dataset(n: usize) -> Dataset {
        let streams = (0..n)
            .map(|i| {
                let mut t = 0.0;
                let events = (0..8)
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

    fn trained_model() -> CptGpt {
        let data = alternating_dataset(24);
        let tok = Tokenizer::fit(&data);
        let mut model = CptGpt::new(tiny_config(), tok);
        train(
            &mut model,
            &data,
            &TrainConfig::quick().with_epochs(200).with_lr(1e-2),
        )
        .expect("training succeeds");
        model
    }

    #[test]
    fn generates_requested_count_within_max_len() {
        let model = trained_model();
        let d = model.generate(&GenerateConfig::new(10, 3)).expect("generate");
        assert_eq!(d.num_streams(), 10);
        for s in &d.streams {
            assert!(!s.is_empty() && s.len() <= 12);
            assert!(s.events.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
            assert_eq!(s.device_type, DeviceType::Phone);
        }
        // UE ids unique.
        let mut ids: Vec<u64> = d.streams.iter().map(|s| s.ue_id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn healthy_model_generates_numerically_clean() {
        let model = trained_model();
        let (_, counters) = model
            .generate_with_report(&GenerateConfig::new(10, 3))
            .expect("generate");
        assert_eq!(counters.resampled_iat, 0);
        assert_eq!(counters.clamped_iat, 0);
        assert_eq!(counters.non_finite_logits, 0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let model = trained_model();
        let a = model.generate(&GenerateConfig::new(5, 7)).expect("generate");
        let b = model.generate(&GenerateConfig::new(5, 7)).expect("generate");
        let c = model.generate(&GenerateConfig::new(5, 8)).expect("generate");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn learned_model_mostly_alternates() {
        // Trained on strict SRV/REL alternation, generated streams should
        // follow SRV_REQ → S1_CONN_REL most of the time.
        let model = trained_model();
        let d = model.generate(&GenerateConfig::new(30, 1)).expect("generate");
        let mut follows = 0usize;
        let mut total = 0usize;
        for s in &d.streams {
            for w in s.events.windows(2) {
                if w[0].event_type == EventType::ServiceRequest {
                    total += 1;
                    if w[1].event_type == EventType::ConnectionRelease {
                        follows += 1;
                    }
                }
            }
        }
        assert!(total > 10, "not enough transitions generated");
        assert!(
            follows as f64 / total as f64 > 0.8,
            "alternation not learned: {follows}/{total}"
        );
    }

    #[test]
    fn device_type_is_stamped() {
        let model = trained_model();
        let d = model
            .generate(&GenerateConfig::new(3, 0).device(DeviceType::Tablet))
            .expect("generate");
        assert!(d.streams.iter().all(|s| s.device_type == DeviceType::Tablet));
    }

    #[test]
    fn untrained_model_is_typed_error() {
        let data = alternating_dataset(2);
        let tok = Tokenizer::fit(&data);
        let model = CptGpt::new(tiny_config(), tok);
        let err = model
            .generate(&GenerateConfig::new(1, 0))
            .expect_err("untrained model must be rejected");
        assert!(matches!(err, GenerateError::UntrainedModel));
    }

    #[test]
    fn invalid_generate_config_is_typed_error() {
        let model = trained_model();
        let cases: Vec<(&'static str, GenerateConfig)> = vec![
            ("batch_size", {
                let mut c = GenerateConfig::new(1, 0);
                c.batch_size = 0;
                c
            }),
            ("max_stream_len", {
                let mut c = GenerateConfig::new(1, 0);
                c.max_stream_len = Some(0);
                c
            }),
        ];
        for (field, cfg) in cases {
            match model.generate(&cfg) {
                Err(GenerateError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig({field}), got {other:?}"),
            }
        }
    }

    #[test]
    fn max_stream_len_caps_output() {
        let model = trained_model();
        let (d, counters) = model
            .generate_with_report(&GenerateConfig::new(12, 5).with_max_stream_len(3))
            .expect("generate");
        assert!(d.streams.iter().all(|s| s.len() <= 3));
        // Trained on 8-event streams, a 3-token cap must truncate at least
        // one of 12 streams.
        assert!(counters.truncated_streams > 0);
    }

    /// The sampler as it was when it collected `probs` into a fresh `Vec`
    /// on every call: the reference for the stack form.
    fn sample_logits_allocating(logits: &[f32], rng: &mut impl Rng) -> usize {
        let max = logits
            .iter()
            .cloned()
            .filter(|l| l.is_finite())
            .fold(f32::NEG_INFINITY, f32::max);
        let probs: Vec<f64> = logits
            .iter()
            .map(|l| {
                let x = (l - max) as f64;
                if x.is_finite() {
                    x.exp()
                } else {
                    0.0
                }
            })
            .collect();
        sample_categorical(&probs, rng)
    }

    #[test]
    fn stack_sampler_draws_what_the_allocating_one_drew() {
        let rows: [&[f32]; 6] = [
            &[3.0, 1.0, 0.5, -1.0, -2.0, -3.0],
            &[0.25, 0.25, 0.25, 0.25, 0.25],
            &[-0.7, 0.7],
            &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0, 1.0, -40.0],
            &[f32::NAN; 6],
            &[f32::NEG_INFINITY, f32::NAN],
        ];
        for logits in rows {
            let mut a = StdRng::seed_from_u64(17);
            let mut b = StdRng::seed_from_u64(17);
            for _ in 0..64 {
                assert_eq!(
                    sample_logits(logits, &mut a),
                    sample_logits_allocating(logits, &mut b),
                    "{logits:?}"
                );
            }
            // Same number of draws taken from the generator.
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn samplers_survive_non_finite_logits() {
        let mut rng = StdRng::seed_from_u64(9);
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0];
        let all_nan = [f32::NAN; 4];
        for _ in 0..200 {
            assert!(sample_logits(&bad, &mut rng) < bad.len());
            assert!(sample_logits(&all_nan, &mut rng) < 4);
        }
        // Degenerate categorical vectors never panic or go out of range.
        for probs in [
            vec![0.0, 0.0],
            vec![f64::NAN, f64::NAN],
            vec![-1.0, -2.0],
            vec![f64::INFINITY, 1.0],
        ] {
            for _ in 0..100 {
                assert!(sample_categorical(&probs, &mut rng) < probs.len());
            }
        }
    }
}
