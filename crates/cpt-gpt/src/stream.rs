//! Lazily-advanced single-UE decode sessions — the serving primitive.
//!
//! [`CptGpt::generate`] is a batch API: it decodes every stream to
//! completion and returns a [`cpt_trace::Dataset`]. A serving loop needs
//! the opposite shape — thousands of concurrent sessions, each advanced a
//! few tokens at a time by whichever worker gets to it next, with the
//! events streamed out as they are produced. [`SessionDecoder`] is that
//! primitive: one UE session over one [`DecodeState`], pulled one event at
//! a time.
//!
//! A session decodes [`StreamParams::num_streams`] consecutive UE streams.
//! Stream `i` of a session draws from an RNG derived from
//! `(session seed, i)` alone (see `crate::mix`), so a session's entire event
//! sequence is a pure function of `(model, params)` — independent of how
//! many scheduler workers interleave it with other sessions, and
//! independent of whether its [`DecodeState`] was freshly allocated or
//! recycled from a free-list ([`DecodeState::reset`] makes reuse
//! byte-equivalent). [`CptGpt::generate`] is a driver over the same
//! sessions: its UE `i` is stream `i` of the session with the run's seed.
//!
//! Steady-state decoding is allocation-free per event: every buffer lives
//! in the `DecodeState` (or the small fixed-size step token), and
//! [`SessionDecoder::into_state`] hands the buffers back for reuse when
//! the session closes.

#![deny(clippy::unwrap_used)]

use crate::error::{panic_message, GenerateError};
use crate::generate::{sample_categorical, sample_logits, validate_max_stream_len, GenCounters};
use crate::mix::indexed_rng;
use crate::model::{BatchDecodeState, CptGpt, DecodeState, InferStep};
use cpt_nn::Tensor;
use cpt_trace::{DeviceType, EventType};
use rand::rngs::StdRng;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Configuration for one decode session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamParams {
    /// Session seed. Together with the model this fully determines the
    /// session's output.
    pub seed: u64,
    /// Device type stamped on emitted events' provenance (the model itself
    /// is per-device-type, as in §5.1).
    pub device_type: DeviceType,
    /// Number of consecutive UE streams this session decodes before
    /// finishing.
    pub num_streams: usize,
    /// Optional per-stream length cap below the model's `max_len`.
    pub max_stream_len: Option<usize>,
}

impl StreamParams {
    /// One phone stream.
    pub fn new(seed: u64) -> Self {
        StreamParams {
            seed,
            device_type: DeviceType::Phone,
            num_streams: 1,
            max_stream_len: None,
        }
    }

    /// Builder: number of UE streams the session decodes.
    pub fn streams(mut self, n: usize) -> Self {
        self.num_streams = n;
        self
    }

    /// Builder: device type.
    pub fn device(mut self, device_type: DeviceType) -> Self {
        self.device_type = device_type;
        self
    }

    /// Builder: per-stream length cap.
    pub fn with_max_stream_len(mut self, n: usize) -> Self {
        self.max_stream_len = Some(n);
        self
    }

    /// Validates every field.
    pub fn validate(&self) -> Result<(), GenerateError> {
        if self.num_streams == 0 {
            return Err(GenerateError::InvalidConfig {
                field: "num_streams",
                message: "must be at least 1".into(),
            });
        }
        validate_max_stream_len(self.max_stream_len)
    }
}

/// One generated event, as streamed out of a [`SessionDecoder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionEvent {
    /// Which UE stream of the session this event belongs to (0-based).
    pub stream: usize,
    /// The control event type.
    pub event_type: EventType,
    /// Seconds since the previous event of this stream (0 for the first).
    pub iat: f64,
    /// Seconds since this stream's start.
    pub timestamp: f64,
    /// True if this is the final event of its stream (the model emitted a
    /// stop flag, or the length cap was hit).
    pub last_in_stream: bool,
}

// A decoded event's JSON form (`cptgen ctl -o`).
cpt_trace::json_struct!(SessionEvent {
    stream,
    event_type,
    iat,
    timestamp,
    last_in_stream,
});

/// A lazily-advanced decode session over one [`DecodeState`].
///
/// Pull events with [`SessionDecoder::next_event`]; the decoder owns all
/// per-token buffers, so each call performs zero heap allocation. The
/// decoder does not borrow the model — callers pass it to every advance
/// (a serving loop holds the model in an `Arc` shared by all workers) and
/// must pass the *same* model the session was opened with.
pub struct SessionDecoder {
    params: StreamParams,
    max_len: usize,
    state: DecodeState,
    /// Newest token, re-encoded in place each step, `[1, 1, token_dim]`.
    step: Tensor,
    /// Initial-event-type probabilities, hoisted at open.
    init_probs: Vec<f64>,
    rng: StdRng,
    counters: GenCounters,
    /// Current UE stream within the session (0-based).
    stream_idx: usize,
    /// Events emitted for the current stream.
    pos_in_stream: usize,
    /// Running timestamp of the current stream.
    timestamp: f64,
    /// The current stream has ended and the next event (if any) bootstraps
    /// a fresh stream.
    need_bootstrap: bool,
    events_emitted: u64,
    finished: bool,
}

impl CptGpt {
    /// Opens a decode session with freshly allocated buffers.
    pub fn open_session(&self, params: StreamParams) -> Result<SessionDecoder, GenerateError> {
        let state = self.begin_decode(1);
        self.open_session_reusing(params, state)
    }

    /// Opens a decode session reusing `state`'s buffers (free-list path).
    ///
    /// The state is [`DecodeState::reset`] before use, so a recycled state
    /// decodes byte-identically to a fresh one. A state sized for a
    /// different batch or model geometry is silently replaced by a fresh
    /// allocation — reuse is an optimization, never a correctness knob.
    pub fn open_session_reusing(
        &self,
        params: StreamParams,
        state: DecodeState,
    ) -> Result<SessionDecoder, GenerateError> {
        self.open_streams(params, 0, state)
    }

    /// [`CptGpt::open_session_reusing`] starting at stream `first` of the
    /// session: the decoder emits streams `first..params.num_streams`,
    /// each exactly as the whole session would have.
    pub(crate) fn open_streams(
        &self,
        params: StreamParams,
        first: usize,
        mut state: DecodeState,
    ) -> Result<SessionDecoder, GenerateError> {
        params.validate()?;
        if self.initial_event_dist.is_empty() {
            return Err(GenerateError::UntrainedModel);
        }
        if !self.decode_state_fits(&state) {
            state = self.begin_decode(1);
        }
        let max_len = params
            .max_stream_len
            .map_or(self.config.max_len, |m| m.min(self.config.max_len))
            .max(1);
        Ok(SessionDecoder {
            params,
            max_len,
            state,
            step: Tensor::zeros(&[1, 1, self.tokenizer.token_dim()]),
            init_probs: self.initial_event_dist.iter().map(|(_, p)| *p).collect(),
            rng: indexed_rng(params.seed, first as u64),
            counters: GenCounters::default(),
            stream_idx: first,
            pos_in_stream: 0,
            timestamp: 0.0,
            need_bootstrap: true,
            events_emitted: 0,
            finished: first >= params.num_streams,
        })
    }
}

impl SessionDecoder {
    /// Advances the session by one token and returns the decoded event, or
    /// `None` once all `num_streams` streams have ended. `model` must be
    /// the model this session was opened with.
    pub fn next_event(&mut self, model: &CptGpt) -> Option<SessionEvent> {
        if self.finished {
            return None;
        }
        let (event, iat, stop) = if self.need_bootstrap {
            self.bootstrap_event(model)
        } else {
            let out = model.decode_step(&mut self.state, &self.step);
            sample_row(model, out, 0, &mut self.rng, &mut self.counters)
        };
        Some(self.commit_event(model, event, iat, stop))
    }

    /// First event of a stream: resets the decode state, re-derives the
    /// per-stream RNG from `(seed, stream_idx)` and samples from the
    /// released initial-event distribution (interarrival 0, as in
    /// training). Bootstrap involves no forward pass, so a batched round
    /// handles it per session without touching the GEMM.
    fn bootstrap_event(&mut self, model: &CptGpt) -> (EventType, f64, bool) {
        self.state.reset();
        self.rng = indexed_rng(self.params.seed, self.stream_idx as u64);
        self.timestamp = 0.0;
        self.pos_in_stream = 0;
        self.need_bootstrap = false;
        let i = sample_categorical(&self.init_probs, &mut self.rng);
        (model.initial_event_dist[i].0, 0.0, false)
    }

    /// Applies one sampled `(event, iat, stop)` to the session: advances
    /// the clock and counters, re-encodes the step token, and rolls over
    /// to the next stream (or finishes) on `last_in_stream`. All RNG draws
    /// happened before this, so batch composition cannot affect it.
    fn commit_event(
        &mut self,
        model: &CptGpt,
        event: EventType,
        iat: f64,
        stop: bool,
    ) -> SessionEvent {
        let d = model.tokenizer.token_dim();
        self.timestamp += iat.max(0.0);
        self.pos_in_stream += 1;
        self.events_emitted += 1;
        model
            .tokenizer
            .encode_sample_into(event, iat, stop, &mut self.step.data[..d]);

        let capped = self.pos_in_stream >= self.max_len;
        let last_in_stream = stop || capped;
        if capped && !stop {
            self.counters.truncated_streams += 1;
        }
        let ev = SessionEvent {
            stream: self.stream_idx,
            event_type: event,
            iat,
            timestamp: self.timestamp,
            last_in_stream,
        };
        if last_in_stream {
            self.stream_idx += 1;
            self.need_bootstrap = true;
            if self.stream_idx >= self.params.num_streams {
                self.finished = true;
            }
        }
        ev
    }

    /// True once all streams have ended; `next_event` will return `None`.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Guardrail interventions so far.
    pub fn counters(&self) -> &GenCounters {
        &self.counters
    }

    /// Session parameters.
    pub fn params(&self) -> &StreamParams {
        &self.params
    }

    /// Events emitted so far across all streams of the session.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// Consumes the decoder and hands its [`DecodeState`] back for reuse.
    pub fn into_state(self) -> DecodeState {
        self.state
    }
}

/// Samples one `(event, iat, stop)` triple from row `row` of a decoded
/// [`InferStep`], drawing from the session's own RNG.
///
/// This is the *only* sampling code in the crate: [`SessionDecoder::next_event`]
/// calls it with `row == 0` on its own one-row step, [`BatchDecoder`] with
/// each session's row of the packed step. Because every draw comes from
/// the per-session RNG in the same order, and the packed GEMM produces
/// bit-identical rows (see `matmul_rows`), a session's output is the same
/// for any batch composition.
fn sample_row(
    model: &CptGpt,
    out: &InferStep,
    row: usize,
    rng: &mut StdRng,
    counters: &mut GenCounters,
) -> (EventType, f64, bool) {
    let e = model.tokenizer.num_events();
    let ev_logits = &out.event_logits.data[row * e..(row + 1) * e];
    if ev_logits.iter().any(|l| !l.is_finite()) {
        counters.non_finite_logits += 1;
    }
    let ev_idx = sample_logits(ev_logits, rng);
    // The sampler always returns an index below `num_events`, so this
    // lookup cannot fail.
    let event = EventType::from_index(ev_idx).expect("sampler returns in-range index");
    let scaled = model.sample_scaled_iat(out, row, rng, counters);
    let iat = model.tokenizer.unscale_iat(scaled);
    let stop_logits = &out.stop_logits.data[row * 2..row * 2 + 2];
    if stop_logits.iter().any(|l| !l.is_finite()) {
        counters.non_finite_logits += 1;
    }
    let stop = sample_logits(stop_logits, rng) == 1;
    (event, iat, stop)
}

/// What happened to one session during a [`BatchDecoder::next_events`]
/// round. `out[i]` describes `sessions[i]`.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundOutcome {
    /// The session advanced by one event.
    Event(SessionEvent),
    /// The session had already finished; nothing was decoded for it.
    Finished,
    /// A panic fired while advancing this session (chaos injection or a
    /// genuine bug). The panic was contained to this entry; the session's
    /// decoder is poisoned and must be dropped, the rest of the batch is
    /// unaffected.
    Panicked(String),
}

/// Cross-session batched decode: advances up to `max_batch` sessions by
/// one event each, stacking their single-token forward passes into one
/// packed `[n_rows × d_model]` GEMM per layer.
///
/// A round has three phases:
///
/// 1. **Stage** (per session, panic-contained): run the caller's
///    `pre_step` hook (the serving engine injects chaos panics here),
///    emit bootstrap events directly (no forward pass), and gather each
///    remaining session's step token into the packed token matrix.
/// 2. **Decode** (one call): a single [`CptGpt::decode_step_batch`] over
///    the staged rows — per-session KV-cache rows are gathered/scattered
///    inside, each session attending over its own cache at its own
///    position.
/// 3. **Sample** (per session, panic-contained): draw from each staged
///    session's own RNG via `sample_row` on its row, then commit.
///
/// Per-row GEMM accumulation is independent of batch composition and all
/// per-session state (RNG, KV cache, clock) is touched in the same order
/// as [`SessionDecoder::next_event`] touches it, so output is bit-identical
/// to draining each session alone, for any interleaving of batch sizes.
pub struct BatchDecoder {
    bstate: BatchDecodeState,
    /// Packed step tokens, `[max_batch × token_dim]`.
    tokens: Vec<f32>,
    /// Indices into the caller's `sessions` slice staged for the GEMM this
    /// round (ascending).
    staged: Vec<usize>,
    max_batch: usize,
}

impl BatchDecoder {
    /// A batched decoder for up to `max_batch` concurrent sessions.
    pub fn new(model: &CptGpt, max_batch: usize) -> Self {
        BatchDecoder {
            bstate: model.begin_batch_decode(max_batch),
            tokens: vec![0.0; max_batch * model.tokenizer.token_dim()],
            staged: Vec::with_capacity(max_batch),
            max_batch,
        }
    }

    /// Maximum number of sessions one round can advance.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Advances each session in `sessions` by one event, writing one
    /// [`RoundOutcome`] per session into `out` (`out[i]` for
    /// `sessions[i]`; `out` is cleared first). Returns the number of rows
    /// that went through the packed GEMM (0 when every session was
    /// finished or bootstrapping) — the serving engine records this as
    /// batch occupancy.
    ///
    /// `pre_step(i, events_emitted)` runs before session `i` is advanced;
    /// a panic from it (or from sampling) is contained to that entry,
    /// which reports [`RoundOutcome::Panicked`] while the rest of the
    /// batch proceeds. A panicked session's decoder is poisoned: drop it.
    pub fn next_events(
        &mut self,
        model: &CptGpt,
        sessions: &mut [&mut SessionDecoder],
        pre_step: &mut dyn FnMut(usize, u64),
        out: &mut Vec<RoundOutcome>,
    ) -> usize {
        assert!(
            sessions.len() <= self.max_batch,
            "batch of {} exceeds max_batch {}",
            sessions.len(),
            self.max_batch
        );
        out.clear();
        self.staged.clear();
        let dtok = model.tokenizer.token_dim();

        // Phase 1: stage. Bootstrap events involve no forward pass, so
        // they are emitted here; everything else gathers its step token.
        for (i, s) in sessions.iter_mut().enumerate() {
            let events = s.events_emitted;
            let staged_row = self.staged.len();
            let tokens = &mut self.tokens[staged_row * dtok..(staged_row + 1) * dtok];
            let res = catch_unwind(AssertUnwindSafe(|| {
                pre_step(i, events);
                if s.finished {
                    return None;
                }
                if s.need_bootstrap {
                    let (event, iat, stop) = s.bootstrap_event(model);
                    return Some(Some(s.commit_event(model, event, iat, stop)));
                }
                tokens.copy_from_slice(&s.step.data[..dtok]);
                Some(None)
            }));
            out.push(match res {
                Ok(None) => RoundOutcome::Finished,
                Ok(Some(Some(ev))) => RoundOutcome::Event(ev),
                Ok(Some(None)) => {
                    self.staged.push(i);
                    // Placeholder; overwritten by phase 3.
                    RoundOutcome::Finished
                }
                Err(payload) => RoundOutcome::Panicked(worker_panic(payload.as_ref())),
            });
        }
        if self.staged.is_empty() {
            return 0;
        }
        let rows = self.staged.len();

        // Phase 2: one packed forward pass over the staged rows. `staged`
        // is ascending, so a single sweep collects the disjoint `&mut`
        // decode states. A panic here is not per-entry containable (the
        // GEMM is shared); the serving engine's outer catch_unwind turns
        // it into whole-slice failure.
        let step_out = {
            let mut states: Vec<&mut DecodeState> = Vec::with_capacity(rows);
            let mut want = self.staged.iter().copied().peekable();
            for (i, s) in sessions.iter_mut().enumerate() {
                if want.peek() == Some(&i) {
                    want.next();
                    states.push(&mut s.state);
                }
            }
            model.decode_step_batch(&mut self.bstate, &mut states, &self.tokens[..rows * dtok])
        };

        // Phase 3: per-session sampling from each staged session's own
        // RNG, in batch order.
        for (row, &i) in self.staged.iter().enumerate() {
            let s = &mut *sessions[i];
            let res = catch_unwind(AssertUnwindSafe(|| {
                let (event, iat, stop) =
                    sample_row(model, step_out, row, &mut s.rng, &mut s.counters);
                s.commit_event(model, event, iat, stop)
            }));
            out[i] = match res {
                Ok(ev) => RoundOutcome::Event(ev),
                Err(payload) => RoundOutcome::Panicked(worker_panic(payload.as_ref())),
            };
        }
        rows
    }
}

/// The reason a contained panic is reported with (same wording as the
/// serving engine's own containment).
fn worker_panic(payload: &(dyn Any + Send)) -> String {
    format!("worker panic: {}", panic_message(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CptGptConfig;
    use crate::fixtures::{tiny_config, trained_model};
    use crate::token::Tokenizer;
    use cpt_trace::{Dataset, Event, Stream, UeId};

    fn drain(model: &CptGpt, mut dec: SessionDecoder) -> Vec<SessionEvent> {
        let mut out = Vec::new();
        while let Some(ev) = dec.next_event(model) {
            out.push(ev);
        }
        assert!(dec.is_finished());
        assert!(dec.next_event(model).is_none(), "finished stays finished");
        out
    }

    #[test]
    fn session_emits_well_formed_streams() {
        let model = trained_model();
        let dec = model
            .open_session(StreamParams::new(7).streams(3))
            .expect("open");
        let events = drain(&model, dec);
        assert!(!events.is_empty());
        // Stream indices are 0..3, contiguous, each ending with
        // last_in_stream and restarting the clock.
        assert_eq!(events.last().map(|e| e.stream), Some(2));
        let mut prev_t = 0.0;
        let mut prev_stream = 0;
        for ev in &events {
            if ev.stream != prev_stream {
                assert_eq!(ev.stream, prev_stream + 1);
                prev_stream = ev.stream;
                prev_t = 0.0;
            }
            assert!(ev.timestamp >= prev_t, "timestamps non-decreasing");
            prev_t = ev.timestamp;
        }
        assert_eq!(events.iter().filter(|e| e.last_in_stream).count(), 3);
        // Per-stream lengths respect the model's max_len (12).
        for s in 0..3 {
            let n = events.iter().filter(|e| e.stream == s).count();
            assert!((1..=12).contains(&n));
        }
    }

    #[test]
    fn session_is_deterministic_per_seed() {
        let model = trained_model();
        let a = drain(
            &model,
            model
                .open_session(StreamParams::new(5).streams(2))
                .expect("open"),
        );
        let b = drain(
            &model,
            model
                .open_session(StreamParams::new(5).streams(2))
                .expect("open"),
        );
        let c = drain(
            &model,
            model
                .open_session(StreamParams::new(6).streams(2))
                .expect("open"),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn recycled_state_decodes_byte_identically() {
        let model = trained_model();
        let fresh = drain(
            &model,
            model.open_session(StreamParams::new(9)).expect("open"),
        );
        // Dirty a state with a different session, then reuse it.
        let warm = model.open_session(StreamParams::new(1234)).expect("open");
        let state = drain_to_state(&model, warm);
        let reused = model
            .open_session_reusing(StreamParams::new(9), state)
            .expect("open reused");
        assert_eq!(fresh, drain(&model, reused));
    }

    fn drain_to_state(model: &CptGpt, mut dec: SessionDecoder) -> DecodeState {
        while dec.next_event(model).is_some() {}
        dec.into_state()
    }

    #[test]
    fn mismatched_state_falls_back_to_fresh_allocation() {
        let model = trained_model();
        let wrong = model.begin_decode(4); // batch 4, not a session state
        let dec = model
            .open_session_reusing(StreamParams::new(3), wrong)
            .expect("open with mismatched state");
        let via_fresh = drain(
            &model,
            model.open_session(StreamParams::new(3)).expect("open"),
        );
        assert_eq!(via_fresh, drain(&model, dec));
    }

    #[test]
    fn state_from_another_geometry_falls_back_to_fresh_allocation() {
        // Same batch and max_len, different widths or depth: reusing the
        // buffers would trip a slice-length assert inside the first step.
        let model = trained_model();
        let via_fresh = drain(
            &model,
            model.open_session(StreamParams::new(3)).expect("open"),
        );
        let narrower = CptGptConfig {
            d_model: 8,
            d_mlp: 16,
            d_head: 8,
            ..model.config
        };
        let deeper = CptGptConfig {
            n_blocks: 2,
            ..model.config
        };
        for other in [narrower, deeper] {
            let foreign = CptGpt::new(other, model.tokenizer.clone()).begin_decode(1);
            assert_eq!(foreign.max_len(), model.config.max_len);
            let dec = model
                .open_session_reusing(StreamParams::new(3), foreign)
                .expect("open with a foreign state");
            assert_eq!(via_fresh, drain(&model, dec));
        }
    }

    #[test]
    fn invalid_params_are_typed_errors() {
        let model = trained_model();
        let Err(err) = model.open_session(StreamParams::new(0).streams(0)) else {
            panic!("0 streams rejected");
        };
        assert!(matches!(
            err,
            GenerateError::InvalidConfig {
                field: "num_streams",
                ..
            }
        ));
        assert!(matches!(
            model.open_session(StreamParams::new(0).with_max_stream_len(0)),
            Err(GenerateError::InvalidConfig {
                field: "max_stream_len",
                ..
            })
        ));
    }

    #[test]
    fn untrained_model_is_typed_error() {
        let data = Dataset::new(vec![Stream::new(
            UeId(0),
            DeviceType::Phone,
            vec![
                Event::new(EventType::ServiceRequest, 0.0),
                Event::new(EventType::ConnectionRelease, 1.0),
            ],
        )]);
        let tok = Tokenizer::fit(&data);
        let model = CptGpt::new(tiny_config().with_max_len(12), tok);
        assert!(matches!(
            model.open_session(StreamParams::new(0)),
            Err(GenerateError::UntrainedModel)
        ));
    }

    #[test]
    fn max_stream_len_caps_each_stream() {
        let model = trained_model();
        let dec = model
            .open_session(StreamParams::new(2).streams(4).with_max_stream_len(3))
            .expect("open");
        let events = drain(&model, dec);
        for s in 0..4 {
            assert!(events.iter().filter(|e| e.stream == s).count() <= 3);
        }
    }

    /// Disjoint `&mut` selection at ascending indices (mirrors the
    /// engine's batch gather).
    fn select_mut<'a>(
        decs: &'a mut [SessionDecoder],
        idx: &[usize],
    ) -> Vec<&'a mut SessionDecoder> {
        let mut want = idx.iter().copied().peekable();
        let mut out = Vec::with_capacity(idx.len());
        for (i, d) in decs.iter_mut().enumerate() {
            if want.peek() == Some(&i) {
                want.next();
                out.push(d);
            }
        }
        assert_eq!(out.len(), idx.len());
        out
    }

    /// Drives every session to completion through a [`BatchDecoder`],
    /// `max_batch` sessions per round, returning per-session event logs.
    /// Sessions leave the batch as they finish, so batch composition
    /// shrinks over time (and differs for every `max_batch`).
    fn drain_batched(
        model: &CptGpt,
        decs: &mut [SessionDecoder],
        max_batch: usize,
    ) -> Vec<Vec<SessionEvent>> {
        let mut bd = BatchDecoder::new(model, max_batch);
        let n = decs.len();
        let mut logs: Vec<Vec<SessionEvent>> = vec![Vec::new(); n];
        let mut outcomes = Vec::new();
        loop {
            let live: Vec<usize> = (0..n).filter(|&i| !decs[i].is_finished()).collect();
            if live.is_empty() {
                break;
            }
            for chunk in live.chunks(max_batch) {
                let mut refs = select_mut(decs, chunk);
                bd.next_events(model, &mut refs, &mut |_, _| {}, &mut outcomes);
                assert_eq!(outcomes.len(), chunk.len());
                for (&slot, oc) in chunk.iter().zip(&outcomes) {
                    match oc {
                        RoundOutcome::Event(ev) => logs[slot].push(*ev),
                        RoundOutcome::Finished => {}
                        RoundOutcome::Panicked(r) => panic!("unexpected panic: {r}"),
                    }
                }
            }
        }
        logs
    }

    #[test]
    fn batched_rounds_match_sequential_bitwise() {
        let model = trained_model();
        let params: Vec<StreamParams> = (0..6)
            .map(|i| StreamParams::new(40 + i as u64).streams(1 + (i % 3)))
            .collect();
        let sequential: Vec<Vec<SessionEvent>> = params
            .iter()
            .map(|p| drain(&model, model.open_session(*p).expect("open")))
            .collect();
        // Any batch width — including width 1 and wider than the session
        // count — reproduces the one-session-at-a-time bits, even as
        // sessions finish at different times and the batch shrinks.
        for max_batch in [1usize, 2, 4, 8] {
            let mut decs: Vec<SessionDecoder> = params
                .iter()
                .map(|p| model.open_session(*p).expect("open"))
                .collect();
            let logs = drain_batched(&model, &mut decs, max_batch);
            assert_eq!(logs, sequential, "max_batch {max_batch}");
        }
    }

    #[test]
    fn sessions_joining_mid_stream_decode_identically() {
        let model = trained_model();
        let params: Vec<StreamParams> = (0..4)
            .map(|i| StreamParams::new(70 + i as u64).streams(2))
            .collect();
        let sequential: Vec<Vec<SessionEvent>> = params
            .iter()
            .map(|p| drain(&model, model.open_session(*p).expect("open")))
            .collect();
        // Stagger arrivals: session i joins the batch at round 2*i, mid
        // way through earlier sessions' streams.
        let mut decs: Vec<SessionDecoder> = params
            .iter()
            .map(|p| model.open_session(*p).expect("open"))
            .collect();
        let mut bd = BatchDecoder::new(&model, 4);
        let mut logs: Vec<Vec<SessionEvent>> = vec![Vec::new(); 4];
        let mut outcomes = Vec::new();
        let mut round = 0usize;
        loop {
            let live: Vec<usize> = (0..4)
                .filter(|&i| round >= 2 * i && !decs[i].is_finished())
                .collect();
            if live.is_empty() && round >= 8 {
                break;
            }
            if !live.is_empty() {
                let mut refs = select_mut(&mut decs, &live);
                bd.next_events(&model, &mut refs, &mut |_, _| {}, &mut outcomes);
                for (&slot, oc) in live.iter().zip(&outcomes) {
                    if let RoundOutcome::Event(ev) = oc {
                        logs[slot].push(*ev);
                    }
                }
            }
            round += 1;
        }
        assert_eq!(logs, sequential);
    }

    #[test]
    fn panic_in_batch_poisons_only_target_entry() {
        let model = trained_model();
        let params: Vec<StreamParams> = (0..3)
            .map(|i| StreamParams::new(90 + i as u64).streams(2))
            .collect();
        let sequential: Vec<Vec<SessionEvent>> = params
            .iter()
            .map(|p| drain(&model, model.open_session(*p).expect("open")))
            .collect();
        let mut decs: Vec<SessionDecoder> = params
            .iter()
            .map(|p| model.open_session(*p).expect("open"))
            .collect();
        let mut bd = BatchDecoder::new(&model, 3);
        let mut logs: Vec<Vec<SessionEvent>> = vec![Vec::new(); 3];
        let mut outcomes = Vec::new();
        let mut poisoned = false;
        loop {
            let live: Vec<usize> = (0..3)
                .filter(|&i| !(decs[i].is_finished() || poisoned && i == 1))
                .collect();
            if live.is_empty() {
                break;
            }
            let mut refs = select_mut(&mut decs, &live);
            // Chaos hook: fail session 1 once it has emitted 2 events,
            // mirroring the engine's should_panic(session, events) check.
            bd.next_events(
                &model,
                &mut refs,
                &mut |slot, events| {
                    if live[slot] == 1 && events >= 2 {
                        panic!("chaos: injected batch panic");
                    }
                },
                &mut outcomes,
            );
            for (&slot, oc) in live.iter().zip(&outcomes) {
                match oc {
                    RoundOutcome::Event(ev) => logs[slot].push(*ev),
                    RoundOutcome::Finished => {}
                    RoundOutcome::Panicked(reason) => {
                        assert_eq!(slot, 1, "only the targeted entry panics");
                        assert!(
                            reason.contains("chaos: injected batch panic"),
                            "reason: {reason}"
                        );
                        poisoned = true;
                    }
                }
            }
        }
        assert!(poisoned, "chaos hook fired");
        // Untargeted sessions are bit-identical to sequential end to end;
        // the poisoned session's prefix (events before the panic) is too.
        assert_eq!(logs[0], sequential[0]);
        assert_eq!(logs[2], sequential[2]);
        assert_eq!(logs[1], sequential[1][..2]);
    }
}
