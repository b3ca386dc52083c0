//! The CPT-GPT network (Figure 3 of the paper).
//!
//! ```text
//! tokens [R,9] ──linear──► [R,d_model] ──(+ positional emb.)──►
//!   TransformerBlock × n ──LayerNorm──► features [R,d_model]
//!     ├── MLP head: event-type logits   [R, |E|]
//!     ├── MLP head: interarrival (μ, log σ)  [R] each
//!     └── MLP head: stop-flag logits    [R, 2]
//! ```
//!
//! `R` is every position of a batch's streams, packed one stream after
//! another; each stream attends only within itself.
//!
//! The "embedding" layer of NLP transformers is replaced by a linear
//! projection from the 9-dimensional multimodal token space (Design 1);
//! the interarrival head outputs distribution parameters rather than a
//! scalar (Design 2), unless the Table 8 ablation `point_iat_head` is on.

#![deny(clippy::unwrap_used)]

use crate::config::CptGptConfig;
use crate::error::CheckpointError;
use crate::token::Tokenizer;
use cpt_nn::{
    AttnKvCache, DecodeScratch, LayerNorm, Linear, ParamId, ParamStore, QuantBlock, QuantLinear,
    Session, Tensor, TransformerBlock, Var, WeightFormat,
};
use cpt_trace::json::{JsonError, ToJson, Value};
use cpt_trace::{Cmb, EventType};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A two-layer MLP output head (`d_model → d_head → out`).
#[derive(Debug, Clone)]
struct MlpHead {
    fc1: Linear,
    fc2: Linear,
}

impl MlpHead {
    fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_hidden: usize,
        d_out: usize,
        rng: &mut StdRng,
    ) -> Self {
        MlpHead {
            fc1: Linear::new(store, &format!("{name}.fc1"), d_in, d_hidden, true, rng),
            fc2: Linear::new(store, &format!("{name}.fc2"), d_hidden, d_out, true, rng),
        }
    }

    fn forward(&self, sess: &mut Session<'_>, x: Var) -> Var {
        let h = self.fc1.forward(sess, x);
        let h = sess.graph.gelu(h);
        self.fc2.forward(sess, h)
    }
}

/// Applies one two-layer head `(fc1, fc2)` to raw rows in any weight
/// format, allocation-free: `hbuf` is the hidden scratch
/// (`rows × d_hidden`), `out` the head output (both overwritten).
fn head_rows_into<W: WeightFormat>(
    (fc1, fc2): (&W, &W),
    store: &ParamStore,
    x: &[f32],
    rows: usize,
    hbuf: &mut [f32],
    out: &mut [f32],
) {
    fc1.apply_rows_into(store, x, rows, hbuf);
    cpt_nn::gelu_rows(hbuf);
    fc2.apply_rows_into(store, hbuf, rows, out);
}

/// Per-position outputs of one forward pass, one row per position of
/// the `R` a batch packs.
#[derive(Debug, Clone, Copy)]
pub struct StepOutput {
    /// Event-type logits, `[R, |E|]`.
    pub event_logits: Var,
    /// Interarrival μ (scaled space), `[R]`.
    pub iat_mean: Var,
    /// Interarrival log σ, `[R]`. For the point-head ablation this is
    /// unused (zeros).
    pub iat_log_std: Var,
    /// Stop-flag logits, `[R, 2]`.
    pub stop_logits: Var,
}

/// The CPT-GPT model: configuration, parameters, tokenizer and the
/// initial-event-type distribution released with the weights (§4.5).
#[derive(Debug, Clone)]
pub struct CptGpt {
    /// Architecture configuration.
    pub config: CptGptConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    /// Fitted tokenizer (scaling bounds travel with the weights).
    pub tokenizer: Tokenizer,
    /// Initial-event-type distribution used to bootstrap inference.
    pub initial_event_dist: Vec<(EventType, f64)>,
    input_proj: Linear,
    pos_emb: ParamId,
    blocks: Vec<TransformerBlock>,
    ln_f: LayerNorm,
    head_event: MlpHead,
    head_iat: MlpHead,
    head_stop: MlpHead,
}

impl CptGpt {
    /// Builds a freshly initialized model for `tokenizer`'s vocabulary.
    pub fn new(config: CptGptConfig, tokenizer: Tokenizer) -> Self {
        assert_eq!(
            tokenizer.generation(),
            config.generation,
            "tokenizer/config generation mismatch"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let d = config.d_model;
        let input_proj = Linear::new(
            &mut store,
            "input_proj",
            tokenizer.token_dim(),
            d,
            true,
            &mut rng,
        );
        let pos_emb = store.add(
            "pos_emb",
            Tensor::randn(&[config.max_len, d], 0.02, &mut rng),
        );
        let blocks = (0..config.n_blocks)
            .map(|i| {
                TransformerBlock::new(
                    &mut store,
                    &format!("block{i}"),
                    d,
                    config.n_heads,
                    config.d_mlp,
                    &mut rng,
                )
            })
            .collect();
        let ln_f = LayerNorm::new(&mut store, "ln_f", d);
        let n_events = tokenizer.num_events();
        let head_event = MlpHead::new(
            &mut store,
            "head_event",
            d,
            config.d_head,
            n_events,
            &mut rng,
        );
        let iat_out = if config.point_iat_head { 1 } else { 2 };
        let head_iat = MlpHead::new(&mut store, "head_iat", d, config.d_head, iat_out, &mut rng);
        let head_stop = MlpHead::new(&mut store, "head_stop", d, config.d_head, 2, &mut rng);
        CptGpt {
            config,
            store,
            tokenizer,
            initial_event_dist: Vec::new(),
            input_proj,
            pos_emb,
            blocks,
            ln_f,
            head_event,
            head_iat,
            head_stop,
        }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.store.num_params()
    }

    /// Deterministic checksum of the current weights (names, shapes, exact
    /// f32 bits). Two models hash equal iff their parameters are
    /// bit-identical.
    pub fn checksum(&self) -> u64 {
        cpt_nn::serialize::store_checksum(&self.store)
    }

    /// The model's `.cmb` metadata: configuration, tokenizer and
    /// initial-event distribution. Layer structs are not stored: loading
    /// rebuilds them from the configuration.
    pub fn cmb_meta(&self) -> Value {
        Value::obj([
            ("config", self.config.to_json()),
            ("tokenizer", self.tokenizer.to_json()),
            ("initial_event_dist", self.initial_event_dist.to_json()),
        ])
    }

    /// Rebuilds a model from its [`CptGpt::cmb_meta`] and the tensors of
    /// `cmb` named `prefix` + parameter name: [`CptGpt::new`] from the
    /// stored configuration and tokenizer, then every weight copied in by
    /// name with its shape checked, finite values only. `path` names the
    /// file in errors.
    pub fn from_cmb(
        meta: &Value,
        cmb: &Cmb,
        prefix: &str,
        path: &std::path::Path,
    ) -> Result<Self, CheckpointError> {
        let corrupt = |detail: String| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let (config, tokenizer): (CptGptConfig, Tokenizer) = meta
            .field("config")
            .and_then(|c| Ok((c, meta.field("tokenizer")?)))
            .map_err(|e| corrupt(format!("model metadata: {e}")))?;
        let stored_params = cpt_nn::serialize::section_params(cmb, prefix);
        check_buildable(&config, &tokenizer, stored_params).map_err(corrupt)?;
        let mut model = CptGpt::new(config, tokenizer);
        model.initial_event_dist = meta
            .field("initial_event_dist")
            .map_err(|e: JsonError| corrupt(format!("model metadata: {e}")))?;
        cpt_nn::serialize::load_section_into(&mut model.store, cmb, prefix).map_err(|e| {
            CheckpointError::Validation {
                path: path.to_path_buf(),
                detail: e.to_string(),
            }
        })?;
        Ok(model)
    }

    /// The model as a `.cmb` file image.
    pub fn to_cmb_bytes(&self) -> Vec<u8> {
        model_cmb(self).to_bytes()
    }

    /// Parses a model from a `.cmb` file image (see [`load_model_file`]).
    pub fn from_cmb_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let path = std::path::Path::new("<in-memory model>");
        model_from_cmb(Cmb::from_bytes(bytes), path)
    }

    /// Runs the network on `tokens` of shape `[R, token_dim]` — the
    /// positions of streams of `lens` tokens, one stream after another
    /// (a [`crate::Batch`]'s layout) — returning per-position head
    /// outputs. Each stream attends only within itself, and its position
    /// `t` reads positional-embedding row `t`. `sess` must be a session
    /// over `self.store`.
    pub fn forward(&self, sess: &mut Session<'_>, tokens: Tensor, lens: &[usize]) -> StepOutput {
        assert_eq!(tokens.rank(), 2, "expected [rows, token_dim]");
        let (n, dtok) = (tokens.shape[0], tokens.shape[1]);
        assert_eq!(dtok, self.tokenizer.token_dim(), "token dim");
        assert_eq!(
            lens.iter().sum::<usize>(),
            n,
            "stream lengths vs token rows"
        );
        if let Some(&t) = lens.iter().max() {
            assert!(
                t <= self.config.max_len,
                "sequence length {t} exceeds max_len {}",
                self.config.max_len
            );
        }

        let x = sess.input(tokens);
        let mut h = self.input_proj.forward(sess, x); // [R,D]
        let positions: Vec<usize> = lens.iter().flat_map(|&l| 0..l).collect();
        let pe_full = sess.param(self.pos_emb);
        let pe = sess.graph.gather_rows(pe_full, &positions); // [R,D]
        h = sess.graph.add(h, pe);
        for block in &self.blocks {
            h = block.forward(sess, h, lens);
        }
        let h = self.ln_f.forward(sess, h);

        let event_logits = self.head_event.forward(sess, h); // [R,|E|]
        let stop_logits = self.head_stop.forward(sess, h); // [R,2]
        let iat = self.head_iat.forward(sess, h);
        let (iat_mean, iat_log_std) = if self.config.point_iat_head {
            let flat = sess.graph.reshape(iat, &[n]);
            let zeros = sess.input(Tensor::zeros(&[n]));
            (flat, zeros)
        } else {
            let mean = sess.graph.slice_cols(iat, 0, 1);
            let log_std = sess.graph.slice_cols(iat, 1, 1);
            let mean = sess.graph.reshape(mean, &[n]);
            let log_std = sess.graph.reshape(log_std, &[n]);
            (mean, log_std)
        };

        StepOutput {
            event_logits,
            iat_mean,
            iat_log_std,
            stop_logits,
        }
    }

    /// Computes the paper's weighted three-field loss for a batch
    /// (cross-entropy for event type and stop flag, Gaussian NLL — or MSE
    /// under the ablation — for the interarrival).
    pub fn loss(&self, sess: &mut Session<'_>, batch: &crate::batch::Batch) -> Var {
        let out = self.forward(sess, batch.inputs.clone(), &batch.lens);
        let (we, wi, ws) = self.config.loss_weights;
        let l_event = sess
            .graph
            .cross_entropy_logits(out.event_logits, &batch.event_targets);
        let l_iat = if self.config.point_iat_head {
            sess.graph.mse(out.iat_mean, &batch.iat_targets)
        } else {
            sess.graph
                .gaussian_nll(out.iat_mean, out.iat_log_std, &batch.iat_targets)
        };
        let l_stop = sess
            .graph
            .cross_entropy_logits(out.stop_logits, &batch.stop_targets);
        sess.graph
            .weighted_sum(&[(l_event, we), (l_iat, wi), (l_stop, ws)])
    }
}

/// Every size a decode buffer depends on. A [`DecodeState`] records the
/// geometry it was allocated for, so a recycled one is reused only by a
/// model that would have allocated the same thing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DecodeGeometry {
    rows: usize,
    d_model: usize,
    n_heads: usize,
    n_blocks: usize,
    d_mlp: usize,
    d_head: usize,
    n_events: usize,
    /// Width of the raw interarrival-head output (1 for the point head).
    iat_out: usize,
    max_len: usize,
}

/// One stream's incremental decoding state: a KV cache per transformer
/// block and the current position.
struct RowState {
    caches: Vec<AttnKvCache>,
    pos: usize,
}

/// Incremental decoding state for `batch` streams advanced together: each
/// stream's `RowState` plus one set of step buffers. Everything is sized
/// once in [`CptGpt::begin_decode`] and overwritten in place each step.
pub struct DecodeState {
    rows: Vec<RowState>,
    bufs: BatchDecodeState,
}

impl DecodeState {
    /// Number of tokens decoded so far.
    pub fn pos(&self) -> usize {
        self.rows[0].pos
    }

    /// Batch size this state was sized for.
    pub fn batch(&self) -> usize {
        self.rows.len()
    }

    /// Position capacity this state was sized for.
    pub fn max_len(&self) -> usize {
        self.bufs.geometry.max_len
    }

    /// Rewinds the state to position 0 so its buffers can be reused for a
    /// new stream without reallocating. All per-step buffers are fully
    /// overwritten each step and the KV caches only ever read rows below
    /// their length counter, so a reset state decodes byte-identically to a
    /// freshly allocated one (the serving free-list and
    /// [`crate::stream::SessionDecoder`] reuse depend on this).
    pub fn reset(&mut self) {
        for row in &mut self.rows {
            row.caches.iter_mut().for_each(AttnKvCache::reset);
            row.pos = 0;
        }
    }
}

/// Per-step head outputs from the incremental decoder (plain tensors, no
/// autodiff tape).
pub struct InferStep {
    /// Event-type logits, `[B, |E|]`.
    pub event_logits: Tensor,
    /// Interarrival μ per stream (scaled space).
    pub iat_mean: Vec<f32>,
    /// Interarrival log σ per stream (zeros for the point-head ablation).
    pub iat_log_std: Vec<f32>,
    /// Stop-flag logits, `[B, 2]`.
    pub stop_logits: Tensor,
}

/// The buffers one decode step works in — everything except the KV caches,
/// which stay with each stream. Sized once for `max_batch` rows by
/// [`CptGpt::begin_batch_decode`]; a step over `n ≤ max_batch` streams uses
/// the first `n` rows of every buffer, so steps of any composition allocate
/// nothing here.
pub struct BatchDecodeState {
    geometry: DecodeGeometry,
    scratch: DecodeScratch,
    /// Residual stream for the current position, `[B·D]`.
    h: Vec<f32>,
    /// Post-`ln_f` features, `[B·D]`.
    feat: Vec<f32>,
    /// Shared MLP-head hidden scratch, `[B·d_head]`.
    head_h: Vec<f32>,
    /// Raw interarrival-head output (`[B]` or `[B·2]`).
    iat_raw: Vec<f32>,
    /// Persistent output buffers, returned by reference from each step.
    out: InferStep,
}

impl BatchDecodeState {
    /// Largest step this state was sized for.
    pub fn max_batch(&self) -> usize {
        self.geometry.rows
    }
}

/// int8 per-channel quantized snapshot of every weight matrix the decode
/// step touches (LayerNorms and biases stay f32). Built once per model
/// with [`CptGpt::quantize_decode_weights`]; ~4× smaller weight traffic per
/// GEMM, no bit-identity claim (accuracy contract: per-weight rounding ≤
/// scale/2, see DESIGN.md §15).
pub struct QuantDecodeWeights {
    input_proj: QuantLinear,
    blocks: Vec<QuantBlock>,
    head_event: QuantMlpHead,
    head_iat: QuantMlpHead,
    head_stop: QuantMlpHead,
}

/// Quantized [`MlpHead`].
struct QuantMlpHead {
    fc1: QuantLinear,
    fc2: QuantLinear,
}

impl MlpHead {
    fn quantize(&self, store: &ParamStore) -> QuantMlpHead {
        QuantMlpHead {
            fc1: self.fc1.quantize(store),
            fc2: self.fc2.quantize(store),
        }
    }
}

/// The GEMM weights one decode step reads, in weight format `W`: borrowed
/// from the model's own f32 layers or from a [`QuantDecodeWeights`].
struct StepWeights<'a, W: WeightFormat> {
    input_proj: &'a W,
    blocks: &'a [W::Block],
    head_event: (&'a W, &'a W),
    head_stop: (&'a W, &'a W),
    head_iat: (&'a W, &'a W),
}

impl QuantDecodeWeights {
    fn step_weights(&self) -> StepWeights<'_, QuantLinear> {
        StepWeights {
            input_proj: &self.input_proj,
            blocks: &self.blocks,
            head_event: (&self.head_event.fc1, &self.head_event.fc2),
            head_stop: (&self.head_stop.fc1, &self.head_stop.fc2),
            head_iat: (&self.head_iat.fc1, &self.head_iat.fc2),
        }
    }
}

impl CptGpt {
    fn step_weights(&self) -> StepWeights<'_, Linear> {
        StepWeights {
            input_proj: &self.input_proj,
            blocks: &self.blocks,
            head_event: (&self.head_event.fc1, &self.head_event.fc2),
            head_stop: (&self.head_stop.fc1, &self.head_stop.fc2),
            head_iat: (&self.head_iat.fc1, &self.head_iat.fc2),
        }
    }

    fn decode_geometry(&self, rows: usize) -> DecodeGeometry {
        DecodeGeometry {
            rows,
            d_model: self.config.d_model,
            n_heads: self.config.n_heads,
            n_blocks: self.config.n_blocks,
            d_mlp: self.config.d_mlp,
            d_head: self.config.d_head,
            n_events: self.tokenizer.num_events(),
            iat_out: if self.config.point_iat_head { 1 } else { 2 },
            max_len: self.config.max_len,
        }
    }

    /// Starts incremental decoding for `batch` streams advanced together,
    /// preallocating every per-step buffer.
    pub fn begin_decode(&self, batch: usize) -> DecodeState {
        let g = self.decode_geometry(batch);
        let row = || RowState {
            caches: (0..g.n_blocks)
                .map(|_| AttnKvCache::new(1, g.n_heads, g.max_len, g.d_model / g.n_heads))
                .collect(),
            pos: 0,
        };
        DecodeState {
            rows: (0..batch).map(|_| row()).collect(),
            bufs: self.begin_batch_decode(batch),
        }
    }

    /// Whether `state` is what [`CptGpt::begin_decode`]`(1)` would allocate
    /// for this model: one stream, every buffer the same size.
    pub(crate) fn decode_state_fits(&self, state: &DecodeState) -> bool {
        state.bufs.geometry == self.decode_geometry(1)
    }

    /// Preallocates the step buffers for decode steps over up to
    /// `max_batch` streams.
    pub fn begin_batch_decode(&self, max_batch: usize) -> BatchDecodeState {
        assert!(max_batch >= 1, "batch decode needs max_batch >= 1");
        let g = self.decode_geometry(max_batch);
        BatchDecodeState {
            geometry: g,
            scratch: DecodeScratch::new(max_batch, g.d_model, g.d_mlp, g.max_len),
            h: vec![0.0; max_batch * g.d_model],
            feat: vec![0.0; max_batch * g.d_model],
            head_h: vec![0.0; max_batch * g.d_head],
            iat_raw: vec![0.0; max_batch * g.iat_out],
            out: InferStep {
                event_logits: Tensor::zeros(&[max_batch, g.n_events]),
                iat_mean: vec![0.0; max_batch],
                iat_log_std: vec![0.0; max_batch],
                stop_logits: Tensor::zeros(&[max_batch, 2]),
            },
        }
    }

    /// Packs every weight the decode step reads, now, so that no later
    /// step pays for it: `cpt-serve` calls this when it installs a model
    /// version, off the request path. Everything else may skip it — the
    /// first decode step packs whatever is still cold (see
    /// `cpt_nn::Linear::apply_rows_into`). Done by running one throw-away
    /// step, which reads exactly the weights a real one does; the packed
    /// copies live in `self.store` until a weight is next written.
    pub fn pack_decode_weights(&self) {
        let mut state = self.begin_decode(1);
        let token = Tensor::zeros(&[1, 1, self.tokenizer.token_dim()]);
        self.decode_step(&mut state, &token);
    }

    /// Snapshots the decode weights as int8 per-channel quantized copies
    /// for [`CptGpt::decode_step_batch_quant`].
    pub fn quantize_decode_weights(&self) -> QuantDecodeWeights {
        QuantDecodeWeights {
            input_proj: self.input_proj.quantize(&self.store),
            blocks: self
                .blocks
                .iter()
                .map(|b| b.quantize(&self.store))
                .collect(),
            head_event: self.head_event.quantize(&self.store),
            head_iat: self.head_iat.quantize(&self.store),
            head_stop: self.head_stop.quantize(&self.store),
        }
    }

    /// Processes one token for each of `state`'s streams
    /// (`[B, 1, token_dim]`) through the KV-cached step and returns the
    /// heads' outputs for that position. Equivalent to [`CptGpt::forward`]
    /// on the full prefix (verified by tests) but O(T) instead of O(T²) per
    /// step. The returned reference points into `state`'s persistent
    /// buffers.
    pub fn decode_step<'s>(&self, state: &'s mut DecodeState, tokens: &Tensor) -> &'s InferStep {
        assert_eq!(
            tokens.shape,
            vec![state.batch(), 1, self.tokenizer.token_dim()],
            "decode_step expects [B,1,token_dim]"
        );
        let DecodeState { rows, bufs } = state;
        self.decode_rows(self.step_weights(), bufs, rows, |r| r, &tokens.data)
    }

    /// One decode step for `n` independent single-stream states at once:
    /// their pending tokens (`n × token_dim`, session-major) run through
    /// each layer as a single packed `[n × d]` GEMM, while positional-
    /// embedding adds and KV scatter/attention stay per session (each at
    /// its own position and cache). Row `i` of the returned [`InferStep`]
    /// is bit-identical to what [`CptGpt::decode_step`] would produce for
    /// session `i` alone — it is the same code, and no row of a step
    /// depends on another (see
    /// `cpt_nn::MultiHeadSelfAttention::decode_step_multi`).
    pub fn decode_step_batch<'s>(
        &self,
        bstate: &'s mut BatchDecodeState,
        states: &mut [&mut DecodeState],
        tokens: &[f32],
    ) -> &'s InferStep {
        self.decode_rows(self.step_weights(), bstate, states, single_row, tokens)
    }

    /// [`CptGpt::decode_step_batch`] through the int8 quantized weights
    /// (no bit-identity claim; see [`QuantDecodeWeights`]).
    pub fn decode_step_batch_quant<'s>(
        &self,
        quant: &QuantDecodeWeights,
        bstate: &'s mut BatchDecodeState,
        states: &mut [&mut DecodeState],
        tokens: &[f32],
    ) -> &'s InferStep {
        self.decode_rows(quant.step_weights(), bstate, states, single_row, tokens)
    }

    /// The gradient-free transformer step, once: one new token for each of
    /// `streams` (`row` maps an entry to its [`RowState`]), through weights
    /// in any format, using the first `streams.len()` rows of `bufs`.
    fn decode_rows<'s, W: WeightFormat, S>(
        &self,
        w: StepWeights<'_, W>,
        bufs: &'s mut BatchDecodeState,
        streams: &mut [S],
        row: impl Fn(&mut S) -> &mut RowState,
        tokens: &[f32],
    ) -> &'s InferStep {
        let n = streams.len();
        assert!(n >= 1, "decode step needs at least one stream");
        assert!(
            n <= bufs.max_batch(),
            "step of {n} exceeds max_batch {}",
            bufs.max_batch()
        );
        let d = self.config.d_model;
        assert_eq!(
            tokens.len(),
            n * self.tokenizer.token_dim(),
            "decode step token size"
        );

        let nd = n * d;
        w.input_proj
            .apply_rows_into(&self.store, tokens, n, &mut bufs.h[..nd]);
        let pe = self.store.value(self.pos_emb);
        for (s, h_row) in streams.iter_mut().zip(bufs.h.chunks_mut(d)) {
            let pos = row(s).pos;
            assert!(pos < self.config.max_len, "decode past max_len");
            for (hv, pv) in h_row.iter_mut().zip(&pe.data[pos * d..(pos + 1) * d]) {
                *hv += pv;
            }
        }
        for (j, block) in w.blocks.iter().enumerate() {
            // Per-step gather of each stream's cache for this layer: a Vec
            // of n pointers, one allocation per layer per step. The round
            // around the step allocates two more the same way (`states` in
            // `BatchDecoder::next_events`, `live` in `generate_chunk`), so
            // offline generation makes about 0.7 allocations per decoded
            // event (`alloc.allocs_per_decoded_event`).
            let mut caches: Vec<&mut AttnKvCache> =
                streams.iter_mut().map(|s| &mut row(s).caches[j]).collect();
            W::block_decode_step(
                block,
                &self.store,
                &mut bufs.h[..nd],
                &mut caches,
                &mut bufs.scratch,
            );
        }
        for s in streams.iter_mut() {
            row(s).pos += 1;
        }

        self.ln_f
            .apply_rows_into(&self.store, &bufs.h[..nd], n, &mut bufs.feat[..nd]);
        let g = bufs.geometry;
        let feat = &bufs.feat[..nd];
        let head_h = &mut bufs.head_h[..n * g.d_head];
        let out = &mut bufs.out;
        head_rows_into(
            w.head_event,
            &self.store,
            feat,
            n,
            head_h,
            &mut out.event_logits.data[..n * g.n_events],
        );
        head_rows_into(
            w.head_stop,
            &self.store,
            feat,
            n,
            head_h,
            &mut out.stop_logits.data[..n * 2],
        );
        head_rows_into(
            w.head_iat,
            &self.store,
            feat,
            n,
            head_h,
            &mut bufs.iat_raw[..n * g.iat_out],
        );
        if self.config.point_iat_head {
            out.iat_mean[..n].copy_from_slice(&bufs.iat_raw[..n]);
            out.iat_log_std[..n].fill(0.0);
        } else {
            for (i, raw) in bufs.iat_raw[..n * 2].chunks(2).enumerate() {
                out.iat_mean[i] = raw[0];
                out.iat_log_std[i] = raw[1];
            }
        }
        out
    }
}

/// The one stream of a single-stream [`DecodeState`] (what
/// [`CptGpt::decode_step_batch`] composes).
fn single_row<'a>(state: &'a mut &mut DecodeState) -> &'a mut RowState {
    assert_eq!(
        state.batch(),
        1,
        "batch decode composes single-stream states"
    );
    &mut state.rows[0]
}

/// Rejects a configuration [`CptGpt::new`] would panic on or that asks for
/// more weights than the file holds, so a forged file cannot make loading
/// panic or allocate past its own size.
fn check_buildable(
    config: &CptGptConfig,
    tokenizer: &Tokenizer,
    stored_params: usize,
) -> Result<(), String> {
    if tokenizer.generation() != config.generation {
        return Err("tokenizer and config disagree on the generation".into());
    }
    let c = config;
    if c.d_model == 0 || c.n_heads == 0 || !c.d_model.is_multiple_of(c.n_heads) {
        return Err(format!(
            "d_model {} does not split into {} heads",
            c.d_model, c.n_heads
        ));
    }
    // Weights every such model holds at least: the positional table, each
    // block's attention and MLP matrices, and the heads' first layers.
    let (d, m) = (c.d_model as u128, c.d_mlp as u128);
    let at_least = c.max_len as u128 * d
        + c.n_blocks as u128 * (4 * d * d + 2 * d * m)
        + 3 * d * c.d_head as u128;
    if at_least > stored_params as u128 {
        return Err(format!(
            "the config needs at least {at_least} weights, the file holds {stored_params}"
        ));
    }
    Ok(())
}

/// A single model's file: its metadata tagged as a CPT-GPT model, and its
/// tensors unprefixed.
fn model_cmb(model: &CptGpt) -> Cmb {
    let Value::Obj(mut meta) = model.cmb_meta() else {
        unreachable!("cmb_meta is an object")
    };
    meta.insert(0, ("model".into(), Value::str("cpt-gpt")));
    let mut cmb = Cmb::new(Value::Obj(meta));
    cpt_nn::serialize::push_store(&mut cmb, "", &model.store);
    cmb
}

/// Saves a model to `path` as a `.cmb` bundle, atomically (temp file +
/// rename), so a crash mid-save cannot leave a torn file where a good model
/// used to be. The file's checksums cover every byte, which
/// [`load_model_file`] verifies before trusting the payload.
pub fn save_model_file(model: &CptGpt, path: &std::path::Path) -> Result<(), CheckpointError> {
    model_cmb(model).write(path).map_err(|e| match e {
        cpt_trace::CmbError::Io { source, .. } => CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        },
        other => CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: other.to_string(),
        },
    })
}

/// Loads a model from `path`, distinguishing unreadable files
/// ([`CheckpointError::Io`]), damaged or foreign bytes — a JSON model from
/// before the `.cmb` format included, with a hint to retrain it —
/// ([`CheckpointError::Corrupt`]) and intact files whose weights do not fit
/// their configuration or are not finite ([`CheckpointError::Validation`]).
pub fn load_model_file(path: &std::path::Path) -> Result<CptGpt, CheckpointError> {
    model_from_cmb(Cmb::read(path), path)
}

/// A single model's file (see [`model_cmb`]) as read or parsed.
fn model_from_cmb(
    cmb: Result<Cmb, cpt_trace::CmbError>,
    path: &std::path::Path,
) -> Result<CptGpt, CheckpointError> {
    let cmb = cmb.map_err(|e| match e {
        cpt_trace::CmbError::Io { source, .. } => CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        },
        other => CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: other.to_string(),
        },
    })?;
    if cmb.meta.get("model").and_then(Value::as_str) != Some("cpt-gpt") {
        return Err(CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: "not a CPT-GPT model file".into(),
        });
    }
    CptGpt::from_cmb(&cmb.meta, &cmb, "", path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::build_batch;
    use crate::fixtures::{tiny_config, Scratch};
    use cpt_trace::{Dataset, DeviceType, Event, Stream, UeId};

    fn toy_dataset() -> Dataset {
        let mk = |id: u64| {
            Stream::new(
                UeId(id),
                DeviceType::Phone,
                vec![
                    Event::new(EventType::ServiceRequest, 0.0),
                    Event::new(EventType::ConnectionRelease, 8.0),
                    Event::new(EventType::ServiceRequest, 100.0),
                    Event::new(EventType::ConnectionRelease, 111.0),
                ],
            )
        };
        Dataset::new(vec![mk(0), mk(1), mk(2)])
    }

    #[test]
    fn forward_shapes() {
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(tiny_config(), tok.clone());
        let streams: Vec<&Stream> = d.streams.iter().collect();
        let batch = build_batch(&tok, &streams, 16);
        let mut sess = Session::new(&model.store);
        let out = model.forward(&mut sess, batch.inputs.clone(), &batch.lens);
        let n = batch.real_positions();
        assert_eq!(n, 9);
        assert_eq!(sess.graph.value(out.event_logits).shape, vec![n, 6]);
        assert_eq!(sess.graph.value(out.iat_mean).shape, vec![n]);
        assert_eq!(sess.graph.value(out.iat_log_std).shape, vec![n]);
        assert_eq!(sess.graph.value(out.stop_logits).shape, vec![n, 2]);
    }

    #[test]
    fn paper_sized_model_has_about_725k_params() {
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(CptGptConfig::paper(), tok);
        let n = model.num_params();
        // §5.1: "a total of 725K parameters". Our reconstruction must land
        // in the same ballpark (positional table + blocks dominate).
        assert!(
            (500_000..1_000_000).contains(&n),
            "parameter count {n} not in the paper's ballpark"
        );
    }

    #[test]
    fn loss_is_finite_and_decreases_under_adam() {
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(tiny_config(), tok.clone());
        let streams: Vec<&Stream> = d.streams.iter().collect();
        let batch = build_batch(&tok, &streams, 16);
        let mut store = model.store.clone();
        let mut adam = cpt_nn::Adam::new(&store, 1e-2);
        let mut first = f32::NAN;
        let mut last = 0.0;
        let mut m = model.clone();
        for _ in 0..30 {
            m.store = store.clone();
            let mut sess = Session::new(&m.store);
            let loss = m.loss(&mut sess, &batch);
            last = sess.graph.value(loss).item();
            assert!(last.is_finite());
            if first.is_nan() {
                first = last;
            }
            sess.backward(loss);
            let grads = sess.grads();
            store.accumulate_grads(&grads);
            adam.step(&mut store);
            store.zero_grads();
        }
        assert!(
            last < first * 0.8,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn point_head_ablation_changes_head_shape() {
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let cfg = tiny_config().with_point_iat_head();
        let model = CptGpt::new(cfg, tok.clone());
        let streams: Vec<&Stream> = d.streams.iter().collect();
        let batch = build_batch(&tok, &streams, 16);
        let mut sess = Session::new(&model.store);
        let loss = model.loss(&mut sess, &batch);
        assert!(sess.graph.value(loss).item().is_finite());
    }

    #[test]
    fn decode_step_matches_full_forward() {
        // The KV-cached step against the tape `forward` (the independent
        // reference), one stream per state and five streams per state.
        let d = Dataset::new(
            (0..5)
                .map(|i| {
                    let gap = f64::from(i);
                    let at = |k: usize, t: f64| {
                        let types = [EventType::ServiceRequest, EventType::ConnectionRelease];
                        Event::new(types[k % 2], t)
                    };
                    let events = vec![
                        at(0, 0.0),
                        at(1, 8.0 + gap),
                        at(2, 100.0 + 3.0 * gap),
                        at(3, 111.0 + 7.0 * gap),
                    ];
                    Stream::new(UeId(i as u64), DeviceType::Phone, events)
                })
                .collect(),
        );
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(tiny_config(), tok.clone());
        let streams: Vec<&Stream> = d.streams.iter().collect();
        let batch = build_batch(&tok, &streams, 16);
        let (b, t, dtok) = (batch.lens.len(), batch.lens[0], tok.token_dim());
        assert_eq!(b, 5);
        assert_eq!(batch.lens, vec![t; b]);

        let mut sess = Session::new(&model.store);
        let out = model.forward(&mut sess, batch.inputs.clone(), &batch.lens);
        let full_events = sess.graph.value(out.event_logits).clone(); // [B*T, E]
        let full_mean = sess.graph.value(out.iat_mean).clone();
        let full_stop = sess.graph.value(out.stop_logits).clone();

        for rows in [1, 5] {
            for first in (0..b).step_by(rows) {
                let mut state = model.begin_decode(rows);
                for ti in 0..t {
                    let mut step = cpt_nn::Tensor::zeros(&[rows, 1, dtok]);
                    for r in 0..rows {
                        let src = ((first + r) * t + ti) * dtok;
                        step.data[r * dtok..(r + 1) * dtok]
                            .copy_from_slice(&batch.inputs.data[src..src + dtok]);
                    }
                    let inc = model.decode_step(&mut state, &step);
                    for r in 0..rows {
                        let flat = (first + r) * t + ti;
                        for c in 0..6 {
                            let a = full_events.data[flat * 6 + c];
                            let x = inc.event_logits.data[r * 6 + c];
                            assert!(
                                (a - x).abs() < 1e-3,
                                "event logit rows={rows} t={ti} b={} c={c}: {a} vs {x}",
                                first + r
                            );
                        }
                        assert!((full_mean.data[flat] - inc.iat_mean[r]).abs() < 1e-3);
                        for c in 0..2 {
                            let a = full_stop.data[flat * 2 + c];
                            let x = inc.stop_logits.data[r * 2 + c];
                            assert!((a - x).abs() < 1e-3, "stop logit mismatch");
                        }
                    }
                }
                assert_eq!(state.pos(), t);
            }
        }
    }

    #[test]
    fn batched_decode_matches_sequential_decode_bitwise() {
        // n single-stream states at different positions, decoded in one
        // step of n rows, must produce per-row bits identical to n steps
        // of one row.
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(tiny_config(), tok);
        let dtok = model.tokenizer.token_dim();
        let e = model.tokenizer.num_events();
        let n = 5;
        let mut seq_states: Vec<DecodeState> = (0..n).map(|_| model.begin_decode(1)).collect();
        let mut bat_states: Vec<DecodeState> = (0..n).map(|_| model.begin_decode(1)).collect();
        let mut bstate = model.begin_batch_decode(n);
        let mut r = StdRng::seed_from_u64(9);
        // Advance session i by i tokens on both sides, one row at a time,
        // so positions and caches differ across the batch.
        for i in 0..n {
            for _ in 0..i {
                let tokv = Tensor::randn(&[1, 1, dtok], 0.3, &mut r);
                model.decode_step(&mut seq_states[i], &tokv);
                model.decode_step(&mut bat_states[i], &tokv);
            }
        }
        let step = Tensor::randn(&[n, dtok], 0.3, &mut r);
        let mut seq_rows = Vec::new();
        for (i, st) in seq_states.iter_mut().enumerate() {
            let tokv = Tensor::new(
                step.data[i * dtok..(i + 1) * dtok].to_vec(),
                vec![1, 1, dtok],
            );
            let o = model.decode_step(st, &tokv);
            seq_rows.push((
                o.event_logits.data[..e].to_vec(),
                o.iat_mean[0],
                o.iat_log_std[0],
                o.stop_logits.data[..2].to_vec(),
            ));
        }
        let mut refs: Vec<&mut DecodeState> = bat_states.iter_mut().collect();
        let out = model.decode_step_batch(&mut bstate, &mut refs, &step.data);
        for (i, (ev, mean, log_std, stop)) in seq_rows.iter().enumerate() {
            for (c, x) in ev.iter().enumerate() {
                assert_eq!(
                    x.to_bits(),
                    out.event_logits.data[i * e + c].to_bits(),
                    "event logit row {i} col {c}"
                );
            }
            assert_eq!(
                mean.to_bits(),
                out.iat_mean[i].to_bits(),
                "iat mean row {i}"
            );
            assert_eq!(
                log_std.to_bits(),
                out.iat_log_std[i].to_bits(),
                "iat log_std row {i}"
            );
            for (c, s) in stop.iter().enumerate() {
                assert_eq!(
                    s.to_bits(),
                    out.stop_logits.data[i * 2 + c].to_bits(),
                    "stop logit row {i} col {c}"
                );
            }
        }
        for (a, b) in seq_states.iter().zip(&bat_states) {
            assert_eq!(a.pos(), b.pos(), "positions advance identically");
        }
    }

    #[test]
    fn quantized_batched_decode_tracks_f32_path() {
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(tiny_config(), tok);
        let quant = model.quantize_decode_weights();
        let dtok = model.tokenizer.token_dim();
        let e = model.tokenizer.num_events();
        let n = 3;
        let mut f32_states: Vec<DecodeState> = (0..n).map(|_| model.begin_decode(1)).collect();
        let mut q_states: Vec<DecodeState> = (0..n).map(|_| model.begin_decode(1)).collect();
        let mut bstate = model.begin_batch_decode(n);
        let mut r = StdRng::seed_from_u64(10);
        for _ in 0..4 {
            let step = Tensor::randn(&[n, dtok], 0.3, &mut r);
            let f32_logits = {
                let mut refs: Vec<&mut DecodeState> = f32_states.iter_mut().collect();
                let o = model.decode_step_batch(&mut bstate, &mut refs, &step.data);
                o.event_logits.data[..n * e].to_vec()
            };
            let q_logits = {
                let mut refs: Vec<&mut DecodeState> = q_states.iter_mut().collect();
                let o = model.decode_step_batch_quant(&quant, &mut bstate, &mut refs, &step.data);
                o.event_logits.data[..n * e].to_vec()
            };
            for (a, b) in f32_logits.iter().zip(&q_logits) {
                assert!(
                    (a - b).abs() < 0.2 * a.abs().max(1.0),
                    "quantized logits drift too far: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn model_cmb_roundtrip_preserves_generation() {
        // The cptgen CLI persists whole models as `.cmb` bundles; a loaded
        // model must generate identically.
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let mut model = CptGpt::new(tiny_config(), tok);
        crate::train::train(
            &mut model,
            &d,
            &crate::config::TrainConfig::quick().with_epochs(2),
        )
        .expect("training succeeds");
        let bytes = model.to_cmb_bytes();
        let back = CptGpt::from_cmb_bytes(&bytes).expect("model loads and validates");
        assert_eq!(back.checksum(), model.checksum());
        assert_eq!(back.tokenizer, model.tokenizer);
        assert_eq!(back.config, model.config);
        let dist_bits = |m: &CptGpt| -> Vec<(EventType, u64)> {
            m.initial_event_dist
                .iter()
                .map(|(e, p)| (*e, p.to_bits()))
                .collect()
        };
        assert_eq!(dist_bits(&back), dist_bits(&model));
        let cfg = crate::generate::GenerateConfig::new(5, 3);
        assert_eq!(
            model.generate(&cfg).expect("generate"),
            back.generate(&cfg).expect("generate")
        );
        assert_eq!(back.to_cmb_bytes(), bytes, "re-saving reproduces the file");
    }

    #[test]
    fn model_file_roundtrip_and_corruption() {
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(tiny_config(), tok);
        let dir = Scratch::new("gpt-model-file");
        let path = dir.path("model.cmb");

        save_model_file(&model, &path).expect("save");
        let back = load_model_file(&path).expect("load verifies checksums");
        assert_eq!(back.checksum(), model.checksum());
        let bytes = std::fs::read(&path).expect("read artifact");

        // A flipped weight bit (the last tensor's last value) or a cut
        // anywhere is Corrupt, with the offending path named.
        let mut flipped = bytes.clone();
        let at = flipped.len() - 8;
        flipped[at] ^= 1;
        for damaged in [flipped, bytes[..bytes.len() / 2].to_vec()] {
            std::fs::write(&path, &damaged).expect("write damaged");
            match load_model_file(&path) {
                Err(CheckpointError::Corrupt { path: p, .. }) => assert_eq!(p, path),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }

        // An intact file whose weights do not fit its configuration (a
        // tensor renamed, a tensor reshaped) or are not finite is a
        // Validation error.
        let mut cmb = model_cmb(&model);
        cmb.tensors[0].name = "renamed".into();
        let mut reshaped = model_cmb(&model);
        let t = &mut reshaped.tensors[0];
        t.shape = vec![t.data.len(), 1];
        let mut nan = model_cmb(&model);
        nan.tensors[1].data[0] = f32::NAN;
        for bad in [cmb, reshaped, nan] {
            bad.write(&path).expect("write");
            assert!(matches!(
                load_model_file(&path),
                Err(CheckpointError::Validation { .. })
            ));
        }

        // A config that cannot be built, or whose zero width would let it
        // ask for any number of blocks, is Corrupt, not a panic or an
        // allocation the file does not back.
        let no_heads = CptGptConfig {
            n_heads: 0,
            ..model.config
        };
        let no_width = CptGptConfig {
            d_model: 0,
            n_blocks: 1 << 40,
            ..model.config
        };
        for config in [no_heads, no_width] {
            let mut forged = model_cmb(&model);
            if let Value::Obj(fields) = &mut forged.meta {
                for (k, v) in fields.iter_mut() {
                    if k == "config" {
                        *v = config.to_json();
                    }
                }
            }
            forged.write(&path).expect("write");
            assert!(matches!(
                load_model_file(&path),
                Err(CheckpointError::Corrupt { .. })
            ));
        }

        // A JSON model from before the `.cmb` format is told to retrain.
        std::fs::write(&path, br#"{"config":{"d_model":16}}"#).expect("write legacy");
        match load_model_file(&path) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains("retrain"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_initialization() {
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let a = CptGpt::new(tiny_config().with_seed(5), tok.clone());
        let b = CptGpt::new(tiny_config().with_seed(5), tok.clone());
        let c = CptGpt::new(tiny_config().with_seed(6), tok);
        assert_eq!(
            a.store.value(a.store.ids()[0]).data,
            b.store.value(b.store.ids()[0]).data
        );
        assert_ne!(
            a.store.value(a.store.ids()[0]).data,
            c.store.value(c.store.ids()[0]).data
        );
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn rejects_overlong_sequences() {
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(tiny_config().with_max_len(2), tok.clone());
        let streams: Vec<&Stream> = d.streams.iter().collect();
        let batch = build_batch(&tok, &streams, 16); // 3 positions > max_len = 2
        let mut sess = Session::new(&model.store);
        model.forward(&mut sess, batch.inputs.clone(), &batch.lens);
    }

    /// A packed shard is its streams run alone, bit for bit: causality
    /// keeps a stream from reading another's rows, and every op but
    /// attention is row-wise.
    #[test]
    fn packed_shard_is_each_stream_alone_bit_for_bit() {
        let types = [EventType::ServiceRequest, EventType::ConnectionRelease];
        let d = Dataset::new(
            [3usize, 8, 14]
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let events = (0..len)
                        .map(|k| Event::new(types[k % 2], (k * (3 + i)) as f64 + 0.5 * i as f64))
                        .collect();
                    Stream::new(UeId(i as u64), DeviceType::Phone, events)
                })
                .collect(),
        );
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(tiny_config(), tok.clone());
        let heads = |streams: &[&Stream]| {
            let batch = build_batch(&tok, streams, 16);
            let mut sess = Session::new(&model.store);
            let out = model.forward(&mut sess, batch.inputs.clone(), &batch.lens);
            let bits = |v: Var| -> Vec<u32> {
                sess.graph
                    .value(v)
                    .data
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            };
            (
                batch.lens.clone(),
                [
                    out.event_logits,
                    out.iat_mean,
                    out.iat_log_std,
                    out.stop_logits,
                ]
                .map(bits),
            )
        };
        let all: Vec<&Stream> = d.streams.iter().collect();
        let (lens, packed) = heads(&all);
        assert_eq!(lens, vec![2, 7, 13]);
        let widths = [6, 1, 1, 2];
        let mut row = 0;
        for (stream, &l) in all.iter().zip(&lens) {
            let (_, alone) = heads(&[stream]);
            for ((p, a), w) in packed.iter().zip(&alone).zip(widths) {
                assert_eq!(
                    &p[row * w..(row + l) * w],
                    &a[..],
                    "stream of {l} positions"
                );
            }
            row += l;
        }
    }
}
