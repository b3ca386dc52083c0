//! The CPT-GPT network (Figure 3 of the paper).
//!
//! ```text
//! tokens [B,T,9] ──linear──► [B,T,d_model] ──(+ positional emb.)──►
//!   TransformerBlock × n ──LayerNorm──► features [B,T,d_model]
//!     ├── MLP head: event-type logits   [B·T, |E|]
//!     ├── MLP head: interarrival (μ, log σ)  [B·T] each
//!     └── MLP head: stop-flag logits    [B·T, 2]
//! ```
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
use cpt_trace::EventType;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A two-layer MLP output head (`d_model → d_head → out`).
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Per-position outputs of one forward pass, flattened to `[B·T, …]`.
#[derive(Debug, Clone, Copy)]
pub struct StepOutput {
    /// Event-type logits, `[B·T, |E|]`.
    pub event_logits: Var,
    /// Interarrival μ (scaled space), `[B·T]`.
    pub iat_mean: Var,
    /// Interarrival log σ, `[B·T]`. For the point-head ablation this is
    /// unused (zeros).
    pub iat_log_std: Var,
    /// Stop-flag logits, `[B·T, 2]`.
    pub stop_logits: Var,
}

/// The CPT-GPT model: configuration, parameters, tokenizer and the
/// initial-event-type distribution released with the weights (§4.5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CptGpt {
    /// Architecture configuration.
    pub config: CptGptConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    /// Fitted tokenizer (scaling bounds travel with the weights).
    pub tokenizer: Tokenizer,
    /// Initial-event-type distribution used to bootstrap inference.
    pub initial_event_dist: Vec<(EventType, f64)>,
    /// Integrity header: FNV-1a checksum of the parameter store, stamped
    /// by [`save_model_file`] at write time and verified (then cleared) on
    /// load. `None` for pre-checksum artifacts, which still load, and for
    /// in-memory models, whose weights may since have been trained.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    weights_checksum: Option<u64>,
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
        let head_event = MlpHead::new(&mut store, "head_event", d, config.d_head, n_events, &mut rng);
        let iat_out = if config.point_iat_head { 1 } else { 2 };
        let head_iat = MlpHead::new(&mut store, "head_iat", d, config.d_head, iat_out, &mut rng);
        let head_stop = MlpHead::new(&mut store, "head_stop", d, config.d_head, 2, &mut rng);
        CptGpt {
            config,
            store,
            tokenizer,
            initial_event_dist: Vec::new(),
            weights_checksum: None,
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

    /// Serializes the model bundle (config + tokenizer + weights +
    /// initial-event distribution) to a JSON string.
    ///
    /// Library code must never `unwrap()` a serde round-trip: a model that
    /// fails to serialize (however unlikely) is a value the caller handles,
    /// not a panic inside a long-running server.
    pub fn to_json(&self) -> Result<String, CheckpointError> {
        serde_json::to_string(self).map_err(|e| CheckpointError::Corrupt {
            path: std::path::PathBuf::from("<in-memory model>"),
            detail: format!("model serialization failed: {e}"),
        })
    }

    /// Parses a model bundle from JSON and validates its weights.
    ///
    /// Well-formed JSON can still carry garbage (NaN weights from a
    /// diverged run, tensor shapes torn by partial edits); those are
    /// rejected as [`CheckpointError::Validation`] so a server loading an
    /// untrusted payload gets a typed error, never a panic downstream.
    pub fn from_json(json: &str) -> Result<Self, CheckpointError> {
        let mut model: CptGpt =
            serde_json::from_str(json).map_err(|e| CheckpointError::Corrupt {
                path: std::path::PathBuf::from("<in-memory model>"),
                detail: e.to_string(),
            })?;
        verify_checksum_header(&mut model, std::path::Path::new("<in-memory model>"))?;
        cpt_nn::serialize::validate_store(&model.store).map_err(|e| {
            CheckpointError::Validation {
                path: std::path::PathBuf::from("<in-memory model>"),
                detail: e.to_string(),
            }
        })?;
        Ok(model)
    }

    /// Runs the network on `tokens` of shape `[B, T, token_dim]`, returning
    /// per-position head outputs. `sess` must be a session over
    /// `self.store`.
    pub fn forward(&self, sess: &mut Session<'_>, tokens: Tensor) -> StepOutput {
        let shape = tokens.shape.clone();
        assert_eq!(shape.len(), 3, "expected [B,T,token_dim]");
        let (b, t, dtok) = (shape[0], shape[1], shape[2]);
        assert_eq!(dtok, self.tokenizer.token_dim(), "token dim");
        assert!(
            t <= self.config.max_len,
            "sequence length {t} exceeds max_len {}",
            self.config.max_len
        );

        let x = sess.input(tokens);
        let mut h = self.input_proj.forward(sess, x); // [B,T,D]
        let pe_full = sess.param(self.pos_emb);
        let pe = sess.graph.slice_rows(pe_full, 0, t); // [T,D]
        h = sess.graph.add(h, pe); // suffix broadcast over batch
        for block in &self.blocks {
            h = block.forward(sess, h);
        }
        let h = self.ln_f.forward(sess, h);

        let n = b * t;
        let event_logits_3d = self.head_event.forward(sess, h);
        let event_logits =
            sess.graph
                .reshape(event_logits_3d, &[n, self.tokenizer.num_events()]);
        let stop_logits_3d = self.head_stop.forward(sess, h);
        let stop_logits = sess.graph.reshape(stop_logits_3d, &[n, 2]);

        let iat_3d = self.head_iat.forward(sess, h);
        let (iat_mean, iat_log_std) = if self.config.point_iat_head {
            let flat = sess.graph.reshape(iat_3d, &[n]);
            let zeros = sess.input(Tensor::zeros(&[n]));
            (flat, zeros)
        } else {
            let flat = sess.graph.reshape(iat_3d, &[n, 2]);
            let mean = sess.graph.slice_cols(flat, 0, 1);
            let log_std = sess.graph.slice_cols(flat, 1, 1);
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
        let out = self.forward(sess, batch.inputs.clone());
        let (we, wi, ws) = self.config.loss_weights;
        let l_event =
            sess.graph
                .cross_entropy_logits(out.event_logits, &batch.event_targets, &batch.mask);
        let l_iat = if self.config.point_iat_head {
            sess.graph
                .mse_masked(out.iat_mean, &batch.iat_targets, &batch.mask)
        } else {
            sess.graph.gaussian_nll(
                out.iat_mean,
                out.iat_log_std,
                &batch.iat_targets,
                &batch.mask,
            )
        };
        let l_stop =
            sess.graph
                .cross_entropy_logits(out.stop_logits, &batch.stop_targets, &batch.mask);
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
/// stream's [`RowState`] plus one set of step buffers. Everything is sized
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
            blocks: self.blocks.iter().map(|b| b.quantize(&self.store)).collect(),
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
        assert_eq!(tokens.len(), n * self.tokenizer.token_dim(), "decode step token size");

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
            // Per-step gather of each stream's cache for this layer. The
            // Vec is tiny (n pointers) and the only per-step allocation.
            let mut caches: Vec<&mut AttnKvCache> =
                streams.iter_mut().map(|s| &mut row(s).caches[j]).collect();
            W::block_decode_step(block, &self.store, &mut bufs.h[..nd], &mut caches, &mut bufs.scratch);
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
        head_rows_into(w.head_event, &self.store, feat, n, head_h, &mut out.event_logits.data[..n * g.n_events]);
        head_rows_into(w.head_stop, &self.store, feat, n, head_h, &mut out.stop_logits.data[..n * 2]);
        head_rows_into(w.head_iat, &self.store, feat, n, head_h, &mut bufs.iat_raw[..n * g.iat_out]);
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
    assert_eq!(state.batch(), 1, "batch decode composes single-stream states");
    &mut state.rows[0]
}

/// Verifies a parsed artifact's checksum header against the weights it
/// arrived with, then clears the header: an in-memory model's weights can
/// be trained further, which would silently stale the stamp. Artifacts
/// written before the header existed carry `None` and are accepted as-is.
fn verify_checksum_header(
    model: &mut CptGpt,
    path: &std::path::Path,
) -> Result<(), CheckpointError> {
    if let Some(expected) = model.weights_checksum.take() {
        let actual = model.checksum();
        if actual != expected {
            return Err(CheckpointError::Corrupt {
                path: path.to_path_buf(),
                detail: format!(
                    "weights checksum mismatch: header {expected:#018x}, computed {actual:#018x} \
                     — artifact bytes were altered after the model was saved"
                ),
            });
        }
    }
    Ok(())
}

/// Saves a model bundle to `path` atomically (temp file + rename), so a
/// crash mid-save cannot leave a torn file where a good model used to be.
/// The artifact is stamped with a checksum of the exact weight bits, which
/// [`load_model_file`] verifies before trusting the payload.
pub fn save_model_file(model: &CptGpt, path: &std::path::Path) -> Result<(), CheckpointError> {
    let mut stamped = model.clone();
    stamped.weights_checksum = Some(stamped.checksum());
    cpt_nn::serialize::atomic_write_json(&stamped, path).map_err(|e| match e {
        cpt_nn::serialize::CheckpointError::Io(source) => CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        },
        other => CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail: other.to_string(),
        },
    })
}

/// Loads a model bundle from `path`, distinguishing unreadable files
/// ([`CheckpointError::Io`]), unparseable bytes ([`CheckpointError::Corrupt`])
/// and parseable-but-unusable weights ([`CheckpointError::Validation`]).
pub fn load_model_file(path: &std::path::Path) -> Result<CptGpt, CheckpointError> {
    let file = std::fs::File::open(path).map_err(|source| CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let mut model: CptGpt =
        serde_json::from_reader(std::io::BufReader::new(file)).map_err(|e| {
            CheckpointError::Corrupt {
                path: path.to_path_buf(),
                detail: e.to_string(),
            }
        })?;
    verify_checksum_header(&mut model, path)?;
    cpt_nn::serialize::validate_store(&model.store).map_err(|e| CheckpointError::Validation {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::build_batch;
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

    fn tiny_config() -> CptGptConfig {
        CptGptConfig {
            d_model: 16,
            n_blocks: 1,
            n_heads: 2,
            d_mlp: 32,
            d_head: 16,
            max_len: 16,
            ..CptGptConfig::small()
        }
    }

    #[test]
    fn forward_shapes() {
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(tiny_config(), tok.clone());
        let streams: Vec<&Stream> = d.streams.iter().collect();
        let batch = build_batch(&tok, &streams, 16);
        let mut sess = Session::new(&model.store);
        let out = model.forward(&mut sess, batch.inputs.clone());
        let n = batch.batch * batch.seq;
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
        let (b, t, dtok) = (batch.batch, batch.seq, tok.token_dim());
        assert_eq!(b, 5);

        let mut sess = Session::new(&model.store);
        let out = model.forward(&mut sess, batch.inputs.clone());
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
            let tokv = Tensor::new(step.data[i * dtok..(i + 1) * dtok].to_vec(), vec![1, 1, dtok]);
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
            assert_eq!(mean.to_bits(), out.iat_mean[i].to_bits(), "iat mean row {i}");
            assert_eq!(log_std.to_bits(), out.iat_log_std[i].to_bits(), "iat log_std row {i}");
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
    fn model_serde_roundtrip_preserves_generation() {
        // The cptgen CLI persists whole models as JSON; a deserialized
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
        let json = model.to_json().expect("model serializes");
        let back = CptGpt::from_json(&json).expect("model deserializes and validates");
        let cfg = crate::generate::GenerateConfig::new(5, 3);
        assert_eq!(
            model.generate(&cfg).expect("generate"),
            back.generate(&cfg).expect("generate")
        );
    }

    #[test]
    fn model_file_checksum_roundtrip_and_corruption() {
        let d = toy_dataset();
        let tok = Tokenizer::fit(&d);
        let model = CptGpt::new(tiny_config(), tok);
        let dir = std::env::temp_dir().join(format!("cpt-gpt-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.json");

        // A saved artifact carries a checksum header and round-trips.
        save_model_file(&model, &path).expect("save");
        let bytes = std::fs::read_to_string(&path).expect("read artifact");
        assert!(bytes.contains("weights_checksum"), "header missing from artifact");
        let back = load_model_file(&path).expect("load verifies checksum");
        assert_eq!(back.checksum(), model.checksum());
        assert_eq!(back.weights_checksum, None, "header cleared after verification");
        // Re-saving the loaded model reproduces the artifact byte-for-byte.
        let resaved = dir.join("model2.json");
        save_model_file(&back, &resaved).expect("re-save");
        assert_eq!(bytes, std::fs::read_to_string(&resaved).expect("read re-saved"));

        // A flipped weight bit that keeps the JSON parseable and the value
        // finite is caught by the checksum, with the offending path named.
        let mut tampered = model.clone();
        let id = tampered.store.ids()[0];
        let v = tampered.store.value(id).data[0];
        tampered.store.value_mut(id).data[0] = f32::from_bits(v.to_bits() ^ 1);
        tampered.weights_checksum = Some(model.checksum());
        cpt_nn::serialize::atomic_write_json(&tampered, &path).expect("write tampered");
        match load_model_file(&path) {
            Err(CheckpointError::Corrupt { path: p, detail }) => {
                assert_eq!(p, path);
                assert!(detail.contains("checksum mismatch"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Truncation surfaces as Corrupt too (unparseable), never a panic.
        let full = std::fs::read(&resaved).expect("read bytes");
        std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");
        assert!(matches!(
            load_model_file(&path),
            Err(CheckpointError::Corrupt { .. })
        ));

        // A pre-checksum artifact (no header) still loads.
        let mut legacy = model.clone();
        legacy.weights_checksum = None;
        cpt_nn::serialize::atomic_write_json(&legacy, &path).expect("write legacy");
        load_model_file(&path).expect("legacy artifact loads without header");
        std::fs::remove_dir_all(&dir).ok();
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
        let batch = build_batch(&tok, &streams, 16); // seq = 3 > max_len = 2
        let mut sess = Session::new(&model.store);
        model.forward(&mut sess, batch.inputs.clone());
    }
}
