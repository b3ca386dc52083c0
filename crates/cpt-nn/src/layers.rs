//! Parameterized layers: parameters persist in a [`ParamStore`] across the
//! per-batch graphs; a [`Session`] binds store parameters into a graph and
//! collects their gradients after backward.

use crate::graph::{Graph, Var};
use crate::tensor::{gelu_rows, rows_at, ExpRows, KernelLevel, RowLoop, Tensor};
use rand::Rng;
use std::sync::OnceLock;

/// Handle to one parameter tensor inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Dense index of this parameter within its store (also the index of
    /// its optimizer state).
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Param {
    pub(crate) name: String,
    pub(crate) value: Tensor,
    pub(crate) grad: Tensor,
    /// Derived from `value`, never stored: see [`PanelCache`].
    panels: PanelCache,
}

/// The packed-panel form of one 2-D weight (the layout
/// `crate::tensor::pack_b` produces), built by the first inference GEMM
/// that reads the weight and dropped by [`ParamStore::value_mut`], the only
/// `&mut` route to a value. It is a pure function of `value`, so it stays
/// out of model files and checksums, and a clone starts cold: a cloned store is
/// usually about to be trained, which would drop the copy anyway.
#[derive(Default)]
struct PanelCache(OnceLock<Box<[f32]>>);

impl Clone for PanelCache {
    fn clone(&self) -> Self {
        PanelCache::default()
    }
}

impl std::fmt::Debug for PanelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(p) => write!(f, "PanelCache({} floats)", p.len()),
            None => f.write_str("PanelCache(cold)"),
        }
    }
}

/// Owns all trainable parameters of a model plus their gradient
/// accumulators.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    pub(crate) params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Registers a parameter. Names must be unique — they key checkpoint
    /// files.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            self.params.iter().all(|p| p.name != name),
            "duplicate parameter name {name:?}"
        );
        let grad = Tensor::zeros(&value.shape);
        self.params.push(Param {
            name,
            value,
            grad,
            panels: PanelCache::default(),
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of parameter tensors.
    pub fn num_tensors(&self) -> usize {
        self.params.len()
    }

    /// Total number of scalar parameters (the "725 k parameters" count the
    /// paper reports for CPT-GPT).
    pub fn num_params(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Immutable view of a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable view of a parameter value (optimizer updates, checkpoint
    /// loads). Drops the parameter's packed panels: the next inference GEMM
    /// re-packs from whatever is written through the returned reference.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        let p = &mut self.params[id.0];
        p.panels = PanelCache::default();
        &mut p.value
    }

    /// Parameter `id`'s value, mutable, beside its gradient: the
    /// optimizer's split borrow. Drops the packed panels, as
    /// [`ParamStore::value_mut`] does.
    pub(crate) fn value_and_grad_mut(&mut self, id: ParamId) -> (&mut [f32], &[f32]) {
        let p = &mut self.params[id.0];
        p.panels = PanelCache::default();
        (&mut p.value.data, &p.grad.data)
    }

    /// The `[k, n]` weight `id` as NR-wide column panels for
    /// `crate::tensor::matmul_rows`, packed on the first call and shared by
    /// every later one (and every thread) until [`ParamStore::value_mut`].
    pub(crate) fn packed_panels(&self, id: ParamId) -> &[f32] {
        let p = &self.params[id.0];
        p.panels.0.get_or_init(|| {
            let v = &p.value;
            assert_eq!(
                v.rank(),
                2,
                "{:?} is not a 2-D weight: {:?}",
                p.name,
                v.shape
            );
            let (k, n) = (v.shape[0], v.shape[1]);
            assert_eq!(
                v.data.len(),
                k * n,
                "{:?} data does not match {:?}",
                p.name,
                v.shape
            );
            let mut packed = Vec::new();
            crate::tensor::pack_b(&v.data, k, n, &mut packed);
            packed.into_boxed_slice()
        })
    }

    /// Floats currently held in packed panels (0 for a store that has not
    /// run inference since it was built, cloned or last written): the
    /// memory the pack-once cache costs, and what tests observe to tell a
    /// warm store from a cold one.
    pub fn packed_floats(&self) -> usize {
        self.params
            .iter()
            .filter_map(|p| p.panels.0.get())
            .map(|panels| panels.len())
            .sum()
    }

    /// Immutable view of a parameter's accumulated gradient.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// All parameter ids.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.params.len()).map(ParamId).collect()
    }

    /// Zeroes every gradient accumulator (call after each optimizer step).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            for g in &mut p.grad.data {
                *g = 0.0;
            }
        }
    }

    /// Accumulates a gradient set produced by [`Session::grads`].
    pub fn accumulate_grads(&mut self, grads: &[(ParamId, Tensor)]) {
        for (id, g) in grads {
            self.params[id.0].grad.add_assign(g);
        }
    }
}

/// Binds [`ParamStore`] parameters into a fresh [`Graph`] for one forward/
/// backward pass. Each parameter becomes a single leaf no matter how many
/// times it is used.
pub struct Session<'s> {
    /// The underlying autodiff graph (public so model code can call raw
    /// graph ops directly).
    pub graph: Graph,
    store: &'s ParamStore,
    bound: Vec<Option<Var>>,
}

impl<'s> Session<'s> {
    /// Starts a session over `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Session {
            graph: Graph::new(),
            store,
            bound: vec![None; store.params.len()],
        }
    }

    /// Starts a session whose graph draws node storage from `arena` and
    /// returns it on drop. Pass the same arena to every per-batch session
    /// so the training loop stops allocating after the first batch.
    pub fn with_scratch(store: &'s ParamStore, arena: crate::scratch::ScratchArena) -> Self {
        Session {
            graph: Graph::with_scratch(arena),
            store,
            bound: vec![None; store.params.len()],
        }
    }

    /// Leaf for a parameter (cached per session).
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(v) = self.bound[id.0] {
            return v;
        }
        let v = self.graph.input_copy(self.store.value(id));
        self.bound[id.0] = Some(v);
        v
    }

    /// Leaf for non-parameter data (activations, masks, constants).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.graph.input(t)
    }

    /// Runs backward from `loss`.
    pub fn backward(&mut self, loss: Var) {
        self.graph.backward(loss);
    }

    /// Collects the gradients of every bound parameter (after
    /// [`Session::backward`]). Feed the result to
    /// [`ParamStore::accumulate_grads`].
    pub fn grads(&self) -> Vec<(ParamId, Tensor)> {
        self.bound
            .iter()
            .enumerate()
            .filter_map(|(i, v)| {
                let v = (*v)?;
                let g = self.graph.grad(v)?;
                Some((ParamId(i), g.clone()))
            })
            .collect()
    }
}

/// Fully connected layer `y = x·W + b` with Xavier-uniform-equivalent
/// normal init.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a linear layer; parameters are registered in `store` under
    /// `name.w` / `name.b`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let std = (2.0 / (in_dim + out_dim) as f32).sqrt();
        let w = store.add(
            format!("{name}.w"),
            Tensor::randn(&[in_dim, out_dim], std, rng),
        );
        let b = bias.then(|| store.add(format!("{name}.b"), Tensor::zeros(&[out_dim])));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer as one tape node ([`crate::Graph::linear`]).
    /// Accepts `[N, in]` or `[B, T, in]`.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Var {
        let w = sess.param(self.w);
        let b = self.b.map(|b| sess.param(b));
        sess.graph.linear(x, w, b)
    }

    /// Gradient-free application straight from the store (inference fast
    /// path; no tape is built). Accepts `[N, in]` or `[B, T, in]`.
    pub fn apply(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let in_shape = x.shape.clone();
        assert_eq!(*in_shape.last().expect("rank >= 1"), self.in_dim);
        let rows: usize = in_shape[..in_shape.len() - 1].iter().product();
        let mut out_shape = in_shape;
        *out_shape.last_mut().expect("rank >= 1") = self.out_dim;
        let mut y = Tensor::zeros(&out_shape);
        self.apply_rows_into(store, &x.data, rows, &mut y.data);
        y
    }

    /// [`Linear::apply`] on raw row-major slices, writing into a
    /// caller-provided buffer (overwritten entirely). This is the
    /// allocation-free inner loop of incremental decoding: `x` is
    /// `rows × in_dim`, `out` is `rows × out_dim`.
    ///
    /// The weight is read as the panels the store packed once
    /// ([`ParamStore::value_mut`] drops them), so a call moves `rows` rows
    /// of activations and nothing else. The GEMM is serial at every size: a
    /// decode step has too few rows for fork-join to pay, and one serve
    /// shard must not borrow another's threads. Kernel, k-order and per-row
    /// accumulation are those of [`crate::tensor::matmul_into`], so the
    /// output is bit-identical to `matmul_into` + bias.
    pub fn apply_rows_into(&self, store: &ParamStore, x: &[f32], rows: usize, out: &mut [f32]) {
        self.apply_rows_kernel(store, x, rows, out, KernelLevel::active());
    }

    /// [`Linear::apply_rows_into`] with the kernel level named, so tests can
    /// run a lower level than the one this machine dispatches.
    fn apply_rows_kernel(
        &self,
        store: &ParamStore,
        x: &[f32],
        rows: usize,
        out: &mut [f32],
        level: KernelLevel,
    ) {
        assert_eq!(x.len(), rows * self.in_dim, "Linear input size");
        assert_eq!(out.len(), rows * self.out_dim, "Linear output size");
        let panels = store.packed_panels(self.w);
        crate::tensor::matmul_rows(x, panels, out, 0, rows, self.in_dim, self.out_dim, level);
        if let Some(b) = self.b {
            let bias = store.value(b);
            for row in out.chunks_mut(self.out_dim) {
                for (o, bv) in row.iter_mut().zip(&bias.data) {
                    *o += bv;
                }
            }
        }
    }
}

/// Layer normalization with learned affine parameters.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over the last `dim` features.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        LayerNorm {
            gamma: store.add(format!("{name}.gamma"), Tensor::ones(&[dim])),
            beta: store.add(format!("{name}.beta"), Tensor::zeros(&[dim])),
            eps: 1e-5,
        }
    }

    /// Applies normalization.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Var {
        let gamma = sess.param(self.gamma);
        let beta = sess.param(self.beta);
        sess.graph.layernorm(x, gamma, beta, self.eps)
    }

    /// Gradient-free application straight from the store.
    pub fn apply(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&x.shape);
        let (rows, _) = x.rows_cols();
        self.apply_rows_into(store, &x.data, rows, &mut out.data);
        out
    }

    /// [`LayerNorm::apply`] on raw row-major slices into a caller-provided
    /// buffer (overwritten entirely). `x` and `out` are `rows × dim`.
    pub fn apply_rows_into(&self, store: &ParamStore, x: &[f32], rows: usize, out: &mut [f32]) {
        let gamma = &store.value(self.gamma).data;
        let beta = &store.value(self.beta).data;
        let d = gamma.len();
        assert_eq!(x.len(), rows * d, "layernorm input size");
        assert_eq!(out.len(), rows * d, "layernorm output size");
        if rows > 0 && d > 0 {
            rows_at(
                LayerNormRows::<false> {
                    x,
                    out,
                    xhat: &mut [],
                    inv_std: &mut [],
                    gamma,
                    beta,
                    eps: self.eps,
                },
                KernelLevel::active(),
            );
        }
    }
}

/// Rows [`LayerNormRows`] sums side by side.
const LN_ROWS: usize = 8;

/// The layernorm forward of [`LayerNorm::apply_rows_into`] and of the
/// tape's [`Graph::layernorm`](crate::graph::Graph::layernorm). A row's
/// mean and variance are the sequential sums `Σ x` and `Σ (x − mean)²` in
/// ascending feature order from −0.0, the order of `Sum for f32`; alone,
/// each is a chain of dependent adds that waits on the add latency. The
/// loop runs the chains of `LN_ROWS` rows side by side, each in its own
/// order, so every bit is that of the row-at-a-time loop. Fewer than
/// `LN_ROWS` remaining rows run as a group of the next power of two, whose
/// slots past the last row repeat it and store nothing: one row alone is
/// the row-at-a-time loop. A row's output is `((x − mean)·istd)·γ + β`.
///
/// With `TAPE`, the loop also stores each row's `(x − mean)·istd` in
/// `xhat` and its `istd` in `inv_std`, what the tape's backward reads.
/// Without, those two are empty and never touched: `TAPE` is a constant,
/// so the decode step's instantiation is the loop without the stores.
///
/// The chains' loads are volatile, one float each: left to itself the
/// vectorizer fetches the rows' features with one `vgatherqps` at
/// AVX-512, which is slower here than single loads. The output pass is
/// elementwise and vector.
pub(crate) struct LayerNormRows<'a, const TAPE: bool> {
    pub(crate) x: &'a [f32],
    pub(crate) out: &'a mut [f32],
    pub(crate) xhat: &'a mut [f32],
    pub(crate) inv_std: &'a mut [f32],
    pub(crate) gamma: &'a [f32],
    pub(crate) beta: &'a [f32],
    pub(crate) eps: f32,
}

impl<const TAPE: bool> RowLoop for LayerNormRows<'_, TAPE> {
    #[inline(always)]
    fn run(mut self) {
        let rows = self.x.len() / self.gamma.len();
        let mut r0 = 0;
        while r0 < rows {
            r0 += match rows - r0 {
                1 => self.group::<1>(r0),
                2 => self.group::<2>(r0),
                3 | 4 => self.group::<4>(r0),
                _ => self.group::<LN_ROWS>(r0),
            };
        }
    }
}

impl<const TAPE: bool> LayerNormRows<'_, TAPE> {
    /// Normalizes rows `r0..` in one group of `R`; returns how many rows
    /// it stored.
    #[inline(always)]
    fn group<const R: usize>(&mut self, r0: usize) -> usize {
        let d = self.gamma.len();
        let rows = self.x.len() / d;
        let mut xs = [&self.x[..d]; R];
        for (i, row) in xs.iter_mut().enumerate() {
            *row = &self.x[(r0 + i).min(rows - 1) * d..][..d];
        }
        // SAFETY: a reference is valid for a read.
        let at = |i: usize, c: usize| unsafe { std::ptr::read_volatile(&xs[i][c]) };
        let mut sum = [-0.0f32; R];
        for c in 0..d {
            for (i, s) in sum.iter_mut().enumerate() {
                *s += at(i, c);
            }
        }
        let mut mean = [0.0f32; R];
        for (m, s) in mean.iter_mut().zip(sum) {
            *m = s / d as f32;
        }
        let mut sq = [-0.0f32; R];
        for c in 0..d {
            for (i, s) in sq.iter_mut().enumerate() {
                let t = at(i, c) - mean[i];
                *s += t * t;
            }
        }
        let live = R.min(rows - r0);
        for i in 0..live {
            let r = r0 + i;
            let istd = 1.0 / (sq[i] / d as f32 + self.eps).sqrt();
            let out = &mut self.out[r * d..][..d];
            let xhat: &mut [f32] = if TAPE {
                self.inv_std[r] = istd;
                &mut self.xhat[r * d..][..d]
            } else {
                &mut []
            };
            for (c, o) in out.iter_mut().enumerate() {
                let h = (xs[i][c] - mean[i]) * istd;
                if TAPE {
                    xhat[c] = h;
                }
                *o = h * self.gamma[c] + self.beta[c];
            }
        }
        live
    }
}

/// Multi-head self-attention with optional causal masking — the core of
/// the decoder-only transformer (§4.3).
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    n_heads: usize,
    d_model: usize,
    causal: bool,
}

impl MultiHeadSelfAttention {
    /// Creates an attention layer with `n_heads` heads over `d_model`
    /// features.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        n_heads: usize,
        causal: bool,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(d_model % n_heads, 0, "d_model must divide by heads");
        MultiHeadSelfAttention {
            wq: Linear::new(store, &format!("{name}.wq"), d_model, d_model, true, rng),
            wk: Linear::new(store, &format!("{name}.wk"), d_model, d_model, true, rng),
            wv: Linear::new(store, &format!("{name}.wv"), d_model, d_model, true, rng),
            wo: Linear::new(store, &format!("{name}.wo"), d_model, d_model, true, rng),
            n_heads,
            d_model,
            causal,
        }
    }

    /// Applies self-attention to rows `x` of shape `[R, d_model]`: the
    /// positions of streams of `lens` rows, one stream after another, each
    /// attending only within its own stream.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var, lens: &[usize]) -> Var {
        let shape = sess.graph.value(x).shape.clone();
        assert_eq!(shape.len(), 2, "attention input must be [R, D]");
        let hd = self.d_model / self.n_heads;

        let q = self.wq.forward(sess, x);
        let k = self.wk.forward(sess, x);
        let v = self.wv.forward(sess, x);
        let qh = sess.graph.split_heads(q, self.n_heads, lens); // [H·R, hd]
        let kh = sess.graph.split_heads(k, self.n_heads, lens);
        let vh = sess.graph.split_heads(v, self.n_heads, lens);

        // Fused score→scale→mask→softmax→context as one tape node, one
        // sequence per head of each stream.
        let heads: Vec<usize> = lens
            .iter()
            .flat_map(|&l| (0..self.n_heads).map(move |_| l))
            .collect();
        let ctx = sess
            .graph
            .attention(qh, kh, vh, 1.0 / (hd as f32).sqrt(), self.causal, &heads);
        let merged = sess.graph.merge_heads(ctx, self.n_heads, lens); // [R, D]
        self.wo.forward(sess, merged)
    }
}

/// Per-layer key/value cache of one stream for incremental
/// (token-at-a-time) decoding.
///
/// Autoregressive sampling re-processes the whole prefix on every step if
/// done naively — O(T²) attention per *step*, O(T³) per stream. Caching
/// each layer's keys and values makes a decode step O(T), which is how
/// production transformer inference works.
///
/// The layout is the attention kernel's (see `attend_one_session`): keys
/// are stored so that one feature of one head is contiguous across a
/// block of `ATTN_LANES` positions, values so that one position is one
/// contiguous row. The values end in `ATTN_LANES` floats of padding, so
/// the kernel can read a full group of lanes from any feature it starts
/// at.
#[derive(Debug, Clone)]
pub struct AttnKvCache {
    /// Keys, `[H, ⌈max_len / L⌉, hd, L]` for `L = ATTN_LANES`: feature
    /// `c` of head `h` at position `j` is at `((h·⌈max_len / L⌉ + j / L)·hd
    /// + c)·L + j % L`, so the `L` positions of a block are one contiguous
    /// run per feature, and a block's features follow each other.
    /// Positions `0..len` are valid.
    k: Vec<f32>,
    /// Values, `[max_len, H·hd]` plus padding: position `j`'s row (head-
    /// major, as the V projection writes it) starts at `j·H·hd`.
    v: Vec<f32>,
    /// Number of cached positions.
    len: usize,
    h: usize,
    max_len: usize,
    hd: usize,
}

impl AttnKvCache {
    /// Preallocates one stream's cache for `h` heads of width `hd`. Every
    /// stream owns its cache (see
    /// [`MultiHeadSelfAttention::decode_step_multi`]), so `b` must be 1.
    pub fn new(b: usize, h: usize, max_len: usize, hd: usize) -> Self {
        assert_eq!(b, 1, "a KV cache holds one stream; allocate one per stream");
        AttnKvCache {
            k: vec![0.0; h * max_len.div_ceil(ATTN_LANES) * hd * ATTN_LANES],
            v: vec![0.0; max_len * h * hd + ATTN_LANES],
            len: 0,
            h,
            max_len,
            hd,
        }
    }

    /// Cached positions so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rewinds the cache to empty so its buffers can be reused for a new
    /// stream. Each decode step writes position `len` before reading it,
    /// and the kernel's reads past the valid positions feed only lanes it
    /// discards, so clearing the length alone makes the cache byte-
    /// equivalent to a freshly allocated one.
    pub fn reset(&mut self) {
        self.len = 0;
    }
}

/// Reusable buffers for one attention decode step. Sized by
/// [`AttnScratch::new`], except `scores`, which the first step grows to
/// `max_len × H` floats; every step overwrites them in place, so steady-
/// state decoding performs zero heap allocation.
#[derive(Debug, Clone)]
pub struct AttnScratch {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    ctx: Vec<f32>,
    scores: Vec<f32>,
}

impl AttnScratch {
    /// Buffers for batch size `b` and model width `d_model`. The scores
    /// need the prefix capacity `max_len` and the head count, which the
    /// caches know, so the first step sizes them.
    pub fn new(b: usize, d_model: usize, _max_len: usize) -> Self {
        AttnScratch {
            q: vec![0.0; b * d_model],
            k: vec![0.0; b * d_model],
            v: vec![0.0; b * d_model],
            ctx: vec![0.0; b * d_model],
            scores: Vec::new(),
        }
    }
}

/// Reusable buffers for one [`TransformerBlock`] decode step (attention
/// scratch plus the layernorm/MLP/residual temporaries).
#[derive(Debug, Clone)]
pub struct DecodeScratch {
    attn: AttnScratch,
    norm: Vec<f32>,
    mlp: Vec<f32>,
    resid: Vec<f32>,
}

impl DecodeScratch {
    /// Buffers for batch size `b`; `d_mlp` is the block MLP hidden width.
    pub fn new(b: usize, d_model: usize, d_mlp: usize, max_len: usize) -> Self {
        DecodeScratch {
            attn: AttnScratch::new(b, d_model, max_len),
            norm: vec![0.0; b * d_model],
            mlp: vec![0.0; b * d_mlp],
            resid: vec![0.0; b * d_model],
        }
    }
}

/// A weight format the decode step can run its GEMMs in: [`Linear`] reads
/// the f32 panels its store packed once, [`QuantLinear`] its own int8
/// per-channel snapshot. Everything else in a step (LayerNorm, KV scatter,
/// softmax, GELU, residuals) is f32 code written once, generic over this.
pub trait WeightFormat: Sized {
    /// The transformer block holding its GEMM weights in this format.
    type Block;

    /// Output width.
    fn out_dim(&self) -> usize;

    /// `out = x·W + b` on raw row-major slices: `x` is `rows × in_dim`,
    /// `out` is `rows × out_dim` (overwritten entirely).
    fn apply_rows_into(&self, store: &ParamStore, x: &[f32], rows: usize, out: &mut [f32]);

    /// `block`'s [`TransformerBlock::decode_step_multi`].
    fn block_decode_step(
        block: &Self::Block,
        store: &ParamStore,
        h: &mut [f32],
        caches: &mut [&mut AttnKvCache],
        scratch: &mut DecodeScratch,
    );
}

impl WeightFormat for Linear {
    type Block = TransformerBlock;

    fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn apply_rows_into(&self, store: &ParamStore, x: &[f32], rows: usize, out: &mut [f32]) {
        Linear::apply_rows_into(self, store, x, rows, out);
    }

    fn block_decode_step(
        block: &TransformerBlock,
        store: &ParamStore,
        h: &mut [f32],
        caches: &mut [&mut AttnKvCache],
        scratch: &mut DecodeScratch,
    ) {
        block.decode_step_multi(store, h, caches, scratch);
    }
}

/// The attention decode step, once, for any weight format: one new position
/// for each of `caches.len()` independent streams. `x`/`out` are
/// `n × d_model` (stream-major); `scratch` may be sized for a larger batch.
fn attn_decode_step<W: WeightFormat>(
    store: &ParamStore,
    [wq, wk, wv, wo]: [&W; 4],
    n_heads: usize,
    x: &[f32],
    caches: &mut [&mut AttnKvCache],
    scratch: &mut AttnScratch,
    out: &mut [f32],
) {
    let d = wq.out_dim();
    let hd = d / n_heads;
    let n = caches.len();
    let nd = n * d;
    assert_eq!(x.len(), nd, "multi decode input size");
    assert_eq!(out.len(), nd, "multi decode output size");

    wq.apply_rows_into(store, x, n, &mut scratch.q[..nd]);
    wk.apply_rows_into(store, x, n, &mut scratch.k[..nd]);
    wv.apply_rows_into(store, x, n, &mut scratch.v[..nd]);

    let kv_rows = scratch.k.chunks_exact(d).zip(scratch.v.chunks_exact(d));
    for (cache, (k_row, v_row)) in caches.iter_mut().zip(kv_rows) {
        scatter_kv_one_session(cache, k_row, v_row, n_heads, hd);
    }
    let need = caches.iter().map(|c| c.h * c.max_len).max().unwrap_or(0);
    if scratch.scores.len() < need {
        scratch.scores.resize(need, 0.0);
    }
    let attend = AttendSessions {
        q: &scratch.q[..nd],
        caches,
        scores: &mut scratch.scores,
        ctx: &mut scratch.ctx[..nd],
    };
    rows_at(attend, KernelLevel::active());
    wo.apply_rows_into(store, &scratch.ctx[..nd], n, out);
}

impl MultiHeadSelfAttention {
    /// One gradient-free decode step: one new position for each of `n`
    /// independent streams, each with its *own* cache (possibly at a
    /// different length). Equivalent to running
    /// [`MultiHeadSelfAttention::forward`] on each stream's full prefix and
    /// taking the last position (verified by tests). The Q/K/V/O
    /// projections run as single `[n × d_model]` GEMMs — this is where
    /// batching pays: each weight panel is streamed from memory once per
    /// row tile instead of once per stream (packing is not part of the
    /// step at all, see [`Linear::apply_rows_into`]) — while the KV scatter
    /// and the softmax/context run per stream against that stream's cache.
    ///
    /// Row `i` of `out` does not depend on `n` or on the other rows, bit
    /// for bit: the packed kernel accumulates each output row independently
    /// of row grouping (see `matmul_rows`) and every other op is per
    /// stream. `n = 1` is the sequential case.
    ///
    /// `x`/`out` are `n × d_model` (stream-major); `scratch` may be sized
    /// for a larger batch (only the first `n` rows are used).
    pub fn decode_step_multi(
        &self,
        store: &ParamStore,
        x: &[f32],
        caches: &mut [&mut AttnKvCache],
        scratch: &mut AttnScratch,
        out: &mut [f32],
    ) {
        let proj = [&self.wq, &self.wk, &self.wv, &self.wo];
        attn_decode_step(store, proj, self.n_heads, x, caches, scratch, out);
    }
}

/// Appends one stream's new K/V rows (`d_model` each, head-major) to its
/// cache.
fn scatter_kv_one_session(
    cache: &mut AttnKvCache,
    k_row: &[f32],
    v_row: &[f32],
    h: usize,
    hd: usize,
) {
    assert_eq!(cache.h, h, "cache head count mismatch");
    assert_eq!(cache.hd, hd, "cache head width mismatch");
    assert!(cache.len < cache.max_len, "KV cache full");
    let (t, d, blocks) = (cache.len, h * hd, cache.max_len.div_ceil(ATTN_LANES));
    for (hi, head) in k_row[..d].chunks_exact(hd).enumerate() {
        let block = (hi * blocks + t / ATTN_LANES) * hd * ATTN_LANES;
        for (c, &kv) in head.iter().enumerate() {
            cache.k[block + c * ATTN_LANES + t % ATTN_LANES] = kv;
        }
    }
    cache.v[t * d..(t + 1) * d].copy_from_slice(&v_row[..d]);
    cache.len += 1;
}

/// Lanes of the attention kernel: one register at AVX-512, two at AVX2.
const ATTN_LANES: usize = 16;

/// Lane groups the attention kernel keeps in flight at once.
const ATTN_GROUP: usize = 4;

type Lanes = [f32; ATTN_LANES];

/// Reads `ATTN_LANES` floats at `p`.
///
/// # Safety
/// `p..p + ATTN_LANES` must lie inside one initialized `f32` allocation.
#[inline(always)]
unsafe fn load_lanes(p: *const f32) -> Lanes {
    p.cast::<Lanes>().read_unaligned()
}

/// The `(head, chunk)` units of a `heads × chunks` grid in order,
/// [`ATTN_GROUP`] at a time, with the number of real units in the group;
/// the slots past them repeat the last one.
fn unit_groups(
    heads: usize,
    chunks: usize,
) -> impl Iterator<Item = ([(usize, usize); ATTN_GROUP], usize)> {
    let mut next = (0, 0);
    std::iter::from_fn(move || {
        if next.0 >= heads {
            return None;
        }
        let mut group = [next; ATTN_GROUP];
        let mut live = 0;
        while live < ATTN_GROUP && next.0 < heads {
            group[live] = next;
            live += 1;
            next = if next.1 + 1 < chunks {
                (next.0, next.1 + 1)
            } else {
                (next.0 + 1, 0)
            };
        }
        for g in live..ATTN_GROUP {
            group[g] = group[live - 1];
        }
        Some((group, live))
    })
}

/// The attention of every session of a decode step: row `i` of `ctx` is
/// session `i`'s query row `i` of `q` attended over `caches[i]`, which
/// already holds the new position. `scores` holds at least `max_len × H`
/// floats.
struct AttendSessions<'a> {
    q: &'a [f32],
    caches: &'a [&'a mut AttnKvCache],
    scores: &'a mut [f32],
    ctx: &'a mut [f32],
}

impl RowLoop for AttendSessions<'_> {
    #[inline(always)]
    fn run(self) {
        if self.caches.is_empty() {
            return;
        }
        let d = self.q.len() / self.caches.len();
        let rows = self.q.chunks_exact(d).zip(self.ctx.chunks_exact_mut(d));
        for (cache, (q, ctx)) in self.caches.iter().zip(rows) {
            attend_one_session(q, cache, self.scores, ctx);
        }
    }
}

/// Softmax attention of one stream's new query row over its own cached
/// prefix, written to `ctx`, with the bits of the per-head loop it
/// replaced (kept as the test oracle `attend_one_session_per_head`):
///
/// - score `(j, h)` is `(Σ_c q[h, c]·k[h, c, j]) · hd^−½`, the sum in
///   ascending `c` from −0.0 (the order of `Sum for f32`);
/// - each head's scores go through `exp(s − max)` with glibc's `expf`
///   bits ([`ExpRows`]), their sum in ascending `j` from 0.0, and
///   `s · (1 / sum)`;
/// - `ctx[h, c]` is `Σ_j a[h, j]·v[j, h, c]` in ascending `j` from 0.0.
///
/// Every lane of every SIMD operation below is one of those scalar chains,
/// advanced in its own order with separate multiplies and adds, so neither
/// the lane count, the kernel level, nor the lanes beside it change a bit.
/// The scores are lanes across the positions of one head, `ATTN_LANES` at a
/// time, reading one key feature row per step; the context is lanes across
/// the features of one head, `ATTN_LANES` at a time, reading one value row
/// per position. Each phase keeps `ATTN_GROUP` lane groups in flight so
/// their dependent adds overlap (see [`unit_groups`]). Lanes past the valid positions or past a head's
/// features read the cache's padding or a neighbour's data and are never
/// stored. Scores are stored head-major and packed, `[H, len]`, so the
/// `exp` runs as one contiguous loop, compiled at the level this function
/// is.
#[inline(always)]
fn attend_one_session(q_row: &[f32], cache: &AttnKvCache, scores_buf: &mut [f32], ctx: &mut [f32]) {
    let (n, h, hd, max_len) = (cache.len, cache.h, cache.hd, cache.max_len);
    let d = h * hd;
    const L: usize = ATTN_LANES;
    const G: usize = ATTN_GROUP;
    assert!(
        n >= 1 && n <= max_len,
        "attention over an empty or overfull cache"
    );
    assert!(q_row.len() == d && ctx.len() == d, "attention row size");
    let blocks = max_len.div_ceil(L);
    assert!(
        cache.k.len() >= h * blocks * hd * L && cache.v.len() >= d * max_len + L,
        "KV cache size"
    );
    let scale = 1.0 / (hd as f32).sqrt();

    // Scores: a unit is a head and a block of `L` of its positions.
    let chunks = n.div_ceil(L);
    for (group, live) in unit_groups(h, chunks) {
        let mut queries = [q_row.as_ptr(); G];
        let mut keys = [cache.k.as_ptr(); G];
        for g in 0..G {
            let (hi, chunk) = group[g];
            queries[g] = queries[g].wrapping_add(hi * hd);
            keys[g] = keys[g].wrapping_add((hi * blocks + chunk) * hd * L);
        }
        let mut acc = [[-0.0f32; L]; G];
        for c in 0..hd {
            for g in 0..G {
                // SAFETY: `head·hd + c < d` is in `q_row`. The lanes read
                // `k` from `((head·blocks + chunk)·hd + c)·L` for `L`
                // floats; with `c < hd`, `chunk < ⌈n / L⌉ ≤ blocks` and
                // `head < h` they end by `h·blocks·hd·L`, which `k` holds
                // (asserted above).
                let (qv, x) = unsafe { (*queries[g].add(c), load_lanes(keys[g].add(c * L))) };
                for l in 0..L {
                    acc[g][l] += qv * x[l];
                }
            }
        }
        for g in 0..G {
            if g < live {
                // All `L` lanes where they fit: lanes past the head's `n`
                // land in later heads' rows, which their own units store
                // over afterwards, or past `h·n`.
                let (hi, chunk) = group[g];
                let at = hi * n + chunk * L;
                let width = if at + L <= scores_buf.len() {
                    L
                } else {
                    n - chunk * L
                };
                for (s, a) in scores_buf[at..][..width].iter_mut().zip(&acc[g]) {
                    *s = a * scale;
                }
            }
        }
    }

    // Each head's maximum (its order does not matter: `f32::max` skips NaN,
    // and the sign it picks for a zero maximum leaves every `s − max`
    // unchanged), subtracted in place. Lanes past the row are −∞.
    for row in (0..h).map(|hi| hi * n) {
        let mut m = [f32::NEG_INFINITY; L];
        for j in (0..n).step_by(L) {
            let window = &scores_buf[row + j..scores_buf.len().min(row + j + L)];
            for (l, (m, &s)) in m.iter_mut().zip(window).enumerate() {
                *m = m.max(if j + l < n { s } else { f32::NEG_INFINITY });
            }
        }
        let mut width = L;
        while width > 1 {
            width /= 2;
            for l in 0..width {
                m[l] = m[l].max(m[l + width]);
            }
        }
        for s in &mut scores_buf[row..row + n] {
            *s -= m[0];
        }
    }
    let scores = &mut scores_buf[..h * n];
    ExpRows(&mut *scores).run();
    // Each head's sum, `G` heads' chains side by side, then `s · (1/sum)`.
    for h0 in (0..h).step_by(G) {
        let mut rows = [&scores[..n]; G];
        for (g, row) in rows.iter_mut().enumerate() {
            *row = &scores[(h0 + g).min(h - 1) * n..][..n];
        }
        let mut denom = [0.0f32; G];
        for j in 0..n {
            for (sum, row) in denom.iter_mut().zip(rows) {
                *sum += row[j];
            }
        }
        for (g, &sum) in denom.iter().enumerate().take(h - h0) {
            let inv = 1.0 / sum;
            for s in &mut scores[(h0 + g) * n..][..n] {
                *s *= inv;
            }
        }
    }

    // Context: a unit is a head and a chunk of its features, `c0..c0 + L`,
    // of which the first `min(L, hd − c0)` are the head's.
    for (group, live) in unit_groups(h, hd.div_ceil(L)) {
        let mut off = [0; G];
        let mut weights = [scores.as_ptr(); G];
        let mut values = [cache.v.as_ptr(); G];
        for g in 0..G {
            let (hi, chunk) = group[g];
            off[g] = hi * hd + chunk * L;
            weights[g] = weights[g].wrapping_add(hi * n);
            values[g] = values[g].wrapping_add(off[g]);
        }
        let mut acc = [[0.0f32; L]; G];
        for j in 0..n {
            for g in 0..G {
                // SAFETY: `head·n + j < h·n` is in `scores`. The lanes read
                // `v` from `j·d + off` for `L` floats; with `j < n ≤
                // max_len` and `off < d` the last one is below
                // `d·max_len + L`, which `v` holds (asserted above).
                let (a, x) = unsafe { (*weights[g].add(j), load_lanes(values[g].add(j * d))) };
                for l in 0..L {
                    acc[g][l] += a * x[l];
                }
            }
        }
        for g in 0..G {
            if g < live {
                let head_end = (off[g] / hd + 1) * hd;
                for (o, a) in ctx[off[g]..head_end.min(off[g] + L)]
                    .iter_mut()
                    .zip(&acc[g])
                {
                    *o = *a;
                }
            }
        }
    }
}

/// The block decode step, once, for any weight format: `h += Attn(LN1(h))`
/// then `h += MLP(LN2(h))` on `caches.len()` residual rows, in place. The
/// LayerNorms are f32 in every format (their parameters are tiny and
/// normalization is precision-sensitive).
fn block_decode_step<W: WeightFormat>(
    store: &ParamStore,
    [ln1, ln2]: [&LayerNorm; 2],
    [wq, wk, wv, wo, fc1, fc2]: [&W; 6],
    n_heads: usize,
    h: &mut [f32],
    caches: &mut [&mut AttnKvCache],
    scratch: &mut DecodeScratch,
) {
    let n = caches.len();
    let nd = n * wq.out_dim();
    let nm = n * fc1.out_dim();
    assert_eq!(h.len(), nd, "multi decode residual size");
    ln1.apply_rows_into(store, h, n, &mut scratch.norm[..nd]);
    attn_decode_step(
        store,
        [wq, wk, wv, wo],
        n_heads,
        &scratch.norm[..nd],
        caches,
        &mut scratch.attn,
        &mut scratch.resid[..nd],
    );
    for (hv, av) in h.iter_mut().zip(&scratch.resid[..nd]) {
        *hv += av;
    }
    ln2.apply_rows_into(store, h, n, &mut scratch.norm[..nd]);
    fc1.apply_rows_into(store, &scratch.norm[..nd], n, &mut scratch.mlp[..nm]);
    gelu_rows(&mut scratch.mlp[..nm]);
    fc2.apply_rows_into(store, &scratch.mlp[..nm], n, &mut scratch.resid[..nd]);
    for (hv, mv) in h.iter_mut().zip(&scratch.resid[..nd]) {
        *hv += mv;
    }
}

/// Pre-LayerNorm transformer block: `x + Attn(LN(x))`, then
/// `x + MLP(LN(x))` with a GELU MLP.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadSelfAttention,
    ln2: LayerNorm,
    fc1: Linear,
    fc2: Linear,
}

impl TransformerBlock {
    /// Creates a block with MLP hidden size `d_mlp` (the paper uses
    /// d_model 128 / d_mlp 1024).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        n_heads: usize,
        d_mlp: usize,
        rng: &mut impl Rng,
    ) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), d_model),
            attn: MultiHeadSelfAttention::new(
                store,
                &format!("{name}.attn"),
                d_model,
                n_heads,
                true,
                rng,
            ),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), d_model),
            fc1: Linear::new(store, &format!("{name}.fc1"), d_model, d_mlp, true, rng),
            fc2: Linear::new(store, &format!("{name}.fc2"), d_mlp, d_model, true, rng),
        }
    }

    /// Applies the block to rows `[R, D]`, the positions of streams of
    /// `lens` rows one after another (see
    /// [`MultiHeadSelfAttention::forward`]).
    pub fn forward(&self, sess: &mut Session<'_>, x: Var, lens: &[usize]) -> Var {
        let n1 = self.ln1.forward(sess, x);
        let a = self.attn.forward(sess, n1, lens);
        let x = sess.graph.add(x, a);
        let n2 = self.ln2.forward(sess, x);
        let h = self.fc1.forward(sess, n2);
        let h = sess.graph.gelu(h);
        let h = self.fc2.forward(sess, h);
        sess.graph.add(x, h)
    }

    /// One gradient-free decode step through the block: updates the
    /// residual rows `h` (`n × d_model`, one new position per stream) in
    /// place, each stream against its own cache. Row `i` does not depend on
    /// `n` or on the other rows, bit for bit (LayerNorm/GELU/residual are
    /// row-wise; see [`MultiHeadSelfAttention::decode_step_multi`] for the
    /// rest). `scratch` may be sized for a larger batch.
    pub fn decode_step_multi(
        &self,
        store: &ParamStore,
        h: &mut [f32],
        caches: &mut [&mut AttnKvCache],
        scratch: &mut DecodeScratch,
    ) {
        let a = &self.attn;
        let linears = [&a.wq, &a.wk, &a.wv, &a.wo, &self.fc1, &self.fc2];
        block_decode_step(
            store,
            [&self.ln1, &self.ln2],
            linears,
            a.n_heads,
            h,
            caches,
            scratch,
        );
    }

    /// Snapshots the block's weights as int8 per-channel quantized copies
    /// (LayerNorms stay in f32).
    pub fn quantize(&self, store: &ParamStore) -> QuantBlock {
        QuantBlock {
            ln1: self.ln1.clone(),
            ln2: self.ln2.clone(),
            attn: self.attn.quantize(store),
            fc1: self.fc1.quantize(store),
            fc2: self.fc2.quantize(store),
        }
    }
}

// ---------------------------------------------------------------------------
// int8 per-channel quantized decode layers: the second `WeightFormat`.
//
// Each Quant* type is an immutable snapshot of its f32 layer: weights are
// quantized once into the same NR-panel layout the f32 kernel packs
// (`QuantizedMatrix`), biases and LayerNorm parameters stay f32. Only the
// GEMM kernel differs from the f32 step. No bit-identity claim is made for
// this format (accuracy contract: per-weight rounding error ≤ scale/2,
// tested in cpt-gpt against the f32 oracle).
// ---------------------------------------------------------------------------

/// [`Linear`] with int8 per-output-channel weights and an f32 bias, applied
/// through [`crate::tensor::matmul_quant_into`].
#[derive(Debug, Clone)]
pub struct QuantLinear {
    w: crate::tensor::QuantizedMatrix,
    bias: Option<Vec<f32>>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Snapshots this layer's weights as an int8 per-channel quantized
    /// copy (bias kept in f32).
    pub fn quantize(&self, store: &ParamStore) -> QuantLinear {
        let w = store.value(self.w);
        QuantLinear {
            w: crate::tensor::QuantizedMatrix::quantize(&w.data, self.in_dim, self.out_dim),
            bias: self.b.map(|b| store.value(b).data.clone()),
            in_dim: self.in_dim,
            out_dim: self.out_dim,
        }
    }
}

impl WeightFormat for QuantLinear {
    type Block = QuantBlock;

    fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Weights and bias live in the snapshot; `_store` is not read.
    fn apply_rows_into(&self, _store: &ParamStore, x: &[f32], rows: usize, out: &mut [f32]) {
        assert_eq!(x.len(), rows * self.in_dim, "QuantLinear input size");
        assert_eq!(out.len(), rows * self.out_dim, "QuantLinear output size");
        crate::tensor::matmul_quant_into(x, &self.w, out, rows);
        if let Some(bias) = &self.bias {
            for row in out.chunks_mut(self.out_dim) {
                for (o, bv) in row.iter_mut().zip(bias) {
                    *o += bv;
                }
            }
        }
    }

    fn block_decode_step(
        block: &QuantBlock,
        store: &ParamStore,
        h: &mut [f32],
        caches: &mut [&mut AttnKvCache],
        scratch: &mut DecodeScratch,
    ) {
        let a = &block.attn;
        let linears = [&a.wq, &a.wk, &a.wv, &a.wo, &block.fc1, &block.fc2];
        block_decode_step(
            store,
            [&block.ln1, &block.ln2],
            linears,
            a.n_heads,
            h,
            caches,
            scratch,
        );
    }
}

/// Quantized snapshot of [`MultiHeadSelfAttention`]'s four projections.
#[derive(Debug, Clone)]
pub struct QuantAttention {
    wq: QuantLinear,
    wk: QuantLinear,
    wv: QuantLinear,
    wo: QuantLinear,
    n_heads: usize,
}

impl MultiHeadSelfAttention {
    /// Snapshots the four projections as int8 quantized copies.
    pub fn quantize(&self, store: &ParamStore) -> QuantAttention {
        QuantAttention {
            wq: self.wq.quantize(store),
            wk: self.wk.quantize(store),
            wv: self.wv.quantize(store),
            wo: self.wo.quantize(store),
            n_heads: self.n_heads,
        }
    }
}

/// Quantized snapshot of [`TransformerBlock`]; stepped through
/// [`WeightFormat::block_decode_step`]. LayerNorm parameters are read from
/// the store (they are not quantized).
#[derive(Debug, Clone)]
pub struct QuantBlock {
    ln1: LayerNorm,
    ln2: LayerNorm,
    attn: QuantAttention,
    fc1: QuantLinear,
    fc2: QuantLinear,
}

/// Single-layer LSTM, the sequence model inside the NetShare baseline.
///
/// Gate order in the fused projections is `i, f, g, o`.
#[derive(Debug, Clone)]
pub struct Lstm {
    wx: Linear,
    wh: Linear,
    hidden: usize,
}

impl Lstm {
    /// Creates an LSTM with `in_dim` inputs and `hidden` units.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Lstm {
            wx: Linear::new(store, &format!("{name}.wx"), in_dim, 4 * hidden, true, rng),
            wh: Linear::new(store, &format!("{name}.wh"), hidden, 4 * hidden, false, rng),
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Zero initial state `(h0, c0)` for batch size `b`.
    pub fn zero_state(&self, sess: &mut Session<'_>, b: usize) -> (Var, Var) {
        (
            sess.input(Tensor::zeros(&[b, self.hidden])),
            sess.input(Tensor::zeros(&[b, self.hidden])),
        )
    }

    /// One LSTM step: input `[B, in]`, state `[B, H]` each. Returns the new
    /// `(h, c)`.
    pub fn step(&self, sess: &mut Session<'_>, x: Var, h: Var, c: Var) -> (Var, Var) {
        let zx = self.wx.forward(sess, x);
        let zh = self.wh.forward(sess, h);
        let z = sess.graph.add(zx, zh); // [B, 4H]
        let hdim = self.hidden;
        let i = sess.graph.slice_cols(z, 0, hdim);
        let f = sess.graph.slice_cols(z, hdim, hdim);
        let gg = sess.graph.slice_cols(z, 2 * hdim, hdim);
        let o = sess.graph.slice_cols(z, 3 * hdim, hdim);
        let i = sess.graph.sigmoid(i);
        let f = sess.graph.sigmoid(f);
        let gg = sess.graph.tanh(gg);
        let o = sess.graph.sigmoid(o);
        let fc = sess.graph.mul(f, c);
        let ig = sess.graph.mul(i, gg);
        let c_new = sess.graph.add(fc, ig);
        let c_act = sess.graph.tanh(c_new);
        let h_new = sess.graph.mul(o, c_act);
        (h_new, c_new)
    }

    /// Runs the LSTM over a sequence of `[B, in]` inputs, returning the
    /// hidden state after each step. Only the tests unroll a sequence;
    /// the models step the cell themselves.
    #[cfg(test)]
    pub fn forward_seq(&self, sess: &mut Session<'_>, xs: &[Var], b: usize) -> Vec<Var> {
        let (mut h, mut c) = self.zero_state(sess, b);
        let mut out = Vec::with_capacity(xs.len());
        for x in xs {
            let (nh, nc) = self.step(sess, *x, h, c);
            h = nh;
            c = nc;
            out.push(h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tensor::expf_glibc;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn param_store_registration() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::zeros(&[2, 3]));
        let b = store.add("b", Tensor::zeros(&[4]));
        assert_eq!(store.num_tensors(), 2);
        assert_eq!(store.num_params(), 10);
        assert_eq!(store.name(a), "a");
        assert_eq!(store.value(b).shape, vec![4]);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let mut store = ParamStore::new();
        store.add("a", Tensor::zeros(&[1]));
        store.add("a", Tensor::zeros(&[1]));
    }

    #[test]
    fn session_binds_param_once() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::ones(&[2]));
        let mut sess = Session::new(&store);
        let v1 = sess.param(w);
        let v2 = sess.param(w);
        assert_eq!(v1, v2);
        // Gradient accumulates over both uses: y = w + w.
        let y = sess.graph.add(v1, v2);
        let loss = sess.graph.mean_all(y);
        sess.backward(loss);
        let grads = sess.grads();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].1.data, vec![1.0, 1.0]); // d/dw mean(2w) = 2/2 each
    }

    #[test]
    fn linear_shapes_2d_and_3d() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 4, 3, true, &mut rng(1));
        let mut sess = Session::new(&store);
        let x2 = sess.input(Tensor::ones(&[5, 4]));
        let y2 = lin.forward(&mut sess, x2);
        assert_eq!(sess.graph.value(y2).shape, vec![5, 3]);
        let x3 = sess.input(Tensor::ones(&[2, 7, 4]));
        let y3 = lin.forward(&mut sess, x3);
        assert_eq!(sess.graph.value(y3).shape, vec![2, 7, 3]);
    }

    #[test]
    fn attention_output_shape_and_causality() {
        let mut store = ParamStore::new();
        let attn = MultiHeadSelfAttention::new(&mut store, "a", 8, 2, true, &mut rng(2));
        // Causality: the output at position 0 must not change when we
        // change the input at position 2.
        let mut x = Tensor::randn(&[3, 8], 1.0, &mut rng(3));
        let out1 = {
            let mut sess = Session::new(&store);
            let xv = sess.input(x.clone());
            let y = attn.forward(&mut sess, xv, &[3]);
            sess.graph.value(y).clone()
        };
        assert_eq!(out1.shape, vec![3, 8]);
        for d in 16..24 {
            x.data[d] += 5.0; // perturb t=2
        }
        let out2 = {
            let mut sess = Session::new(&store);
            let xv = sess.input(x);
            let y = attn.forward(&mut sess, xv, &[3]);
            sess.graph.value(y).clone()
        };
        for d in 0..8 {
            assert!(
                (out1.data[d] - out2.data[d]).abs() < 1e-6,
                "position 0 saw the future (d={d})"
            );
        }
        // Position 2 must change.
        let changed = (16..24).any(|d| (out1.data[d] - out2.data[d]).abs() > 1e-4);
        assert!(changed);
    }

    #[test]
    fn transformer_block_preserves_shape() {
        let mut store = ParamStore::new();
        let block = TransformerBlock::new(&mut store, "b", 8, 2, 16, &mut rng(4));
        let mut sess = Session::new(&store);
        let x = sess.input(Tensor::randn(&[10, 8], 1.0, &mut rng(5)));
        let y = block.forward(&mut sess, x, &[5, 5]);
        assert_eq!(sess.graph.value(y).shape, vec![10, 8]);
    }

    #[test]
    fn lstm_step_shapes_and_state_evolution() {
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 3, 6, &mut rng(6));
        let mut sess = Session::new(&store);
        let xs: Vec<Var> = (0..4)
            .map(|i| sess.input(Tensor::full(&[2, 3], i as f32 * 0.1)))
            .collect();
        let hs = lstm.forward_seq(&mut sess, &xs, 2);
        assert_eq!(hs.len(), 4);
        for h in &hs {
            assert_eq!(sess.graph.value(*h).shape, vec![2, 6]);
        }
        // States must evolve (not be stuck at zero).
        assert!(sess.graph.value(hs[3]).sq_norm() > 0.0);
    }

    #[test]
    fn linear_can_learn_least_squares() {
        // End-to-end sanity: fit y = 2x + 1 with a 1→1 linear layer.
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 1, 1, true, &mut rng(7));
        let mut adam = Adam::new(&store, 0.05);
        let xs: Vec<f32> = (0..16).map(|i| i as f32 / 8.0 - 1.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let mut sess = Session::new(&store);
            let x = sess.input(Tensor::new(xs.clone(), vec![16, 1]));
            let pred = lin.forward(&mut sess, x);
            let flat = sess.graph.reshape(pred, &[16]);
            let loss = sess.graph.mse(flat, &ys);
            sess.backward(loss);
            last = sess.graph.value(loss).item();
            let grads = sess.grads();
            store.accumulate_grads(&grads);
            adam.step(&mut store);
            store.zero_grads();
        }
        assert!(last < 1e-3, "did not converge: loss {last}");
    }

    #[test]
    fn linear_and_layernorm_apply_match_graph_forward() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 5, 3, true, &mut rng(20));
        let ln = LayerNorm::new(&mut store, "n", 3);
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng(21));
        let (graph_lin, graph_ln) = {
            let mut sess = Session::new(&store);
            let xv = sess.input(x.clone());
            let y = lin.forward(&mut sess, xv);
            let z = ln.forward(&mut sess, y);
            (sess.graph.value(y).clone(), sess.graph.value(z).clone())
        };
        let fast_lin = lin.apply(&store, &x);
        let fast_ln = ln.apply(&store, &fast_lin);
        for (a, b) in graph_lin.data.iter().zip(&fast_lin.data) {
            assert!((a - b).abs() < 1e-5);
        }
        for (a, b) in graph_ln.data.iter().zip(&fast_ln.data) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn kv_cached_decode_matches_full_forward() {
        // The cached incremental path must produce the same per-position
        // outputs as the full causal forward pass.
        let mut store = ParamStore::new();
        let block = TransformerBlock::new(&mut store, "b", 8, 2, 16, &mut rng(22));
        let t_max = 6;
        let x = Tensor::randn(&[2 * t_max, 8], 0.8, &mut rng(23));

        let full = {
            let mut sess = Session::new(&store);
            let xv = sess.input(x.clone());
            let y = block.forward(&mut sess, xv, &[t_max, t_max]);
            sess.graph.value(y).clone()
        };

        let mut caches: Vec<AttnKvCache> =
            (0..2).map(|_| AttnKvCache::new(1, 2, t_max, 4)).collect();
        let mut scratch = DecodeScratch::new(2, 8, 16, t_max);
        assert!(caches[0].is_empty());
        for t in 0..t_max {
            // Position t of both streams: [2, 8].
            let mut out = Vec::with_capacity(2 * 8);
            for bi in 0..2 {
                out.extend_from_slice(&x.data[(bi * t_max + t) * 8..(bi * t_max + t + 1) * 8]);
            }
            let mut refs: Vec<&mut AttnKvCache> = caches.iter_mut().collect();
            block.decode_step_multi(&store, &mut out, &mut refs, &mut scratch);
            assert_eq!(caches[1].len(), t + 1);
            for bi in 0..2 {
                for d in 0..8 {
                    let full_v = full.data[(bi * t_max + t) * 8 + d];
                    let step_v = out[bi * 8 + d];
                    assert!(
                        (full_v - step_v).abs() < 1e-4,
                        "mismatch at t={t} b={bi} d={d}: {full_v} vs {step_v}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one stream")]
    fn shared_kv_cache_layout_is_rejected() {
        AttnKvCache::new(2, 2, 6, 4);
    }

    #[test]
    fn multi_session_decode_bit_identical_to_sequential() {
        // Sessions at different prefix lengths decoded in one step of n
        // rows must produce, per row, the exact bits of n steps of one row
        // — both in the residual outputs and in the KV rows they scatter.
        let (d, heads, d_mlp, hd, max_len, n) = (8usize, 2usize, 16usize, 4usize, 10usize, 5usize);
        let mut store = ParamStore::new();
        let block = TransformerBlock::new(&mut store, "b", d, heads, d_mlp, &mut rng(40));
        let mut seq_caches: Vec<AttnKvCache> = (0..n)
            .map(|_| AttnKvCache::new(1, heads, max_len, hd))
            .collect();
        let mut multi_caches: Vec<AttnKvCache> = (0..n)
            .map(|_| AttnKvCache::new(1, heads, max_len, hd))
            .collect();
        let mut seq_scratch = DecodeScratch::new(1, d, d_mlp, max_len);
        let mut multi_scratch = DecodeScratch::new(n, d, d_mlp, max_len);
        let mut r = rng(41);
        // Advance session i by i tokens, one row at a time, on both cache
        // sets so the prefixes are bit-equal and lengths differ per session.
        for (i, (sc, mc)) in seq_caches.iter_mut().zip(&mut multi_caches).enumerate() {
            for _ in 0..i {
                let x = Tensor::randn(&[d], 0.5, &mut r);
                for cache in [&mut *sc, &mut *mc] {
                    block.decode_step_multi(
                        &store,
                        &mut x.data.clone(),
                        &mut [cache],
                        &mut seq_scratch,
                    );
                }
            }
        }
        // One more token per session: n steps of one row vs one step of n.
        let step = Tensor::randn(&[n, d], 0.5, &mut r);
        let mut seq_out = step.data.clone();
        for (i, cache) in seq_caches.iter_mut().enumerate() {
            block.decode_step_multi(
                &store,
                &mut seq_out[i * d..(i + 1) * d],
                &mut [cache],
                &mut seq_scratch,
            );
        }
        let mut multi_out = step.data.clone();
        let mut cache_refs: Vec<&mut AttnKvCache> = multi_caches.iter_mut().collect();
        block.decode_step_multi(&store, &mut multi_out, &mut cache_refs, &mut multi_scratch);
        for (i, (x, y)) in seq_out.iter().zip(&multi_out).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "residual row element {i}");
        }
        for (i, (sc, mc)) in seq_caches.iter().zip(&multi_caches).enumerate() {
            assert_eq!(sc.len, mc.len, "session {i} cache length");
            for (a, b) in sc.k.iter().zip(&mc.k) {
                assert_eq!(a.to_bits(), b.to_bits(), "session {i} K rows");
            }
            for (a, b) in sc.v.iter().zip(&mc.v) {
                assert_eq!(a.to_bits(), b.to_bits(), "session {i} V rows");
            }
        }
    }

    #[test]
    fn quant_block_decode_tracks_f32_multi_decode() {
        // The quantized block is not bit-identical, but on a
        // moderate-magnitude input it must stay close to the f32 path
        // (per-weight rounding ≤ scale/2).
        let (d, heads, d_mlp, hd, max_len, n) = (8usize, 2usize, 16usize, 4usize, 6usize, 3usize);
        let mut store = ParamStore::new();
        let block = TransformerBlock::new(&mut store, "b", d, heads, d_mlp, &mut rng(50));
        let qblock = block.quantize(&store);
        let mut f32_caches: Vec<AttnKvCache> = (0..n)
            .map(|_| AttnKvCache::new(1, heads, max_len, hd))
            .collect();
        let mut q_caches: Vec<AttnKvCache> = (0..n)
            .map(|_| AttnKvCache::new(1, heads, max_len, hd))
            .collect();
        let mut scratch = DecodeScratch::new(n, d, d_mlp, max_len);
        let mut r = rng(51);
        for _ in 0..max_len {
            let step = Tensor::randn(&[n, d], 0.5, &mut r);
            let mut hf = step.data.clone();
            let mut refs: Vec<&mut AttnKvCache> = f32_caches.iter_mut().collect();
            block.decode_step_multi(&store, &mut hf, &mut refs, &mut scratch);
            let mut hq = step.data.clone();
            let mut qrefs: Vec<&mut AttnKvCache> = q_caches.iter_mut().collect();
            QuantLinear::block_decode_step(&qblock, &store, &mut hq, &mut qrefs, &mut scratch);
            for (a, b) in hf.iter().zip(&hq) {
                assert!(
                    (a - b).abs() < 0.15 * a.abs().max(1.0),
                    "quant drift too large: {a} vs {b}"
                );
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The decode attention's per-head loop as it was before the vector
    /// kernel, over the layout it read (`k`, `v`: `[H, max_len, hd]`, the
    /// first `n` positions valid), accumulating into a zeroed `ctx`: the
    /// oracle of [`attend_one_session`].
    #[allow(clippy::too_many_arguments)]
    fn attend_one_session_per_head(
        q_row: &[f32],
        k: &[f32],
        v: &[f32],
        n: usize,
        max_len: usize,
        scores_buf: &mut [f32],
        ctx: &mut [f32],
        h: usize,
        hd: usize,
    ) {
        let t = n - 1;
        let scale = 1.0 / (hd as f32).sqrt();
        let scores = &mut scores_buf[..t + 1];
        for hi in 0..h {
            let qrow = &q_row[hi * hd..(hi + 1) * hd];
            let base = hi * max_len * hd;
            let mut max = f32::NEG_INFINITY;
            for (j, s) in scores.iter_mut().enumerate() {
                let krow = &k[base + j * hd..base + (j + 1) * hd];
                *s = qrow.iter().zip(krow).map(|(a, c)| a * c).sum::<f32>() * scale;
                max = max.max(*s);
            }
            let mut denom = 0.0f32;
            for s in scores.iter_mut() {
                *s = expf_glibc(*s - max);
                denom += *s;
            }
            let inv = 1.0 / denom;
            let cslice = &mut ctx[hi * hd..(hi + 1) * hd];
            for (j, s) in scores.iter().enumerate() {
                let a = s * inv;
                let vrow = &v[base + j * hd..base + (j + 1) * hd];
                for (o, vv) in cslice.iter_mut().zip(vrow) {
                    *o += a * vv;
                }
            }
        }
    }

    /// The row-at-a-time layernorm forward of `LayerNorm::apply_rows_into`
    /// and the tape's `Graph::layernorm` as it was before the rows were
    /// interleaved: the oracle of [`LayerNormRows`]. Fills `out`, `xhat`
    /// and `inv_std`.
    fn layernorm_one_row_at_a_time(
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        out: &mut [f32],
        xhat: &mut [f32],
        inv_std: &mut [f32],
    ) {
        let d = gamma.len();
        let rows = x.chunks_exact(d).zip(out.chunks_exact_mut(d));
        for ((row, out), (xhat, inv_std)) in rows.zip(xhat.chunks_exact_mut(d).zip(inv_std)) {
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + eps).sqrt();
            *inv_std = istd;
            for c in 0..d {
                let h = (row[c] - mean) * istd;
                xhat[c] = h;
                out[c] = h * gamma[c] + beta[c];
            }
        }
    }

    /// `bits` with every NaN as the one quiet NaN. When both operands of
    /// an add are NaN, x86 returns the first one's payload, and the
    /// compiler may swap the operands of a commutative add, so a NaN's sign
    /// and payload are not a function of the source, not even of the
    /// oracle's; every other bit is.
    fn nan_blind_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    /// The kernels' test inputs: draws of N(0, 1), with `case` 1 setting
    /// about a third of them to ±0.0, `case` 2 about one in forty to +∞,
    /// −∞ or NaN, and `case` 3 all of them to ±0.0 (all-zero rows and
    /// columns are where a chain's starting zero shows its sign).
    fn kernel_input(len: usize, case: usize, r: &mut StdRng) -> Vec<f32> {
        let mut x = Tensor::randn(&[len], 1.0, r).data;
        for v in &mut x {
            let pick = rand::Rng::gen_range(r, 0..120u32);
            match (case, pick) {
                (1, 0..=19) | (3, 0..=59) => *v = 0.0,
                (1, 20..=39) | (3, _) => *v = -0.0,
                (2, 0) => *v = f32::INFINITY,
                (2, 1) => *v = f32::NEG_INFINITY,
                (2, 2) => *v = f32::NAN,
                _ => {}
            }
        }
        x
    }

    /// `attend_one_session` at `level` against the per-head oracle, bit for
    /// bit, at every position `1..=max_len` of one stream per `(H, hd)` and
    /// input case. Each stream runs on a cache that held another stream
    /// with non-finite values before its reset, the score buffer starts as
    /// NaN and `ctx` as NaN, so a lane that read stale or padding data, or
    /// an output the kernel failed to write, would show.
    fn check_attend_against_oracle(level: KernelLevel, shapes: &[(usize, usize)], max_len: usize) {
        let mut r = rng(70);
        for &(h, hd) in shapes {
            let d = h * hd;
            let mut cache = AttnKvCache::new(1, h, max_len, hd);
            let junk = kernel_input(2 * max_len * d, 2, &mut r);
            for (k_row, v_row) in junk[..max_len * d]
                .chunks(d)
                .zip(junk[max_len * d..].chunks(d))
            {
                scatter_kv_one_session(&mut cache, k_row, v_row, h, hd);
            }
            for case in 0..4 {
                cache.reset();
                let (q, k, v) = (
                    kernel_input(max_len * d, case, &mut r),
                    kernel_input(max_len * d, case, &mut r),
                    kernel_input(max_len * d, case, &mut r),
                );
                let (mut k_old, mut v_old) = (vec![0.0; d * max_len], vec![0.0; d * max_len]);
                let mut scores = vec![f32::NAN; h * max_len];
                let mut oracle_scores = vec![0.0; max_len];
                for j in 0..max_len {
                    let row = j * d..(j + 1) * d;
                    scatter_kv_one_session(&mut cache, &k[row.clone()], &v[row.clone()], h, hd);
                    for hi in 0..h {
                        let old = (hi * max_len + j) * hd..(hi * max_len + j + 1) * hd;
                        k_old[old.clone()].copy_from_slice(&k[j * d + hi * hd..][..hd]);
                        v_old[old].copy_from_slice(&v[j * d + hi * hd..][..hd]);
                    }
                    let mut want = vec![0.0; d];
                    attend_one_session_per_head(
                        &q[row.clone()],
                        &k_old,
                        &v_old,
                        j + 1,
                        max_len,
                        &mut oracle_scores,
                        &mut want,
                        h,
                        hd,
                    );
                    let mut got = vec![f32::NAN; d];
                    let caches = [&mut cache];
                    let attend = AttendSessions {
                        q: &q[row],
                        caches: &caches,
                        scores: &mut scores,
                        ctx: &mut got,
                    };
                    rows_at(attend, level);
                    let (got, want) = (nan_blind_bits(&got), nan_blind_bits(&want));
                    assert_eq!(
                        got, want,
                        "{level:?} H={h} hd={hd} case {case} position {j}"
                    );
                }
            }
        }
    }

    /// [`LayerNormRows`] at `level` against the row-at-a-time oracle, bit
    /// for bit, for every row count `1..=max_rows`: the decode step's
    /// instantiation its `out`, the tape's its `out`, `xhat` and `inv_std`.
    fn check_layernorm_against_oracle(level: KernelLevel, widths: &[usize], max_rows: usize) {
        let mut r = rng(71);
        for &d in widths {
            for case in 0..4 {
                let (gamma, beta) = (kernel_input(d, case, &mut r), kernel_input(d, case, &mut r));
                let x = kernel_input(max_rows * d, case, &mut r);
                for rows in 1..=max_rows {
                    let x = &x[..rows * d];
                    let buffers = |v: f32| (vec![v; rows * d], vec![v; rows * d], vec![v; rows]);
                    let mut want = buffers(0.0);
                    let (out, xhat, inv_std) = (&mut want.0, &mut want.1, &mut want.2);
                    layernorm_one_row_at_a_time(x, &gamma, &beta, 1e-5, out, xhat, inv_std);
                    let mut tape = buffers(f32::NAN);
                    let norm = LayerNormRows::<true> {
                        x,
                        out: &mut tape.0,
                        xhat: &mut tape.1,
                        inv_std: &mut tape.2,
                        gamma: &gamma,
                        beta: &beta,
                        eps: 1e-5,
                    };
                    rows_at(norm, level);
                    let mut decode = vec![f32::NAN; rows * d];
                    let norm = LayerNormRows::<false> {
                        x,
                        out: &mut decode,
                        xhat: &mut [],
                        inv_std: &mut [],
                        gamma: &gamma,
                        beta: &beta,
                        eps: 1e-5,
                    };
                    rows_at(norm, level);
                    for (got, want, what) in [
                        (&decode, &want.0, "out"),
                        (&tape.0, &want.0, "tape out"),
                        (&tape.1, &want.1, "xhat"),
                        (&tape.2, &want.2, "inv_std"),
                    ] {
                        assert_eq!(
                            nan_blind_bits(got),
                            nan_blind_bits(want),
                            "{what}: {level:?} d={d} case {case} rows {rows}"
                        );
                    }
                }
            }
        }
    }

    /// Small enough for Miri, which runs the portable level only (the
    /// attention kernel reads its cache through raw pointers): one and
    /// several score chunks and context chunks, ragged at both.
    #[test]
    fn kernel_attention_bit_identical_to_per_head_oracle_at_portable() {
        check_attend_against_oracle(KernelLevel::Portable, &[(1, 1), (3, 5), (2, 17)], 18);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn kernel_attention_bit_identical_to_per_head_oracle_at_every_level() {
        let shapes: Vec<(usize, usize)> = [1, 2, 3, 4, 8]
            .iter()
            .flat_map(|&h| [1, 5, 12, 32].map(|hd| (h, hd)))
            .collect();
        for level in KernelLevel::available() {
            check_attend_against_oracle(level, &shapes, 37);
        }
    }

    /// Small enough for Miri: row counts 1..=17 reach every group shape
    /// (1, 2, 4 and 8 rows) and every ragged tail.
    #[test]
    fn kernel_layernorm_bit_identical_to_row_at_a_time_at_portable() {
        check_layernorm_against_oracle(KernelLevel::Portable, &[1, 16, 48], 17);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn kernel_layernorm_bit_identical_to_row_at_a_time_at_every_level() {
        for level in KernelLevel::available() {
            check_layernorm_against_oracle(level, &[1, 3, 16, 48, 128], 20);
        }
    }

    proptest! {
        /// The pack-once path against the pack-per-call path it replaced,
        /// 0 ULP: `Linear::apply_rows_into` over cached panels equals
        /// `matmul_into` + bias on the kernel this machine dispatches, and
        /// equals the serial reference + bias on the portable kernel, for
        /// ragged shapes (row remainders below the tile height, column
        /// remainders below NR, n below one panel) and with the cache cold
        /// or warm.
        #[test]
        fn cached_panel_linear_zero_ulp_vs_matmul_into(
            m in 1usize..=70, k in 1usize..=160, n in 1usize..=70,
            with_bias in 0usize..2, seed in 0u64..1000,
        ) {
            let mut r = rng(seed);
            let mut store = ParamStore::new();
            let lin = Linear::new(&mut store, "l", k, n, with_bias == 1, &mut r);
            if let Some(b) = lin.b {
                *store.value_mut(b) = Tensor::randn(&[n], 1.0, &mut r);
            }
            let x = Tensor::randn(&[m, k], 1.0, &mut r);
            let w = store.value(lin.w).data.clone();
            let add_bias = |out: &mut [f32]| {
                if let Some(b) = lin.b {
                    for row in out.chunks_mut(n) {
                        for (o, bv) in row.iter_mut().zip(&store.value(b).data) {
                            *o += bv;
                        }
                    }
                }
            };
            let mut per_call = vec![0.0f32; m * n];
            crate::tensor::matmul_into(&x.data, &w, &mut per_call, m, k, n);
            add_bias(&mut per_call);
            let mut reference = vec![0.0f32; m * n];
            crate::tensor::matmul_reference(&x.data, &w, &mut reference, m, k, n);
            add_bias(&mut reference);

            prop_assert_eq!(store.packed_floats(), 0);
            for pass in ["cold", "warm"] {
                let mut cached = vec![f32::NAN; m * n];
                lin.apply_rows_into(&store, &x.data, m, &mut cached);
                prop_assert_eq!(bits(&cached), bits(&per_call), "dispatched kernel, {} cache", pass);
                let mut base = vec![f32::NAN; m * n];
                lin.apply_rows_kernel(&store, &x.data, m, &mut base, KernelLevel::Portable);
                prop_assert_eq!(bits(&base), bits(&reference), "portable kernel, {} cache", pass);
            }
            prop_assert_eq!(store.packed_floats(), n.div_ceil(16) * k * 16);
        }
    }

    /// The row-partition argument of DESIGN.md §10 restated for tile
    /// *shape*: at the four GEMM shapes of the paper-width decode step, a
    /// row's output bits depend neither on how many rows ride with it (1 to
    /// 64, so every tile of every level's table is reached) nor on which
    /// FMA level runs. Skipped on machines without an FMA level.
    #[test]
    fn linear_rows_bit_identical_across_fma_levels_and_row_counts_at_paper_widths() {
        const N_EVENTS: usize = 6;
        let levels = KernelLevel::available();
        let fma_levels = &levels[1..];
        let Some(&lowest) = fma_levels.first() else {
            return;
        };
        let mut r = rng(41);
        for (k, n) in [(128, 128), (128, 1024), (1024, 128), (128, N_EVENTS)] {
            let mut store = ParamStore::new();
            let lin = Linear::new(&mut store, "l", k, n, true, &mut r);
            let x = Tensor::randn(&[64, k], 1.0, &mut r);
            let mut all = vec![f32::NAN; 64 * n];
            lin.apply_rows_kernel(&store, &x.data, 64, &mut all, lowest);
            for rows in 1..=64 {
                for &level in fma_levels {
                    let mut out = vec![f32::NAN; rows * n];
                    lin.apply_rows_kernel(&store, &x.data[..rows * k], rows, &mut out, level);
                    assert_eq!(
                        bits(&out),
                        bits(&all[..rows * n]),
                        "{level:?} {rows}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn inference_paths_never_fork_or_repack() {
        // Everything in this file above the test module is the inference
        // and layer code. It must reach the GEMM kernel only through the
        // serial cached-panel call: no rayon entry point, and no
        // `matmul_into` (which packs per call and forks above a threshold).
        let src = include_str!("layers.rs");
        let code = src
            .split("#[cfg(test)]")
            .next()
            .expect("split yields a first piece");
        for needle in [
            "rayon::",
            "par_chunks",
            "par_iter",
            "matmul_into(",
            "pack_b(",
        ] {
            let allowed = usize::from(needle == "pack_b(");
            assert_eq!(
                code.matches(needle).count(),
                allowed,
                "layers.rs non-test code mentions {needle:?}"
            );
        }
    }

    #[test]
    fn value_mut_drops_panels_and_clone_starts_cold() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 5, 3, true, &mut rng(60));
        let x = Tensor::randn(&[2, 5], 1.0, &mut rng(61));
        let before = lin.apply(&store, &x);
        assert!(store.packed_floats() > 0, "first apply packs");

        // A clone shares nothing: it starts cold, and writing to it leaves
        // the original's panels (and output) alone.
        let mut copy = store.clone();
        assert_eq!(copy.packed_floats(), 0);
        copy.value_mut(lin.w).data[0] += 1.0;
        assert_eq!(bits(&lin.apply(&store, &x).data), bits(&before.data));
        assert_ne!(bits(&lin.apply(&copy, &x).data), bits(&before.data));

        // A raw write through value_mut is seen by the next apply.
        store.value_mut(lin.w).data[0] += 1.0;
        assert_eq!(store.packed_floats(), 0, "value_mut drops the panels");
        assert_eq!(
            bits(&lin.apply(&store, &x).data),
            bits(&lin.apply(&copy, &x).data)
        );
    }

    /// A training loop's arena stays at one tape's working set. Every
    /// buffer a graph gives back when it drops is one it took, so once the
    /// first shard has sized the pool, later shards with as many nodes reuse
    /// it and the pool count holds, whatever shapes the shards have.
    #[test]
    fn scratch_arena_stays_at_one_tapes_working_set() {
        let mut store = ParamStore::new();
        let proj = Linear::new(&mut store, "in", 4, 8, true, &mut rng(20));
        let block = TransformerBlock::new(&mut store, "b", 8, 2, 16, &mut rng(21));
        let head = Linear::new(&mut store, "head", 8, 7, true, &mut rng(22));
        let lstm = Lstm::new(&mut store, "l", 4, 3, &mut rng(23));
        let arena = crate::scratch::ScratchArena::new();
        let mut pooled = Vec::new();
        for shard in 0..50 {
            let mut r = rng(100 + shard as u64);
            let t = 3 + shard % 4;
            let mut sess = Session::with_scratch(&store, arena.clone());
            // CPT-GPT's heads: event cross-entropy and a Gaussian NLL,
            // combined by weight.
            let x = sess.input(Tensor::randn(&[2 * t, 4], 1.0, &mut r));
            let h = proj.forward(&mut sess, x);
            let h = block.forward(&mut sess, h, &[t, t]);
            let y = head.forward(&mut sess, h);
            let logits = sess.graph.slice_cols(y, 0, 5);
            let mean = sess.graph.slice_cols(y, 5, 1);
            let log_std = sess.graph.slice_cols(y, 6, 1);
            let targets: Vec<usize> = (0..2 * t).map(|i| (i + shard) % 5).collect();
            let ce = sess.graph.cross_entropy_logits(logits, &targets);
            let nll = sess.graph.gaussian_nll(mean, log_std, &vec![0.5; 2 * t]);
            // NetShare's LSTM, over a fixed number of steps: the tape's node
            // count is the same every shard, its shapes are not.
            let xs: Vec<Var> = (0..3)
                .map(|_| sess.input(Tensor::randn(&[2, 4], 1.0, &mut r)))
                .collect();
            let hs = lstm.forward_seq(&mut sess, &xs, 2);
            let last = hs[2];
            let sq = sess.graph.mul(last, last);
            let mse = sess.graph.mean_all(sq);
            let loss = sess
                .graph
                .weighted_sum(&[(ce, 1.0), (nll, 0.5), (mse, 0.25)]);
            sess.backward(loss);
            assert!(sess.graph.value(loss).item().is_finite());
            drop(sess);
            pooled.push(arena.pooled());
        }
        assert!(pooled[2] > 0, "the graph pools its buffers");
        assert_eq!(
            pooled[49], pooled[2],
            "the pool grew after shard 3: {pooled:?}"
        );
    }

    #[test]
    fn gradcheck_full_transformer_block() {
        // Finite-difference check through a whole block, treating the
        // input as the differentiated quantity.
        let mut store = ParamStore::new();
        let block = TransformerBlock::new(&mut store, "b", 4, 2, 8, &mut rng(8));
        let x0 = Tensor::randn(&[3, 4], 0.5, &mut rng(9));
        crate::gradcheck::check_gradients(
            &|g, ins| {
                // Manual session-like binding: parameters as constants.
                let mut sess = Session {
                    graph: std::mem::take(g),
                    store: &store,
                    bound: vec![None; store.params.len()],
                };
                let x = sess.input(ins[0].clone());
                let y = block.forward(&mut sess, x, &[3]);
                let sq = sess.graph.mul(y, y);
                let loss = sess.graph.mean_all(sq);
                *g = std::mem::take(&mut sess.graph);
                (vec![x], loss)
            },
            &[x0],
            5e-3,
            3e-2,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_lstm_step() {
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 2, 3, &mut rng(10));
        let x0 = Tensor::randn(&[2, 2], 0.5, &mut rng(11));
        crate::gradcheck::check_gradients(
            &|g, ins| {
                let mut sess = Session {
                    graph: std::mem::take(g),
                    store: &store,
                    bound: vec![None; store.params.len()],
                };
                let x = sess.input(ins[0].clone());
                let (h0, c0) = lstm.zero_state(&mut sess, 2);
                let (h1, c1) = lstm.step(&mut sess, x, h0, c0);
                let (h2, _) = lstm.step(&mut sess, x, h1, c1);
                let sq = sess.graph.mul(h2, h2);
                let loss = sess.graph.mean_all(sq);
                *g = std::mem::take(&mut sess.graph);
                (vec![x], loss)
            },
            &[x0],
            5e-3,
            3e-2,
        )
        .unwrap();
    }
}
