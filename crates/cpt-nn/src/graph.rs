//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Graph`] is rebuilt per forward pass. Every op appends a node holding
//! the op's output value, its parent node ids and a backward closure that
//! maps the node's output gradient to its parents' gradients. Calling
//! [`Graph::backward`] seeds the loss node with gradient 1 and walks the
//! tape in reverse, accumulating.
//!
//! Losses are fused ops (softmax+CE, Gaussian NLL, …) so intermediate
//! probabilities never need their own gradients and numerical stability is
//! handled in one place.

use crate::scratch::ScratchArena;
use crate::tensor::{matmul_into, Tensor};
use std::rc::Rc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

struct Node {
    value: Rc<Tensor>,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    grad: Option<Tensor>,
}

/// Allocation context threaded through ops and captured by backward
/// closures: draws buffers from the graph's scratch arena when one is
/// attached, falls back to plain heap allocation otherwise.
#[derive(Clone, Default)]
struct AllocCtx(Option<ScratchArena>);

impl AllocCtx {
    fn take(&self, len: usize) -> Vec<f32> {
        match &self.0 {
            Some(a) => a.take_zeroed(len),
            None => vec![0.0; len],
        }
    }

    fn give(&self, buf: Vec<f32>) {
        if let Some(a) = &self.0 {
            a.give(buf);
        }
    }

    fn zeros(&self, shape: &[usize]) -> Tensor {
        Tensor::new(self.take(shape.iter().product()), shape.to_vec())
    }

    fn clone_tensor(&self, t: &Tensor) -> Tensor {
        let mut buf = self.take(t.len());
        buf.copy_from_slice(&t.data);
        Tensor::new(buf, t.shape.clone())
    }

    fn map(&self, t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
        let mut buf = self.take(t.len());
        for (o, x) in buf.iter_mut().zip(&t.data) {
            *o = f(*x);
        }
        Tensor::new(buf, t.shape.clone())
    }

    fn zip(&self, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(a.shape, b.shape, "zip shape mismatch");
        let mut buf = self.take(a.len());
        for ((o, x), y) in buf.iter_mut().zip(&a.data).zip(&b.data) {
            *o = f(*x, *y);
        }
        Tensor::new(buf, a.shape.clone())
    }
}

/// An autodiff tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    scratch: AllocCtx,
}

impl Drop for Graph {
    fn drop(&mut self) {
        let Some(arena) = self.scratch.0.take() else { return };
        // Backward closures hold `Rc` clones of parent values; drop them
        // first so node values become uniquely owned and poolable.
        for node in &mut self.nodes {
            node.backward = None;
        }
        for node in self.nodes.drain(..) {
            if let Ok(t) = Rc::try_unwrap(node.value) {
                arena.give(t.data);
            }
            if let Some(g) = node.grad {
                arena.give(g.data);
            }
        }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph whose node values, backward intermediates
    /// and gradients are drawn from (and returned to) `arena`.
    pub fn with_scratch(arena: ScratchArena) -> Self {
        Graph {
            nodes: Vec::new(),
            scratch: AllocCtx(Some(arena)),
        }
    }

    fn ctx(&self) -> AllocCtx {
        self.scratch.clone()
    }

    fn alloc(&self, len: usize) -> Vec<f32> {
        self.scratch.take(len)
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, parents: Vec<usize>, backward: Option<BackwardFn>) -> Var {
        self.push_rc(Rc::new(value), parents, backward)
    }

    fn push_rc(&mut self, value: Rc<Tensor>, parents: Vec<usize>, backward: Option<BackwardFn>) -> Var {
        self.nodes.push(Node {
            value,
            parents,
            backward,
            grad: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// Adds a leaf node. Leaves receive gradients like any node; callers
    /// read back the ones they care about (parameters) via [`Graph::grad`].
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, vec![], None)
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node (after [`Graph::backward`]).
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    fn rc_value(&self, v: Var) -> Rc<Tensor> {
        Rc::clone(&self.nodes[v.0].value)
    }

    // ---------------------------------------------------------------
    // Elementwise / broadcast arithmetic
    // ---------------------------------------------------------------

    /// `a + b`. `b`'s shape must equal `a`'s or be a suffix of it, in which
    /// case `b` is broadcast over the leading dimensions (bias add).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let av = self.rc_value(a);
        let bv = self.rc_value(b);
        let ctx = self.ctx();
        let out = broadcast_add(&av, &bv, &ctx);
        let b_shape = bv.shape.clone();
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g: &Tensor| {
                let da = ctx.clone_tensor(g);
                let db = reduce_to_shape(g, &b_shape, &ctx);
                vec![da, db]
            })),
        )
    }

    /// `a - b` (equal shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let av = self.rc_value(a);
        let bv = self.rc_value(b);
        let ctx = self.ctx();
        let out = ctx.zip(&av, &bv, |x, y| x - y);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g: &Tensor| {
                vec![ctx.clone_tensor(g), ctx.map(g, |x| -x)]
            })),
        )
    }

    /// Elementwise `a * b` (equal shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let av = self.rc_value(a);
        let bv = self.rc_value(b);
        let ctx = self.ctx();
        let out = ctx.zip(&av, &bv, |x, y| x * y);
        self.push(
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g: &Tensor| {
                vec![
                    ctx.zip(g, &bv, |go, y| go * y),
                    ctx.zip(g, &av, |go, x| go * x),
                ]
            })),
        )
    }

    /// `a * c` for a scalar constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let av = self.rc_value(a);
        let ctx = self.ctx();
        let out = ctx.map(&av, |x| x * c);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| vec![ctx.map(g, |x| x * c)])),
        )
    }

    // ---------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------

    /// 2-D matmul `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let av = self.rc_value(a);
        let bv = self.rc_value(b);
        assert_eq!(av.rank(), 2, "matmul lhs must be 2-D");
        assert_eq!(bv.rank(), 2, "matmul rhs must be 2-D");
        let (m, k) = (av.shape[0], av.shape[1]);
        let n = bv.shape[1];
        assert_eq!(k, bv.shape[0], "matmul inner dims");
        let ctx = self.ctx();
        let mut out = self.alloc(m * n);
        matmul_into(&av.data, &bv.data, &mut out, m, k, n);
        self.push(
            Tensor::new(out, vec![m, n]),
            vec![a.0, b.0],
            Some(Box::new(move |g: &Tensor| {
                // dA = G·Bᵀ ; dB = Aᵀ·G  (transposes in pooled scratch)
                let mut bt = ctx.take(k * n);
                bv.t2_into(&mut bt);
                let mut da = ctx.take(m * k);
                matmul_into(&g.data, &bt, &mut da, m, n, k);
                ctx.give(bt);
                let mut at = ctx.take(m * k);
                av.t2_into(&mut at);
                let mut db = ctx.take(k * n);
                matmul_into(&at, &g.data, &mut db, k, m, n);
                ctx.give(at);
                vec![Tensor::new(da, vec![m, k]), Tensor::new(db, vec![k, n])]
            })),
        )
    }

    /// Batched 3-D matmul `[b,m,k] x [b,k,n] -> [b,m,n]`.
    pub fn bmm(&mut self, a: Var, b: Var) -> Var {
        let av = self.rc_value(a);
        let bv = self.rc_value(b);
        assert_eq!(av.rank(), 3, "bmm lhs must be 3-D");
        assert_eq!(bv.rank(), 3, "bmm rhs must be 3-D");
        let (bs, m, k) = (av.shape[0], av.shape[1], av.shape[2]);
        let n = bv.shape[2];
        let ctx = self.ctx();
        let mut out = self.alloc(bs * m * n);
        av.bmm_into(&bv, &mut out);
        self.push(
            Tensor::new(out, vec![bs, m, n]),
            vec![a.0, b.0],
            Some(Box::new(move |g: &Tensor| {
                let mut bt = Tensor::new(ctx.take(bs * k * n), vec![bs, n, k]);
                bv.transpose_last2_into(&mut bt.data);
                let mut da = ctx.take(bs * m * k);
                g.bmm_into(&bt, &mut da);
                ctx.give(bt.data);
                let mut at = Tensor::new(ctx.take(bs * m * k), vec![bs, k, m]);
                av.transpose_last2_into(&mut at.data);
                let mut db = ctx.take(bs * k * n);
                at.bmm_into(g, &mut db);
                ctx.give(at.data);
                vec![
                    Tensor::new(da, vec![bs, m, k]),
                    Tensor::new(db, vec![bs, k, n]),
                ]
            })),
        )
    }

    /// Transpose of the last two dims of a rank-3 tensor.
    pub fn transpose_last2(&mut self, a: Var) -> Var {
        let av = self.rc_value(a);
        assert_eq!(av.rank(), 3, "transpose_last2 needs rank 3");
        let (b, m, n) = (av.shape[0], av.shape[1], av.shape[2]);
        let ctx = self.ctx();
        let mut out = self.alloc(b * m * n);
        av.transpose_last2_into(&mut out);
        self.push(
            Tensor::new(out, vec![b, n, m]),
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut dg = ctx.take(b * m * n);
                g.transpose_last2_into(&mut dg);
                vec![Tensor::new(dg, vec![b, m, n])]
            })),
        )
    }

    /// Reshape (element order preserved).
    pub fn reshape(&mut self, a: Var, shape: &[usize]) -> Var {
        let av = self.rc_value(a);
        let in_shape = av.shape.clone();
        assert_eq!(
            av.len(),
            shape.iter().product::<usize>(),
            "reshape {:?} -> {:?} changes element count",
            in_shape,
            shape
        );
        let ctx = self.ctx();
        let mut out = ctx.clone_tensor(&av);
        out.shape = shape.to_vec();
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut dg = ctx.clone_tensor(g);
                dg.shape = in_shape.clone();
                vec![dg]
            })),
        )
    }

    /// Rows `start..start+len` of a 2-D tensor (used to take the first `T`
    /// positional-embedding rows). Backward scatters into a zero tensor.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        let av = self.rc_value(a);
        assert_eq!(av.rank(), 2, "slice_rows needs rank 2");
        let (rows, cols) = (av.shape[0], av.shape[1]);
        assert!(start + len <= rows, "slice_rows out of range");
        let ctx = self.ctx();
        let mut out = Tensor::new(self.alloc(len * cols), vec![len, cols]);
        out.data
            .copy_from_slice(&av.data[start * cols..(start + len) * cols]);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut da = ctx.zeros(&[rows, cols]);
                da.data[start * cols..(start + len) * cols].copy_from_slice(&g.data);
                vec![da]
            })),
        )
    }

    /// Concatenates 2-D tensors with equal row counts along the column
    /// axis (used to reassemble multi-field GAN samples). Backward splits
    /// the gradient back per input.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let values: Vec<Rc<Tensor>> = parts.iter().map(|v| self.rc_value(*v)).collect();
        let rows = values[0].shape[0];
        assert!(
            values.iter().all(|t| t.rank() == 2 && t.shape[0] == rows),
            "concat_cols needs rank-2 inputs with equal rows"
        );
        let widths: Vec<usize> = values.iter().map(|t| t.shape[1]).collect();
        let total: usize = widths.iter().sum();
        let mut out = Tensor::zeros(&[rows, total]);
        for r in 0..rows {
            let mut off = 0;
            for (t, w) in values.iter().zip(&widths) {
                out.data[r * total + off..r * total + off + w]
                    .copy_from_slice(&t.data[r * w..(r + 1) * w]);
                off += w;
            }
        }
        let widths_bw = widths.clone();
        self.push(
            out,
            parts.iter().map(|v| v.0).collect(),
            Some(Box::new(move |g: &Tensor| {
                let mut grads: Vec<Tensor> = widths_bw
                    .iter()
                    .map(|w| Tensor::zeros(&[rows, *w]))
                    .collect();
                for r in 0..rows {
                    let mut off = 0;
                    for (gi, w) in grads.iter_mut().zip(&widths_bw) {
                        gi.data[r * w..(r + 1) * w]
                            .copy_from_slice(&g.data[r * total + off..r * total + off + w]);
                        off += w;
                    }
                }
                grads
            })),
        )
    }

    /// Columns `start..start+len` of a 2-D tensor (used to split LSTM gate
    /// pre-activations). Backward scatters into a zero tensor.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let av = self.rc_value(a);
        assert_eq!(av.rank(), 2, "slice_cols needs rank 2");
        let (rows, cols) = (av.shape[0], av.shape[1]);
        assert!(start + len <= cols, "slice_cols out of range");
        let ctx = self.ctx();
        let mut out = Tensor::new(self.alloc(rows * len), vec![rows, len]);
        for r in 0..rows {
            out.data[r * len..(r + 1) * len]
                .copy_from_slice(&av.data[r * cols + start..r * cols + start + len]);
        }
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut da = ctx.zeros(&[rows, cols]);
                for r in 0..rows {
                    da.data[r * cols + start..r * cols + start + len]
                        .copy_from_slice(&g.data[r * len..(r + 1) * len]);
                }
                vec![da]
            })),
        )
    }

    /// Splits a `[B,T,D]` activation into `[B*H, T, D/H]` head-major
    /// layout for attention. Pure permutation; exact inverse of
    /// [`Graph::merge_heads`].
    pub fn split_heads(&mut self, a: Var, n_heads: usize) -> Var {
        let av = self.rc_value(a);
        assert_eq!(av.rank(), 3, "split_heads needs [B,T,D]");
        let (b, t, d) = (av.shape[0], av.shape[1], av.shape[2]);
        assert_eq!(d % n_heads, 0, "d_model not divisible by heads");
        let hd = d / n_heads;
        let ctx = self.ctx();
        let out = split_heads_data(&av, b, t, n_heads, hd, &ctx);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                vec![merge_heads_data(g, b, t, n_heads, hd, &ctx)]
            })),
        )
    }

    /// Merges `[B*H, T, hd]` back to `[B,T,H*hd]`.
    pub fn merge_heads(&mut self, a: Var, n_heads: usize) -> Var {
        let av = self.rc_value(a);
        assert_eq!(av.rank(), 3, "merge_heads needs [B*H,T,hd]");
        let bh = av.shape[0];
        assert_eq!(bh % n_heads, 0, "batch not divisible by heads");
        let (b, t, hd) = (bh / n_heads, av.shape[1], av.shape[2]);
        let ctx = self.ctx();
        let out = merge_heads_data(&av, b, t, n_heads, hd, &ctx);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                vec![split_heads_data(g, b, t, n_heads, hd, &ctx)]
            })),
        )
    }

    // ---------------------------------------------------------------
    // Nonlinearities
    // ---------------------------------------------------------------

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let av = self.rc_value(a);
        let ctx = self.ctx();
        let out = ctx.map(&av, |x| x.max(0.0));
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                vec![ctx.zip(g, &av, |go, x| if x > 0.0 { go } else { 0.0 })]
            })),
        )
    }

    /// GELU (tanh approximation), the transformer MLP activation.
    pub fn gelu(&mut self, a: Var) -> Var {
        let av = self.rc_value(a);
        let ctx = self.ctx();
        let out = ctx.map(&av, gelu_f);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                vec![ctx.zip(g, &av, |go, x| go * gelu_df(x))]
            })),
        )
    }

    /// tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let av = self.rc_value(a);
        let ctx = self.ctx();
        let out = Rc::new(ctx.map(&av, f32::tanh));
        let outv = Rc::clone(&out);
        self.push_rc(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                vec![ctx.zip(g, &outv, |go, y| go * (1.0 - y * y))]
            })),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let av = self.rc_value(a);
        let ctx = self.ctx();
        let out = Rc::new(ctx.map(&av, sigmoid_f));
        let outv = Rc::clone(&out);
        self.push_rc(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                vec![ctx.zip(g, &outv, |go, y| go * y * (1.0 - y))]
            })),
        )
    }

    /// Softmax over the last dimension (numerically stabilized).
    pub fn softmax_lastdim(&mut self, a: Var) -> Var {
        let av = self.rc_value(a);
        let ctx = self.ctx();
        let mut out = Tensor::new(self.alloc(av.len()), av.shape.clone());
        softmax_lastdim_into(&av, &mut out.data);
        let out = Rc::new(out);
        let outv = Rc::clone(&out);
        self.push_rc(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                // dx_i = y_i (g_i - Σ_j g_j y_j) per row.
                let (rows, cols) = outv.rows_cols();
                let mut dx = ctx.zeros(&outv.shape);
                for r in 0..rows {
                    let y = &outv.data[r * cols..(r + 1) * cols];
                    let go = &g.data[r * cols..(r + 1) * cols];
                    let dot: f32 = y.iter().zip(go).map(|(yi, gi)| yi * gi).sum();
                    for c in 0..cols {
                        dx.data[r * cols + c] = y[c] * (go[c] - dot);
                    }
                }
                vec![dx]
            })),
        )
    }

    /// Fused scaled-dot-product attention over head-major tensors:
    /// `softmax(scale · Q·Kᵀ + causal mask) · V` for `Q`, `K`, `V` of shape
    /// `[B·H, T, hd]`, as one tape node with a single backward closure.
    ///
    /// Replaces the five-node chain transpose→bmm→scale→mask-add→softmax
    /// (plus a context bmm): the mask tensor is never materialized (causal
    /// masking skips `j > i`, numerically identical to the `-1e9` additive
    /// mask since those entries underflow to exactly 0 after softmax), and
    /// only the attention probabilities are cached for backward.
    pub fn attention(&mut self, q: Var, k: Var, v: Var, scale: f32, causal: bool) -> Var {
        let qv = self.rc_value(q);
        let kv = self.rc_value(k);
        let vv = self.rc_value(v);
        assert_eq!(qv.rank(), 3, "attention needs [BH,T,hd]");
        assert_eq!(kv.shape, qv.shape, "attention K shape");
        assert_eq!(vv.shape, qv.shape, "attention V shape");
        let (bh, t, hd) = (qv.shape[0], qv.shape[1], qv.shape[2]);
        let ctx = self.ctx();

        // Scores in place: attn = Q·Kᵀ, then scale + masked softmax rows.
        let mut kt = Tensor::new(self.alloc(bh * t * hd), vec![bh, hd, t]);
        kv.transpose_last2_into(&mut kt.data);
        let mut attn = Tensor::new(self.alloc(bh * t * t), vec![bh, t, t]);
        qv.bmm_into(&kt, &mut attn.data);
        ctx.give(kt.data);
        for s in 0..bh {
            for i in 0..t {
                let row = &mut attn.data[(s * t + i) * t..(s * t + i + 1) * t];
                let lim = if causal { i + 1 } else { t };
                let mut max = f32::NEG_INFINITY;
                for x in &mut row[..lim] {
                    *x *= scale;
                    max = max.max(*x);
                }
                let mut sum = 0.0f32;
                for x in &mut row[..lim] {
                    *x = (*x - max).exp();
                    sum += *x;
                }
                let inv = 1.0 / sum;
                for x in &mut row[..lim] {
                    *x *= inv;
                }
                for x in &mut row[lim..] {
                    *x = 0.0;
                }
            }
        }
        let mut out = self.alloc(bh * t * hd);
        attn.bmm_into(&vv, &mut out);
        // Park the probabilities on the tape as a hidden constant node so
        // the buffer is pooled when the graph drops (backward is skipped
        // for nodes without gradient).
        let attn_node = self.push(attn, vec![], None);
        let attn_rc = self.rc_value(attn_node);
        self.push(
            Tensor::new(out, vec![bh, t, hd]),
            vec![q.0, k.0, v.0],
            Some(Box::new(move |g: &Tensor| {
                // dV = Aᵀ·G
                let mut at = Tensor::new(ctx.take(bh * t * t), vec![bh, t, t]);
                attn_rc.transpose_last2_into(&mut at.data);
                let mut dv = ctx.take(bh * t * hd);
                at.bmm_into(g, &mut dv);
                ctx.give(at.data);
                // dS = softmax-backward(G·Vᵀ) against A, in place.
                let mut vt = Tensor::new(ctx.take(bh * t * hd), vec![bh, hd, t]);
                vv.transpose_last2_into(&mut vt.data);
                let mut ds = Tensor::new(ctx.take(bh * t * t), vec![bh, t, t]);
                g.bmm_into(&vt, &mut ds.data);
                ctx.give(vt.data);
                for r in 0..bh * t {
                    let a_row = &attn_rc.data[r * t..(r + 1) * t];
                    let ds_row = &mut ds.data[r * t..(r + 1) * t];
                    let dot: f32 = a_row.iter().zip(ds_row.iter()).map(|(y, d)| y * d).sum();
                    for (d, y) in ds_row.iter_mut().zip(a_row) {
                        *d = y * (*d - dot);
                    }
                }
                // dQ = scale · dS·K ; dK = scale · dSᵀ·Q
                let mut dq = Tensor::new(ctx.take(bh * t * hd), vec![bh, t, hd]);
                ds.bmm_into(&kv, &mut dq.data);
                dq.scale_assign(scale);
                let mut dst = Tensor::new(ctx.take(bh * t * t), vec![bh, t, t]);
                ds.transpose_last2_into(&mut dst.data);
                ctx.give(ds.data);
                let mut dk = Tensor::new(ctx.take(bh * t * hd), vec![bh, t, hd]);
                dst.bmm_into(&qv, &mut dk.data);
                dk.scale_assign(scale);
                ctx.give(dst.data);
                vec![dq, dk, Tensor::new(dv, vec![bh, t, hd])]
            })),
        )
    }

    /// Layer normalization over the last dimension with affine parameters
    /// `gamma`, `beta` of shape `[D]`.
    // Index loops stride several parallel row buffers at once; iterator
    // rewrites would obscure the shared `r * d` addressing.
    #[allow(clippy::needless_range_loop)]
    pub fn layernorm(&mut self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let av = self.rc_value(a);
        let gv = self.rc_value(gamma);
        let bv = self.rc_value(beta);
        let (rows, d) = av.rows_cols();
        assert_eq!(gv.shape, vec![d], "gamma shape");
        assert_eq!(bv.shape, vec![d], "beta shape");
        let ctx = self.ctx();
        // Forward: cache normalized activations and 1/std per row.
        let mut out = Tensor::new(self.alloc(av.len()), av.shape.clone());
        let mut xhat = Tensor::new(self.alloc(av.len()), av.shape.clone());
        let mut inv_std = vec![0.0f32; rows];
        for r in 0..rows {
            let x = &av.data[r * d..(r + 1) * d];
            let mean = x.iter().sum::<f32>() / d as f32;
            let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + eps).sqrt();
            inv_std[r] = istd;
            for c in 0..d {
                let h = (x[c] - mean) * istd;
                xhat.data[r * d + c] = h;
                out.data[r * d + c] = h * gv.data[c] + bv.data[c];
            }
        }
        let gvc = Rc::clone(&gv);
        // Hidden node: pools xhat's buffer when the graph drops.
        let xhat_node = self.push(xhat, vec![], None);
        let xhat = self.rc_value(xhat_node);
        self.push(
            out,
            vec![a.0, gamma.0, beta.0],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = ctx.zeros(&xhat.shape);
                let mut dgamma = Tensor::zeros(&[d]);
                let mut dbeta = Tensor::zeros(&[d]);
                for r in 0..rows {
                    let gh = &g.data[r * d..(r + 1) * d];
                    let xh = &xhat.data[r * d..(r + 1) * d];
                    // dL/dxhat_c = g_c * gamma_c
                    let mut sum_dxhat = 0.0f32;
                    let mut sum_dxhat_xhat = 0.0f32;
                    for c in 0..d {
                        let dxh = gh[c] * gvc.data[c];
                        sum_dxhat += dxh;
                        sum_dxhat_xhat += dxh * xh[c];
                        dgamma.data[c] += gh[c] * xh[c];
                        dbeta.data[c] += gh[c];
                    }
                    let istd = inv_std[r];
                    let nd = d as f32;
                    for c in 0..d {
                        let dxh = gh[c] * gvc.data[c];
                        dx.data[r * d + c] =
                            istd * (dxh - sum_dxhat / nd - xh[c] * sum_dxhat_xhat / nd);
                    }
                }
                vec![dx, dgamma, dbeta]
            })),
        )
    }

    // ---------------------------------------------------------------
    // Reductions / losses
    // ---------------------------------------------------------------

    /// Mean over all elements → scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let av = self.rc_value(a);
        let n = av.len().max(1) as f32;
        let shape = av.shape.clone();
        let ctx = self.ctx();
        self.push(
            Tensor::scalar(av.sum() / n),
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut da = ctx.zeros(&shape);
                da.data.fill(g.item() / n);
                vec![da]
            })),
        )
    }

    /// Weighted sum of scalar nodes: `Σ w_i · s_i` → scalar. Used to
    /// combine the three per-field losses (§4.4 Design 2: "the training
    /// minimizes the weighted sum of these losses across fields").
    pub fn weighted_sum(&mut self, terms: &[(Var, f32)]) -> Var {
        assert!(!terms.is_empty(), "weighted_sum of nothing");
        let mut total = 0.0f32;
        for (v, w) in terms {
            let val = self.value(*v);
            assert_eq!(val.len(), 1, "weighted_sum needs scalar terms");
            total += val.item() * w;
        }
        let weights: Vec<f32> = terms.iter().map(|(_, w)| *w).collect();
        self.push(
            Tensor::scalar(total),
            terms.iter().map(|(v, _)| v.0).collect(),
            Some(Box::new(move |g: &Tensor| {
                weights
                    .iter()
                    .map(|w| Tensor::scalar(g.item() * w))
                    .collect()
            })),
        )
    }

    /// Masked mean softmax cross-entropy over logits `[N, C]` with integer
    /// targets. `mask[i] = 0` removes row `i` from the loss (padding).
    pub fn cross_entropy_logits(&mut self, logits: Var, targets: &[usize], mask: &[f32]) -> Var {
        let lv = self.rc_value(logits);
        let (n, c) = lv.rows_cols();
        assert_eq!(targets.len(), n, "targets length");
        assert_eq!(mask.len(), n, "mask length");
        let probs = softmax_lastdim_data(&lv);
        let denom: f32 = mask.iter().sum::<f32>().max(1e-12);
        let mut loss = 0.0f64;
        for i in 0..n {
            if mask[i] != 0.0 {
                debug_assert!(targets[i] < c, "target class out of range");
                let p = probs.data[i * c + targets[i]].max(1e-12);
                loss -= (p.ln() as f64) * mask[i] as f64;
            }
        }
        let targets = targets.to_vec();
        let mask = mask.to_vec();
        let ctx = self.ctx();
        self.push(
            Tensor::scalar((loss / denom as f64) as f32),
            vec![logits.0],
            Some(Box::new(move |g: &Tensor| {
                let go = g.item();
                let mut dl = ctx.zeros(&probs.shape);
                for i in 0..n {
                    if mask[i] == 0.0 {
                        continue;
                    }
                    for j in 0..c {
                        let indicator = if j == targets[i] { 1.0 } else { 0.0 };
                        dl.data[i * c + j] =
                            go * mask[i] * (probs.data[i * c + j] - indicator) / denom;
                    }
                }
                vec![dl]
            })),
        )
    }

    /// Masked mean Gaussian negative log-likelihood. The model predicts a
    /// mean and a log-standard-deviation per row (Design 2 of the paper:
    /// "output the parameters of a probability distribution, rather than a
    /// single numerical value"); the loss is
    /// `0.5·((x−μ)/σ)² + log σ + 0.5·log 2π`.
    ///
    /// `log σ` is soft-clamped to `[-7, 3]` (zero gradient outside): an
    /// unbounded head can drive σ into denormal/overflow territory, which
    /// both destabilizes training and makes the f32 kernels pathologically
    /// slow on denormals.
    pub fn gaussian_nll(&mut self, mean_v: Var, log_std: Var, target: &[f32], mask: &[f32]) -> Var {
        let mv = self.rc_value(mean_v);
        let sv = self.rc_value(log_std);
        let n = mv.len();
        assert_eq!(sv.len(), n, "log_std length");
        assert_eq!(target.len(), n, "target length");
        assert_eq!(mask.len(), n, "mask length");
        let denom: f32 = mask.iter().sum::<f32>().max(1e-12);
        const HALF_LN_2PI: f64 = 0.918_938_533_204_672_7;
        let mut loss = 0.0f64;
        for i in 0..n {
            if mask[i] != 0.0 {
                let mu = mv.data[i] as f64;
                let ls = (sv.data[i] as f64).clamp(-7.0, 3.0);
                let x = target[i] as f64;
                let z = (x - mu) * (-ls).exp();
                loss += (0.5 * z * z + ls + HALF_LN_2PI) * mask[i] as f64;
            }
        }
        let target = target.to_vec();
        let mask = mask.to_vec();
        let mshape = mv.shape.clone();
        let sshape = sv.shape.clone();
        self.push(
            Tensor::scalar((loss / denom as f64) as f32),
            vec![mean_v.0, log_std.0],
            Some(Box::new(move |g: &Tensor| {
                let go = g.item();
                let mut dmu = Tensor::zeros(&mshape);
                let mut dls = Tensor::zeros(&sshape);
                for i in 0..n {
                    if mask[i] == 0.0 {
                        continue;
                    }
                    let mu = mv.data[i];
                    let ls_raw = sv.data[i];
                    let ls = ls_raw.clamp(-7.0, 3.0);
                    let x = target[i];
                    let inv_var = (-2.0 * ls).exp();
                    // d/dμ [0.5 (x-μ)² e^{-2ls}] = (μ - x) e^{-2ls}
                    dmu.data[i] = go * mask[i] * (mu - x) * inv_var / denom;
                    // d/dls = 1 - (x-μ)² e^{-2ls}; zero outside the clamp.
                    dls.data[i] = if ls_raw == ls {
                        go * mask[i] * (1.0 - (x - mu) * (x - mu) * inv_var) / denom
                    } else {
                        0.0
                    };
                }
                vec![dmu, dls]
            })),
        )
    }

    /// Masked mean binary cross-entropy on logits (numerically stable
    /// log-sum-exp form). Used by the GAN discriminator/generator losses.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32], mask: &[f32]) -> Var {
        let lv = self.rc_value(logits);
        let n = lv.len();
        assert_eq!(targets.len(), n, "targets length");
        assert_eq!(mask.len(), n, "mask length");
        let denom: f32 = mask.iter().sum::<f32>().max(1e-12);
        let mut loss = 0.0f64;
        for i in 0..n {
            if mask[i] != 0.0 {
                let z = lv.data[i] as f64;
                let y = targets[i] as f64;
                loss += (z.max(0.0) - z * y + (-z.abs()).exp().ln_1p()) * mask[i] as f64;
            }
        }
        let targets = targets.to_vec();
        let mask = mask.to_vec();
        let shape = lv.shape.clone();
        self.push(
            Tensor::scalar((loss / denom as f64) as f32),
            vec![logits.0],
            Some(Box::new(move |g: &Tensor| {
                let go = g.item();
                let mut dl = Tensor::zeros(&shape);
                for i in 0..n {
                    if mask[i] == 0.0 {
                        continue;
                    }
                    dl.data[i] = go * mask[i] * (sigmoid_f(lv.data[i]) - targets[i]) / denom;
                }
                vec![dl]
            })),
        )
    }

    /// Masked mean squared error against constant targets.
    pub fn mse_masked(&mut self, pred: Var, target: &[f32], mask: &[f32]) -> Var {
        let pv = self.rc_value(pred);
        let n = pv.len();
        assert_eq!(target.len(), n, "target length");
        assert_eq!(mask.len(), n, "mask length");
        let denom: f32 = mask.iter().sum::<f32>().max(1e-12);
        let loss: f64 = (0..n)
            .filter(|i| mask[*i] != 0.0)
            .map(|i| {
                let d = (pv.data[i] - target[i]) as f64;
                d * d * mask[i] as f64
            })
            .sum::<f64>()
            / denom as f64;
        let target = target.to_vec();
        let mask = mask.to_vec();
        let shape = pv.shape.clone();
        self.push(
            Tensor::scalar(loss as f32),
            vec![pred.0],
            Some(Box::new(move |g: &Tensor| {
                let go = g.item();
                let mut dp = Tensor::zeros(&shape);
                for i in 0..n {
                    if mask[i] != 0.0 {
                        dp.data[i] = go * mask[i] * 2.0 * (pv.data[i] - target[i]) / denom;
                    }
                }
                vec![dp]
            })),
        )
    }

    // ---------------------------------------------------------------
    // Backward
    // ---------------------------------------------------------------

    /// Runs reverse-mode accumulation from `loss` (which must be scalar).
    /// After this call, [`Graph::grad`] returns `dloss/dnode` for every
    /// node that influences the loss.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).len(),
            1,
            "backward() needs a scalar loss, got {:?}",
            self.value(loss).shape
        );
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::new(vec![1.0], self.value(loss).shape.clone()));
        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            if let Some(bw) = &self.nodes[i].backward {
                let parent_grads = bw(&g);
                debug_assert_eq!(parent_grads.len(), self.nodes[i].parents.len());
                for (p, pg) in self.nodes[i].parents.clone().into_iter().zip(parent_grads) {
                    match &mut grads[p] {
                        Some(existing) => existing.add_assign(&pg),
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
            self.nodes[i].grad = Some(g);
        }
    }
}

// -------------------------------------------------------------------
// Kernel helpers
// -------------------------------------------------------------------

/// `a + b` where `b.shape` equals `a.shape` or is a suffix of it.
fn broadcast_add(a: &Tensor, b: &Tensor, ctx: &AllocCtx) -> Tensor {
    if a.shape == b.shape {
        return ctx.zip(a, b, |x, y| x + y);
    }
    assert!(
        a.shape.len() >= b.shape.len()
            && a.shape[a.shape.len() - b.shape.len()..] == b.shape[..],
        "broadcast_add: {:?} + {:?}",
        a.shape,
        b.shape
    );
    let chunk = b.len().max(1);
    let mut out = ctx.clone_tensor(a);
    for block in out.data.chunks_mut(chunk) {
        for (o, bv) in block.iter_mut().zip(&b.data) {
            *o += bv;
        }
    }
    out
}

/// Sums `g` over leading dims so the result has `shape` (suffix of
/// `g.shape`). Inverse of broadcasting.
fn reduce_to_shape(g: &Tensor, shape: &[usize], ctx: &AllocCtx) -> Tensor {
    if g.shape == shape {
        return ctx.clone_tensor(g);
    }
    let chunk: usize = shape.iter().product::<usize>().max(1);
    let mut out = ctx.zeros(shape);
    for block in g.data.chunks(chunk) {
        for (o, gv) in out.data.iter_mut().zip(block) {
            *o += gv;
        }
    }
    out
}

fn softmax_lastdim_data(x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(&x.shape);
    softmax_lastdim_into(x, &mut out.data);
    out
}

fn softmax_lastdim_into(x: &Tensor, out: &mut [f32]) {
    let (rows, cols) = x.rows_cols();
    for r in 0..rows {
        let row = &x.data[r * cols..(r + 1) * cols];
        let orow = &mut out[r * cols..(r + 1) * cols];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, v) in orow.iter_mut().zip(row) {
            let e = (v - max).exp();
            *o = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for o in orow.iter_mut() {
            *o *= inv;
        }
    }
}

fn split_heads_data(x: &Tensor, b: usize, t: usize, h: usize, hd: usize, ctx: &AllocCtx) -> Tensor {
    // [B,T,H*hd] -> [B*H, T, hd]
    let mut out = ctx.zeros(&[b * h, t, hd]);
    for bi in 0..b {
        for ti in 0..t {
            for hi in 0..h {
                let src = (bi * t + ti) * h * hd + hi * hd;
                let dst = ((bi * h + hi) * t + ti) * hd;
                out.data[dst..dst + hd].copy_from_slice(&x.data[src..src + hd]);
            }
        }
    }
    out
}

fn merge_heads_data(x: &Tensor, b: usize, t: usize, h: usize, hd: usize, ctx: &AllocCtx) -> Tensor {
    // [B*H, T, hd] -> [B,T,H*hd]
    let mut out = ctx.zeros(&[b, t, h * hd]);
    for bi in 0..b {
        for ti in 0..t {
            for hi in 0..h {
                let src = ((bi * h + hi) * t + ti) * hd;
                let dst = (bi * t + ti) * h * hd + hi * hd;
                out.data[dst..dst + hd].copy_from_slice(&x.data[src..src + hd]);
            }
        }
    }
    out
}

fn sigmoid_f(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The tape's GELU (tanh approximation) and, below, its derivative: libm
/// `tanh`, private to this file. The training trajectory is pinned to this
/// pair bit for bit: a sub-ULP change to either moves every trained
/// artifact, and the benchmark's violation gate on a seconds-trained model
/// has been measured to flip on such changes (DESIGN.md §10, "Row
/// kernels"). The gradient-free decode path uses `tensor::gelu_rows`
/// instead; `tape_gelu_is_pinned_to_libm` fails if the two are merged.
fn gelu_f(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

fn gelu_df(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044715 * x3);
    let th = inner.tanh();
    let sech2 = 1.0 - th * th;
    0.5 * (1.0 + th) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_values_add_mul_matmul() {
        let mut g = Graph::new();
        let a = g.input(Tensor::new(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]));
        let b = g.input(Tensor::new(vec![5.0, 6.0, 7.0, 8.0], vec![2, 2]));
        let s = g.add(a, b);
        assert_eq!(g.value(s).data, vec![6.0, 8.0, 10.0, 12.0]);
        let p = g.mul(a, b);
        assert_eq!(g.value(p).data, vec![5.0, 12.0, 21.0, 32.0]);
        let m = g.matmul(a, b);
        assert_eq!(g.value(m).data, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn bias_broadcast_add_and_grad() {
        let mut g = Graph::new();
        let x = g.input(Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]));
        let b = g.input(Tensor::new(vec![10.0, 20.0, 30.0], vec![3]));
        let y = g.add(x, b);
        assert_eq!(g.value(y).data, vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        let loss = g.mean_all(y);
        g.backward(loss);
        // d(mean)/db_j = (#rows)/N = 2/6.
        let db = g.grad(b).unwrap();
        for v in &db.data {
            assert!((v - 2.0 / 6.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let x = g.input(Tensor::new(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], vec![2, 3]));
        let y = g.softmax_lastdim(x);
        let v = g.value(y);
        for r in 0..2 {
            let s: f32 = v.data[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Softmax is shift-invariant: row 0 and row 1 differ by constant 2.
        for c in 0..3 {
            assert!((v.data[c] - v.data[3 + c]).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::new(vec![2.0, 0.0, 0.0, 0.0, 3.0, 0.0], vec![2, 3]));
        let loss = g.cross_entropy_logits(logits, &[0, 1], &[1.0, 1.0]);
        // Row losses: -ln(softmax) of the target entries.
        let p0 = (2.0f64.exp()) / (2.0f64.exp() + 2.0);
        let p1 = (3.0f64.exp()) / (3.0f64.exp() + 2.0);
        let expect = -(p0.ln() + p1.ln()) / 2.0;
        assert!((g.value(loss).item() as f64 - expect).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_mask_removes_rows() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::new(vec![2.0, 0.0, 0.0, 9.0], vec![2, 2]));
        let masked = g.cross_entropy_logits(logits, &[0, 0], &[1.0, 0.0]);
        let mut g2 = Graph::new();
        let logits2 = g2.input(Tensor::new(vec![2.0, 0.0], vec![1, 2]));
        let unmasked = g2.cross_entropy_logits(logits2, &[0], &[1.0]);
        assert!((g.value(masked).item() - g2.value(unmasked).item()).abs() < 1e-6);
        // And the masked row receives zero gradient.
        g.backward(masked);
        let dl = g.grad(logits).unwrap();
        assert_eq!(dl.data[2], 0.0);
        assert_eq!(dl.data[3], 0.0);
    }

    #[test]
    fn gaussian_nll_minimized_at_target_mean() {
        // For fixed sigma, NLL at μ = x must be lower than at μ ≠ x.
        let at = |mu: f32| {
            let mut g = Graph::new();
            let m = g.input(Tensor::new(vec![mu], vec![1]));
            let s = g.input(Tensor::new(vec![0.0], vec![1]));
            let l = g.gaussian_nll(m, s, &[1.5], &[1.0]);
            g.value(l).item()
        };
        assert!(at(1.5) < at(0.0));
        assert!(at(1.5) < at(3.0));
        // Analytic value at μ=x, σ=1: 0.5·ln(2π).
        assert!((at(1.5) - 0.918_938_5).abs() < 1e-5);
    }

    #[test]
    fn bce_matches_manual() {
        let mut g = Graph::new();
        let z = g.input(Tensor::new(vec![0.0, 2.0], vec![2]));
        let l = g.bce_with_logits(z, &[1.0, 0.0], &[1.0, 1.0]);
        let expect = ((2.0f64).ln() + (1.0 + (2.0f64).exp()).ln()) / 2.0;
        assert!((g.value(l).item() as f64 - expect).abs() < 1e-5);
    }

    #[test]
    fn tape_gelu_is_pinned_to_libm() {
        // Forward and backward spelled out against libm `tanh`, with the
        // association each of them uses; the upstream gradient is exactly 1.
        const C: f32 = 0.797_884_6;
        let n = 4096;
        let xs: Vec<f32> = (0..n).map(|i| -8.0 + 16.0 * i as f32 / n as f32).collect();
        let mut g = Graph::new();
        let x = g.input(Tensor::new(xs.clone(), vec![n]));
        let y = g.gelu(x);
        let mean = g.mean_all(y);
        let loss = g.scale(mean, n as f32);
        g.backward(loss);
        let dx = &g.grad(x).expect("input gradient").data;
        for (i, &v) in xs.iter().enumerate() {
            let f = 0.5 * v * (1.0 + f32::tanh(C * (v + 0.044715 * v * v * v)));
            let th = f32::tanh(C * (v + 0.044715 * (v * v * v)));
            let df = 0.5 * (1.0 + th)
                + 0.5 * v * (1.0 - th * th) * C * (1.0 + 3.0 * 0.044715 * v * v);
            assert_eq!(g.value(y).data[i].to_bits(), f.to_bits(), "forward at {v}");
            assert_eq!(dx[i].to_bits(), df.to_bits(), "backward at {v}");
        }
    }

    #[test]
    fn backward_through_chain_rule() {
        // loss = mean((a*b + b)²)... simple: y = a*b; loss = mean(y)
        let mut g = Graph::new();
        let a = g.input(Tensor::new(vec![2.0, 3.0], vec![2]));
        let b = g.input(Tensor::new(vec![5.0, 7.0], vec![2]));
        let y = g.mul(a, b);
        let loss = g.mean_all(y);
        g.backward(loss);
        // dloss/da_i = b_i / 2 ; dloss/db_i = a_i / 2
        assert_eq!(g.grad(a).unwrap().data, vec![2.5, 3.5]);
        assert_eq!(g.grad(b).unwrap().data, vec![1.0, 1.5]);
    }

    #[test]
    fn grad_accumulates_over_multiple_uses() {
        // y = a + a → dy/da = 2
        let mut g = Graph::new();
        let a = g.input(Tensor::new(vec![1.0], vec![1]));
        let y = g.add(a, a);
        let loss = g.mean_all(y);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data, vec![2.0]);
    }

    #[test]
    fn split_merge_heads_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::randn(&[2, 3, 8], 1.0, &mut rng);
        let mut g = Graph::new();
        let v = g.input(x.clone());
        let s = g.split_heads(v, 4);
        assert_eq!(g.value(s).shape, vec![8, 3, 2]);
        let m = g.merge_heads(s, 4);
        assert_eq!(g.value(m).shape, vec![2, 3, 8]);
        for (a, b) in x.data.iter().zip(&g.value(m).data) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn slice_rows_forward_and_backward() {
        let mut g = Graph::new();
        let p = g.input(Tensor::new((0..12).map(|x| x as f32).collect(), vec![4, 3]));
        let s = g.slice_rows(p, 1, 2);
        assert_eq!(g.value(s).data, vec![3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let loss = g.mean_all(s);
        g.backward(loss);
        let dp = g.grad(p).unwrap();
        assert_eq!(dp.data[0..3], [0.0, 0.0, 0.0]);
        assert!((dp.data[3] - 1.0 / 6.0).abs() < 1e-6);
        assert_eq!(dp.data[9..12], [0.0, 0.0, 0.0]);
    }

    #[test]
    fn fused_attention_matches_unfused_chain() {
        // The fused op must agree with the original five-node composition
        // (transpose → bmm → scale → additive causal mask → softmax → bmm)
        // in both forward values and input gradients.
        for causal in [true, false] {
            let mut rng = StdRng::seed_from_u64(40);
            let (bh, t, hd) = (4, 5, 3);
            let q0 = Tensor::randn(&[bh, t, hd], 0.7, &mut rng);
            let k0 = Tensor::randn(&[bh, t, hd], 0.7, &mut rng);
            let v0 = Tensor::randn(&[bh, t, hd], 0.7, &mut rng);
            let scale = 1.0 / (hd as f32).sqrt();

            let mut gf = Graph::new();
            let (qf, kf, vf) = (
                gf.input(q0.clone()),
                gf.input(k0.clone()),
                gf.input(v0.clone()),
            );
            let of = gf.attention(qf, kf, vf, scale, causal);
            let sq = gf.mul(of, of);
            let lf = gf.mean_all(sq);
            gf.backward(lf);

            let mut gu = Graph::new();
            let (qu, ku, vu) = (
                gu.input(q0.clone()),
                gu.input(k0.clone()),
                gu.input(v0.clone()),
            );
            let kt = gu.transpose_last2(ku);
            let scores = gu.bmm(qu, kt);
            let scaled = gu.scale(scores, scale);
            let masked = if causal {
                let mut mask = Tensor::zeros(&[t, t]);
                for i in 0..t {
                    for j in (i + 1)..t {
                        mask.data[i * t + j] = -1e9;
                    }
                }
                let mv = gu.input(mask);
                gu.add(scaled, mv)
            } else {
                scaled
            };
            let attn = gu.softmax_lastdim(masked);
            let ou = gu.bmm(attn, vu);
            let squ = gu.mul(ou, ou);
            let lu = gu.mean_all(squ);
            gu.backward(lu);

            for (a, b) in gf.value(of).data.iter().zip(&gu.value(ou).data) {
                assert!((a - b).abs() < 1e-5, "forward mismatch (causal={causal})");
            }
            for (vf_, vu_) in [(qf, qu), (kf, ku), (vf, vu)] {
                let gfv = gf.grad(vf_).unwrap();
                let guv = gu.grad(vu_).unwrap();
                for (a, b) in gfv.data.iter().zip(&guv.data) {
                    assert!((a - b).abs() < 1e-5, "grad mismatch (causal={causal})");
                }
            }
        }
    }

    #[test]
    fn scratch_arena_recycles_graph_buffers() {
        let arena = crate::scratch::ScratchArena::new();
        let run = |arena: &crate::scratch::ScratchArena| {
            let mut g = Graph::with_scratch(arena.clone());
            let a = g.input(Tensor::ones(&[8, 8]));
            let b = g.input(Tensor::ones(&[8, 8]));
            let m = g.matmul(a, b);
            let s = g.mul(m, m);
            let loss = g.mean_all(s);
            g.backward(loss);
            g.value(loss).item()
        };
        let first = run(&arena);
        let pooled = arena.pooled();
        assert!(pooled > 0, "graph drop must return buffers to the arena");
        // Second run draws from the pool and produces identical results.
        let second = run(&arena);
        assert_eq!(first.to_bits(), second.to_bits());
    }

    #[test]
    fn weighted_sum_combines_scalars() {
        let mut g = Graph::new();
        let a = g.input(Tensor::scalar(2.0));
        let b = g.input(Tensor::scalar(10.0));
        let s = g.weighted_sum(&[(a, 1.0), (b, 3.0)]);
        assert_eq!(g.value(s).item(), 32.0);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().item(), 1.0);
        assert_eq!(g.grad(b).unwrap().item(), 3.0);
    }
}
