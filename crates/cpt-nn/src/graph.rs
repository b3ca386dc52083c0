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

use crate::layers::LayerNormRows;
use crate::scratch::{ScratchArena, UNWRITTEN};
use crate::tensor::{
    exp_rows, expf_glibc, gelu_tape_grad_rows, gelu_tape_rows, gemm_into, rows_at, tanh_rows,
    KernelLevel, Op, Tensor,
};
use rayon::prelude::*;
use std::rc::Rc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Tensor>>;

struct Node {
    value: Rc<Tensor>,
    /// Whether `value` was drawn from the graph's arena (every node but an
    /// [`Graph::input`] leaf), and so goes back to it when the graph drops.
    pooled: bool,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    grad: Option<Tensor>,
}

/// Allocation context threaded through ops and captured by backward
/// closures: draws buffers from the graph's scratch arena when one is
/// attached, falls back to plain heap allocation otherwise.
///
/// Every value and gradient buffer of the tape comes from here, so what the
/// graph gives back when it drops is what it took and the arena stays at
/// one tape's working set.
#[derive(Clone, Default)]
struct AllocCtx(Option<ScratchArena>);

impl AllocCtx {
    /// A zeroed buffer, for an op that accumulates into it or writes only
    /// some of it.
    fn take(&self, len: usize) -> Vec<f32> {
        match &self.0 {
            Some(a) => a.take_zeroed(len),
            None => vec![0.0; len],
        }
    }

    /// A buffer the caller overwrites entirely
    /// ([`ScratchArena::take_dirty`]; NaN in debug builds either way).
    fn take_dirty(&self, len: usize) -> Vec<f32> {
        match &self.0 {
            Some(a) => a.take_dirty(len),
            None => vec![UNWRITTEN; len],
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

    /// A tensor of `shape` the caller overwrites entirely.
    fn dirty(&self, shape: &[usize]) -> Tensor {
        Tensor::new(self.take_dirty(shape.iter().product()), shape.to_vec())
    }

    fn scalar(&self, value: f32) -> Tensor {
        let mut t = self.dirty(&[]);
        t.data[0] = value;
        t
    }

    fn clone_tensor(&self, t: &Tensor) -> Tensor {
        let mut buf = self.take_dirty(t.len());
        buf.copy_from_slice(&t.data);
        Tensor::new(buf, t.shape.clone())
    }

    fn map(&self, t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
        let mut buf = self.take_dirty(t.len());
        for (o, x) in buf.iter_mut().zip(&t.data) {
            *o = f(*x);
        }
        Tensor::new(buf, t.shape.clone())
    }

    fn zip(&self, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(a.shape, b.shape, "zip shape mismatch");
        let mut buf = self.take_dirty(a.len());
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
        let Some(arena) = self.scratch.0.take() else {
            return;
        };
        // Backward closures hold `Rc` clones of parent values; drop them
        // first so node values become uniquely owned and poolable.
        for node in &mut self.nodes {
            node.backward = None;
        }
        for node in self.nodes.drain(..) {
            // An input leaf's buffer came from its caller: it is freed.
            if node.pooled {
                if let Ok(t) = Rc::try_unwrap(node.value) {
                    arena.give(t.data);
                }
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

    /// A buffer for a forward value the op overwrites entirely.
    fn alloc(&self, len: usize) -> Vec<f32> {
        self.scratch.take_dirty(len)
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

    fn push_rc(
        &mut self,
        value: Rc<Tensor>,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var {
        self.nodes.push(Node {
            value,
            pooled: true,
            parents,
            backward,
            grad: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// Adds a leaf node. Leaves keep the gradients they receive; callers
    /// read back the ones they care about (parameters) via [`Graph::grad`].
    /// The graph owns `value` and frees it on drop; it does not pool a
    /// buffer it did not take.
    pub fn input(&mut self, value: Tensor) -> Var {
        let v = self.push(value, vec![], None);
        self.nodes[v.0].pooled = false;
        v
    }

    /// A leaf holding a copy of `value` in a buffer of the graph's arena:
    /// for a tensor the caller keeps, such as a parameter.
    pub fn input_copy(&mut self, value: &Tensor) -> Var {
        let copy = self.scratch.clone_tensor(value);
        self.push(copy, vec![], None)
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a leaf node (after [`Graph::backward`];
    /// `None` for an inner node, whose gradient is not kept).
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

    /// A fully connected layer as one node: `x·w`, plus `b` on every row
    /// when given. `x` is `[…, k]` with its leading dims as the rows, `w` is
    /// `[k, n]`, `b` is `[n]`, and the output is `[…, n]`; a 2-D `x` with no
    /// bias is a plain matmul.
    ///
    /// Values and gradients are bit-identical to a reshape to rows, a 2-D
    /// matmul, a broadcast [`Graph::add`] of the bias and a reshape back,
    /// without copying the activation: `dx = G·wᵀ`, `dw = xᵀ·G`, and `db`
    /// sums the rows of `G` from zero in ascending order.
    pub fn linear(&mut self, x: Var, w: Var, b: Option<Var>) -> Var {
        let xv = self.rc_value(x);
        let wv = self.rc_value(w);
        assert_eq!(wv.rank(), 2, "linear weight must be 2-D");
        let (k, n) = (wv.shape[0], wv.shape[1]);
        let in_shape = xv.shape.clone();
        assert_eq!(
            in_shape.last(),
            Some(&k),
            "linear input {in_shape:?} vs weight {:?}",
            wv.shape
        );
        let m = in_shape[..in_shape.len() - 1].iter().product::<usize>();
        let mut out_shape = in_shape.clone();
        *out_shape.last_mut().expect("rank >= 1") = n;
        let ctx = self.ctx();
        let mut out = self.alloc(m * n);
        gemm_into(Op::N, &xv.data, Op::N, &wv.data, &mut out, m, k, n);
        if let Some(b) = b {
            let bv = self.value(b);
            assert_eq!(bv.shape, [n], "linear bias shape");
            for row in out.chunks_mut(n.max(1)) {
                for (o, bj) in row.iter_mut().zip(&bv.data) {
                    *o += bj;
                }
            }
        }
        let has_bias = b.is_some();
        let mut parents = vec![x.0, w.0];
        parents.extend(b.map(|b| b.0));
        self.push(
            Tensor::new(out, out_shape),
            parents,
            Some(Box::new(move |g: &Tensor| {
                // dx = G·wᵀ ; dw = xᵀ·G, both transposes read in place.
                let mut dx = ctx.take_dirty(m * k);
                gemm_into(Op::N, &g.data, Op::T, &wv.data, &mut dx, m, n, k);
                let mut dw = ctx.take_dirty(k * n);
                gemm_into(Op::T, &xv.data, Op::N, &g.data, &mut dw, k, m, n);
                let mut grads = vec![
                    Tensor::new(dx, in_shape.clone()),
                    Tensor::new(dw, vec![k, n]),
                ];
                if has_bias {
                    let mut db = ctx.zeros(&[n]);
                    for row in g.data.chunks(n.max(1)) {
                        for (d, gj) in db.data.iter_mut().zip(row) {
                            *d += gj;
                        }
                    }
                    grads.push(db);
                }
                grads
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
                // dA = G·Bᵀ ; dB = Aᵀ·G, both transposes read in place.
                let mut da = ctx.take_dirty(bs * m * k);
                g.bmm_op_into(Op::N, &bv, Op::T, &mut da);
                let mut db = ctx.take_dirty(bs * k * n);
                av.bmm_op_into(Op::T, g, Op::N, &mut db);
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
                let mut dg = ctx.take_dirty(b * m * n);
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

    /// Rows `idx[0]`, `idx[1]`, … of a 2-D tensor, in that order (the
    /// positional-embedding row of every position of every stream). The
    /// backward adds output row `i`'s gradient into row `idx[i]` of a zero
    /// tensor in ascending `i`, so a row gathered by several streams sums
    /// their gradients in stream order.
    pub fn gather_rows(&mut self, a: Var, idx: &[usize]) -> Var {
        let av = self.rc_value(a);
        assert_eq!(av.rank(), 2, "gather_rows needs rank 2");
        let (rows, cols) = (av.shape[0], av.shape[1]);
        assert!(idx.iter().all(|&r| r < rows), "gather_rows out of range");
        let ctx = self.ctx();
        let mut out = Tensor::new(self.alloc(idx.len() * cols), vec![idx.len(), cols]);
        for (dst, &r) in out.data.chunks_exact_mut(cols.max(1)).zip(idx) {
            dst.copy_from_slice(&av.data[r * cols..(r + 1) * cols]);
        }
        let idx = idx.to_vec();
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut da = ctx.zeros(&[rows, cols]);
                for (src, &r) in g.data.chunks_exact(cols.max(1)).zip(&idx) {
                    for (d, x) in da.data[r * cols..(r + 1) * cols].iter_mut().zip(src) {
                        *d += x;
                    }
                }
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
        let ctx = self.ctx();
        let mut out = ctx.dirty(&[rows, total]);
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
                let mut grads: Vec<Tensor> =
                    widths_bw.iter().map(|w| ctx.dirty(&[rows, *w])).collect();
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

    /// Splits rows `[R, H·hd]` — the positions of streams of `lens` rows,
    /// one stream after another — into head-major blocks `[H·R, hd]`: for
    /// each stream in turn, its `H` heads, each the stream's `len × hd`
    /// slice of that head's features. Pure permutation; exact inverse of
    /// [`Graph::merge_heads`].
    pub fn split_heads(&mut self, a: Var, n_heads: usize, lens: &[usize]) -> Var {
        let av = self.rc_value(a);
        let (r, d) = av.rows_cols();
        assert_eq!(
            lens.iter().sum::<usize>(),
            r,
            "split_heads: stream lengths vs rows"
        );
        assert_eq!(d % n_heads, 0, "d_model not divisible by heads");
        let hd = d / n_heads;
        let in_shape = av.shape.clone();
        let lens = lens.to_vec();
        let ctx = self.ctx();
        let mut out = ctx.dirty(&[n_heads * r, hd]);
        permute_heads(&av.data, &mut out.data, &lens, n_heads, hd, true);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = ctx.dirty(&in_shape);
                permute_heads(&g.data, &mut dx.data, &lens, n_heads, hd, false);
                vec![dx]
            })),
        )
    }

    /// Merges [`Graph::split_heads`]' `[H·R, hd]` blocks back to rows
    /// `[R, H·hd]`.
    pub fn merge_heads(&mut self, a: Var, n_heads: usize, lens: &[usize]) -> Var {
        let av = self.rc_value(a);
        let (hr, hd) = av.rows_cols();
        let r: usize = lens.iter().sum();
        assert_eq!(hr, n_heads * r, "merge_heads: stream lengths vs rows");
        let lens = lens.to_vec();
        let ctx = self.ctx();
        let mut out = ctx.dirty(&[r, n_heads * hd]);
        permute_heads(&av.data, &mut out.data, &lens, n_heads, hd, false);
        let in_shape = av.shape.clone();
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = ctx.dirty(&in_shape);
                permute_heads(&g.data, &mut dx.data, &lens, n_heads, hd, true);
                vec![dx]
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

    /// GELU (tanh approximation), the transformer MLP activation, with
    /// fdlibm's `tanhf` bits (`tensor::gelu_tape_rows`).
    ///
    /// The forward's `tanh` values are kept in a hidden node, the way
    /// `attention` keeps its probabilities. The backward reuses one only
    /// where its own `tanh` argument is bit-equal to the forward's and
    /// evaluates `tanh` on the rest, so its bits are those of a backward
    /// that always evaluates its own.
    pub fn gelu(&mut self, a: Var) -> Var {
        let av = self.rc_value(a);
        let ctx = self.ctx();
        let mut th = Tensor::new(self.alloc(av.len()), av.shape.clone());
        let mut out = Tensor::new(self.alloc(av.len()), av.shape.clone());
        gelu_tape_rows(&av.data, &mut th.data, &mut out.data);
        let th_node = self.push(th, vec![], None);
        let th = self.rc_value(th_node);
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = ctx.dirty(&av.shape);
                gelu_tape_grad_rows(&av.data, &th.data, &g.data, &mut dx.data);
                vec![dx]
            })),
        )
    }

    /// tanh, with fdlibm's `tanhf` bits (`tensor::tanh_rows`).
    pub fn tanh(&mut self, a: Var) -> Var {
        let av = self.rc_value(a);
        let ctx = self.ctx();
        let mut out = Tensor::new(self.alloc(av.len()), av.shape.clone());
        tanh_rows(&av.data, &mut out.data);
        let out = Rc::new(out);
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
        let cols = av.rows_cols().1;
        let mut out = ctx.clone_tensor(&av);
        softmax_rows(&mut out.data, cols, 1.0, false);
        let out = Rc::new(out);
        let outv = Rc::clone(&out);
        self.push_rc(
            out,
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = ctx.clone_tensor(g);
                softmax_grad_rows(&outv.data, &mut dx.data, cols);
                vec![dx]
            })),
        )
    }

    /// Fused scaled-dot-product attention over head-major rows:
    /// `softmax(scale · Q·Kᵀ + causal mask) · V` for `Q`, `K`, `V` of
    /// `N = Σ lens` rows of `hd` features, cut into independent sequences
    /// of `lens` rows, one after another (for self-attention, every head of
    /// every stream: [`Graph::split_heads`]' layout). Each sequence attends
    /// only within itself, through its own `len × len` score block, so
    /// streams of unequal length cost no padded row or column. One tape
    /// node with a single backward closure; the sequences run on the
    /// installed pool.
    ///
    /// Replaces the five-node chain transpose→bmm→scale→mask-add→softmax
    /// (plus a context bmm): the mask tensor is never materialized (causal
    /// masking skips `j > i`, numerically identical to the `-1e9` additive
    /// mask since those entries underflow to exactly 0 after softmax), and
    /// only the attention probabilities are cached for backward.
    pub fn attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        scale: f32,
        causal: bool,
        lens: &[usize],
    ) -> Var {
        let qv = self.rc_value(q);
        let kv = self.rc_value(k);
        let vv = self.rc_value(v);
        assert_eq!(kv.shape, qv.shape, "attention K shape");
        assert_eq!(vv.shape, qv.shape, "attention V shape");
        let (n, hd) = qv.rows_cols();
        assert_eq!(
            lens.iter().sum::<usize>(),
            n,
            "attention: sequence lengths vs rows"
        );
        let seqs = Seq::cut(lens);
        let ctx = self.ctx();

        // Per sequence: scores in place, attn = Q·Kᵀ (Kᵀ read in place),
        // then the scaled, causally masked softmax of its rows; last the
        // context, attn·V.
        let scores: usize = seqs.iter().map(|s| s.len * s.len).sum();
        let mut attn = Tensor::new(self.alloc(scores), vec![scores]);
        let mut out = Tensor::new(self.alloc(n * hd), qv.shape.clone());
        let (qd, kd, vd) = (&qv.data[..], &kv.data[..], &vv.data[..]);
        let work: Vec<_> = seqs
            .iter()
            .zip(split_by(&mut attn.data, seqs.iter().map(|s| s.len * s.len)))
            .zip(split_by(&mut out.data, seqs.iter().map(|s| s.len * hd)))
            .collect();
        work.into_par_iter().for_each(|((s, a), o)| {
            let (l, rows) = (s.len, s.rows(hd));
            gemm_into(
                Op::N,
                &qd[rows.clone()],
                Op::T,
                &kd[rows.clone()],
                a,
                l,
                hd,
                l,
            );
            softmax_rows(a, l, scale, causal);
            gemm_into(Op::N, a, Op::N, &vd[rows], o, l, l, hd);
        });
        // Park the probabilities on the tape as a hidden constant node so
        // the buffer is pooled when the graph drops (backward is skipped
        // for nodes without gradient).
        let attn_node = self.push(attn, vec![], None);
        let attn_rc = self.rc_value(attn_node);
        self.push(
            out,
            vec![q.0, k.0, v.0],
            Some(Box::new(move |g: &Tensor| {
                let mut dq = ctx.dirty(&qv.shape);
                let mut dk = ctx.dirty(&qv.shape);
                let mut dv = ctx.dirty(&qv.shape);
                let mut ds = ctx.take_dirty(scores);
                let (qd, kd, vd, ad, gd) = (
                    &qv.data[..],
                    &kv.data[..],
                    &vv.data[..],
                    &attn_rc.data[..],
                    &g.data[..],
                );
                let work: Vec<_> = seqs
                    .iter()
                    .zip(split_by(&mut dq.data, seqs.iter().map(|s| s.len * hd)))
                    .zip(split_by(&mut dk.data, seqs.iter().map(|s| s.len * hd)))
                    .zip(split_by(&mut dv.data, seqs.iter().map(|s| s.len * hd)))
                    .zip(split_by(&mut ds, seqs.iter().map(|s| s.len * s.len)))
                    .collect();
                work.into_par_iter().for_each(|((((s, dq), dk), dv), ds)| {
                    let (l, rows) = (s.len, s.rows(hd));
                    let a = &ad[s.at..s.at + l * l];
                    let gs = &gd[rows.clone()];
                    // dV = Aᵀ·G, every transpose below read in place.
                    gemm_into(Op::T, a, Op::N, gs, dv, l, l, hd);
                    // dS = softmax-backward(G·Vᵀ) against A, in place.
                    gemm_into(Op::N, gs, Op::T, &vd[rows.clone()], ds, l, hd, l);
                    softmax_grad_rows(a, ds, l);
                    // dQ = scale · dS·K ; dK = scale · dSᵀ·Q
                    gemm_into(Op::N, ds, Op::N, &kd[rows.clone()], dq, l, l, hd);
                    gemm_into(Op::T, ds, Op::N, &qd[rows], dk, l, l, hd);
                    for x in dq.iter_mut().chain(dk.iter_mut()) {
                        *x *= scale;
                    }
                });
                ctx.give(ds);
                vec![dq, dk, dv]
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
        // Forward: the decode step's row loop, which also caches the
        // normalized activations and 1/std per row for the backward.
        let mut out = Tensor::new(self.alloc(av.len()), av.shape.clone());
        let mut xhat = Tensor::new(self.alloc(av.len()), av.shape.clone());
        let mut inv_std = vec![0.0f32; rows];
        if rows > 0 && d > 0 {
            let norm = LayerNormRows::<true> {
                x: &av.data,
                out: &mut out.data,
                xhat: &mut xhat.data,
                inv_std: &mut inv_std,
                gamma: &gv.data,
                beta: &bv.data,
                eps,
            };
            rows_at(norm, KernelLevel::active());
        }
        let gvc = Rc::clone(&gv);
        // Hidden node: pools xhat's buffer when the graph drops.
        let xhat_node = self.push(xhat, vec![], None);
        let xhat = self.rc_value(xhat_node);
        self.push(
            out,
            vec![a.0, gamma.0, beta.0],
            Some(Box::new(move |g: &Tensor| {
                let mut dx = ctx.dirty(&xhat.shape);
                let mut dgamma = ctx.zeros(&[d]);
                let mut dbeta = ctx.zeros(&[d]);
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
            ctx.scalar(av.sum() / n),
            vec![a.0],
            Some(Box::new(move |g: &Tensor| {
                let mut da = ctx.dirty(&shape);
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
        let ctx = self.ctx();
        self.push(
            ctx.scalar(total),
            terms.iter().map(|(v, _)| v.0).collect(),
            Some(Box::new(move |g: &Tensor| {
                weights.iter().map(|w| ctx.scalar(g.item() * w)).collect()
            })),
        )
    }

    /// Mean softmax cross-entropy over logits `[N, C]` with integer
    /// targets.
    pub fn cross_entropy_logits(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = self.rc_value(logits);
        let (n, c) = lv.rows_cols();
        assert_eq!(targets.len(), n, "targets length");
        let probs = softmax_lastdim_data(&lv);
        let denom = n.max(1) as f32;
        let mut loss = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            debug_assert!(t < c, "target class out of range");
            let p = probs.data[i * c + t].max(1e-12);
            loss -= p.ln() as f64;
        }
        let targets = targets.to_vec();
        let ctx = self.ctx();
        self.push(
            ctx.scalar((loss / denom as f64) as f32),
            vec![logits.0],
            Some(Box::new(move |g: &Tensor| {
                let go = g.item();
                let mut dl = ctx.dirty(&probs.shape);
                for (i, &t) in targets.iter().enumerate() {
                    for j in 0..c {
                        let indicator = if j == t { 1.0 } else { 0.0 };
                        dl.data[i * c + j] = go * (probs.data[i * c + j] - indicator) / denom;
                    }
                }
                vec![dl]
            })),
        )
    }

    /// Mean Gaussian negative log-likelihood. The model predicts a mean and
    /// a log-standard-deviation per row (Design 2 of the paper: "output the
    /// parameters of a probability distribution, rather than a single
    /// numerical value"); the loss is `0.5·((x−μ)/σ)² + log σ + 0.5·log 2π`.
    ///
    /// `log σ` is soft-clamped to `[-7, 3]` (zero gradient outside): an
    /// unbounded head can drive σ into denormal/overflow territory, which
    /// both destabilizes training and makes the f32 kernels pathologically
    /// slow on denormals.
    pub fn gaussian_nll(&mut self, mean_v: Var, log_std: Var, target: &[f32]) -> Var {
        let mv = self.rc_value(mean_v);
        let sv = self.rc_value(log_std);
        let n = mv.len();
        assert_eq!(sv.len(), n, "log_std length");
        assert_eq!(target.len(), n, "target length");
        let denom = n.max(1) as f32;
        const HALF_LN_2PI: f64 = 0.918_938_533_204_672_7;
        let mut loss = 0.0f64;
        for ((&mu, &ls), &x) in mv.data.iter().zip(&sv.data).zip(target) {
            let ls = (ls as f64).clamp(-7.0, 3.0);
            let z = (x as f64 - mu as f64) * f64::exp(-ls);
            loss += 0.5 * z * z + ls + HALF_LN_2PI;
        }
        let target = target.to_vec();
        let mshape = mv.shape.clone();
        let sshape = sv.shape.clone();
        let ctx = self.ctx();
        self.push(
            ctx.scalar((loss / denom as f64) as f32),
            vec![mean_v.0, log_std.0],
            Some(Box::new(move |g: &Tensor| {
                let go = g.item();
                let mut dmu = ctx.dirty(&mshape);
                let mut dls = ctx.dirty(&sshape);
                let rows = mv.data.iter().zip(&sv.data).zip(&target);
                for ((dm, dl), ((&mu, &ls_raw), &x)) in
                    dmu.data.iter_mut().zip(dls.data.iter_mut()).zip(rows)
                {
                    let ls = ls_raw.clamp(-7.0, 3.0);
                    let inv_var = expf_glibc(-2.0 * ls);
                    // d/dμ [0.5 (x-μ)² e^{-2ls}] = (μ - x) e^{-2ls}
                    *dm = go * (mu - x) * inv_var / denom;
                    // d/dls = 1 - (x-μ)² e^{-2ls}; zero outside the clamp.
                    *dl = if ls_raw == ls {
                        go * (1.0 - (x - mu) * (x - mu) * inv_var) / denom
                    } else {
                        0.0
                    };
                }
                vec![dmu, dls]
            })),
        )
    }

    /// Mean squared error against constant targets.
    pub fn mse(&mut self, pred: Var, target: &[f32]) -> Var {
        let pv = self.rc_value(pred);
        let n = pv.len();
        assert_eq!(target.len(), n, "target length");
        let denom = n.max(1) as f32;
        let loss: f64 = pv
            .data
            .iter()
            .zip(target)
            .map(|(&p, &t)| {
                let d = (p - t) as f64;
                d * d
            })
            .sum::<f64>()
            / denom as f64;
        let target = target.to_vec();
        let shape = pv.shape.clone();
        let ctx = self.ctx();
        self.push(
            ctx.scalar(loss as f32),
            vec![pred.0],
            Some(Box::new(move |g: &Tensor| {
                let go = g.item();
                let mut dp = ctx.dirty(&shape);
                for ((d, &p), &t) in dp.data.iter_mut().zip(&pv.data).zip(&target) {
                    *d = go * 2.0 * (p - t) / denom;
                }
                vec![dp]
            })),
        )
    }

    // ---------------------------------------------------------------
    // Backward
    // ---------------------------------------------------------------

    /// Runs reverse-mode accumulation from `loss` (which must be scalar).
    /// After this call, [`Graph::grad`] returns `dloss/dleaf` for every
    /// leaf (input or parameter) that influences the loss; an inner node's
    /// gradient goes back to the arena as soon as its backward has run.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).len(),
            1,
            "backward() needs a scalar loss, got {:?}",
            self.value(loss).shape
        );
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        let mut seed = self.scratch.dirty(&self.value(loss).shape);
        seed.data[0] = 1.0;
        grads[loss.0] = Some(seed);
        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            if let Some(bw) = &node.backward {
                let parent_grads = bw(&g);
                debug_assert_eq!(parent_grads.len(), node.parents.len());
                for (&p, pg) in node.parents.iter().zip(parent_grads) {
                    match &mut grads[p] {
                        Some(existing) => {
                            existing.add_assign(&pg);
                            self.scratch.give(pg.data);
                        }
                        slot @ None => *slot = Some(pg),
                    }
                }
                // An inner node's gradient is spent once its parents have
                // theirs: its buffer serves the rest of the backward pass.
                self.scratch.give(g.data);
            } else {
                self.nodes[i].grad = Some(g);
            }
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
        a.shape.len() >= b.shape.len() && a.shape[a.shape.len() - b.shape.len()..] == b.shape[..],
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
    let mut out = x.clone();
    softmax_rows(&mut out.data, x.rows_cols().1, 1.0, false);
    out
}

/// The tape's softmax, in place over the `cols`-wide rows of `rows`: each
/// row scaled by `scale`, less its maximum, through one `exp` pass over
/// all rows, then times 1/Σ, summed in ascending order from 0.0. With
/// `causal`, row `i` keeps its first `i + 1` entries and the rest become
/// +0.0 (they enter the `exp` pass as −∞), exactly the result of a `−1e9`
/// additive mask. Scaling by 1.0 is exact.
fn softmax_rows(rows: &mut [f32], cols: usize, scale: f32, causal: bool) {
    let lim = |i: usize| if causal { i + 1 } else { cols };
    for (i, row) in rows.chunks_exact_mut(cols).enumerate() {
        let (live, masked) = row.split_at_mut(lim(i));
        let mut max = f32::NEG_INFINITY;
        for x in live.iter_mut() {
            *x *= scale;
            max = max.max(*x);
        }
        for x in live.iter_mut() {
            *x -= max;
        }
        masked.fill(f32::NEG_INFINITY);
    }
    exp_rows(rows);
    for (i, row) in rows.chunks_exact_mut(cols).enumerate() {
        let live = &mut row[..lim(i)];
        let mut sum = 0.0f32;
        for x in live.iter() {
            sum += *x;
        }
        let inv = 1.0 / sum;
        for x in live {
            *x *= inv;
        }
    }
}

/// The softmax backward, in place over the `cols`-wide rows of `d`: each
/// row's incoming gradient becomes `y ⊙ (d − Σ y·d)`, with `y` the same
/// row of the forward's probabilities.
fn softmax_grad_rows(y: &[f32], d: &mut [f32], cols: usize) {
    for (y, d) in y.chunks_exact(cols).zip(d.chunks_exact_mut(cols)) {
        let dot: f32 = y.iter().zip(d.iter()).map(|(y, d)| y * d).sum();
        for (d, y) in d.iter_mut().zip(y) {
            *d = y * (*d - dot);
        }
    }
}

/// One sequence of [`Graph::attention`]: its first row, its length and
/// where its `len × len` probabilities start in the op's score buffer.
struct Seq {
    row: usize,
    len: usize,
    at: usize,
}

impl Seq {
    /// The non-empty sequences of `lens`, rows one after another.
    fn cut(lens: &[usize]) -> Vec<Seq> {
        let (mut row, mut at) = (0, 0);
        let mut seqs = Vec::with_capacity(lens.len());
        for &len in lens {
            if len > 0 {
                seqs.push(Seq { row, len, at });
            }
            row += len;
            at += len * len;
        }
        seqs
    }

    /// The sequence's elements in a `[N, hd]` buffer.
    fn rows(&self, hd: usize) -> std::ops::Range<usize> {
        self.row * hd..(self.row + self.len) * hd
    }
}

/// `buf` cut into consecutive chunks of `sizes`.
fn split_by(mut buf: &mut [f32], sizes: impl Iterator<Item = usize>) -> Vec<&mut [f32]> {
    sizes
        .map(|n| {
            let (head, tail) = std::mem::take(&mut buf).split_at_mut(n);
            buf = tail;
            head
        })
        .collect()
}

/// Copies between rows `[R, H·hd]` — streams of `lens` rows, one after
/// another — and [`Graph::split_heads`]' head-major blocks `[H·R, hd]`:
/// rows into heads when `to_heads`, heads into rows otherwise.
fn permute_heads(
    src: &[f32],
    dst: &mut [f32],
    lens: &[usize],
    h: usize,
    hd: usize,
    to_heads: bool,
) {
    let mut row0 = 0;
    for &l in lens {
        for ti in 0..l {
            for hi in 0..h {
                let row = (row0 + ti) * h * hd + hi * hd;
                let head = (row0 * h + hi * l + ti) * hd;
                let (from, to) = if to_heads { (row, head) } else { (head, row) };
                dst[to..to + hd].copy_from_slice(&src[from..from + hd]);
            }
        }
        row0 += l;
    }
}

fn sigmoid_f(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + expf_glibc(-x))
    } else {
        let e = expf_glibc(x);
        e / (1.0 + e)
    }
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
        let m = g.linear(a, b, None);
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
        let loss = g.cross_entropy_logits(logits, &[0, 1]);
        // Row losses: -ln(softmax) of the target entries.
        let p0 = (2.0f64.exp()) / (2.0f64.exp() + 2.0);
        let p1 = (3.0f64.exp()) / (3.0f64.exp() + 2.0);
        let expect = -(p0.ln() + p1.ln()) / 2.0;
        assert!((g.value(loss).item() as f64 - expect).abs() < 1e-5);
    }

    #[test]
    fn gaussian_nll_minimized_at_target_mean() {
        // For fixed sigma, NLL at μ = x must be lower than at μ ≠ x.
        let at = |mu: f32| {
            let mut g = Graph::new();
            let m = g.input(Tensor::new(vec![mu], vec![1]));
            let s = g.input(Tensor::new(vec![0.0], vec![1]));
            let l = g.gaussian_nll(m, s, &[1.5]);
            g.value(l).item()
        };
        assert!(at(1.5) < at(0.0));
        assert!(at(1.5) < at(3.0));
        // Analytic value at μ=x, σ=1: 0.5·ln(2π).
        assert!((at(1.5) - 0.918_938_5).abs() < 1e-5);
    }

    #[test]
    fn tape_gelu_is_pinned_to_libm() {
        // Forward and backward spelled out against libm `tanh`, with the
        // association each of them uses; the upstream gradient is exactly 1.
        // The tape runs its own `tanh`, fdlibm's `tanhf`; where libm's is
        // another, the comparison is not made.
        if !crate::tensor::tests::libm_tanh_is_fdlibm() {
            eprintln!("tape GELU against libm not checked: libm's tanh is not fdlibm's tanhf");
            return;
        }
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
            let df =
                0.5 * (1.0 + th) + 0.5 * v * (1.0 - th * th) * C * (1.0 + 3.0 * 0.044715 * v * v);
            assert_eq!(g.value(y).data[i].to_bits(), f.to_bits(), "forward at {v}");
            assert_eq!(dx[i].to_bits(), df.to_bits(), "backward at {v}");
        }
    }

    #[test]
    fn gelu_backward_is_the_own_tanh_derivative_where_arguments_differ() {
        // The backward reuses the forward's `tanh` only where the two
        // associations of the argument round to the same f32. The sweep must
        // reach inputs where they do not, and the gradient must be the
        // derivative evaluated with its own libm `tanh` everywhere, times a
        // non-unit upstream gradient. Where libm's `tanh` is not fdlibm's
        // `tanhf`, which the tape runs, the comparison is not made.
        if !crate::tensor::tests::libm_tanh_is_fdlibm() {
            eprintln!(
                "tape GELU backward against libm not checked: libm's tanh is not fdlibm's tanhf"
            );
            return;
        }
        const C: f32 = 0.797_884_6;
        let f_arg = |v: f32| C * (v + 0.044715 * v * v * v);
        let df_arg = |v: f32| C * (v + 0.044715 * (v * v * v));
        let gelu_df = |v: f32| {
            let th = f32::tanh(df_arg(v));
            0.5 * (1.0 + th) + 0.5 * v * (1.0 - th * th) * C * (1.0 + 3.0 * 0.044715 * v * v)
        };
        let n = 1 << 16;
        let mut xs: Vec<f32> = (0..n).map(|i| -10.0 + 20.0 * i as f32 / n as f32).collect();
        let differ = xs
            .iter()
            .filter(|&&v| f_arg(v).to_bits() != df_arg(v).to_bits())
            .count();
        assert!(differ > 0, "the sweep never reaches differing arguments");
        let sub = f32::from_bits(1);
        let sub_max = f32::from_bits(0x007f_ffff);
        let inf = f32::INFINITY;
        xs.extend([0.0, -0.0, sub, -sub, sub_max, -sub_max, inf, -inf, f32::NAN]);
        let len = xs.len();
        let ups: Vec<f32> = (0..len).map(|i| [0.75, -1.5, 3.0, -0.125][i % 4]).collect();

        // loss = Σ gelu(x)·up, so the gradient reaching the GELU is `up`.
        let mut g = Graph::new();
        let x = g.input(Tensor::new(xs.clone(), vec![len]));
        let up = g.input(Tensor::new(ups.clone(), vec![len]));
        let y = g.gelu(x);
        let weighted = g.mul(y, up);
        let mean = g.mean_all(weighted);
        let loss = g.scale(mean, len as f32);
        g.backward(loss);
        let dx = &g.grad(x).expect("input gradient").data;
        for ((&v, &u), &got) in xs.iter().zip(&ups).zip(dx) {
            let want = u * gelu_df(v);
            if want.is_nan() {
                // ±∞ (∞·0) and NaN; the NaN payload is not part of the contract.
                assert!(got.is_nan(), "backward at {v}: {got}, want NaN");
            } else {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "backward at {v}: {got} vs {want}"
                );
            }
        }
    }

    /// `x·w (+ b)` as `Linear::forward` spelled it before [`Graph::linear`]
    /// took a bias and leading dims: reshape to rows, a bias-free 2-D
    /// `linear`, a broadcast add, and a reshape back.
    fn linear_chain(g: &mut Graph, x: Var, w: Var, b: Option<Var>) -> Var {
        let mut shape = g.value(x).shape.clone();
        let (k, n) = (g.value(w).shape[0], g.value(w).shape[1]);
        let rows = g.value(x).len() / k;
        let x2 = g.reshape(x, &[rows, k]);
        let mut y = g.linear(x2, w, None);
        if let Some(b) = b {
            y = g.add(y, b);
        }
        *shape.last_mut().expect("rank >= 1") = n;
        g.reshape(y, &shape)
    }

    #[test]
    fn linear_is_the_reshape_linear_add_chain_bit_for_bit() {
        // One to three projections of one input (three: as Q, K and V read
        // `ln1`'s output), combined so every output reaches the loss. Values
        // and every parent gradient must match the chain to the bit, which
        // also pins the order gradients accumulate into the shared input.
        type Build = fn(&mut Graph, Var, Var, Option<Var>) -> Var;
        for x_shape in [vec![6, 5], vec![2, 3, 5]] {
            for bias in [false, true] {
                for fanout in [1, 3] {
                    let mut rng = StdRng::seed_from_u64(41);
                    let x0 = Tensor::randn(&x_shape, 1.0, &mut rng);
                    let params: Vec<(Tensor, Tensor)> = (0..fanout)
                        .map(|_| {
                            let w = Tensor::randn(&[5, 4], 0.5, &mut rng);
                            (w, Tensor::randn(&[4], 0.5, &mut rng))
                        })
                        .collect();
                    let run = |build: Build| -> Vec<Tensor> {
                        let mut g = Graph::new();
                        let x = g.input(x0.clone());
                        let mut leaves = vec![x];
                        let mut ys = Vec::new();
                        for (w0, b0) in &params {
                            let w = g.input(w0.clone());
                            let b = bias.then(|| g.input(b0.clone()));
                            ys.push(build(&mut g, x, w, b));
                            leaves.push(w);
                            leaves.extend(b);
                        }
                        let mut s = ys[0];
                        for &y in &ys[1..] {
                            let p = g.mul(s, y);
                            s = g.add(p, y);
                        }
                        let sq = g.mul(s, s);
                        let loss = g.mean_all(sq);
                        g.backward(loss);
                        let values = ys.iter().map(|&y| g.value(y).clone());
                        let grads = leaves
                            .iter()
                            .map(|&v| g.grad(v).expect("leaf gradient").clone());
                        values.chain(grads).collect()
                    };
                    let (fused, chain) = (run(Graph::linear), run(linear_chain));
                    assert_eq!(fused.len(), chain.len());
                    for (i, (a, b)) in fused.iter().zip(&chain).enumerate() {
                        let what =
                            format!("x {x_shape:?}, bias {bias}, fan-out {fanout}, tensor {i}");
                        assert_eq!(a.shape, b.shape, "{what}");
                        let bits =
                            |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(a), bits(b), "{what}");
                    }
                }
            }
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
        let x = Tensor::randn(&[6, 8], 1.0, &mut rng);
        let mut g = Graph::new();
        let v = g.input(x.clone());
        let s = g.split_heads(v, 4, &[2, 1, 3]);
        assert_eq!(g.value(s).shape, vec![24, 2]);
        // Stream 1 (row 2) starts after stream 0's four heads of 2 rows;
        // its head 3 is features 6..8 of that row.
        assert_eq!(g.value(s).data[2 * 8..2 * 8 + 2], x.data[2 * 8..2 * 8 + 2]);
        assert_eq!(
            g.value(s).data[(8 + 3) * 2..(8 + 3) * 2 + 2],
            x.data[2 * 8 + 6..3 * 8]
        );
        let m = g.merge_heads(s, 4, &[2, 1, 3]);
        assert_eq!(g.value(m).shape, vec![6, 8]);
        assert_eq!(g.value(m).data, x.data);
    }

    #[test]
    fn gather_rows_forward_and_backward() {
        let mut g = Graph::new();
        let p = g.input(Tensor::new((0..12).map(|x| x as f32).collect(), vec![4, 3]));
        let s = g.gather_rows(p, &[0, 1, 0]);
        assert_eq!(
            g.value(s).data,
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 1.0, 2.0]
        );
        let loss = g.mean_all(s);
        g.backward(loss);
        let dp = g.grad(p).unwrap();
        // Row 0 was gathered twice, row 1 once, rows 2 and 3 never.
        assert!((dp.data[0] - 2.0 / 9.0).abs() < 1e-6);
        assert!((dp.data[3] - 1.0 / 9.0).abs() < 1e-6);
        assert_eq!(dp.data[6..12], [0.0; 6]);
    }

    /// Packed sequences are a padded batch without its padding: each
    /// sequence's attention output and input gradients, bit for bit, are
    /// those of the same sequence alone.
    #[test]
    fn packed_attention_is_each_sequence_alone_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(41);
        let (lens, hd) = ([2usize, 7, 13], 5);
        let n: usize = lens.iter().sum();
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::randn(&[n, hd], 0.7, &mut rng))
            .collect();
        // Rows `row..row + Σ lens` of q, k, v and a loss weight w; the loss
        // is Σ o·w, so every gradient is exact whatever the row count.
        let run = |row: usize, lens: &[usize]| -> Vec<Vec<u32>> {
            let rows: usize = lens.iter().sum();
            let mut g = Graph::new();
            let [q, k, v, w] = [0, 1, 2, 3].map(|i| {
                let data = inputs[i].data[row * hd..(row + rows) * hd].to_vec();
                g.input(Tensor::new(data, vec![rows, hd]))
            });
            let o = g.attention(q, k, v, 0.4, true, lens);
            let y = g.mul(o, w);
            let mean = g.mean_all(y);
            let loss = g.weighted_sum(&[(mean, (rows * hd) as f32)]);
            g.backward(loss);
            let bits = |t: &Tensor| t.data.iter().map(|x| x.to_bits()).collect();
            let mut parts = vec![bits(g.value(o))];
            parts.extend([q, k, v].map(|x| bits(g.grad(x).unwrap())));
            parts
        };
        let packed = run(0, &lens);
        let mut row = 0;
        for &l in &lens {
            for (part, alone) in run(row, &[l]).iter().enumerate() {
                assert_eq!(
                    &packed[part][row * hd..(row + l) * hd],
                    &alone[..],
                    "stream of {l}, part {part}"
                );
            }
            row += l;
        }
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
            let of = gf.attention(qf, kf, vf, scale, causal, &vec![t; bh]);
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
            let m = g.linear(a, b, None);
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
