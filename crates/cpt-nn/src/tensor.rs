//! Dense row-major `f32` tensors and the kernels training needs.

use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A dense row-major tensor of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    /// Flat row-major storage; `data.len() == shape.iter().product()`.
    pub data: Vec<f32>,
    /// Dimension sizes, outermost first.
    pub shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from flat data and a shape. Panics on size
    /// mismatch.
    pub fn new(data: Vec<f32>, shape: Vec<usize>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { data, shape }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor {
            data: vec![1.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: vec![],
        }
    }

    /// Standard-normal initialized tensor scaled by `std`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut impl Rng) -> Self {
        let n = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            // Box–Muller, two at a time.
            let u1: f32 = 1.0 - rng.gen::<f32>();
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (std::f32::consts::TAU * u2).sin_cos();
            data.push(r * c * std);
            if data.len() < n {
                data.push(r * s * std);
            }
        }
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rank (number of dimensions); scalars have rank 0.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// The single value of a scalar/one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on non-scalar {:?}", self.shape);
        self.data[0]
    }

    /// Returns a reshaped copy sharing the same element order. Panics if
    /// the element count changes.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.len(),
            shape.iter().product::<usize>(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        Tensor {
            data: self.data.iter().map(|x| f(*x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise binary op with an equal-shaped tensor.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| f(*a, *b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// In-place `self += other` (equal shapes).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self *= c`.
    pub fn scale_assign(&mut self, c: f32) {
        for a in &mut self.data {
            *a *= c;
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|x| *x as f64).sum::<f64>() as f32
    }

    /// Sum of squares of all elements.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|x| (*x as f64) * (*x as f64)).sum()
    }

    /// Splits the shape into (leading batch elements, last dim). A rank-1
    /// tensor is (1, n).
    pub fn rows_cols(&self) -> (usize, usize) {
        assert!(self.rank() >= 1, "rows_cols on scalar");
        let cols = *self.shape.last().expect("rank >= 1");
        (self.len() / cols.max(1), cols)
    }

    /// 2-D matrix multiply: `[m,k] x [k,n] -> [m,n]`. Rank-checked.
    /// Uses the cache-blocked, B-packed kernel; parallelized over row
    /// blocks with rayon when large enough.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be 2-D, got {:?}", self.shape);
        assert_eq!(other.rank(), 2, "matmul rhs must be 2-D, got {:?}", other.shape);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims: {:?} x {:?}", self.shape, other.shape);
        let mut out = vec![0.0f32; m * n];
        matmul_into(&self.data, &other.data, &mut out, m, k, n);
        Tensor {
            data: out,
            shape: vec![m, n],
        }
    }

    /// Batched matrix multiply on rank-3 tensors:
    /// `[b,m,k] x [b,k,n] -> [b,m,n]`.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm lhs must be 3-D");
        assert_eq!(other.rank(), 3, "bmm rhs must be 3-D");
        let (b, m, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, n) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm batch mismatch");
        assert_eq!(k, k2, "bmm inner dim mismatch");
        let mut out = vec![0.0f32; b * m * n];
        self.bmm_into(other, &mut out);
        Tensor {
            data: out,
            shape: vec![b, m, n],
        }
    }

    /// [`Tensor::bmm`] writing into a caller-provided buffer of
    /// `b * m * n` elements (overwritten entirely).
    pub fn bmm_into(&self, other: &Tensor, out: &mut [f32]) {
        let (b, m, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let n = other.shape[2];
        assert_eq!(out.len(), b * m * n, "bmm_into output size");
        let use_fma = fma_available();
        out.par_chunks_mut(m * n)
            .zip(self.data.par_chunks(m * k).zip(other.data.par_chunks(k * n)))
            .for_each(|(o, (a, bm))| {
                let mut packed = take_pack_buf();
                pack_b(bm, k, n, &mut packed);
                matmul_rows(a, &packed, o, 0, m, k, n, use_fma);
                return_pack_buf(packed);
            });
    }

    /// 2-D transpose `[m,n] -> [n,m]`, cache-blocked.
    pub fn t2(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "t2 needs rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        transpose_block(&self.data, &mut out, m, n);
        Tensor {
            data: out,
            shape: vec![n, m],
        }
    }

    /// [`Tensor::t2`] writing into a caller-provided buffer.
    pub fn t2_into(&self, out: &mut [f32]) {
        assert_eq!(self.rank(), 2, "t2 needs rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert_eq!(out.len(), m * n, "t2_into output size");
        transpose_block(&self.data, out, m, n);
    }

    /// Transpose of the last two dims of a rank-3 tensor:
    /// `[b,m,n] -> [b,n,m]`, cache-blocked per batch slice.
    pub fn transpose_last2(&self) -> Tensor {
        assert_eq!(self.rank(), 3, "transpose_last2 needs rank 3");
        let (b, m, n) = (self.shape[0], self.shape[1], self.shape[2]);
        let mut out = vec![0.0f32; b * m * n];
        self.transpose_last2_into(&mut out);
        Tensor {
            data: out,
            shape: vec![b, n, m],
        }
    }

    /// [`Tensor::transpose_last2`] writing into a caller-provided buffer.
    pub fn transpose_last2_into(&self, out: &mut [f32]) {
        let (b, m, n) = (self.shape[0], self.shape[1], self.shape[2]);
        assert_eq!(out.len(), b * m * n, "transpose_last2_into output size");
        for (src, dst) in self.data.chunks(m * n).zip(out.chunks_mut(m * n)) {
            transpose_block(src, dst, m, n);
        }
    }
}

// ---------------------------------------------------------------------------
// Matmul kernels: cache-blocked, B-packed, register-tiled.
//
// B is packed into column panels of NR floats (zero-padded past n) so the
// microkernel streams contiguous, aligned-enough memory regardless of n.
// The MR x NR microkernel keeps its accumulator tile in registers and
// accumulates over k in ascending order starting from 0.0 for every output
// element — exactly the order of the serial `matmul_reference` — so the
// base (non-FMA) path is bit-identical to the reference for any blocking
// or row partition. The FMA path keeps the same order but fuses each
// multiply-add into one rounding; it is still deterministic (same machine,
// same inputs, any thread count ⇒ same bits) and agrees with the reference
// to ~2 ULP (asserted at 1e-5 relative in tests).
// ---------------------------------------------------------------------------

/// Rows of A per microkernel call.
const MR: usize = 4;
/// Columns of B per packed panel.
const NR: usize = 16;
/// Minimum m*k*n before matmul forks to rayon.
const PAR_FLOPS_THRESHOLD: usize = 64 * 64 * 64;

/// Whether the AVX2+FMA microkernel is usable on this machine (checked
/// once). Non-x86_64 builds always use the portable kernel.
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_available() -> bool {
    static FMA: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FMA.get_or_init(|| {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    })
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn fma_available() -> bool {
    false
}

std::thread_local! {
    static PACK_BUF: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Takes the thread-local packing buffer by value (ownership moves out, so
/// no `RefCell` borrow is held while rayon may steal work onto this
/// thread; a stolen nested matmul simply allocates a fresh buffer).
fn take_pack_buf() -> Vec<f32> {
    PACK_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()))
}

fn return_pack_buf(buf: Vec<f32>) {
    PACK_BUF.with(|b| {
        let mut slot = b.borrow_mut();
        if slot.capacity() < buf.capacity() {
            *slot = buf;
        }
    });
}

/// Packs `b` (`[k, n]` row-major) into column panels: panel `p` covers
/// columns `p*NR..(p+1)*NR` and stores `k` consecutive rows of `NR` floats,
/// zero-padded past `n`. Layout: `packed[p * k * NR + kk * NR + j]`.
pub(crate) fn pack_b(b: &[f32], k: usize, n: usize, packed: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    packed.clear();
    packed.resize(panels * k * NR, 0.0);
    for p in 0..panels {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let dst = &mut packed[p * k * NR..(p + 1) * k * NR];
        for kk in 0..k {
            dst[kk * NR..kk * NR + w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
        }
    }
}

/// Portable MR-row microkernel: per-element ascending-k accumulation from
/// zero, bit-identical to `matmul_reference`.
#[inline(always)]
fn micro4_base(a: &[f32], panel: &[f32], k: usize, lda: usize, i: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let bp = &panel[kk * NR..kk * NR + NR];
        for r in 0..MR {
            let arv = a[(i + r) * lda + kk];
            let accr = &mut acc[r];
            for j in 0..NR {
                accr[j] += arv * bp[j];
            }
        }
    }
    acc
}

#[inline(always)]
fn micro1_base(a: &[f32], panel: &[f32], k: usize, lda: usize, row: usize) -> [f32; NR] {
    let mut acc = [0.0f32; NR];
    for kk in 0..k {
        let bp = &panel[kk * NR..kk * NR + NR];
        let arv = a[row * lda + kk];
        for j in 0..NR {
            acc[j] += arv * bp[j];
        }
    }
    acc
}

/// AVX2+FMA microkernel: same ascending-k order, but `mul_add` fuses each
/// step into one rounding (vfmadd231ps), roughly doubling throughput.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro4_fma(a: &[f32], panel: &[f32], k: usize, lda: usize, i: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let bp = &panel[kk * NR..kk * NR + NR];
        for r in 0..MR {
            let arv = a[(i + r) * lda + kk];
            let accr = &mut acc[r];
            for j in 0..NR {
                accr[j] = arv.mul_add(bp[j], accr[j]);
            }
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro1_fma(a: &[f32], panel: &[f32], k: usize, lda: usize, row: usize) -> [f32; NR] {
    let mut acc = [0.0f32; NR];
    for kk in 0..k {
        let bp = &panel[kk * NR..kk * NR + NR];
        let arv = a[row * lda + kk];
        for j in 0..NR {
            acc[j] = arv.mul_add(bp[j], acc[j]);
        }
    }
    acc
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn micro4_fma(a: &[f32], panel: &[f32], k: usize, lda: usize, i: usize) -> [[f32; NR]; MR] {
    micro4_base(a, panel, k, lda, i)
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn micro1_fma(a: &[f32], panel: &[f32], k: usize, lda: usize, row: usize) -> [f32; NR] {
    micro1_base(a, panel, k, lda, row)
}

/// Computes output rows `i0..i0 + rows` (as the `out` slice, stride `n`)
/// from the full `a` matrix and pre-packed `b` panels. Each output row's
/// accumulation is independent of how rows are grouped into MR-tiles, so
/// any row partition yields bit-identical results.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_rows(
    a: &[f32],
    packed: &[f32],
    out: &mut [f32],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
    use_fma: bool,
) {
    let panels = n.div_ceil(NR);
    let mut r = 0;
    while r + MR <= rows {
        for p in 0..panels {
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            let acc = if use_fma {
                unsafe { micro4_fma(a, panel, k, k, i0 + r) }
            } else {
                micro4_base(a, panel, k, k, i0 + r)
            };
            let j0 = p * NR;
            let w = NR.min(n - j0);
            for (rr, acc_row) in acc.iter().enumerate() {
                out[(r + rr) * n + j0..(r + rr) * n + j0 + w].copy_from_slice(&acc_row[..w]);
            }
        }
        r += MR;
    }
    while r < rows {
        for p in 0..panels {
            let panel = &packed[p * k * NR..(p + 1) * k * NR];
            let acc = if use_fma {
                unsafe { micro1_fma(a, panel, k, k, i0 + r) }
            } else {
                micro1_base(a, panel, k, k, i0 + r)
            };
            let j0 = p * NR;
            let w = NR.min(n - j0);
            out[r * n + j0..r * n + j0 + w].copy_from_slice(&acc[..w]);
        }
        r += 1;
    }
}

/// `out = a x b` for row-major 2-D data through the packed kernel,
/// rayon-parallel over MR-aligned row blocks for large problems.
/// Overwrites `out` entirely. Packs `b` on every call, which is right when
/// `b` changes between calls (training, activations × activations);
/// inference over fixed weights goes through `Linear::apply_rows_into`,
/// which packs once per weight version.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let use_fma = fma_available();
    let mut packed = take_pack_buf();
    pack_b(b, k, n, &mut packed);
    if m * k * n >= PAR_FLOPS_THRESHOLD {
        // MR-aligned row blocks sized so each rayon thread gets a few
        // tasks; the partition never changes the per-row bit pattern.
        let threads = rayon::current_num_threads().max(1);
        let target_blocks = threads * 4;
        let block_rows = (m.div_ceil(target_blocks)).next_multiple_of(MR);
        out.par_chunks_mut(block_rows * n)
            .enumerate()
            .for_each(|(blk, chunk)| {
                let i0 = blk * block_rows;
                matmul_rows(a, &packed, chunk, i0, chunk.len() / n, k, n, use_fma);
            });
    } else {
        matmul_rows(a, &packed, out, 0, m, k, n, use_fma);
    }
    return_pack_buf(packed);
}

/// Serial reference matmul (branchless ikj): `out = a x b`. This is the
/// ground truth for the kernel tests — the packed base path must match it
/// to 0 ULP; the FMA path to 1e-5 relative.
pub fn matmul_reference(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for o in out_row.iter_mut() {
            *o = 0.0;
        }
        for kk in 0..k {
            let aik = a[i * k + kk];
            let brow = &b[kk * n..kk * n + n];
            for (o, bv) in out_row.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// int8 per-output-channel quantized weights for the batched decode path.
//
// Weights are quantized once (per output column j: scale[j] =
// max|B[:,j]| / 127, q = round(B / scale)) into the same NR-wide column
// panels the f32 kernel packs, so the quantized microkernel streams the
// identical memory layout. Accumulation stays in f32 over the dequantized
// products a[i,k] * (q as f32), and the per-column scale multiplies once at
// writeback — the error is therefore bounded by the weight rounding alone
// (|ΔB[:,j]| ≤ scale[j]/2 per entry), not by accumulator saturation. This
// path makes no bit-identity claim; it trades ≤0.4% per-channel weight
// rounding for 4× smaller weight traffic.
// ---------------------------------------------------------------------------

/// A `[k, n]` weight matrix quantized to int8 per output column and packed
/// into NR-wide panels (layout `packed[p * k * NR + kk * NR + j]`, matching
/// [`pack_b`]). Build once with [`QuantizedMatrix::quantize`], then apply
/// with [`matmul_quant_into`].
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    packed: Vec<i8>,
    scales: Vec<f32>,
    k: usize,
    n: usize,
}

impl QuantizedMatrix {
    /// Quantizes row-major `b` (`[k, n]`). Per column `j`, `scale[j] =
    /// max|b[:, j]| / 127` (an all-zero column gets scale 0 and stays
    /// exactly zero).
    pub fn quantize(b: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "quantize: data/shape mismatch");
        let mut scales = vec![0.0f32; n];
        for j in 0..n {
            let mut maxabs = 0.0f32;
            for kk in 0..k {
                maxabs = maxabs.max(b[kk * n + j].abs());
            }
            scales[j] = maxabs / 127.0;
        }
        let panels = n.div_ceil(NR);
        let mut packed = vec![0i8; panels * k * NR];
        for p in 0..panels {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let dst = &mut packed[p * k * NR..(p + 1) * k * NR];
            for kk in 0..k {
                for jj in 0..w {
                    let j = j0 + jj;
                    let s = scales[j];
                    dst[kk * NR + jj] = if s > 0.0 {
                        (b[kk * n + j] / s).round().clamp(-127.0, 127.0) as i8
                    } else {
                        0
                    };
                }
            }
        }
        QuantizedMatrix {
            packed,
            scales,
            k,
            n,
        }
    }

    /// Inner dimension (rows of the original matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension (columns of the original matrix).
    pub fn n(&self) -> usize {
        self.n
    }
}

/// `out = a x dequant(qb)` for row-major `a` (`[m, k]`), f32 accumulation
/// over the int8 panels with the per-column scale applied once at
/// writeback. Overwrites `out` entirely. Serial — callers batch rows
/// instead of forking (decode batches are far below the rayon threshold).
pub fn matmul_quant_into(a: &[f32], qb: &QuantizedMatrix, out: &mut [f32], m: usize) {
    let (k, n) = (qb.k, qb.n);
    assert_eq!(a.len(), m * k, "matmul_quant_into: lhs size");
    assert_eq!(out.len(), m * n, "matmul_quant_into: out size");
    let panels = n.div_ceil(NR);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for p in 0..panels {
            let panel = &qb.packed[p * k * NR..(p + 1) * k * NR];
            let mut acc = [0.0f32; NR];
            for (kk, &arv) in arow.iter().enumerate() {
                let bp = &panel[kk * NR..kk * NR + NR];
                for j in 0..NR {
                    acc[j] += arv * bp[j] as f32;
                }
            }
            let j0 = p * NR;
            let w = NR.min(n - j0);
            for jj in 0..w {
                orow[j0 + jj] = acc[jj] * qb.scales[j0 + jj];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row kernels: elementwise functions of the gradient-free decode path.
//
// A lane function is a fixed sequence of correctly-rounded IEEE operations
// (+ − × ÷, a clamp and a select; no libm call, no `mul_add`), so its result
// is a function of the input bits alone: independent of the vector width it
// is compiled at, of the element's position in the slice, and of which libm
// is linked. The row loop is written once and compiled twice, like the
// microkernels above.
// ---------------------------------------------------------------------------

/// `tanh` as an odd 13th-degree over even 6th-degree rational minimax (the
/// coefficients Eigen and XLA ship for `f32`), within 4e-7 of the f64 `tanh`
/// everywhere. The clamp is the smallest argument at which the rational
/// evaluates to exactly ±1 without fused multiply-adds, which is why every
/// step below is a separate multiply and add; NaN passes through the clamp.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_311;
    const TINY: f32 = 0.0004;
    const A1: f32 = 4.893_524_6e-3;
    const A3: f32 = 6.372_619_5e-4;
    const A5: f32 = 1.485_722_35e-5;
    const A7: f32 = 5.122_297_3e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_4e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_7e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let mut p = x2 * A13 + A11;
    p = x2 * p + A9;
    p = x2 * p + A7;
    p = x2 * p + A5;
    p = x2 * p + A3;
    p = x2 * p + A1;
    let mut q = x2 * B6 + B4;
    q = x2 * q + B2;
    q = x2 * q + B0;
    // Both sides are computed so the choice is a lane select, not a branch.
    // Below TINY tanh(x) = x to f32 precision, and x keeps the sign of zero.
    let r = x * p / q;
    if x.abs() < TINY {
        x
    } else {
        r
    }
}

/// GELU (tanh approximation) of one element: the lane function of
/// [`gelu_rows`] and the scalar definition of the decode path's activation.
/// Within 2e-6·max(1, |x|) of the f64 formula; `±0 → ±0`; a non-finite
/// input gives a non-finite output (the serve-time divergence trip-wire
/// reads it).
#[inline(always)]
fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + tanh_lane(C * (x + 0.044715 * x * x * x)))
}

/// The row loop, written once; [`gelu_rows_avx2`] is the same source
/// compiled 8-wide.
#[inline(always)]
fn gelu_rows_portable(xs: &mut [f32]) {
    for v in xs {
        *v = gelu_scalar(*v);
    }
}

/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_rows_avx2(xs: &mut [f32]) {
    gelu_rows_portable(xs)
}

/// In-place GELU over a slice: the activation of the gradient-free decode
/// path (block MLP and output heads). Elementwise, and bit-identical
/// between the portable and the AVX2 compilation for every non-NaN input,
/// so a row's result does not depend on the batch around it or on the
/// machine. Training uses the tape's own libm GELU (`graph.rs`).
pub fn gelu_rows(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` checked at run time that this CPU has
        // AVX2, the only feature `gelu_rows_avx2` enables.
        return unsafe { gelu_rows_avx2(xs) };
    }
    gelu_rows_portable(xs)
}

/// Cache-blocked 2-D transpose: `dst[j, i] = src[i, j]` for `[m, n]` src.
fn transpose_block(src: &[f32], dst: &mut [f32], m: usize, n: usize) {
    const TB: usize = 32;
    let mut ii = 0;
    while ii < m {
        let im = (ii + TB).min(m);
        let mut jj = 0;
        while jj < n {
            let jm = (jj + TB).min(n);
            for i in ii..im {
                for j in jj..jm {
                    dst[j * m + i] = src[i * n + j];
                }
            }
            jj = jm;
        }
        ii = im;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_basics() {
        let t = Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.rows_cols(), (2, 3));
        assert_eq!(t.sum(), 21.0);
        let z = Tensor::zeros(&[3, 2]);
        assert_eq!(z.sum(), 0.0);
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn construction_rejects_bad_shape() {
        Tensor::new(vec![1.0, 2.0], vec![3]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let b = Tensor::new(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], vec![3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape, vec![2, 2]);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Tensor::randn(&[4, 4], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.data[i * 4 + i] = 1.0;
        }
        let b = a.matmul(&eye);
        for (x, y) in a.data.iter().zip(&b.data) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_parallel_bit_identical_to_serial_kernel() {
        let mut rng = StdRng::seed_from_u64(2);
        // Above the parallel threshold, so matmul() takes the rayon path.
        let (m, k, n) = (80, 70, 90);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let big = a.matmul(&b);
        let mut packed = Vec::new();
        pack_b(&b.data, k, n, &mut packed);
        let mut serial = vec![0.0; m * n];
        matmul_rows(&a.data, &packed, &mut serial, 0, m, k, n, fma_available());
        for (x, y) in big.data.iter().zip(&serial) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matmul_base_kernel_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (17, 33, 31), (64, 64, 64), (5, 128, 130)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let mut reference = vec![0.0; m * n];
            matmul_reference(&a.data, &b.data, &mut reference, m, k, n);
            let mut packed = Vec::new();
            pack_b(&b.data, k, n, &mut packed);
            let mut blocked = vec![0.0; m * n];
            matmul_rows(&a.data, &packed, &mut blocked, 0, m, k, n, false);
            for (x, y) in reference.iter().zip(&blocked) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn matmul_dispatched_within_tolerance_of_reference() {
        // The FMA path fuses mul+add into one rounding; the documented
        // contract is 1e-5 relative agreement with the serial reference.
        let mut rng = StdRng::seed_from_u64(8);
        for (m, k, n) in [(128, 128, 128), (33, 257, 65)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let c = a.matmul(&b);
            let mut reference = vec![0.0; m * n];
            matmul_reference(&a.data, &b.data, &mut reference, m, k, n);
            for (x, y) in reference.iter().zip(&c.data) {
                let rel = (x - y).abs() / x.abs().max(1.0);
                assert!(rel < 1e-5, "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    /// The tanh-GELU formula in f64.
    fn gelu_reference(x: f64) -> f64 {
        let c = (2.0 / std::f64::consts::PI).sqrt();
        0.5 * x * (1.0 + f64::tanh(c * (x + 0.044715 * x * x * x)))
    }

    /// A dense sweep of [−30, 30], then both signs of every 4099th `f32`
    /// from zero through the subnormals up to 30 (bit patterns are
    /// log-spaced).
    fn gelu_sweep() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=600_000).map(|i| -30.0 + i as f32 * 1e-4).collect();
        for bits in (0..=30.0f32.to_bits()).step_by(4099) {
            xs.extend([f32::from_bits(bits), -f32::from_bits(bits)]);
        }
        xs
    }

    #[test]
    fn gelu_rows_tracks_the_f64_formula() {
        let xs = gelu_sweep();
        let mut ys = xs.clone();
        gelu_rows(&mut ys);
        for (&x, &y) in xs.iter().zip(&ys) {
            let err = (y as f64 - gelu_reference(x as f64)).abs();
            assert!(err <= 2e-6 * (x.abs() as f64).max(1.0), "gelu({x:e}) = {y:e}, off by {err:e}");
            assert_eq!(tanh_lane(-x).to_bits(), (-tanh_lane(x)).to_bits(), "tanh odd at {x:e}");
            assert!((tanh_lane(x) as f64 - f64::tanh(x as f64)).abs() <= 4e-7, "tanh({x:e})");
        }
        assert_eq!(gelu_scalar(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(gelu_scalar(-0.0).to_bits(), (-0.0f32).to_bits());
        // The clamp sits where the rational reaches exactly ±1, so the
        // saturated tails are exact: x on the right, −0 on the left.
        assert_eq!(tanh_lane(7.905_311), 1.0);
        assert_eq!(gelu_scalar(30.0), 30.0);
        assert_eq!(gelu_scalar(-30.0).to_bits(), (-0.0f32).to_bits());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gelu_rows_avx2_bit_identical_to_portable() {
        if !fma_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(21);
        let mut pool = gelu_sweep();
        pool.extend(Tensor::randn(&[4096], 3.0, &mut rng).data);
        pool.extend([f32::MAX, f32::MIN, f32::MIN_POSITIVE, 1e-45, f32::INFINITY, f32::NEG_INFINITY]);
        for len in [0, 1, 7, 8, 9, 1023, pool.len()] {
            // Ragged lengths taken from the end, where the edge values are.
            let src = &pool[pool.len() - len..];
            let mut portable = src.to_vec();
            gelu_rows_portable(&mut portable);
            let mut wide = src.to_vec();
            // SAFETY: `fma_available` returned true above, so AVX2 is present.
            unsafe { gelu_rows_avx2(&mut wide) };
            for ((x, a), b) in src.iter().zip(&portable).zip(&wide) {
                assert_eq!(a.to_bits(), b.to_bits(), "len {len}: gelu({x:e}) = {a:e} vs {b:e}");
            }
        }
    }

    #[test]
    fn gelu_rows_keeps_non_finite_inputs_non_finite() {
        let mut xs = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0];
        gelu_rows(&mut xs);
        assert!(xs[0].is_nan());
        assert_eq!(xs[1], f32::INFINITY);
        assert!(!xs[2].is_finite());
        assert!(xs[3].is_finite());
        let mut portable = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        gelu_rows_portable(&mut portable);
        assert!(portable.iter().all(|v| !v.is_finite()));
    }

    #[test]
    fn bmm_matches_per_slice_matmul() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn(&[3, 4, 5], 1.0, &mut rng);
        let b = Tensor::randn(&[3, 5, 2], 1.0, &mut rng);
        let c = a.bmm(&b);
        assert_eq!(c.shape, vec![3, 4, 2]);
        for bi in 0..3 {
            let a2 = Tensor::new(a.data[bi * 20..(bi + 1) * 20].to_vec(), vec![4, 5]);
            let b2 = Tensor::new(b.data[bi * 10..(bi + 1) * 10].to_vec(), vec![5, 2]);
            let c2 = a2.matmul(&b2);
            for (x, y) in c2.data.iter().zip(&c.data[bi * 8..(bi + 1) * 8]) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn transposes() {
        let a = Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let t = a.t2();
        assert_eq!(t.shape, vec![3, 2]);
        assert_eq!(t.data, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let b = Tensor::new((0..12).map(|x| x as f32).collect(), vec![2, 2, 3]);
        let bt = b.transpose_last2();
        assert_eq!(bt.shape, vec![2, 3, 2]);
        assert_eq!(
            bt.data,
            vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0, 6.0, 9.0, 7.0, 10.0, 8.0, 11.0]
        );
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Tensor::randn(&[100_000], 2.0, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var = t.data.iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn map_zip_add_scale() {
        let a = Tensor::new(vec![1.0, -2.0], vec![2]);
        let b = Tensor::new(vec![3.0, 5.0], vec![2]);
        assert_eq!(a.map(f32::abs).data, vec![1.0, 2.0]);
        assert_eq!(a.zip(&b, |x, y| x * y).data, vec![3.0, -10.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data, vec![4.0, 3.0]);
        c.scale_assign(0.5);
        assert_eq!(c.data, vec![2.0, 1.5]);
    }

    #[test]
    fn quantized_matmul_tracks_reference_within_scale_bound() {
        let mut rng = StdRng::seed_from_u64(11);
        for (m, k, n) in [(1, 16, 32), (7, 33, 17), (64, 32, 48)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 0.5, &mut rng);
            let qb = QuantizedMatrix::quantize(&b.data, k, n);
            let mut quant = vec![0.0; m * n];
            matmul_quant_into(&a.data, &qb, &mut quant, m);
            let mut reference = vec![0.0; m * n];
            matmul_reference(&a.data, &b.data, &mut reference, m, k, n);
            // Each weight entry is off by at most scale/2 ≈ maxabs/254,
            // so the output error is bounded by sum_k |a| * scale/2.
            for i in 0..m {
                let amass: f32 = a.data[i * k..(i + 1) * k].iter().map(|x| x.abs()).sum();
                for j in 0..n {
                    let bound = amass * (b.data.iter().fold(0.0f32, |acc, x| acc.max(x.abs())) / 254.0) + 1e-4;
                    let err = (quant[i * n + j] - reference[i * n + j]).abs();
                    assert!(err <= bound, "{m}x{k}x{n} [{i},{j}]: err {err} > bound {bound}");
                }
            }
        }
    }

    #[test]
    fn quantized_matmul_zero_column_stays_zero_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(12);
        let (m, k, n) = (5, 8, 20);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let mut b = Tensor::randn(&[k, n], 1.0, &mut rng);
        for kk in 0..k {
            b.data[kk * n + 3] = 0.0; // zero column => scale 0, exact zeros
        }
        let qb = QuantizedMatrix::quantize(&b.data, k, n);
        let mut out1 = vec![1.0; m * n];
        let mut out2 = vec![2.0; m * n];
        matmul_quant_into(&a.data, &qb, &mut out1, m);
        matmul_quant_into(&a.data, &qb, &mut out2, m);
        for i in 0..m {
            assert_eq!(out1[i * n + 3], 0.0);
        }
        for (x, y) in out1.iter().zip(&out2) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    proptest! {
        /// Quantized row accumulation, like the f32 kernel, is independent
        /// of how rows are grouped: batching N rows into one call is
        /// bit-identical to N single-row calls.
        #[test]
        fn quantized_matmul_row_partition_invariant(
            m in 1usize..20, k in 1usize..20, n in 1usize..40, seed in 0u64..500,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let qb = QuantizedMatrix::quantize(&b.data, k, n);
            let mut batched = vec![0.0; m * n];
            matmul_quant_into(&a.data, &qb, &mut batched, m);
            for i in 0..m {
                let mut single = vec![0.0; n];
                matmul_quant_into(&a.data[i * k..(i + 1) * k], &qb, &mut single, 1);
                for (x, y) in single.iter().zip(&batched[i * n..(i + 1) * n]) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }

        /// (A·B)ᵀ = Bᵀ·Aᵀ
        #[test]
        fn matmul_transpose_identity(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let lhs = a.matmul(&b).t2();
            let rhs = b.t2().matmul(&a.t2());
            for (x, y) in lhs.data.iter().zip(&rhs.data) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// Blocked base kernel is bit-identical (0 ULP) to the serial
        /// reference for arbitrary shapes and row partitions.
        #[test]
        fn blocked_matmul_zero_ulp_vs_reference(
            m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let mut reference = vec![0.0; m * n];
            matmul_reference(&a.data, &b.data, &mut reference, m, k, n);
            let mut packed = Vec::new();
            pack_b(&b.data, k, n, &mut packed);
            let mut blocked = vec![0.0; m * n];
            matmul_rows(&a.data, &packed, &mut blocked, 0, m, k, n, false);
            for (x, y) in reference.iter().zip(&blocked) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // Split at an arbitrary row: partitioning never changes bits.
            let split = seed as usize % m;
            let mut parts = vec![0.0; m * n];
            let (top, bottom) = parts.split_at_mut(split * n);
            matmul_rows(&a.data, &packed, top, 0, split, k, n, false);
            matmul_rows(&a.data, &packed, bottom, split, m - split, k, n, false);
            for (x, y) in reference.iter().zip(&parts) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// Blocked transposes are exact data movement: round-trip and
        /// element equality vs the naive definition.
        #[test]
        fn blocked_transpose_exact(
            b in 1usize..4, m in 1usize..70, n in 1usize..70, seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = Tensor::randn(&[m, n], 1.0, &mut rng);
            let tt = t.t2();
            for i in 0..m {
                for j in 0..n {
                    prop_assert_eq!(
                        t.data[i * n + j].to_bits(),
                        tt.data[j * m + i].to_bits()
                    );
                }
            }
            prop_assert_eq!(&tt.t2().data, &t.data);
            let t3 = Tensor::randn(&[b, m, n], 1.0, &mut rng);
            prop_assert_eq!(&t3.transpose_last2().transpose_last2().data, &t3.data);
        }

        /// Matmul distributes over addition: A·(B+C) = A·B + A·C.
        #[test]
        fn matmul_distributes(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let c = Tensor::randn(&[k, n], 1.0, &mut rng);
            let lhs = a.matmul(&b.zip(&c, |x, y| x + y));
            let mut rhs = a.matmul(&b);
            rhs.add_assign(&a.matmul(&c));
            for (x, y) in lhs.data.iter().zip(&rhs.data) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }
}
