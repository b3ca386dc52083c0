//! Dense row-major `f32` tensors and the kernels training needs.

use rand::Rng;
use rayon::prelude::*;

/// A dense row-major tensor of `f32`.
#[derive(Debug, Clone, PartialEq)]
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
        assert_eq!(
            self.rank(),
            2,
            "matmul lhs must be 2-D, got {:?}",
            self.shape
        );
        assert_eq!(
            other.rank(),
            2,
            "matmul rhs must be 2-D, got {:?}",
            other.shape
        );
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul inner dims: {:?} x {:?}",
            self.shape, other.shape
        );
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
        self.bmm_op_into(Op::N, other, Op::N, out)
    }

    /// [`Tensor::bmm_into`] of `op(self)` and `op(other)`, where `Op::T`
    /// reads a slice as the transpose of its last two dims, in place:
    /// bit-identical to [`Tensor::transpose_last2`] followed by
    /// [`Tensor::bmm_into`].
    pub(crate) fn bmm_op_into(&self, ta: Op, other: &Tensor, tb: Op, out: &mut [f32]) {
        assert_eq!(self.rank(), 3, "bmm lhs must be 3-D");
        assert_eq!(other.rank(), 3, "bmm rhs must be 3-D");
        let dims = |t: &Tensor, op| match op {
            Op::N => (t.shape[1], t.shape[2]),
            Op::T => (t.shape[2], t.shape[1]),
        };
        let b = self.shape[0];
        let ((m, k), (k2, n)) = (dims(self, ta), dims(other, tb));
        assert_eq!(b, other.shape[0], "bmm batch mismatch");
        assert_eq!(k, k2, "bmm inner dim mismatch");
        assert_eq!(out.len(), b * m * n, "bmm_into output size");
        let level = KernelLevel::active();
        out.par_chunks_mut(m * n)
            .zip(
                self.data
                    .par_chunks(m * k)
                    .zip(other.data.par_chunks(k * n)),
            )
            .for_each(|(o, (a, bm))| {
                let mut packed = take_pack_buf();
                match tb {
                    Op::N => pack_b(bm, k, n, &mut packed),
                    Op::T => pack_bt(bm, k, n, &mut packed),
                }
                match ta {
                    Op::N => matmul_rows(a, &packed, o, 0, m, k, n, level),
                    Op::T => matmul_rows_t(a, m, &packed, o, 0, m, k, n, level),
                }
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
// Matmul kernels: B-packed, register-tiled, one tile at three ISA levels.
//
// B is packed into column panels of NR floats (zero-padded past n) so the
// kernel streams contiguous memory regardless of n. One function,
// `tile::<V, M, P>`, holds an M-row × P-panel block of accumulators in
// registers; `V` is what one NR-float panel row is at a level: sixteen
// scalars (portable), two ymm (AVX2+FMA) or one zmm (AVX-512F).
//
// Every output element is the ascending-k chain from 0.0 of the serial
// `matmul_reference`, at every level, tile shape and row partition. The
// levels differ only in the step: the portable one rounds the product and
// the sum separately and is 0 ULP equal to the reference; the two FMA levels
// fuse them into one rounding, so they are 0 ULP equal to each other and
// within ~2 ULP of the reference (asserted at 1e-5 relative in tests).
//
// An FMA has a 4-cycle latency and two issue ports, so a tile needs ≥ 8
// independent accumulator chains to keep the ports busy, and every band of
// rows streams all of B's panels once — below a main tile's height that
// stream, not FMA issue, is what a call costs. Remainder rows therefore
// never take a thinner tile and never a second pass: one or two rows take a
// *wider* tile (fewer rows × more panels), any other remainder rides the
// next taller tile with its dead rows recomputing the last live one and
// storing nothing. The tile is written with `std::arch` intrinsics, not
// plain `mul_add` loops, because what LLVM makes of a plain register tile
// depends on its shape: the same tile over `[f32; 16]` compiled for AVX-512
// ran within 4 % of the intrinsics at 8×2 and 6.5× slower at 1×8
// (DESIGN.md §10).
// ---------------------------------------------------------------------------

/// Columns of B per packed panel.
const NR: usize = 16;
/// Minimum m*k*n before `matmul_into` forks into the rayon pool. At 256³
/// each of the 8 row blocks of a 2-thread split holds 50–75 µs of GEMM,
/// against a 7 µs fork-join round trip; below 2²² forking gained under
/// 10 % or lost (DESIGN.md §10).
const PAR_FLOPS_THRESHOLD: usize = 256 * 256 * 256;

/// The instruction-set level the kernels run at. Ordered: a CPU that has a
/// level has every lower one, so `level <= KernelLevel::active()` is the
/// run-time proof that `level`'s instructions exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum KernelLevel {
    /// Plain Rust, separate multiply and add; any target.
    Portable,
    /// 256-bit vectors, fused multiply-add.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// 512-bit vectors, fused multiply-add.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl KernelLevel {
    /// The highest level this CPU and OS support, detected once.
    pub(crate) fn active() -> Self {
        static LEVEL: std::sync::OnceLock<KernelLevel> = std::sync::OnceLock::new();
        *LEVEL.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                if is_x86_feature_detected!("avx512f") {
                    return KernelLevel::Avx512;
                }
                return KernelLevel::Avx2Fma;
            }
            KernelLevel::Portable
        })
    }

    /// Every level this machine can run, lowest first.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<KernelLevel> {
        let all = [
            KernelLevel::Portable,
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx2Fma,
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx512,
        ];
        all.into_iter().filter(|l| *l <= Self::active()).collect()
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            KernelLevel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx2Fma => "avx2+fma",
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx512 => "avx512f",
        }
    }

    /// Rows of the level's main tile (see [`matmul_rows`]' tile table).
    fn tile_rows(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx512 => 8,
            _ => 4,
        }
    }
}

/// The level the GEMM and row kernels of this process run at: `"portable"`,
/// `"avx2+fma"` or `"avx512f"`. The two FMA levels produce the same bits.
pub fn kernel_level() -> &'static str {
    KernelLevel::active().name()
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
    let buf = panel_buf(packed, k, n);
    for p in 0..n.div_ceil(NR) {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let dst = &mut buf[p * k * NR..(p + 1) * k * NR];
        for (kk, row) in dst.chunks_exact_mut(NR).enumerate() {
            row[..w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
            row[w..].fill(0.0);
        }
    }
}

/// [`pack_b`] of `Bᵀ`: `bt` is `[n, k]` row-major, and the panels are the
/// ones [`pack_b`] makes of its `[k, n]` transpose.
pub(crate) fn pack_bt(bt: &[f32], k: usize, n: usize, packed: &mut Vec<f32>) {
    let buf = panel_buf(packed, k, n);
    for p in 0..n.div_ceil(NR) {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let dst = &mut buf[p * k * NR..(p + 1) * k * NR];
        for j in 0..w {
            for (kk, &v) in bt[(j0 + j) * k..(j0 + j + 1) * k].iter().enumerate() {
                dst[kk * NR + j] = v;
            }
        }
        if w < NR {
            for row in dst.chunks_exact_mut(NR) {
                row[w..].fill(0.0);
            }
        }
    }
}

/// `packed` resized to the panels of a `[k, n]` operand, keeping what it
/// held: the packers overwrite every lane, zeroing only the padding past
/// `n`, so the buffer is never cleared first.
fn panel_buf(packed: &mut Vec<f32>, k: usize, n: usize) -> &mut [f32] {
    packed.resize(n.div_ceil(NR) * k * NR, 0.0);
    packed
}

/// One `NR`-float panel row held in registers at some level; the lanes are
/// independent, and lane `j` of an accumulator is output column `j` of its
/// panel.
///
/// # Safety
/// Every method requires that the CPU supports the level the implementing
/// type belongs to (none for `[f32; NR]`). `load` reads `NR` floats at `p`
/// and `store` writes the first `w` (`1..=NR`) lanes to `p..p + w` and
/// nothing else; neither assumes any alignment beyond `f32`'s.
trait PanelRow: Copy {
    unsafe fn zero() -> Self;
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    /// `a * b + acc` per lane: one rounding at the FMA levels, two at the
    /// portable one.
    unsafe fn mul_acc(a: Self, b: Self, acc: Self) -> Self;
    unsafe fn store(self, p: *mut f32, w: usize);
}

impl PanelRow for [f32; NR] {
    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; NR]
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        [x; NR]
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        p.cast::<[f32; NR]>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn mul_acc(a: Self, b: Self, acc: Self) -> Self {
        std::array::from_fn(|j| acc[j] + a[j] * b[j])
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32, w: usize) {
        std::ptr::copy_nonoverlapping(self.as_ptr(), p, w);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{PanelRow, NR};
    use std::arch::x86_64::*;

    /// A panel row as two 256-bit registers (AVX2+FMA level).
    #[derive(Clone, Copy)]
    pub(super) struct Ymm2(__m256, __m256);

    impl PanelRow for Ymm2 {
        #[inline(always)]
        unsafe fn zero() -> Self {
            Ymm2(_mm256_setzero_ps(), _mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Ymm2(_mm256_set1_ps(x), _mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            Ymm2(_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8)))
        }
        #[inline(always)]
        unsafe fn mul_acc(a: Self, b: Self, acc: Self) -> Self {
            Ymm2(
                _mm256_fmadd_ps(a.0, b.0, acc.0),
                _mm256_fmadd_ps(a.1, b.1, acc.1),
            )
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32, w: usize) {
            if w == NR {
                _mm256_storeu_ps(p, self.0);
                _mm256_storeu_ps(p.add(8), self.1);
            } else {
                let mut lanes = [0.0f32; NR];
                _mm256_storeu_ps(lanes.as_mut_ptr(), self.0);
                _mm256_storeu_ps(lanes.as_mut_ptr().add(8), self.1);
                std::ptr::copy_nonoverlapping(lanes.as_ptr(), p, w);
            }
        }
    }

    /// A panel row as one 512-bit register (AVX-512F level).
    impl PanelRow for __m512 {
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn mul_acc(a: Self, b: Self, acc: Self) -> Self {
            _mm512_fmadd_ps(a, b, acc)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32, w: usize) {
            // A masked store touches (and can fault on) only the lanes
            // whose mask bit is set: the low `w`.
            _mm512_mask_storeu_ps(p, 0xFFFF >> (NR - w), self);
        }
    }
}

/// One [`matmul_rows`] / [`matmul_rows_t`] call as the tiles see it. Only
/// [`gemm_rows`] builds one, after asserting what the tiles rely on: `a` is
/// valid for reads of element `(i, kk)` of the window's A for every
/// `i < rows`, `kk < k` — at `a + i·lda + kk` when A is read as stored, at
/// `a + kk·lda + i` when it is read transposed, so up to `(rows − 1)·lda + k
/// − 1` or `(k − 1)·lda + rows − 1` — `packed` for `⌈n / NR⌉ * k * NR` reads
/// and `out` for `rows * n` writes.
struct Gemm {
    a: *const f32,
    lda: usize,
    packed: *const f32,
    out: *mut f32,
    rows: usize,
    k: usize,
    n: usize,
}

/// Output rows `r..r + live` × panels `p..p + P` from an `M`-row tile:
/// `M * P` accumulators, each lane the ascending-k chain
/// `Σ_k a[i, k] · b[k, j]` from 0.0, stored to the first
/// `min(NR, n - column)` columns of each panel. Tile rows past `live`
/// recompute row `live - 1` and are not stored. `TA` picks how A is read
/// (see [`Gemm`]): the same elements in the same order either way, so the
/// chain, and every bit of the result, does not depend on it.
///
/// # Safety
/// The CPU must support `V`'s level, `g` must hold what [`Gemm`] documents
/// for `TA`, `1 <= live <= M`, `r + live <= g.rows` and
/// `p + P <= ⌈g.n / NR⌉`.
#[inline(always)]
unsafe fn tile<V: PanelRow, const M: usize, const P: usize, const TA: bool>(
    g: &Gemm,
    r: usize,
    p: usize,
    live: usize,
) {
    let k = g.k;
    // A's (row, k) strides: a row of A is contiguous as stored, a column is
    // contiguous transposed.
    let (row_stride, k_stride) = if TA { (1, g.lda) } else { (g.lda, 1) };
    let b = g.packed.add(p * k * NR);
    let mut arow = [g.a; M];
    for (i, ar) in arow.iter_mut().enumerate() {
        *ar = g.a.add((r + i.min(live - 1)) * row_stride);
    }
    let mut acc = [[V::zero(); P]; M];
    for kk in 0..k {
        let mut brow = [V::zero(); P];
        for (j, bv) in brow.iter_mut().enumerate() {
            *bv = V::load(b.add((j * k + kk) * NR));
        }
        for (acc_row, ar) in acc.iter_mut().zip(arow) {
            let av = V::splat(*ar.add(kk * k_stride));
            for (c, bv) in acc_row.iter_mut().zip(brow) {
                *c = V::mul_acc(av, bv, *c);
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate().take(live) {
        for (j, c) in acc_row.iter().enumerate() {
            let col = (p + j) * NR;
            c.store(g.out.add((r + i) * g.n + col), NR.min(g.n - col));
        }
    }
}

/// Rows `r..r + live` across every panel: `M`-row tiles of `PMAX` panels,
/// then the leftover panels in tiles of each smaller power of two (`PMAX`
/// is one of 1, 2, 4, 8; the branches above it fold away).
///
/// # Safety
/// As [`tile`], with `1 <= live <= M` and `r + live <= g.rows`.
#[inline(always)]
unsafe fn band<V: PanelRow, const M: usize, const PMAX: usize, const TA: bool>(
    g: &Gemm,
    r: usize,
    live: usize,
) {
    let panels = g.n.div_ceil(NR);
    let mut p = 0;
    if PMAX >= 8 {
        while p + 8 <= panels {
            tile::<V, M, 8, TA>(g, r, p, live);
            p += 8;
        }
    }
    if PMAX >= 4 {
        while p + 4 <= panels {
            tile::<V, M, 4, TA>(g, r, p, live);
            p += 4;
        }
    }
    if PMAX >= 2 {
        while p + 2 <= panels {
            tile::<V, M, 2, TA>(g, r, p, live);
            p += 2;
        }
    }
    while p < panels {
        tile::<V, M, 1, TA>(g, r, p, live);
        p += 1;
    }
}

/// The tile table of the two 16-float-register-file levels: 4×1 main tile
/// (at AVX2, eight ymm accumulators), which also takes a 3-row remainder;
/// 2×2 and 1×4 for two rows and one.
///
/// # Safety
/// The CPU must support `V`'s level; `g` must hold what [`Gemm`] documents
/// for `TA`.
#[inline(always)]
unsafe fn gemm_narrow<V: PanelRow, const TA: bool>(g: &Gemm) {
    let mut r = 0;
    while r < g.rows {
        let live = (g.rows - r).min(4);
        match live {
            1 => band::<V, 1, 4, TA>(g, r, live),
            2 => band::<V, 2, 2, TA>(g, r, live),
            _ => band::<V, 4, 1, TA>(g, r, live),
        }
        r += live;
    }
}

/// # Safety
/// The CPU must support AVX2 and FMA; `g` must hold what [`Gemm`] documents
/// for `TA`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_avx2<const TA: bool>(g: &Gemm) {
    gemm_narrow::<x86::Ymm2, TA>(g)
}

/// The 512-bit tile table: 8×2 main tile (16 zmm accumulators, two B loads
/// and eight broadcasts per k-step), which also takes a remainder of 5 to 7
/// rows; 4×2 for 3 or 4 rows, 2×4 for two and 1×8 for one.
///
/// # Safety
/// The CPU must support AVX-512F; `g` must hold what [`Gemm`] documents for
/// `TA`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512<const TA: bool>(g: &Gemm) {
    use std::arch::x86_64::__m512;
    let mut r = 0;
    while r < g.rows {
        let live = (g.rows - r).min(8);
        match live {
            1 => band::<__m512, 1, 8, TA>(g, r, live),
            2 => band::<__m512, 2, 4, TA>(g, r, live),
            3 | 4 => band::<__m512, 4, 2, TA>(g, r, live),
            _ => band::<__m512, 8, 2, TA>(g, r, live),
        }
        r += live;
    }
}

/// Computes output rows `i0..i0 + rows` (into the first `rows * n` floats
/// of `out`, stride `n`; nothing past them is written) from the full `a`
/// matrix (`[_, k]`) and pre-packed `b` panels, at `level`. Each output
/// row's accumulation is independent of the tile it lands in, so any row
/// partition — and either FMA level — yields bit-identical results.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_rows(
    a: &[f32],
    packed: &[f32],
    out: &mut [f32],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
    level: KernelLevel,
) {
    gemm_rows::<false>(a, k, packed, out, i0, rows, k, n, level)
}

/// [`matmul_rows`] with A read transposed in place: `a` stores Aᵀ as
/// `[k, lda]` (`lda ≥ i0 + rows`), so row `i` of A is column `i` of `a`.
/// Every output element is the chain [`matmul_rows`] computes on the
/// materialized transpose, bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_rows_t(
    a: &[f32],
    lda: usize,
    packed: &[f32],
    out: &mut [f32],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
    level: KernelLevel,
) {
    gemm_rows::<true>(a, lda, packed, out, i0, rows, k, n, level)
}

/// [`matmul_rows`] (`TA = false`, `lda = k`) and [`matmul_rows_t`]
/// (`TA = true`): the asserts [`Gemm`] documents, then the tile table of
/// `level`.
#[allow(clippy::too_many_arguments)]
fn gemm_rows<const TA: bool>(
    a: &[f32],
    lda: usize,
    packed: &[f32],
    out: &mut [f32],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
    level: KernelLevel,
) {
    let size = |x: usize, y: usize| x.checked_mul(y).expect("matmul_rows: size overflows usize");
    let a_rows = i0
        .checked_add(rows)
        .expect("matmul_rows: size overflows usize");
    if TA {
        assert!(lda >= a_rows, "matmul_rows: lhsᵀ narrower than i0 + rows");
        if k > 0 && rows > 0 {
            let last = size(k - 1, lda)
                .checked_add(a_rows)
                .expect("matmul_rows: size overflows usize");
            assert!(
                a.len() >= last,
                "matmul_rows: lhsᵀ shorter than (k - 1) * lda + i0 + rows"
            );
        }
    } else {
        assert!(
            a.len() >= size(a_rows, k),
            "matmul_rows: lhs shorter than (i0 + rows) * k"
        );
    }
    assert!(
        out.len() >= size(rows, n),
        "matmul_rows: out shorter than rows * n"
    );
    assert!(
        packed.len() >= size(n.div_ceil(NR), size(k, NR)),
        "matmul_rows: fewer panels than ceil(n / NR) * k * NR"
    );
    assert!(
        level <= KernelLevel::active(),
        "matmul_rows: {level:?} is not available on this CPU"
    );
    if TA && (rows == 0 || k == 0) {
        // No element of A is read: no rows, or every output is the empty
        // sum (and `i0` may lie past an empty `a`).
        out[..rows * n].fill(0.0);
        return;
    }
    // Element (0, 0) of the window is `a[i0 * k]` as stored (in bounds of
    // `a` by the assert above) and `a[i0]` transposed (in bounds: k ≥ 1 and
    // rows ≥ 1 here, so the asserted length exceeds i0). The asserts are
    // exactly what `Gemm` documents.
    let g = Gemm {
        a: a[if TA { i0 } else { i0 * k }..].as_ptr(),
        lda,
        packed: packed.as_ptr(),
        out: out.as_mut_ptr(),
        rows,
        k,
        n,
    };
    match level {
        KernelLevel::Portable => {
            // SAFETY: the portable level needs no CPU feature; `g` was built
            // from slices whose lengths were asserted just above.
            unsafe { gemm_narrow::<[f32; NR], TA>(&g) }
        }
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2Fma => {
            // SAFETY: `level <= active()` was asserted, and `active()` is
            // `Avx2Fma` or higher only after detecting AVX2 and FMA; `g` as
            // above.
            unsafe { gemm_avx2::<TA>(&g) }
        }
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx512 => {
            // SAFETY: `level <= active()` was asserted, and `active()` is
            // `Avx512` only after detecting AVX-512F; `g` as above.
            unsafe { gemm_avx512::<TA>(&g) }
        }
    }
}

/// How a GEMM reads an operand: as stored (`N`), or as the transpose of
/// what is stored (`T`), in place. `T` computes the bits of transposing
/// first and multiplying after, without the copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    N,
    T,
}

/// `out = a x b` for row-major 2-D data through the packed kernel,
/// rayon-parallel over tile-aligned row blocks for large problems.
/// Overwrites `out` entirely. Packs `b` on every call, which is right when
/// `b` changes between calls (training, activations × activations);
/// inference over fixed weights goes through `Linear::apply_rows_into`,
/// which packs once per weight version.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_into(Op::N, a, Op::N, b, out, m, k, n)
}

/// [`matmul_into`] of `op(a)` (`[m, k]`, stored `[m, k]` or `[k, m]`) and
/// `op(b)` (`[k, n]`, stored `[k, n]` or `[n, k]`): the training tape's
/// `G·Wᵀ`, `xᵀ·G` and friends, bit-identical to transposing and calling
/// [`matmul_into`], with the same row split.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_into(
    ta: Op,
    a: &[f32],
    tb: Op,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let level = KernelLevel::active();
    let mut packed = take_pack_buf();
    match tb {
        Op::N => pack_b(b, k, n, &mut packed),
        Op::T => pack_bt(b, k, n, &mut packed),
    }
    let rows = |out: &mut [f32], i0: usize, rows: usize| match ta {
        Op::N => matmul_rows(a, &packed, out, i0, rows, k, n, level),
        Op::T => matmul_rows_t(a, m, &packed, out, i0, rows, k, n, level),
    };
    if m * k * n >= PAR_FLOPS_THRESHOLD {
        // Row blocks sized so each rayon thread gets a few tasks, cut on
        // multiples of the level's main tile height so a block edge never
        // turns a full tile into remainder tiles; the partition never
        // changes the per-row bit pattern.
        let threads = rayon::current_num_threads().max(1);
        let target_blocks = threads * 4;
        let block_rows = (m.div_ceil(target_blocks)).next_multiple_of(level.tile_rows());
        out.par_chunks_mut(block_rows * n)
            .enumerate()
            .for_each(|(blk, chunk)| rows(chunk, blk * block_rows, chunk.len() / n));
    } else {
        rows(out, 0, m);
    }
    return_pack_buf(packed);
}

/// Serial reference matmul (branchless ikj): `out = a x b`. This is the
/// ground truth for the kernel tests — the portable level must match it to
/// 0 ULP; the FMA levels to 1e-5 relative.
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
/// `pack_b`). Build once with [`QuantizedMatrix::quantize`], then apply
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
// Row kernels: the elementwise activations and the softmax's `exp`, each a
// lane function under a row loop.
//
// A lane function is a fixed sequence of correctly-rounded IEEE operations
// (+ − × ÷, comparisons and selects, `trunc`, conversions between f32 and
// f64, integer arithmetic on the bits, table reads; no libm function), so
// its result is a function of the input bits alone: independent of the
// vector width it is compiled at, of the element's position in the slice,
// and of which libm is linked. Only the `exp` port fuses multiply-adds
// (`mul_add`, one rounding), because the glibc code it transcribes does:
// an instruction at the FMA levels, libm's exact `fma` at the portable one.
// Each row loop is written once and compiled once per `KernelLevel` by
// `rows_at`.
//
// There are two `tanh`s. The decode path's GELU uses a rational minimax,
// the cheapest. The training tape's GELU and `tanh` use a transcription of
// fdlibm's `tanhf`, bit-identical to glibc's `tanhf` on every input, so on
// any platform the tape computes the bits a glibc tape computes (DESIGN.md
// §10, "The tape's `tanh`"). There is one `exp`, a transcription of glibc's
// `expf` that every softmax of the decode step and the tape runs (DESIGN.md
// §10, "The softmax's `expf`").
// ---------------------------------------------------------------------------

/// `tanh` as an odd 13th-degree over even 6th-degree rational minimax (the
/// coefficients Eigen and XLA ship for `f32`), within 4e-7 of the f64 `tanh`
/// everywhere. The clamp is the smallest argument at which the rational
/// evaluates to exactly ±1 without fused multiply-adds, which is why every
/// step below is a separate multiply and add; NaN passes through the clamp.
#[inline(always)]
fn tanh_rational(x: f32) -> f32 {
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

/// fdlibm's `expm1f` (glibc's `sysdeps/ieee754/flt-32/s_expm1f.c`) on the
/// arguments [`tanh_fdlibm`] passes it: `u = 2|x| ≥ 2`, or `−2 < u ≤ 0`.
/// Every branch of the original those reach is computed, with the same
/// operations in the same order, and the result is picked by select. The
/// branches they do not reach are left out: overflow and non-finite
/// arguments, `u < −27·ln2`, and the `k = 1` return (a positive `u` here
/// reduces to `k ≥ 3`).
#[inline(always)]
fn expm1_fdlibm(u: f32) -> f32 {
    const LN2_HI: f32 = 0.693_138_1; // 0x3f317180
    const LN2_LO: f32 = 9.058_001e-6; // 0x3717f7d1
    const INVLN2: f32 = std::f32::consts::LOG2_E; // 0x3fb8aa3b
    const Q1: f32 = -3.333_333_5e-2; // 0xbd088889
    const Q2: f32 = 1.587_301_6e-3; // 0x3ad00d01
    const Q3: f32 = -7.936_507_6e-5; // 0xb8a670cd
    const Q4: f32 = 4.008_217_7e-6; // 0x36867e54
    const Q5: f32 = -2.010_992_1e-7; // 0xb457edbb
    let hu = u.to_bits() & 0x7fff_ffff;
    let neg = u.is_sign_negative();
    // The reduction u = k·ln2 + x + c. fdlibm's k = ±1 band and its k = 0
    // range are the general reduction at t = ±1 and t = 0. The clamp keeps
    // t small on the lanes whose result is discarded (|x| ≥ 22, ±∞; NaN
    // stays NaN, and its k is garbage that is discarded too). Unlike a
    // saturating `as i32` it vectorizes, and adding 1.5·2²³ turns the
    // integral t into k exactly.
    let t = (INVLN2 * u + if neg { -0.5 } else { 0.5 })
        .clamp(-200.0, 200.0)
        .trunc();
    let band = if neg { -1.0 } else { 1.0 };
    let t = if hu <= 0x3eb1_7218 {
        0.0
    } else if hu < 0x3f85_1592 {
        band
    } else {
        t
    };
    let k = (t + 12_582_912.0).to_bits() as i32 - 0x4b40_0000;
    let hi = u - t * LN2_HI;
    let lo = t * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let at_k0 = x - (x * e - hxs);
    let e = (x * (e - c) - c) - hxs;
    let at_k_minus1 = 0.5 * (x - e) - 0.5;
    // 2^k·y by adding k to y's exponent, and 2^−k, as fdlibm builds them.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    let two_mk = f32::from_bits(((0x7f - k) << 23) as u32);
    let far = scale(1.0 - (e - x)) - 1.0;
    let near = scale((1.0 - two_mk) - (e - x));
    let mid = scale((x - (e + two_mk)) + 1.0);
    let r = if k < 23 { near } else { mid };
    let r = if k <= -2 || k > 56 { far } else { r };
    let r = if k == -1 { at_k_minus1 } else { r };
    let r = if k == 0 { at_k0 } else { r };
    // |u| < 2⁻²⁵ is returned as it is.
    if hu < 0x3300_0000 {
        u
    } else {
        r
    }
}

/// fdlibm's `tanhf` (glibc's `sysdeps/ieee754/flt-32/s_tanhf.c`), branch-
/// free: bit-identical to it on every f32 input, NaN in giving NaN out
/// (`tanh_fdlibm_matches_libm_exhaustively`). It differs in form twice:
/// the two divisions, `1 − 2/(t+2)` for |x| ≥ 1 and `−t/(t+2)` below, share
/// one, and `1/x ± 1` for ±∞ and NaN became selects; both give the
/// original's bits.
#[inline(always)]
fn tanh_fdlibm(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    let big = ix >= 0x3f80_0000;
    let t = expm1_fdlibm(if big { 2.0 * ax } else { -2.0 * ax });
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| ≥ 22, ±∞ included, gives ±1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let r = f32::from_bits(z.to_bits() | (x.to_bits() & 0x8000_0000));
    // |x| < 2⁻⁵⁵, ±0 included, is its own tanh, and NaN stays NaN.
    if !(0x2400_0000..=0x7f80_0000).contains(&ix) {
        x
    } else {
        r
    }
}

/// [`tanh_fdlibm`] behind a call, for the tape GELU backward's scalar
/// fix-up, which needs it for a few percent of the elements. Inlined under
/// the fix-up's branch, the branch-free lane may be if-converted, that is
/// evaluated on every element.
#[inline(never)]
fn tanh_fdlibm_call(x: f32) -> f32 {
    tanh_fdlibm(x)
}

/// glibc's `__exp2f_data.tab`: entry `i` holds the bits of 2^(i/32) less
/// `i << 47`, so that adding `k << 47` to entry `k mod 32` gives the bits of
/// 2^(k/32) for any integer `k` whose result is normal.
const EXP2F_TAB: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// glibc's `expf` (`sysdeps/ieee754/flt-32/e_expf.c`, since 2.27) as its
/// ifunc runs it on a CPU with FMA, `__expf_fma`, branch-free: bit-identical
/// to glibc 2.36's `expf` there on every f32 input, NaN in giving NaN out
/// (`expf_glibc_matches_libm_exhaustively`). In f64, `x·32/ln2 = k + r`
/// with `k` the nearest integer (adding and subtracting 1.5·2⁵² rounds it),
/// `2^(k/32)` from `EXP2F_TAB` and `2^(r/32)` from a cubic. The `mul_add`s
/// are the contractions GCC made of the C source's `z = InvLn2N·x`, `z +
/// SHIFT`, `z − kd` and the cubic.
///
/// It differs in form once. glibc branches to its special cases for
/// |x| ≥ 88: +0 below ln 2⁻¹⁵⁰ (−∞ included), 2⁻¹⁴⁹ below ln 2⁻¹⁴⁹, +∞
/// above ln 2¹²⁸, and `x + x` for NaN and +∞. Here `x` is clamped to
/// [−104, 89] instead, where the main path gives those same values (the
/// results it rounds lie far from an f32 rounding boundary), and NaN passes
/// the clamp. Selects on the result would leave the main path used on one
/// side only, and the compiler then branches around it and the loop stays
/// scalar; a clamp keeps the loop body straight.
#[inline(always)]
pub fn expf_glibc(x: f32) -> f32 {
    const INV_LN2_N: f64 = 46.166_241_308_446_83; // 0x40471547652b82fe, 32/ln2
    const SHIFT: f64 = 6_755_399_441_055_744.0; // 0x4338000000000000, 1.5·2⁵²
    const C0: f64 = 1.693_835_925_092_021_2e-6; // 0x3ebc6af84b912394
    const C1: f64 = 2.345_980_978_950_900_4e-4; // 0x3f2ebfce50fac4f3
    const C2: f64 = 2.166_084_939_661_313_4e-2; // 0x3f962e42ff0c52d6
    let xd = f64::from(x.clamp(-104.0, 89.0));
    let kds = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kds.to_bits();
    let kd = kds - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2F_TAB[(ki & 31) as usize].wrapping_add(ki << 47));
    (C0.mul_add(r, C1).mul_add(r * r, r.mul_add(C2, 1.0)) * s) as f32
}

/// sqrt(2/π), the GELU (tanh approximation) constant.
const GELU_C: f32 = 0.797_884_6;

/// GELU's `tanh` argument, `C·(x + 0.044715·x·x·x)` multiplied left to
/// right: the decode GELU's and the tape forward's.
#[inline(always)]
fn gelu_f_arg(x: f32) -> f32 {
    GELU_C * (x + 0.044715 * x * x * x)
}

/// The tape backward's `tanh` argument, `C·(x + 0.044715·x³)` with `x³`
/// rounded first: the same real number as [`gelu_f_arg`], but a different
/// f32 for 0.37 % of the f32 values with |x| ≤ 10, and for 0.46 / 1.7 /
/// 5.2 % of draws from N(0, σ²) at σ = 0.5 / 1 / 2.
#[inline(always)]
fn gelu_df_arg(x: f32) -> f32 {
    let x3 = x * x * x;
    GELU_C * (x + 0.044715 * x3)
}

/// GELU's derivative at `x`, given `th = tanh(gelu_df_arg(x))`.
#[inline(always)]
fn gelu_df(x: f32, th: f32) -> f32 {
    let sech2 = 1.0 - th * th;
    0.5 * (1.0 + th) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// GELU (tanh approximation) of one element: the lane function of
/// [`gelu_rows`] and the scalar definition of the decode path's activation.
/// Within 2e-6·max(1, |x|) of the f64 formula; `±0 → ±0`; a non-finite
/// input gives a non-finite output (the serve-time divergence trip-wire
/// reads it).
#[inline(always)]
fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_rational(gelu_f_arg(x)))
}

/// An elementwise loop. Every `run` is `#[inline(always)]`, so each
/// level's `target_feature` function below compiles its own copy of it,
/// 8 lanes wide at AVX2 and 16 at AVX-512. The decode step's attention and
/// layernorm (`layers.rs`) are row loops too.
pub(crate) trait RowLoop {
    fn run(self);
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn rows_avx2(l: impl RowLoop) {
    l.run()
}

/// # Safety
/// The CPU must support AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "fma")]
unsafe fn rows_avx512(l: impl RowLoop) {
    l.run()
}

/// Runs `l` compiled at `level`.
pub(crate) fn rows_at(l: impl RowLoop, level: KernelLevel) {
    assert!(
        level <= KernelLevel::active(),
        "row kernel: {level:?} is not available on this CPU"
    );
    match level {
        KernelLevel::Portable => l.run(),
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2Fma => {
            // SAFETY: `level <= active()` was asserted, and `active()` is
            // `Avx2Fma` or higher only after detecting AVX2 and FMA.
            unsafe { rows_avx2(l) }
        }
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx512 => {
            // SAFETY: `level <= active()` was asserted, and `active()` is
            // `Avx512` only after detecting AVX-512F and FMA.
            unsafe { rows_avx512(l) }
        }
    }
}

/// The decode GELU, in place.
struct GeluRows<'a>(&'a mut [f32]);

impl RowLoop for GeluRows<'_> {
    #[inline(always)]
    fn run(self) {
        for v in self.0 {
            *v = gelu_scalar(*v);
        }
    }
}

/// The tape's `tanh`.
struct TanhRows<'a> {
    xs: &'a [f32],
    out: &'a mut [f32],
}

impl RowLoop for TanhRows<'_> {
    #[inline(always)]
    fn run(self) {
        for (o, &x) in self.out.iter_mut().zip(self.xs) {
            *o = tanh_fdlibm(x);
        }
    }
}

/// `exp` in place, with glibc's `expf` bits: every softmax's. The decode
/// step's attention runs it inside its own row loop; the tape through
/// [`exp_rows`].
pub(crate) struct ExpRows<'a>(pub(crate) &'a mut [f32]);

impl RowLoop for ExpRows<'_> {
    #[inline(always)]
    fn run(self) {
        for v in self.0 {
            *v = expf_glibc(*v);
        }
    }
}

/// The tape GELU's forward: its `tanh` and its output.
struct GeluTapeRows<'a> {
    xs: &'a [f32],
    th: &'a mut [f32],
    out: &'a mut [f32],
}

impl RowLoop for GeluTapeRows<'_> {
    #[inline(always)]
    fn run(self) {
        for ((o, t), &x) in self.out.iter_mut().zip(self.th.iter_mut()).zip(self.xs) {
            *t = tanh_fdlibm(gelu_f_arg(x));
            *o = 0.5 * x * (1.0 + *t);
        }
    }
}

/// The tape GELU backward's vector pass: the derivative with the forward's
/// `tanh`, everywhere.
struct GeluTapeGradRows<'a> {
    xs: &'a [f32],
    th: &'a [f32],
    go: &'a [f32],
    dx: &'a mut [f32],
}

impl RowLoop for GeluTapeGradRows<'_> {
    #[inline(always)]
    fn run(self) {
        for (((d, &g), &x), &t) in self.dx.iter_mut().zip(self.go).zip(self.xs).zip(self.th) {
            *d = g * gelu_df(x, t);
        }
    }
}

/// In-place GELU over a slice: the activation of the gradient-free decode
/// path (block MLP and output heads). Elementwise, and bit-identical
/// between the portable, the AVX2 and the AVX-512 compilation for every
/// non-NaN input, so a row's result does not depend on the batch around it
/// or on the machine. Training uses the tape's GELU (`gelu_tape_rows`).
pub fn gelu_rows(xs: &mut [f32]) {
    rows_at(GeluRows(xs), KernelLevel::active())
}

/// `out = tanh(xs)` with fdlibm's `tanhf` bits: the tape's `tanh`.
pub(crate) fn tanh_rows(xs: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len(), "tanh_rows: length mismatch");
    rows_at(TanhRows { xs, out }, KernelLevel::active())
}

/// `exp` in place, with glibc's `expf` bits: the tape's softmaxes.
pub(crate) fn exp_rows(xs: &mut [f32]) {
    rows_at(ExpRows(xs), KernelLevel::active())
}

/// The tape's GELU forward: `th = tanh(gelu_f_arg(x))`, kept for the
/// backward, and `out = 0.5·x·(1 + th)`, with fdlibm's `tanhf` bits.
pub(crate) fn gelu_tape_rows(xs: &[f32], th: &mut [f32], out: &mut [f32]) {
    assert!(
        th.len() == xs.len() && out.len() == xs.len(),
        "gelu_tape_rows: length mismatch"
    );
    rows_at(GeluTapeRows { xs, th, out }, KernelLevel::active())
}

/// The tape's GELU backward: `dx = go · gelu_df(x, tanh(gelu_df_arg(x)))`.
/// The vector pass reuses the forward's `th`; then a scalar pass visits the
/// elements whose two `tanh` arguments differ by `to_bits()` and evaluates
/// `tanh` on the backward's own. Since `tanh` is a function of its input
/// bits, every gradient bit is that of a backward that evaluates its own
/// `tanh` everywhere.
pub(crate) fn gelu_tape_grad_rows(xs: &[f32], th: &[f32], go: &[f32], dx: &mut [f32]) {
    assert!(
        th.len() == xs.len() && go.len() == xs.len() && dx.len() == xs.len(),
        "gelu_tape_grad_rows: length mismatch"
    );
    rows_at(
        GeluTapeGradRows {
            xs,
            th,
            go,
            dx: &mut *dx,
        },
        KernelLevel::active(),
    );
    for ((d, &g), &x) in dx.iter_mut().zip(go).zip(xs) {
        let arg = gelu_df_arg(x);
        if arg.to_bits() != gelu_f_arg(x).to_bits() {
            *d = g * gelu_df(x, tanh_fdlibm_call(arg));
        }
    }
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
pub(crate) mod tests {
    use super::*;
    use cpt_trace::columnar::{fnv1a, fnv1a_continue};
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
        // Above the parallel threshold, so matmul() takes the rayon path;
        // 331 rows so the last block is a ragged one at either tile height.
        let (m, k, n) = (331, 230, 250);
        assert!(m * k * n >= PAR_FLOPS_THRESHOLD);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut packed = Vec::new();
        pack_b(&b.data, k, n, &mut packed);
        let mut serial = vec![0.0; m * n];
        matmul_rows(
            &a.data,
            &packed,
            &mut serial,
            0,
            m,
            k,
            n,
            KernelLevel::active(),
        );
        // The same product with A, then B, read transposed: the row split
        // then cuts the columns of the stored Aᵀ.
        let (at, bt) = (a.t2(), b.t2());
        for threads in [1usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let big = pool.install(|| a.matmul(&b));
            assert_eq!(bits(&big.data), bits(&serial), "{threads} threads");
            for (ta, a, tb, b) in [(Op::T, &at, Op::N, &b), (Op::N, &a, Op::T, &bt)] {
                let mut out = vec![f32::NAN; m * n];
                pool.install(|| gemm_into(ta, &a.data, tb, &b.data, &mut out, m, k, n));
                assert_eq!(bits(&out), bits(&serial), "{threads} threads, {ta:?}{tb:?}");
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const CANARY: u32 = 0xDEAD_BEEF;

    /// Runs `write` on an `out` that starts an odd number of floats past an
    /// allocation's start and has canary floats on both sides of the `len`
    /// it may write; panics if a canary moved.
    fn canaried(what: &str, len: usize, write: impl FnOnce(&mut [f32])) -> Vec<f32> {
        const PAD: usize = 2 * NR + 1;
        let mut out = vec![f32::from_bits(CANARY); PAD + len + PAD];
        write(&mut out[PAD..]);
        let written = PAD..PAD + len;
        for (i, v) in out.iter().enumerate() {
            assert!(
                written.contains(&i) || v.to_bits() == CANARY,
                "{what}: wrote out[{i}]"
            );
        }
        out[written].to_vec()
    }

    /// `matmul_rows` at `level` into a canaried `out`.
    fn run_rows(
        level: KernelLevel,
        a: &[f32],
        packed: &[f32],
        i0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        canaried(&format!("{level:?} {rows}x{k}x{n}"), rows * n, |out| {
            matmul_rows(a, packed, out, i0, rows, k, n, level)
        })
    }

    /// `matmul_rows_t` at `level` into a canaried `out`.
    #[allow(clippy::too_many_arguments)]
    fn run_rows_t(
        level: KernelLevel,
        at: &[f32],
        lda: usize,
        packed: &[f32],
        i0: usize,
        rows: usize,
        k: usize,
        n: usize,
    ) -> Vec<f32> {
        canaried(
            &format!("{level:?} {rows}x{k}x{n}, lhsᵀ"),
            rows * n,
            |out| matmul_rows_t(at, lda, packed, out, i0, rows, k, n, level),
        )
    }

    /// `t`'s `[c, r]` transpose, for `t` row-major `[r, c]`.
    fn transposed(t: &[f32], r: usize, c: usize) -> Vec<f32> {
        let mut out = vec![0.0; r * c];
        transpose_block(t, &mut out, r, c);
        out
    }

    /// Bit equality, except that any NaN equals any NaN: which payload an
    /// x86 FMA propagates depends on the operand form the compiler picked.
    fn same_value(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// `rows_max × k` operand A, `k × n` operand B and B's panels; A and the
    /// panels start one float past an allocation's start (index them from
    /// 1), so the kernels see no alignment beyond `f32`'s. `edge` adds
    /// subnormal entries (finite), then one NaN, +∞ and −∞ to A rows 1..=3
    /// and an ∞ and a NaN to B's first and last column.
    fn operands(
        rows_max: usize,
        k: usize,
        n: usize,
        edge: bool,
        rng: &mut StdRng,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut a = Tensor::randn(&[1 + rows_max * k], 1.0, rng).data;
        let mut b = Tensor::randn(&[k, n], 1.0, rng).data;
        if edge {
            for v in a.iter_mut().chain(b.iter_mut()).step_by(97) {
                *v *= 1e-42;
            }
            for (row, v) in [(1, f32::NAN), (2, f32::INFINITY), (3, f32::NEG_INFINITY)] {
                if row < rows_max {
                    a[1 + row * k + k / 2] = v;
                }
            }
            b[0] = f32::INFINITY;
            b[k * n - 1] = f32::NAN;
        }
        let mut packed = Vec::new();
        pack_b(&b, k, n, &mut packed);
        packed.insert(0, 0.0);
        (a, b, packed)
    }

    /// For every shape of the grid, every row count `1..=rows_max` and the
    /// row windows `i0 = 0` and `i0 = rows_max - rows` (as `matmul_into`'s
    /// rayon blocks pass them), `level` must reproduce the matching rows of
    /// `truth(a, b, packed, k, n)` (all `rows_max` rows) — so the result
    /// cannot depend on which tile shape a row lands in.
    fn assert_level_reproduces(
        level: KernelLevel,
        truth: impl Fn(&[f32], &[f32], &[f32], usize, usize) -> Vec<f32>,
        rows_max: usize,
        ks: &[usize],
        ns: &[usize],
    ) {
        let mut rng = StdRng::seed_from_u64(31);
        for &k in ks {
            for &n in ns {
                for edge in [false, true] {
                    let (a, b, packed) = operands(rows_max, k, n, edge, &mut rng);
                    let (a, packed) = (&a[1..], &packed[1..]);
                    let want = truth(a, &b, packed, k, n);
                    for rows in 1..=rows_max {
                        for i0 in [0, rows_max - rows] {
                            let got = run_rows(level, a, packed, i0, rows, k, n);
                            for (j, (x, y)) in got.iter().zip(&want[i0 * n..]).enumerate() {
                                assert!(
                                    same_value(*x, *y),
                                    "{level:?} {rows}x{k}x{n} i0={i0} edge={edge}: out[{j}] = {x:e}, want {y:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    const GRID_ROWS: usize = 33;
    const GRID_KS: [usize; 5] = [1, 12, 48, 128, 1024];
    const GRID_NS: [usize; 9] = [1, 15, 16, 17, 31, 33, 100, 128, 1024];

    fn reference_rows(rows: usize) -> impl Fn(&[f32], &[f32], &[f32], usize, usize) -> Vec<f32> {
        move |a, b, _, k, n| {
            let mut want = vec![0.0; rows * n];
            matmul_reference(a, b, &mut want, rows, k, n);
            want
        }
    }

    /// The kernels run at the highest level the CPU's flags list: a CPU
    /// with `avx512f` must not fall back to a lower level. Named apart
    /// from the `kernel_` tests, whose filter Miri runs: Miri opens no
    /// files.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn active_level_is_the_highest_the_cpu_flags_list() {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").expect("read /proc/cpuinfo");
        let flags: Vec<&str> = cpuinfo
            .lines()
            .find_map(|l| Some(l.strip_prefix("flags")?.split_once(':')?.1))
            .expect("/proc/cpuinfo has a flags line")
            .split_whitespace()
            .collect();
        let has = |flag: &str| flags.contains(&flag);
        if has("avx512f") {
            assert_eq!(kernel_level(), "avx512f");
        } else if has("avx2") && has("fma") {
            assert_eq!(kernel_level(), "avx2+fma");
        }
    }

    /// The portable level is 0 ULP equal to `matmul_reference` at every
    /// tile shape (rows 1..=9 reach 4×1 full and with three live rows, 2×2
    /// and 1×4; 130 columns leave a 1-panel and a ragged tile), through the
    /// same pointer arithmetic the SIMD levels run. Small enough for Miri
    /// (`cargo miri test -p cpt-nn tensor::tests::kernel_`).
    #[test]
    fn kernel_portable_zero_ulp_vs_reference_and_in_bounds() {
        assert_level_reproduces(
            KernelLevel::Portable,
            reference_rows(9),
            9,
            &[1, 5],
            &[1, 15, 16, 17, 33, 130],
        );
    }

    /// Degenerate shapes form no tile (or a tile with no k-step) and still
    /// stay inside `out`, with A read either way.
    #[test]
    fn kernel_empty_shapes_write_zeros_or_nothing() {
        for level in KernelLevel::available() {
            assert_eq!(run_rows(level, &[], &[], 0, 3, 0, 5), vec![0.0; 15]);
            assert!(run_rows(level, &[1.0; 6], &[], 0, 3, 2, 0).is_empty());
            assert!(run_rows(level, &[1.0; 6], &[0.0; 2 * NR], 1, 0, 2, 3).is_empty());
            assert_eq!(run_rows_t(level, &[], 3, &[], 1, 2, 0, 5), vec![0.0; 10]);
            assert!(run_rows_t(level, &[1.0; 6], 3, &[], 0, 3, 2, 0).is_empty());
            assert!(run_rows_t(level, &[], 3, &[0.0; 2 * NR], 1, 0, 2, 3).is_empty());
        }
    }

    /// For every shape of the grid, every row count `1..=rows_max` and the
    /// windows `i0 = 0` and `i0 = rows_max - rows`: A read transposed
    /// (`matmul_rows_t` over a stored, unaligned Aᵀ) and B packed from a
    /// stored Bᵀ (`pack_bt`) give the bits `matmul_rows` gives on the
    /// materialized operands at `level` — non-finite entries included.
    fn assert_transposed_reads_reproduce(
        level: KernelLevel,
        rows_max: usize,
        ks: &[usize],
        ns: &[usize],
    ) {
        let mut rng = StdRng::seed_from_u64(33);
        for &k in ks {
            for &n in ns {
                for edge in [false, true] {
                    let (a, b, packed) = operands(rows_max, k, n, edge, &mut rng);
                    let (a, packed) = (&a[1..], &packed[1..]);
                    let mut packed_t = vec![f32::NAN; 3];
                    pack_bt(&transposed(&b, k, n), k, n, &mut packed_t);
                    assert_eq!(
                        bits(&packed_t),
                        bits(packed),
                        "{k}x{n}: pack_bt is not pack_b of the transpose"
                    );
                    let mut at = vec![0.0];
                    at.extend(transposed(&a[..rows_max * k], rows_max, k));
                    let at = &at[1..];
                    for rows in 1..=rows_max {
                        for i0 in [0, rows_max - rows] {
                            let want = run_rows(level, a, packed, i0, rows, k, n);
                            let got = run_rows_t(level, at, rows_max, &packed_t, i0, rows, k, n);
                            for (j, (x, y)) in got.iter().zip(&want).enumerate() {
                                assert!(
                                    same_value(*x, *y),
                                    "{level:?} {rows}x{k}x{n} i0={i0} edge={edge}: out[{j}] = {x:e}, want {y:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The transposed-A read and `pack_bt` at the portable level, through
    /// the same pointer arithmetic the SIMD levels run: every tile shape,
    /// ragged panels, both windows. Small enough for Miri
    /// (`cargo miri test -p cpt-nn tensor::tests::kernel_`).
    #[test]
    fn kernel_transposed_reads_zero_ulp_vs_materialized_at_portable() {
        assert_transposed_reads_reproduce(KernelLevel::Portable, 9, &[1, 5], &[1, 17, 33]);
    }

    /// The same at every level the machine has, over rows 1..=33 and k, n
    /// through 1, 15, 16, 17, 48 and 192.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn kernel_transposed_reads_zero_ulp_vs_materialized_at_every_level() {
        const DIMS: [usize; 6] = [1, 15, 16, 17, 48, 192];
        for level in KernelLevel::available() {
            assert_transposed_reads_reproduce(level, GRID_ROWS, &DIMS, &DIMS);
        }
    }

    /// The tape's entry points, `gemm_into` and `Tensor::bmm_op_into`,
    /// with either operand or both read transposed, are 0 ULP equal to
    /// transposing first and calling `matmul_into` / `bmm_into`, and
    /// overwrite every element of `out`.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn kernel_transposed_entry_points_zero_ulp_vs_transpose_then_multiply() {
        let mut rng = StdRng::seed_from_u64(34);
        let ops = [
            (Op::N, Op::N),
            (Op::N, Op::T),
            (Op::T, Op::N),
            (Op::T, Op::T),
        ];
        for (m, k, n) in [
            (1, 1, 1),
            (33, 17, 15),
            (7, 48, 192),
            (16, 192, 17),
            (256, 48, 48),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let mut want = vec![0.0; m * n];
            matmul_into(&a.data, &b.data, &mut want, m, k, n);
            for (ta, tb) in ops {
                let a = if ta == Op::T { a.t2() } else { a.clone() };
                let b = if tb == Op::T { b.t2() } else { b.clone() };
                let mut got = vec![f32::NAN; m * n];
                gemm_into(ta, &a.data, tb, &b.data, &mut got, m, k, n);
                assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} {ta:?}{tb:?}");
            }
            let a3 = Tensor::randn(&[3, m, k], 1.0, &mut rng);
            let b3 = Tensor::randn(&[3, k, n], 1.0, &mut rng);
            let mut want = vec![0.0; 3 * m * n];
            a3.bmm_into(&b3, &mut want);
            for (ta, tb) in ops {
                let a = if ta == Op::T {
                    a3.transpose_last2()
                } else {
                    a3.clone()
                };
                let b = if tb == Op::T {
                    b3.transpose_last2()
                } else {
                    b3.clone()
                };
                let mut got = vec![f32::NAN; 3 * m * n];
                a.bmm_op_into(ta, &b, tb, &mut got);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "3x{m}x{k}x{n} batched {ta:?}{tb:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "lhsᵀ shorter")]
    fn kernel_rejects_a_short_transposed_lhs_before_reading_it() {
        let mut out = [0.0; 9];
        matmul_rows_t(
            &[1.0; 5],
            3,
            &[1.0; 2 * NR],
            &mut out,
            0,
            3,
            2,
            3,
            KernelLevel::Portable,
        );
    }

    #[test]
    #[should_panic(expected = "out shorter than rows * n")]
    fn kernel_rejects_a_short_out_before_touching_it() {
        let mut out = [0.0; 5];
        matmul_rows(
            &[1.0; 4],
            &[1.0; 2 * NR],
            &mut out,
            0,
            2,
            2,
            3,
            KernelLevel::Portable,
        );
    }

    #[test]
    #[should_panic(expected = "fewer panels")]
    fn kernel_rejects_short_panels_before_touching_them() {
        let mut out = [0.0; 34];
        matmul_rows(
            &[1.0; 4],
            &[1.0; 3 * NR],
            &mut out,
            0,
            2,
            2,
            17,
            KernelLevel::Portable,
        );
    }

    /// Cross-level bit equality over the full ragged grid. The portable
    /// level must equal the serial reference; each FMA level must equal the
    /// lowest FMA level's full-height result, so AVX-512 == AVX2+FMA to
    /// 0 ULP, unaligned, for every row window, with non-finite entries
    /// giving the same non-finite output. Levels the machine lacks are
    /// skipped.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn every_level_zero_ulp_vs_its_reference_over_ragged_shapes() {
        let levels = KernelLevel::available();
        for &level in &levels {
            if level == KernelLevel::Portable {
                assert_level_reproduces(
                    level,
                    reference_rows(GRID_ROWS),
                    GRID_ROWS,
                    &GRID_KS,
                    &GRID_NS,
                );
            } else {
                let lowest_fma = levels[1];
                assert_level_reproduces(
                    level,
                    |a, _, packed, k, n| run_rows(lowest_fma, a, packed, 0, GRID_ROWS, k, n),
                    GRID_ROWS,
                    &GRID_KS,
                    &GRID_NS,
                );
            }
        }
    }

    /// Differential test against a naive f64 GEMM: every level, every
    /// ragged shape, error ≤ 1e-5 of the element's `Σ_k |a·b|`.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn every_level_tracks_an_f64_gemm_over_ragged_shapes() {
        let mut rng = StdRng::seed_from_u64(32);
        for k in GRID_KS {
            for n in GRID_NS {
                let (a, b, packed) = operands(GRID_ROWS, k, n, false, &mut rng);
                let (a, packed) = (&a[1..], &packed[1..]);
                let mut exact = vec![0.0f64; GRID_ROWS * n];
                let mut mass = vec![0.0f64; GRID_ROWS * n];
                for i in 0..GRID_ROWS {
                    for kk in 0..k {
                        for j in 0..n {
                            let prod = a[i * k + kk] as f64 * b[kk * n + j] as f64;
                            exact[i * n + j] += prod;
                            mass[i * n + j] += prod.abs();
                        }
                    }
                }
                for level in KernelLevel::available() {
                    for rows in 1..=GRID_ROWS {
                        let got = run_rows(level, a, packed, 0, rows, k, n);
                        for (j, x) in got.iter().enumerate() {
                            let err = (*x as f64 - exact[j]).abs();
                            assert!(
                                err <= 1e-5 * mass[j],
                                "{level:?} {rows}x{k}x{n}: out[{j}] = {x:e}, f64 says {:e}",
                                exact[j]
                            );
                        }
                    }
                }
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
            assert!(
                err <= 2e-6 * (x.abs() as f64).max(1.0),
                "gelu({x:e}) = {y:e}, off by {err:e}"
            );
            assert_eq!(
                tanh_rational(-x).to_bits(),
                (-tanh_rational(x)).to_bits(),
                "tanh odd at {x:e}"
            );
            assert!(
                (tanh_rational(x) as f64 - f64::tanh(x as f64)).abs() <= 4e-7,
                "tanh({x:e})"
            );
        }
        assert_eq!(gelu_scalar(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(gelu_scalar(-0.0).to_bits(), (-0.0f32).to_bits());
        // The clamp sits where the rational reaches exactly ±1, so the
        // saturated tails are exact: x on the right, −0 on the left.
        assert_eq!(tanh_rational(7.905_311), 1.0);
        assert_eq!(gelu_scalar(30.0), 30.0);
        assert_eq!(gelu_scalar(-30.0).to_bits(), (-0.0f32).to_bits());
    }

    /// The 8- and 16-lane compilations of the row loop against the portable
    /// one, 0 ULP; levels the machine lacks are skipped.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn gelu_rows_every_level_bit_identical_to_portable() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut pool = gelu_sweep();
        pool.extend(Tensor::randn(&[4096], 3.0, &mut rng).data);
        pool.extend([
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            1e-45,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ]);
        for level in KernelLevel::available() {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 1023, pool.len()] {
                // Ragged lengths taken from the end, where the edge values are.
                let src = &pool[pool.len() - len..];
                let mut portable = src.to_vec();
                rows_at(GeluRows(&mut portable), KernelLevel::Portable);
                let mut wide = src.to_vec();
                rows_at(GeluRows(&mut wide), level);
                for ((x, a), b) in src.iter().zip(&portable).zip(&wide) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{level:?} len {len}: gelu({x:e}) = {a:e} vs {b:e}"
                    );
                }
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
        rows_at(GeluRows(&mut portable), KernelLevel::Portable);
        assert!(portable.iter().all(|v| !v.is_finite()));
    }

    /// FNV-1a over libm's `tanh` at 4096 points of [−12, 12]: which `tanhf`
    /// the platform links.
    fn libm_tanh_probe() -> u64 {
        (0..4096).fold(fnv1a(&[]), |h, i| {
            let x = -12.0 + 24.0 * i as f32 / 4096.0;
            fnv1a_continue(h, &f32::tanh(x).to_bits().to_le_bytes())
        })
    }

    /// The probe of fdlibm's `tanhf`, which glibc ran up to at least 2.36
    /// (x86-64 Linux).
    const FDLIBM_TANH_PROBE: u64 = 0xc67c_bbdf_6bdb_0f48;

    /// Whether libm's `tanh` is fdlibm's `tanhf`, so that the tape's own
    /// `tanh` must equal it bit for bit. Elsewhere the tests that compare
    /// the two print what they found and assert nothing.
    pub(crate) fn libm_tanh_is_fdlibm() -> bool {
        libm_tanh_probe() == FDLIBM_TANH_PROBE
    }

    /// Both sides of every branch point of fdlibm's `tanhf` (|x| = 2⁻⁵⁵, 1,
    /// 22), and of the `expm1f` it calls at `u = ±2|x|` (|u| = 2⁻²⁵,
    /// 0.5·ln2, 1.5·ln2, 27·ln2; as inputs and halved), ±1 ulp; then zero,
    /// subnormals, the largest finite, ±∞ and NaNs; each with both signs.
    fn tanh_edge_inputs() -> Vec<f32> {
        let mut bits = Vec::new();
        for b in [0x2400_0000u32, 0x3f80_0000, 0x41b0_0000] {
            bits.extend([b - 1, b, b + 1]);
        }
        for u in [0x3300_0000u32, 0x3eb1_7218, 0x3f85_1592, 0x4195_b844] {
            for b in [u, u - 0x0080_0000] {
                bits.extend([b - 1, b, b + 1]);
            }
        }
        bits.extend([0, 1, 2, 0x007f_ffff, 0x0080_0000, 0x7f7f_ffff]);
        bits.extend([0x7f80_0000, 0x7f80_0001, 0x7fc0_0000, 0x7fff_ffff]);
        bits.iter()
            .flat_map(|&b| [f32::from_bits(b), f32::from_bits(b | 0x8000_0000)])
            .collect()
    }

    /// FNV-1a over libm's `exp` at 4096 points of [−104, 89] and at the two
    /// inputs of (−88, 88) that glibc's `expf` code rounds otherwise when it
    /// is compiled without FMA: which `expf` the platform links.
    fn libm_expf_probe() -> u64 {
        let grid = (0..4096).map(|i| -104.0 + 193.0 * i as f32 / 4096.0);
        grid.chain([0x4202_422f, 0xc27c_65d9].map(f32::from_bits))
            .fold(fnv1a(&[]), |h, x| {
                // Opaque, so that the compiler cannot fold the call with
                // its own `exp`.
                let y = f32::exp(std::hint::black_box(x));
                fnv1a_continue(h, &y.to_bits().to_le_bytes())
            })
    }

    /// The probe of glibc 2.36's `expf` on a CPU with FMA (x86-64 Linux),
    /// where its ifunc picks `__expf_fma`.
    const GLIBC_FMA_EXPF_PROBE: u64 = 0x0098_85d1_3306_ca65;

    /// Both sides of glibc's `expf` thresholds (|x| = 88, where it branches
    /// to its special cases; ln 2¹²⁸; ln 2⁻¹⁴⁹; ln 2⁻¹⁵⁰), of the port's
    /// clamp (89, −104) and of every `x = m·ln 2` the table serves, where
    /// `k mod 32` wraps, ±1 ulp; then zero, subnormals, the largest finite,
    /// ±∞ and NaNs; each with both signs.
    fn expf_edge_inputs() -> Vec<f32> {
        let mut bits = Vec::new();
        let thresholds = [
            0x42b0_0000u32,
            0x42b1_7217,
            0x42ce_8ecf,
            0x42cf_f1b4,
            0x42b2_0000,
            0x42d0_0000,
        ];
        let wraps = (-150..=128).map(|m| (f64::from(m) * std::f64::consts::LN_2) as f32);
        for b in thresholds.into_iter().chain(wraps.map(f32::to_bits)) {
            bits.extend([b.wrapping_sub(1), b, b.wrapping_add(1)]);
        }
        bits.extend([0, 1, 2, 0x007f_ffff, 0x0080_0000, 0x7f7f_ffff]);
        bits.extend([0x7f80_0000, 0x7f80_0001, 0x7fc0_0000, 0x7fff_ffff]);
        bits.iter()
            .flat_map(|&b| [f32::from_bits(b), f32::from_bits(b | 0x8000_0000)])
            .collect()
    }

    /// An in-tree port of a libm function, compared with libm bit for bit.
    #[derive(Clone, Copy)]
    enum Port {
        /// [`tanh_fdlibm`] against libm's `tanh`.
        Tanh,
        /// [`expf_glibc`] against libm's `exp`.
        Exp,
    }

    impl Port {
        fn name(self) -> &'static str {
            match self {
                Port::Tanh => "tanh_fdlibm",
                Port::Exp => "expf_glibc",
            }
        }

        /// The port over `xs` through its row loop compiled at `level`.
        fn rows(self, xs: &[f32], level: KernelLevel) -> Vec<f32> {
            match self {
                Port::Tanh => {
                    let mut out = vec![0.0; xs.len()];
                    rows_at(TanhRows { xs, out: &mut out }, level);
                    out
                }
                Port::Exp => {
                    let mut out = xs.to_vec();
                    rows_at(ExpRows(&mut out), level);
                    out
                }
            }
        }

        fn libm(self, x: f32) -> f32 {
            match self {
                Port::Tanh => f32::tanh(x),
                Port::Exp => f32::exp(x),
            }
        }

        /// `None` where libm is the function the port transcribes, so that
        /// they must agree bit for bit; elsewhere why not.
        fn unchecked(self) -> Option<String> {
            match self {
                Port::Tanh if !libm_tanh_is_fdlibm() => Some(format!(
                    "libm's tanh is not fdlibm's tanhf (probe {:016x})",
                    libm_tanh_probe()
                )),
                Port::Exp if libm_expf_probe() != GLIBC_FMA_EXPF_PROBE => Some(format!(
                    "libm's exp is not glibc's FMA expf (probe {:016x})",
                    libm_expf_probe()
                )),
                _ => None,
            }
        }

        /// How many of `xs` the port compiled at `level` maps to other bits
        /// than libm does (any NaN equals any NaN), and the first.
        fn libm_mismatches(self, xs: &[f32], level: KernelLevel) -> (u64, Option<f32>) {
            let mut count = 0;
            let mut first = None;
            for (&x, &y) in xs.iter().zip(&self.rows(xs, level)) {
                let want = self.libm(x);
                if y.to_bits() != want.to_bits() && !(y.is_nan() && want.is_nan()) {
                    count += 1;
                    first.get_or_insert(x);
                }
            }
            (count, first)
        }

        /// Asserts no mismatch where libm is the transcribed function; prints
        /// the count either way.
        fn check_against_libm(
            self,
            sweep: &str,
            level: KernelLevel,
            (count, first): (u64, Option<f32>),
        ) {
            println!(
                "{} at {} against libm, {sweep}: {count} mismatches",
                self.name(),
                level.name()
            );
            match self.unchecked() {
                None => assert_eq!(
                    count, 0,
                    "{level:?}, {sweep}: the first mismatch is at {first:?}"
                ),
                Some(why) => println!("  not checked: {why}"),
            }
        }

        /// Every 4099th bit pattern and `edges`, at every level.
        fn check_strided_sweep(self, edges: Vec<f32>) {
            let mut xs = edges;
            xs.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
            for level in KernelLevel::available() {
                let found = self.libm_mismatches(&xs, level);
                self.check_against_libm("every 4099th bit pattern and the edges", level, found);
            }
        }

        /// All 2³² bit patterns at every level.
        fn check_exhaustively(self) {
            for level in KernelLevel::available() {
                let chunks: Vec<(u64, Option<f32>)> = (0..1u32 << 16)
                    .into_par_iter()
                    .map(|hi| {
                        let xs: Vec<f32> = (0..1u32 << 16)
                            .map(|lo| f32::from_bits(hi << 16 | lo))
                            .collect();
                        self.libm_mismatches(&xs, level)
                    })
                    .collect();
                let count = chunks.iter().map(|c| c.0).sum();
                let first = chunks.iter().find_map(|c| c.1);
                self.check_against_libm("all 2^32 bit patterns", level, (count, first));
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn tanh_fdlibm_matches_libm_on_a_strided_sweep_and_every_branch_point() {
        Port::Tanh.check_strided_sweep(tanh_edge_inputs());
    }

    /// All 2³² inputs at every level; about a minute per level in a release
    /// build on two cores. CI runs it with `--ignored`.
    #[test]
    #[ignore]
    fn tanh_fdlibm_matches_libm_exhaustively() {
        Port::Tanh.check_exhaustively();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn expf_glibc_matches_libm_on_a_strided_sweep_and_every_edge() {
        Port::Exp.check_strided_sweep(expf_edge_inputs());
    }

    /// All 2³² inputs at every level; about 30 s per level in a release
    /// build on two cores. CI runs it with `--ignored`.
    #[test]
    #[ignore]
    fn expf_glibc_matches_libm_exhaustively() {
        Port::Exp.check_exhaustively();
    }

    /// glibc 2.36's `expf` on an FMA CPU, recorded: `(x, exp(x))` as bits.
    /// The last two rows are inputs of (−88, 88) where an unfused
    /// transcription rounds otherwise. No NaN: its bits out are not
    /// specified.
    const GLIBC_EXPF: [(u32, u32); 17] = [
        (0x0000_0000, 0x3f80_0000),
        (0x0000_0001, 0x3f80_0000),
        (0x3f80_0000, 0x402d_f854),
        (0xbf80_0000, 0x3ebc_5ab2),
        (0x3f00_0000, 0x3fd3_094c),
        (0x4120_0000, 0x46ac_14ee),
        (0xc120_0000, 0x383e_6bce),
        (0xc2af_0000, 0x006c_b2bc),
        (0x42b1_7217, 0x7f7f_ff84),
        (0x42b1_7218, 0x7f80_0000),
        (0xc2ce_8ecf, 0x0000_0001),
        (0xc2cf_f1b4, 0x0000_0001),
        (0xc2cf_f1b5, 0x0000_0000),
        (0xff80_0000, 0x0000_0000),
        (0x7f80_0000, 0x7f80_0000),
        (0x4202_422f, 0x56fc_9f1c),
        (0xc27c_65d9, 0x11fa_2993),
    ];

    /// The softmax's `exp` compiled 8 and 16 lanes wide against the portable
    /// loop, 0 ULP, on the edge inputs and N(0, 30²) draws at ragged
    /// lengths, and every level against the recorded glibc values on any
    /// libm. Sized for Miri, which runs the portable level alone (it reports
    /// no SIMD feature) and so checks that `mul_add` rounds once there.
    #[test]
    fn kernel_exp_rows_every_level_bit_identical_to_portable() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut pool = Tensor::randn(&[256], 30.0, &mut rng).data;
        pool.extend(expf_edge_inputs());
        let (xs, want): (Vec<f32>, Vec<u32>) = GLIBC_EXPF
            .iter()
            .map(|&(x, y)| (f32::from_bits(x), y))
            .unzip();
        for level in KernelLevel::available() {
            let got = Port::Exp.rows(&xs, level);
            for ((x, y), want) in xs.iter().zip(&got).zip(&want) {
                assert_eq!(y.to_bits(), *want, "{level:?}: exp({x:e}) = {y:e}");
            }
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 33, pool.len()] {
                // Ragged lengths taken from the end, where the edge values are.
                let src = &pool[pool.len() - len..];
                let (a, b) = (
                    Port::Exp.rows(src, KernelLevel::Portable),
                    Port::Exp.rows(src, level),
                );
                for ((x, a), b) in src.iter().zip(&a).zip(&b) {
                    assert!(
                        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                        "{level:?} len {len}: exp({x:e}) = {a:e} vs {b:e}"
                    );
                }
            }
        }
    }

    /// The tape's row loops compiled 8 and 16 lanes wide against the portable
    /// ones, 0 ULP; levels the machine lacks are skipped.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn tape_rows_every_level_bit_identical_to_portable() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut pool = gelu_sweep();
        pool.extend(Tensor::randn(&[4096], 3.0, &mut rng).data);
        pool.extend(tanh_edge_inputs());
        let ups = Tensor::randn(&[pool.len()], 1.0, &mut rng).data;
        let run = |level, xs: &[f32], go: &[f32]| {
            let n = xs.len();
            let [mut tanh, mut th, mut out, mut dx] = [(); 4].map(|_| vec![0.0; n]);
            rows_at(TanhRows { xs, out: &mut tanh }, level);
            rows_at(
                GeluTapeRows {
                    xs,
                    th: &mut th,
                    out: &mut out,
                },
                level,
            );
            rows_at(
                GeluTapeGradRows {
                    xs,
                    th: &th,
                    go,
                    dx: &mut dx,
                },
                level,
            );
            [
                ("tanh", tanh),
                ("gelu's tanh", th),
                ("gelu", out),
                ("gelu backward", dx),
            ]
        };
        for level in KernelLevel::available() {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 1023, pool.len()] {
                // Ragged lengths taken from the end, where the edge values are.
                let (xs, go) = (&pool[pool.len() - len..], &ups[ups.len() - len..]);
                for ((name, a), (_, b)) in run(KernelLevel::Portable, xs, go)
                    .into_iter()
                    .zip(run(level, xs, go))
                {
                    for ((x, a), b) in xs.iter().zip(&a).zip(&b) {
                        assert!(
                            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                            "{level:?} len {len}: {name} at {x:e} = {a:e} vs {b:e}"
                        );
                    }
                }
            }
        }
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
                    let bound = amass
                        * (b.data.iter().fold(0.0f32, |acc, x| acc.max(x.abs())) / 254.0)
                        + 1e-4;
                    let err = (quant[i * n + j] - reference[i * n + j]).abs();
                    assert!(
                        err <= bound,
                        "{m}x{k}x{n} [{i},{j}]: err {err} > bound {bound}"
                    );
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
            matmul_rows(&a.data, &packed, &mut blocked, 0, m, k, n, KernelLevel::Portable);
            for (x, y) in reference.iter().zip(&blocked) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // Split at an arbitrary row: partitioning never changes bits.
            let split = seed as usize % m;
            let mut parts = vec![0.0; m * n];
            let (top, bottom) = parts.split_at_mut(split * n);
            matmul_rows(&a.data, &packed, top, 0, split, k, n, KernelLevel::Portable);
            matmul_rows(&a.data, &packed, bottom, split, m - split, k, n, KernelLevel::Portable);
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
