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
        let level = KernelLevel::active();
        out.par_chunks_mut(m * n)
            .zip(self.data.par_chunks(m * k).zip(other.data.par_chunks(k * n)))
            .for_each(|(o, (a, bm))| {
                let mut packed = take_pack_buf();
                pack_b(bm, k, n, &mut packed);
                matmul_rows(a, &packed, o, 0, m, k, n, level);
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
/// Minimum m*k*n before matmul forks to rayon.
const PAR_FLOPS_THRESHOLD: usize = 64 * 64 * 64;

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
            Ymm2(_mm256_fmadd_ps(a.0, b.0, acc.0), _mm256_fmadd_ps(a.1, b.1, acc.1))
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

/// One [`matmul_rows`] call as the tiles see it. Only `matmul_rows` builds
/// one, after asserting what the tiles rely on: `a` is valid for `rows * k`
/// reads, `packed` for `⌈n / NR⌉ * k * NR` reads and `out` for `rows * n`
/// writes.
struct Gemm {
    a: *const f32,
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
/// recompute row `live - 1` and are not stored.
///
/// # Safety
/// The CPU must support `V`'s level, `g` must hold what [`Gemm`] documents,
/// `1 <= live <= M`, `r + live <= g.rows` and `p + P <= ⌈g.n / NR⌉`.
#[inline(always)]
unsafe fn tile<V: PanelRow, const M: usize, const P: usize>(g: &Gemm, r: usize, p: usize, live: usize) {
    let k = g.k;
    let b = g.packed.add(p * k * NR);
    let mut arow = [g.a; M];
    for (i, ar) in arow.iter_mut().enumerate() {
        *ar = g.a.add((r + i.min(live - 1)) * k);
    }
    let mut acc = [[V::zero(); P]; M];
    for kk in 0..k {
        let mut brow = [V::zero(); P];
        for (j, bv) in brow.iter_mut().enumerate() {
            *bv = V::load(b.add((j * k + kk) * NR));
        }
        for (acc_row, ar) in acc.iter_mut().zip(arow) {
            let av = V::splat(*ar.add(kk));
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
unsafe fn band<V: PanelRow, const M: usize, const PMAX: usize>(g: &Gemm, r: usize, live: usize) {
    let panels = g.n.div_ceil(NR);
    let mut p = 0;
    if PMAX >= 8 {
        while p + 8 <= panels {
            tile::<V, M, 8>(g, r, p, live);
            p += 8;
        }
    }
    if PMAX >= 4 {
        while p + 4 <= panels {
            tile::<V, M, 4>(g, r, p, live);
            p += 4;
        }
    }
    if PMAX >= 2 {
        while p + 2 <= panels {
            tile::<V, M, 2>(g, r, p, live);
            p += 2;
        }
    }
    while p < panels {
        tile::<V, M, 1>(g, r, p, live);
        p += 1;
    }
}

/// The tile table of the two 16-float-register-file levels: 4×1 main tile
/// (at AVX2, eight ymm accumulators), which also takes a 3-row remainder;
/// 2×2 and 1×4 for two rows and one.
///
/// # Safety
/// The CPU must support `V`'s level; `g` must hold what [`Gemm`] documents.
#[inline(always)]
unsafe fn gemm_narrow<V: PanelRow>(g: &Gemm) {
    let mut r = 0;
    while r < g.rows {
        let live = (g.rows - r).min(4);
        match live {
            1 => band::<V, 1, 4>(g, r, live),
            2 => band::<V, 2, 2>(g, r, live),
            _ => band::<V, 4, 1>(g, r, live),
        }
        r += live;
    }
}

/// # Safety
/// The CPU must support AVX2 and FMA; `g` must hold what [`Gemm`] documents.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_avx2(g: &Gemm) {
    gemm_narrow::<x86::Ymm2>(g)
}

/// The 512-bit tile table: 8×2 main tile (16 zmm accumulators, two B loads
/// and eight broadcasts per k-step), which also takes a remainder of 5 to 7
/// rows; 4×2 for 3 or 4 rows, 2×4 for two and 1×8 for one.
///
/// # Safety
/// The CPU must support AVX-512F; `g` must hold what [`Gemm`] documents.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512(g: &Gemm) {
    use std::arch::x86_64::__m512;
    let mut r = 0;
    while r < g.rows {
        let live = (g.rows - r).min(8);
        match live {
            1 => band::<__m512, 1, 8>(g, r, live),
            2 => band::<__m512, 2, 4>(g, r, live),
            3 | 4 => band::<__m512, 4, 2>(g, r, live),
            _ => band::<__m512, 8, 2>(g, r, live),
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
    let size = |x: usize, y: usize| x.checked_mul(y).expect("matmul_rows: size overflows usize");
    let a_rows = i0.checked_add(rows).expect("matmul_rows: size overflows usize");
    assert!(a.len() >= size(a_rows, k), "matmul_rows: lhs shorter than (i0 + rows) * k");
    assert!(out.len() >= size(rows, n), "matmul_rows: out shorter than rows * n");
    assert!(
        packed.len() >= size(n.div_ceil(NR), size(k, NR)),
        "matmul_rows: fewer panels than ceil(n / NR) * k * NR"
    );
    assert!(level <= KernelLevel::active(), "matmul_rows: {level:?} is not available on this CPU");
    // `i0 * k` is in bounds of `a` (asserted above), so the offset pointer
    // is too; the three asserts are exactly what `Gemm` documents.
    let g = Gemm {
        a: a[i0 * k..].as_ptr(),
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
            unsafe { gemm_narrow::<[f32; NR]>(&g) }
        }
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2Fma => {
            // SAFETY: `level <= active()` was asserted, and `active()` is
            // `Avx2Fma` or higher only after detecting AVX2 and FMA; `g` as
            // above.
            unsafe { gemm_avx2(&g) }
        }
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx512 => {
            // SAFETY: `level <= active()` was asserted, and `active()` is
            // `Avx512` only after detecting AVX-512F; `g` as above.
            unsafe { gemm_avx512(&g) }
        }
    }
}

/// `out = a x b` for row-major 2-D data through the packed kernel,
/// rayon-parallel over tile-aligned row blocks for large problems.
/// Overwrites `out` entirely. Packs `b` on every call, which is right when
/// `b` changes between calls (training, activations × activations);
/// inference over fixed weights goes through `Linear::apply_rows_into`,
/// which packs once per weight version.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let level = KernelLevel::active();
    let mut packed = take_pack_buf();
    pack_b(b, k, n, &mut packed);
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
            .for_each(|(blk, chunk)| {
                let i0 = blk * block_rows;
                matmul_rows(a, &packed, chunk, i0, chunk.len() / n, k, n, level);
            });
    } else {
        matmul_rows(a, &packed, out, 0, m, k, n, level);
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
// is linked. The row loop is written once and compiled once per
// `KernelLevel`.
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

/// The row loop, written once; [`gelu_rows_avx2`] and [`gelu_rows_avx512`]
/// are the same source compiled 8 and 16 lanes wide.
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

/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gelu_rows_avx512(xs: &mut [f32]) {
    gelu_rows_portable(xs)
}

/// [`gelu_rows`] at a named level, so tests can compare the compilations.
fn gelu_rows_at(xs: &mut [f32], level: KernelLevel) {
    assert!(level <= KernelLevel::active(), "gelu_rows: {level:?} is not available on this CPU");
    match level {
        KernelLevel::Portable => gelu_rows_portable(xs),
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx2Fma => {
            // SAFETY: `level <= active()` was asserted, and `active()` is
            // `Avx2Fma` or higher only after detecting AVX2.
            unsafe { gelu_rows_avx2(xs) }
        }
        #[cfg(target_arch = "x86_64")]
        KernelLevel::Avx512 => {
            // SAFETY: `level <= active()` was asserted, and `active()` is
            // `Avx512` only after detecting AVX-512F.
            unsafe { gelu_rows_avx512(xs) }
        }
    }
}

/// In-place GELU over a slice: the activation of the gradient-free decode
/// path (block MLP and output heads). Elementwise, and bit-identical
/// between the portable, the AVX2 and the AVX-512 compilation for every
/// non-NaN input, so a row's result does not depend on the batch around it
/// or on the machine. Training uses the tape's own libm GELU (`graph.rs`).
pub fn gelu_rows(xs: &mut [f32]) {
    gelu_rows_at(xs, KernelLevel::active())
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
        // Above the parallel threshold, so matmul() takes the rayon path;
        // 83 rows so the last block is a ragged one at either tile height.
        let (m, k, n) = (83, 70, 90);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut packed = Vec::new();
        pack_b(&b.data, k, n, &mut packed);
        let mut serial = vec![0.0; m * n];
        matmul_rows(&a.data, &packed, &mut serial, 0, m, k, n, KernelLevel::active());
        for threads in [1usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let big = pool.install(|| a.matmul(&b));
            assert_eq!(bits(&big.data), bits(&serial), "{threads} threads");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const CANARY: u32 = 0xDEAD_BEEF;

    /// `matmul_rows` at `level` into an `out` that starts an odd number of
    /// floats past an allocation's start and has canary floats on both
    /// sides of the `rows * n` it may write; panics if a canary moved.
    fn run_rows(level: KernelLevel, a: &[f32], packed: &[f32], i0: usize, rows: usize, k: usize, n: usize) -> Vec<f32> {
        const PAD: usize = 2 * NR + 1;
        let mut out = vec![f32::from_bits(CANARY); PAD + rows * n + PAD];
        matmul_rows(a, packed, &mut out[PAD..], i0, rows, k, n, level);
        let written = PAD..PAD + rows * n;
        for (i, v) in out.iter().enumerate() {
            assert!(written.contains(&i) || v.to_bits() == CANARY, "{level:?} {rows}x{k}x{n}: wrote out[{i}]");
        }
        out[written].to_vec()
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
    fn operands(rows_max: usize, k: usize, n: usize, edge: bool, rng: &mut StdRng) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
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

    /// The portable level is 0 ULP equal to `matmul_reference` at every
    /// tile shape (rows 1..=9 reach 4×1 full and with three live rows, 2×2
    /// and 1×4; 130 columns leave a 1-panel and a ragged tile), through the
    /// same pointer arithmetic the SIMD levels run. Small enough for Miri
    /// (`cargo miri test -p cpt-nn tensor::tests::kernel_`).
    #[test]
    fn kernel_portable_zero_ulp_vs_reference_and_in_bounds() {
        assert_level_reproduces(KernelLevel::Portable, reference_rows(9), 9, &[1, 5], &[1, 15, 16, 17, 33, 130]);
    }

    /// Degenerate shapes form no tile (or a tile with no k-step) and still
    /// stay inside `out`.
    #[test]
    fn kernel_empty_shapes_write_zeros_or_nothing() {
        for level in KernelLevel::available() {
            assert_eq!(run_rows(level, &[], &[], 0, 3, 0, 5), vec![0.0; 15]);
            assert!(run_rows(level, &[1.0; 6], &[], 0, 3, 2, 0).is_empty());
            assert!(run_rows(level, &[1.0; 6], &[0.0; 2 * NR], 1, 0, 2, 3).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "out shorter than rows * n")]
    fn kernel_rejects_a_short_out_before_touching_it() {
        let mut out = [0.0; 5];
        matmul_rows(&[1.0; 4], &[1.0; 2 * NR], &mut out, 0, 2, 2, 3, KernelLevel::Portable);
    }

    #[test]
    #[should_panic(expected = "fewer panels")]
    fn kernel_rejects_short_panels_before_touching_them() {
        let mut out = [0.0; 34];
        matmul_rows(&[1.0; 4], &[1.0; 3 * NR], &mut out, 0, 2, 2, 17, KernelLevel::Portable);
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
                assert_level_reproduces(level, reference_rows(GRID_ROWS), GRID_ROWS, &GRID_KS, &GRID_NS);
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

    /// The 8- and 16-lane compilations of the row loop against the portable
    /// one, 0 ULP; levels the machine lacks are skipped.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn gelu_rows_every_level_bit_identical_to_portable() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut pool = gelu_sweep();
        pool.extend(Tensor::randn(&[4096], 3.0, &mut rng).data);
        pool.extend([f32::MAX, f32::MIN, f32::MIN_POSITIVE, 1e-45, f32::INFINITY, f32::NEG_INFINITY]);
        for level in KernelLevel::available() {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 1023, pool.len()] {
                // Ragged lengths taken from the end, where the edge values are.
                let src = &pool[pool.len() - len..];
                let mut portable = src.to_vec();
                gelu_rows_portable(&mut portable);
                let mut wide = src.to_vec();
                gelu_rows_at(&mut wide, level);
                for ((x, a), b) in src.iter().zip(&portable).zip(&wide) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{level:?} len {len}: gelu({x:e}) = {a:e} vs {b:e}");
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
