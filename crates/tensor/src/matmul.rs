//! Matrix multiplication kernels.
//!
//! The training stack only needs rank-2 GEMM in three transpose
//! configurations (forward pass, weight gradient, input gradient). All
//! three route through one cache-blocked kernel: the k dimension is
//! tiled so a block of `B` stays hot in cache, a four-row micro-kernel
//! amortises each `B` load across four output rows, and the j-inner
//! accumulation loop is a vectorisable axpy. The transposed variants
//! pack their transposed operand once and reuse the same kernel.
//!
//! The kernels read their operands through [`Operand`]: a dense
//! row-major matrix, or the convolution's tap view, which reads the
//! im2col columns in place from the zero-bordered image. Where an
//! element is read from never changes which chain it joins, so both
//! run the same kernel to the same bits.
//!
//! Output rows are split into fixed-size bands executed by
//! [`crate::parallel`]; each element's accumulation order is ascending
//! in `k` regardless of banding, so results are bit-identical at any
//! thread count (and to the un-banded kernel).
//!
//! Per-band execution dispatches on [`crate::simd::active_path`]: the
//! hand-written AVX2/FMA microkernel when the host supports it (and
//! `FEDMP_SIMD` doesn't say otherwise), else this file's blocked scalar
//! kernel. Both are thread-count and run-to-run bit-deterministic for a
//! fixed path; `FEDMP_SIMD=scalar` reproduces the pre-SIMD results
//! exactly.
//!
//! The original naive loops are kept as [`matmul_reference`],
//! [`matmul_nt_reference`] and [`matmul_tn_reference`]: slow, obviously
//! correct oracles for the equivalence test suite and the kernel
//! benchmarks.

use crate::parallel;
use crate::simd::{self, SimdPath};
use crate::tensor::Tensor;

/// Rows of `k` processed per cache tile: a tile of `B` (`KC × n`) is
/// reused by every row band while it is hot.
const KC: usize = 128;
/// Output rows computed together by the micro-kernel; each loaded `B`
/// row updates this many `C` rows.
const MR: usize = 4;
/// Output rows per parallel band. Fixed (never derived from the thread
/// count) so the band decomposition — and thus the result — is the same
/// however many workers run.
const BAND_ROWS: usize = 64;

/// A GEMM operand the kernels read in place: row `r` starts at
/// `data()[row(r)]`, and its columns lie in contiguous stretches. A
/// [`Dense`] row-major matrix is one stretch per row; the convolution's
/// tap view (`conv::Taps`) reads each tap of the zero-bordered image,
/// one stretch per output row.
pub(crate) trait Operand: Sync {
    /// The backing floats.
    fn data(&self) -> &[f32];
    /// Where row `r` starts in [`Operand::data`].
    fn row(&self, r: usize) -> usize;
    /// Columns `q0..q1` as their contiguous stretches, in order:
    /// `(first column, its offset from the row start, length)`.
    fn stretches(&self, q0: usize, q1: usize) -> impl Iterator<Item = (usize, usize, usize)>;
    /// Rows `r0..r1`, each cut to the floats at `lo..hi` past its start.
    #[inline(always)]
    fn windows(&self, r0: usize, r1: usize, lo: usize, hi: usize) -> impl Iterator<Item = &[f32]> {
        let data = self.data();
        (r0..r1).map(move |r| {
            let at = self.row(r);
            &data[at + lo..at + hi]
        })
    }
    /// One stretch — `len` floats from `off` past the row start — of
    /// each of the `R` rows from `r0`.
    #[inline(always)]
    fn segments<const R: usize>(&self, r0: usize, off: usize, len: usize) -> [&[f32]; R] {
        let data = self.data();
        let mut segs = [&data[..0]; R];
        for (r, seg) in segs.iter_mut().enumerate() {
            let at = self.row(r0 + r) + off;
            *seg = &data[at..at + len];
        }
        segs
    }
}

/// A row-major `[_, cols]` matrix.
pub(crate) struct Dense<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) cols: usize,
}

impl Operand for Dense<'_> {
    #[inline]
    fn data(&self) -> &[f32] {
        self.data
    }
    #[inline]
    fn row(&self, r: usize) -> usize {
        r * self.cols
    }
    #[inline]
    fn stretches(&self, q0: usize, q1: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        (q0 < q1).then_some((q0, q0, q1 - q0)).into_iter()
    }
}

/// Blocked `C += A @ B` on row-major slices: `[m, k] x [k, n]`, banded
/// over output rows. `c` must be zero-initialised by the caller.
/// Crate-visible so the conv kernels can run the exact same GEMM into
/// workspace-pooled buffers without building `Tensor` operands.
pub(crate) fn gemm_nn_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm_into(&Dense { data: a, cols: k }, &Dense { data: b, cols: n }, m, k, n, c);
}

/// `C += A @ B` for operands read in place, `A` as `[m, k]` and `B` as
/// `[k, n]`; `C` is a dense `[m, n]`. Each `C` element is one chain
/// ascending in `k`, whatever the operands' layouts, so a tap view
/// multiplies to the bits of the columns it stands for. The active
/// [`SimdPath`] is resolved **once per call** so every band of one GEMM
/// runs the same kernel even if a test flips the override
/// concurrently.
pub(crate) fn gemm_into<A: Operand, B: Operand>(
    a: &A,
    b: &B,
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
) {
    let path = simd::active_path();
    parallel::record_gemm_path(path == SimdPath::Avx2);
    let work = 2 * m * n * k;
    parallel::for_each_band(c, m, n, BAND_ROWS, work, |row0, band| {
        let rows = band.len() / n;
        match path {
            SimdPath::Avx2 => simd::gemm_band_avx2(a, row0, b, rows, k, n, band),
            SimdPath::Scalar => gemm_band(a, row0, b, rows, k, n, band),
        }
    });
}

/// One band of the blocked kernel: `rows × n` of `C` (rows `row0..` of
/// `A`), all of `k`.
fn gemm_band<A: Operand, B: Operand>(
    a: &A,
    row0: usize,
    b: &B,
    rows: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
) {
    let (ad, bd) = (a.data(), b.data());
    for p0 in (0..k).step_by(KC) {
        let p1 = (p0 + KC).min(k);
        let mut i = 0;
        while i + MR <= rows {
            let block = &mut c[i * n..(i + MR) * n];
            let (c0, rest) = block.split_at_mut(n);
            let (c1, rest) = rest.split_at_mut(n);
            let (c2, c3) = rest.split_at_mut(n);
            let a_rows: [usize; MR] = std::array::from_fn(|r| a.row(row0 + i + r));
            for (q, off, len) in a.stretches(p0, p1) {
                for s in 0..len {
                    let a0 = ad[a_rows[0] + off + s];
                    let a1 = ad[a_rows[1] + off + s];
                    let a2 = ad[a_rows[2] + off + s];
                    let a3 = ad[a_rows[3] + off + s];
                    let b_row = b.row(q + s);
                    for (j, b_off, b_len) in b.stretches(0, n) {
                        let b_run = &bd[b_row + b_off..b_row + b_off + b_len];
                        let d0 = &mut c0[j..j + b_len];
                        let d1 = &mut c1[j..j + b_len];
                        let d2 = &mut c2[j..j + b_len];
                        let d3 = &mut c3[j..j + b_len];
                        for x in 0..b_len {
                            let bv = b_run[x];
                            d0[x] += a0 * bv;
                            d1[x] += a1 * bv;
                            d2[x] += a2 * bv;
                            d3[x] += a3 * bv;
                        }
                    }
                }
            }
            i += MR;
        }
        while i < rows {
            let c_row = &mut c[i * n..(i + 1) * n];
            let a_row = a.row(row0 + i);
            for (q, off, len) in a.stretches(p0, p1) {
                for s in 0..len {
                    let a_ip = ad[a_row + off + s];
                    let b_row = b.row(q + s);
                    for (j, b_off, b_len) in b.stretches(0, n) {
                        let b_run = &bd[b_row + b_off..b_row + b_off + b_len];
                        for (cv, &bv) in c_row[j..j + b_len].iter_mut().zip(b_run) {
                            *cv += a_ip * bv;
                        }
                    }
                }
            }
            i += 1;
        }
    }
}

/// Cache-tiled transpose of a row-major `rows × cols` slice.
fn pack_transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut dst = vec![0.0f32; src.len()];
    pack_transpose_into(src, rows, cols, &mut dst);
    dst
}

/// [`pack_transpose`] into a caller-provided buffer (every element is
/// written, so `dst` need not be zeroed). Crate-visible for the
/// workspace-pooled conv kernels.
///
/// Dispatches to the AVX2 8×8 in-register transpose when the SIMD path
/// is active — a transpose is pure element copies, so both routes fill
/// `dst` with the same bits and the choice never affects a numeric
/// result, only pack throughput.
pub(crate) fn pack_transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    const TILE: usize = 32;
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), src.len());
    if simd::active_path() == SimdPath::Avx2 {
        simd::transpose_avx2(src, rows, cols, dst);
        return;
    }
    for r0 in (0..rows).step_by(TILE) {
        for c0 in (0..cols).step_by(TILE) {
            for r in r0..(r0 + TILE).min(rows) {
                for c in c0..(c0 + TILE).min(cols) {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

impl Tensor {
    /// `self @ other` for rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    /// Panics if either operand is not rank-2 or the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "matmul lhs must be rank-2");
        assert_eq!(other.shape().rank(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");

        let mut out = Tensor::zeros(&[m, n]);
        if m > 0 && n > 0 && k > 0 {
            gemm_nn_into(self.data(), other.data(), m, k, n, out.data_mut());
        }
        out
    }

    /// `self @ otherᵀ`: `[m, k] x [n, k] -> [m, n]` without materialising
    /// the transpose at the call site. This is the forward/input-gradient
    /// GEMM of a linear layer. Internally `other` is packed transposed
    /// once so the blocked kernel's streaming inner loop applies; the
    /// per-element accumulation order (ascending `k`) matches the naive
    /// dot product.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "matmul_nt lhs must be rank-2");
        assert_eq!(other.shape().rank(), 2, "matmul_nt rhs must be rank-2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (n, k2) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_nt inner dimension mismatch: {k} vs {k2}");

        let mut out = Tensor::zeros(&[m, n]);
        if m > 0 && n > 0 && k > 0 {
            let bt = pack_transpose(other.data(), n, k);
            gemm_nn_into(self.data(), &bt, m, k, n, out.data_mut());
        }
        out
    }

    /// `selfᵀ @ other`: `[k, m] x [k, n] -> [m, n]` without materialising
    /// the transpose at the call site. This is the weight-gradient GEMM
    /// of a linear layer; `self` is packed transposed once.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "matmul_tn lhs must be rank-2");
        assert_eq!(other.shape().rank(), 2, "matmul_tn rhs must be rank-2");
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(k, k2, "matmul_tn inner dimension mismatch: {k} vs {k2}");

        let mut out = Tensor::zeros(&[m, n]);
        if m > 0 && n > 0 && k > 0 {
            let at = pack_transpose(self.data(), k, m);
            gemm_nn_into(&at, other.data(), m, k, n, out.data_mut());
        }
        out
    }
}

/// Naive i-k-j `[m, k] x [k, n]` GEMM: the pre-blocking kernel, kept as
/// the oracle for equivalence tests and benchmark baselines.
pub fn matmul_reference(lhs: &Tensor, rhs: &Tensor) -> Tensor {
    assert_eq!(lhs.shape().rank(), 2, "matmul lhs must be rank-2");
    assert_eq!(rhs.shape().rank(), 2, "matmul rhs must be rank-2");
    let (m, k) = (lhs.dims()[0], lhs.dims()[1]);
    let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");

    let a = lhs.data();
    let b = rhs.data();
    let mut out = Tensor::zeros(&[m, n]);
    let c = out.data_mut();
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row.iter()) {
                *c_ij += a_ip * b_pj;
            }
        }
    }
    out
}

/// Naive dot-product `[m, k] x [n, k] -> [m, n]` GEMM (implicit
/// transpose of `rhs`): oracle and baseline for [`Tensor::matmul_nt`].
pub fn matmul_nt_reference(lhs: &Tensor, rhs: &Tensor) -> Tensor {
    assert_eq!(lhs.shape().rank(), 2, "matmul_nt lhs must be rank-2");
    assert_eq!(rhs.shape().rank(), 2, "matmul_nt rhs must be rank-2");
    let (m, k) = (lhs.dims()[0], lhs.dims()[1]);
    let (n, k2) = (rhs.dims()[0], rhs.dims()[1]);
    assert_eq!(k, k2, "matmul_nt inner dimension mismatch: {k} vs {k2}");

    let a = lhs.data();
    let b = rhs.data();
    let mut out = Tensor::zeros(&[m, n]);
    let c = out.data_mut();
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                acc += x * y;
            }
            c[i * n + j] = acc;
        }
    }
    out
}

/// Naive p-i-j `[k, m] x [k, n] -> [m, n]` GEMM (implicit transpose of
/// `lhs`): oracle and baseline for [`Tensor::matmul_tn`].
pub fn matmul_tn_reference(lhs: &Tensor, rhs: &Tensor) -> Tensor {
    assert_eq!(lhs.shape().rank(), 2, "matmul_tn lhs must be rank-2");
    assert_eq!(rhs.shape().rank(), 2, "matmul_tn rhs must be rank-2");
    let (k, m) = (lhs.dims()[0], lhs.dims()[1]);
    let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
    assert_eq!(k, k2, "matmul_tn inner dimension mismatch: {k} vs {k2}");

    let a = lhs.data();
    let b = rhs.data();
    let mut out = Tensor::zeros(&[m, n]);
    let c = out.data_mut();
    for p in 0..k {
        let a_row = &a[p * m..(p + 1) * m];
        let b_row = &b[p * n..(p + 1) * n];
        for (i, &a_pi) in a_row.iter().enumerate() {
            if a_pi == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row.iter()) {
                *c_ij += a_pi * b_pj;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = seeded_rng(5);
        let a = Tensor::randn(&[4, 4], &mut rng);
        assert_close(&a.matmul(&Tensor::eye(4)), &a, 1e-6);
        assert_close(&Tensor::eye(4).matmul(&a), &a, 1e-6);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let mut rng = seeded_rng(6);
        let a = Tensor::randn(&[3, 5], &mut rng);
        let b = Tensor::randn(&[4, 5], &mut rng);
        assert_close(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-5);
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let mut rng = seeded_rng(7);
        let a = Tensor::randn(&[5, 3], &mut rng);
        let b = Tensor::randn(&[5, 4], &mut rng);
        assert_close(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-5);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn associativity_with_identity_chain() {
        let mut rng = seeded_rng(8);
        let a = Tensor::randn(&[2, 6], &mut rng);
        let b = Tensor::randn(&[6, 3], &mut rng);
        let c = Tensor::randn(&[3, 4], &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert_close(&left, &right, 1e-4);
    }

    #[test]
    fn blocked_matches_reference_past_tile_boundaries() {
        // Shapes straddling KC, MR and BAND_ROWS multiples.
        let mut rng = seeded_rng(9);
        for (m, k, n) in [(1, 1, 1), (3, 130, 5), (65, 129, 7), (130, 257, 66)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            assert_close(&a.matmul(&b), &matmul_reference(&a, &b), 1e-4);
            let bt = Tensor::randn(&[n, k], &mut rng);
            assert_close(&a.matmul_nt(&bt), &matmul_nt_reference(&a, &bt), 1e-4);
            let at = Tensor::randn(&[k, m], &mut rng);
            let bn = Tensor::randn(&[k, n], &mut rng);
            assert_close(&at.matmul_tn(&bn), &matmul_tn_reference(&at, &bn), 1e-4);
        }
    }

    #[test]
    fn zero_sized_dims_produce_empty_outputs() {
        for (m, k, n) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)] {
            let a = Tensor::zeros(&[m, k]);
            let b = Tensor::zeros(&[k, n]);
            assert_eq!(a.matmul(&b).dims(), &[m, n]);
            let bt = Tensor::zeros(&[n, k]);
            assert_eq!(a.matmul_nt(&bt).dims(), &[m, n]);
            let at = Tensor::zeros(&[k, m]);
            assert_eq!(at.matmul_tn(&b).dims(), &[m, n]);
        }
    }

    #[test]
    fn pack_transpose_round_trips() {
        let mut rng = seeded_rng(10);
        let t = Tensor::randn(&[37, 41], &mut rng);
        let packed = pack_transpose(t.data(), 37, 41);
        let back = pack_transpose(&packed, 41, 37);
        assert_eq!(back, t.data());
    }
}
