//! SIMD microkernel contract tests.
//!
//! Four obligations, mirroring `tensor::simd`'s module doc:
//!
//! 1. **Exactness** — on each path every output element equals, bit for
//!    bit, a test-only scalar chain from `+0.0` ascending `k` (fused
//!    `mul_add` for AVX2, multiply-then-add for the scalar kernel), on
//!    every shape of a grid that crosses all register-block heights
//!    (1–6 rows, split near-equally), strip widths (16-wide, 8-wide,
//!    masked 1–7 and 9–15) and `KC` tile edges — and the same A row and
//!    B column give the same bits wherever they sit in `(m, n)`.
//! 2. **Accuracy** — both paths agree with the naive reference oracles
//!    within tolerance on every transpose variant: ones, primes, and
//!    block-size ± 1.
//! 3. **Determinism** — for a *fixed* path the result is bit-identical
//!    run-to-run and across thread counts (each output element is one
//!    fixed-lane FMA chain ascending `k`; band ownership is a function
//!    of shape only).
//! 4. **Fallback** — the forced-scalar path is the pre-SIMD blocked
//!    kernel, so it stays bit-invariant across thread counts too (the
//!    whole tier-1 suite re-runs under `FEDMP_SIMD=scalar` in CI to pin
//!    its values against the golden tests).
//!
//! Two kernels built on those chains are held to their pre-PR-18
//! formulations here as well, because both arguments are about chains:
//! the conv weight gradient (factor order inside a chain is free) and
//! the lock-step bias fold (scheduling independent chains together is
//! free).
//!
//! The path override is process-global, so every test that flips it
//! holds `PATH_LOCK` for its whole body; the proptest cases draw shapes
//! but mutate the override only inside the lock.

use std::sync::Mutex;

use fedmp_tensor::simd::{self, SimdPath};
use fedmp_tensor::{
    conv2d_backward_weight, conv2d_forward, im2col, matmul_nt_reference, matmul_reference,
    matmul_tn_reference, parallel, seeded_rng, Conv2dSpec, Tensor,
};
use proptest::prelude::*;

/// Serialises tests that flip the process-global SIMD path override.
static PATH_LOCK: Mutex<()> = Mutex::new(());

/// Shapes that straddle every boundary the SIMD microkernel cares
/// about: degenerate 1s, primes (never a multiple of anything), and
/// the 16-wide / 8-wide column strips, 6-row block and 64-row band
/// each at −1 / exact / +1.
const EDGE_SIZES: &[usize] = &[1, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17, 31, 63, 64, 65, 127, 128, 129];

const TOL: f32 = 1e-4;

fn assert_close(got: &Tensor, want: &Tensor, what: &str) -> Result<(), String> {
    prop_assert_eq!(got.dims(), want.dims(), "{}: dims", what);
    for (i, (x, y)) in got.data().iter().zip(want.data().iter()).enumerate() {
        prop_assert!((x - y).abs() <= TOL, "{}: element {}: {} vs {}", what, i, x, y);
    }
    Ok(())
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: dims");
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// Runs `f` with the SIMD path forced to `path`, restoring the default
/// dispatch afterwards even on panic (the lock guard would otherwise
/// poison every later test).
fn with_path<R>(path: SimdPath, f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            simd::override_path(None);
        }
    }
    simd::override_path(Some(path));
    let _reset = Reset;
    f()
}

fn forced_paths() -> Vec<SimdPath> {
    let mut paths = vec![SimdPath::Scalar];
    if simd::avx2_supported() {
        paths.push(SimdPath::Avx2);
    }
    paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three transpose variants match the reference oracles on both
    /// forced paths across tail-heavy shapes.
    #[test]
    fn gemm_tail_shapes_match_reference_on_both_paths(
        mi in 0usize..18,
        ki in 0usize..18,
        ni in 0usize..18,
        s in 0u64..1 << 32,
    ) {
        let (m, k, n) = (EDGE_SIZES[mi], EDGE_SIZES[ki], EDGE_SIZES[ni]);
        let mut rng = seeded_rng(s);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let bt = Tensor::randn(&[n, k], &mut rng);
        let at = Tensor::randn(&[k, m], &mut rng);
        let nn_ref = matmul_reference(&a, &b);
        let nt_ref = matmul_nt_reference(&a, &bt);
        let tn_ref = matmul_tn_reference(&at, &b);

        let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for path in forced_paths() {
            let (nn, nt, tn) =
                with_path(path, || (a.matmul(&b), a.matmul_nt(&bt), at.matmul_tn(&b)));
            assert_close(&nn, &nn_ref, &format!("nn/{}", path.name()))?;
            assert_close(&nt, &nt_ref, &format!("nt/{}", path.name()))?;
            assert_close(&tn, &tn_ref, &format!("tn/{}", path.name()))?;
        }
    }

    /// For a fixed forced path the kernels are bit-invariant across
    /// thread counts — SIMD included.
    #[test]
    fn fixed_path_is_bit_invariant_across_threads(
        mi in 0usize..18,
        ki in 0usize..18,
        ni in 0usize..18,
        s in 0u64..1 << 32,
    ) {
        let (m, k, n) = (EDGE_SIZES[mi], EDGE_SIZES[ki], EDGE_SIZES[ni]);
        let mut rng = seeded_rng(s);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let bt = Tensor::randn(&[n, k], &mut rng);

        let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for path in forced_paths() {
            let (seq, par) = with_path(path, || {
                parallel::override_threads(Some(1));
                let seq = (a.matmul(&b), a.matmul_nt(&bt));
                parallel::override_threads(Some(4));
                let par = (a.matmul(&b), a.matmul_nt(&bt));
                parallel::override_threads(None);
                (seq, par)
            });
            for (s_t, p_t) in [(&seq.0, &par.0), (&seq.1, &par.1)] {
                prop_assert_eq!(s_t.dims(), p_t.dims());
                for (x, y) in s_t.data().iter().zip(p_t.data().iter()) {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "{}: 1 vs 4 threads: {} vs {}", path.name(), x, y
                    );
                }
            }
        }
    }
}

/// The SIMD path is bit-identical run-to-run: repeated evaluations of
/// the same GEMM produce the same bits (each element is one fixed FMA
/// chain — nothing in the kernel depends on timing or iteration count).
#[test]
fn simd_path_is_bit_identical_run_to_run() {
    if !simd::avx2_supported() {
        eprintln!("skipping: AVX2+FMA not available on this host");
        return;
    }
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = seeded_rng(41);
    let a = Tensor::randn(&[67, 130], &mut rng);
    let b = Tensor::randn(&[130, 65], &mut rng);
    let bt = Tensor::randn(&[65, 130], &mut rng);
    let (first_nn, first_nt) = with_path(SimdPath::Avx2, || (a.matmul(&b), a.matmul_nt(&bt)));
    for run in 0..5 {
        let (nn, nt) = with_path(SimdPath::Avx2, || (a.matmul(&b), a.matmul_nt(&bt)));
        assert_bits_eq(&nn, &first_nn, &format!("nn run {run}"));
        assert_bits_eq(&nt, &first_nt, &format!("nt run {run}"));
    }
}

/// Forcing the scalar path yields exactly the blocked scalar kernel:
/// invariant across thread counts, and — when the host has no AVX2 —
/// identical to the default dispatch.
#[test]
fn forced_scalar_is_the_blocked_kernel() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = seeded_rng(42);
    let a = Tensor::randn(&[66, 129], &mut rng);
    let b = Tensor::randn(&[129, 63], &mut rng);
    let scalar = with_path(SimdPath::Scalar, || a.matmul(&b));
    let scalar_again = with_path(SimdPath::Scalar, || {
        parallel::override_threads(Some(4));
        let out = a.matmul(&b);
        parallel::override_threads(None);
        out
    });
    assert_bits_eq(&scalar, &scalar_again, "scalar 1 vs 4 threads");
    if !simd::avx2_supported() {
        assert_bits_eq(&scalar, &a.matmul(&b), "scalar vs default on non-AVX2 host");
    }
}

/// The two paths agree within tolerance but are *not* promised to be
/// bitwise equal to each other (FMA fuses the multiply-add rounding);
/// this pins the tolerance contract the cross-path comparison relies
/// on at a shape exercising a full strip and a masked two-vector one.
#[test]
fn paths_agree_within_tolerance_across_column_strips() {
    if !simd::avx2_supported() {
        eprintln!("skipping: AVX2+FMA not available on this host");
        return;
    }
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = seeded_rng(43);
    // n = 16 + 11: one full 16-wide strip, then 8 + 3 masked lanes.
    let a = Tensor::randn(&[9, 257], &mut rng);
    let b = Tensor::randn(&[257, 27], &mut rng);
    let simd_out = with_path(SimdPath::Avx2, || a.matmul(&b));
    let scalar_out = with_path(SimdPath::Scalar, || a.matmul(&b));
    for (i, (x, y)) in simd_out.data().iter().zip(scalar_out.data().iter()).enumerate() {
        assert!((x - y).abs() <= TOL, "element {i}: simd {x} vs scalar {y}");
    }
}

/// What the kernel on `path` must produce for `A[m, k] @ B[k, n]`,
/// exactly: each element one chain from `+0.0`, ascending `k` — fused
/// on AVX2, multiply-then-add on the scalar kernel. Written as the
/// plainest possible triple loop, sharing nothing with either kernel.
fn chain_oracle(path: SimdPath, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let (x, y) = (a[i * k + p], b[p * n + j]);
                acc = match path {
                    SimdPath::Avx2 => x.mul_add(y, acc),
                    SimdPath::Scalar => acc + x * y,
                };
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Bitwise equality, except that any NaN equals any NaN (which payload
/// an invalid operation produces is the one thing IEEE 754 leaves open).
fn same_bits(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// `len` operand values: normal draws salted with subnormals, both
/// zeros, and tiny values whose products underflow.
fn salted(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = seeded_rng(seed);
    let mut v = Tensor::randn(&[len], &mut rng).into_vec();
    for (i, x) in v.iter_mut().enumerate() {
        match i % 11 {
            3 => *x = f32::from_bits(1 + (i as u32).wrapping_mul(7919) % 0x007f_ffff),
            5 => *x = 0.0,
            7 => *x = -0.0,
            9 => *x *= 1e-30,
            _ => {}
        }
    }
    v
}

/// The exact oracle over the whole tail grid: rows 1..=13 (every block
/// height and split), n 1..=40 (every strip width and mask), `k` on
/// both sides of the 256-wide tile edge; all three transpose variants;
/// 1 and 4 threads. B's first column holds an `inf` and its last a NaN:
/// those are the floats that sit, in memory, right where a masked-off
/// lane of the neighbouring row's last vector would read or write, so a
/// leaking mask shows up as a non-finite value in a finite column.
#[test]
fn every_element_is_the_exact_ascending_k_chain() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for path in forced_paths() {
        for k in [1usize, 7, 255, 256, 257, 513] {
            for m in 1..=13usize {
                let a = salted(m * k, (m * 1000 + k) as u64);
                let a_t = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
                let at_t = a_t.transpose();
                for n in 1..=40usize {
                    let mut b = salted(k * n, (n * 1000 + k) as u64 ^ 0xB);
                    b[0] = f32::INFINITY;
                    b[k * n - 1] = f32::NAN;
                    let want = chain_oracle(path, &a, &b, m, k, n);
                    let b_t = Tensor::from_vec(b, &[k, n]).unwrap();
                    let bt_t = b_t.transpose();
                    for threads in [1usize, 4] {
                        let got = with_path(path, || {
                            parallel::override_threads(Some(threads));
                            let got =
                                [a_t.matmul(&b_t), a_t.matmul_nt(&bt_t), at_t.matmul_tn(&b_t)];
                            parallel::override_threads(None);
                            got
                        });
                        for (op, got) in ["nn", "nt", "tn"].iter().zip(&got) {
                            assert_eq!(got.dims(), &[m, n]);
                            for (e, (&x, &y)) in got.data().iter().zip(&want).enumerate() {
                                assert!(
                                    same_bits(x, y),
                                    "{}/{op} {m}x{k}x{n} @ {threads} threads: element {e}: \
                                     {x:e} ({:#010x}) vs chain {y:e} ({:#010x})",
                                    path.name(),
                                    x.to_bits(),
                                    y.to_bits(),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Embedding invariance: one A row and one B column give the same bits
/// wherever they are placed in `(m, n)` — whichever block height, strip,
/// mask or 64-row band ends up owning the element. This is the property
/// the kernel's bit-identity argument rests on.
#[test]
fn an_element_does_not_depend_on_where_it_sits() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // (m, n, row, column)
    const PLACES: &[(usize, usize, usize, usize)] = &[
        (1, 1, 0, 0),
        (3, 27, 2, 8),
        (5, 39, 4, 38),
        (6, 16, 0, 15),
        (10, 125, 9, 124),
        (13, 40, 7, 16),
        (64, 17, 63, 16),
        (70, 25, 66, 24),
    ];
    for path in forced_paths() {
        for k in [7usize, 257, 513] {
            let row = salted(k, k as u64);
            let col = salted(k, k as u64 ^ 0xC);
            let want = chain_oracle(path, &row, &col, 1, k, 1)[0];
            for &(m, n, i, j) in PLACES {
                let mut a = salted(m * k, (m * n) as u64);
                a[i * k..(i + 1) * k].copy_from_slice(&row);
                let mut b = salted(k * n, (m + n) as u64);
                for (p, &v) in col.iter().enumerate() {
                    b[p * n + j] = v;
                }
                let a = Tensor::from_vec(a, &[m, k]).unwrap();
                let b = Tensor::from_vec(b, &[k, n]).unwrap();
                let got = with_path(path, || a.matmul(&b)).data()[i * n + j];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{}: k {k}, element ({i}, {j}) of {m}x{n}: {got:e} vs {want:e}",
                    path.name()
                );
            }
        }
    }
}

/// The weight gradient as it was computed before PR 18: per image,
/// unfold, pack the `[ck, P]` columns transposed, `go · colsᵀ` with the
/// gradient block as the A operand (that is `matmul_nt`), add the
/// product into `gw`, and one `sum_f32` chain per bias channel.
fn backward_weight_transposed_columns(
    grad_out: &Tensor,
    input: &Tensor,
    weight_dims: &[usize],
    spec: &Conv2dSpec,
) -> (Tensor, Tensor) {
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let oc = weight_dims[0];
    let positions = grad_out.numel() / (n * oc);
    let mut gw = Tensor::zeros(&[oc, c * spec.kh * spec.kw]);
    let mut gb = Tensor::zeros(&[oc]);
    for (image, go) in input.data().chunks(c * h * w).zip(grad_out.data().chunks(oc * positions)) {
        let cols = im2col(image, c, h, w, spec);
        let go_mat = Tensor::from_vec(go.to_vec(), &[oc, positions]).unwrap();
        let prod = go_mat.matmul_nt(&cols);
        for (g, &p) in gw.data_mut().iter_mut().zip(prod.data()) {
            *g += p;
        }
        for (g, row) in gb.data_mut().iter_mut().zip(go.chunks(positions)) {
            *g += parallel::sum_f32(row.iter().copied());
        }
    }
    (gw.reshape(weight_dims), gb)
}

/// `conv2d_backward_weight` multiplies the columns as unfolded
/// (`cols · goᵀ`) where it used to multiply their transpose
/// (`go · colsᵀ`). Only the order of the two factors inside each
/// multiply flips, which is exact — so on both paths every `gw` and
/// `gb` bit must equal the old formulation's, on the geometries of
/// `tests/goldens.rs`, with operands that hold both zeros, subnormals,
/// products that underflow, and an `inf` that meets the padding's zeros
/// (`inf · 0`: any NaN equals any NaN).
#[test]
fn weight_gradient_equals_the_transposed_columns_formulation() {
    let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // (out channels, in channels, h, w, kernel, stride, padding)
    const CASES: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
        (5, 1, 28, 28, 5, 1, 2),
        (10, 5, 14, 14, 5, 1, 2),
        (3, 3, 32, 32, 3, 1, 1),
        (9, 3, 16, 16, 3, 1, 1),
        (19, 9, 8, 8, 3, 1, 1),
        (12, 19, 8, 8, 3, 1, 1),
        (12, 12, 8, 8, 3, 1, 1),
        (8, 1, 28, 28, 5, 1, 2),
        (16, 8, 14, 14, 5, 1, 2),
        (5, 3, 32, 32, 3, 1, 1),
        (15, 5, 16, 16, 3, 1, 1),
        (31, 15, 8, 8, 3, 1, 1),
        (20, 31, 8, 8, 3, 1, 1),
        (20, 20, 8, 8, 3, 1, 1),
        (6, 4, 9, 12, 3, 2, 1),
        (4, 3, 12, 12, 5, 1, 0),
    ];
    let n = 3;
    for path in forced_paths() {
        for (case, &(oc, c, h, w, k, stride, padding)) in CASES.iter().enumerate() {
            let spec = Conv2dSpec { kh: k, kw: k, stride, padding };
            let (oh, ow) = spec.out_hw(h, w);
            let input =
                Tensor::from_vec(salted(n * c * h * w, case as u64), &[n, c, h, w]).unwrap();
            let mut go = salted(n * oc * oh * ow, case as u64 ^ 0x60);
            // The first output position of a padded conv reads the
            // zero border through its first taps.
            go[0] = f32::INFINITY;
            let grad_out = Tensor::from_vec(go, &[n, oc, oh, ow]).unwrap();
            let dims = [oc, c, k, k];
            let (want_w, want_b) = with_path(path, || {
                backward_weight_transposed_columns(&grad_out, &input, &dims, &spec)
            });
            for threads in [1usize, 4] {
                let (got_w, got_b) = with_path(path, || {
                    parallel::override_threads(Some(threads));
                    let got = conv2d_backward_weight(&grad_out, &input, &dims, &spec);
                    parallel::override_threads(None);
                    got
                });
                for (what, got, want) in [("gw", &got_w, &want_w), ("gb", &got_b, &want_b)] {
                    assert_eq!(got.dims(), want.dims());
                    for (e, (&x, &y)) in got.data().iter().zip(want.data()).enumerate() {
                        assert!(
                            same_bits(x, y),
                            "{} case {case} @ {threads} threads: {what}[{e}] {x:e} ({:#010x}) \
                             vs transposed-columns {y:e} ({:#010x})",
                            path.name(),
                            x.to_bits(),
                            y.to_bits(),
                        );
                    }
                }
            }
            if padding > 0 {
                assert!(want_w.data()[0].is_nan(), "case {case}: inf never met a border zero");
            }
        }
    }
}

/// The convolution passes as they were computed before they read the
/// image in place: per image, `im2col`, then the ordinary GEMM —
/// `W · cols` plus the bias for the forward, `cols · goᵀ` summed over
/// the batch (image 0 first) and transposed for the weight gradient,
/// beside one `sum_f32` chain per bias channel.
fn conv_through_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2], input.dims()[3]);
    let oc = weight.dims()[0];
    let ck = c * spec.kh * spec.kw;
    let positions = grad_out.numel() / (n * oc);
    let w_mat = Tensor::from_vec(weight.data().to_vec(), &[oc, ck]).unwrap();
    let mut out = Vec::with_capacity(n * oc * positions);
    let mut gw_t = Tensor::zeros(&[ck, oc]);
    let mut gb = Tensor::zeros(&[oc]);
    for (image, go) in input.data().chunks(c * h * w).zip(grad_out.data().chunks(oc * positions)) {
        let cols = im2col(image, c, h, w, spec);
        let y = w_mat.matmul(&cols);
        for (row, &b) in y.data().chunks(positions).zip(bias.data()) {
            out.extend(row.iter().map(|&v| v + b));
        }
        let go_t = Tensor::from_vec(go.to_vec(), &[oc, positions]).unwrap().transpose();
        for (g, &p) in gw_t.data_mut().iter_mut().zip(cols.matmul(&go_t).data()) {
            *g += p;
        }
        for (g, row) in gb.data_mut().iter_mut().zip(go.chunks(positions)) {
            *g += parallel::sum_f32(row.iter().copied());
        }
    }
    let (oh, ow) = spec.out_hw(h, w);
    let out = Tensor::from_vec(out, &[n, oc, oh, ow]).unwrap();
    (out, gw_t.transpose().reshape(weight.dims()), gb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// `conv2d_forward` and `conv2d_backward_weight` read the columns
    /// in place — a tap view of the zero-bordered image, at stride 2
    /// through its phase planes — and must give the bits of `im2col`
    /// followed by the same path's GEMM, on both paths at 1 and 4
    /// threads. The draws cover kernels 1, 3 and 5 at strides 1 and 2,
    /// padding from none up to whole taps in the border, every output
    /// width 1..=17 (so every masked tail of a row's vectors), and 1..=13
    /// output channels and tap rows (every register-block height of
    /// the forward and of the weight gradient). A weight or gradient
    /// `inf` (or an input NaN) meets the border zeros: any NaN equals
    /// any NaN.
    #[test]
    fn tap_views_equal_im2col_then_the_same_gemm(
        ki in 0usize..3,
        stride in 1usize..3,
        pad in 0usize..6,
        ow in 1usize..18,
        oh in 1usize..5,
        slack in 0usize..2,
        oc in 1usize..14,
        c_draw in 1usize..14,
        n in 1usize..3,
        poison in 0usize..3,
        seed in 0u64..1 << 32,
    ) {
        let k = [1usize, 3, 5][ki];
        // Tap rows `c·k²`: 1..=13 at k = 1, a few channels otherwise.
        let c = if k == 1 { c_draw } else { 1 + c_draw % 2 };
        // The input whose output is `oh × ow`, padded by at most whole
        // taps and never to a width below 1.
        let span = |o: usize| (o - 1) * stride + k + slack % stride;
        let padding = pad % (k + 1).min(span(ow.min(oh)).div_ceil(2));
        let (h, w) = (span(oh) - 2 * padding, span(ow) - 2 * padding);
        let spec = Conv2dSpec { kh: k, kw: k, stride, padding };
        prop_assert_eq!(spec.out_hw(h, w), (oh, ow));
        let mut input = salted(n * c * h * w, seed);
        let mut weight = salted(oc * c * k * k, seed ^ 0x3);
        let bias = salted(oc, seed ^ 0x5);
        let mut go = salted(n * oc * oh * ow, seed ^ 0x60);
        match poison {
            // The first output reads the top-left border through its
            // first taps whenever there is padding.
            0 => {
                weight[0] = f32::INFINITY;
                go[0] = f32::INFINITY;
            }
            1 => {
                let at = seed as usize % input.len();
                input[at] = f32::NAN;
            }
            _ => {}
        }
        let input = Tensor::from_vec(input, &[n, c, h, w]).unwrap();
        let weight = Tensor::from_vec(weight, &[oc, c, k, k]).unwrap();
        let bias = Tensor::from_vec(bias, &[oc]).unwrap();
        let grad_out = Tensor::from_vec(go, &[n, oc, oh, ow]).unwrap();

        let _guard = PATH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for path in forced_paths() {
            let want = with_path(path, || {
                conv_through_im2col(&input, &weight, &bias, &grad_out, &spec)
            });
            for threads in [1usize, 4] {
                let (out, (gw, gb)) = with_path(path, || {
                    parallel::override_threads(Some(threads));
                    let got = (
                        conv2d_forward(&input, &weight, &bias, &spec),
                        conv2d_backward_weight(&grad_out, &input, weight.dims(), &spec),
                    );
                    parallel::override_threads(None);
                    got
                });
                for (what, got, want) in [("out", &out, &want.0), ("gw", &gw, &want.1), ("gb", &gb, &want.2)] {
                    prop_assert_eq!(got.dims(), want.dims());
                    for (e, (&x, &y)) in got.data().iter().zip(want.data()).enumerate() {
                        prop_assert!(
                            same_bits(x, y),
                            "{} k{} s{} p{} {}x{} c{} oc{} @ {} threads: {}[{}] {:e} vs im2col {:e}",
                            path.name(), k, stride, padding, h, w, c, oc, threads, what, e, x, y
                        );
                    }
                }
            }
        }
    }
}

/// The lock-step row fold is `sum_f32` per row, bit for bit: every
/// group size around the 8-row lock-step width, rows shorter than,
/// equal to and far longer than it, a non-zero accumulator to add into.
#[test]
fn lock_step_row_sums_equal_sum_f32_per_row() {
    for rows in [1usize, 2, 5, 7, 8, 9, 10, 16, 17, 31] {
        for row_len in [0usize, 1, 7, 8, 64, 196, 784] {
            let mut xs = salted(rows * row_len, (rows * 1000 + row_len) as u64);
            if let Some(x) = xs.get_mut(row_len / 2) {
                *x = f32::INFINITY; // row 0 overflows; a later -inf makes a NaN
            }
            if let Some(x) = xs.get_mut(row_len.saturating_sub(1)) {
                *x = f32::NEG_INFINITY;
            }
            let start = salted(rows, rows as u64 ^ 0xACC);
            let mut got = start.clone();
            parallel::add_row_sums_f32(&xs, row_len, &mut got);
            for r in 0..rows {
                let row = &xs[r * row_len..(r + 1) * row_len];
                let want = start[r] + parallel::sum_f32(row.iter().copied());
                assert!(
                    same_bits(got[r], want),
                    "{rows} rows of {row_len}: row {r} sums to {:e}, sum_f32 gives {want:e}",
                    got[r]
                );
            }
        }
    }
}
