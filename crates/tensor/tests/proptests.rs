//! Property-based tests of tensor algebra laws and of the blocked
//! kernel / reference kernel equivalence.

use fedmp_tensor::{
    col2im_into, conv2d_backward_input, conv2d_forward, im2col, im2col_into, matmul_nt_reference,
    matmul_reference, matmul_tn_reference, max_pool2d_forward, parallel, seeded_rng, softmax_rows,
    Conv2dSpec, ExactSum, ExactVec, Pool2dSpec, Tensor,
};
use proptest::prelude::*;

fn tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = seeded_rng(seed);
    Tensor::randn(dims, &mut rng)
}

fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.dims() == b.dims() && a.data().iter().zip(b.data().iter()).all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn addition_commutes(r in 1usize..8, c in 1usize..8, s1 in 0u64..1000, s2 in 0u64..1000) {
        let a = tensor(&[r, c], s1);
        let b = tensor(&[r, c], s2);
        prop_assert!(close(&a.add(&b), &b.add(&a), 1e-6));
    }

    #[test]
    fn addition_associates(n in 1usize..32, s in 0u64..1000) {
        let a = tensor(&[n], s);
        let b = tensor(&[n], s + 1);
        let c = tensor(&[n], s + 2);
        prop_assert!(close(&a.add(&b).add(&c), &a.add(&b.add(&c)), 1e-5));
    }

    #[test]
    fn sub_is_add_of_negation(n in 1usize..32, s in 0u64..1000) {
        let a = tensor(&[n], s);
        let b = tensor(&[n], s + 7);
        prop_assert!(close(&a.sub(&b), &a.add(&b.scale(-1.0)), 1e-6));
    }

    #[test]
    fn scaling_distributes_over_addition(n in 1usize..32, s in 0u64..1000, k in -3.0f32..3.0) {
        let a = tensor(&[n], s);
        let b = tensor(&[n], s + 3);
        prop_assert!(close(&a.add(&b).scale(k), &a.scale(k).add(&b.scale(k)), 1e-4));
    }

    #[test]
    fn matmul_distributes(m in 1usize..6, k in 1usize..6, n in 1usize..6, s in 0u64..500) {
        let a = tensor(&[m, k], s);
        let b = tensor(&[k, n], s + 1);
        let c = tensor(&[k, n], s + 2);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(close(&lhs, &rhs, 1e-4));
    }

    #[test]
    fn matmul_transpose_identity(m in 1usize..6, k in 1usize..6, n in 1usize..6, s in 0u64..500) {
        // (A·B)ᵀ == Bᵀ·Aᵀ
        let a = tensor(&[m, k], s);
        let b = tensor(&[k, n], s + 9);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(close(&lhs, &rhs, 1e-4));
    }

    #[test]
    fn axpy_matches_scale_add(n in 1usize..32, s in 0u64..1000, k in -2.0f32..2.0) {
        let mut a = tensor(&[n], s);
        let b = tensor(&[n], s + 5);
        let expected = a.add(&b.scale(k));
        a.axpy(k, &b);
        prop_assert!(close(&a, &expected, 1e-5));
    }

    #[test]
    fn softmax_is_shift_invariant(r in 1usize..5, c in 2usize..8, s in 0u64..500, shift in -10.0f32..10.0) {
        let a = tensor(&[r, c], s);
        let shifted = a.map(|v| v + shift);
        prop_assert!(close(&softmax_rows(&a), &softmax_rows(&shifted), 1e-5));
    }

    #[test]
    fn l2_norm_triangle_inequality(n in 1usize..32, s in 0u64..1000) {
        let a = tensor(&[n], s);
        let b = tensor(&[n], s + 11);
        prop_assert!(a.add(&b).l2_norm() <= a.l2_norm() + b.l2_norm() + 1e-4);
    }

    #[test]
    fn reshape_preserves_sum(r in 1usize..8, c in 1usize..8, s in 0u64..500) {
        let a = tensor(&[r, c], s);
        let b = a.reshape(&[c, r]);
        prop_assert!((a.sum() - b.sum()).abs() < 1e-4);
    }
}

// ---------------------------------------------------------------------
// Blocked kernels vs naive reference oracles.
//
// Shapes are drawn to straddle every boundary the blocked kernels care
// about: empty (0) and degenerate (1) dimensions, sizes that are not
// multiples of the k-tile (128), the micro-kernel row count (4) or the
// parallel band (64), and both 1-thread and oversubscribed execution.
// ---------------------------------------------------------------------

const KERNEL_TOL: f32 = 1e-4;

fn close_or_explain(got: &Tensor, want: &Tensor, what: &str) -> Result<(), String> {
    if got.dims() != want.dims() {
        return Err(format!("{what}: dims {:?} vs {:?}", got.dims(), want.dims()));
    }
    for (i, (x, y)) in got.data().iter().zip(want.data().iter()).enumerate() {
        if (x - y).abs() > KERNEL_TOL {
            return Err(format!("{what}: element {i}: {x} vs {y}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_reference(m in 0usize..70, k in 0usize..140, n in 0usize..70, s in 0u64..1 << 32) {
        let mut rng = seeded_rng(s);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        if let Err(e) = close_or_explain(&a.matmul(&b), &matmul_reference(&a, &b), "nn") {
            prop_assert!(false, "{}", e);
        }
    }

    #[test]
    fn matmul_nt_matches_reference(m in 0usize..70, k in 0usize..140, n in 0usize..70, s in 0u64..1 << 32) {
        let mut rng = seeded_rng(s);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[n, k], &mut rng);
        if let Err(e) = close_or_explain(&a.matmul_nt(&b), &matmul_nt_reference(&a, &b), "nt") {
            prop_assert!(false, "{}", e);
        }
    }

    #[test]
    fn matmul_tn_matches_reference(m in 0usize..70, k in 0usize..140, n in 0usize..70, s in 0u64..1 << 32) {
        let mut rng = seeded_rng(s);
        let a = Tensor::randn(&[k, m], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        if let Err(e) = close_or_explain(&a.matmul_tn(&b), &matmul_tn_reference(&a, &b), "tn") {
            prop_assert!(false, "{}", e);
        }
    }

    /// One thread and many threads must agree bit for bit: the band
    /// decomposition never depends on the worker count.
    #[test]
    fn thread_count_is_bit_invariant(m in 1usize..150, k in 1usize..100, n in 1usize..100, s in 0u64..1 << 32) {
        let mut rng = seeded_rng(s);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let bt = Tensor::randn(&[n, k], &mut rng);

        parallel::override_threads(Some(1));
        let seq = (a.matmul(&b), a.matmul_nt(&bt));
        parallel::override_threads(Some(5));
        let par = (a.matmul(&b), a.matmul_nt(&bt));
        parallel::override_threads(None);

        for (seq_t, par_t) in [(&seq.0, &par.0), (&seq.1, &par.1)] {
            prop_assert_eq!(seq_t.dims(), par_t.dims());
            for (x, y) in seq_t.data().iter().zip(par_t.data().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "1 thread vs 5 threads: {} vs {}", x, y);
            }
        }
    }

    /// Conv forward equals its own definition — im2col followed by the
    /// reference GEMM plus bias — on randomized geometry.
    #[test]
    fn conv_forward_matches_reference_composition(
        batch in 1usize..4,
        c in 1usize..4,
        hw in 3usize..11,
        oc in 1usize..6,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        s in 0u64..1 << 32,
    ) {
        // hw >= 3 >= kernel, so the output geometry is always valid.
        let spec = Conv2dSpec { kh: kernel, kw: kernel, stride, padding };
        let mut rng = seeded_rng(s);
        let input = Tensor::randn(&[batch, c, hw, hw], &mut rng);
        let weight = Tensor::randn(&[oc, c, kernel, kernel], &mut rng);
        let bias = Tensor::randn(&[oc], &mut rng);
        let got = conv2d_forward(&input, &weight, &bias, &spec);

        let (oh, ow) = spec.out_hw(hw, hw);
        let w_mat = weight.reshape(&[oc, c * kernel * kernel]);
        let mut want = Tensor::zeros(&[batch, oc, oh, ow]);
        let img = c * hw * hw;
        let out_img = oc * oh * ow;
        for i in 0..batch {
            let cols = im2col(&input.data()[i * img..(i + 1) * img], c, hw, hw, &spec);
            let res = matmul_reference(&w_mat, &cols);
            for f in 0..oc {
                for (j, &v) in res.data()[f * oh * ow..(f + 1) * oh * ow].iter().enumerate() {
                    want.data_mut()[i * out_img + f * oh * ow + j] = v + bias.data()[f];
                }
            }
        }
        if let Err(e) = close_or_explain(&got, &want, "conv") {
            prop_assert!(false, "{}", e);
        }
    }

    /// The unfold writes **every** column element — it is handed buffers
    /// nobody zeroed — and writes what the per-element definition says,
    /// including paddings so wide that whole taps lie in the border.
    #[test]
    fn padded_unfold_overwrites_a_poisoned_buffer(
        c in 1usize..4,
        h in 3usize..12,
        w in 3usize..12,
        k_pick in 0usize..3,
        pad_pick in 0usize..6,
        stride in 1usize..3,
        s in 0u64..1 << 32,
    ) {
        let k = [1usize, 3, 5][k_pick];
        let padding = (pad_pick % (k + 1)).max(k.saturating_sub(h.min(w)).div_ceil(2));
        if let Err(e) = unfold_matches_reference(c, h, w, k, stride, padding, s) {
            prop_assert!(false, "{}", e);
        }
    }

    /// The stride-1 row fold is bit-equal to the per-element fold,
    /// including paddings so wide that whole taps miss the image.
    #[test]
    fn stride1_col2im_is_bit_equal_to_reference_fold(
        c in 1usize..4,
        h in 3usize..12,
        w in 3usize..12,
        k_pick in 0usize..3,
        pad_pick in 0usize..6,
        s in 0u64..1 << 32,
    ) {
        let k = [1usize, 3, 5][k_pick];
        // 0..=k, raised to the least padding a 5×5 kernel needs on a
        // 3- or 4-wide image for the output to exist at all.
        let padding = (pad_pick % (k + 1)).max(k.saturating_sub(h.min(w)).div_ceil(2));
        if let Err(e) = stride1_fold_matches_reference(c, h, w, k, padding, s) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Geometries where whole taps, or whole rows of a tap, lie in the
/// padding — the spans the row fold must skip and the unfold must fill
/// with zeros, pinned so they are hit whatever the proptests above draw.
#[test]
fn taps_that_miss_the_image_are_skipped_by_the_fold_and_zeroed_by_the_unfold() {
    for (h, w, k, padding) in [(3, 3, 5, 1), (4, 3, 5, 1), (3, 4, 5, 5), (3, 3, 3, 3), (5, 4, 1, 1)]
    {
        stride1_fold_matches_reference(2, h, w, k, padding, 31).unwrap();
        for stride in [1, 2] {
            unfold_matches_reference(2, h, w, k, stride, padding, 31).unwrap();
        }
    }
}

/// `im2col_into` a NaN-poisoned buffer against the per-element unfold
/// every stride ran before the padded-image walk, bit for bit.
fn unfold_matches_reference(
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    seed: u64,
) -> Result<(), String> {
    let spec = Conv2dSpec { kh: k, kw: k, stride, padding };
    let (oh, ow) = spec.out_hw(h, w);
    let image = tensor(&[c, h, w], seed);
    let mut got = vec![f32::NAN; c * k * k * oh * ow];
    im2col_into(image.data(), c, h, w, &spec, &mut got);
    let mut want = vec![0.0f32; got.len()];
    for ch in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ch * k + ky) * k + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        let ix = (ox * stride + kx) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                            continue;
                        }
                        want[row * oh * ow + oy * ow + ox] =
                            image.data()[(ch * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
    }
    match got.iter().zip(want.iter()).position(|(g, e)| g.to_bits() != e.to_bits()) {
        None => Ok(()),
        Some(i) => Err(format!(
            "c {c} h {h} w {w} k {k} stride {stride} padding {padding}: column element {i} \
             is {}, want {}",
            got[i], want[i]
        )),
    }
}

fn stride1_fold_matches_reference(
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    padding: usize,
    seed: u64,
) -> Result<(), String> {
    let spec = Conv2dSpec { kh: k, kw: k, stride: 1, padding };
    let (oh, ow) = spec.out_hw(h, w);
    let cols = tensor(&[c * k * k, oh * ow], seed);
    // A non-zero start: `col2im_into` accumulates.
    let start = tensor(&[c, h, w], seed ^ 0x5eed);
    let mut got = start.data().to_vec();
    col2im_into(cols.data(), c, h, w, &spec, &mut got);
    let mut want = start.data().to_vec();
    col2im_reference(cols.data(), c, h, w, &spec, &mut want);
    match got.iter().zip(want.iter()).position(|(g, e)| g.to_bits() != e.to_bits()) {
        None => Ok(()),
        Some(i) => Err(format!(
            "c {c} h {h} w {w} k {k} padding {padding}: element {i} is {}, want {}",
            got[i], want[i]
        )),
    }
}

/// The per-element fold `col2im_into` ran at every stride before its
/// stride-1 row path — kept here as the oracle.
fn col2im_reference(
    data: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    image: &mut [f32],
) {
    let (oh, ow) = spec.out_hw(h, w);
    for ch in 0..c {
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let row = (ch * spec.kh + ky) * spec.kw + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                            continue;
                        }
                        image[(ch * h + iy as usize) * w + ix as usize] +=
                            data[row * oh * ow + oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// `conv2d_backward_input` against its formulation before the row fold
/// (`weightᵀ @ grad` per image, then the per-element fold), bit for bit,
/// on the seven conv geometries of the benchmark's two sub-models
/// (cnn_mnist 0.25 and alexnet_cifar 0.08, both pruned at ratio 0.4).
#[test]
fn conv_backward_input_is_bit_equal_to_old_formulation() {
    let mut rng = seeded_rng(23);
    // (out channels, in channels, input h = w, kernel, padding)
    for (oc, c, hw, k, padding) in [
        (5, 1, 28, 5, 2),
        (10, 5, 14, 5, 2),
        (3, 3, 32, 3, 1),
        (9, 3, 16, 3, 1),
        (19, 9, 8, 3, 1),
        (12, 19, 8, 3, 1),
        (12, 12, 8, 3, 1),
    ] {
        let spec = Conv2dSpec { kh: k, kw: k, stride: 1, padding };
        let (n, (oh, ow)) = (3, spec.out_hw(hw, hw));
        let weight = Tensor::randn(&[oc, c, k, k], &mut rng);
        let grad_out = Tensor::randn(&[n, oc, oh, ow], &mut rng);
        let got = conv2d_backward_input(&grad_out, &weight, &[n, c, hw, hw], &spec);

        let w_mat = weight.reshape(&[oc, c * k * k]);
        let mut want = vec![0.0f32; n * c * hw * hw];
        for (go, dst) in grad_out.data().chunks(oc * oh * ow).zip(want.chunks_mut(c * hw * hw)) {
            let go = Tensor::from_vec(go.to_vec(), &[oc, oh * ow]).unwrap();
            col2im_reference(w_mat.matmul_tn(&go).data(), c, hw, hw, &spec, dst);
        }
        let same = got.data().iter().zip(want.iter()).all(|(g, e)| g.to_bits() == e.to_bits());
        assert!(same, "geometry oc {oc} c {c} hw {hw} k {k}");
    }
}

/// Pinned tiny shapes: every 0/1 combination that could trip the
/// blocked paths' edge handling.
#[test]
fn degenerate_shapes_match_reference() {
    let mut rng = seeded_rng(7);
    for (m, k, n) in [
        (0, 0, 0),
        (0, 5, 3),
        (5, 0, 3),
        (5, 3, 0),
        (1, 1, 1),
        (1, 129, 1),
        (4, 1, 65),
        (65, 128, 1),
    ] {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        close_or_explain(&a.matmul(&b), &matmul_reference(&a, &b), "nn").unwrap();
        let bt = Tensor::randn(&[n, k], &mut rng);
        close_or_explain(&a.matmul_nt(&bt), &matmul_nt_reference(&a, &bt), "nt").unwrap();
        let at = Tensor::randn(&[k, m], &mut rng);
        close_or_explain(&at.matmul_tn(&b), &matmul_tn_reference(&at, &b), "tn").unwrap();
    }
}

/// The max-pool scan before it was written with selects: the same
/// row-major visit, a branch on the same strict `>`.
fn max_pool_argmax_branchy(input: &Tensor, spec: &Pool2dSpec) -> Vec<usize> {
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let src = input.data();
    let mut argmax = Vec::with_capacity(n * c * oh * ow);
    for plane in 0..n * c {
        let base = plane * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = base + oy * spec.stride * w + ox * spec.stride;
                for ky in 0..spec.kh {
                    for kx in 0..spec.kw {
                        let idx = base + (oy * spec.stride + ky) * w + ox * spec.stride + kx;
                        if src[idx] > best {
                            best = src[idx];
                            best_idx = idx;
                        }
                    }
                }
                argmax.push(best_idx);
            }
        }
    }
    argmax
}

/// Select scan vs branchy scan on inputs drawn from a handful of
/// values, so nearly every window has a tie to break: equal finite
/// maxima, `+0.0` beside `-0.0` (neither is greater: the first wins),
/// NaN beside finite values (NaN never wins), and windows of nothing but
/// NaN and `-inf` (which report their own first element, in every image
/// of the batch) — through square, non-square, overlapping
/// (`stride < k`) and gapped (`stride > k`) windows, the zoo's 2×2/2
/// among them.
#[test]
fn max_pool_select_scan_matches_the_branchy_scan() {
    const PALETTES: [&[f32]; 4] = [
        &[0.0, -0.0, 1.5, 1.5, -2.0, f32::INFINITY, f32::NAN, f32::NEG_INFINITY],
        &[0.0, -0.0, 1.5, -2.0, f32::NAN],
        &[0.0, -0.0],
        &[f32::NAN, f32::NEG_INFINITY],
    ];
    // (h, w, kh, kw, stride)
    const CASES: [(usize, usize, usize, usize, usize); 9] = [
        (6, 6, 2, 2, 2),
        (7, 9, 2, 2, 2),
        (7, 9, 3, 3, 2),
        (6, 8, 3, 2, 1),
        (5, 8, 2, 3, 2),
        (6, 6, 1, 1, 1),
        (9, 9, 3, 3, 3),
        (8, 8, 2, 2, 3),
        (4, 6, 4, 6, 1),
    ];
    let (n, c) = (3, 2);
    for (case, &(h, w, kh, kw, stride)) in CASES.iter().enumerate() {
        let spec = Pool2dSpec { kh, kw, stride };
        for (round, palette) in PALETTES.iter().enumerate() {
            let data = (0..(n * c * h * w) as u64)
                .map(|i| {
                    let pick = (i + 31 * case as u64).wrapping_mul(2_654_435_761) >> 7;
                    palette[pick as usize % palette.len()]
                })
                .collect();
            let input = Tensor::from_vec(data, &[n, c, h, w]).unwrap();
            let (out, argmax) = max_pool2d_forward(&input, &spec);
            assert_eq!(argmax, max_pool_argmax_branchy(&input, &spec), "case {case} round {round}");
            for (o, &i) in out.data().iter().zip(&argmax) {
                assert_eq!(o.to_bits(), input.data()[i].to_bits(), "case {case} round {round}");
            }
        }
    }
}

// ---- ExactVec vs the per-slot ExactSum oracle ------------------------------
//
// `ExactVec` replaced `Vec<ExactSum>` under `average_states` and
// `ExactState`; the formulation it replaced — one wide register per
// slot — lives on here as its oracle. Equality is asked of the raw
// registers (what an `HPar` frame carries) and of the rounded values.

/// An `f32` from a raw draw, with the classes the window has to route
/// weighted up: any bit pattern at all, subnormals, ±0 / ±∞ / NaN, the
/// binades on either side of both window edges (2⁻⁶² and 2²¹), and
/// ordinary model-sized values.
fn f32_from_draw(z: u64) -> f32 {
    let payload = (z >> 8) as u32;
    let sign = payload & 0x8000_0000;
    match z % 8 {
        0 | 1 => f32::from_bits(payload),
        2 => f32::from_bits(sign | payload & 0x007F_FFFF),
        3 => {
            [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN][payload as usize % 6]
        }
        4 => f32::from_bits(sign | (63 + payload % 4) << 23 | payload & 0x007F_FFFF),
        5 => f32::from_bits(sign | (146 + payload % 4) << 23 | payload & 0x007F_FFFF),
        _ => f32::from_bits(sign | (100 + payload % 40) << 23 | payload & 0x007F_FFFF),
    }
}

fn oracle(rows: &[Vec<f32>], width: usize) -> Vec<ExactSum> {
    let mut sums = vec![ExactSum::new(); width];
    for row in rows {
        for (sum, &x) in sums.iter_mut().zip(row) {
            sum.add(x);
        }
    }
    sums
}

fn assert_holds(got: &ExactVec, want: &[ExactSum], what: &str) -> Result<(), String> {
    let got: Vec<ExactSum> = got.sums().collect();
    prop_assert_eq!(got.len(), want.len(), "{}: length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_raw(), w.to_raw(), "{}: slot {} register", what, i);
        prop_assert_eq!(g.value().to_bits(), w.value().to_bits(), "{}: slot {} value", what, i);
    }
    Ok(())
}

/// `copies` of `v` merged by doubling: `v`'s sums × `copies`.
fn times(v: &ExactVec, copies: u32) -> ExactVec {
    let mut out = ExactVec::new(v.len());
    let mut power = v.clone();
    for bit in 0..32 {
        if copies >> bit & 1 == 1 {
            out.merge(&power);
        }
        let twin = power.clone();
        power.merge(&twin);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat fold, and every (shards, edges) fan-in tree over a permuted
    /// cohort — each edge partial crossing as raw registers, the way an
    /// `HPar` frame carries it — hold the registers the oracle holds.
    #[test]
    fn exact_vec_equals_the_exact_sum_oracle_under_every_partition(
        width in 1usize..6,
        cells in proptest::collection::vec(0u64..u64::MAX, 0..90),
        rotate in 0usize..90,
    ) {
        let rows: Vec<Vec<f32>> =
            cells.chunks_exact(width).map(|c| c.iter().map(|&z| f32_from_draw(z)).collect()).collect();
        let want = oracle(&rows, width);

        let mut flat = ExactVec::new(width);
        for row in &rows {
            flat.add(row);
        }
        assert_holds(&flat, &want, "flat")?;

        let n = rows.len();
        let mut permuted = rows.clone();
        permuted.rotate_left(rotate % n.max(1));
        permuted.reverse();
        for shards in 1..=n.clamp(1, 5) {
            let mut shard_accs = vec![ExactVec::new(width); shards];
            for (i, row) in permuted.iter().enumerate() {
                shard_accs[i * shards / n].add(row);
            }
            for edges in 1..=shards {
                let mut cloud = ExactVec::new(width);
                for e in 0..edges {
                    let mut edge = ExactVec::new(width);
                    for acc in &shard_accs[e * shards / edges..(e + 1) * shards / edges] {
                        edge.merge(acc);
                    }
                    let delivered: ExactVec = edge.sums().collect();
                    prop_assert_eq!(&delivered, &edge, "an edge partial changed in transit");
                    cloud.merge(&delivered);
                }
                assert_holds(&cloud, &want, &format!("{shards} shards, {edges} edges"))?;
                prop_assert_eq!(&cloud, &flat);
            }
        }
    }

    /// Past the addend cap: enough copies of a vector of maximal
    /// in-window values to cross 2²⁰ addends a slot (so a window is
    /// flushed into the spill on the way, visible as a larger
    /// footprint), with arbitrary rows folded before and after.
    #[test]
    fn exact_vec_is_exact_across_a_flush(
        before in proptest::collection::vec(0u64..u64::MAX, 0..12),
        after in proptest::collection::vec(0u64..u64::MAX, 0..12),
        extra in 1u32..4096,
    ) {
        let width = 3;
        let largest = 2.0f32.powi(21).next_down();
        let maximal = vec![largest, -largest, largest];
        let rows = |cells: &[u64]| -> Vec<Vec<f32>> {
            cells.chunks_exact(width).map(|c| c.iter().map(|&z| f32_from_draw(z)).collect()).collect()
        };
        let copies = (1 << 20) + extra;

        let mut got = ExactVec::new(width);
        for row in rows(&before) {
            got.add(&row);
        }
        let mut unit = ExactVec::new(width);
        unit.add(&maximal);
        let many = times(&unit, copies);
        prop_assert!(many.state_bytes() > unit.state_bytes(), "crossing the cap did not flush");
        got.merge(&many);
        for row in rows(&after) {
            got.add(&row);
        }

        // The oracle: the same multiset through wide registers, the
        // copies again by doubling (integer addition is associative).
        let mut want = oracle(&rows(&before), width);
        let mut power = oracle(std::slice::from_ref(&maximal), width);
        for bit in 0..32 {
            for (w, p) in want.iter_mut().zip(power.iter_mut()) {
                if copies >> bit & 1 == 1 {
                    w.merge(p);
                }
                let twin = p.clone();
                p.merge(&twin);
            }
        }
        for (w, a) in want.iter_mut().zip(oracle(&rows(&after), width)) {
            w.merge(&a);
        }
        assert_holds(&got, &want, "across the cap")?;
    }
}
