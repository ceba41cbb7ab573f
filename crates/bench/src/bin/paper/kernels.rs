//! `paper kernels`: wall-clock tables of the tensor kernels on the shapes
//! the model zoo runs, written to `bench-results/kernels.json` — like
//! `fig11.json` a timing artifact outside CI's drift gate, and nothing
//! here gates on a time. That every kernel computes the right bits is
//! the business of `crates/tensor/tests/{goldens,simd_gemm,proptests}.rs`
//! on every `cargo test --workspace`.
//!
//! Tables: `gemm` (naive reference vs cache-blocked scalar vs AVX2/FMA on
//! the width-1.0 zoo's GEMMs), `ragged` (the GEMMs of the benchmark's
//! ratio-0.4 sub-models beside neighbours padded up to whole 16-column
//! strips and 4-row blocks), `conv` (the forward pass vs per-image
//! `im2col` + reference GEMM), `conv_backward` (both gradient passes
//! beside the forward, and the share of each that is data movement
//! around its GEMM), `pool` (the select scan vs the branchy scan it
//! replaced) and `pruned` (the ordinary kernels at the shape a ρ-pruned
//! layer is extracted to beside the full shape: time must track kept
//! FLOPs — there is no pruning-aware kernel).

use fedmp_bench::Harness;
use fedmp_pruning::ratio_keep_count;
use fedmp_tensor::simd::{self, SimdPath};
use fedmp_tensor::{
    col2im_into, conv2d_backward_input, conv2d_backward_weight, conv2d_forward, im2col,
    matmul_nt_reference, matmul_reference, matmul_tn_reference, max_pool2d_forward, parallel,
    seeded_rng, Conv2dSpec, Pool2dSpec, Tensor,
};
use serde_json::{json, Value};
use std::time::Instant;

type Gemm = fn(&Tensor, &Tensor) -> Tensor;

/// GEMM transpose configuration, matching the three `Tensor` kernels.
#[derive(Clone, Copy)]
enum Op {
    Nn,
    Nt,
    Tn,
}

impl Op {
    /// Name, blocked kernel, naive reference.
    fn impls(self) -> (&'static str, Gemm, Gemm) {
        match self {
            Op::Nn => ("nn", Tensor::matmul, matmul_reference),
            Op::Nt => ("nt", Tensor::matmul_nt, matmul_nt_reference),
            Op::Tn => ("tn", Tensor::matmul_tn, matmul_tn_reference),
        }
    }
}

/// `(name, op, m, k, n)` of every GEMM the width-1.0 zoo models issue
/// per batch of 64 images: conv layers as one im2col GEMM per image,
/// linear layers as one batched `nt` forward plus its `tn` weight
/// gradient.
const GEMM_CASES: &[(&str, Op, usize, usize, usize)] = &[
    ("cnn_mnist/conv2_fwd", Op::Nn, 64, 800, 196),
    ("cnn_mnist/fc1_fwd_b64", Op::Nt, 64, 3136, 256),
    ("alexnet/conv3_fwd", Op::Nn, 384, 1728, 64),
    ("alexnet/fc1_fwd_b64", Op::Nt, 64, 4096, 512),
    ("alexnet/fc1_wgrad_b64", Op::Tn, 512, 64, 4096),
    ("vgg/conv_s3_fwd", Op::Nn, 256, 1152, 49),
];

/// The conv layers of the two benchmark sub-models — cnn_mnist width
/// 0.25 and alexnet width 0.08, every layer pruned at ratio 0.4 — as
/// `(layer, kept filters, kept c_in·kh·kw, output positions)`. Per
/// image: forward `[oc, ck] × [ck, pos]`, weight gradient
/// `[ck, pos] × [pos, oc]`, input gradient `[ck, oc] × [oc, pos]`.
const RAGGED_CONVS: &[(&str, usize, usize, usize)] = &[
    ("cnn_mnist/conv1", 5, 25, 784),
    ("cnn_mnist/conv2", 10, 125, 196),
    ("alexnet/conv0", 3, 27, 1024),
    ("alexnet/conv1", 9, 27, 256),
    ("alexnet/conv2", 19, 81, 64),
    ("alexnet/conv3", 12, 171, 64),
    ("alexnet/conv4", 12, 108, 64),
];

/// Their first FC layers as `(layer, batch, kept in, kept out)`:
/// forward `[b, in] × [in, out]`, weight gradient `[out, b] × [b, in]`,
/// input gradient `[b, out] × [out, in]`.
const RAGGED_FCS: &[(&str, usize, usize, usize)] =
    &[("cnn_mnist/fc1", 16, 490, 39), ("alexnet/fc1", 16, 192, 25)];

/// `(name, m, k, n)` of every GEMM in [`RAGGED_CONVS`] / [`RAGGED_FCS`].
fn ragged_cases() -> Vec<(String, usize, usize, usize)> {
    let convs = RAGGED_CONVS.iter().flat_map(|&(layer, oc, ck, pos)| {
        [("fwd", oc, ck, pos), ("dw", ck, pos, oc), ("dx", ck, oc, pos)]
            .map(|(pass, m, k, n)| (format!("{layer}_{pass}"), m, k, n))
    });
    let fcs = RAGGED_FCS.iter().flat_map(|&(layer, b, fin, fout)| {
        [("fwd", b, fin, fout), ("dw", fout, b, fin), ("dx", b, fout, fin)]
            .map(|(pass, m, k, n)| (format!("{layer}_{pass}"), m, k, n))
    });
    convs.chain(fcs).collect()
}

/// `(name, batch, c_in, h = w, c_out, kernel, padding)` at stride 1: the
/// two conv-heavy zoo stages (the `conv` table), then the two conv
/// layers of the benchmark's sub-model — cnn_mnist width 0.25 pruned at
/// ratio 0.4, batch 16 (`conv_backward` times all four).
const CONV_CASES: [(&str, usize, usize, usize, usize, usize, usize); 4] = [
    ("cnn_mnist/conv2_b8", 8, 32, 14, 64, 5, 2),
    ("alexnet/conv2_b8", 8, 64, 16, 192, 3, 1),
    ("cnn_mnist_w0.25_r0.4/conv1_b16", 16, 1, 28, 5, 5, 2),
    ("cnn_mnist_w0.25_r0.4/conv2_b16", 16, 5, 14, 10, 5, 2),
];

/// Best-of-reps wall clock, in milliseconds, for a *pair* of kernels
/// alternated within one measurement window (`d p d p …`). The `gemm`,
/// `ragged`, `pool` and `pruned` tables report the ratio of the two, and
/// on a shared host a frequency dip during one side's window would skew
/// a ratio of separately-timed bests; interleaving makes any dip hit
/// both alike.
fn time_pair_ms<R1, R2>(
    reps: usize,
    mut d: impl FnMut() -> R1,
    mut p: impl FnMut() -> R2,
) -> (f64, f64) {
    std::hint::black_box(d()); // warm-up
    std::hint::black_box(p());
    let (mut bd, mut bp) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(d());
        bd = bd.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        std::hint::black_box(p());
        bp = bp.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (bd, bp)
}

/// Best-of-reps wall clock for one kernel, in milliseconds.
fn time_ms<R>(reps: usize, f: impl FnMut() -> R) -> f64 {
    time_pair_ms(reps, f, || ()).0
}

/// Runs `f` with the SIMD dispatch forced to `path`, then restores the
/// default (`FEDMP_SIMD`-configured) dispatch.
fn with_path<R>(path: SimdPath, f: impl FnOnce() -> R) -> R {
    simd::override_path(Some(path));
    let out = f();
    simd::override_path(None);
    out
}

/// The pre-blocking conv forward — per image, `im2col` then the
/// reference GEMM — as the `conv` table's baseline (its bias add is
/// noise beside the GEMM and left out).
fn conv2d_forward_reference(input: &Tensor, weight: &Tensor, spec: &Conv2dSpec) -> Vec<Tensor> {
    let (c, h, w) = (input.dims()[1], input.dims()[2], input.dims()[3]);
    let w_mat = weight.reshape(&[weight.dims()[0], c * spec.kh * spec.kw]);
    let images = input.data().chunks_exact(c * h * w);
    images.map(|image| matmul_reference(&w_mat, &im2col(image, c, h, w, spec))).collect()
}

/// `max_pool2d_forward` as it was before its window scan was written
/// with selects: the same row-major visit, a branch on the same strict
/// `>`, then the same gather. The `pool` table's baseline.
fn max_pool2d_forward_branchy(input: &Tensor, spec: &Pool2dSpec) -> (Tensor, Vec<usize>) {
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
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    for (dv, &idx) in out.data_mut().iter_mut().zip(&argmax) {
        *dv = src[idx];
    }
    (out, argmax)
}

/// Times every table above; `paper` saves them as `bench-results/kernels.json`.
pub fn kernels(_: &mut Harness) -> Value {
    let has_avx2 = simd::avx2_supported();
    let detected = simd::detected_features();
    let selected = simd::active_path();
    println!("cpu: detected {detected}, dispatch selects `{}`", selected.name());
    let mut rng = seeded_rng(0xBE7C);
    let ms_or_na = |ms: Option<f64>| ms.map_or("     n/a".into(), |s| format!("{s:8.3} ms"));

    let mut gemm_rows = Vec::new();
    for &(name, op, m, k, n) in GEMM_CASES {
        let flops = 2 * m * k * n;
        let (op_name, kernel, reference) = op.impls();
        let (a_dims, b_dims) = match op {
            Op::Nn => ([m, k], [k, n]),
            Op::Nt => ([m, k], [n, k]),
            Op::Tn => ([k, m], [k, n]),
        };
        let a = Tensor::randn(&a_dims, &mut rng);
        let b = Tensor::randn(&b_dims, &mut rng);
        let reps = (2_000_000_000 / flops).clamp(10, 200);
        let reference_ms = time_ms(reps, || reference(&a, &b));
        let (scalar_ms, simd_ms) = if has_avx2 {
            let (scalar_ms, simd_ms) = time_pair_ms(
                reps,
                || with_path(SimdPath::Scalar, || kernel(&a, &b)),
                || with_path(SimdPath::Avx2, || kernel(&a, &b)),
            );
            (scalar_ms, Some(simd_ms))
        } else {
            (with_path(SimdPath::Scalar, || time_ms(reps, || kernel(&a, &b))), None)
        };
        let gflops = |ms: f64| flops as f64 / (ms * 1e6);
        let speedup = reference_ms / scalar_ms;
        let simd_speedup = simd_ms.map(|s| scalar_ms / s);
        println!(
            "gemm {name:<24} {op_name}  {m}x{k}x{n}: ref {reference_ms:8.3} ms  scalar {scalar_ms:8.3} ms  simd {}  {speedup:5.2}x ref/scalar{}",
            ms_or_na(simd_ms),
            simd_speedup.map_or(String::new(), |s| format!("  {s:5.2}x scalar/simd")),
        );
        gemm_rows.push(json!({
            "name": name, "op": op_name,
            "m": m, "k": k, "n": n, "flops": flops,
            "reference_ms": reference_ms, "scalar_ms": scalar_ms, "simd_ms": simd_ms,
            "gflops_scalar": gflops(scalar_ms), "gflops_simd": simd_ms.map(gflops),
            "speedup_scalar_vs_reference": speedup,
            "speedup_simd_vs_scalar": simd_speedup,
        }));
    }

    // Conv forward on the two conv-heavy zoo stages, full batch, beside
    // the reference composition.
    let mut conv_rows = Vec::new();
    for &(name, n, c, hw, oc, k, padding) in &CONV_CASES[..2] {
        let spec = Conv2dSpec { kh: k, kw: k, stride: 1, padding };
        let input = Tensor::randn(&[n, c, hw, hw], &mut rng);
        let weight = Tensor::randn(&[oc, c, k, k], &mut rng);
        let bias = Tensor::zeros(&[oc]);
        let forward = || conv2d_forward(&input, &weight, &bias, &spec);
        let reference_ms = time_ms(3, || conv2d_forward_reference(&input, &weight, &spec));
        let scalar_ms = with_path(SimdPath::Scalar, || time_ms(3, forward));
        let simd_ms = has_avx2.then(|| with_path(SimdPath::Avx2, || time_ms(3, forward)));
        let speedup = reference_ms / scalar_ms;
        println!(
            "conv {name:<24} ref {reference_ms:8.3} ms  scalar {scalar_ms:8.3} ms  simd {}  {speedup:5.2}x ref/scalar",
            ms_or_na(simd_ms),
        );
        conv_rows.push(json!({
            "name": name,
            "batch": n, "in_channels": c, "h": hw, "w": hw,
            "out_channels": oc, "kernel": k, "stride": 1, "padding": padding,
            "reference_ms": reference_ms, "scalar_ms": scalar_ms, "simd_ms": simd_ms,
            "speedup_scalar_vs_reference": speedup,
            "speedup_simd_vs_scalar": simd_ms.map(|s| scalar_ms / s),
        }));
    }

    // Ragged shapes: what the benchmark's pruned sub-models actually
    // hand the kernel, each beside its padded-up neighbour (`m` to the
    // next multiple of 4, `n` to the next multiple of 16). One kernel
    // thread from here to the end of the `pool` table, default dispatch.
    let mut ragged_rows = Vec::new();
    parallel::override_threads(Some(1));
    for (name, m, k, n) in ragged_cases() {
        let (m_pad, n_pad) = (m.next_multiple_of(4), n.next_multiple_of(16));
        if (m_pad, n_pad) == (m, n) {
            continue; // already whole strips and blocks: nothing to compare
        }
        let (a, b) = (Tensor::randn(&[m, k], &mut rng), Tensor::randn(&[k, n], &mut rng));
        let a_pad = Tensor::randn(&[m_pad, k], &mut rng);
        let b_pad = Tensor::randn(&[k, n_pad], &mut rng);
        let (ragged_ms, padded_ms) = time_pair_ms(2000, || a.matmul(&b), || a_pad.matmul(&b_pad));
        let ratio = ragged_ms / padded_ms;
        let gflops = (2 * m * k * n) as f64 / (ragged_ms * 1e6);
        println!(
            "ragged {name:<20} {m:3}x{k:4}x{n:4}: {:8.2} us ({gflops:5.1} GFLOP/s)  padded {m_pad:3}x{k:4}x{n_pad:4}: {:8.2} us  {ratio:4.2}x",
            ragged_ms * 1e3,
            padded_ms * 1e3,
        );
        ragged_rows.push(json!({
            "name": name,
            "m": m, "k": k, "n": n,
            "m_padded": m_pad, "n_padded": n_pad,
            "ragged_us": ragged_ms * 1e3, "padded_us": padded_ms * 1e3,
            "gflops": gflops, "ragged_over_padded": ratio,
        }));
    }

    // Conv backward under the default dispatch: what the two gradient
    // passes cost beside the forward, and how much of each gradient
    // pass is data movement around its GEMM — the gradient transpose +
    // product add in the weight gradient, the `col2im` fold in the input
    // gradient (the forward and the weight gradient read the columns in
    // place, so neither unfolds). On one kernel thread a walk timed
    // alone is a true share of the batch-parallel pass.
    let mut conv_bwd_rows = Vec::new();
    for (name, n, c, hw, oc, k, padding) in CONV_CASES {
        let spec = Conv2dSpec { kh: k, kw: k, stride: 1, padding };
        let (oh, ow) = spec.out_hw(hw, hw);
        let input = Tensor::randn(&[n, c, hw, hw], &mut rng);
        let weight = Tensor::randn(&[oc, c, k, k], &mut rng);
        let bias = Tensor::zeros(&[oc]);
        let grad_out = Tensor::randn(&[n, oc, oh, ow], &mut rng);
        let cols = Tensor::randn(&[c * k * k, oh * ow], &mut rng);
        let reps = 20;
        let forward_ms = time_ms(reps, || conv2d_forward(&input, &weight, &bias, &spec));
        let bwd_weight_ms =
            time_ms(reps, || conv2d_backward_weight(&grad_out, &input, weight.dims(), &spec));
        let bwd_input_ms =
            time_ms(reps, || conv2d_backward_input(&grad_out, &weight, input.dims(), &spec));
        let mut folded = vec![0.0f32; c * hw * hw];
        let col2im_ms = time_ms(reps, || {
            for _ in 0..n {
                col2im_into(cols.data(), c, hw, hw, &spec, &mut folded);
            }
        });
        // What the weight gradient moves around its GEMM: per image,
        // the `[oc, P]` gradient block transposed to
        // `[P, oc]` and the `[ck, oc]` product added into the running
        // sum; per call, that sum transposed into `gw[oc, ck]`. The
        // kernel's own walks are private; these are the same ones,
        // re-written (for ≥ 8 rows the kernel transposes through 8×8
        // register tiles, so this is an upper bound there).
        let (ck, positions) = (c * k * k, oh * ow);
        let transpose = |src: &[f32], cols: usize, dst: &mut [f32]| {
            let rows = src.len() / cols;
            for (p, out) in dst.chunks_exact_mut(rows).enumerate() {
                for (d, &v) in out.iter_mut().zip(src[p..].iter().step_by(cols)) {
                    *d = v;
                }
            }
        };
        let mut go_t = vec![0.0f32; positions * oc];
        let prod_t = vec![1.0f32; ck * oc];
        let mut gw_t = vec![0.0f32; ck * oc];
        let mut gw = vec![0.0f32; oc * ck];
        let wgrad_pack_ms = time_ms(reps, || {
            for go in grad_out.data().chunks_exact(oc * positions) {
                transpose(go, positions, &mut go_t);
                for (g, &p) in gw_t.iter_mut().zip(&prod_t) {
                    *g += p;
                }
            }
            transpose(&gw_t, oc, &mut gw);
        });
        let wgrad_pack_share = wgrad_pack_ms / bwd_weight_ms;
        let col2im_share = col2im_ms / bwd_input_ms;
        let bwd_over_fwd = (bwd_weight_ms + bwd_input_ms) / forward_ms;
        println!(
            "conv-bwd {name:<32} fwd {forward_ms:7.3} ms  bwd_weight {bwd_weight_ms:7.3} ms (transpose+add {:.0}%)  bwd_input {bwd_input_ms:7.3} ms (col2im {:.0}%)  bwd/fwd {bwd_over_fwd:4.2}x",
            wgrad_pack_share * 100.0,
            col2im_share * 100.0,
        );
        conv_bwd_rows.push(json!({
            "name": name,
            "batch": n, "in_channels": c, "h": hw, "w": hw,
            "out_channels": oc, "kernel": k, "stride": 1, "padding": padding,
            "forward_ms": forward_ms,
            "bwd_weight_ms": bwd_weight_ms, "bwd_input_ms": bwd_input_ms,
            "wgrad_pack_share": wgrad_pack_share,
            "col2im_share": col2im_share, "bwd_over_fwd": bwd_over_fwd,
        }));
    }

    // Max-pool forward beside the branchy scan it replaced, on the
    // post-ReLU activations the zoo pools (about half the taps are
    // exactly 0.0, so whether a tap beats the running maximum is a coin
    // flip). Each side cycles through eight different inputs: on one
    // repeated input the branch predictor learns the smaller shapes'
    // whole outcome sequence and the branchy scan looks ~2× better than
    // it is on data it has not seen.
    let mut pool_rows = Vec::new();
    for (name, n, c, hw) in [
        ("cnn_mnist_w0.25_r0.4/pool1_b16", 16usize, 5usize, 28usize),
        ("cnn_mnist_w0.25_r0.4/pool2_b16", 16, 10, 14),
        ("cnn_mnist_w0.25/pool1_b64", 64, 8, 28),
        ("cnn_mnist_w0.25/pool2_b64", 64, 16, 14),
    ] {
        let spec = Pool2dSpec::square(2);
        let inputs: Vec<Tensor> =
            (0..8).map(|_| Tensor::randn(&[n, c, hw, hw], &mut rng).map(|v| v.max(0.0))).collect();
        let (mut for_branchy, mut for_select) = (inputs.iter().cycle(), inputs.iter().cycle());
        let (branchy_ms, select_ms) = time_pair_ms(
            400,
            || max_pool2d_forward_branchy(for_branchy.next().expect("cycle"), &spec),
            || max_pool2d_forward(for_select.next().expect("cycle"), &spec),
        );
        let ratio = select_ms / branchy_ms;
        println!(
            "pool {name:<32} {n}x{c}x{hw}x{hw}: branchy {branchy_ms:7.4} ms  select {select_ms:7.4} ms  {ratio:4.2}x",
        );
        pool_rows.push(json!({
            "name": name,
            "batch": n, "channels": c, "h": hw, "w": hw, "window": 2, "stride": 2,
            "branchy_ms": branchy_ms, "select_ms": select_ms, "select_over_branchy": ratio,
        }));
    }
    parallel::override_threads(None);

    // Cost tracks kept FLOPs: what does a ρ-pruned layer cost, relative
    // to its dense self, under the default dispatch? A pruned layer *is*
    // the ordinary kernel at the extracted shape, so each row times that
    // kernel on fresh operands of the shrunk shape beside the full one.
    // `out_only` prunes the filter/neuron dimension alone (kept-FLOPs
    // fraction = 1−ρ — the linearity the paper's cost model assumes);
    // `chained` prunes both dimensions as plan-chained interior layers
    // do (kept fraction ≈ (1−ρ)²).
    let mut pruned_rows = Vec::new();
    // Conv layer: alexnet/conv2 geometry, batch 8.
    let (cn, cc, chw, coc, ckh) = (8usize, 64usize, 16usize, 192usize, 3usize);
    let cspec = Conv2dSpec { kh: ckh, kw: ckh, stride: 1, padding: 1 };
    let cinput = Tensor::randn(&[cn, cc, chw, chw], &mut rng);
    let cweight = Tensor::randn(&[coc, cc, ckh, ckh], &mut rng);
    let cbias = Tensor::randn(&[coc], &mut rng);
    // Linear layer: alexnet/fc1 geometry, batch 64.
    let (lm, lif, lof) = (64usize, 4096usize, 512usize);
    let lx = Tensor::randn(&[lm, lif], &mut rng);
    let lw = Tensor::randn(&[lof, lif], &mut rng);
    for ratio in [0.3f32, 0.5, 0.7] {
        for (variant, chained) in [("out_only", false), ("chained", true)] {
            for (layer, kind, out_full, in_full) in
                [("alexnet/conv2_b8", "conv", coc, cc), ("alexnet/fc1_b64", "linear", lof, lif)]
            {
                let ko = ratio_keep_count(out_full, ratio);
                let ki = if chained { ratio_keep_count(in_full, ratio) } else { in_full };
                let (dense_ms, pruned_ms) = if kind == "conv" {
                    let sub_in = Tensor::randn(&[cn, ki, chw, chw], &mut rng);
                    let sub_w = Tensor::randn(&[ko, ki, ckh, ckh], &mut rng);
                    let sub_b = Tensor::randn(&[ko], &mut rng);
                    time_pair_ms(
                        7,
                        || conv2d_forward(&cinput, &cweight, &cbias, &cspec),
                        || conv2d_forward(&sub_in, &sub_w, &sub_b, &cspec),
                    )
                } else {
                    let sub_x = Tensor::randn(&[lm, ki], &mut rng);
                    let sub_w = Tensor::randn(&[ko, ki], &mut rng);
                    time_pair_ms(7, || lx.matmul_nt(&lw), || sub_x.matmul_nt(&sub_w))
                };
                let kept_flops_frac = (ko * ki) as f64 / (out_full * in_full) as f64;
                let time_frac = pruned_ms / dense_ms;
                println!(
                    "pruned {kind:<6} ratio {ratio:.1} {variant:<8} kept {ko:3}/{out_full} x {ki:4}/{in_full}: {pruned_ms:8.3} ms  ({:.1}% of dense, {:.1}% of FLOPs)",
                    time_frac * 100.0,
                    kept_flops_frac * 100.0,
                );
                pruned_rows.push(json!({
                    "layer": layer, "kind": kind, "ratio": ratio, "variant": variant,
                    "kept_out": ko, "out_full": out_full,
                    "kept_in": ki, "in_full": in_full,
                    "kept_flops_frac": kept_flops_frac,
                    "dense_ms": dense_ms, "pruned_ms": pruned_ms, "time_frac": time_frac,
                }));
            }
        }
    }

    // The headline is the largest GEMM's row (the first of equals).
    let top = gemm_rows.iter().rev().max_by_key(|row| row["flops"].as_u64()).expect("gemm rows");
    let headline = json!({
        "shape": top["name"], "flops": top["flops"],
        "speedup_vs_reference": top["speedup_scalar_vs_reference"],
        "speedup_simd_vs_scalar": top["speedup_simd_vs_scalar"],
    });
    json!({
        "threads": parallel::configured_threads(),
        "host_cpu_features": {
            "detected": detected, "selected_path": selected.name(), "avx2": has_avx2,
        },
        "gemm": gemm_rows,
        "ragged": ragged_rows,
        "conv": conv_rows,
        "conv_backward": conv_bwd_rows,
        "pool": pool_rows,
        "pruned": pruned_rows,
        "headline": headline,
    })
}
