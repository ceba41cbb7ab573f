//! Reference vs scalar-blocked vs SIMD kernel benchmark, plus the
//! cost-tracks-kept-FLOPs table.
//!
//! Times the naive `*_reference` GEMM kernels against the cache-blocked
//! scalar kernels and the AVX2/FMA microkernels on the GEMM shapes the
//! width-1.0 model zoo actually runs (im2col convolutions and linear
//! layers, batch 64), then the `ragged` table — the GEMMs the two
//! benchmark sub-models (ratio 0.4) issue, each beside the neighbour
//! padded up to whole 16-column strips and 4-row multiples — plus the
//! conv2d forward pass itself, then
//! the conv backward passes beside it (weight gradient, input gradient,
//! and what share of each pass is data movement around its GEMM: the
//! unfold in the forward, the gradient transpose + product add in the
//! weight gradient, the `col2im` fold in the input gradient), then
//! `max_pool2d_forward` beside the branchy window scan it replaced, then
//! measures what structured pruning buys at the kernel level: the
//! ordinary `conv2d_forward` / `matmul_nt` at the shape a ρ-pruned
//! conv/FC layer is extracted to, against the same kernel at the full
//! shape (the `pruned` table). Writes everything to
//! `bench-results/kernels.json`. Run with:
//!
//! ```text
//! cargo run --release -p fedmp-bench --bin kernels
//! ```
//!
//! Set `FEDMP_BENCH_SMOKE=1` (CI) to cut repetitions and skip the
//! timing-based gates; the *equivalence* gates — every path against the
//! reference oracle, every ragged shape bitwise against a scalar
//! ascending-`k` chain, the `col2im` row fold bitwise against an
//! element-by-element fold, the padded unfold into a NaN-poisoned buffer
//! bitwise against a per-element unfold, the max-pool select scan
//! against the branchy scan kept here — always run, so a smoke pass
//! still proves the kernels compute the same numbers. Timing gates in
//! full mode: on
//! AVX2 hosts the headline SIMD GEMM must beat the scalar blocked
//! kernel ≥ 2×, no `gemm` row's SIMD-over-scalar speed-up may fall more
//! than 10 % below the checked-in `kernels.json`, a ragged shape may
//! cost ≤ 1.25 × its padded neighbour (pruning must not be slower than
//! padding), the max-pool select scan must cost ≤ 0.85 × the branchy
//! scan timed in the same window, and the
//! 70 %-pruned (out-only) layers must cost ≤ 40 % of their dense time
//! (the kept-FLOPs fraction is 30 % — time must track FLOPs).

use std::time::Instant;

use fedmp_pruning::ratio_keep_count;
use fedmp_tensor::simd::{self, SimdPath};
use fedmp_tensor::{
    col2im_into, conv2d_backward_input, conv2d_backward_weight, conv2d_forward, im2col,
    im2col_into, matmul_nt_reference, matmul_reference, matmul_tn_reference, max_pool2d_forward,
    parallel, seeded_rng, Conv2dSpec, Pool2dSpec, Tensor,
};
use serde_json::json;

/// GEMM transpose configuration, matching the three `Tensor` kernels.
#[derive(Clone, Copy, PartialEq)]
enum Op {
    Nn,
    Nt,
    Tn,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Nn => "nn",
            Op::Nt => "nt",
            Op::Tn => "tn",
        }
    }
}

struct GemmCase {
    name: &'static str,
    op: Op,
    m: usize,
    k: usize,
    n: usize,
}

/// Every GEMM the width-1.0 zoo models issue per batch of 64 images:
/// conv layers as one im2col GEMM per image, linear layers as one
/// batched `nt` forward plus its `tn` weight gradient.
const GEMM_CASES: &[GemmCase] = &[
    GemmCase { name: "cnn_mnist/conv2_fwd", op: Op::Nn, m: 64, k: 800, n: 196 },
    GemmCase { name: "cnn_mnist/fc1_fwd_b64", op: Op::Nt, m: 64, k: 3136, n: 256 },
    GemmCase { name: "alexnet/conv3_fwd", op: Op::Nn, m: 384, k: 1728, n: 64 },
    GemmCase { name: "alexnet/fc1_fwd_b64", op: Op::Nt, m: 64, k: 4096, n: 512 },
    GemmCase { name: "alexnet/fc1_wgrad_b64", op: Op::Tn, m: 512, k: 64, n: 4096 },
    GemmCase { name: "vgg/conv_s3_fwd", op: Op::Nn, m: 256, k: 1152, n: 49 },
];

/// The conv layers of the two benchmark sub-models — cnn_mnist width
/// 0.25 and alexnet width 0.08, every layer pruned at ratio 0.4 — as
/// `(layer, kept filters, kept c_in·kh·kw, output positions)`. Per
/// image: forward `[oc, ck] × [ck, pos]`, weight gradient
/// `[ck, pos] × [pos, oc]` (the columns as unfolded times the transposed
/// gradient block), input gradient `[ck, oc] × [oc, pos]`.
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
    let mut cases = Vec::new();
    for &(layer, oc, ck, pos) in RAGGED_CONVS {
        cases.push((format!("{layer}_fwd"), oc, ck, pos));
        cases.push((format!("{layer}_dw"), ck, pos, oc));
        cases.push((format!("{layer}_dx"), ck, oc, pos));
    }
    for &(layer, b, fin, fout) in RAGGED_FCS {
        cases.push((format!("{layer}_fwd"), b, fin, fout));
        cases.push((format!("{layer}_dw"), fout, b, fin));
        cases.push((format!("{layer}_dx"), b, fout, fin));
    }
    cases
}

/// What `path` must produce for `a @ b`, exactly: per element one chain
/// from `+0.0` ascending `k`, fused on AVX2, multiply-then-add on the
/// scalar kernel (the oracle of `tensor/tests/simd_gemm.rs`).
fn chain_oracle(path: SimdPath, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let (x, y) = (a.data()[i * k + p], b.data()[p * n + j]);
                acc = match path {
                    SimdPath::Avx2 => x.mul_add(y, acc),
                    SimdPath::Scalar => acc + x * y,
                };
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

/// Best-of-reps wall clock for `f`, in milliseconds.
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f()); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Best-of-reps for a *pair* of kernels, alternating them within one
/// measurement window (`d p d p …`). The `gemm`, `ragged` and `pruned`
/// tables gate on the ratio of the two, and on a shared host a
/// frequency dip during one side's window would skew a ratio of
/// separately-timed bests; interleaving makes any dip hit both sides
/// alike.
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

/// Runs `f` with the SIMD dispatch forced to `path`, then restores the
/// default (`FEDMP_SIMD`-configured) dispatch.
fn with_path<R>(path: SimdPath, f: impl FnOnce() -> R) -> R {
    simd::override_path(Some(path));
    let out = f();
    simd::override_path(None);
    out
}

/// Equivalence gate: `got` agrees with the oracle within a relative
/// tolerance (the paths re-associate / fuse float ops, so bitwise
/// equality is only promised *within* a path, not across paths).
fn assert_close(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: dims");
    for (i, (x, y)) in got.data().iter().zip(want.data().iter()).enumerate() {
        let tol = 1e-3 + 1e-4 * y.abs();
        assert!((x - y).abs() <= tol, "{what}: element {i}: {x} vs {y}");
    }
}

/// Bitwise gate: `got` must match its exact oracle (the ascending-`k`
/// chain, the element-by-element `col2im` fold) down to the last ulp.
fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: dims");
    for (i, (x, y)) in got.data().iter().zip(want.data().iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// The pre-blocking conv2d forward: sequential batch loop over
/// `im2col` + reference GEMM, kept here as the benchmark baseline.
fn conv2d_forward_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
) -> Tensor {
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let oc = weight.dims()[0];
    let (oh, ow) = spec.out_hw(h, w);
    let w_mat = weight.reshape(&[oc, c * spec.kh * spec.kw]);
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let out_img = oc * oh * ow;
    for i in 0..n {
        let cols = im2col(&input.data()[i * c * h * w..(i + 1) * c * h * w], c, h, w, spec);
        let res = matmul_reference(&w_mat, &cols);
        let dst = &mut out.data_mut()[i * out_img..(i + 1) * out_img];
        for f in 0..oc {
            let b = bias.data()[f];
            let src = &res.data()[f * oh * ow..(f + 1) * oh * ow];
            for (dv, &sv) in dst[f * oh * ow..(f + 1) * oh * ow].iter_mut().zip(src.iter()) {
                *dv = sv + b;
            }
        }
    }
    out
}

/// The unfold one element at a time, bounds-tested per tap — what
/// `im2col_into` must reproduce bit for bit in a buffer nobody zeroed.
fn im2col_per_element(image: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    let (oh, ow) = spec.out_hw(h, w);
    let mut cols = Tensor::zeros(&[c * spec.kh * spec.kw, oh * ow]);
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
                        cols.data_mut()[row * oh * ow + oy * ow + ox] =
                            image[(ch * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
    }
    cols
}

/// `max_pool2d_forward` as it was before its window scan was written
/// with selects: the same row-major visit, a branch on the same strict
/// `>`, then the same gather. Oracle and timing baseline of the `pool`
/// table.
fn max_pool2d_forward_branchy(input: &Tensor, spec: &Pool2dSpec) -> (Tensor, Vec<usize>) {
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let src = input.data();
    let mut argmax = vec![0usize; n * c * oh * ow];
    let mut o = 0;
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
                argmax[o] = best_idx;
                o += 1;
            }
        }
    }
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    for (dv, &idx) in out.data_mut().iter_mut().zip(&argmax) {
        *dv = src[idx];
    }
    (out, argmax)
}

fn main() {
    let smoke = std::env::var("FEDMP_BENCH_SMOKE").as_deref() == Ok("1");
    let has_avx2 = simd::avx2_supported();
    let detected = simd::detected_features();
    let selected = simd::active_path();
    println!("cpu: detected {detected}, dispatch selects `{}`", selected.name());

    // The checked-in report this run replaces: its `gemm` rows are the
    // floor the full-mode regression gate holds the new ones to. The
    // gate reads time in units of the scalar kernel on the same run —
    // absolute milliseconds on a shared host swing far more than 10 %
    // between runs of one binary.
    let path = "bench-results/kernels.json";
    let checked_in: Option<serde_json::Value> =
        std::fs::read_to_string(path).ok().and_then(|text| serde_json::from_str(&text).ok());
    let checked_in_simd_speedup = |name: &str| -> Option<f64> {
        let rows = checked_in.as_ref()?.get("gemm")?.as_array()?;
        rows.iter().find(|r| r["name"] == *name)?.get("speedup_simd_vs_scalar")?.as_f64()
    };

    let mut rng = seeded_rng(0xBE7C);
    let mut gemm_rows = Vec::new();
    let mut headline: Option<(String, usize, f64, Option<f64>)> = None;

    for case in GEMM_CASES {
        let (m, k, n) = (case.m, case.k, case.n);
        let flops = 2 * m * k * n;
        // Operand layouts per transpose configuration.
        let (a_dims, b_dims): (&[usize], &[usize]) = match case.op {
            Op::Nn => (&[m, k], &[k, n]),
            Op::Nt => (&[m, k], &[n, k]),
            Op::Tn => (&[k, m], &[k, n]),
        };
        let a = Tensor::randn(a_dims, &mut rng);
        let b = Tensor::randn(b_dims, &mut rng);
        let run = |op: Op| match op {
            Op::Nn => a.matmul(&b),
            Op::Nt => a.matmul_nt(&b),
            Op::Tn => a.matmul_tn(&b),
        };
        let reference = match case.op {
            Op::Nn => matmul_reference(&a, &b),
            Op::Nt => matmul_nt_reference(&a, &b),
            Op::Tn => matmul_tn_reference(&a, &b),
        };
        // Equivalence gates before any timing: both paths vs oracle.
        with_path(SimdPath::Scalar, || {
            assert_close(&run(case.op), &reference, &format!("{}/scalar", case.name));
        });
        if has_avx2 {
            with_path(SimdPath::Avx2, || {
                assert_close(&run(case.op), &reference, &format!("{}/simd", case.name));
            });
        }

        let reps = if smoke { 2 } else { (2_000_000_000 / flops).clamp(10, 200) };
        let reference_ms = time_ms(reps, || match case.op {
            Op::Nn => matmul_reference(&a, &b),
            Op::Nt => matmul_nt_reference(&a, &b),
            Op::Tn => matmul_tn_reference(&a, &b),
        });
        // The two paths alternate inside one window: their ratio is what
        // the headline and regression gates read.
        let (scalar_ms, simd_ms) = if has_avx2 {
            let (scalar_ms, simd_ms) = time_pair_ms(
                reps,
                || with_path(SimdPath::Scalar, || run(case.op)),
                || with_path(SimdPath::Avx2, || run(case.op)),
            );
            (scalar_ms, Some(simd_ms))
        } else {
            (with_path(SimdPath::Scalar, || time_ms(reps, || run(case.op))), None)
        };
        let gflops = |ms: f64| flops as f64 / (ms * 1e6);
        let speedup = reference_ms / scalar_ms;
        let simd_speedup = simd_ms.map(|s| scalar_ms / s);
        println!(
            "gemm {:<24} {}  {m}x{k}x{n}: ref {reference_ms:8.3} ms  scalar {scalar_ms:8.3} ms  simd {}  {speedup:5.2}x ref/scalar{}",
            case.name,
            case.op.name(),
            simd_ms.map_or("     n/a".into(), |s| format!("{s:8.3} ms")),
            simd_speedup.map_or(String::new(), |s| format!("  {s:5.2}x scalar/simd")),
        );
        if let (Some(now), Some(before)) = (simd_speedup, checked_in_simd_speedup(case.name)) {
            assert!(
                smoke || now >= 0.90 * before,
                "gemm gate: {} simd is {now:.2}x the scalar kernel, > 10% below the checked-in {before:.2}x",
                case.name
            );
        }
        if headline.as_ref().is_none_or(|&(_, f, _, _)| flops > f) {
            headline = Some((case.name.to_string(), flops, speedup, simd_speedup));
        }
        gemm_rows.push(json!({
            "name": case.name,
            "op": case.op.name(),
            "m": m, "k": k, "n": n,
            "flops": flops,
            "reference_ms": reference_ms,
            "scalar_ms": scalar_ms,
            "simd_ms": simd_ms,
            "gflops_scalar": gflops(scalar_ms),
            "gflops_simd": simd_ms.map(gflops),
            "speedup_scalar_vs_reference": speedup,
            "speedup_simd_vs_scalar": simd_speedup,
        }));
    }

    // Ragged shapes: what the benchmark's pruned sub-models actually
    // hand the kernel, each beside its padded-up neighbour (`m` to the
    // next multiple of 4, `n` to the next multiple of 16). One kernel
    // thread, default dispatch, the pair interleaved so a frequency dip
    // hits both sides alike.
    let mut ragged_rows = Vec::new();
    parallel::override_threads(Some(1));
    for (name, m, k, n) in ragged_cases() {
        let (m_pad, n_pad) = (m.next_multiple_of(4), n.next_multiple_of(16));
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        // Bitwise gate (always): both paths against the scalar chain.
        for path in [SimdPath::Scalar, SimdPath::Avx2] {
            if path == SimdPath::Avx2 && !has_avx2 {
                continue;
            }
            let got = with_path(path, || a.matmul(&b));
            assert_bits_eq(&got, &chain_oracle(path, &a, &b), &format!("{name}/{}", path.name()));
        }
        if (m_pad, n_pad) == (m, n) {
            continue; // already whole strips and blocks: nothing to compare
        }
        let a_pad = Tensor::randn(&[m_pad, k], &mut rng);
        let b_pad = Tensor::randn(&[k, n_pad], &mut rng);
        let reps = if smoke { 2 } else { 2000 };
        let (ragged_ms, padded_ms) = time_pair_ms(reps, || a.matmul(&b), || a_pad.matmul(&b_pad));
        let ratio = ragged_ms / padded_ms;
        let gflops = (2 * m * k * n) as f64 / (ragged_ms * 1e6);
        println!(
            "ragged {name:<20} {m:3}x{k:4}x{n:4}: {:8.2} us ({gflops:5.1} GFLOP/s)  padded {m_pad:3}x{k:4}x{n_pad:4}: {:8.2} us  {ratio:4.2}x",
            ragged_ms * 1e3,
            padded_ms * 1e3,
        );
        if !smoke && selected == SimdPath::Avx2 {
            assert!(
                ratio <= 1.25,
                "ragged gate: {name} {m}x{k}x{n} costs {ratio:.2}x its padded neighbour {m_pad}x{k}x{n_pad} (> 1.25x)"
            );
        }
        ragged_rows.push(json!({
            "name": name,
            "m": m, "k": k, "n": n,
            "m_padded": m_pad, "n_padded": n_pad,
            "ragged_us": ragged_ms * 1e3,
            "padded_us": padded_ms * 1e3,
            "gflops": gflops,
            "ragged_over_padded": ratio,
        }));
    }
    parallel::override_threads(None);

    // Conv forward on the two conv-heavy zoo stages, full batch.
    let mut conv_rows = Vec::new();
    for (name, n, c, h, w, oc, kh, stride, padding) in [
        ("cnn_mnist/conv2_b8", 8usize, 32usize, 14usize, 14usize, 64usize, 5usize, 1usize, 2usize),
        ("alexnet/conv2_b8", 8, 64, 16, 16, 192, 3, 1, 1),
    ] {
        let spec = Conv2dSpec { kh, kw: kh, stride, padding };
        let input = Tensor::randn(&[n, c, h, w], &mut rng);
        let weight = Tensor::randn(&[oc, c, kh, kh], &mut rng);
        let bias = Tensor::zeros(&[oc]);
        let reference = conv2d_forward_reference(&input, &weight, &bias, &spec);
        with_path(SimdPath::Scalar, || {
            assert_close(
                &conv2d_forward(&input, &weight, &bias, &spec),
                &reference,
                &format!("{name}/scalar"),
            );
        });
        if has_avx2 {
            with_path(SimdPath::Avx2, || {
                assert_close(
                    &conv2d_forward(&input, &weight, &bias, &spec),
                    &reference,
                    &format!("{name}/simd"),
                );
            });
        }
        let conv_reps = if smoke { 1 } else { 3 };
        let reference_ms =
            time_ms(conv_reps, || conv2d_forward_reference(&input, &weight, &bias, &spec));
        let scalar_ms = with_path(SimdPath::Scalar, || {
            time_ms(conv_reps, || conv2d_forward(&input, &weight, &bias, &spec))
        });
        let simd_ms = has_avx2.then(|| {
            with_path(SimdPath::Avx2, || {
                time_ms(conv_reps, || conv2d_forward(&input, &weight, &bias, &spec))
            })
        });
        let speedup = reference_ms / scalar_ms;
        println!(
            "conv {name:<24} ref {reference_ms:8.3} ms  scalar {scalar_ms:8.3} ms  simd {}  {speedup:5.2}x ref/scalar",
            simd_ms.map_or("     n/a".into(), |s| format!("{s:8.3} ms")),
        );
        conv_rows.push(json!({
            "name": name,
            "batch": n, "in_channels": c, "h": h, "w": w,
            "out_channels": oc, "kernel": kh, "stride": stride, "padding": padding,
            "reference_ms": reference_ms,
            "scalar_ms": scalar_ms,
            "simd_ms": simd_ms,
            "speedup_scalar_vs_reference": speedup,
            "speedup_simd_vs_scalar": simd_ms.map(|s| scalar_ms / s),
        }));
    }

    // Conv backward under the default dispatch: what the two gradient
    // passes cost beside the forward, and how much of each pass is data
    // movement around its GEMM — the unfold in the forward, the gradient
    // transpose + product add in the weight gradient, the `col2im` fold
    // in the input gradient — on the two stages above and on the
    // two conv layers of the benchmark's sub-model (cnn_mnist width 0.25
    // pruned at ratio 0.4, batch 16). One kernel thread, so a walk
    // timed alone is a true share of the batch-parallel pass.
    let mut conv_bwd_rows = Vec::new();
    parallel::override_threads(Some(1));
    for (name, n, c, hw, oc, k, padding) in [
        ("cnn_mnist/conv2_b8", 8usize, 32usize, 14usize, 64usize, 5usize, 2usize),
        ("alexnet/conv2_b8", 8, 64, 16, 192, 3, 1),
        ("cnn_mnist_w0.25_r0.4/conv1_b16", 16, 1, 28, 5, 5, 2),
        ("cnn_mnist_w0.25_r0.4/conv2_b16", 16, 5, 14, 10, 5, 2),
    ] {
        let spec = Conv2dSpec { kh: k, kw: k, stride: 1, padding };
        let (oh, ow) = spec.out_hw(hw, hw);
        let input = Tensor::randn(&[n, c, hw, hw], &mut rng);
        let weight = Tensor::randn(&[oc, c, k, k], &mut rng);
        let bias = Tensor::zeros(&[oc]);
        let grad_out = Tensor::randn(&[n, oc, oh, ow], &mut rng);
        let cols = Tensor::randn(&[c * k * k, oh * ow], &mut rng);

        // Bitwise gate (always): the stride-1 row fold against a fold
        // that adds one column element at a time, in row-major column
        // order — ascending `(ky, kx)` per image element. Where each
        // column element lands is read off `im2col` of an image holding
        // its own 1-based offsets (0 marks a padding tap).
        let offsets: Vec<f32> = (1..=c * hw * hw).map(|i| i as f32).collect();
        let landing = im2col(&offsets, c, hw, hw, &spec);
        let mut want = Tensor::zeros(&[c, hw, hw]);
        for (&v, &j) in cols.data().iter().zip(landing.data()) {
            if j > 0.0 {
                want.data_mut()[j as usize - 1] += v;
            }
        }
        let mut folded = Tensor::zeros(&[c, hw, hw]);
        col2im_into(cols.data(), c, hw, hw, &spec, folded.data_mut());
        assert_bits_eq(&folded, &want, &format!("{name}/col2im"));

        // Bitwise gate (always): the unfold is handed buffers nobody
        // zeroed, so it must write every column element — padding taps
        // included — exactly as the per-element unfold does. At this
        // row's stride 1 and at stride 2.
        let image = &input.data()[..c * hw * hw];
        for stride in [1, 2] {
            let spec = Conv2dSpec { stride, ..spec };
            let want = im2col_per_element(image, c, hw, hw, &spec);
            let mut got = Tensor::full(want.dims(), f32::NAN);
            im2col_into(image, c, hw, hw, &spec, got.data_mut());
            assert_bits_eq(&got, &want, &format!("{name}/unfold stride {stride}"));
        }

        let reps = if smoke { 1 } else { 20 };
        let forward_ms = time_ms(reps, || conv2d_forward(&input, &weight, &bias, &spec));
        let bwd_weight_ms =
            time_ms(reps, || conv2d_backward_weight(&grad_out, &input, weight.dims(), &spec));
        let bwd_input_ms =
            time_ms(reps, || conv2d_backward_input(&grad_out, &weight, input.dims(), &spec));
        let col2im_ms = time_ms(reps, || {
            for _ in 0..n {
                col2im_into(cols.data(), c, hw, hw, &spec, folded.data_mut());
            }
        });
        let col2im_share = col2im_ms / bwd_input_ms;
        let mut unfolded = vec![f32::NAN; cols.numel()];
        let unfold_ms = time_ms(reps, || {
            for image in input.data().chunks_exact(c * hw * hw) {
                im2col_into(image, c, hw, hw, &spec, &mut unfolded);
            }
        });
        let unfold_share = unfold_ms / forward_ms;
        // What the weight gradient moves around its GEMM besides the
        // unfold: per image, the `[oc, P]` gradient block transposed to
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
        let bwd_over_fwd = (bwd_weight_ms + bwd_input_ms) / forward_ms;
        println!(
            "conv-bwd {name:<32} fwd {forward_ms:7.3} ms (unfold {:.0}%)  bwd_weight {bwd_weight_ms:7.3} ms (transpose+add {:.0}%)  bwd_input {bwd_input_ms:7.3} ms (col2im {:.0}%)  bwd/fwd {bwd_over_fwd:4.2}x",
            unfold_share * 100.0,
            wgrad_pack_share * 100.0,
            col2im_share * 100.0,
        );
        conv_bwd_rows.push(json!({
            "name": name,
            "batch": n, "in_channels": c, "h": hw, "w": hw,
            "out_channels": oc, "kernel": k, "stride": 1, "padding": padding,
            "forward_ms": forward_ms,
            "bwd_weight_ms": bwd_weight_ms,
            "bwd_input_ms": bwd_input_ms,
            "unfold_share": unfold_share,
            "wgrad_pack_share": wgrad_pack_share,
            "col2im_share": col2im_share,
            "bwd_over_fwd": bwd_over_fwd,
        }));
    }

    // Max-pool forward beside the branchy scan it replaced, on the
    // post-ReLU activations the zoo pools (about half the taps are
    // exactly 0.0, so whether a tap beats the running maximum is a coin
    // flip). Each side cycles through eight different inputs: on one
    // repeated input the branch predictor learns the smaller shapes'
    // whole outcome sequence and the branchy scan looks ~2× better than
    // it is on data it has not seen. Still one kernel thread.
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
        // Bitwise gate (always): same argmax, same pooled values — on
        // the 2×2/2 window and on an overlapping 3×3/2 one.
        for spec in [spec, Pool2dSpec { kh: 3, kw: 3, stride: 2 }] {
            let (got, got_at) = max_pool2d_forward(&inputs[0], &spec);
            let (want, want_at) = max_pool2d_forward_branchy(&inputs[0], &spec);
            assert_eq!(got_at, want_at, "{name}/argmax {}x{}", spec.kh, spec.kw);
            assert_bits_eq(&got, &want, &format!("{name}/pooled {}x{}", spec.kh, spec.kw));
        }
        let reps = if smoke { 2 } else { 400 };
        let (mut next_b, mut next_s) = (0usize, 0usize);
        let (branchy_ms, select_ms) = time_pair_ms(
            reps,
            || {
                next_b += 1;
                max_pool2d_forward_branchy(&inputs[next_b % inputs.len()], &spec)
            },
            || {
                next_s += 1;
                max_pool2d_forward(&inputs[next_s % inputs.len()], &spec)
            },
        );
        let ratio = select_ms / branchy_ms;
        println!(
            "pool {name:<32} {n}x{c}x{hw}x{hw}: branchy {branchy_ms:7.4} ms  select {select_ms:7.4} ms  {ratio:4.2}x",
        );
        assert!(
            smoke || ratio <= 0.85,
            "pool gate: {name} select scan costs {ratio:.2}x the branchy scan (> 0.85x)"
        );
        pool_rows.push(json!({
            "name": name,
            "batch": n, "channels": c, "h": hw, "w": hw, "window": 2, "stride": 2,
            "branchy_ms": branchy_ms,
            "select_ms": select_ms,
            "select_over_branchy": ratio,
        }));
    }
    parallel::override_threads(None);

    // ------------------------------------------------------------------
    // Cost tracks kept FLOPs: what does a ρ-pruned layer cost, relative
    // to its dense self, under the default dispatch? A pruned layer *is*
    // the ordinary kernel at the extracted shape, so each row times that
    // kernel on fresh operands of the shrunk shape beside the full one
    // (timing does not need the gathered values).
    //
    // `out_only` prunes the filter/neuron dimension alone (kept-FLOPs
    // fraction = 1−ρ — the linearity the paper's cost model assumes);
    // `chained` prunes both dimensions as plan-chained interior layers
    // do (kept fraction ≈ (1−ρ)²).
    // ------------------------------------------------------------------
    let mut pruned_rows = Vec::new();
    let pruned_reps = if smoke { 1 } else { 7 };

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
        for chained in [false, true] {
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
                        pruned_reps,
                        || conv2d_forward(&cinput, &cweight, &cbias, &cspec),
                        || conv2d_forward(&sub_in, &sub_w, &sub_b, &cspec),
                    )
                } else {
                    let sub_x = Tensor::randn(&[lm, ki], &mut rng);
                    let sub_w = Tensor::randn(&[ko, ki], &mut rng);
                    time_pair_ms(pruned_reps, || lx.matmul_nt(&lw), || sub_x.matmul_nt(&sub_w))
                };
                let variant = if chained { "chained" } else { "out_only" };
                let kept_flops_frac = (ko * ki) as f64 / (out_full * in_full) as f64;
                let time_frac = pruned_ms / dense_ms;
                println!(
                    "pruned {kind:<6} ratio {ratio:.1} {variant:<8} kept {ko:3}/{out_full} x {ki:4}/{in_full}: {pruned_ms:8.3} ms  ({:.1}% of dense, {:.1}% of FLOPs)",
                    time_frac * 100.0,
                    kept_flops_frac * 100.0,
                );
                pruned_rows.push(json!({
                    "layer": layer,
                    "kind": kind,
                    "ratio": ratio,
                    "variant": variant,
                    "kept_out": ko, "out_full": out_full,
                    "kept_in": ki, "in_full": in_full,
                    "kept_flops_frac": kept_flops_frac,
                    "dense_ms": dense_ms,
                    "pruned_ms": pruned_ms,
                    "time_frac": time_frac,
                }));
                if !smoke && !chained && (ratio - 0.7).abs() < 1e-6 {
                    assert!(
                        time_frac <= 0.40,
                        "pruned {kind} gate: 70%-pruned layer cost {:.1}% of dense (> 40%)",
                        time_frac * 100.0
                    );
                }
            }
        }
    }

    let (headline_name, headline_flops, headline_speedup, headline_simd) =
        headline.expect("at least one case");
    if !smoke && has_avx2 {
        let simd_speedup = headline_simd.expect("AVX2 host must have timed the SIMD path");
        assert!(
            simd_speedup >= 2.0,
            "simd gate: headline {headline_name} SIMD speedup {simd_speedup:.2}x < 2x over scalar"
        );
    } else if !has_avx2 {
        println!("simd gate skipped: AVX2+FMA not detected on this host");
    }

    let report = json!({
        "generated_by": "cargo run --release -p fedmp-bench --bin kernels",
        "threads": parallel::configured_threads(),
        "host_cpu_features": {
            "detected": detected,
            "selected_path": selected.name(),
            "avx2": has_avx2,
        },
        "gemm": gemm_rows,
        "ragged": ragged_rows,
        "conv": conv_rows,
        "conv_backward": conv_bwd_rows,
        "pool": pool_rows,
        "pruned": pruned_rows,
        "headline": {
            "shape": headline_name,
            "flops": headline_flops,
            "speedup_vs_reference": headline_speedup,
            "speedup_simd_vs_scalar": headline_simd,
        },
    });
    std::fs::create_dir_all("bench-results").expect("create bench-results/");
    std::fs::write(path, serde_json::to_string_pretty(&report).expect("serialise"))
        .expect("write kernels.json");
    println!(
        "wrote {path} (headline {headline_name}: {headline_speedup:.2}x vs ref{})",
        headline_simd.map_or(String::new(), |s| format!(", simd {s:.2}x vs scalar")),
    );
}
