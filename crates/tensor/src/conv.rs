//! 2-D convolution via im2col/col2im.
//!
//! Layouts follow the usual deep-learning convention:
//! * activations: `[batch, channels, height, width]` (NCHW)
//! * filters: `[out_channels, in_channels, kh, kw]`
//!
//! The im2col transform turns convolution into one GEMM per image, which
//! keeps the hot loop inside the blocked kernel of [`crate::matmul`].
//!
//! Three rules keep every pass bit-identical at any thread count and
//! under any faster walk of the same data:
//!
//! 1. **Per-image GEMM order.** Forward and input-gradient passes
//!    parallelise over the batch via [`crate::parallel`]: each image owns
//!    a disjoint slice of the output, and the per-image GEMMs run
//!    sequentially inside the band workers.
//! 2. **The weight-gradient batch loop stays sequential.**
//!    [`conv2d_backward_weight`] sums one product per image into the same
//!    accumulator, image 0 first; batching the images into one GEMM or
//!    flipping its orientation would change the f32 summation order.
//! 3. **`col2im` tap order.** [`col2im_into`] visits taps in ascending
//!    `(ky, kx)` order and each tap adds at most one value to an image
//!    element, so an element's sum depends only on that order — not on how
//!    the positions *within* a tap are walked. The stride-1 path folds
//!    whole rows per tap on exactly that licence.
//!
//! Per-image scratch (column buffers, GEMM products, packed transposes)
//! comes from the calling thread's [`crate::workspace`] pool rather
//! than fresh allocations; every pooled buffer is zero-filled on take,
//! so outputs are bit-identical to the allocating formulation — the
//! `workspace_path_is_bit_identical` test below proves it against a
//! fresh thread with an empty pool.

use crate::matmul::{gemm_nn_into, pack_transpose_into};
use crate::parallel;
use crate::tensor::Tensor;
use crate::workspace::with_thread_workspace;
use serde::{Deserialize, Serialize};

/// Static geometry of a conv2d: kernel size, stride and zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an input of `h × w`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kh) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kw) / self.stride + 1;
        (oh, ow)
    }
}

/// Unfolds one image `[c, h, w]` into columns `[c*kh*kw, oh*ow]`.
///
/// Out-of-bounds taps (from padding) contribute zeros.
pub fn im2col(image: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Tensor {
    let (oh, ow) = spec.out_hw(h, w);
    let col_rows = c * spec.kh * spec.kw;
    let col_cols = oh * ow;
    let mut cols = Tensor::zeros(&[col_rows, col_cols]);
    im2col_into(image, c, h, w, spec, cols.data_mut());
    cols
}

/// [`im2col`] into a caller-provided buffer of `c*kh*kw × oh*ow`
/// elements, which must be **zeroed** (only in-bounds taps are written;
/// padding taps rely on the zeroed background).
pub fn im2col_into(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    data: &mut [f32],
) {
    let (oh, ow) = spec.out_hw(h, w);
    let col_cols = oh * ow;
    assert_eq!(data.len(), c * spec.kh * spec.kw * col_cols, "im2col_into: buffer size");

    for ch in 0..c {
        let img_ch = &image[ch * h * w..(ch + 1) * h * w];
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let row = (ch * spec.kh + ky) * spec.kw + kx;
                let out_row = &mut data[row * col_cols..(row + 1) * col_cols];
                unfold_tap(img_ch, h, w, spec, ky, kx, oh, ow, out_row);
            }
        }
    }
}

/// At stride 1, output row `oy` of tap `(ky, kx)` maps to one
/// *contiguous* image segment. Yields `(image offset, column offset,
/// len)` for every output row whose in-bounds span is non-empty; rows or
/// whole taps that fall in the padding yield nothing.
fn stride1_spans(
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    (ky, kx): (usize, usize),
    (oh, ow): (usize, usize),
) -> impl Iterator<Item = (usize, usize, usize)> {
    let p = spec.padding;
    // ix = ox + kx - padding must lie in [0, w): solve for ox.
    let ox_lo = p.saturating_sub(kx);
    let ox_hi = (w + p).saturating_sub(kx).min(ow);
    (0..oh).filter_map(move |oy| {
        let iy = (oy + ky).checked_sub(p).filter(|&iy| iy < h)?;
        (ox_lo < ox_hi).then(|| (iy * w + ox_lo + kx - p, oy * ow + ox_lo, ox_hi - ox_lo))
    })
}

/// Writes one `(ky, kx)` tap of the unfold: for every output position,
/// copies the in-bounds source element into `out_row[oy*ow + ox]`,
/// leaving padding taps untouched (the caller's buffer is zeroed).
///
/// At stride 1 each in-bounds span collapses to one `copy_from_slice`
/// ([`stride1_spans`]) — the same elements land in the same slots as the
/// per-element loop, so outputs are bit-identical either way.
#[allow(clippy::too_many_arguments)]
fn unfold_tap(
    img_ch: &[f32],
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    ky: usize,
    kx: usize,
    oh: usize,
    ow: usize,
    out_row: &mut [f32],
) {
    if spec.stride == 1 {
        for (img, col, len) in stride1_spans(h, w, spec, (ky, kx), (oh, ow)) {
            out_row[col..col + len].copy_from_slice(&img_ch[img..img + len]);
        }
        return;
    }
    for oy in 0..oh {
        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
        if iy < 0 || iy >= h as isize {
            continue;
        }
        let iy = iy as usize;
        for ox in 0..ow {
            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
            if ix < 0 || ix >= w as isize {
                continue;
            }
            out_row[oy * ow + ox] = img_ch[iy * w + ix as usize];
        }
    }
}

/// Folds columns `[c*kh*kw, oh*ow]` back into an image `[c, h, w]`,
/// accumulating overlapping taps — the adjoint of [`im2col`].
pub fn col2im(cols: &Tensor, c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Vec<f32> {
    let mut image = vec![0.0f32; c * h * w];
    col2im_into(cols.data(), c, h, w, spec, &mut image);
    image
}

/// [`col2im`] accumulating into a caller-provided image buffer of
/// `c*h*w` elements (`+=` per tap, so start from zeros for the plain
/// adjoint).
///
/// Taps are folded in ascending `(ky, kx)` order and a tap adds at most
/// one value to any image element, so the f32 sum an element ends with is
/// fixed by the tap order alone. At stride 1 each tap therefore folds
/// whole contiguous rows (`stride1_spans`) and stays bit-identical to
/// the per-element loop, which stride > 1 still uses.
pub fn col2im_into(
    data: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    image: &mut [f32],
) {
    let (oh, ow) = spec.out_hw(h, w);
    let col_cols = oh * ow;
    assert_eq!(data.len(), c * spec.kh * spec.kw * col_cols, "col2im_into: cols size");
    assert_eq!(image.len(), c * h * w, "col2im_into: image size");

    for ch in 0..c {
        let img_ch = &mut image[ch * h * w..(ch + 1) * h * w];
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let row = (ch * spec.kh + ky) * spec.kw + kx;
                let col_row = &data[row * col_cols..(row + 1) * col_cols];
                if spec.stride == 1 {
                    for (img, col, len) in stride1_spans(h, w, spec, (ky, kx), (oh, ow)) {
                        for (d, &s) in
                            img_ch[img..img + len].iter_mut().zip(&col_row[col..col + len])
                        {
                            *d += s;
                        }
                    }
                    continue;
                }
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        img_ch[iy * w + ix as usize] += col_row[oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Convolution forward pass.
///
/// * `input` — `[n, c, h, w]`
/// * `weight` — `[oc, c, kh, kw]`
/// * `bias` — `[oc]`
///
/// Returns `[n, oc, oh, ow]`.
pub fn conv2d_forward(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let (n, c, h, w) = nchw(input);
    let oc = weight.dims()[0];
    assert_eq!(weight.dims()[1], c, "conv2d: weight in-channels mismatch");
    assert_eq!(weight.dims()[2], spec.kh);
    assert_eq!(weight.dims()[3], spec.kw);
    assert_eq!(bias.numel(), oc, "conv2d: bias length mismatch");
    let (oh, ow) = spec.out_hw(h, w);

    // `weight` is already contiguous `[oc, c*kh*kw]` row-major, so the
    // GEMM reads it in place — no reshape clone per call.
    let ck = c * spec.kh * spec.kw;
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let out_img = oc * oh * ow;
    let in_img = c * h * w;
    let input_data = input.data();
    let weight_data = weight.data();
    let bias_data = bias.data();
    let work = 2 * n * out_img * ck;
    parallel::for_each_band(out.data_mut(), n, out_img, 1, work, |i, dst| {
        with_thread_workspace(|ws| {
            let mut cols = ws.take_zeroed(ck * oh * ow);
            im2col_into(&input_data[i * in_img..(i + 1) * in_img], c, h, w, spec, &mut cols);
            // `dst` is this image's `[oc, oh*ow]` slice of the
            // zero-initialised output, so the GEMM accumulates straight
            // into it and the bias is added in place.
            gemm_nn_into(weight_data, &cols, oc, ck, oh * ow, dst);
            for (d, &b) in dst.chunks_exact_mut(oh * ow).zip(bias_data) {
                for dv in d {
                    *dv += b;
                }
            }
            ws.give(cols);
        });
    });
    out
}

/// Gradient of the loss with respect to the convolution input.
///
/// * `grad_out` — `[n, oc, oh, ow]`
///
/// Returns `[n, c, h, w]`.
pub fn conv2d_backward_input(
    grad_out: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    spec: &Conv2dSpec,
) -> Tensor {
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let oc = weight.dims()[0];
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(grad_out.dims(), &[n, oc, oh, ow], "conv2d bwd: grad_out shape");

    // `weightᵀ @ grad` is the same for every image, so pack the
    // transpose once here instead of once per image inside the band
    // workers (same values, computed in one place).
    let ck = c * spec.kh * spec.kw;
    let mut wt = with_thread_workspace(|ws| ws.take_zeroed(oc * ck));
    pack_transpose_into(weight.data(), oc, ck, &mut wt); // [ck, oc]
    let mut grad_in = Tensor::zeros(&[n, c, h, w]);
    let in_img = c * h * w;
    let grad_data = grad_out.data();
    let work = 2 * n * oc * oh * ow * ck;
    parallel::for_each_band(grad_in.data_mut(), n, in_img, 1, work, |i, dst| {
        with_thread_workspace(|ws| {
            let go = &grad_data[i * oc * oh * ow..(i + 1) * oc * oh * ow]; // [oc, oh*ow]
            let mut cols_grad = ws.take_zeroed(ck * oh * ow); // [c*kh*kw, oh*ow]
            gemm_nn_into(&wt, go, ck, oc, oh * ow, &mut cols_grad);
            // `dst` is this image's slice of the zero-initialised
            // gradient tensor, so accumulating the adjoint into it
            // directly matches col2im-into-fresh-zeros bit for bit.
            col2im_into(&cols_grad, c, h, w, spec, dst);
            ws.give(cols_grad);
        });
    });
    with_thread_workspace(|ws| ws.give(wt));
    grad_in
}

/// Gradients of the loss with respect to the filters and bias.
///
/// Returns `(grad_weight [oc, c, kh, kw], grad_bias [oc])`, summed over the
/// batch.
pub fn conv2d_backward_weight(
    grad_out: &Tensor,
    input: &Tensor,
    weight_dims: &[usize],
    spec: &Conv2dSpec,
) -> (Tensor, Tensor) {
    let (n, c, h, w) = nchw(input);
    let oc = weight_dims[0];
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(grad_out.dims(), &[n, oc, oh, ow], "conv2d bwd: grad_out shape");

    // The weight gradient accumulates across images, so the batch loop
    // stays sequential to keep one summation order; the per-image GEMMs
    // below still use the blocked kernels, with all scratch (columns,
    // packed transpose, per-image product) drawn from the thread pool.
    let ck = c * spec.kh * spec.kw;
    let mut gw = Tensor::zeros(&[oc, ck]);
    let mut gb = Tensor::zeros(&[oc]);
    with_thread_workspace(|ws| {
        let mut cols = ws.take_zeroed(ck * oh * ow);
        let mut cols_t = ws.take_zeroed(ck * oh * ow);
        let mut prod = ws.take_zeroed(oc * ck);
        for i in 0..n {
            cols.fill(0.0);
            im2col_into(
                &input.data()[i * c * h * w..(i + 1) * c * h * w],
                c,
                h,
                w,
                spec,
                &mut cols,
            );
            let go = &grad_out.data()[i * oc * oh * ow..(i + 1) * oc * oh * ow]; // [oc, oh*ow]
                                                                                 // grad @ colsᵀ, exactly as `matmul_nt` computes it: pack the
                                                                                 // columns transposed, then run the blocked NN kernel.
            pack_transpose_into(&cols, ck, oh * ow, &mut cols_t);
            prod.fill(0.0);
            gemm_nn_into(go, &cols_t, oc, oh * ow, ck, &mut prod);
            for (g, &p) in gw.data_mut().iter_mut().zip(prod.iter()) {
                *g += p;
            }
            for f in 0..oc {
                gb.data_mut()[f] +=
                    parallel::sum_f32(go[f * oh * ow..(f + 1) * oh * ow].iter().copied());
            }
        }
        ws.give(cols);
        ws.give(cols_t);
        ws.give(prod);
    });
    (gw.reshape(weight_dims), gb)
}

fn nchw(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.shape().rank(), 4, "expected an NCHW tensor, got {}", t.shape());
    let d = t.dims();
    (d[0], d[1], d[2], d[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn naive_conv(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Tensor {
        let (n, c, h, w) = nchw(input);
        let oc = weight.dims()[0];
        let (oh, ow) = spec.out_hw(h, w);
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for i in 0..n {
            for f in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.data()[f];
                        for ch in 0..c {
                            for ky in 0..spec.kh {
                                for kx in 0..spec.kw {
                                    let iy =
                                        (oy * spec.stride + ky) as isize - spec.padding as isize;
                                    let ix =
                                        (ox * spec.stride + kx) as isize - spec.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.at(&[i, ch, iy as usize, ix as usize])
                                        * weight.at(&[f, ch, ky, kx]);
                                }
                            }
                        }
                        out.set(&[i, f, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn forward_matches_naive_no_padding() {
        let mut rng = seeded_rng(11);
        let spec = Conv2dSpec { kh: 3, kw: 3, stride: 1, padding: 0 };
        let input = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let weight = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let bias = Tensor::randn(&[4], &mut rng);
        assert_close(
            &conv2d_forward(&input, &weight, &bias, &spec),
            &naive_conv(&input, &weight, &bias, &spec),
            1e-4,
        );
    }

    #[test]
    fn forward_matches_naive_padded_strided() {
        let mut rng = seeded_rng(12);
        let spec = Conv2dSpec { kh: 5, kw: 5, stride: 2, padding: 2 };
        let input = Tensor::randn(&[1, 2, 9, 9], &mut rng);
        let weight = Tensor::randn(&[3, 2, 5, 5], &mut rng);
        let bias = Tensor::zeros(&[3]);
        assert_close(
            &conv2d_forward(&input, &weight, &bias, &spec),
            &naive_conv(&input, &weight, &bias, &spec),
            1e-4,
        );
    }

    #[test]
    fn out_hw_formula() {
        let spec = Conv2dSpec { kh: 5, kw: 5, stride: 1, padding: 2 };
        assert_eq!(spec.out_hw(28, 28), (28, 28));
        let spec2 = Conv2dSpec { kh: 2, kw: 2, stride: 2, padding: 0 };
        assert_eq!(spec2.out_hw(28, 28), (14, 14));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the backward pass relies on.
        let mut rng = seeded_rng(13);
        let spec = Conv2dSpec { kh: 3, kw: 3, stride: 2, padding: 1 };
        let (c, h, w) = (2, 5, 5);
        let (oh, ow) = spec.out_hw(h, w);
        let x = Tensor::randn(&[c, h, w], &mut rng);
        let y = Tensor::randn(&[c * 9, oh * ow], &mut rng);
        let cols = im2col(x.data(), c, h, w, &spec);
        let lhs: f32 = cols.data().iter().zip(y.data().iter()).map(|(a, b)| a * b).sum();
        let folded = col2im(&y, c, h, w, &spec);
        let rhs: f32 = x.data().iter().zip(folded.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_into_matches_allocating_im2col() {
        let mut rng = seeded_rng(15);
        let spec = Conv2dSpec { kh: 3, kw: 3, stride: 2, padding: 1 };
        let (c, h, w) = (3, 7, 6);
        let x = Tensor::randn(&[c, h, w], &mut rng);
        let cols = im2col(x.data(), c, h, w, &spec);
        let mut buf = vec![0.0f32; cols.numel()];
        im2col_into(x.data(), c, h, w, &spec, &mut buf);
        assert_eq!(buf, cols.data());
    }

    /// The workspace-pooled kernels must be *bit-identical* to the
    /// allocating formulation. A fresh thread starts with an empty pool
    /// (so every buffer it uses is freshly allocated and zeroed); the
    /// main thread first pollutes its pool with differently-shaped conv
    /// calls, then both compute the same passes and must agree exactly.
    #[test]
    fn workspace_path_is_bit_identical() {
        let run = || {
            let mut rng = seeded_rng(16);
            let spec = Conv2dSpec { kh: 5, kw: 5, stride: 1, padding: 2 };
            let input = Tensor::randn(&[3, 2, 9, 9], &mut rng);
            let weight = Tensor::randn(&[4, 2, 5, 5], &mut rng);
            let bias = Tensor::randn(&[4], &mut rng);
            let out = conv2d_forward(&input, &weight, &bias, &spec);
            let grad_out = Tensor::randn(out.dims(), &mut rng);
            let gi = conv2d_backward_input(&grad_out, &weight, input.dims(), &spec);
            let (gw, gb) = conv2d_backward_weight(&grad_out, &input, weight.dims(), &spec);
            (out, gi, gw, gb)
        };

        // Pollute the calling thread's pool with buffers from conv
        // calls of a different geometry.
        let mut rng = seeded_rng(17);
        let small_spec = Conv2dSpec { kh: 3, kw: 3, stride: 1, padding: 0 };
        let small_in = Tensor::randn(&[2, 1, 5, 5], &mut rng);
        let small_w = Tensor::randn(&[2, 1, 3, 3], &mut rng);
        let _ = conv2d_forward(&small_in, &small_w, &Tensor::zeros(&[2]), &small_spec);

        let dirty = run();
        let fresh = std::thread::spawn(run).join().expect("fresh-thread run");
        assert_eq!(dirty.0, fresh.0, "forward");
        assert_eq!(dirty.1, fresh.1, "grad input");
        assert_eq!(dirty.2, fresh.2, "grad weight");
        assert_eq!(dirty.3, fresh.3, "grad bias");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = seeded_rng(14);
        let spec = Conv2dSpec { kh: 3, kw: 3, stride: 1, padding: 1 };
        let input = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let weight = Tensor::randn(&[2, 2, 3, 3], &mut rng).scale(0.5);
        let bias = Tensor::randn(&[2], &mut rng);

        // Scalar loss = sum of outputs; so grad_out = ones.
        let out = conv2d_forward(&input, &weight, &bias, &spec);
        let grad_out = Tensor::ones(out.dims());
        let gi = conv2d_backward_input(&grad_out, &weight, input.dims(), &spec);
        let (gw, gb) = conv2d_backward_weight(&grad_out, &input, weight.dims(), &spec);

        let eps = 1e-2f32;
        let loss = |inp: &Tensor, wt: &Tensor, b: &Tensor| conv2d_forward(inp, wt, b, &spec).sum();

        for idx in [0usize, 7, 15, 31] {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let num = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            assert!(
                (num - gi.data()[idx]).abs() < 0.05,
                "input grad {idx}: {num} vs {}",
                gi.data()[idx]
            );
        }
        for idx in [0usize, 9, 17, 35] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            assert!(
                (num - gw.data()[idx]).abs() < 0.05,
                "weight grad {idx}: {num} vs {}",
                gw.data()[idx]
            );
        }
        for idx in 0..2 {
            let mut bp = bias.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = bias.clone();
            bm.data_mut()[idx] -= eps;
            let num = (loss(&input, &weight, &bp) - loss(&input, &weight, &bm)) / (2.0 * eps);
            assert!(
                (num - gb.data()[idx]).abs() < 0.1,
                "bias grad {idx}: {num} vs {}",
                gb.data()[idx]
            );
        }
    }
}
