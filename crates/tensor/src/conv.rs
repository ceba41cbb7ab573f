//! 2-D convolution: GEMMs that read the unfolded columns in place.
//!
//! Layouts follow the usual deep-learning convention:
//! * activations: `[batch, channels, height, width]` (NCHW)
//! * filters: `[out_channels, in_channels, kh, kw]`
//!
//! Per image, the forward pass is one GEMM `W · cols` and the weight
//! gradient one GEMM `cols · goᵀ`, where `cols[(c, ky, kx), (oy, ox)]`
//! is the image's im2col matrix. Neither builds it: both run the
//! blocked kernels of [`crate::matmul`] on a *tap view* ([`TapLayout`])
//! that reads each column element where it already is — in the image,
//! in its zero-bordered copy when there is padding, or, at stride
//! s > 1, in that copy's `s × s` phase planes, so that every tap of
//! every output row is one contiguous run. The forward reads the view
//! as its B operand, each 8-lane vector one window of such a run; the
//! weight gradient as its A operand, by scalar broadcast. [`im2col`]
//! and [`im2col_into`] stay as the materialised formulation the tests
//! hold both passes to. The input gradient still folds a column
//! product back with [`col2im_into`].
//!
//! Four rules keep every pass bit-identical at any thread count and
//! under any faster walk of the same data:
//!
//! 1. **Per-image GEMM order.** Forward and input-gradient passes
//!    parallelise over the batch via [`crate::parallel`]: each image owns
//!    a disjoint slice of the output, and the per-image GEMMs run
//!    sequentially inside the band workers.
//! 2. **The weight-gradient batch loop stays sequential.**
//!    [`conv2d_backward_weight`] sums one product per image into the same
//!    accumulator, image 0 first; batching the images into one GEMM
//!    would change the f32 summation order.
//! 3. **`col2im` tap order.** [`col2im_into`] visits taps in ascending
//!    `(ky, kx)` order and each tap adds at most one value to an image
//!    element, so an element's sum depends only on that order — not on how
//!    the positions *within* a tap are walked. The stride-1 path folds
//!    whole rows per tap on exactly that licence.
//! 4. **Factor order inside a chain is free; chain order is not.** An
//!    output element is one chain `acc ← acc + x·y` (fused or not) from
//!    `+0.0`, ascending in the reduction index. `x·y` and `y·x` are the
//!    same float, so *which operand of the GEMM* a matrix is — `A` or
//!    `B` — cannot move a bit as long as every element still meets its
//!    factors in the same order; nor can *where* the kernel reads a
//!    factor from, which is what lets the tap view stand in for the
//!    columns. The weight gradient uses both: `(go · colsᵀ)ᵀ = cols ·
//!    goᵀ` multiplies the columns in place as the A operand and
//!    transposes only the small gradient block, each `gw[f, j]` still
//!    one chain ascending in the output position.
//!
//! Per-image scratch comes from the calling thread's
//! [`crate::workspace`] pool rather than fresh allocations, under one of
//! two contracts. Buffers a kernel **accumulates into or reads a
//! background from** — the phase planes (whose zero border every image
//! shares), the weight gradient's running sum, the input gradient's
//! column buffer — are taken zero-filled. Buffers whose **every element
//! is overwritten before anything reads it** — the transposed gradient
//! block, the per-image product (the batch loop zero-fills it before
//! each GEMM), the input gradient's packed weight transpose, and
//! [`im2col_into`]'s columns (its unfold copies the border's zeros for
//! padding taps instead of relying on a zeroed background) — are taken
//! *dirty*, with whatever an earlier call left in them. Outputs are
//! bit-identical to the allocating formulation either way: the
//! `workspace_path_is_bit_identical` test below seeds the pool with
//! NaN-filled buffers and compares against a fresh thread with an empty
//! pool, and `padded_unfold_overwrites_a_poisoned_buffer`
//! (`tests/proptests.rs`) proves every column element is written.

use crate::matmul::{gemm_into, gemm_nn_into, pack_transpose_into, Dense, Operand};
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
    ///
    /// # Panics
    /// Panics if the kernel does not fit the padded input or the stride
    /// is zero.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let Conv2dSpec { kh, kw, stride, padding } = *self;
        let slack = (h + 2 * padding).checked_sub(kh).zip((w + 2 * padding).checked_sub(kw));
        let Some((sh, sw)) = slack.filter(|_| stride > 0) else {
            panic!(
                "conv2d: a {kh}x{kw} kernel at stride {stride} does not fit \
                 a {h}x{w} input padded by {padding}"
            );
        };
        (sh / stride + 1, sw / stride + 1)
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
/// elements. Every element is written (padding taps as `+0.0`), so the
/// buffer's previous contents do not matter.
///
/// The unfold reads a zero-bordered copy of the image, which makes every
/// tap of every output row a fixed-length in-bounds walk — no per-span
/// bounds arithmetic — that writes **every** element of `cols`: a
/// padding tap copies a border zero, the same `+0.0` a zeroed
/// background would have held.
pub fn im2col_into(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    cols: &mut [f32],
) {
    let Conv2dSpec { kh, kw, stride, padding } = *spec;
    let (oh, ow) = spec.out_hw(h, w);
    let (hp, wp) = (h + 2 * padding, w + 2 * padding);
    assert_eq!(image.len(), c * h * w, "im2col: image size");
    assert_eq!(cols.len(), c * kh * kw * oh * ow, "im2col_into: buffer size");

    let mut padded = vec![0.0f32; c * hp * wp];
    for (ch, img_ch) in image.chunks_exact(h * w).enumerate() {
        for (y, img_row) in img_ch.chunks_exact(w).enumerate() {
            let at = (ch * hp + y + padding) * wp + padding;
            padded[at..at + w].copy_from_slice(img_row);
        }
    }
    let mut taps = cols.chunks_exact_mut(oh * ow);
    for plane in padded.chunks_exact(hp * wp) {
        for ky in 0..kh {
            for kx in 0..kw {
                let tap = taps.next().expect("cols holds c*kh*kw taps (asserted above)");
                for (oy, out_row) in tap.chunks_exact_mut(ow).enumerate() {
                    let from = (oy * stride + ky) * wp + kx;
                    let strided = plane[from..].iter().step_by(stride);
                    for (d, &v) in out_row.iter_mut().zip(strided) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// Where the taps of one convolution geometry sit, for reading the
/// columns `cols[(ch, ky, kx), (oy, ox)] = padded[ch, oy·s + ky, ox·s + kx]`
/// in place instead of unfolding them.
///
/// The image is held as `s × s` phase planes of its zero-bordered copy:
/// plane `(py, px)` holds `padded[ch, y·s + py, x·s + px]` at `[ch, y, x]`,
/// so tap `(ky, kx)` of output row `oy` is the contiguous run of `ow`
/// floats at row `oy + ky/s`, column `kx/s` of plane `(ky % s, kx % s)`.
/// At stride 1 the one plane is the zero-bordered image itself, and
/// without padding the image as given — no copy at all.
struct TapLayout {
    /// Per tap `(ch, ky, kx)`: the offset of its `(oy, ox) = (0, 0)`
    /// element in the planes.
    starts: Vec<usize>,
    c: usize,
    h: usize,
    w: usize,
    stride: usize,
    padding: usize,
    /// Output width: the length of a tap's run per output row.
    ow: usize,
    /// Plane height and width.
    ph: usize,
    pw: usize,
    /// Floats of plane scratch: `0` when the image is read as given.
    planes_len: usize,
}

impl TapLayout {
    fn new(c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Self {
        let Conv2dSpec { kh, kw, stride, padding } = *spec;
        let (_, ow) = spec.out_hw(h, w);
        let (ph, pw) = ((h + 2 * padding).div_ceil(stride), (w + 2 * padding).div_ceil(stride));
        let plane_len = c * ph * pw;
        let planes_len = if stride == 1 && padding == 0 { 0 } else { stride * stride * plane_len };
        let mut starts = Vec::with_capacity(c * kh * kw);
        for ch in 0..c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let plane = (ky % stride) * stride + kx % stride;
                    starts.push(plane * plane_len + (ch * ph + ky / stride) * pw + kx / stride);
                }
            }
        }
        TapLayout { starts, c, h, w, stride, padding, ow, ph, pw, planes_len }
    }

    /// The tap view of `image`. `planes` is [`TapLayout::planes_len`]
    /// floats whose **border is zero**; the image's own positions are
    /// overwritten here — the same positions for every image — so one
    /// zeroed take serves any number of images of one geometry.
    fn view<'a>(&'a self, image: &'a [f32], planes: &'a mut [f32]) -> Taps<'a> {
        let TapLayout { c, h, w, stride: s, padding: p, ph, pw, .. } = *self;
        assert_eq!(image.len(), c * h * w, "conv2d: image size");
        assert_eq!(planes.len(), self.planes_len, "conv2d: plane scratch size");
        let data: &[f32] = if self.planes_len == 0 {
            image
        } else {
            for (ch, img_ch) in image.chunks_exact(h * w).enumerate() {
                for (y, img_row) in img_ch.chunks_exact(w).enumerate() {
                    let yp = y + p;
                    // Image columns `x0, x0 + s, …` share the phase
                    // `(x0 + p) % s` and sit side by side in its plane.
                    for x0 in 0..s.min(w) {
                        let plane = (yp % s) * s + (x0 + p) % s;
                        let at = ((plane * c + ch) * ph + yp / s) * pw + (x0 + p) / s;
                        if s == 1 {
                            planes[at..at + w].copy_from_slice(img_row);
                            continue;
                        }
                        let run = img_row[x0..].iter().step_by(s);
                        for (d, &v) in planes[at..at + run.len()].iter_mut().zip(run) {
                            *d = v;
                        }
                    }
                }
            }
            planes
        };
        Taps { data, starts: &self.starts, ow: self.ow, pw }
    }
}

/// One image's `[c·kh·kw, oh·ow]` columns as a GEMM operand read in
/// place ([`TapLayout`]): row `t` is tap `t`, and its columns run
/// contiguously along each output row.
struct Taps<'a> {
    data: &'a [f32],
    starts: &'a [usize],
    ow: usize,
    pw: usize,
}

impl Operand for Taps<'_> {
    #[inline]
    fn data(&self) -> &[f32] {
        self.data
    }
    #[inline]
    fn row(&self, t: usize) -> usize {
        self.starts[t]
    }
    #[inline]
    fn stretches(&self, q0: usize, q1: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let Taps { ow, pw, .. } = *self;
        let (mut q, mut oy, mut ox) = (q0, q0 / ow, q0 % ow);
        std::iter::from_fn(move || {
            (q < q1).then(|| {
                let len = (ow - ox).min(q1 - q);
                let stretch = (q, oy * pw + ox, len);
                (q, oy, ox) = (q + len, oy + 1, 0);
                stretch
            })
        })
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
    // GEMM reads it in place — no reshape clone per call — and the
    // columns are the tap view of each image, read in place too.
    let ck = c * spec.kh * spec.kw;
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    let out_img = oc * oh * ow;
    let in_img = c * h * w;
    let input_data = input.data();
    let weights = Dense { data: weight.data(), cols: ck };
    let bias_data = bias.data();
    let taps = TapLayout::new(c, h, w, spec);
    let work = 2 * n * out_img * ck;
    parallel::for_each_band(out.data_mut(), n, out_img, 1, work, |i, dst| {
        with_thread_workspace(|ws| {
            let mut planes = ws.take_zeroed(taps.planes_len);
            let image = &input_data[i * in_img..(i + 1) * in_img];
            // `dst` is this image's `[oc, oh*ow]` slice of the
            // zero-initialised output, so the GEMM accumulates straight
            // into it and the bias is added in place.
            gemm_into(&weights, &taps.view(image, &mut planes), oc, ck, oh * ow, dst);
            for (d, &b) in dst.chunks_exact_mut(oh * ow).zip(bias_data) {
                for dv in d {
                    *dv += b;
                }
            }
            ws.give(planes);
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
    let mut wt = with_thread_workspace(|ws| ws.take_dirty(oc * ck));
    pack_transpose_into(weight.data(), oc, ck, &mut wt); // [ck, oc], every element written
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
    // below still use the blocked kernels, with all scratch drawn from
    // the thread pool. Per image the product is computed transposed,
    // `cols · goᵀ = (go · colsᵀ)ᵀ` (rule 4 of the module docs): the
    // `[ck, P]` columns are the GEMM's A operand, read in place as the
    // image's tap view, and only the `[oc, P]` gradient block is
    // transposed. The products are summed in that `[ck, oc]` layout too
    // — element `[j, f]` takes the adds `gw[f, j]` used to, image 0
    // first — and the sum is transposed into place once, a pure copy.
    let ck = c * spec.kh * spec.kw;
    let positions = oh * ow;
    let taps = TapLayout::new(c, h, w, spec);
    let mut gw = Tensor::zeros(&[oc, ck]);
    let mut gb = Tensor::zeros(&[oc]);
    with_thread_workspace(|ws| {
        let mut planes = ws.take_zeroed(taps.planes_len);
        let mut go_t = ws.take_dirty(positions * oc);
        let mut prod_t = ws.take_dirty(ck * oc); // zero-filled before each GEMM below
        let mut gw_t = ws.take_zeroed(ck * oc);
        let images = input.data().chunks_exact(c * h * w);
        for (image, go) in images.zip(grad_out.data().chunks_exact(oc * positions)) {
            transpose_rows(go, oc, positions, &mut go_t);
            prod_t.fill(0.0);
            let go_t = Dense { data: &go_t, cols: oc };
            gemm_into(&taps.view(image, &mut planes), &go_t, ck, positions, oc, &mut prod_t);
            for (g, &p) in gw_t.iter_mut().zip(prod_t.iter()) {
                *g += p;
            }
            parallel::add_row_sums_f32(go, positions, gb.data_mut());
        }
        transpose_rows(&gw_t, ck, oc, gw.data_mut());
        for buf in [planes, go_t, prod_t, gw_t] {
            ws.give(buf);
        }
    });
    (gw.reshape(weight_dims), gb)
}

/// `dst[p, r] = src[r, p]` for a row-major `[rows, cols]` block — every
/// element of `dst` written. The tiled [`pack_transpose_into`] moves
/// 8×8 register blocks and falls back to its element tail when fewer
/// than 8 rows exist, which is every pruned cnn_mnist layer; walking
/// `dst` in order (one short strided gather per position) is the faster
/// pure copy there. Bits are the same whichever branch runs.
fn transpose_rows(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    if rows >= 8 {
        return pack_transpose_into(src, rows, cols, dst);
    }
    assert_eq!(src.len(), rows * cols, "transpose_rows: src size");
    assert_eq!(dst.len(), src.len(), "transpose_rows: dst size");
    for (p, out) in dst.chunks_exact_mut(rows).enumerate() {
        for (d, &v) in out.iter_mut().zip(src[p..].iter().step_by(cols)) {
            *d = v;
        }
    }
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
    #[should_panic(expected = "5x3 kernel at stride 1 does not fit a 2x8 input padded by 1")]
    fn out_hw_rejects_a_kernel_taller_than_the_padded_input() {
        let _ = Conv2dSpec { kh: 5, kw: 3, stride: 1, padding: 1 }.out_hw(2, 8);
    }

    #[test]
    #[should_panic(expected = "3x5 kernel at stride 2 does not fit a 8x4 input padded by 0")]
    fn out_hw_rejects_a_kernel_wider_than_the_padded_input() {
        let _ = Conv2dSpec { kh: 3, kw: 5, stride: 2, padding: 0 }.out_hw(8, 4);
    }

    #[test]
    #[should_panic(expected = "3x3 kernel at stride 0 does not fit")]
    fn out_hw_rejects_a_zero_stride() {
        let _ = Conv2dSpec { kh: 3, kw: 3, stride: 0, padding: 1 }.out_hw(8, 8);
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
        let mut buf = vec![f32::NAN; cols.numel()];
        im2col_into(x.data(), c, h, w, &spec, &mut buf);
        assert_eq!(buf, cols.data());
    }

    /// The workspace-pooled kernels must be *bit-identical* to the
    /// allocating formulation. A fresh thread starts with an empty pool
    /// (so every buffer it uses is freshly allocated and zeroed); the
    /// main thread first pollutes its pool — with differently-shaped
    /// conv calls and with NaN-filled buffers of other sizes, which is
    /// what the dirty takes would leak if any element they hand out
    /// were read before it is written — then both compute the same
    /// passes and must agree exactly.
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
        // Larger and smaller than every buffer `run` asks for (phase
        // plane 2 × 13 × 13, gradient block 81 × 4, product 50 × 4, …).
        with_thread_workspace(|ws| {
            for len in [7, 300, 340, 4_050, 5_000, 20_000] {
                ws.give(vec![f32::NAN; len]);
            }
        });

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
