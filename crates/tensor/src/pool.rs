//! 2-D max and average pooling with backward passes.
//!
//! All four kernels parallelise over the batch via [`crate::parallel`]:
//! every image owns a disjoint slice of the output buffer, so results
//! are bit-identical at any thread count.

use crate::parallel;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::hint::select_unpredictable;

/// Geometry of a pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pool2dSpec {
    /// Window height.
    pub kh: usize,
    /// Window width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
}

impl Pool2dSpec {
    /// A square window with stride equal to its size (the common case).
    pub fn square(k: usize) -> Self {
        Pool2dSpec { kh: k, kw: k, stride: k }
    }

    /// Output spatial size for an `h × w` input.
    ///
    /// # Panics
    /// Panics if the window does not fit the input or the stride is
    /// zero.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let Pool2dSpec { kh, kw, stride } = *self;
        let slack = h.checked_sub(kh).zip(w.checked_sub(kw));
        let Some((sh, sw)) = slack.filter(|_| stride > 0) else {
            panic!("pool2d: a {kh}x{kw} window at stride {stride} does not fit a {h}x{w} input");
        };
        (sh / stride + 1, sw / stride + 1)
    }
}

/// Max-pool forward. Returns the pooled tensor and the argmax indices
/// (flat offsets into the input) needed by the backward pass.
pub fn max_pool2d_forward(input: &Tensor, spec: &Pool2dSpec) -> (Tensor, Vec<usize>) {
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let src = input.data();
    let out_img = c * oh * ow;
    let work = n * out_img * spec.kh * spec.kw;

    // Pass 1 (batch-parallel): argmax offsets, one disjoint band of the
    // index buffer per image.
    parallel::for_each_band(&mut argmax, n, out_img, 1, work, |i, band| {
        let image = &src[i * c * h * w..(i + 1) * c * h * w];
        for (ch, (plane, out)) in
            image.chunks_exact(h * w).zip(band.chunks_exact_mut(oh * ow)).enumerate()
        {
            let base = (i * c + ch) * h * w;
            // Every zoo model pools 2×2 at stride 2. Naming that window
            // makes the scan's trip counts and strides compile-time
            // constants there (the generic instantiation measured 2.5×
            // behind it, 4.4–5.5 vs 1.6–2.2 ns per window); it is the
            // same scan either way.
            let common = Pool2dSpec::square(2);
            if *spec == common {
                argmax_plane(plane, w, ow, common, base, out);
            } else {
                argmax_plane(plane, w, ow, *spec, base, out);
            }
        }
    });

    // Pass 2: gather the pooled values through the argmax offsets.
    for (dv, &idx) in out.data_mut().iter_mut().zip(argmax.iter()) {
        *dv = src[idx];
    }
    (out, argmax)
}

/// Argmax offset (`base` + offset in `plane`) of every pooling window of
/// one `[h, w]` plane, row-major into the `[oh, ow]` slice `out`.
///
/// A window is scanned row-major with a strict `>`, so the first
/// maximum wins and a NaN never does; seeded with the window's own
/// first offset, a window with nothing above `-inf` (all NaN / `-inf`)
/// still reports an element of its own image.
///
/// Both updates are *selects* on that one comparison, not a branch
/// around two stores: on post-ReLU activations whether a tap beats the
/// running maximum is a coin flip, and a mispredicted branch per tap
/// costs more than the scan. [`select_unpredictable`] says so to the
/// compiler — a plain `if wins { .. } else { .. }` is turned back into
/// the branch (measured: LLVM's select-to-branch heuristic fires on the
/// index update because the compared value was just loaded).
#[inline(always)]
fn argmax_plane(
    plane: &[f32],
    w: usize,
    ow: usize,
    spec: Pool2dSpec,
    base: usize,
    out: &mut [usize],
) {
    for (oy, out_row) in out.chunks_exact_mut(ow).enumerate() {
        for (ox, o) in out_row.iter_mut().enumerate() {
            let first = oy * spec.stride * w + ox * spec.stride;
            let (mut best, mut best_at) = (f32::NEG_INFINITY, first);
            for ky in 0..spec.kh {
                let row_at = first + ky * w;
                for (kx, &v) in plane[row_at..row_at + spec.kw].iter().enumerate() {
                    let wins = v > best;
                    best = select_unpredictable(wins, v, best);
                    best_at = select_unpredictable(wins, row_at + kx, best_at);
                }
            }
            *o = base + best_at;
        }
    }
}

/// Max-pool backward: routes each output gradient to its argmax input.
/// Argmax offsets stay within their own image, so the scatter is
/// batch-parallel over disjoint `grad_in` slices.
pub fn max_pool2d_backward(grad_out: &Tensor, argmax: &[usize], input_dims: &[usize]) -> Tensor {
    assert_eq!(grad_out.numel(), argmax.len(), "max-pool backward: argmax length");
    let n = input_dims[0];
    let mut grad_in = Tensor::zeros(input_dims);
    let in_img = grad_in.numel() / n.max(1);
    let out_img = argmax.len() / n.max(1);
    let go = grad_out.data();
    parallel::for_each_band(grad_in.data_mut(), n, in_img, 1, argmax.len(), |i, band| {
        let base = i * in_img;
        let go_img = &go[i * out_img..(i + 1) * out_img];
        let am_img = &argmax[i * out_img..(i + 1) * out_img];
        for (&g, &idx) in go_img.iter().zip(am_img.iter()) {
            band[idx - base] += g;
        }
    });
    grad_in
}

/// Average-pool forward.
pub fn avg_pool2d_forward(input: &Tensor, spec: &Pool2dSpec) -> Tensor {
    let d = input.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let inv = 1.0 / (spec.kh * spec.kw) as f32;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let src = input.data();
    let out_img = c * oh * ow;
    let work = n * out_img * spec.kh * spec.kw;
    parallel::for_each_band(out.data_mut(), n, out_img, 1, work, |i, band| {
        let mut o = 0usize;
        for ch in 0..c {
            let base = (i * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..spec.kh {
                        let iy = oy * spec.stride + ky;
                        for kx in 0..spec.kw {
                            acc += src[base + iy * w + ox * spec.stride + kx];
                        }
                    }
                    band[o] = acc * inv;
                    o += 1;
                }
            }
        }
    });
    out
}

/// Average-pool backward: spreads each output gradient uniformly over its
/// window.
pub fn avg_pool2d_backward(grad_out: &Tensor, input_dims: &[usize], spec: &Pool2dSpec) -> Tensor {
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (oh, ow) = spec.out_hw(h, w);
    assert_eq!(grad_out.dims(), &[n, c, oh, ow], "avg-pool backward: grad shape");
    let inv = 1.0 / (spec.kh * spec.kw) as f32;
    let mut grad_in = Tensor::zeros(input_dims);
    let go = grad_out.data();
    let in_img = c * h * w;
    let out_img = c * oh * ow;
    let work = n * out_img * spec.kh * spec.kw;
    parallel::for_each_band(grad_in.data_mut(), n, in_img, 1, work, |i, band| {
        let mut o = i * out_img;
        for ch in 0..c {
            let base = ch * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[o] * inv;
                    o += 1;
                    for ky in 0..spec.kh {
                        let iy = oy * spec.stride + ky;
                        for kx in 0..spec.kw {
                            band[base + iy * w + ox * spec.stride + kx] += g;
                        }
                    }
                }
            }
        }
    });
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn max_pool_known_values() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let (out, argmax) = max_pool2d_forward(&input, &Pool2dSpec::square(2));
        assert_eq!(out.data(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    #[should_panic(expected = "3x2 window at stride 1 does not fit a 2x8 input")]
    fn out_hw_rejects_a_window_taller_than_the_input() {
        let _ = Pool2dSpec { kh: 3, kw: 2, stride: 1 }.out_hw(2, 8);
    }

    #[test]
    #[should_panic(expected = "2x3 window at stride 2 does not fit a 8x2 input")]
    fn out_hw_rejects_a_window_wider_than_the_input() {
        let _ = Pool2dSpec { kh: 2, kw: 3, stride: 2 }.out_hw(8, 2);
    }

    #[test]
    #[should_panic(expected = "2x2 window at stride 0 does not fit")]
    fn out_hw_rejects_a_zero_stride() {
        let _ = Pool2dSpec { kh: 2, kw: 2, stride: 0 }.out_hw(8, 8);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let input = Tensor::from_vec(vec![1.0, 2.0, 4.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let spec = Pool2dSpec::square(2);
        let (_, argmax) = max_pool2d_forward(&input, &spec);
        let grad_out = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let gi = max_pool2d_backward(&grad_out, &argmax, input.dims());
        assert_eq!(gi.data(), &[0.0, 0.0, 5.0, 0.0]);
    }

    /// A window with no element above -inf must still pool — and route
    /// its gradient — inside its own image, not to offset 0 of the batch.
    #[test]
    fn max_pool_of_all_nan_or_neg_inf_window_stays_in_its_image() {
        let spec = Pool2dSpec::square(2);
        for fill in [f32::NAN, f32::NEG_INFINITY] {
            let mut data = vec![7.0, 1.0, 2.0, 3.0];
            data.extend([fill; 4]);
            data.extend([4.0, 9.0, 5.0, 6.0]);
            let input = Tensor::from_vec(data, &[3, 1, 2, 2]).unwrap();
            let (out, argmax) = max_pool2d_forward(&input, &spec);
            assert_eq!(argmax, vec![0, 4, 9], "fill {fill}");
            assert_eq!(out.data()[0], 7.0);
            assert_eq!(out.data()[1].to_bits(), fill.to_bits(), "the window's own element");
            assert_eq!(out.data()[2], 9.0);
            let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1, 1, 1]).unwrap();
            let gi = max_pool2d_backward(&grad_out, &argmax, input.dims());
            assert_eq!(
                gi.data(),
                &[1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0],
                "fill {fill}"
            );
        }
    }

    #[test]
    fn avg_pool_known_values() {
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let out = avg_pool2d_forward(&input, &Pool2dSpec::square(2));
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let grad_out = Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]).unwrap();
        let gi = avg_pool2d_backward(&grad_out, &[1, 1, 2, 2], &Pool2dSpec::square(2));
        assert_eq!(gi.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[expect(
        clippy::identity_op,
        clippy::erasing_op,
        reason = "the index arithmetic spells out (image * channels + channel) * plane even \
                  where a factor is zero"
    )]
    fn pooling_preserves_batch_and_channel_structure() {
        let mut rng = seeded_rng(20);
        let input = Tensor::randn(&[3, 4, 8, 8], &mut rng);
        let spec = Pool2dSpec::square(2);
        let (out, _) = max_pool2d_forward(&input, &spec);
        assert_eq!(out.dims(), &[3, 4, 4, 4]);
        // Channel 2 of image 1 must only depend on channel 2 of image 1.
        let mut input2 = input.clone();
        // Perturb a different channel; pooled output for [1,2,..] unchanged.
        for v in &mut input2.data_mut()[(0 * 4 + 1) * 64..(0 * 4 + 2) * 64] {
            *v += 100.0;
        }
        let (out2, _) = max_pool2d_forward(&input2, &spec);
        let off = (1 * 4 + 2) * 16;
        assert_eq!(&out.data()[off..off + 16], &out2.data()[off..off + 16]);
    }

    #[test]
    fn avg_pool_grad_matches_finite_difference() {
        let mut rng = seeded_rng(21);
        let input = Tensor::randn(&[1, 1, 4, 4], &mut rng);
        let spec = Pool2dSpec::square(2);
        let grad_out = Tensor::ones(&[1, 1, 2, 2]);
        let gi = avg_pool2d_backward(&grad_out, input.dims(), &spec);
        let eps = 1e-3f32;
        for idx in 0..16 {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let num = (avg_pool2d_forward(&ip, &spec).sum() - avg_pool2d_forward(&im, &spec).sum())
                / (2.0 * eps);
            assert!((num - gi.data()[idx]).abs() < 1e-2);
        }
    }
}
