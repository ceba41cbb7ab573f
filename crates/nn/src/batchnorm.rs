//! Batch normalisation over channels of NCHW activations.
//!
//! Pruning interacts with BN directly: when a conv filter is removed, the
//! corresponding `gamma`, `beta`, `running_mean` and `running_var` entries
//! are removed too (paper §III-B), and R2SP restores them on recovery.

use crate::param::Param;
use fedmp_tensor::parallel::sum_f32;
use fedmp_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Per-channel batch normalisation for `[n, c, h, w]` activations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm2d {
    /// Scale parameter γ, `[c]`.
    pub gamma: Param,
    /// Shift parameter β, `[c]`.
    pub beta: Param,
    /// Running mean (inference statistics), `[c]`.
    pub running_mean: Tensor,
    /// Running variance (inference statistics), `[c]`.
    pub running_var: Tensor,
    /// Exponential-average momentum for the running statistics.
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    #[serde(skip)]
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    input_dims: Vec<usize>,
}

impl BatchNorm2d {
    /// A fresh BN layer for `channels` channels (γ=1, β=0).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Rebuilds a BN layer from saved tensors (pruning reconstruction).
    pub fn from_parts(
        gamma: Tensor,
        beta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
    ) -> Self {
        let c = gamma.numel();
        assert_eq!(beta.numel(), c, "bn: beta length mismatch");
        assert_eq!(running_mean.numel(), c, "bn: running_mean length mismatch");
        assert_eq!(running_var.numel(), c, "bn: running_var length mismatch");
        BatchNorm2d {
            gamma: Param::new(gamma),
            beta: Param::new(beta),
            running_mean,
            running_var,
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.value.numel()
    }

    /// Forward pass. In training mode uses batch statistics and updates the
    /// running averages; in inference mode uses the running statistics.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let d = input.dims();
        assert_eq!(d.len(), 4, "batchnorm2d expects NCHW input");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        assert_eq!(c, self.channels(), "batchnorm2d channel mismatch");
        let plane = h * w;
        let count = (n * plane) as f32;

        let mut out = Tensor::zeros(d);
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();

        if training {
            let mut x_hat = Tensor::zeros(d);
            let mut inv_stds = vec![0.0f32; c];
            for ch in 0..c {
                // Batch mean/variance of channel `ch` over N×H×W.
                let mut mean = 0.0f32;
                for i in 0..n {
                    let base = (i * c + ch) * plane;
                    mean += sum_f32(input.data()[base..base + plane].iter().copied());
                }
                mean /= count;
                let mut var = 0.0f32;
                for i in 0..n {
                    let base = (i * c + ch) * plane;
                    for &v in &input.data()[base..base + plane] {
                        let dlt = v - mean;
                        var += dlt * dlt;
                    }
                }
                var /= count;

                let inv_std = 1.0 / (var + self.eps).sqrt();
                inv_stds[ch] = inv_std;
                let (g, b) = (gamma[ch], beta[ch]);
                for i in 0..n {
                    let base = (i * c + ch) * plane;
                    for k in 0..plane {
                        let xh = (input.data()[base + k] - mean) * inv_std;
                        x_hat.data_mut()[base + k] = xh;
                        out.data_mut()[base + k] = g * xh + b;
                    }
                }
                let m = self.momentum;
                self.running_mean.data_mut()[ch] =
                    (1.0 - m) * self.running_mean.data()[ch] + m * mean;
                self.running_var.data_mut()[ch] = (1.0 - m) * self.running_var.data()[ch] + m * var;
            }
            self.cache = Some(BnCache { x_hat, inv_std: inv_stds, input_dims: d.to_vec() });
        } else {
            for ch in 0..c {
                let mean = self.running_mean.data()[ch];
                let inv_std = 1.0 / (self.running_var.data()[ch] + self.eps).sqrt();
                let (g, b) = (gamma[ch], beta[ch]);
                for i in 0..n {
                    let base = (i * c + ch) * plane;
                    for k in 0..plane {
                        out.data_mut()[base + k] =
                            g * (input.data()[base + k] - mean) * inv_std + b;
                    }
                }
            }
        }
        out
    }

    /// Backward pass (training mode only).
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("batchnorm backward before training forward");
        let d = &cache.input_dims;
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        assert_eq!(grad_out.dims(), d.as_slice(), "batchnorm backward: grad shape");
        let plane = h * w;
        let count = (n * plane) as f32;

        let mut grad_in = Tensor::zeros(d);
        let gamma = self.gamma.value.data().to_vec();
        #[expect(
            clippy::needless_range_loop,
            reason = "`ch` indexes four parallel per-channel arrays; enumerate would single one \
                      out arbitrarily"
        )]
        for ch in 0..c {
            // Accumulate dγ, dβ, and the two reduction terms of the BN
            // input gradient.
            let mut d_gamma = 0.0f32;
            let mut d_beta = 0.0f32;
            for i in 0..n {
                let base = (i * c + ch) * plane;
                for k in 0..plane {
                    let go = grad_out.data()[base + k];
                    d_gamma += go * cache.x_hat.data()[base + k];
                    d_beta += go;
                }
            }
            self.gamma.grad.data_mut()[ch] += d_gamma;
            self.beta.grad.data_mut()[ch] += d_beta;

            let g = gamma[ch];
            let inv_std = cache.inv_std[ch];
            // dx = γ·inv_std/count · (count·go − Σgo − x̂·Σ(go·x̂))
            for i in 0..n {
                let base = (i * c + ch) * plane;
                for k in 0..plane {
                    let go = grad_out.data()[base + k];
                    let xh = cache.x_hat.data()[base + k];
                    grad_in.data_mut()[base + k] =
                        g * inv_std / count * (count * go - d_beta - xh * d_gamma);
                }
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_tensor::seeded_rng;

    #[test]
    fn training_output_is_normalised() {
        let mut rng = seeded_rng(60);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[4, 3, 5, 5], &mut rng).scale(3.0).map(|v| v + 7.0);
        let y = bn.forward(&x, true);
        // Per-channel mean ≈ 0, var ≈ 1.
        for ch in 0..3 {
            let mut vals = Vec::new();
            for i in 0..4 {
                let base = (i * 3 + ch) * 25;
                vals.extend_from_slice(&y.data()[base..base + 25]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut rng = seeded_rng(61);
        let mut bn = BatchNorm2d::new(2);
        bn.momentum = 1.0; // copy batch stats directly
        let x = Tensor::randn(&[8, 2, 4, 4], &mut rng).map(|v| v * 2.0 + 5.0);
        bn.forward(&x, true);
        for ch in 0..2 {
            assert!((bn.running_mean.data()[ch] - 5.0).abs() < 0.3);
            assert!((bn.running_var.data()[ch] - 4.0).abs() < 1.2);
        }
        // Inference then roughly re-normalises the same distribution.
        let y = bn.forward(&x, false);
        assert!(y.mean().abs() < 0.1);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = seeded_rng(62);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value.data_mut().copy_from_slice(&[1.3, 0.7]);
        bn.beta.value.data_mut().copy_from_slice(&[0.2, -0.1]);
        let x = Tensor::randn(&[2, 2, 3, 3], &mut rng);

        // Loss = Σ y² / 2 so dL/dy = y.
        let y = bn.forward(&x, true);
        let gx = bn.backward(&y);

        let loss = |bn: &BatchNorm2d, x: &Tensor| {
            let mut b = bn.clone();
            let y = b.forward(x, true);
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        let eps = 1e-2f32;
        for idx in [0usize, 5, 17, 35] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&bn, &xp) - loss(&bn, &xm)) / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 5e-2, "idx {idx}: {num} vs {}", gx.data()[idx]);
        }
    }

    #[test]
    fn from_parts_validates() {
        let bn = BatchNorm2d::from_parts(
            Tensor::ones(&[4]),
            Tensor::zeros(&[4]),
            Tensor::zeros(&[4]),
            Tensor::ones(&[4]),
        );
        assert_eq!(bn.channels(), 4);
    }
}
