//! Fully connected (dense) layer.

use crate::init::Init;
use crate::param::Param;
use fedmp_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A fully connected layer: `y = x Wᵀ + b`.
///
/// * weight — `[out_features, in_features]` (each **row** is one output
///   neuron, which is the unit structured pruning removes)
/// * bias — `[out_features]`
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight parameter, `[out_features, in_features]`.
    pub weight: Param,
    /// Bias parameter, `[out_features]`.
    pub bias: Param,
    #[serde(skip)]
    cached_input: Option<Tensor>,
}

impl Linear {
    /// A layer of the given dimensions whose weights `init` draws
    /// (Kaiming) and whose bias is zero.
    pub fn new(in_features: usize, out_features: usize, init: &mut impl Init) -> Self {
        Linear {
            weight: Param::new(init.kaiming(&[out_features, in_features], in_features)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_input: None,
        }
    }

    /// Builds a layer directly from weight/bias tensors (used by the
    /// pruning code when materialising sub-models).
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().rank(), 2, "linear weight must be rank-2");
        assert_eq!(weight.dims()[0], bias.numel(), "linear: bias length mismatch");
        Linear { weight: Param::new(weight), bias: Param::new(bias), cached_input: None }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Output feature (neuron) count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Forward pass: `[batch, in] -> [batch, out]`.
    ///
    /// Only a training forward keeps the input for [`Self::backward`]; an
    /// inference forward clears it.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        assert_eq!(input.shape().rank(), 2, "linear input must be [batch, features]");
        assert_eq!(input.dims()[1], self.in_features(), "linear: feature count mismatch");
        self.cached_input = training.then(|| input.clone());
        let mut out = input.matmul_nt(&self.weight.value);
        let (batch, of) = (out.dims()[0], out.dims()[1]);
        let bias = self.bias.value.data();
        let data = out.data_mut();
        for r in 0..batch {
            for (o, &b) in data[r * of..(r + 1) * of].iter_mut().zip(bias.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Backward pass; accumulates weight/bias gradients and returns the
    /// input gradient.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        self.backward_input(grad_out)
    }

    /// The parameter half of [`Self::backward`]: accumulates the weight
    /// and bias gradients.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let input = self.cached_input.as_ref().expect("linear backward before forward");
        // dW = grad_outᵀ @ input  → [out, in]
        self.weight.grad.add_assign(&grad_out.matmul_tn(input));
        // db = column-sum of grad_out
        let (batch, of) = (grad_out.dims()[0], grad_out.dims()[1]);
        let gb = self.bias.grad.data_mut();
        let go = grad_out.data();
        for r in 0..batch {
            for (g, &v) in gb.iter_mut().zip(go[r * of..(r + 1) * of].iter()) {
                *g += v;
            }
        }
    }

    /// The input half of [`Self::backward`]: forms ∂L/∂input and touches
    /// no parameter gradient.
    pub fn backward_input(&self, grad_out: &Tensor) -> Tensor {
        // dX = grad_out @ W  → [batch, in]
        grad_out.matmul(&self.weight.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_tensor::{cross_entropy_loss, seeded_rng};

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = seeded_rng(40);
        let mut l = Linear::new(4, 3, &mut rng);
        l.bias.value.fill(1.0);
        l.weight.value.fill_zero();
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = l.forward(&x, true);
        assert_eq!(y.dims(), &[2, 3]);
        assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = seeded_rng(41);
        let mut l = Linear::new(5, 3, &mut rng);
        let x = Tensor::randn(&[4, 5], &mut rng);
        let labels = vec![0usize, 2, 1, 0];

        let logits = l.forward(&x, true);
        let out = cross_entropy_loss(&logits, &labels);
        let gx = l.backward(&out.grad_logits);

        let eps = 1e-2f32;
        let loss_for = |l: &Linear, x: &Tensor| {
            let mut l2 = l.clone();
            let logits = l2.forward(x, true);
            cross_entropy_loss(&logits, &labels).loss
        };

        for idx in [0usize, 4, 9, 14] {
            let mut wp = l.clone();
            wp.weight.value.data_mut()[idx] += eps;
            let mut wm = l.clone();
            wm.weight.value.data_mut()[idx] -= eps;
            let num = (loss_for(&wp, &x) - loss_for(&wm, &x)) / (2.0 * eps);
            assert!((num - l.weight.grad.data()[idx]).abs() < 1e-2, "w grad {idx}");
        }
        for idx in [0usize, 7, 13, 19] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss_for(&l, &xp) - loss_for(&l, &xm)) / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 1e-2, "x grad {idx}");
        }
    }

    #[test]
    fn from_parts_checks_shapes() {
        let w = Tensor::zeros(&[3, 4]);
        let b = Tensor::zeros(&[3]);
        let l = Linear::from_parts(w, b);
        assert_eq!(l.in_features(), 4);
        assert_eq!(l.out_features(), 3);
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn from_parts_bad_bias_panics() {
        let _ = Linear::from_parts(Tensor::zeros(&[3, 4]), Tensor::zeros(&[4]));
    }
}
