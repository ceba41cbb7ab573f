//! Convolutional layer wrapping the tensor-level conv kernels.

use crate::init::Init;
use crate::param::Param;
use fedmp_tensor::{
    conv2d_backward_input, conv2d_backward_weight, conv2d_forward, Conv2dSpec, Tensor,
};
use serde::{Deserialize, Serialize};

/// A 2-D convolution layer.
///
/// * weight — `[out_channels, in_channels, kh, kw]`; each **filter**
///   (leading-axis slice) is the unit structured pruning removes.
/// * bias — `[out_channels]`
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    /// Filter bank, `[oc, ic, kh, kw]`.
    pub weight: Param,
    /// Per-filter bias, `[oc]`.
    pub bias: Param,
    /// Kernel/stride/padding geometry.
    pub spec: Conv2dSpec,
    #[serde(skip)]
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// A convolution whose filters `init` draws (Kaiming) and whose bias
    /// is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        init: &mut impl Init,
    ) -> Self {
        let spec = Conv2dSpec { kh: kernel, kw: kernel, stride, padding };
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Param::new(init.kaiming(&[out_channels, in_channels, kernel, kernel], fan_in)),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            spec,
            cached_input: None,
        }
    }

    /// Builds a convolution directly from tensors (pruning reconstruction).
    pub fn from_parts(weight: Tensor, bias: Tensor, spec: Conv2dSpec) -> Self {
        assert_eq!(weight.shape().rank(), 4, "conv weight must be rank-4");
        assert_eq!(weight.dims()[0], bias.numel(), "conv: bias length mismatch");
        assert_eq!(weight.dims()[2], spec.kh);
        assert_eq!(weight.dims()[3], spec.kw);
        Conv2d { weight: Param::new(weight), bias: Param::new(bias), spec, cached_input: None }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Forward pass: `[n, ic, h, w] -> [n, oc, oh, ow]`.
    ///
    /// Only a training forward keeps the input for [`Self::backward`]; an
    /// inference forward clears it.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        self.cached_input = training.then(|| input.clone());
        conv2d_forward(input, &self.weight.value, &self.bias.value, &self.spec)
    }

    /// Backward pass; accumulates parameter gradients, returns input grad.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        self.backward_input(grad_out)
    }

    /// The parameter half of [`Self::backward`]: accumulates the weight
    /// and bias gradients.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let input = self.cached_input.as_ref().expect("conv backward before forward");
        let (gw, gb) =
            conv2d_backward_weight(grad_out, input, self.weight.value.dims(), &self.spec);
        self.weight.grad.add_assign(&gw);
        self.bias.grad.add_assign(&gb);
    }

    /// The input half of [`Self::backward`]: forms ∂L/∂input and touches
    /// no parameter gradient.
    pub fn backward_input(&self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("conv backward before forward");
        conv2d_backward_input(grad_out, &self.weight.value, input.dims(), &self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_tensor::seeded_rng;

    #[test]
    fn forward_shapes() {
        let mut rng = seeded_rng(50);
        let mut conv = Conv2d::new(1, 8, 5, 1, 2, &mut rng);
        let x = Tensor::randn(&[2, 1, 28, 28], &mut rng);
        let y = conv.forward(&x, true);
        assert_eq!(y.dims(), &[2, 8, 28, 28]);
        assert_eq!(conv.in_channels(), 1);
        assert_eq!(conv.out_channels(), 8);
    }

    #[test]
    fn backward_accumulates_grads() {
        let mut rng = seeded_rng(51);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let y = conv.forward(&x, true);
        let g = Tensor::ones(y.dims());
        let gx = conv.backward(&g);
        assert_eq!(gx.dims(), x.dims());
        assert!(conv.weight.grad.l2_norm() > 0.0);
        assert!(conv.bias.grad.l2_norm() > 0.0);
        // Second backward with same grad doubles the accumulator.
        let w1 = conv.weight.grad.clone();
        conv.forward(&x, true);
        conv.backward(&g);
        let ratio = conv.weight.grad.l1_norm() / w1.l1_norm();
        assert!((ratio - 2.0).abs() < 1e-4);
    }

    #[test]
    fn from_parts_roundtrip() {
        let mut rng = seeded_rng(52);
        let conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let rebuilt =
            Conv2d::from_parts(conv.weight.value.clone(), conv.bias.value.clone(), conv.spec);
        assert_eq!(rebuilt.weight.value, conv.weight.value);
        assert_eq!(rebuilt.out_channels(), 4);
    }
}
