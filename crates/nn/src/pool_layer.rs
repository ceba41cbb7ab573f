//! Pooling layers wrapping the tensor-level kernels.

use fedmp_tensor::{
    avg_pool2d_backward, avg_pool2d_forward, max_pool2d_backward, max_pool2d_forward, Pool2dSpec,
    Tensor,
};
use serde::{Deserialize, Serialize};

/// Max pooling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxPool2d {
    /// Window geometry.
    pub spec: Pool2dSpec,
    #[serde(skip)]
    argmax: Option<Vec<usize>>,
    #[serde(skip)]
    input_dims: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// A square max-pool of size `k` with stride `k`.
    pub fn new(k: usize) -> Self {
        MaxPool2d { spec: Pool2dSpec::square(k), argmax: None, input_dims: None }
    }

    /// Forward pass. Only a training forward keeps the argmax routes
    /// for [`Self::backward`]; an inference forward clears them.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (out, argmax) = max_pool2d_forward(input, &self.spec);
        self.argmax = training.then_some(argmax);
        self.input_dims = Some(input.dims().to_vec());
        out
    }

    /// Backward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self.argmax.as_ref().expect("maxpool backward before forward");
        let dims = self.input_dims.as_ref().expect("maxpool backward before forward");
        max_pool2d_backward(grad_out, argmax, dims)
    }
}

/// Average pooling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AvgPool2d {
    /// Window geometry.
    pub spec: Pool2dSpec,
    #[serde(skip)]
    input_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// A square average-pool of size `k` with stride `k`.
    pub fn new(k: usize) -> Self {
        AvgPool2d { spec: Pool2dSpec::square(k), input_dims: None }
    }

    /// Forward pass.
    pub fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        self.input_dims = Some(input.dims().to_vec());
        avg_pool2d_forward(input, &self.spec)
    }

    /// Backward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self.input_dims.as_ref().expect("avgpool backward before forward");
        avg_pool2d_backward(grad_out, dims, &self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_tensor::seeded_rng;

    #[test]
    fn max_pool_roundtrip_shapes() {
        let mut rng = seeded_rng(70);
        let mut p = MaxPool2d::new(2);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let y = p.forward(&x, true);
        assert_eq!(y.dims(), &[2, 3, 4, 4]);
        let gx = p.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
        // Each window routed exactly one unit of gradient.
        assert_eq!(gx.sum(), y.numel() as f32);
    }

    #[test]
    fn avg_pool_roundtrip_shapes() {
        let mut rng = seeded_rng(71);
        let mut p = AvgPool2d::new(4);
        let x = Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let y = p.forward(&x, true);
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
        let gx = p.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
        assert!((gx.sum() - y.numel() as f32).abs() < 1e-4);
    }
}
