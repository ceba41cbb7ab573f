//! Parameter-free activation layers: ReLU and (inverted) dropout.

use fedmp_tensor::{seeded_rng, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Rectified linear unit, applied elementwise.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReLU {
    #[serde(skip)]
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// A fresh ReLU layer.
    pub fn new() -> Self {
        ReLU { mask: None }
    }

    /// Forward pass. Only a training forward records the gate mask for
    /// [`Self::backward`]; an inference forward clears it.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        self.mask = training.then(|| input.data().iter().map(|&v| v > 0.0).collect());
        input.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    /// Backward pass: zeroes gradients where the input was non-positive.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("relu backward before forward");
        assert_eq!(mask.len(), grad_out.numel(), "relu backward: shape changed");
        let mut g = grad_out.clone();
        gate_grad(g.data_mut(), mask);
        g
    }
}

/// Zeroes `grad` wherever `mask` is closed. A select, not a conditional
/// store (which blocks vectorisation) and not a multiply by 0/1: a NaN or
/// infinite gradient under a closed gate must still become `0.0`.
pub(crate) fn gate_grad(grad: &mut [f32], mask: &[bool]) {
    for (v, &keep) in grad.iter_mut().zip(mask) {
        *v = if keep { *v } else { 0.0 };
    }
}

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`, so inference is
/// a no-op.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
    /// Seed of the mask generator. Serialised (old JSON without it
    /// loads as 0), so a layer that crosses a process boundary draws
    /// the same masks as the one it was copied from.
    #[serde(default)]
    seed: u64,
    /// Built from `seed` by the first training forward; a `Clone`
    /// carries the advanced state, JSON restarts from the seed.
    #[serde(skip)]
    rng: Option<StdRng>,
    #[serde(skip)]
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// A dropout layer with drop probability `p`, seeded for
    /// reproducibility.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout { p, seed, rng: None, mask: None }
    }

    /// Forward pass.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        if !training || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let rng = self.rng.get_or_insert_with(|| seeded_rng(self.seed));
        let mask: Vec<f32> =
            (0..input.numel()).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }).collect();
        let mut out = input.clone();
        for (v, &m) in out.data_mut().iter_mut().zip(mask.iter()) {
            *v *= m;
        }
        self.mask = Some(mask);
        out
    }

    /// Backward pass: applies the same mask to the gradient.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        if let Some(mask) = &self.mask {
            assert_eq!(mask.len(), g.numel(), "dropout backward: shape changed");
            for (v, &m) in g.data_mut().iter_mut().zip(mask.iter()) {
                *v *= m;
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = relu.backward(&Tensor::ones(&[3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    /// The select returns the bits the old conditional store did, for
    /// every gradient class under both gate positions — in particular a
    /// NaN or infinity under a closed gate becomes `+0.0`, which a
    /// multiply by a 0/1 mask would not give.
    #[test]
    fn relu_backward_keeps_the_old_loops_bits_on_special_values() {
        let specials = [-0.0f32, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5, -2.5e-40];
        let n = specials.len();
        // Every special once under an open gate, once under a closed one.
        let grad: Vec<f32> = specials.iter().chain(specials.iter()).copied().collect();
        let gates: Vec<f32> = (0..2 * n).map(|i| if i < n { 1.0 } else { -1.0 }).collect();
        let mut relu = ReLU::new();
        relu.forward(&Tensor::from_vec(gates.clone(), &[2 * n]).unwrap(), true);
        let got = relu.backward(&Tensor::from_vec(grad.clone(), &[2 * n]).unwrap());

        let mut want = grad;
        for (v, &x) in want.iter_mut().zip(gates.iter()) {
            if x <= 0.0 {
                *v = 0.0;
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.data()), bits(&want));
    }

    #[test]
    fn dropout_inference_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[100]);
        let y = d.forward(&x, false);
        assert_eq!(y, x);
        // Backward without a mask passes gradients through unchanged.
        assert_eq!(d.backward(&x), x);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones(&[20_000]);
        let y = d.forward(&x, true);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Dropped positions propagate zero gradient.
        let g = d.backward(&Tensor::ones(&[20_000]));
        for (gv, yv) in g.data().iter().zip(y.data().iter()) {
            assert_eq!(*gv == 0.0, *yv == 0.0);
        }
    }

    #[test]
    fn dropout_mask_survives_serialisation() {
        // A socket worker receives the architecture as JSON (the text
        // form of this value tree); its masks must be the ones the
        // PS-side clone draws.
        let mut original = Dropout::new(0.4, 17);
        let mut revived = Dropout::from_value(&original.to_value()).unwrap();
        let x = Tensor::ones(&[256]);
        assert_eq!(revived.forward(&x, true), original.forward(&x, true));
        // A record written before the seed was serialised still loads.
        let legacy = serde::Value::Object(vec![("p".to_string(), 0.4f32.to_value())]);
        assert_eq!(Dropout::from_value(&legacy).unwrap().seed, 0);
    }

    #[test]
    fn dropout_zero_p_is_identity_in_training() {
        let mut d = Dropout::new(0.0, 3);
        let x = Tensor::ones(&[8]);
        assert_eq!(d.forward(&x, true), x);
    }
}
