//! Model containers: the [`LayerNode`] enum tree, [`Sequential`] models
//! and [`ResidualBlock`]s.
//!
//! Models are closed enum trees so that `fedmp-pruning` can pattern-match
//! on layer kinds when computing importance scores and materialising
//! sub-models. Every container exposes:
//!
//! * `forward` / `backward` — training passes with per-layer caches,
//! * `state` / `load_state` — ordered named snapshots (the FL interchange
//!   format),
//! * `for_each_param_mut` — optimizer access in deterministic order.

use crate::activation::{gate_grad, Dropout, ReLU};
use crate::batchnorm::BatchNorm2d;
use crate::conv_layer::Conv2d;
use crate::flatten::Flatten;
use crate::linear::Linear;
use crate::param::{Param, StateEntry};
use crate::pool_layer::{AvgPool2d, MaxPool2d};
use fedmp_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// One node of a model tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LayerNode {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully connected layer.
    Linear(Linear),
    /// Batch normalisation.
    BatchNorm2d(BatchNorm2d),
    /// ReLU activation.
    ReLU(ReLU),
    /// Inverted dropout.
    Dropout(Dropout),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// NCHW → `[batch, features]`.
    Flatten(Flatten),
    /// Residual block with optional projection shortcut.
    Residual(ResidualBlock),
}

impl LayerNode {
    /// Forward pass through this node.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        match self {
            LayerNode::Conv2d(l) => l.forward(input, training),
            LayerNode::Linear(l) => l.forward(input, training),
            LayerNode::BatchNorm2d(l) => l.forward(input, training),
            LayerNode::ReLU(l) => l.forward(input, training),
            LayerNode::Dropout(l) => l.forward(input, training),
            LayerNode::MaxPool2d(l) => l.forward(input, training),
            LayerNode::AvgPool2d(l) => l.forward(input, training),
            LayerNode::Flatten(l) => l.forward(input, training),
            LayerNode::Residual(l) => l.forward(input, training),
        }
    }

    /// Backward pass through this node.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self {
            LayerNode::Conv2d(l) => l.backward(grad_out),
            LayerNode::Linear(l) => l.backward(grad_out),
            LayerNode::BatchNorm2d(l) => l.backward(grad_out),
            LayerNode::ReLU(l) => l.backward(grad_out),
            LayerNode::Dropout(l) => l.backward(grad_out),
            LayerNode::MaxPool2d(l) => l.backward(grad_out),
            LayerNode::AvgPool2d(l) => l.backward(grad_out),
            LayerNode::Flatten(l) => l.backward(grad_out),
            LayerNode::Residual(l) => l.backward(grad_out),
        }
    }

    /// [`Self::backward`] for a node whose input gradient nobody reads:
    /// accumulates the same parameter gradients, and the two layer kinds
    /// that open the zoo's models skip forming ∂L/∂input.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        match self {
            LayerNode::Conv2d(l) => l.backward_params(grad_out),
            LayerNode::Linear(l) => l.backward_params(grad_out),
            other => {
                other.backward(grad_out);
            }
        }
    }

    /// Visits every trainable parameter in deterministic order.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            LayerNode::Conv2d(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            LayerNode::Linear(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            LayerNode::BatchNorm2d(l) => {
                f(&mut l.gamma);
                f(&mut l.beta);
            }
            LayerNode::Residual(l) => l.for_each_param_mut(f),
            LayerNode::ReLU(_)
            | LayerNode::Dropout(_)
            | LayerNode::MaxPool2d(_)
            | LayerNode::AvgPool2d(_)
            | LayerNode::Flatten(_) => {}
        }
    }

    /// Appends this node's state entries under the name prefix.
    pub fn collect_state(&self, prefix: &str, out: &mut Vec<StateEntry>) {
        match self {
            LayerNode::Conv2d(l) => {
                out.push(StateEntry::trainable(format!("{prefix}.weight"), l.weight.value.clone()));
                out.push(StateEntry::trainable(format!("{prefix}.bias"), l.bias.value.clone()));
            }
            LayerNode::Linear(l) => {
                out.push(StateEntry::trainable(format!("{prefix}.weight"), l.weight.value.clone()));
                out.push(StateEntry::trainable(format!("{prefix}.bias"), l.bias.value.clone()));
            }
            LayerNode::BatchNorm2d(l) => {
                out.push(StateEntry::trainable(format!("{prefix}.gamma"), l.gamma.value.clone()));
                out.push(StateEntry::trainable(format!("{prefix}.beta"), l.beta.value.clone()));
                out.push(StateEntry::tracked(
                    format!("{prefix}.running_mean"),
                    l.running_mean.clone(),
                ));
                out.push(StateEntry::tracked(
                    format!("{prefix}.running_var"),
                    l.running_var.clone(),
                ));
            }
            LayerNode::Residual(l) => l.collect_state(prefix, out),
            LayerNode::ReLU(_)
            | LayerNode::Dropout(_)
            | LayerNode::MaxPool2d(_)
            | LayerNode::AvgPool2d(_)
            | LayerNode::Flatten(_) => {}
        }
    }

    /// Loads state entries in the same order `collect_state` emitted them.
    /// Returns how many entries were consumed.
    pub fn load_state(&mut self, prefix: &str, entries: &[StateEntry]) -> usize {
        fn take<'a>(entries: &'a [StateEntry], i: &mut usize, name: &str) -> &'a Tensor {
            let e = entries.get(*i).unwrap_or_else(|| panic!("load_state: missing entry {name}"));
            assert_eq!(e.name, name, "load_state: expected {name}, found {}", e.name);
            *i += 1;
            &e.tensor
        }
        let mut i = 0usize;
        match self {
            LayerNode::Conv2d(l) => {
                let w = take(entries, &mut i, &format!("{prefix}.weight"));
                assert_eq!(w.dims(), l.weight.value.dims(), "load_state: conv weight shape");
                l.weight.value = w.clone();
                l.bias.value = take(entries, &mut i, &format!("{prefix}.bias")).clone();
            }
            LayerNode::Linear(l) => {
                let w = take(entries, &mut i, &format!("{prefix}.weight"));
                assert_eq!(w.dims(), l.weight.value.dims(), "load_state: linear weight shape");
                l.weight.value = w.clone();
                l.bias.value = take(entries, &mut i, &format!("{prefix}.bias")).clone();
            }
            LayerNode::BatchNorm2d(l) => {
                l.gamma.value = take(entries, &mut i, &format!("{prefix}.gamma")).clone();
                l.beta.value = take(entries, &mut i, &format!("{prefix}.beta")).clone();
                l.running_mean = take(entries, &mut i, &format!("{prefix}.running_mean")).clone();
                l.running_var = take(entries, &mut i, &format!("{prefix}.running_var")).clone();
            }
            LayerNode::Residual(l) => {
                i += l.load_state(prefix, entries);
            }
            LayerNode::ReLU(_)
            | LayerNode::Dropout(_)
            | LayerNode::MaxPool2d(_)
            | LayerNode::AvgPool2d(_)
            | LayerNode::Flatten(_) => {}
        }
        i
    }
}

/// A residual block: `out = relu(body(x) + shortcut(x))`, where the
/// shortcut is identity or a 1×1 conv (+BN) projection when dimensions
/// change.
///
/// Structured pruning only touches the *internal* convolutions of the
/// body (the block's output width is pinned by the skip connection), the
/// standard constraint for channel pruning of residual networks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResidualBlock {
    /// Main path.
    pub body: Vec<LayerNode>,
    /// Projection path; `None` means identity shortcut.
    pub shortcut: Vec<LayerNode>,
    #[serde(skip)]
    relu_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Builds a block from a body and an optional projection path.
    pub fn new(body: Vec<LayerNode>, shortcut: Vec<LayerNode>) -> Self {
        ResidualBlock { body, shortcut, relu_mask: None }
    }

    /// Forward pass.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let mut main = input.clone();
        for l in &mut self.body {
            main = l.forward(&main, training);
        }
        let mut side = input.clone();
        for l in &mut self.shortcut {
            side = l.forward(&side, training);
        }
        assert_eq!(main.dims(), side.dims(), "residual block: body/shortcut output shapes differ");
        let pre = main.add(&side);
        self.relu_mask = Some(pre.data().iter().map(|&v| v > 0.0).collect());
        pre.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    /// Backward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.relu_mask.as_ref().expect("residual backward before forward");
        let mut g = grad_out.clone();
        gate_grad(g.data_mut(), mask);
        let mut g_body = g.clone();
        for l in self.body.iter_mut().rev() {
            g_body = l.backward(&g_body);
        }
        let mut g_side = g;
        for l in self.shortcut.iter_mut().rev() {
            g_side = l.backward(&g_side);
        }
        g_body.add(&g_side)
    }

    /// Visits trainable parameters (body then shortcut).
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.body {
            l.for_each_param_mut(f);
        }
        for l in &mut self.shortcut {
            l.for_each_param_mut(f);
        }
    }

    /// Appends state entries under `prefix`.
    pub fn collect_state(&self, prefix: &str, out: &mut Vec<StateEntry>) {
        for (i, l) in self.body.iter().enumerate() {
            l.collect_state(&format!("{prefix}.body.{i}"), out);
        }
        for (i, l) in self.shortcut.iter().enumerate() {
            l.collect_state(&format!("{prefix}.shortcut.{i}"), out);
        }
    }

    /// Loads state entries in emission order; returns entries consumed.
    pub fn load_state(&mut self, prefix: &str, entries: &[StateEntry]) -> usize {
        let mut consumed = 0usize;
        for (i, l) in self.body.iter_mut().enumerate() {
            consumed += l.load_state(&format!("{prefix}.body.{i}"), &entries[consumed..]);
        }
        for (i, l) in self.shortcut.iter_mut().enumerate() {
            consumed += l.load_state(&format!("{prefix}.shortcut.{i}"), &entries[consumed..]);
        }
        consumed
    }
}

/// A sequential model: layers applied in order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sequential {
    /// The layer pipeline.
    pub layers: Vec<LayerNode>,
}

impl Sequential {
    /// Builds a model from a layer list.
    pub fn new(layers: Vec<LayerNode>) -> Self {
        Sequential { layers }
    }

    /// Forward pass through every layer.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let mut x = input.clone();
        for l in &mut self.layers {
            x = l.forward(&x, training);
        }
        x
    }

    /// Backward pass through every layer in reverse; accumulates parameter
    /// gradients and returns the input gradient.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    /// [`Self::backward`] for a caller that reads only `Param::grad`:
    /// every parameter gradient is accumulated by the same calls in the
    /// same order, but the *first* layer's input gradient — ∂L/∂(model
    /// input), which no layer consumes — is never formed.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else { return };
        let mut g = grad_out.clone();
        for l in rest.iter_mut().rev() {
            g = l.backward(&g);
        }
        first.backward_params(&g);
    }

    /// Visits every trainable parameter in deterministic order.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.for_each_param_mut(f);
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.for_each_param_mut(&mut |p| p.zero_grad());
    }

    /// Ordered, named snapshot of all weights and tracked statistics.
    pub fn state(&self) -> Vec<StateEntry> {
        let mut out = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            l.collect_state(&i.to_string(), &mut out);
        }
        out
    }

    /// Loads a snapshot previously produced by [`Sequential::state`] on a
    /// model of identical architecture.
    ///
    /// # Panics
    /// Panics on any name/shape mismatch or leftover entries.
    pub fn load_state(&mut self, entries: &[StateEntry]) {
        let mut consumed = 0usize;
        for (i, l) in self.layers.iter_mut().enumerate() {
            consumed += l.load_state(&i.to_string(), &entries[consumed..]);
        }
        assert_eq!(
            consumed,
            entries.len(),
            "load_state: {} leftover entries",
            entries.len() - consumed
        );
    }

    /// Total trainable parameter count.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0usize;
        self.for_each_param_mut(&mut |p| n += p.numel());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_tensor::{cross_entropy_loss, seeded_rng};

    fn tiny_cnn(rng: &mut rand::rngs::StdRng) -> Sequential {
        Sequential::new(vec![
            LayerNode::Conv2d(Conv2d::new(1, 4, 3, 1, 1, rng)),
            LayerNode::BatchNorm2d(BatchNorm2d::new(4)),
            LayerNode::ReLU(ReLU::new()),
            LayerNode::MaxPool2d(MaxPool2d::new(2)),
            LayerNode::Flatten(Flatten::new()),
            LayerNode::Linear(Linear::new(4 * 4 * 4, 3, rng)),
        ])
    }

    #[test]
    fn sequential_forward_backward_shapes() {
        let mut rng = seeded_rng(80);
        let mut m = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);
        let logits = m.forward(&x, true);
        assert_eq!(logits.dims(), &[2, 3]);
        let out = cross_entropy_loss(&logits, &[0, 2]);
        let gx = m.backward(&out.grad_logits);
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn state_roundtrip() {
        let mut rng = seeded_rng(81);
        let m = tiny_cnn(&mut rng);
        let state = m.state();
        // conv w+b, bn γ/β/mean/var, linear w+b
        assert_eq!(state.len(), 8);
        assert_eq!(state[0].name, "0.weight");
        assert_eq!(state[4].name, "1.running_mean");
        assert_eq!(state[5].name, "1.running_var");
        let mut m2 = tiny_cnn(&mut rng); // different random weights
        m2.load_state(&state);
        assert_eq!(m2.state()[0].tensor, state[0].tensor);
        assert_eq!(m2.state()[7].tensor, state[7].tensor);
    }

    #[test]
    fn param_count() {
        let mut rng = seeded_rng(82);
        let mut m = tiny_cnn(&mut rng);
        // conv: 4*1*3*3 + 4 = 40; bn: 4 + 4 = 8; linear: 3*64 + 3 = 195
        assert_eq!(m.num_params(), 40 + 8 + 195);
    }

    #[test]
    fn residual_block_identity_shortcut() {
        let mut rng = seeded_rng(83);
        let block = ResidualBlock::new(
            vec![
                LayerNode::Conv2d(Conv2d::new(4, 4, 3, 1, 1, &mut rng)),
                LayerNode::ReLU(ReLU::new()),
                LayerNode::Conv2d(Conv2d::new(4, 4, 3, 1, 1, &mut rng)),
            ],
            vec![],
        );
        let mut m = Sequential::new(vec![LayerNode::Residual(block)]);
        let x = Tensor::randn(&[1, 4, 6, 6], &mut rng);
        let y = m.forward(&x, true);
        assert_eq!(y.dims(), x.dims());
        let gx = m.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn residual_block_gradient_check() {
        let mut rng = seeded_rng(84);
        let block = ResidualBlock::new(
            vec![LayerNode::Conv2d(Conv2d::new(2, 2, 3, 1, 1, &mut rng))],
            vec![],
        );
        let mut m = Sequential::new(vec![LayerNode::Residual(block)]);
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);

        let y = m.forward(&x, true);
        let gx = m.backward(&Tensor::ones(y.dims()));

        let eps = 1e-2f32;
        for idx in [0usize, 9, 21, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let mut mp = m.clone();
            let mut mm = m.clone();
            let num = (mp.forward(&xp, true).sum() - mm.forward(&xm, true).sum()) / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 0.05, "idx {idx}");
        }
    }

    #[test]
    fn residual_projection_shortcut() {
        let mut rng = seeded_rng(85);
        // Body downsamples 4→8 channels, stride 2; shortcut projects.
        let block = ResidualBlock::new(
            vec![
                LayerNode::Conv2d(Conv2d::new(4, 8, 3, 2, 1, &mut rng)),
                LayerNode::BatchNorm2d(BatchNorm2d::new(8)),
            ],
            vec![
                LayerNode::Conv2d(Conv2d::new(4, 8, 1, 2, 0, &mut rng)),
                LayerNode::BatchNorm2d(BatchNorm2d::new(8)),
            ],
        );
        let mut m = Sequential::new(vec![LayerNode::Residual(block)]);
        let x = Tensor::randn(&[2, 4, 8, 8], &mut rng);
        let y = m.forward(&x, true);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
        let gx = m.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = seeded_rng(86);
        let mut m = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[1, 1, 8, 8], &mut rng);
        let y = m.forward(&x, true);
        m.backward(&Tensor::ones(y.dims()));
        m.zero_grad();
        m.for_each_param_mut(&mut |p| assert_eq!(p.grad.l1_norm(), 0.0));
    }
}
