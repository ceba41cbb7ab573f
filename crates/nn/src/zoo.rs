//! The FedMP model zoo.
//!
//! Four CNN-family classifiers matching the paper's evaluation tasks plus
//! the §VI LSTM language model. Each constructor takes a `width`
//! multiplier so tests and benchmarks can trade fidelity for speed — the
//! architectural features pruning interacts with (conv stacks, BN,
//! pooling, FC heads, residual blocks) are preserved at every width.
//!
//! Each constructor draws its weights from a `&mut impl` [`Init`]: a
//! seeded `StdRng` for a model that trains, or [`ShapesOnly`] for one
//! that is only measured. Both give the same layers and dims, and a
//! `ShapesOnly` build makes no draw, so [`model_cost`] of a paper-width
//! model costs an allocation rather than millions of normal samples.
//!
//! [`ShapesOnly`]: crate::ShapesOnly
//! [`model_cost`]: crate::model_cost
//!
//! | paper model | paper dataset | constructor | input |
//! |---|---|---|---|
//! | CNN (2×conv5×5 + FC-256) | MNIST | [`cnn_mnist`] | 1×28×28, 10 classes |
//! | AlexNet | CIFAR-10 | [`alexnet_cifar`] | 3×32×32, 10 classes |
//! | VGG-19 (conv stacks + BN) | EMNIST | [`vgg_emnist`] | 1×28×28, 62 classes |
//! | ResNet-50 (bottleneck-style residual stages) | Tiny-ImageNet | [`resnet_tiny`] | 3×64×64, 200 classes |
//! | 2-layer LSTM | Penn TreeBank | [`lstm_ptb`] | token ids |

use crate::activation::{Dropout, ReLU};
use crate::batchnorm::BatchNorm2d;
use crate::container::{LayerNode, ResidualBlock, Sequential};
use crate::conv_layer::Conv2d;
use crate::flatten::Flatten;
use crate::init::Init;
use crate::linear::Linear;
use crate::lstm::LstmLm;
use crate::pool_layer::{AvgPool2d, MaxPool2d};

/// Scales a base width, keeping at least 2 units so every layer stays
/// prunable.
fn scaled(base: usize, width: f32) -> usize {
    ((base as f32 * width).round() as usize).max(2)
}

/// The paper's CNN for MNIST (§V-A): two 5×5 convolutions, a 256-unit
/// fully connected layer and a 10-way softmax head.
pub fn cnn_mnist(width: f32, init: &mut impl Init) -> Sequential {
    let c1 = scaled(32, width);
    let c2 = scaled(64, width);
    let fc = scaled(256, width);
    Sequential::new(vec![
        LayerNode::Conv2d(Conv2d::new(1, c1, 5, 1, 2, init)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::MaxPool2d(MaxPool2d::new(2)),
        LayerNode::Conv2d(Conv2d::new(c1, c2, 5, 1, 2, init)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::MaxPool2d(MaxPool2d::new(2)),
        LayerNode::Flatten(Flatten::new()),
        LayerNode::Linear(Linear::new(c2 * 7 * 7, fc, init)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::Linear(Linear::new(fc, 10, init)),
    ])
}

/// AlexNet-style classifier adapted to 32×32 CIFAR-like inputs: five
/// convolution layers with interleaved pooling and a dropout-regularised
/// two-layer FC head.
pub fn alexnet_cifar(width: f32, init: &mut impl Init) -> Sequential {
    let c = [
        scaled(64, width),
        scaled(192, width),
        scaled(384, width),
        scaled(256, width),
        scaled(256, width),
    ];
    let f1 = scaled(512, width);
    let f2 = scaled(256, width);
    Sequential::new(vec![
        LayerNode::Conv2d(Conv2d::new(3, c[0], 3, 1, 1, init)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::MaxPool2d(MaxPool2d::new(2)), // 32 → 16
        LayerNode::Conv2d(Conv2d::new(c[0], c[1], 3, 1, 1, init)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::MaxPool2d(MaxPool2d::new(2)), // 16 → 8
        LayerNode::Conv2d(Conv2d::new(c[1], c[2], 3, 1, 1, init)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::Conv2d(Conv2d::new(c[2], c[3], 3, 1, 1, init)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::Conv2d(Conv2d::new(c[3], c[4], 3, 1, 1, init)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::MaxPool2d(MaxPool2d::new(2)), // 8 → 4
        LayerNode::Flatten(Flatten::new()),
        LayerNode::Dropout(Dropout::new(0.3, 17)),
        LayerNode::Linear(Linear::new(c[4] * 4 * 4, f1, init)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::Dropout(Dropout::new(0.3, 18)),
        LayerNode::Linear(Linear::new(f1, f2, init)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::Linear(Linear::new(f2, 10, init)),
    ])
}

/// VGG-style classifier for 28×28 EMNIST-like inputs (62 classes):
/// batch-normalised double/quadruple conv stacks in the VGG-19 pattern.
pub fn vgg_emnist(width: f32, init: &mut impl Init) -> Sequential {
    fn push_conv(layers: &mut Vec<LayerNode>, ic: usize, oc: usize, init: &mut impl Init) {
        layers.push(LayerNode::Conv2d(Conv2d::new(ic, oc, 3, 1, 1, init)));
        layers.push(LayerNode::BatchNorm2d(BatchNorm2d::new(oc)));
        layers.push(LayerNode::ReLU(ReLU::new()));
    }
    let s1 = scaled(64, width);
    let s2 = scaled(128, width);
    let s3 = scaled(256, width);
    let fc = scaled(256, width);
    let mut layers = Vec::new();
    push_conv(&mut layers, 1, s1, init);
    push_conv(&mut layers, s1, s1, init);
    layers.push(LayerNode::MaxPool2d(MaxPool2d::new(2))); // 28 → 14
    push_conv(&mut layers, s1, s2, init);
    push_conv(&mut layers, s2, s2, init);
    layers.push(LayerNode::MaxPool2d(MaxPool2d::new(2))); // 14 → 7
    push_conv(&mut layers, s2, s3, init);
    push_conv(&mut layers, s3, s3, init);
    push_conv(&mut layers, s3, s3, init);
    push_conv(&mut layers, s3, s3, init);
    layers.push(LayerNode::MaxPool2d(MaxPool2d::new(2))); // 7 → 3
    layers.push(LayerNode::Flatten(Flatten::new()));
    layers.push(LayerNode::Linear(Linear::new(s3 * 3 * 3, fc, init)));
    layers.push(LayerNode::ReLU(ReLU::new()));
    layers.push(LayerNode::Linear(Linear::new(fc, 62, init)));
    Sequential::new(layers)
}

/// A basic residual block: conv–BN–ReLU–conv–BN with identity (or
/// projection) shortcut, joined by add + ReLU.
fn basic_block(in_c: usize, out_c: usize, stride: usize, init: &mut impl Init) -> LayerNode {
    let body = vec![
        LayerNode::Conv2d(Conv2d::new(in_c, out_c, 3, stride, 1, init)),
        LayerNode::BatchNorm2d(BatchNorm2d::new(out_c)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::Conv2d(Conv2d::new(out_c, out_c, 3, 1, 1, init)),
        LayerNode::BatchNorm2d(BatchNorm2d::new(out_c)),
    ];
    let shortcut = if stride != 1 || in_c != out_c {
        vec![
            LayerNode::Conv2d(Conv2d::new(in_c, out_c, 1, stride, 0, init)),
            LayerNode::BatchNorm2d(BatchNorm2d::new(out_c)),
        ]
    } else {
        vec![]
    };
    LayerNode::Residual(ResidualBlock::new(body, shortcut))
}

/// ResNet-style classifier for 64×64 Tiny-ImageNet-like inputs (200
/// classes): a stem convolution followed by three residual stages of two
/// blocks each, global average pooling, and a linear head.
pub fn resnet_tiny(width: f32, init: &mut impl Init) -> Sequential {
    let w1 = scaled(32, width);
    let w2 = scaled(64, width);
    let w3 = scaled(128, width);
    Sequential::new(vec![
        LayerNode::Conv2d(Conv2d::new(3, w1, 3, 1, 1, init)),
        LayerNode::BatchNorm2d(BatchNorm2d::new(w1)),
        LayerNode::ReLU(ReLU::new()),
        LayerNode::MaxPool2d(MaxPool2d::new(2)), // 64 → 32
        basic_block(w1, w1, 1, init),
        basic_block(w1, w1, 1, init),
        basic_block(w1, w2, 2, init), // 32 → 16
        basic_block(w2, w2, 1, init),
        basic_block(w2, w3, 2, init), // 16 → 8
        basic_block(w3, w3, 1, init),
        LayerNode::AvgPool2d(AvgPool2d::new(8)), // 8 → 1
        LayerNode::Flatten(Flatten::new()),
        LayerNode::Linear(Linear::new(w3, 200, init)),
    ])
}

/// The §VI language model: two stacked LSTM layers over a token
/// embedding, as trained on Penn TreeBank in the paper.
pub fn lstm_ptb(vocab: usize, width: f32, init: &mut impl Init) -> LstmLm {
    let embed = scaled(64, width);
    let hidden = scaled(128, width);
    LstmLm::new(vocab, embed, hidden, 2, init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_tensor::{seeded_rng, Tensor};

    #[test]
    fn cnn_forward_shape() {
        let mut rng = seeded_rng(120);
        let mut m = cnn_mnist(0.25, &mut rng);
        let y = m.forward(&Tensor::randn(&[2, 1, 28, 28], &mut rng), false);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn alexnet_forward_shape() {
        let mut rng = seeded_rng(121);
        let mut m = alexnet_cifar(0.125, &mut rng);
        let y = m.forward(&Tensor::randn(&[2, 3, 32, 32], &mut rng), false);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn vgg_forward_shape() {
        let mut rng = seeded_rng(122);
        let mut m = vgg_emnist(0.125, &mut rng);
        let y = m.forward(&Tensor::randn(&[1, 1, 28, 28], &mut rng), false);
        assert_eq!(y.dims(), &[1, 62]);
    }

    #[test]
    fn resnet_forward_shape() {
        let mut rng = seeded_rng(123);
        let mut m = resnet_tiny(0.125, &mut rng);
        let y = m.forward(&Tensor::randn(&[1, 3, 64, 64], &mut rng), false);
        assert_eq!(y.dims(), &[1, 200]);
    }

    #[test]
    fn lstm_forward_shape() {
        let mut rng = seeded_rng(124);
        let mut m = lstm_ptb(30, 0.25, &mut rng);
        let logits = m.forward(&[vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(logits.dims(), &[6, 30]);
    }

    #[test]
    fn width_scales_parameter_count_monotonically() {
        let mut rng = seeded_rng(125);
        let mut small = cnn_mnist(0.25, &mut rng);
        let mut big = cnn_mnist(0.5, &mut rng);
        assert!(small.num_params() < big.num_params());
    }

    #[test]
    fn training_mode_forward_works_for_all_models() {
        let mut rng = seeded_rng(126);
        let mut models_inputs: Vec<(Sequential, Tensor)> = vec![
            (cnn_mnist(0.1, &mut rng), Tensor::randn(&[1, 1, 28, 28], &mut rng)),
            (alexnet_cifar(0.05, &mut rng), Tensor::randn(&[1, 3, 32, 32], &mut rng)),
            (vgg_emnist(0.05, &mut rng), Tensor::randn(&[1, 1, 28, 28], &mut rng)),
            (resnet_tiny(0.05, &mut rng), Tensor::randn(&[1, 3, 64, 64], &mut rng)),
        ];
        for (m, x) in &mut models_inputs {
            let y = m.forward(x, true);
            assert!(y.all_finite());
            let gx = m.backward(&Tensor::ones(y.dims()));
            assert_eq!(gx.dims(), x.dims());
        }
    }
}
