//! Weight initialisers: what a layer constructor draws its weights from.
//!
//! Every constructor that draws (`Conv2d`, `Linear`, `Embedding`, `Lstm`,
//! `LstmLm` and the [`zoo`](crate::zoo)) takes `&mut impl Init`. A seeded
//! [`StdRng`] draws real weights; [`ShapesOnly`] builds the same
//! architecture with all-zero weights and no draw at all, for callers that
//! read only shapes (cost reports, Eq. 5's width compensation).

use fedmp_tensor::Tensor;
use rand::rngs::StdRng;

/// The draws layer constructors make, one method per kind.
pub trait Init {
    /// Kaiming/He-normal weights, `N(0, 2 / fan_in)` (conv, linear and
    /// LSTM weights).
    fn kaiming(&mut self, dims: &[usize], fan_in: usize) -> Tensor;
    /// An embedding table, `N(0, 1) · 0.1`.
    fn embedding(&mut self, dims: &[usize]) -> Tensor;
}

impl Init for StdRng {
    fn kaiming(&mut self, dims: &[usize], fan_in: usize) -> Tensor {
        Tensor::kaiming(dims, fan_in, self)
    }

    fn embedding(&mut self, dims: &[usize]) -> Tensor {
        Tensor::randn(dims, self).scale(0.1)
    }
}

/// An initialiser that draws nothing: every weight is zero. A zeroed
/// buffer is one `calloc`, so a paper-width model built this way costs
/// its allocation and not its Box–Muller draws. Use it only where the
/// model is read for its shapes.
#[derive(Debug, Clone, Copy)]
pub struct ShapesOnly;

impl Init for ShapesOnly {
    fn kaiming(&mut self, dims: &[usize], _fan_in: usize) -> Tensor {
        Tensor::zeros(dims)
    }

    fn embedding(&mut self, dims: &[usize]) -> Tensor {
        Tensor::zeros(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lstm_cost_per_token, model_cost, zoo, Sequential, StateEntry};
    use fedmp_tensor::seeded_rng;

    /// Each image model's zoo name, the width `ExperimentSpec::small`
    /// trains it at, and its input `(c, h, w)`.
    const IMAGE_MODELS: [(&str, f32, (usize, usize, usize)); 4] = [
        ("cnn_mnist", 0.25, (1, 28, 28)),
        ("alexnet_cifar", 0.08, (3, 32, 32)),
        ("vgg_emnist", 0.12, (1, 28, 28)),
        ("resnet_tiny", 0.15, (3, 64, 64)),
    ];

    fn image_model(name: &str, width: f32, init: &mut impl Init) -> Sequential {
        match name {
            "cnn_mnist" => zoo::cnn_mnist(width, init),
            "alexnet_cifar" => zoo::alexnet_cifar(width, init),
            "vgg_emnist" => zoo::vgg_emnist(width, init),
            "resnet_tiny" => zoo::resnet_tiny(width, init),
            other => unreachable!("no zoo model {other}"),
        }
    }

    fn shapes(state: &[StateEntry]) -> Vec<(String, Vec<usize>, bool)> {
        state.iter().map(|e| (e.name.clone(), e.tensor.dims().to_vec(), e.trainable)).collect()
    }

    #[test]
    fn shapes_only_builds_the_seeded_image_architectures() {
        for (name, small, chw) in IMAGE_MODELS {
            for width in [1.0, small] {
                let seeded = image_model(name, width, &mut seeded_rng(7));
                let shaped = image_model(name, width, &mut ShapesOnly);
                assert_eq!(shapes(&seeded.state()), shapes(&shaped.state()), "{name} @ {width}");
                assert_eq!(
                    format!("{:?}", model_cost(&seeded, chw)),
                    format!("{:?}", model_cost(&shaped, chw)),
                    "{name} @ {width}"
                );
            }
        }
    }

    #[test]
    fn shapes_only_builds_the_seeded_lstm() {
        // 0.3 is the width Table IV trains the LSTM at.
        for width in [1.0, 0.3] {
            let seeded = zoo::lstm_ptb(50, width, &mut seeded_rng(7));
            let shaped = zoo::lstm_ptb(50, width, &mut ShapesOnly);
            assert_eq!(shapes(&seeded.state()), shapes(&shaped.state()), "lstm @ {width}");
            assert_eq!(
                format!("{:?}", lstm_cost_per_token(&seeded)),
                format!("{:?}", lstm_cost_per_token(&shaped)),
                "lstm @ {width}"
            );
        }
    }
}
