//! # fedmp-nn
//!
//! A neural-network layer library with **hand-written backward passes**,
//! built on [`fedmp_tensor`]. It provides everything the FedMP paper's
//! model zoo needs: convolutions, batch normalisation, pooling, fully
//! connected layers, dropout, residual blocks, and a stacked-LSTM language
//! model for the RNN extension (paper §VI).
//!
//! The central design choice is that models are **closed enum trees**
//! ([`LayerNode`]) rather than boxed trait objects: the structured-pruning
//! code in `fedmp-pruning` must inspect and rebuild layer shapes
//! (filters, channels, BN parameters, FC neurons), and pattern-matching on
//! an enum makes that transformation explicit and exhaustively checked.
//!
//! ```
//! use fedmp_nn::{zoo, Sequential};
//! use fedmp_tensor::{cross_entropy_loss, seeded_rng, Tensor};
//!
//! let mut rng = seeded_rng(0);
//! let mut model: Sequential = zoo::cnn_mnist(0.25, &mut rng);
//! let x = Tensor::randn(&[2, 1, 28, 28], &mut rng);
//! let logits = model.forward(&x, true);
//! assert_eq!(logits.dims(), &[2, 10]);
//! let out = cross_entropy_loss(&logits, &[3, 7]);
//! model.backward(&out.grad_logits);
//! ```

mod activation;
mod batchnorm;
mod container;
mod conv_layer;
mod flatten;
mod flops;
mod linear;
mod lstm;
mod optim;
mod param;
mod pool_layer;
pub mod zoo;

pub use activation::{Dropout, ReLU};
pub use batchnorm::BatchNorm2d;
pub use container::{LayerNode, ResidualBlock, Sequential};
pub use conv_layer::Conv2d;
pub use flatten::Flatten;
pub use flops::{lstm_cost_per_token, model_cost, CostReport, LayerCost};
pub use linear::Linear;
pub use lstm::{Embedding, Lstm, LstmLm};
pub use optim::{add_proximal_grad, clip_grad_norm, grad_norm, snapshot_params, ParamVisitor, Sgd};
pub use param::{
    state_add, state_numel, state_scale, state_sq_distance, state_sub, Param, StateEntry,
};
pub use pool_layer::{AvgPool2d, MaxPool2d};
