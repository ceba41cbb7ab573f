//! Local SGD on a worker's shard — the `②` phase of Fig. 1.

use fedmp_data::BatchIter;
use fedmp_nn::{add_proximal_grad, clip_grad_norm, Sequential, Sgd};
use fedmp_tensor::cross_entropy_loss;
use fedmp_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Local-update hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LocalTrainConfig {
    /// Local SGD iterations per round (the paper's τ).
    pub tau: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate γ.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// FedProx proximal coefficient μ (0 disables the term).
    pub prox_mu: f32,
    /// Gradient-norm clip (0 disables). Keeps the small synthetic tasks
    /// stable at aggressive learning rates.
    pub clip: f32,
}

impl Default for LocalTrainConfig {
    fn default() -> Self {
        LocalTrainConfig { tau: 5, batch: 16, lr: 0.05, momentum: 0.9, prox_mu: 0.0, clip: 5.0 }
    }
}

/// What local training reports back to the PS.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LocalOutcome {
    /// Loss of the first mini-batch (before any update this round).
    pub first_loss: f32,
    /// Loss of the last mini-batch (after τ−1 updates).
    pub last_loss: f32,
    /// Mean training loss over the round.
    pub mean_loss: f32,
    /// Samples processed.
    pub samples: usize,
}

impl LocalOutcome {
    /// The round's loss improvement — the ΔLoss numerator of the E-UCB
    /// reward (Eq. 8).
    pub fn delta_loss(&self) -> f32 {
        self.first_loss - self.last_loss
    }
}

/// Runs τ iterations of (proximal) SGD on `model` over the worker's
/// shard. The FedProx anchor is the model state at round start.
pub fn local_train(
    model: &mut Sequential,
    batches: &mut BatchIter<'_>,
    cfg: &LocalTrainConfig,
) -> LocalOutcome {
    assert!(cfg.tau > 0, "tau must be positive");
    let anchor: Vec<Tensor> =
        if cfg.prox_mu > 0.0 { fedmp_nn::snapshot_params(model) } else { Vec::new() };
    let mut opt = Sgd::with_momentum(cfg.lr, cfg.momentum, 0.0);
    let mut first_loss = 0.0f32;
    let mut last_loss = 0.0f32;
    let mut total_loss = 0.0f32;
    let mut samples = 0usize;

    for t in 0..cfg.tau {
        let (x, labels) = batches.next_batch();
        model.zero_grad();
        let logits = model.forward(&x, true);
        let out = cross_entropy_loss(&logits, &labels);
        model.backward_params(&out.grad_logits);
        if cfg.prox_mu > 0.0 {
            add_proximal_grad(model, &anchor, cfg.prox_mu);
        }
        if cfg.clip > 0.0 {
            clip_grad_norm(model, cfg.clip);
        }
        opt.step(model);

        if t == 0 {
            first_loss = out.loss;
        }
        last_loss = out.loss;
        total_loss += out.loss;
        samples += labels.len();
    }
    LocalOutcome { first_loss, last_loss, mean_loss: total_loss / cfg.tau as f32, samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_data::{iid_partition, mnist_like};
    use fedmp_nn::zoo;
    use fedmp_tensor::seeded_rng;

    #[test]
    fn local_training_reduces_loss() {
        let (train, _) = mnist_like(0.1, 40).generate();
        let mut rng = seeded_rng(1);
        let part = iid_partition(&train, 2, &mut rng);
        let mut model = zoo::cnn_mnist(0.15, &mut rng);
        let mut it = BatchIter::new(&train, part[0].clone(), 16, seeded_rng(2));
        let cfg = LocalTrainConfig { tau: 30, ..Default::default() };
        let out = local_train(&mut model, &mut it, &cfg);
        assert!(out.last_loss < out.first_loss, "{} -> {}", out.first_loss, out.last_loss);
        // 30 iterations at batch 16, but epoch-boundary batches may be
        // short — the count is bounded, not exact.
        assert!(out.samples > 20 * 16 && out.samples <= 30 * 16, "samples {}", out.samples);
        assert!(out.delta_loss() > 0.0);
    }

    #[test]
    fn proximal_term_limits_drift() {
        let (train, _) = mnist_like(0.05, 41).generate();
        let mut rng = seeded_rng(3);
        let part = iid_partition(&train, 1, &mut rng);
        let drift = |mu: f32| {
            let mut model = zoo::cnn_mnist(0.1, &mut seeded_rng(4));
            let before = fedmp_nn::snapshot_params(&mut model);
            let mut it = BatchIter::new(&train, part[0].clone(), 8, seeded_rng(5));
            let cfg = LocalTrainConfig { tau: 15, prox_mu: mu, ..Default::default() };
            local_train(&mut model, &mut it, &cfg);
            let after = fedmp_nn::snapshot_params(&mut model);
            before.iter().zip(after.iter()).map(|(a, b)| a.sq_distance(b)).sum::<f32>()
        };
        assert!(drift(1.0) < drift(0.0), "proximal term should shrink drift");
    }
}
