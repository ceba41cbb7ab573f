//! PS-side evaluation on the held-out test set.

use fedmp_data::{ImageDataset, TextBatch};
use fedmp_nn::{LstmLm, Sequential};
use fedmp_tensor::cross_entropy_loss;
use serde::{Deserialize, Serialize};

/// Test-set metrics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EvalResult {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Samples evaluated.
    pub samples: usize,
}

/// Evaluates a classifier in inference mode over (at most
/// `max_samples` of) the test set.
pub fn evaluate_image(
    model: &mut Sequential,
    test: &ImageDataset,
    batch: usize,
    max_samples: usize,
) -> EvalResult {
    let n = test.len().min(max_samples.max(1));
    let mut correct = 0usize;
    let mut loss_sum = 0.0f64;
    let mut seen = 0usize;
    let mut start = 0usize;
    while start < n {
        let end = (start + batch).min(n);
        let indices: Vec<usize> = (start..end).collect();
        let (x, labels) = test.gather(&indices);
        let logits = model.forward(&x, false);
        let out = cross_entropy_loss(&logits, &labels);
        correct += out.correct;
        loss_sum += out.loss as f64 * labels.len() as f64;
        seen += labels.len();
        start = end;
    }
    EvalResult {
        loss: (loss_sum / seen as f64) as f32,
        accuracy: correct as f32 / seen as f32,
        samples: seen,
    }
}

/// Evaluates a language model over pre-built batches; returns mean
/// cross-entropy in `loss` and **perplexity** (`exp(loss)`) in place of
/// accuracy — matching the paper's Table IV metric.
pub(crate) fn evaluate_lm(
    model: &mut LstmLm,
    batches: &[TextBatch],
    max_batches: usize,
) -> EvalResult {
    let take = batches.len().min(max_batches.max(1));
    assert!(take > 0, "no evaluation batches");
    let mut loss_sum = 0.0f64;
    let mut tokens = 0usize;
    for b in &batches[..take] {
        let logits = model.forward(&b.inputs);
        let out = cross_entropy_loss(&logits, &b.targets);
        loss_sum += out.loss as f64 * b.targets.len() as f64;
        tokens += b.targets.len();
    }
    let mean = (loss_sum / tokens as f64) as f32;
    EvalResult { loss: mean, accuracy: mean.exp(), samples: tokens }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_data::{mnist_like, ptb_like};
    use fedmp_nn::zoo;
    use fedmp_tensor::seeded_rng;

    #[test]
    fn untrained_model_is_near_chance() {
        let (_, test) = mnist_like(0.5, 50).generate();
        let mut rng = seeded_rng(6);
        let mut m = zoo::cnn_mnist(0.1, &mut rng);
        let r = evaluate_image(&mut m, &test, 32, 200);
        assert!(r.accuracy < 0.35, "untrained accuracy {}", r.accuracy);
        // Random-init logits are not exactly uniform; loss sits near but
        // not at ln(10) ≈ 2.3.
        assert!(r.loss > 1.5 && r.loss < 15.0, "untrained loss {}", r.loss);
        assert_eq!(r.samples, 200);
    }

    #[test]
    fn max_samples_caps_work() {
        let (_, test) = mnist_like(0.5, 51).generate();
        let mut rng = seeded_rng(7);
        let mut m = zoo::cnn_mnist(0.1, &mut rng);
        let r = evaluate_image(&mut m, &test, 32, 64);
        assert_eq!(r.samples, 64);
    }

    #[test]
    fn lm_perplexity_of_uniform_model_is_near_vocab() {
        let corpus = ptb_like(20, 3000, 8);
        let batches = corpus.batches(4, 8);
        let mut rng = seeded_rng(9);
        let mut lm = zoo::lstm_ptb(20, 0.1, &mut rng);
        let r = evaluate_lm(&mut lm, &batches, 8);
        // An untrained LM is roughly uniform: perplexity ≈ vocab.
        assert!(r.accuracy > 8.0 && r.accuracy < 40.0, "perplexity {}", r.accuracy);
    }
}
