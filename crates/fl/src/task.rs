//! The federated image-classification task bundle.

use crate::engine::Workers;
use fedmp_data::{ImageDataset, Partition};

/// A complete federated task: train/test data, the input geometry the
/// model expects, and the per-worker index partition.
#[derive(Debug, Clone)]
pub struct ImageTask {
    /// Pooled training data (sharded by `partition`).
    pub train: ImageDataset,
    /// Held-out test data (evaluated at the PS).
    pub test: ImageDataset,
    /// Input geometry `(channels, height, width)`.
    pub input_chw: (usize, usize, usize),
    /// Per-worker sample indices into `train`.
    pub partition: Partition,
}

impl ImageTask {
    /// Builds a task, validating the partition against the dataset.
    pub fn new(train: ImageDataset, test: ImageDataset, partition: Partition) -> Self {
        assert!(!partition.is_empty(), "task needs at least one worker shard");
        for (w, shard) in partition.iter().enumerate() {
            assert!(!shard.is_empty(), "worker {w} has an empty shard");
            assert!(
                shard.iter().all(|&i| i < train.len()),
                "worker {w} shard references out-of-range samples"
            );
        }
        let input_chw = (train.channels, train.height, train.width);
        assert_eq!(test.channels, train.channels, "train/test channel mismatch");
        ImageTask { train, test, input_chw, partition }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.partition.len()
    }
}

impl Workers for ImageTask {
    type Model = fedmp_nn::Sequential;

    fn workers(&self) -> usize {
        ImageTask::workers(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lm::LmTask;
    use fedmp_data::{iid_partition, mnist_like, ptb_like, TextDataset};
    use fedmp_tensor::seeded_rng;

    #[test]
    fn task_builds_and_validates() {
        let (train, test) = mnist_like(0.05, 30).generate();
        let mut rng = seeded_rng(0);
        let part = iid_partition(&train, 4, &mut rng);
        let task = ImageTask::new(train, test, part);
        assert_eq!(task.workers(), 4);
        assert_eq!(task.input_chw, (1, 28, 28));
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn empty_shard_rejected() {
        let (train, test) = mnist_like(0.05, 31).generate();
        let _ = ImageTask::new(train, test, vec![vec![0, 1], vec![]]);
    }

    #[test]
    #[should_panic(expected = "empty lane")]
    fn short_lm_lane_rejected() {
        // 20-token lanes hold no 4×8 batch, which round 0's local step
        // and its Eq. 5 token count would both index.
        let (train, eval) = ptb_like(30, 400, 32).split(0.9);
        let lanes = train.tokens.chunks(20).take(2);
        let lanes = lanes.map(|t| TextDataset { tokens: t.to_vec(), vocab: 30 }.batches(4, 8));
        let _ = LmTask::new(lanes.collect(), eval.batches(4, 8));
    }
}
