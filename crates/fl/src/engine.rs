//! Shared engine plumbing: configuration, per-round worker execution and
//! cost accounting.

use crate::eval::evaluate_image;
use crate::local::{local_train, LocalOutcome, LocalTrainConfig};
use crate::task::ImageTask;
use fedmp_data::BatchIter;
use fedmp_edgesim::{DeviceProfile, RoundCost, TimeModel};
use fedmp_nn::{model_cost, CostReport, Sequential, StateEntry};
use fedmp_pruning::{
    extract_sequential, plan_sequential_with, recover_state, Importance, PrunePlan,
};
use fedmp_tensor::seeded_rng;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Engine-level configuration shared by every method.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlConfig {
    /// Number of aggregation rounds K.
    pub rounds: usize,
    /// Local-update hyper-parameters.
    pub local: LocalTrainConfig,
    /// Evaluate the global model every this many rounds and always
    /// after the last (1 = every round, 0 = first and last only).
    pub eval_every: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Cap on evaluated test samples (keeps the experiment suite fast).
    /// On an [`LmTask`](crate::LmTask) the cap counts evaluation batches.
    pub eval_max_samples: usize,
    /// Master seed; all per-worker/per-round randomness derives from it.
    pub seed: u64,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            rounds: 30,
            local: LocalTrainConfig::default(),
            eval_every: 1,
            eval_batch: 64,
            eval_max_samples: 512,
            seed: 0,
        }
    }
}

/// Scale factors mapping a width-reduced model's costs back to the
/// paper-sized architecture's, so simulated completion times stay in a
/// realistic range while training remains laptop-scale. Relative results
/// (speedups, crossovers) are unaffected — every method is scaled
/// identically.
///
/// [`CostScale::from_reports`] derives both factors from two cost
/// reports. A report reads only dims, so callers build the two models
/// with `fedmp_nn::ShapesOnly` and draw no weights.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostScale {
    /// Multiplier on training FLOPs.
    pub flops: f64,
    /// Multiplier on transferred bytes.
    pub bytes: f64,
}

impl Default for CostScale {
    fn default() -> Self {
        CostScale { flops: 1.0, bytes: 1.0 }
    }
}

impl CostScale {
    /// How much dearer `full` is than `scaled`: the ratio of their
    /// FLOPs per sample and of their parameter counts.
    pub fn from_reports(full: &CostReport, scaled: &CostReport) -> Self {
        CostScale {
            flops: full.flops_per_sample as f64 / scaled.flops_per_sample.max(1) as f64,
            bytes: full.params as f64 / scaled.params.max(1) as f64,
        }
    }

    /// `cost` with the factors applied: FLOPs by `flops`, both link
    /// directions by `bytes`.
    pub(crate) fn apply(&self, cost: &RoundCost) -> RoundCost {
        RoundCost {
            train_flops: cost.train_flops * self.flops,
            download_bytes: cost.download_bytes * self.bytes,
            upload_bytes: cost.upload_bytes * self.bytes,
        }
    }
}

/// The simulated deployment an engine runs against: the image task by
/// default, the LM's [`LmTask`](crate::LmTask) for an `LstmLm`.
#[derive(Debug, Clone)]
pub struct FlSetup<'a, T = ImageTask> {
    /// The federated task (data + partition).
    pub task: &'a T,
    /// One device profile per worker (must match the partition width).
    pub devices: Vec<DeviceProfile>,
    /// The virtual-clock time model.
    pub time: TimeModel,
    /// Width-compensation factors applied to every simulated cost.
    pub cost_scale: CostScale,
}

/// A federated task split across workers: what [`FlSetup::new`] checks
/// the fleet against.
pub trait Workers {
    /// The model family that trains on this task — what a socket node
    /// handed this task rebuilds from its Setup.
    type Model: FlModel<Task = Self>;
    /// Number of workers the task's training data is split across.
    fn workers(&self) -> usize;
}

impl<'a, T: Workers> FlSetup<'a, T> {
    /// Builds a setup, checking worker counts agree.
    pub fn new(task: &'a T, devices: Vec<DeviceProfile>, time: TimeModel) -> Self {
        assert_eq!(devices.len(), task.workers(), "device count must match the task's workers");
        FlSetup { task, devices, time, cost_scale: CostScale::default() }
    }

    /// Same, with explicit cost-scale factors.
    pub fn with_cost_scale(
        task: &'a T,
        devices: Vec<DeviceProfile>,
        time: TimeModel,
        cost_scale: CostScale,
    ) -> Self {
        let mut s = Self::new(task, devices, time);
        s.cost_scale = cost_scale;
        s
    }
}

impl<T> FlSetup<'_, T> {
    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.devices.len()
    }

    /// The width-compensated cost of one round: `cost` with the
    /// [`CostScale`] factors applied — the FLOPs and on-wire bytes the
    /// virtual clock (and the trace events) are computed from.
    pub fn scaled_cost(&self, cost: &RoundCost) -> RoundCost {
        self.cost_scale.apply(cost)
    }

    /// Simulates one worker round after applying the cost scale.
    pub fn simulate_round(
        &self,
        worker: usize,
        cost: &RoundCost,
        rng: &mut StdRng,
    ) -> fedmp_edgesim::RoundTime {
        self.time.round_time(&self.devices[worker], &self.scaled_cost(cost), rng)
    }
}

/// Synchronisation scheme toggle for the FedMP engine (Fig. 7 compares
/// R2SP against BSP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncScheme {
    /// Residual Recovery Synchronous Parallel (the paper's scheme).
    R2SP,
    /// Traditional BSP: average recovered models without residuals.
    BSP,
}

/// Deterministic per-(seed, round, worker) RNG, independent of how the
/// round executor schedules the per-worker work.
pub(crate) fn worker_rng(seed: u64, round: usize, worker: usize) -> StdRng {
    // SplitMix-style mixing of the three coordinates.
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round as u64 + 1))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(worker as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seeded_rng(z ^ (z >> 31))
}

/// What the round body needs from a model family: the operations that
/// differ between the image CNNs ([`Sequential`]) and the §VI LSTM
/// (`LstmLm`). Everything else about a round is shared.
pub trait FlModel: Send + Sync {
    /// The federated data the family trains and evaluates on.
    type Task: Sync;
    /// A structured-pruning plan.
    type Plan: Send + Sync;
    /// Salt of the per-worker Eq. 5 timing stream,
    /// `worker_rng(seed ^ TIME_SALT, round, worker)`.
    const TIME_SALT: u64;

    /// The plan pruning `self` at `ratio`.
    fn plan(&self, task: &Self::Task, ratio: f32, importance: Importance) -> Self::Plan;
    /// The sub-model `plan` keeps.
    fn extract(&self, plan: &Self::Plan) -> Self;
    /// This sub-model of `global` in full shape, pruned positions zero.
    fn recover(&self, plan: &Self::Plan, global: &Self) -> Vec<StateEntry>;
    /// The Eq. 5 cost of one round on this (sub-)model: download +
    /// upload of its parameters and τ training iterations at its
    /// *actual* FLOP count.
    fn round_cost(&self, task: &Self::Task, local: &LocalTrainConfig) -> RoundCost;
    /// One worker's local step: `local.tau` iterations on data shard
    /// `worker`'s batches of `round`, shuffled by `seed`.
    fn train(
        &mut self,
        task: &Self::Task,
        worker: usize,
        seed: u64,
        round: usize,
        local: &LocalTrainConfig,
    ) -> LocalOutcome;
    /// PS-side `(loss, metric)` on the task's held-out data.
    fn evaluate(&mut self, task: &Self::Task, cfg: &FlConfig) -> (f32, f32);
    /// The model's parameters (and tracked buffers) as a snapshot.
    fn state(&self) -> Vec<StateEntry>;
    /// Overwrites the model from a snapshot of its own shapes.
    fn load_state(&mut self, state: &[StateEntry]);
}

impl FlModel for Sequential {
    type Task = ImageTask;
    type Plan = PrunePlan;
    const TIME_SALT: u64 = 0xA5A5;

    fn plan(&self, task: &ImageTask, ratio: f32, importance: Importance) -> PrunePlan {
        plan_sequential_with(self, task.input_chw, ratio, importance)
    }

    fn extract(&self, plan: &PrunePlan) -> Self {
        extract_sequential(self, plan)
    }

    fn recover(&self, plan: &PrunePlan, global: &Self) -> Vec<StateEntry> {
        recover_state(self, plan, global)
    }

    fn round_cost(&self, task: &ImageTask, local: &LocalTrainConfig) -> RoundCost {
        let report = model_cost(self, task.input_chw);
        RoundCost {
            train_flops: report.train_flops_per_sample() as f64
                * local.batch as f64
                * local.tau as f64,
            download_bytes: report.param_bytes() as f64,
            upload_bytes: report.param_bytes() as f64,
        }
    }

    fn train(
        &mut self,
        task: &ImageTask,
        worker: usize,
        seed: u64,
        round: usize,
        local: &LocalTrainConfig,
    ) -> LocalOutcome {
        let (shard, rng) = (task.partition[worker].clone(), worker_rng(seed, round, worker));
        local_train(self, &mut BatchIter::new(&task.train, shard, local.batch, rng), local)
    }

    fn evaluate(&mut self, task: &ImageTask, cfg: &FlConfig) -> (f32, f32) {
        let r = evaluate_image(self, &task.test, cfg.eval_batch, cfg.eval_max_samples);
        (r.loss, r.accuracy)
    }

    fn state(&self) -> Vec<StateEntry> {
        Sequential::state(self)
    }

    fn load_state(&mut self, state: &[StateEntry]) {
        Sequential::load_state(self, state);
    }
}

/// PS-side evaluation of `model` when `round` is due one: every
/// `cfg.eval_every`-th round and always the last; 0 means first and
/// last only (only 0 is a multiple of 0).
pub(crate) fn evaluate_if_due<M: FlModel>(
    cfg: &FlConfig,
    round: usize,
    model: &mut M,
    task: &M::Task,
) -> Option<(f32, f32)> {
    (round.is_multiple_of(cfg.eval_every) || round + 1 == cfg.rounds)
        .then(|| model.evaluate(task, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_data::{iid_partition, mnist_like};
    use fedmp_nn::zoo;

    #[test]
    fn worker_rng_is_coordinate_deterministic() {
        use rand::Rng;
        let a: u64 = worker_rng(1, 2, 3).gen();
        let b: u64 = worker_rng(1, 2, 3).gen();
        let c: u64 = worker_rng(1, 2, 4).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pruned_model_has_cheaper_round_cost() {
        let (train, test) = mnist_like(0.05, 60).generate();
        let task = ImageTask::new(train, test, vec![vec![0]]);
        let m = zoo::cnn_mnist(0.25, &mut seeded_rng(60));
        let local = LocalTrainConfig::default();
        let full = m.round_cost(&task, &local);
        let sub = m.extract(&m.plan(&task, 0.6, Importance::L1));
        let pruned = sub.round_cost(&task, &local);
        assert!(pruned.train_flops < full.train_flops);
        assert!(pruned.upload_bytes < full.upload_bytes);
    }

    #[test]
    fn setup_validates_device_count() {
        let (train, test) = mnist_like(0.05, 61).generate();
        let mut rng = seeded_rng(62);
        let part = iid_partition(&train, 3, &mut rng);
        let task = ImageTask::new(train, test, part);
        let devices = vec![
            fedmp_edgesim::tx2_profile(
                fedmp_edgesim::ComputeMode::Mode0,
                fedmp_edgesim::LinkQuality::Near,
            );
            3
        ];
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        assert_eq!(setup.workers(), 3);
    }
}
