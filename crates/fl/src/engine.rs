//! Shared engine plumbing: configuration, per-round worker execution and
//! cost accounting.

use crate::eval::evaluate_image;
use crate::history::RoundRecord;
use crate::local::LocalTrainConfig;
use crate::task::ImageTask;
use fedmp_data::BatchIter;
use fedmp_edgesim::{DeviceProfile, RoundCost, RoundTime, TimeModel};
use fedmp_nn::{model_cost, Sequential};
use fedmp_obs::TraceEvent;
use fedmp_tensor::parallel::KernelStats;
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

/// The simulated deployment an engine runs against.
#[derive(Debug, Clone)]
pub struct FlSetup<'a> {
    /// The federated task (data + partition).
    pub task: &'a ImageTask,
    /// One device profile per worker (must match the partition width).
    pub devices: Vec<DeviceProfile>,
    /// The virtual-clock time model.
    pub time: TimeModel,
    /// Width-compensation factors applied to every simulated cost.
    pub cost_scale: CostScale,
}

impl<'a> FlSetup<'a> {
    /// Builds a setup, checking worker counts agree.
    pub fn new(task: &'a ImageTask, devices: Vec<DeviceProfile>, time: TimeModel) -> Self {
        assert_eq!(devices.len(), task.workers(), "device count must match partition");
        FlSetup { task, devices, time, cost_scale: CostScale::default() }
    }

    /// Same, with explicit cost-scale factors.
    pub fn with_cost_scale(
        task: &'a ImageTask,
        devices: Vec<DeviceProfile>,
        time: TimeModel,
        cost_scale: CostScale,
    ) -> Self {
        let mut s = Self::new(task, devices, time);
        s.cost_scale = cost_scale;
        s
    }

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

/// Builds a fresh mini-batch iterator over a worker's shard for one
/// round.
pub(crate) fn worker_batches<'d>(
    task: &'d ImageTask,
    worker: usize,
    batch: usize,
    seed: u64,
    round: usize,
) -> BatchIter<'d> {
    BatchIter::new(
        &task.train,
        task.partition[worker].clone(),
        batch,
        worker_rng(seed, round, worker),
    )
}

/// The Eq. 5 cost of one round with the given (sub-)model: download +
/// upload of its parameters, and τ training iterations at the model's
/// *actual* FLOP count.
pub(crate) fn model_round_cost(
    model: &Sequential,
    chw: (usize, usize, usize),
    local: &LocalTrainConfig,
) -> RoundCost {
    let report = model_cost(model, chw);
    RoundCost {
        train_flops: report.train_flops_per_sample() as f64 * local.batch as f64 * local.tau as f64,
        download_bytes: report.param_bytes() as f64,
        upload_bytes: report.param_bytes() as f64,
    }
}

/// Per-worker completion times for a round; returns the per-worker
/// [`RoundTime`]s plus the mean compute and comm seconds column-wise.
pub(crate) fn round_times(
    setup: &FlSetup<'_>,
    costs: &[RoundCost],
    seed: u64,
    round: usize,
) -> (Vec<RoundTime>, f64, f64) {
    let mut times = Vec::with_capacity(costs.len());
    let mut comp_sum = 0.0;
    let mut comm_sum = 0.0;
    for (w, cost) in costs.iter().enumerate() {
        let mut rng = worker_rng(seed ^ 0xA5A5, round, w);
        let t = setup.simulate_round(w, cost, &mut rng);
        comp_sum += t.comp;
        comm_sum += t.comm;
        times.push(t);
    }
    let n = costs.len().max(1) as f64;
    (times, comp_sum / n, comm_sum / n)
}

/// Whether `round` of `rounds` is evaluated: every `every`-th and always
/// the last; 0 means first and last only (only 0 is a multiple of 0).
pub(crate) fn eval_due(round: usize, every: usize, rounds: usize) -> bool {
    round.is_multiple_of(every) || round + 1 == rounds
}

/// PS-side evaluation, when `round` is due one ([`eval_due`]):
/// `(loss, accuracy)` of `model` on the task's test set.
pub(crate) fn evaluate_if_due(
    cfg: &FlConfig,
    round: usize,
    model: &mut Sequential,
    task: &ImageTask,
) -> Option<(f32, f32)> {
    eval_due(round, cfg.eval_every, cfg.rounds).then(|| {
        let r = evaluate_image(model, &task.test, cfg.eval_batch, cfg.eval_max_samples);
        (r.loss, r.accuracy)
    })
}

// ---- observability hooks -------------------------------------------------
//
// Thin wrappers over `fedmp_obs::emit` so every engine emits the same
// event shapes in the same order: RoundStart → LocalTrain (worker
// order) → BanditDecision (from the agents) → Aggregate →
// KernelDispatch → RoundEnd. All are no-ops (one relaxed atomic load)
// while no trace session is active.

/// Emits `RoundStart`.
pub(crate) fn emit_round_start(round: usize, sim_time: f64, online: &[usize]) {
    fedmp_obs::emit(|| TraceEvent::RoundStart { round, sim_time, online: online.to_vec() });
}

/// Emits one worker's `LocalTrain` event from its outcome, virtual
/// round time and **scaled** round cost.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_local_train(
    round: usize,
    worker: usize,
    ratio: f32,
    loss: f32,
    delta_loss: f32,
    tau: usize,
    samples: usize,
    t: &RoundTime,
    scaled: &RoundCost,
) {
    let (comp_secs, comm_secs) = (t.comp, t.comm);
    let (bytes_down, bytes_up) = (scaled.download_bytes, scaled.upload_bytes);
    fedmp_obs::emit(|| TraceEvent::LocalTrain {
        round,
        worker,
        ratio,
        loss,
        delta_loss,
        tau,
        samples,
        comp_secs,
        comm_secs,
        bytes_down,
        bytes_up,
    });
}

/// Emits `Aggregate`.
pub(crate) fn emit_aggregate(round: usize, scheme: &str, participants: usize) {
    let scheme = scheme.to_string();
    fedmp_obs::emit(move || TraceEvent::Aggregate { round, scheme, participants });
}

/// Emits `FrameRetransmit` for one retransmit request.
pub(crate) fn emit_frame_retransmit(round: usize, worker: usize, attempt: u32, backoff_secs: f64) {
    fedmp_obs::emit(|| TraceEvent::FrameRetransmit { round, worker, attempt, backoff_secs });
}

/// Emits `WorkerExcluded` for one discarded contribution.
pub(crate) fn emit_worker_excluded(round: usize, worker: usize, reason: &str) {
    let reason = reason.to_string();
    fedmp_obs::emit(move || TraceEvent::WorkerExcluded { round, worker, reason });
}

/// Emits `WorkerRejoined` for one restarted worker node.
pub(crate) fn emit_worker_rejoined(round: usize, worker: usize) {
    fedmp_obs::emit(|| TraceEvent::WorkerRejoined { round, worker });
}

/// Emits `ConnEstablished` for one socket-transport reconnect.
pub(crate) fn emit_conn_established(round: usize, worker: usize, attempts: u32) {
    fedmp_obs::emit(|| TraceEvent::ConnEstablished { round, worker, attempts });
}

/// Emits `FrameTimeout` for one frame the chaos plane dropped on the
/// wire (`direction` is `"down"` or `"up"`).
pub(crate) fn emit_frame_timeout(round: usize, worker: usize, direction: &str) {
    let direction = direction.to_string();
    fedmp_obs::emit(move || TraceEvent::FrameTimeout { round, worker, direction });
}

/// Emits `ConnReset` for one chaos-severed worker connection.
pub(crate) fn emit_conn_reset(round: usize, worker: usize) {
    fedmp_obs::emit(|| TraceEvent::ConnReset { round, worker });
}

/// Emits `NodeRespawned` for one restarted worker process.
pub(crate) fn emit_node_respawned(round: usize, worker: usize, generation: u32) {
    fedmp_obs::emit(|| TraceEvent::NodeRespawned { round, worker, generation });
}

/// Emits `QuorumAggregate` for a partial-but-quorate round.
pub(crate) fn emit_quorum_aggregate(
    round: usize,
    quorum: usize,
    participants: usize,
    excluded: usize,
) {
    fedmp_obs::emit(|| TraceEvent::QuorumAggregate { round, quorum, participants, excluded });
}

/// Emits `RoundEnd` mirroring the record the engine is about to push.
/// The NaN `train_loss` of an all-offline fault round becomes `None`
/// (JSON has no NaN).
pub(crate) fn emit_round_end(r: &RoundRecord) {
    fedmp_obs::emit(|| TraceEvent::RoundEnd {
        round: r.round,
        sim_time: r.sim_time,
        round_time: r.round_time,
        mean_comp: r.mean_comp,
        mean_comm: r.mean_comm,
        train_loss: if r.train_loss.is_finite() { Some(r.train_loss) } else { None },
        eval_loss: r.eval.map(|e| e.0),
        eval_metric: r.eval.map(|e| e.1),
    });
}

/// Emits `CodecSelected` for one worker's resolved codec pair.
pub(crate) fn emit_codec_selected(
    round: usize,
    worker: usize,
    pair: &crate::wire::LinkCodecs,
    slow_link: bool,
) {
    let (downlink, uplink) = (pair.downlink.label(), pair.uplink.label());
    fedmp_obs::emit(move || TraceEvent::CodecSelected {
        round,
        worker,
        downlink,
        uplink,
        slow_link,
    });
}

/// Emits `CompressionApplied` for one direction of a worker's exchange.
pub(crate) fn emit_compression_applied(
    round: usize,
    worker: usize,
    direction: &'static str,
    codec: crate::wire::Codec,
    dense_bytes: u64,
    wire_bytes: u64,
) {
    fedmp_obs::emit(move || TraceEvent::CompressionApplied {
        round,
        worker,
        direction: direction.to_string(),
        codec: codec.label(),
        dense_bytes,
        wire_bytes,
    });
}

/// Emits `CohortSampled` for a population-scale round's topology.
pub(crate) fn emit_cohort_sampled(
    round: usize,
    population: u64,
    cohort: usize,
    shards: usize,
    edges: usize,
) {
    fedmp_obs::emit(|| TraceEvent::CohortSampled { round, population, cohort, shards, edges });
}

/// Emits `ShardReduced` for one streaming shard reducer.
pub(crate) fn emit_shard_reduced(round: usize, shard: usize, clients: usize, peak_bytes: u64) {
    fedmp_obs::emit(|| TraceEvent::ShardReduced { round, shard, clients, peak_bytes });
}

/// Emits `EdgeAggregate` for one edge aggregator's upload.
pub(crate) fn emit_edge_aggregate(
    round: usize,
    edge: usize,
    shards: usize,
    clients: usize,
    delivered: bool,
    retries: u32,
) {
    fedmp_obs::emit(|| TraceEvent::EdgeAggregate {
        round,
        edge,
        shards,
        clients,
        delivered,
        retries,
    });
}

/// Snapshot of the kernel-scheduler counters, taken at engine start as
/// the baseline for per-round `KernelDispatch` deltas.
pub(crate) fn kernel_baseline() -> KernelStats {
    fedmp_tensor::parallel::kernel_stats()
}

/// Emits `KernelDispatch` with the counter deltas since `prev` and
/// advances `prev`. Skipped entirely (baseline untouched) while tracing
/// is disabled.
pub(crate) fn emit_kernel_dispatch(round: usize, prev: &mut KernelStats) {
    if !fedmp_obs::enabled() {
        return;
    }
    let now = fedmp_tensor::parallel::kernel_stats();
    let dispatches = now.dispatches - prev.dispatches;
    let bands = now.bands - prev.bands;
    let gemm_simd_dense = now.gemm_simd_dense - prev.gemm_simd_dense;
    let gemm_scalar_dense = now.gemm_scalar_dense - prev.gemm_scalar_dense;
    fedmp_obs::emit(|| TraceEvent::KernelDispatch {
        round,
        dispatches,
        bands,
        gemm_simd_dense,
        gemm_scalar_dense,
    });
    *prev = now;
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
        let mut rng = seeded_rng(60);
        let m = zoo::cnn_mnist(0.25, &mut rng);
        let local = LocalTrainConfig::default();
        let full = model_round_cost(&m, (1, 28, 28), &local);
        let plan = fedmp_pruning::plan_sequential(&m, (1, 28, 28), 0.6);
        let sub = fedmp_pruning::extract_sequential(&m, &plan);
        let pruned = model_round_cost(&sub, (1, 28, 28), &local);
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
