//! The synchronous baselines that are Algorithm 1 with a different
//! ρ-picker, local step or codec pair: [`SyncMethod`] variants, with
//! every `FedMpOptions` field at its default. The functions here run
//! them over the inline exchange; [`crate::run_threaded`] and
//! [`crate::run_sockets`] run them over frames.
//!
//! - **Syn-FL** (McMahan et al. \[5\]), the paper's primary baseline:
//!   full-model FedAvg is ρ ≡ 0 — R2SP with an all-zero residual *is*
//!   FedAvg, bit for bit (`ExactSum` ignores ±0).
//! - **UP-FL** (Jiang et al. \[15\] adapted to structured pruning): one
//!   ratio **for all workers** each round. It adapts over rounds (a
//!   single shared E-UCB agent) but ignores heterogeneity, so the
//!   weakest worker still gates every round.
//! - **FedProx** (Li et al. \[19\]): ρ ≡ 0 with a proximal term and
//!   **capability-scaled local iteration counts** — weak workers do
//!   fewer local steps so they finish closer to the strong ones, but
//!   every worker still trains and transmits the full model.
//! - **FlexCom** (Li et al. \[13\]): ρ ≡ 0 with **bandwidth-scaled top-k
//!   uplinks** — every worker trains the full model (no compute
//!   savings) and uploads its update through the wire's per-tensor
//!   top-k codec with error feedback, at a keep fraction proportional
//!   to its link bandwidth.

use crate::engine::{FlConfig, FlModel, FlSetup};
use crate::engines::fedmp::run_inline;
use crate::history::RunHistory;
use crate::runtime::SyncMethod;
use fedmp_bandit::EUcbConfig;
use fedmp_nn::Sequential;
use serde::{Deserialize, Serialize};

/// UP-FL options.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UpFlOptions {
    /// Shared E-UCB configuration for the single round-ratio agent.
    pub eucb: EUcbConfig,
}

/// FedProx options.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FedProxOptions {
    /// Proximal coefficient μ.
    pub mu: f32,
    /// Minimum local iterations any worker performs.
    pub min_tau: usize,
}

impl Default for FedProxOptions {
    fn default() -> Self {
        FedProxOptions { mu: 0.1, min_tau: 1 }
    }
}

/// FlexCom options.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlexComOptions {
    /// Keep fraction granted to the best-connected worker.
    pub max_keep: f32,
    /// Keep-fraction floor for the worst-connected worker.
    pub min_keep: f32,
}

impl Default for FlexComOptions {
    fn default() -> Self {
        FlexComOptions { max_keep: 0.5, min_keep: 0.05 }
    }
}

/// Runs Syn-FL for `cfg.rounds` rounds starting from `global`.
pub fn run_synfl<M: FlModel>(
    cfg: &FlConfig,
    setup: &FlSetup<'_, M::Task>,
    global: M,
) -> RunHistory {
    run_inline(cfg, setup, global, &SyncMethod::SynFl)
}

/// Runs UP-FL ([`SyncMethod::UpFl`]).
pub fn run_upfl<M: FlModel>(
    cfg: &FlConfig,
    setup: &FlSetup<'_, M::Task>,
    global: M,
    opts: &UpFlOptions,
) -> RunHistory {
    run_inline(cfg, setup, global, &SyncMethod::UpFl(*opts))
}

/// Runs FedProx ([`SyncMethod::FedProx`]). Image models only: the
/// LSTM's local step has no proximal term, so μ would be silently
/// dropped.
pub fn run_fedprox(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: Sequential,
    opts: &FedProxOptions,
) -> RunHistory {
    run_inline(cfg, setup, global, &SyncMethod::FedProx(*opts))
}

/// Runs FlexCom ([`SyncMethod::FlexCom`]). Image models only: FlexCom
/// is not a Table IV method.
pub fn run_flexcom(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: Sequential,
    opts: &FlexComOptions,
) -> RunHistory {
    run_inline(cfg, setup, global, &SyncMethod::FlexCom(*opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::average_states;
    use crate::engine::worker_rng;
    use crate::eval::evaluate_image;
    use crate::local::local_train;
    use crate::task::ImageTask;
    use fedmp_data::{iid_partition, mnist_like, tiny_imagenet_like, BatchIter, SynthSpec};
    use fedmp_edgesim::{
        tx2_profile, ComputeMode, ComputeMode::*, LinkQuality, LinkQuality::*, TimeModel,
    };
    use fedmp_nn::zoo;
    use fedmp_tensor::parallel::sum_f32;
    use fedmp_tensor::seeded_rng;
    use rand::rngs::StdRng;

    /// `spec`'s data split IID, and the RNG that drew the split (each
    /// test builds its model from it next).
    fn task(spec: SynthSpec, seed: u64, workers: usize) -> (ImageTask, StdRng) {
        let (train, test) = spec.generate();
        let mut rng = seeded_rng(seed);
        let part = iid_partition(&train, workers, &mut rng);
        (ImageTask::new(train, test, part), rng)
    }

    /// Worker `w`'s batches of `round`, built here rather than through
    /// the engine's local step.
    fn worker_batches(
        task: &ImageTask,
        w: usize,
        batch: usize,
        seed: u64,
        round: usize,
    ) -> BatchIter<'_> {
        BatchIter::new(&task.train, task.partition[w].clone(), batch, worker_rng(seed, round, w))
    }

    /// FedAvg longhand — clone the global per worker, train, take the
    /// element-wise mean, evaluate: no plan, extraction, residual or R2SP
    /// near it. `[train loss, eval loss, accuracy]` bits per round.
    fn fedavg_reference(
        c: &FlConfig,
        setup: &FlSetup<'_>,
        mut global: Sequential,
    ) -> Vec<[u32; 3]> {
        let rounds = (0..c.rounds).map(|round| {
            let trained = (0..setup.workers()).map(|w| {
                let mut model = global.clone();
                let mut batches = worker_batches(setup.task, w, c.local.batch, c.seed, round);
                let loss = local_train(&mut model, &mut batches, &c.local).mean_loss;
                (model.state(), loss)
            });
            let (states, losses): (Vec<_>, Vec<_>) = trained.unzip();
            global.load_state(&average_states(&states));
            let eval =
                evaluate_image(&mut global, &setup.task.test, c.eval_batch, c.eval_max_samples);
            [sum_f32(losses) / setup.workers() as f32, eval.loss, eval.accuracy].map(f32::to_bits)
        });
        rounds.collect()
    }

    /// `run_synfl` equals the reference in every bit on `spec`'s task.
    fn synfl_is_fedavg_on(spec: SynthSpec, build: fn(f32, &mut StdRng) -> Sequential, width: f32) {
        let name = spec.name.clone();
        let (task, mut rng) = task(spec, 76, 3);
        let devices =
            vec![tx2_profile(Mode0, Near), tx2_profile(Mode1, Mid), tx2_profile(Mode3, Far)];
        let setup = FlSetup::new(&task, devices, TimeModel::default());
        let global = build(width, &mut rng);
        let cfg = FlConfig { rounds: 3, eval_max_samples: 64, seed: 9, ..Default::default() };

        let reference = fedavg_reference(&cfg, &setup, global.clone());
        assert_eq!(history_bits(&run_synfl(&cfg, &setup, global)), reference, "{name}");
    }

    /// `[train loss, eval loss, accuracy]` bits per round of a history
    /// evaluated every round.
    fn history_bits(h: &RunHistory) -> Vec<[u32; 3]> {
        let bits = |r: &crate::RoundRecord| {
            let (loss, acc) = r.eval.expect("evaluated every round");
            [r.train_loss, loss, acc].map(f32::to_bits)
        };
        h.rounds.iter().map(bits).collect()
    }

    #[test]
    fn synfl_matches_an_independent_fedavg_reference() {
        // ρ = 0 through plan → extract → residual → recover → R2SP must
        // *be* FedAvg, batch-norm statistics included; nothing else
        // checks that against code that shares none of those steps.
        synfl_is_fedavg_on(mnist_like(0.1, 74), zoo::cnn_mnist, 0.15);
        synfl_is_fedavg_on(tiny_imagenet_like(0.1, 75), zoo::resnet_tiny, 0.1);
    }

    /// FlexCom longhand, as `fedavg_reference` with a sparse upload:
    /// per tensor, worker n sends the `⌈keep·numel⌉` largest |·| of
    /// `corrected = trained − global + eₙ` (a full sort, ties to the
    /// lower index) and keeps the rest as `eₙ`; the global becomes the
    /// element-wise mean of `global + sent`. No plan, extraction,
    /// residual, R2SP or wire codec near it.
    fn flexcom_reference(
        c: &FlConfig,
        setup: &FlSetup<'_>,
        mut global: Sequential,
        keeps: &[f32],
    ) -> Vec<[u32; 3]> {
        let mut errors: Vec<Vec<Vec<f32>>> = vec![Vec::new(); setup.workers()];
        let mut rounds = Vec::new();
        for round in 0..c.rounds {
            let base = global.state();
            let mut sent = Vec::new();
            let mut losses = Vec::new();
            for (w, (feedback, &keep)) in errors.iter_mut().zip(keeps).enumerate() {
                let mut model = global.clone();
                let mut batches = worker_batches(setup.task, w, c.local.batch, c.seed, round);
                losses.push(local_train(&mut model, &mut batches, &c.local).mean_loss);
                let mut state = model.state();
                feedback.resize_with(state.len(), Vec::new);
                for ((entry, g), e) in state.iter_mut().zip(&base).zip(feedback.iter_mut()) {
                    let g = g.tensor.data();
                    let n = g.len();
                    e.resize(n, 0.0);
                    let trained = entry.tensor.data();
                    let corrected: Vec<f32> = (0..n).map(|i| trained[i] - g[i] + e[i]).collect();
                    let mut order: Vec<usize> = (0..n).collect();
                    order.sort_by(|&a, &b| {
                        corrected[b].abs().total_cmp(&corrected[a].abs()).then(a.cmp(&b))
                    });
                    let k = ((n as f64 * f64::from(keep)).ceil() as usize).clamp(1, n);
                    let out = entry.tensor.data_mut();
                    out.copy_from_slice(g);
                    e.copy_from_slice(&corrected);
                    for &i in &order[..k] {
                        out[i] = g[i] + corrected[i];
                        e[i] = 0.0;
                    }
                }
                sent.push(state);
            }
            global.load_state(&average_states(&sent));
            let eval =
                evaluate_image(&mut global, &setup.task.test, c.eval_batch, c.eval_max_samples);
            let train = sum_f32(losses) / setup.workers() as f32;
            rounds.push([train, eval.loss, eval.accuracy].map(f32::to_bits));
        }
        rounds
    }

    #[test]
    fn flexcom_matches_an_independent_reference() {
        // Per-tensor top-k with error feedback through the round body's
        // TopK uplink and R2SP at ρ = 0 must *be* FlexCom longhand; the
        // rounds after the first check the feedback carries over.
        let (task, mut rng) = task(mnist_like(0.1, 77), 78, 3);
        let devices =
            vec![tx2_profile(Mode0, Near), tx2_profile(Mode1, Mid), tx2_profile(Mode3, Far)];
        let setup = FlSetup::new(&task, devices, TimeModel::default());
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 3, eval_max_samples: 64, seed: 11, ..Default::default() };
        let opts = FlexComOptions::default();

        // Near, Mid, Far: 80, 40 and 12 Mbit/s against max_keep 0.5.
        let keeps = [0.5, 0.25, 0.5 * (12.0e6 / 80.0e6) as f32];
        let reference = flexcom_reference(&cfg, &setup, global.clone(), &keeps);
        assert_eq!(history_bits(&run_flexcom(&cfg, &setup, global, &opts)), reference);
    }

    #[test]
    fn flexcom_learns_and_cuts_upload_time() {
        let (train, test) = mnist_like(0.1, 110).generate();
        let mut rng = seeded_rng(111);
        let part = iid_partition(&train, 3, &mut rng);
        let task = ImageTask::new(train, test, part);
        let devices = vec![
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
            tx2_profile(ComputeMode::Mode2, LinkQuality::Far),
        ];
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 10, eval_every: 5, ..Default::default() };
        let h = run_flexcom(&cfg, &setup, global.clone(), &FlexComOptions::default());
        assert!(h.final_accuracy().unwrap() > 0.4, "accuracy {:?}", h.final_accuracy());

        // Communication time is lower than Syn-FL's, compute identical.
        let syn = crate::engines::baselines::run_synfl(&cfg, &setup, global);
        assert!(h.rounds[0].mean_comm < syn.rounds[0].mean_comm);
        assert!((h.rounds[0].mean_comp - syn.rounds[0].mean_comp).abs() < 1e-9);
    }

    #[test]
    fn slowest_device_dictates_round_time() {
        let (task, mut rng) = task(mnist_like(0.05, 72), 73, 2);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 1, ..Default::default() };

        let fast =
            FlSetup::new(&task, vec![tx2_profile(Mode0, Near); 2], TimeModel::deterministic());
        let mixed = FlSetup::new(
            &task,
            vec![tx2_profile(Mode0, Near), tx2_profile(Mode3, Far)],
            TimeModel::deterministic(),
        );
        let t_fast = run_synfl(&cfg, &fast, global.clone()).total_time();
        let t_mixed = run_synfl(&cfg, &mixed, global).total_time();
        assert!(t_mixed > 2.0 * t_fast, "straggler not dominating: {t_fast} vs {t_mixed}");
    }

    #[test]
    fn upfl_learns_and_uses_one_ratio_per_round() {
        let (task, mut rng) = task(mnist_like(0.1, 90), 91, 3);
        let devices =
            vec![tx2_profile(Mode0, Near), tx2_profile(Mode1, Mid), tx2_profile(Mode3, Far)];
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 14, eval_every: 7, ..Default::default() };
        let h = run_upfl(&cfg, &setup, global, &UpFlOptions::default());

        assert!(h.final_accuracy().unwrap() > 0.25, "{:?}", h.final_accuracy());
        for r in &h.rounds {
            let first = r.ratios[0];
            assert!(r.ratios.iter().all(|&x| x == first), "non-uniform ratios in UP-FL");
        }
    }

    #[test]
    fn fedprox_learns_and_narrows_compute_gap() {
        let (task, mut rng) = task(mnist_like(0.1, 100), 101, 2);
        let devices = vec![tx2_profile(Mode0, Near), tx2_profile(Mode3, Near)];
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 14, eval_every: 7, ..Default::default() };
        let h = run_fedprox(&cfg, &setup, global.clone(), &FedProxOptions::default());
        assert!(h.final_accuracy().unwrap() > 0.25, "{:?}", h.final_accuracy());

        // τ-scaling shrinks the straggler's round time vs Syn-FL.
        let syn = run_synfl(&cfg, &setup, global);
        assert!(h.rounds[0].round_time < syn.rounds[0].round_time);
    }
}
