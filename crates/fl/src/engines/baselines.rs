//! The synchronous baselines that are Algorithm 1 with a different
//! ρ-picker: configurations of [`crate::runtime::run_rounds`] over the
//! inline exchange, every other [`FedMpOptions`] field at its default.
//!
//! - **Syn-FL** (McMahan et al. [5]), the paper's primary baseline:
//!   full-model FedAvg is ρ ≡ 0 — R2SP with an all-zero residual *is*
//!   FedAvg, bit for bit (`ExactSum` ignores ±0).
//! - **UP-FL** (Jiang et al. [15] adapted to structured pruning): one
//!   ratio **for all workers** each round. It adapts over rounds (a
//!   single shared E-UCB agent) but ignores heterogeneity, so the
//!   weakest worker still gates every round.
//! - **FedProx** (Li et al. [19]): ρ ≡ 0 with a proximal term and
//!   **capability-scaled local iteration counts** — weak workers do
//!   fewer local steps so they finish closer to the strong ones, but
//!   every worker still trains and transmits the full model.

use crate::engine::{FlConfig, FlSetup};
use crate::engines::fedmp::{run_inline, FedMpOptions};
use crate::history::RunHistory;
use crate::local::LocalTrainConfig;
use crate::runtime::{seeded_agent, RatioPolicy, RoundMethod};
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

/// Runs Syn-FL for `cfg.rounds` rounds starting from `global`.
pub fn run_synfl(cfg: &FlConfig, setup: &FlSetup<'_>, global: Sequential) -> RunHistory {
    let locals = vec![cfg.local; setup.workers()];
    let method =
        RoundMethod { name: "Syn-FL", scheme: "FedAvg", policy: RatioPolicy::Dense, locals };
    run_inline(cfg, setup, global, &FedMpOptions::default(), method)
}

/// Runs UP-FL: one shared agent picks the round's ratio, rewarded by
/// the mean local loss improvement per unit of round time.
pub fn run_upfl(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: Sequential,
    opts: &UpFlOptions,
) -> RunHistory {
    let policy = RatioPolicy::Shared(seeded_agent(opts.eucb, cfg.seed));
    let locals = vec![cfg.local; setup.workers()];
    let method = RoundMethod { name: "UP-FL", scheme: "R2SP", policy, locals };
    run_inline(cfg, setup, global, &FedMpOptions::default(), method)
}

/// Runs FedProx. Worker n performs `τₙ = max(min_tau, τ · φₙ/φ_max)`
/// local iterations, where φₙ is its device throughput.
pub fn run_fedprox(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    global: Sequential,
    opts: &FedProxOptions,
) -> RunHistory {
    let max_flops = setup.devices.iter().map(|d| d.flops()).fold(0.0, f64::max);
    let local = |d: &fedmp_edgesim::DeviceProfile| {
        let scaled = (cfg.local.tau as f64 * d.flops() / max_flops).round() as usize;
        LocalTrainConfig { tau: scaled.max(opts.min_tau), prox_mu: opts.mu, ..cfg.local }
    };
    let locals = setup.devices.iter().map(local).collect();
    let method =
        RoundMethod { name: "FedProx", scheme: "FedAvg", policy: RatioPolicy::Dense, locals };
    run_inline(cfg, setup, global, &FedMpOptions::default(), method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::average_states;
    use crate::engine::worker_batches;
    use crate::eval::evaluate_image;
    use crate::local::local_train;
    use crate::task::ImageTask;
    use fedmp_data::{iid_partition, mnist_like, tiny_imagenet_like, SynthSpec};
    use fedmp_edgesim::{tx2_profile, ComputeMode::*, LinkQuality::*, TimeModel};
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

    #[test]
    fn synfl_learns_on_iid_data() {
        let (task, mut rng) = task(mnist_like(0.15, 70), 71, 4);
        let devices = vec![tx2_profile(Mode0, Near); 4];
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 12, eval_every: 3, ..Default::default() };
        let h = run_synfl(&cfg, &setup, global);

        assert_eq!(h.rounds.len(), 12);
        let final_acc = h.final_accuracy().expect("evaluated");
        assert!(final_acc > 0.5, "Syn-FL accuracy only {final_acc}");
        // Virtual time accumulates monotonically.
        assert!(h.rounds.windows(2).all(|w| w[1].sim_time > w[0].sim_time));
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
        let bits = |r: &crate::RoundRecord| {
            let (loss, acc) = r.eval.expect("evaluated every round");
            [r.train_loss, loss, acc].map(f32::to_bits)
        };
        let got: Vec<[u32; 3]> = run_synfl(&cfg, &setup, global).rounds.iter().map(bits).collect();
        assert_eq!(got, reference, "{name}");
    }

    #[test]
    fn synfl_matches_an_independent_fedavg_reference() {
        // ρ = 0 through plan → extract → residual → recover → R2SP must
        // *be* FedAvg, batch-norm statistics included; nothing else
        // checks that against code that shares none of those steps.
        synfl_is_fedavg_on(mnist_like(0.1, 74), zoo::cnn_mnist, 0.15);
        synfl_is_fedavg_on(tiny_imagenet_like(0.1, 75), zoo::resnet_tiny, 0.1);
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
