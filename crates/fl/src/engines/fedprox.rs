//! FedProx (Li et al. [19]): heterogeneity-aware FL via a proximal term
//! and **capability-scaled local iteration counts** — weak workers do
//! fewer local steps so they finish closer to the strong ones, but every
//! worker still trains and transmits the full model.

use crate::aggregate::average_states;
use crate::engine::{
    barrier_time, emit_aggregate, emit_kernel_dispatch, emit_local_train, emit_round_end,
    emit_round_start_all, evaluate_if_due, kernel_baseline, model_round_cost, round_times,
    worker_batches, FlConfig, FlSetup,
};
use crate::exec;
use crate::history::{RoundRecord, RunHistory};
use crate::local::{local_train, LocalTrainConfig};
use fedmp_nn::Sequential;
use fedmp_tensor::parallel::sum_f32;
use serde::{Deserialize, Serialize};

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

/// Runs FedProx. Worker n performs `τₙ = max(min_tau, τ · φₙ/φ_max)`
/// local iterations, where φₙ is its device throughput.
pub fn run_fedprox(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    mut global: Sequential,
    opts: &FedProxOptions,
) -> RunHistory {
    let workers = setup.workers();
    let mut history = RunHistory::new("FedProx");
    let mut sim_time = 0.0f64;

    let max_flops = setup.devices.iter().map(|d| d.flops()).fold(0.0, f64::max);
    let taus: Vec<usize> = setup
        .devices
        .iter()
        .map(|d| {
            let scaled = (cfg.local.tau as f64 * d.flops() / max_flops).round() as usize;
            scaled.max(opts.min_tau)
        })
        .collect();

    let mut kstats = kernel_baseline();

    for round in 0..cfg.rounds {
        emit_round_start_all(round, sim_time, workers);
        // Local training with per-worker τ, fanned across the round
        // executor; `taus` is read-only shared state.
        let results = exec::ordered_map((0..workers).collect(), |_, w| {
            let mut model = global.clone();
            let mut batches = worker_batches(setup.task, w, cfg.local.batch, cfg.seed, round);
            let local = LocalTrainConfig { tau: taus[w], prox_mu: opts.mu, ..cfg.local };
            let outcome = local_train(&mut model, &mut batches, &local);
            (model.state(), outcome)
        });

        // Full-model comm; compute scaled by per-worker τ.
        let base = model_round_cost(&global, setup.task.input_chw, &cfg.local);
        let costs: Vec<_> = taus
            .iter()
            .map(|&t| {
                let mut c = base;
                c.train_flops = c.train_flops * t as f64 / cfg.local.tau as f64;
                c
            })
            .collect();
        let (times, mean_comp, mean_comm) = round_times(setup, &costs, cfg.seed, round);
        let round_time = barrier_time(&times);
        sim_time += round_time;
        for (w, ((_, o), t)) in results.iter().zip(times.iter()).enumerate() {
            let scaled = setup.scaled_cost(&costs[w]);
            emit_local_train(
                round,
                w,
                0.0,
                o.mean_loss,
                o.delta_loss(),
                taus[w],
                o.samples,
                t,
                &scaled,
            );
        }

        let states: Vec<_> = results.iter().map(|(s, _)| s.clone()).collect();
        global.load_state(&average_states(&states));
        emit_aggregate(round, "FedAvg", workers);

        let train_loss = sum_f32(results.iter().map(|(_, o)| o.mean_loss)) / workers as f32;
        let eval = evaluate_if_due(cfg, round, &mut global, setup.task);
        emit_kernel_dispatch(round, &mut kstats);
        let rec = RoundRecord {
            round,
            sim_time,
            round_time,
            mean_comp,
            mean_comm,
            train_loss,
            eval,
            ratios: vec![],
            participants: workers,
            ..Default::default()
        };
        emit_round_end(&rec);
        history.rounds.push(rec);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ImageTask;
    use fedmp_data::{iid_partition, mnist_like};
    use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
    use fedmp_nn::zoo;
    use fedmp_tensor::seeded_rng;

    #[test]
    fn fedprox_learns_and_narrows_compute_gap() {
        let (train, test) = mnist_like(0.1, 100).generate();
        let mut rng = seeded_rng(101);
        let part = iid_partition(&train, 2, &mut rng);
        let task = ImageTask::new(train, test, part);
        let devices = vec![
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode3, LinkQuality::Near),
        ];
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 14, eval_every: 7, ..Default::default() };
        let h = run_fedprox(&cfg, &setup, global.clone(), &FedProxOptions::default());
        assert!(h.final_accuracy().unwrap() > 0.25, "{:?}", h.final_accuracy());

        // τ-scaling shrinks the straggler's round time vs Syn-FL.
        let syn = crate::engines::synfl::run_synfl(&cfg, &setup, global);
        assert!(h.rounds[0].round_time < syn.rounds[0].round_time);
    }
}
