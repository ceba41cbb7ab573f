//! UP-FL: uniform-pruning FL (Jiang et al. [15] adapted to structured
//! pruning). One pruning ratio is chosen **for all workers** each round
//! — it adapts over rounds (a single shared E-UCB agent) but ignores
//! heterogeneity, so the weakest worker still gates every round.

use crate::aggregate::r2sp_aggregate;
use crate::engine::{
    barrier_time, emit_aggregate, emit_kernel_dispatch, emit_local_train, emit_round_end,
    emit_round_start_all, evaluate_if_due, kernel_baseline, model_round_cost, round_times,
    worker_batches, FlConfig, FlSetup,
};
use crate::exec;
use crate::history::{RoundRecord, RunHistory};
use crate::local::local_train;
use fedmp_bandit::{Bandit, EUcbAgent, EUcbConfig};
use fedmp_nn::{state_sub, Sequential};
use fedmp_pruning::{extract_sequential, plan_sequential, recover_state, sparse_state};
use fedmp_tensor::parallel::sum_f32;
use serde::{Deserialize, Serialize};

/// UP-FL options.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UpFlOptions {
    /// Shared E-UCB configuration for the single round-ratio agent.
    pub eucb: EUcbConfig,
}

/// Runs UP-FL. The shared agent's reward is the mean local loss
/// improvement per unit of round time — the natural uniform-ratio
/// analogue of Eq. 8 (there is no per-worker completion-time gap to
/// measure when everyone trains the same model).
pub fn run_upfl(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    mut global: Sequential,
    opts: &UpFlOptions,
) -> RunHistory {
    let workers = setup.workers();
    let mut history = RunHistory::new("UP-FL");
    let mut sim_time = 0.0f64;
    let mut agent = {
        let mut c = opts.eucb;
        c.seed = c.seed.wrapping_add(cfg.seed);
        EUcbAgent::new(c)
    };

    let mut kstats = kernel_baseline();

    for round in 0..cfg.rounds {
        emit_round_start_all(round, sim_time, workers);
        let ratio = agent.select();
        let plan = plan_sequential(&global, setup.task.input_chw, ratio);
        let sub = extract_sequential(&global, &plan);
        let residual = state_sub(&global.state(), &sparse_state(&global, &plan));

        // Local training on the shared sub-model, fanned across the
        // round executor; everything order-sensitive stays below.
        let results = exec::ordered_map((0..workers).collect(), |_, w| {
            let mut model = sub.clone();
            let mut batches = worker_batches(setup.task, w, cfg.local.batch, cfg.seed, round);
            let outcome = local_train(&mut model, &mut batches, &cfg.local);
            (model, outcome)
        });

        let cost = model_round_cost(&sub, setup.task.input_chw, &cfg.local);
        let costs = vec![cost; workers];
        let (times, mean_comp, mean_comm) = round_times(setup, &costs, cfg.seed, round);
        let round_time = barrier_time(&times);
        sim_time += round_time;
        let scaled = setup.scaled_cost(&cost);
        for (w, ((_, o), t)) in results.iter().zip(times.iter()).enumerate() {
            emit_local_train(
                round,
                w,
                ratio,
                o.mean_loss,
                o.delta_loss(),
                cfg.local.tau,
                o.samples,
                t,
                &scaled,
            );
        }

        let mean_delta = sum_f32(results.iter().map(|(_, o)| o.delta_loss())) / workers as f32;
        agent.observe(mean_delta / round_time.max(1e-6) as f32);

        let recovered: Vec<_> =
            results.iter().map(|(m, _)| recover_state(m, &plan, &global)).collect();
        let residuals = vec![residual; workers];
        global.load_state(&r2sp_aggregate(&recovered, &residuals));
        emit_aggregate(round, "R2SP", workers);

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
            ratios: vec![ratio; workers],
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
    fn upfl_learns_and_uses_one_ratio_per_round() {
        let (train, test) = mnist_like(0.1, 90).generate();
        let mut rng = seeded_rng(91);
        let part = iid_partition(&train, 3, &mut rng);
        let task = ImageTask::new(train, test, part);
        let devices = vec![
            tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
            tx2_profile(ComputeMode::Mode1, LinkQuality::Mid),
            tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
        ];
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
}
