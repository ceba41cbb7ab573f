//! Syn-FL: synchronous full-model FedAvg (McMahan et al. [5]) — the
//! paper's primary baseline. Every worker trains and transmits the
//! entire model; the PS waits for all of them.

use crate::aggregate::average_states;
use crate::engine::{
    barrier_time, emit_aggregate, emit_kernel_dispatch, emit_local_train, emit_round_end,
    emit_round_start_all, evaluate_if_due, kernel_baseline, model_round_cost, round_times,
    worker_batches, FlConfig, FlSetup,
};
use crate::exec;
use crate::history::{RoundRecord, RunHistory};
use crate::local::local_train;
use fedmp_nn::Sequential;
use fedmp_tensor::parallel::sum_f32;

/// Runs Syn-FL for `cfg.rounds` rounds starting from `global`.
pub fn run_synfl(cfg: &FlConfig, setup: &FlSetup<'_>, mut global: Sequential) -> RunHistory {
    let mut history = RunHistory::new("Syn-FL");
    let mut sim_time = 0.0f64;
    let workers = setup.workers();
    let mut kstats = kernel_baseline();

    for round in 0..cfg.rounds {
        emit_round_start_all(round, sim_time, workers);
        // Local training, fanned across the round executor: every
        // worker gets the full global model; timing, aggregation and
        // trace emission below stay in fixed worker order.
        let results = exec::ordered_map((0..workers).collect(), |_, w| {
            let mut model = global.clone();
            let mut batches = worker_batches(setup.task, w, cfg.local.batch, cfg.seed, round);
            let outcome = local_train(&mut model, &mut batches, &cfg.local);
            (model.state(), outcome)
        });

        // Timing: full-model cost for everyone.
        let cost = model_round_cost(&global, setup.task.input_chw, &cfg.local);
        let costs = vec![cost; workers];
        let (times, mean_comp, mean_comm) = round_times(setup, &costs, cfg.seed, round);
        let round_time = barrier_time(&times);
        sim_time += round_time;
        let scaled = setup.scaled_cost(&cost);
        for (w, ((_, o), t)) in results.iter().zip(times.iter()).enumerate() {
            emit_local_train(
                round,
                w,
                0.0,
                o.mean_loss,
                o.delta_loss(),
                cfg.local.tau,
                o.samples,
                t,
                &scaled,
            );
        }

        // Aggregation: plain FedAvg.
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
    use crate::engine::FlConfig;
    use crate::task::ImageTask;
    use fedmp_data::{iid_partition, mnist_like};
    use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
    use fedmp_nn::zoo;
    use fedmp_tensor::seeded_rng;

    #[test]
    fn synfl_learns_on_iid_data() {
        let (train, test) = mnist_like(0.15, 70).generate();
        let mut rng = seeded_rng(71);
        let part = iid_partition(&train, 4, &mut rng);
        let task = ImageTask::new(train, test, part);
        let devices = vec![tx2_profile(ComputeMode::Mode0, LinkQuality::Near); 4];
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

    #[test]
    fn slowest_device_dictates_round_time() {
        let (train, test) = mnist_like(0.05, 72).generate();
        let mut rng = seeded_rng(73);
        let part = iid_partition(&train, 2, &mut rng);
        let task = ImageTask::new(train, test, part);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 1, ..Default::default() };

        let fast = FlSetup::new(
            &task,
            vec![tx2_profile(ComputeMode::Mode0, LinkQuality::Near); 2],
            TimeModel::deterministic(),
        );
        let mixed = FlSetup::new(
            &task,
            vec![
                tx2_profile(ComputeMode::Mode0, LinkQuality::Near),
                tx2_profile(ComputeMode::Mode3, LinkQuality::Far),
            ],
            TimeModel::deterministic(),
        );
        let t_fast = run_synfl(&cfg, &fast, global.clone()).total_time();
        let t_mixed = run_synfl(&cfg, &mixed, global).total_time();
        assert!(t_mixed > 2.0 * t_fast, "straggler not dominating: {t_fast} vs {t_mixed}");
    }
}
