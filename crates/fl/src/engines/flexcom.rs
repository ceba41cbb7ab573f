//! FlexCom (Li et al. [13]): flexible communication compression for
//! heterogeneous edges. Every worker trains the **full** model (no
//! compute savings) but uploads a top-k-sparsified update whose keep
//! fraction is proportional to its link bandwidth, with error feedback.
//! The selection and the feedback update are the wire's top-k codec's;
//! the sparsity is over the whole flattened model, not per entry.

use crate::engine::{
    emit_aggregate, emit_kernel_dispatch, emit_local_train, emit_round_end, emit_round_start,
    evaluate_if_due, kernel_baseline, model_round_cost, round_times, worker_batches, FlConfig,
    FlSetup,
};
use crate::exec;
use crate::history::{RoundRecord, RunHistory};
use crate::local::local_train;
use crate::wire::{topk_indices, update_sparse_residual};
use fedmp_nn::{Sequential, StateEntry};
use fedmp_tensor::parallel::sum_f32;
use fedmp_tensor::ExactVec;
use serde::{Deserialize, Serialize};

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

/// A state's values in entry order.
fn flatten(state: &[StateEntry]) -> impl Iterator<Item = f32> + '_ {
    state.iter().flat_map(|e| e.tensor.data().iter().copied())
}

/// Runs FlexCom: full local training, bandwidth-proportional top-k
/// upload compression with per-worker error feedback, FedAvg on the
/// densified updates.
pub fn run_flexcom(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    mut global: Sequential,
    opts: &FlexComOptions,
) -> RunHistory {
    let workers = setup.workers();
    let mut history = RunHistory::new("FlexCom");
    let mut sim_time = 0.0f64;

    let max_bw = setup.devices.iter().map(|d| d.bandwidth()).fold(0.0, f64::max);
    let keep: Vec<f32> = setup
        .devices
        .iter()
        .map(|d| (opts.max_keep * (d.bandwidth() / max_bw) as f32).clamp(opts.min_keep, 1.0))
        .collect();
    // Each worker's untransmitted update mass, over the flattened model.
    let len = flatten(&global.state()).count();
    let mut errors = vec![vec![0.0f32; len]; workers];

    let mut kstats = kernel_baseline();
    let everyone: Vec<usize> = (0..workers).collect();

    for round in 0..cfg.rounds {
        emit_round_start(round, sim_time, &everyone);
        let mut global_state = global.state();
        // Full local training, fanned across the round executor. The
        // compressors stay out of the closure: they carry error-feedback
        // state across rounds, so they run sequentially below.
        let results = exec::ordered_map(everyone.clone(), |_, w| {
            let mut model = global.clone();
            let mut batches = worker_batches(setup.task, w, cfg.local.batch, cfg.seed, round);
            let outcome = local_train(&mut model, &mut batches, &cfg.local);
            (model.state(), outcome)
        });

        // Compress each worker's error-corrected update to its
        // ⌈len · keep⌉ largest coordinates (sequential: the residuals
        // carry error-feedback state across rounds).
        let mut uploads = Vec::with_capacity(workers);
        for (w, (state, _)) in results.iter().enumerate() {
            let corrected: Vec<f32> = flatten(state)
                .zip(flatten(&global_state))
                .zip(&errors[w])
                .map(|((s, g), e)| s - g + e)
                .collect();
            let k = ((len as f32 * keep[w]).ceil() as usize).max(1);
            let indices = topk_indices(&corrected, k);
            let sent: Vec<f32> = indices.iter().map(|&i| corrected[i as usize]).collect();
            update_sparse_residual(&mut errors[w], &corrected, &indices, &sent);
            uploads.push((indices, sent));
        }

        // Timing: full download + compute, sparse upload at a 4-byte
        // index plus a 4-byte value per coordinate.
        let base = model_round_cost(&global, setup.task.input_chw, &cfg.local);
        let costs: Vec<_> = uploads
            .iter()
            .map(|(indices, _)| {
                let mut c = base;
                c.upload_bytes = (indices.len() * 8) as f64;
                c
            })
            .collect();
        let (times, mean_comp, mean_comm) = round_times(setup, &costs, cfg.seed, round);
        let round_time = times.iter().map(|t| t.total()).fold(0.0, f64::max);
        sim_time += round_time;
        for (w, ((_, o), t)) in results.iter().zip(times.iter()).enumerate() {
            let scaled = setup.scaled_cost(&costs[w]);
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

        // Aggregate: global += mean(densified updates), each coordinate
        // summed exactly as `average_states` does.
        let mut sum = ExactVec::new(len);
        for (indices, sent) in &uploads {
            let mut dense = vec![0.0f32; len];
            for (&i, &v) in indices.iter().zip(sent) {
                dense[i as usize] = v;
            }
            sum.add(&dense);
        }
        let inv = 1.0 / workers as f32;
        let params = global_state.iter_mut().flat_map(|e| e.tensor.data_mut().iter_mut());
        for (g, s) in params.zip(sum.sums()) {
            *g += s.value() * inv;
        }
        global.load_state(&global_state);
        emit_aggregate(round, "FedAvg+topk", workers);

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
}
