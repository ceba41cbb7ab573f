//! The §VI RNN extension: federated training of the 2-layer LSTM
//! language model with ISS pruning (Table IV compares Syn-FL, UP-FL and
//! FedMP on perplexity). [`LstmLm`] is a [`FlModel`] on an [`LmTask`],
//! so the Table IV methods are the image methods' own entry points —
//! [`crate::run_synfl`], [`crate::run_upfl`] and [`crate::run_fedmp`] on
//! an `FlSetup<'_, LmTask>`.

use crate::engine::{FlConfig, FlModel, Workers};
use crate::eval::evaluate_lm;
use crate::local::{LocalOutcome, LocalTrainConfig};
use fedmp_data::TextBatch;
use fedmp_edgesim::RoundCost;
use fedmp_nn::{clip_grad_norm, lstm_cost_per_token, LstmLm, Sgd, StateEntry};
use fedmp_pruning::{extract_lstm, plan_lstm, recover_lstm_state, Importance, LstmPlan};
use fedmp_tensor::cross_entropy_loss;

/// The federated LM task: one pre-batched corpus lane per worker and
/// the held-out batches the PS evaluates on.
#[derive(Debug, Clone)]
pub struct LmTask {
    /// Per-worker training batches (each worker owns a corpus lane).
    pub worker_batches: Vec<Vec<TextBatch>>,
    /// Held-out evaluation batches.
    pub eval_batches: Vec<TextBatch>,
}

impl LmTask {
    /// Builds a task, rejecting a corpus too short for one batch per
    /// lane or for one evaluation batch: the local step and the Eq. 5
    /// token count both index into a lane.
    pub fn new(worker_batches: Vec<Vec<TextBatch>>, eval_batches: Vec<TextBatch>) -> Self {
        assert!(!worker_batches.is_empty(), "task needs at least one worker lane");
        for (w, lane) in worker_batches.iter().enumerate() {
            assert!(!lane.is_empty(), "worker {w} has an empty lane");
        }
        assert!(!eval_batches.is_empty(), "task needs at least one evaluation batch");
        LmTask { worker_batches, eval_batches }
    }
}

impl Workers for LmTask {
    type Model = LstmLm;

    fn workers(&self) -> usize {
        self.worker_batches.len()
    }
}

impl FlModel for LstmLm {
    type Task = LmTask;
    type Plan = LstmPlan;
    const TIME_SALT: u64 = 0x77;

    /// ISS ranks hidden units by L1 importance whatever `importance` says.
    fn plan(&self, _: &LmTask, ratio: f32, _: Importance) -> LstmPlan {
        plan_lstm(self, ratio)
    }

    fn extract(&self, plan: &LstmPlan) -> Self {
        extract_lstm(self, plan)
    }

    fn recover(&self, plan: &LstmPlan, global: &Self) -> Vec<StateEntry> {
        recover_lstm_state(self, plan, global)
    }

    fn round_cost(&self, task: &LmTask, local: &LocalTrainConfig) -> RoundCost {
        let report = lstm_cost_per_token(self);
        let tokens = task.worker_batches[0][0].targets.len();
        RoundCost {
            train_flops: report.flops_per_sample as f64 * 3.0 * (tokens * local.tau) as f64,
            download_bytes: report.param_bytes() as f64,
            upload_bytes: report.param_bytes() as f64,
        }
    }

    /// Step `t` takes batch `(round·τ + worker + t) mod len` of the
    /// worker's lane, and `samples` counts tokens. The lanes are
    /// pre-built, so `seed` and `local.batch` go unused, as does
    /// `local.prox_mu` (no LM method is FedProx).
    fn train(
        &mut self,
        task: &LmTask,
        worker: usize,
        _: u64,
        round: usize,
        local: &LocalTrainConfig,
    ) -> LocalOutcome {
        let lane = &task.worker_batches[worker];
        let mut opt = Sgd::with_momentum(local.lr, local.momentum, 0.0);
        let (mut first_loss, mut last_loss, mut total, mut samples) = (0.0f32, 0.0f32, 0.0f32, 0);
        for t in 0..local.tau {
            let b = &lane[(round * local.tau + worker + t) % lane.len()];
            self.zero_grad();
            let out = cross_entropy_loss(&self.forward(&b.inputs), &b.targets);
            self.backward(&out.grad_logits);
            if local.clip > 0.0 {
                clip_grad_norm(self, local.clip);
            }
            opt.step(self);
            if t == 0 {
                first_loss = out.loss;
            }
            last_loss = out.loss;
            total += out.loss;
            samples += b.targets.len();
        }
        LocalOutcome { first_loss, last_loss, mean_loss: total / local.tau as f32, samples }
    }

    /// `(loss, perplexity)`: the metric slot holds perplexity.
    fn evaluate(&mut self, task: &LmTask, cfg: &FlConfig) -> (f32, f32) {
        let r = evaluate_lm(self, &task.eval_batches, cfg.eval_max_samples);
        (r.loss, r.accuracy)
    }

    fn state(&self) -> Vec<StateEntry> {
        LstmLm::state(self)
    }

    fn load_state(&mut self, state: &[StateEntry]) {
        LstmLm::load_state(self, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FlSetup, SyncScheme};
    use crate::engines::baselines::run_synfl;
    use crate::engines::fedmp::{run_fedmp, FedMpOptions};
    use crate::history::{RoundRecord, RunHistory};
    use fedmp_data::ptb_like;
    use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality, TimeModel};
    use fedmp_nn::zoo;
    use fedmp_tensor::parallel::sum_f32;
    use fedmp_tensor::seeded_rng;

    fn lm_task(workers: usize) -> LmTask {
        let corpus = ptb_like(30, 20_000, 7);
        let (train, eval) = corpus.split(0.9);
        let lane = train.len() / workers;
        let worker_batches: Vec<Vec<TextBatch>> = (0..workers)
            .map(|w| {
                let t = fedmp_data::TextDataset {
                    tokens: train.tokens[w * lane..(w + 1) * lane].to_vec(),
                    vocab: train.vocab,
                };
                t.batches(4, 8)
            })
            .collect();
        LmTask::new(worker_batches, eval.batches(4, 8))
    }

    /// `task`'s fleet: Near and Mid links, alternating.
    fn fleet(task: &LmTask) -> FlSetup<'_, LmTask> {
        let devices = (0..task.workers())
            .map(|i| {
                if i % 2 == 0 {
                    tx2_profile(ComputeMode::Mode0, LinkQuality::Near)
                } else {
                    tx2_profile(ComputeMode::Mode2, LinkQuality::Mid)
                }
            })
            .collect();
        FlSetup::new(task, devices, TimeModel::deterministic())
    }

    /// The LM's configuration: τ = 4 at lr 0.4, momentum 0.9 and clip 5
    /// from the default, at most 8 evaluation batches.
    fn lm_config() -> FlConfig {
        let local = LocalTrainConfig { tau: 4, lr: 0.4, ..Default::default() };
        FlConfig { local, eval_max_samples: 8, ..Default::default() }
    }

    /// LM FedAvg longhand — clone the global per worker, τ momentum-SGD
    /// steps clipped at norm 5 on batches `(round·τ + w + t) mod len`,
    /// element-wise mean, evaluate: no ISS plan, extraction, residual or
    /// R2SP near it. `[train loss, eval loss, perplexity]` bits per round.
    fn lm_fedavg_reference(task: &LmTask, cfg: &FlConfig, mut global: LstmLm) -> Vec<[u32; 3]> {
        let (workers, tau) = (task.worker_batches.len(), cfg.local.tau);
        let rounds = (0..cfg.rounds).map(|round| {
            let trained = task.worker_batches.iter().enumerate().map(|(w, lane)| {
                let mut model = global.clone();
                let mut opt = Sgd::with_momentum(cfg.local.lr, 0.9, 0.0);
                let mut total = 0.0f32;
                for t in 0..tau {
                    let b = &lane[(round * tau + w + t) % lane.len()];
                    model.zero_grad();
                    let out = cross_entropy_loss(&model.forward(&b.inputs), &b.targets);
                    model.backward(&out.grad_logits);
                    clip_grad_norm(&mut model, 5.0);
                    opt.step(&mut model);
                    total += out.loss;
                }
                (model.state(), total / tau as f32)
            });
            let (states, losses): (Vec<_>, Vec<_>) = trained.unzip();
            global.load_state(&crate::aggregate::average_states(&states));
            let eval = evaluate_lm(&mut global, &task.eval_batches, cfg.eval_max_samples);
            [sum_f32(losses) / workers as f32, eval.loss, eval.accuracy].map(f32::to_bits)
        });
        rounds.collect()
    }

    #[test]
    fn lm_synfl_matches_an_independent_fedavg_reference() {
        // ISS at ρ = 0 through plan → extract → residual → recover → R2SP
        // must *be* LM FedAvg; the later rounds check the batch rotation
        // and the momentum-SGD step against code that shares none of it.
        let task = lm_task(3);
        // Weights ×3, so that some steps' gradient norms pass the clip of
        // 5 (at zoo scale they stay below 2 and the clip never fires).
        let mut global = zoo::lstm_ptb(30, 0.15, &mut seeded_rng(133));
        global.load_state(&fedmp_nn::state_scale(&global.state(), 3.0));
        let cfg = FlConfig { rounds: 3, eval_every: 1, seed: 5, ..lm_config() };
        let reference = lm_fedavg_reference(&task, &cfg, global.clone());
        let h = run_synfl(&cfg, &fleet(&task), global);
        let bits = |r: &RoundRecord| {
            let (loss, ppl) = r.eval.expect("evaluated every round");
            [r.train_loss, loss, ppl].map(f32::to_bits)
        };
        assert_eq!(h.rounds.iter().map(bits).collect::<Vec<_>>(), reference);
    }

    #[test]
    fn lm_honours_fixed_ratio_and_bsp() {
        let task = lm_task(2);
        let setup = fleet(&task);
        let global = zoo::lstm_ptb(30, 0.15, &mut seeded_rng(134));
        let cfg = FlConfig { rounds: 3, eval_every: 2, ..lm_config() };
        // Over equally many rounds, so the sum orders as the mean does.
        let comp = |h: &RunHistory| h.rounds.iter().map(|r| r.mean_comp).sum::<f64>();
        let fixed = FedMpOptions { fixed_ratio: Some(0.5), ..Default::default() };
        let pruned = run_fedmp(&cfg, &setup, global.clone(), &fixed);
        assert!(pruned.rounds.iter().all(|r| r.ratios == [0.5; 2]));
        let dense = run_synfl(&cfg, &setup, global.clone());
        assert!(comp(&pruned) < comp(&dense), "{} vs {}", comp(&pruned), comp(&dense));
        let bsp = FedMpOptions { sync: SyncScheme::BSP, ..Default::default() };
        assert_eq!(run_fedmp(&cfg, &setup, global, &bsp).method, "FedMP-BSP");
    }

    #[test]
    fn pruned_lm_round_is_cheaper() {
        let task = lm_task(2);
        let global = zoo::lstm_ptb(30, 0.2, &mut seeded_rng(132));
        let local = LocalTrainConfig { tau: 4, ..Default::default() };
        let full = global.round_cost(&task, &local);
        let pruned = global.extract(&plan_lstm(&global, 0.5)).round_cost(&task, &local);
        assert!(pruned.train_flops < full.train_flops);
        assert!(pruned.upload_bytes < full.upload_bytes);
    }
}
