//! The §VI RNN extension: federated training of the 2-layer LSTM
//! language model with ISS pruning (Table IV compares Syn-FL, UP-FL and
//! FedMP on perplexity). [`LstmLm`] is a [`FlModel`], so [`run_lm`]
//! only describes each method as a [`RoundMethod`]: the round is the
//! image engines' `run_rounds` over the inline exchange.

use crate::engine::{FlConfig, FlModel, FlSetup};
use crate::engines::fedmp::{run_inline, FedMpOptions};
use crate::eval::evaluate_lm;
use crate::history::RunHistory;
use crate::local::{LocalOutcome, LocalTrainConfig};
use crate::runtime::{seeded_agent, RatioPolicy, RoundMethod};
use fedmp_bandit::{EUcbConfig, RewardConfig};
use fedmp_data::TextBatch;
use fedmp_edgesim::{DeviceProfile, RoundCost, TimeModel};
use fedmp_nn::{clip_grad_norm, lstm_cost_per_token, LstmLm, Sgd, StateEntry};
use fedmp_pruning::{extract_lstm, plan_lstm, recover_lstm_state, Importance, LstmPlan};
use fedmp_tensor::cross_entropy_loss;
use serde::{Deserialize, Serialize};

/// Which method trains the language model (the Table IV rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LmMethod {
    /// Full-model FedAvg.
    SynFl,
    /// Uniform ISS pruning ratio for all workers (shared agent).
    UpFl,
    /// Per-worker adaptive ISS pruning with R2SP.
    FedMp,
}

impl LmMethod {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LmMethod::SynFl => "Syn-FL",
            LmMethod::UpFl => "UP-FL",
            LmMethod::FedMp => "FedMP",
        }
    }
}

/// The federated LM deployment.
#[derive(Debug, Clone)]
pub struct LmSetup {
    /// Per-worker training batches (each worker owns a corpus lane).
    pub worker_batches: Vec<Vec<TextBatch>>,
    /// Held-out evaluation batches.
    pub eval_batches: Vec<TextBatch>,
    /// Device profile per worker.
    pub devices: Vec<DeviceProfile>,
    /// Virtual-clock model.
    pub time: TimeModel,
    /// Width-compensation factors (see [`crate::engine::FlSetup`]).
    pub cost_scale: crate::CostScale,
}

/// LM engine options.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LmOptions {
    /// Aggregation rounds.
    pub rounds: usize,
    /// Local BPTT iterations per round.
    pub tau: usize,
    /// Learning rate.
    pub lr: f32,
    /// Evaluate every this many rounds, and always the last (0 = first
    /// and last only).
    pub eval_every: usize,
    /// Max evaluation batches per evaluation.
    pub eval_max_batches: usize,
    /// E-UCB configuration (pruning methods).
    pub eucb: EUcbConfig,
    /// Reward shaping.
    pub reward: RewardConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for LmOptions {
    fn default() -> Self {
        LmOptions {
            rounds: 20,
            tau: 4,
            lr: 0.4,
            eval_every: 2,
            eval_max_batches: 8,
            eucb: EUcbConfig::default(),
            reward: RewardConfig::default(),
            seed: 0,
        }
    }
}

impl FlModel for LstmLm {
    type Task = LmSetup;
    type Plan = LstmPlan;
    const TIME_SALT: u64 = 0x77;

    /// ISS ranks hidden units by L1 importance whatever `importance` says.
    fn plan(&self, _: &LmSetup, ratio: f32, _: Importance) -> LstmPlan {
        plan_lstm(self, ratio)
    }

    fn extract(&self, plan: &LstmPlan) -> Self {
        extract_lstm(self, plan)
    }

    fn recover(&self, plan: &LstmPlan, global: &Self) -> Vec<StateEntry> {
        recover_lstm_state(self, plan, global)
    }

    fn round_cost(&self, task: &LmSetup, local: &LocalTrainConfig) -> RoundCost {
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
        task: &LmSetup,
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
    fn evaluate(&mut self, task: &LmSetup, cfg: &FlConfig) -> (f32, f32) {
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

/// Runs one LM method for `opts.rounds` rounds from `global`.
pub fn run_lm(setup: &LmSetup, opts: &LmOptions, method: LmMethod, global: LstmLm) -> RunHistory {
    let workers = setup.worker_batches.len();
    assert_eq!(setup.devices.len(), workers, "device count mismatch");
    assert!(workers > 0, "need at least one worker");
    // Momentum and clip are `LocalTrainConfig`'s defaults, 0.9 and 5.
    let cfg = FlConfig {
        rounds: opts.rounds,
        local: LocalTrainConfig { tau: opts.tau, lr: opts.lr, ..Default::default() },
        eval_every: opts.eval_every,
        eval_max_samples: opts.eval_max_batches,
        seed: opts.seed,
        ..Default::default()
    };
    // Syn-FL is ISS at ρ = 0: the full sub-model and a zero residual,
    // so R2SP is FedAvg; unlike the image Syn-FL it records its ratios.
    let (policy, scheme) = match method {
        LmMethod::SynFl => (RatioPolicy::Fixed(0.0), "FedAvg"),
        LmMethod::UpFl => (RatioPolicy::Shared(seeded_agent(opts.eucb, opts.seed)), "R2SP"),
        LmMethod::FedMp => {
            (RatioPolicy::per_worker(opts.eucb, opts.reward, workers, opts.seed), "R2SP")
        }
    };
    let locals = vec![cfg.local; workers];
    let method = RoundMethod { name: method.name(), scheme, policy, locals, links: None };
    let (devices, time, cost_scale) = (setup.devices.clone(), setup.time, setup.cost_scale);
    let fl = FlSetup { task: setup, devices, time, cost_scale };
    run_inline(&cfg, &fl, global, &FedMpOptions::default(), method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RoundRecord;
    use fedmp_data::ptb_like;
    use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality};
    use fedmp_nn::zoo;
    use fedmp_tensor::parallel::sum_f32;
    use fedmp_tensor::seeded_rng;

    fn lm_setup(workers: usize) -> LmSetup {
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
        LmSetup {
            worker_batches,
            eval_batches: eval.batches(4, 8),
            devices: (0..workers)
                .map(|i| {
                    if i % 2 == 0 {
                        tx2_profile(ComputeMode::Mode0, LinkQuality::Near)
                    } else {
                        tx2_profile(ComputeMode::Mode2, LinkQuality::Mid)
                    }
                })
                .collect(),
            time: TimeModel::deterministic(),
            cost_scale: crate::CostScale::default(),
        }
    }

    /// LM FedAvg longhand — clone the global per worker, τ momentum-SGD
    /// steps clipped at norm 5 on batches `(round·τ + w + t) mod len`,
    /// element-wise mean, evaluate: no ISS plan, extraction, residual or
    /// R2SP near it. `[train loss, eval loss, perplexity]` bits per round.
    fn lm_fedavg_reference(setup: &LmSetup, opts: &LmOptions, mut global: LstmLm) -> Vec<[u32; 3]> {
        let workers = setup.worker_batches.len();
        let rounds = (0..opts.rounds).map(|round| {
            let trained = setup.worker_batches.iter().enumerate().map(|(w, lane)| {
                let mut model = global.clone();
                let mut opt = Sgd::with_momentum(opts.lr, 0.9, 0.0);
                let mut total = 0.0f32;
                for t in 0..opts.tau {
                    let b = &lane[(round * opts.tau + w + t) % lane.len()];
                    model.zero_grad();
                    let out = cross_entropy_loss(&model.forward(&b.inputs), &b.targets);
                    model.backward(&out.grad_logits);
                    clip_grad_norm(&mut model, 5.0);
                    opt.step(&mut model);
                    total += out.loss;
                }
                (model.state(), total / opts.tau as f32)
            });
            let (states, losses): (Vec<_>, Vec<_>) = trained.unzip();
            global.load_state(&crate::aggregate::average_states(&states));
            let eval = evaluate_lm(&mut global, &setup.eval_batches, opts.eval_max_batches);
            [sum_f32(losses) / workers as f32, eval.loss, eval.accuracy].map(f32::to_bits)
        });
        rounds.collect()
    }

    #[test]
    fn lm_synfl_matches_an_independent_fedavg_reference() {
        // ISS at ρ = 0 through plan → extract → residual → recover → R2SP
        // must *be* LM FedAvg; the later rounds check the batch rotation
        // and the momentum-SGD step against code that shares none of it.
        let setup = lm_setup(3);
        // Weights ×3, so that some steps' gradient norms pass the clip of
        // 5 (at zoo scale they stay below 2 and the clip never fires).
        let mut global = zoo::lstm_ptb(30, 0.15, &mut seeded_rng(133));
        global.load_state(&fedmp_nn::state_scale(&global.state(), 3.0));
        let opts = LmOptions { rounds: 3, eval_every: 1, seed: 5, ..Default::default() };
        let reference = lm_fedavg_reference(&setup, &opts, global.clone());
        let h = run_lm(&setup, &opts, LmMethod::SynFl, global);
        let bits = |r: &RoundRecord| {
            let (loss, ppl) = r.eval.expect("evaluated every round");
            [r.train_loss, loss, ppl].map(f32::to_bits)
        };
        assert_eq!(h.rounds.iter().map(bits).collect::<Vec<_>>(), reference);
    }

    #[test]
    fn lm_fedmp_reduces_perplexity() {
        let setup = lm_setup(2);
        let mut rng = seeded_rng(130);
        let global = zoo::lstm_ptb(30, 0.2, &mut rng);
        let opts = LmOptions { rounds: 10, eval_every: 9, ..Default::default() };
        let h = run_lm(&setup, &opts, LmMethod::FedMp, global);
        let first_ppl = h.rounds.iter().find_map(|r| r.eval).unwrap().1;
        let last_ppl = h.final_accuracy().unwrap();
        assert!(last_ppl < first_ppl, "perplexity {first_ppl} -> {last_ppl}");
        assert!(last_ppl < 30.0, "perplexity should beat uniform ({last_ppl})");
    }

    #[test]
    fn lm_all_methods_complete() {
        let setup = lm_setup(2);
        let mut rng = seeded_rng(131);
        let global = zoo::lstm_ptb(30, 0.15, &mut rng);
        let opts = LmOptions { rounds: 3, eval_every: 2, ..Default::default() };
        for method in [LmMethod::SynFl, LmMethod::UpFl, LmMethod::FedMp] {
            let h = run_lm(&setup, &opts, method, global.clone());
            assert_eq!(h.rounds.len(), 3, "{}", method.name());
        }
    }

    #[test]
    fn pruned_lm_round_is_cheaper() {
        let setup = lm_setup(2);
        let global = zoo::lstm_ptb(30, 0.2, &mut seeded_rng(132));
        let local = LocalTrainConfig { tau: 4, ..Default::default() };
        let full = global.round_cost(&setup, &local);
        let pruned = global.extract(&plan_lstm(&global, 0.5)).round_cost(&setup, &local);
        assert!(pruned.train_flops < full.train_flops);
        assert!(pruned.upload_bytes < full.upload_bytes);
    }
}
