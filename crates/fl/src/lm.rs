//! The §VI RNN extension: federated training of the 2-layer LSTM
//! language model with ISS pruning (Table IV compares Syn-FL, UP-FL and
//! FedMP on perplexity).

use crate::aggregate::{average_states, r2sp_aggregate};
use crate::engine::{
    emit_aggregate, emit_kernel_dispatch, emit_local_train, emit_round_end, emit_round_start,
    eval_due, kernel_baseline,
};
use crate::eval::evaluate_lm;
use crate::exec;
use crate::history::{RoundRecord, RunHistory};
use crate::runtime::{seeded_agent, RatioPolicy};
use fedmp_bandit::{EUcbConfig, RewardConfig};
use fedmp_data::TextBatch;
use fedmp_edgesim::{DeviceProfile, RoundCost, TimeModel};
use fedmp_nn::{clip_grad_norm, lstm_cost_per_token, state_sub, LstmLm, Sgd};
use fedmp_pruning::{extract_lstm, plan_lstm, recover_lstm_state, sparse_lstm_state};
use fedmp_tensor::cross_entropy_loss;
use fedmp_tensor::parallel::sum_f32;
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

/// Alias kept for API symmetry with the image engines.
pub type LmRunResult = RunHistory;

fn local_train_lm(
    model: &mut LstmLm,
    batches: &[TextBatch],
    start: usize,
    tau: usize,
    lr: f32,
) -> (f32, f32, f32) {
    let mut opt = Sgd::with_momentum(lr, 0.9, 0.0);
    let mut first = 0.0f32;
    let mut last = 0.0f32;
    let mut total = 0.0f32;
    for t in 0..tau {
        let b = &batches[(start + t) % batches.len()];
        model.zero_grad();
        let logits = model.forward(&b.inputs);
        let out = cross_entropy_loss(&logits, &b.targets);
        model.backward(&out.grad_logits);
        clip_grad_norm(model, 5.0);
        opt.step(model);
        if t == 0 {
            first = out.loss;
        }
        last = out.loss;
        total += out.loss;
    }
    (first, last, total / tau as f32)
}

fn lm_round_cost(model: &LstmLm, batch: usize, seq: usize, tau: usize) -> RoundCost {
    let report = lstm_cost_per_token(model);
    RoundCost {
        train_flops: report.flops_per_sample as f64 * 3.0 * (batch * seq * tau) as f64,
        download_bytes: report.param_bytes() as f64,
        upload_bytes: report.param_bytes() as f64,
    }
}

/// Runs one LM method for `opts.rounds` rounds from `global`.
pub fn run_lm(
    setup: &LmSetup,
    opts: &LmOptions,
    method: LmMethod,
    mut global: LstmLm,
) -> RunHistory {
    let workers = setup.worker_batches.len();
    assert_eq!(setup.devices.len(), workers, "device count mismatch");
    assert!(workers > 0, "need at least one worker");
    let (batch, seq) = {
        let b = &setup.worker_batches[0][0];
        (b.inputs.len(), b.inputs[0].len())
    };
    let mut history = RunHistory::new(method.name());
    let mut sim_time = 0.0f64;

    // The image methods' ρ-pickers; the round is this module's own.
    let mut policy = match method {
        LmMethod::SynFl => RatioPolicy::Fixed(0.0),
        LmMethod::UpFl => RatioPolicy::Shared(seeded_agent(opts.eucb, opts.seed)),
        LmMethod::FedMp => RatioPolicy::per_worker(opts.eucb, opts.reward, workers, opts.seed),
    };
    let everyone: Vec<usize> = (0..workers).collect();

    let mut kstats = kernel_baseline();

    for round in 0..opts.rounds {
        emit_round_start(round, sim_time, &everyone);
        let ratios = policy.select(&everyone);

        // Per-worker round work, fanned across the round executor:
        // build the (possibly pruned) sub-model and residual from the
        // read-only global, then train it. Agent selection above and
        // timing/aggregation/emission below stay in worker order.
        let results = exec::ordered_map(ratios.clone(), |w, r| {
            let (mut model, plan, residual) = if method == LmMethod::SynFl || r == 0.0 {
                (global.clone(), None, None)
            } else {
                let plan = plan_lstm(&global, r);
                let sub = extract_lstm(&global, &plan);
                let residual = state_sub(&global.state(), &sparse_lstm_state(&global, &plan));
                (sub, Some(plan), Some(residual))
            };
            let start = round * opts.tau + w;
            let (first, last, mean) =
                local_train_lm(&mut model, &setup.worker_batches[w], start, opts.tau, opts.lr);
            (model, plan, residual, first - last, mean)
        });

        // Timing.
        let mut times = Vec::with_capacity(workers);
        let mut comp_sum = 0.0;
        let mut comm_sum = 0.0;
        for (w, (model, ..)) in results.iter().enumerate() {
            let cost = setup.cost_scale.apply(&lm_round_cost(model, batch, seq, opts.tau));
            let mut rng = crate::engine::worker_rng(opts.seed ^ 0x77, round, w);
            let t = setup.time.round_time(&setup.devices[w], &cost, &mut rng);
            comp_sum += t.comp;
            comm_sum += t.comm;
            // `samples` counts tokens for the LM task (batch · seq · τ).
            emit_local_train(
                round,
                w,
                ratios[w],
                results[w].4,
                results[w].3,
                opts.tau,
                batch * seq * opts.tau,
                &t,
                &cost,
            );
            times.push(t.total());
        }
        let round_time = times.iter().copied().fold(0.0, f64::max);
        sim_time += round_time;

        // Rewards.
        let delivered: Vec<(usize, f32, f64)> =
            results.iter().zip(&times).enumerate().map(|(w, (r, &t))| (w, r.3, t)).collect();
        policy.observe(&delivered, round_time);

        // Aggregation.
        let mut recovered = Vec::with_capacity(workers);
        let mut residuals = Vec::with_capacity(workers);
        for (model, plan, residual, _, _) in &results {
            match (plan, residual) {
                (Some(p), Some(q)) => {
                    recovered.push(recover_lstm_state(model, p, &global));
                    residuals.push(q.clone());
                }
                _ => {
                    recovered.push(model.state());
                    residuals.push(state_sub(&global.state(), &global.state()));
                    // zeros
                }
            }
        }
        let new_state = if method == LmMethod::SynFl {
            average_states(&recovered)
        } else {
            r2sp_aggregate(&recovered, &residuals)
        };
        global.load_state(&new_state);
        emit_aggregate(round, if method == LmMethod::SynFl { "FedAvg" } else { "R2SP" }, workers);

        let train_loss = sum_f32(results.iter().map(|(_, _, _, _, m)| *m)) / workers as f32;
        let eval = eval_due(round, opts.eval_every, opts.rounds).then(|| {
            let r = evaluate_lm(&mut global, &setup.eval_batches, opts.eval_max_batches);
            (r.loss, r.accuracy) // accuracy slot holds perplexity
        });
        emit_kernel_dispatch(round, &mut kstats);
        let rec = RoundRecord {
            round,
            sim_time,
            round_time,
            mean_comp: comp_sum / workers as f64,
            mean_comm: comm_sum / workers as f64,
            train_loss,
            eval,
            ratios,
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
    use fedmp_data::ptb_like;
    use fedmp_edgesim::{tx2_profile, ComputeMode, LinkQuality};
    use fedmp_nn::zoo;
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
        let mut rng = seeded_rng(132);
        let global = zoo::lstm_ptb(30, 0.2, &mut rng);
        let full = lm_round_cost(&global, 4, 8, 4);
        let plan = plan_lstm(&global, 0.5);
        let sub = extract_lstm(&global, &plan);
        let pruned = lm_round_cost(&sub, 4, 8, 4);
        assert!(pruned.train_flops < full.train_flops);
        assert!(pruned.upload_bytes < full.upload_bytes);
        let _ = setup;
    }
}
