//! Asynchronous engines (paper Algorithm 2 and §V-H): the PS aggregates
//! the first `m` (of N) arrivals of each round instead of waiting for
//! everyone. Covers both Asyn-FL (full models, [43]) and Asyn-FedMP
//! (pruned sub-models with E-UCB ratios and R2SP recovery).

use crate::aggregate::{average_states, mix_states, r2sp_aggregate};
use crate::engine::{
    emit_aggregate, emit_kernel_dispatch, emit_local_train, emit_round_end, emit_round_start,
    evaluate_if_due, kernel_baseline, model_round_cost, worker_batches, worker_rng, FlConfig,
    FlSetup,
};
use crate::exec;
use crate::history::{RoundRecord, RunHistory};
use crate::local::local_train;
use crate::runtime::seeded_agents;
use fedmp_bandit::{eucb_reward, Bandit, EUcbAgent, EUcbConfig, RewardConfig};
use fedmp_edgesim::ArrivalQueue;
use fedmp_nn::{state_sub, Sequential, StateEntry};
use fedmp_pruning::{extract_sequential, plan_sequential, recover_state, sparse_state, PrunePlan};
use fedmp_tensor::parallel::sum_f64;
use serde::{Deserialize, Serialize};

/// Which asynchronous method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AsyncMode {
    /// Asynchronous FedAvg over full models (the Asyn-FL baseline \[43\]).
    AsynFl,
    /// Algorithm 2: asynchronous FedMP with adaptive pruning.
    AsynFedMp,
}

/// Asynchronous-engine options.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AsyncOptions {
    /// Method.
    pub mode: AsyncMode,
    /// Arrivals aggregated per round (the paper's m; §V-H uses m = 5 of
    /// 10).
    pub m: usize,
    /// Staleness-tempered mixing coefficient β; `None` uses `m / N`.
    pub beta: Option<f32>,
    /// E-UCB configuration (Asyn-FedMP only).
    pub eucb: EUcbConfig,
    /// Reward shaping (Asyn-FedMP only).
    pub reward: RewardConfig,
}

impl Default for AsyncOptions {
    fn default() -> Self {
        AsyncOptions {
            mode: AsyncMode::AsynFedMp,
            m: 5,
            beta: None,
            eucb: EUcbConfig::default(),
            reward: RewardConfig::default(),
        }
    }
}

/// What a worker trained on: a full model (Asyn-FL) or a pruned
/// sub-model together with the plan and residual R2SP needs to recover
/// it. Carrying the plan/residual *inside* the pruned variant (rather
/// than as `Option`s next to the model) makes every aggregation path
/// total — there is no "pruned job without a plan" state to unwrap.
enum Payload {
    Full(Sequential),
    Pruned { model: Sequential, plan: PrunePlan, residual: Vec<StateEntry> },
}

impl Payload {
    /// The trained model, however it was shipped.
    fn model(&self) -> &Sequential {
        match self {
            Payload::Full(model) => model,
            Payload::Pruned { model, .. } => model,
        }
    }
}

/// A worker's in-flight job.
struct Pending {
    payload: Payload,
    delta_loss: f32,
    mean_loss: f32,
    duration: f64,
    ratio: f32,
    comp: f64,
    comm: f64,
    samples: usize,
    bytes_down: f64,
    bytes_up: f64,
}

/// Runs an asynchronous engine for `cfg.rounds` aggregation events.
pub fn run_async(
    cfg: &FlConfig,
    setup: &FlSetup<'_>,
    mut global: Sequential,
    opts: &AsyncOptions,
) -> RunHistory {
    let workers = setup.workers();
    assert!(opts.m >= 1 && opts.m <= workers, "m must be in [1, N]");
    let beta = opts.beta.unwrap_or(opts.m as f32 / workers as f32);
    let mut history = RunHistory::new(match opts.mode {
        AsyncMode::AsynFl => "Asyn-FL",
        AsyncMode::AsynFedMp => "Asyn-FedMP",
    });

    let mut agents = seeded_agents(opts.eucb, workers, cfg.seed);

    // Dispatch: trains the worker on the *current* global and schedules
    // its arrival. Dispatch counter feeds the per-job RNG coordinates.
    let mut jobs: Vec<Option<Pending>> = (0..workers).map(|_| None).collect();
    let mut dispatch_count = 0usize;
    let mut queue = ArrivalQueue::new();

    // Dispatch: trains each listed worker on the *current* global and
    // schedules its arrival. The order-sensitive steps stay in caller
    // order on this thread — bandit `select()` calls and dispatch-tick
    // assignment before the fan-out, queue pushes and job bookkeeping
    // after it — while the training itself (a pure function of the
    // worker's (tick, ratio) coordinates) fans out across the round
    // executor. Each job's RNG derives from its tick, so results are
    // identical to the serial interleaving.
    let dispatch_all = |ws: &[usize],
                        now: f64,
                        global: &Sequential,
                        agents: &mut Vec<EUcbAgent>,
                        jobs: &mut Vec<Option<Pending>>,
                        queue: &mut ArrivalQueue,
                        dispatch_count: &mut usize| {
        let metas: Vec<(usize, usize, f32)> = ws
            .iter()
            .map(|&w| {
                let tick = *dispatch_count;
                *dispatch_count += 1;
                let ratio = match opts.mode {
                    AsyncMode::AsynFl => 0.0,
                    AsyncMode::AsynFedMp => agents[w].select(),
                };
                (w, tick, ratio)
            })
            .collect();
        let trained = exec::ordered_map(metas, |_, (w, tick, ratio)| {
            let (mut model, plan_residual) = match opts.mode {
                AsyncMode::AsynFl => (global.clone(), None),
                AsyncMode::AsynFedMp => {
                    let plan = plan_sequential(global, setup.task.input_chw, ratio);
                    let sub = extract_sequential(global, &plan);
                    let residual = state_sub(&global.state(), &sparse_state(global, &plan));
                    (sub, Some((plan, residual)))
                }
            };
            let mut batches = worker_batches(setup.task, w, cfg.local.batch, cfg.seed, tick);
            let outcome = local_train(&mut model, &mut batches, &cfg.local);
            let cost = model_round_cost(&model, setup.task.input_chw, &cfg.local);
            let mut rng = worker_rng(cfg.seed ^ 0x5A5A, tick, w);
            let rt = setup.simulate_round(w, &cost, &mut rng);
            let scaled = setup.scaled_cost(&cost);
            let payload = match plan_residual {
                None => Payload::Full(model),
                Some((plan, residual)) => Payload::Pruned { model, plan, residual },
            };
            let pending = Pending {
                payload,
                delta_loss: outcome.delta_loss(),
                mean_loss: outcome.mean_loss,
                duration: rt.total(),
                ratio,
                comp: rt.comp,
                comm: rt.comm,
                samples: outcome.samples,
                bytes_down: scaled.download_bytes,
                bytes_up: scaled.upload_bytes,
            };
            (w, pending)
        });
        for (w, pending) in trained {
            queue.push(now + pending.duration, w);
            jobs[w] = Some(pending);
        }
    };

    let all: Vec<usize> = (0..workers).collect();
    dispatch_all(&all, 0.0, &global, &mut agents, &mut jobs, &mut queue, &mut dispatch_count);

    let mut kstats = kernel_baseline();
    let mut last_agg_time = 0.0f64;
    for round in 0..cfg.rounds {
        // Wait for the first m arrivals (Algorithm 2, lines 4–7).
        let arrivals = queue.pop_first(opts.m);
        assert_eq!(arrivals.len(), opts.m, "arrival queue underflow");
        let now = arrivals.iter().map(|c| c.at).fold(0.0, f64::max);

        // Every arrival has a matching dispatched job; a missing one
        // (impossible by construction) just shrinks the quorum rather
        // than panicking, so all per-round means below divide by
        // `members.len()`.
        let mut members = Vec::with_capacity(opts.m);
        for c in &arrivals {
            if let Some(p) = jobs[c.worker].take() {
                members.push((c.worker, p));
            }
        }
        let quorum = members.len().max(1);

        // Trace: an async "round" is one aggregation event; online = the
        // m arrival workers, in arrival order.
        let online: Vec<usize> = members.iter().map(|(w, _)| *w).collect();
        emit_round_start(round, last_agg_time, &online);
        for (w, p) in &members {
            let t = fedmp_edgesim::RoundTime { comp: p.comp, comm: p.comm };
            let scaled = fedmp_edgesim::RoundCost {
                train_flops: 0.0,
                download_bytes: p.bytes_down,
                upload_bytes: p.bytes_up,
            };
            emit_local_train(
                round,
                *w,
                p.ratio,
                p.mean_loss,
                p.delta_loss,
                cfg.local.tau,
                p.samples,
                &t,
                &scaled,
            );
        }

        // Update the global model from the m arrivals (line 8).
        let update = match opts.mode {
            AsyncMode::AsynFl => {
                let states: Vec<_> =
                    members.iter().map(|(_, p)| p.payload.model().state()).collect();
                average_states(&states)
            }
            AsyncMode::AsynFedMp => {
                let mut recovered = Vec::with_capacity(members.len());
                let mut residuals = Vec::with_capacity(members.len());
                for (_, p) in &members {
                    match &p.payload {
                        Payload::Pruned { model, plan, residual } => {
                            recovered.push(recover_state(model, plan, &global));
                            residuals.push(residual.clone());
                        }
                        // A full-model arrival needs no recovery and
                        // carries a zero residual (nothing was pruned).
                        Payload::Full(model) => {
                            let state = model.state();
                            residuals.push(state_sub(&state, &state));
                            recovered.push(state);
                        }
                    }
                }
                r2sp_aggregate(&recovered, &residuals)
            }
        };
        global.load_state(&mix_states(&global.state(), &update, beta));

        // Rewards for the m arrivals (line 9) and redistribution (10).
        let t_avg = sum_f64(members.iter().map(|(_, p)| p.duration)) / quorum as f64;
        let mut ratios = Vec::with_capacity(opts.m);
        let mut train_loss = 0.0f32;
        let mut mean_comp = 0.0;
        let mut mean_comm = 0.0;
        for (w, p) in &members {
            if opts.mode == AsyncMode::AsynFedMp {
                agents[*w].observe(eucb_reward(p.delta_loss, p.duration, t_avg, &opts.reward));
            }
            ratios.push(p.ratio);
            train_loss += p.mean_loss;
            mean_comp += p.comp;
            mean_comm += p.comm;
        }
        emit_aggregate(
            round,
            match opts.mode {
                AsyncMode::AsynFl => "AsynFedAvg",
                AsyncMode::AsynFedMp => "AsynR2SP",
            },
            members.len(),
        );
        dispatch_all(
            &online,
            now,
            &global,
            &mut agents,
            &mut jobs,
            &mut queue,
            &mut dispatch_count,
        );

        let eval = evaluate_if_due(cfg, round, &mut global, setup.task);
        emit_kernel_dispatch(round, &mut kstats);
        let rec = RoundRecord {
            round,
            sim_time: now,
            round_time: now - last_agg_time,
            mean_comp: mean_comp / quorum as f64,
            mean_comm: mean_comm / quorum as f64,
            train_loss: train_loss / quorum as f32,
            eval,
            ratios,
            participants: quorum,
            ..Default::default()
        };
        emit_round_end(&rec);
        history.rounds.push(rec);
        last_agg_time = now;
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

    fn setup_task(seed: u64, workers: usize) -> (ImageTask, Vec<fedmp_edgesim::DeviceProfile>) {
        let (train, test) = mnist_like(0.1, seed).generate();
        let mut rng = seeded_rng(seed);
        let part = iid_partition(&train, workers, &mut rng);
        let task = ImageTask::new(train, test, part);
        let devices: Vec<_> = (0..workers)
            .map(|i| {
                if i % 2 == 0 {
                    tx2_profile(ComputeMode::Mode0, LinkQuality::Near)
                } else {
                    tx2_profile(ComputeMode::Mode3, LinkQuality::Far)
                }
            })
            .collect();
        (task, devices)
    }

    #[test]
    fn async_fedmp_aggregates_m_arrivals_per_round() {
        let (task, devices) = setup_task(120, 4);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(121);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 6, eval_every: 3, ..Default::default() };
        let opts = AsyncOptions { m: 2, ..Default::default() };
        let h = run_async(&cfg, &setup, global, &opts);
        assert_eq!(h.rounds.len(), 6);
        assert!(h.rounds.iter().all(|r| r.ratios.len() == 2));
        // Clock is non-decreasing.
        assert!(h.rounds.windows(2).all(|w| w[1].sim_time >= w[0].sim_time));
    }

    #[test]
    fn async_rounds_are_faster_than_waiting_for_stragglers() {
        let (task, devices) = setup_task(122, 4);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(123);
        let global = zoo::cnn_mnist(0.1, &mut rng);
        let cfg = FlConfig { rounds: 4, ..Default::default() };

        let asyn = run_async(
            &cfg,
            &setup,
            global.clone(),
            &AsyncOptions { m: 2, mode: AsyncMode::AsynFl, ..Default::default() },
        );
        let syn = crate::engines::baselines::run_synfl(&cfg, &setup, global);
        // First aggregation happens as soon as the 2 fast workers finish,
        // well before the full barrier.
        assert!(asyn.rounds[0].sim_time < syn.rounds[0].sim_time);
    }

    #[test]
    fn asyn_fl_learns() {
        let (task, devices) = setup_task(124, 4);
        let setup = FlSetup::new(&task, devices, TimeModel::deterministic());
        let mut rng = seeded_rng(125);
        let global = zoo::cnn_mnist(0.15, &mut rng);
        let cfg = FlConfig { rounds: 16, eval_every: 4, ..Default::default() };
        let opts =
            AsyncOptions { m: 2, mode: AsyncMode::AsynFl, beta: Some(0.5), ..Default::default() };
        let h = run_async(&cfg, &setup, global, &opts);
        // m-of-N mixing on the calibrated (harder) task converges more
        // slowly; require clearly-above-chance learning (chance = 10%).
        assert!(h.final_accuracy().unwrap() > 0.22, "{:?}", h.final_accuracy());
    }
}
