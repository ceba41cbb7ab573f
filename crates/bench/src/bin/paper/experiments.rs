//! One function per figure/table id: prints the rows the paper reports
//! and writes `bench-results/<id>.json`. EXPERIMENTS.md states the shape
//! each reproduces and `paper check` tests it; experiments with no check
//! say what to expect here. `h.full` restores the grids `quick` trims;
//! `resilience`, `compression` and `scale` have one size. The timing
//! tables of `kernels` are next door in `kernels.rs`.

use fedmp_bandit::{Bandit, DiscreteUcb, EUcbAgent, EUcbConfig, EpsilonGreedy, RewardConfig};
use fedmp_bench::{common_target, fmt_speedup, fmt_time, save_result, time_to_target, Harness};
use fedmp_core::{
    measure_overhead, print_table, run_fedmp_custom, ExperimentSpec, Method, TaskKind,
};
use fedmp_data::{ptb_like, TextBatch};
use fedmp_edgesim::{
    heterogeneity_scenario, EnergyModel, HeterogeneityLevel, Population, TimeModel, SLOW_LINK_BPS,
};
use fedmp_fl::{
    run_fedmp, run_fedmp_hier, run_synfl, run_threaded, run_upfl, ChaosOptions, Codec,
    CompressionPolicy, CostScale, ExactState, FaultOptions, FedMpOptions, FlConfig, FlSetup,
    HierSetup, HierarchyOptions, LmTask, LocalTrainConfig, RunHistory, SyncMethod, UpFlOptions,
};
use fedmp_nn::{lstm_cost_per_token, zoo, ShapesOnly, StateEntry};
use fedmp_obs::{RunManifest, TraceEvent, TraceSession};
use fedmp_pruning::Importance;
use fedmp_tensor::{seeded_rng, Tensor};
use serde_json::{json, Value};
use std::time::Instant;

/// Fig. 2: accuracy under a time budget vs a **fixed** pruning ratio.
pub fn fig2(h: &mut Harness) {
    let ratios: &[f32] = if h.full {
        &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8]
    };
    let methods: Vec<Method> = ratios.iter().map(|&r| Method::FedMpFixed(r)).collect();
    let mut results = Vec::new();
    for task in [TaskKind::CnnMnist, TaskKind::AlexnetCifar] {
        let histories = h.histories(&h.spec(task), &methods);
        // The ratio-0 run doubles as the budget baseline.
        let budget = histories[0].total_time() * 0.6;
        let mut rows = Vec::new();
        let mut series = Vec::new();
        for (&ratio, run) in ratios.iter().zip(&histories) {
            let acc = run.best_accuracy_within(budget).unwrap_or(0.0);
            rows.push(vec![format!("{ratio:.1}"), format!("{:.1}%", acc * 100.0)]);
            series.push(json!({"ratio": ratio, "accuracy": acc}));
        }
        print_table(
            &format!("Fig. 2 — {} (budget {budget:.0}s virtual)", task.name()),
            &["pruning ratio", "accuracy in budget"],
            &rows,
        );
        results.push(json!({"task": task.name(), "budget": budget, "series": series}));
    }
    save_result("fig2", &results);
}

/// Fig. 4: completion time vs the pruning granularity θ, normalised
/// per model as in the paper.
pub fn fig4(h: &mut Harness) {
    let thetas: &[f32] =
        if h.full { &[0.01, 0.02, 0.05, 0.1, 0.15, 0.25] } else { &[0.02, 0.05, 0.1, 0.25] };
    let tasks: &[TaskKind] =
        if h.full { &TaskKind::all() } else { &[TaskKind::CnnMnist, TaskKind::AlexnetCifar] };
    let mut results = Vec::new();
    for &task in tasks {
        let spec = h.spec(task);
        let runs: Vec<RunHistory> = thetas
            .iter()
            .map(|&theta| {
                let mut opts = FedMpOptions::default();
                opts.eucb.theta = theta;
                run_fedmp_custom(&spec, &opts)
            })
            .collect();
        // The smallest-θ run doubles as the target probe.
        let target = runs[0].best_accuracy_within(runs[0].total_time() * 0.7).unwrap_or(0.3) * 0.95;
        // Completion time to target; if missed, charge the full run plus
        // a penalty proportional to the shortfall (the paper's largest-θ
        // points simply take much longer).
        let times: Vec<f64> = runs
            .iter()
            .map(|run| {
                run.time_to_accuracy(target).unwrap_or_else(|| {
                    let short = target - run.final_accuracy().unwrap_or(0.0);
                    run.total_time() * (1.0 + 4.0 * short.max(0.0) as f64)
                })
            })
            .collect();
        let t_min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let normalised: Vec<f64> = times.iter().map(|t| t / t_min).collect();
        let rows: Vec<Vec<String>> = thetas
            .iter()
            .zip(&normalised)
            .map(|(th, t)| vec![format!("{th}"), format!("{t:.2}")])
            .collect();
        print_table(
            &format!("Fig. 4 — {} (target {:.0}%)", task.name(), target * 100.0),
            &["theta", "normalised completion time"],
            &rows,
        );
        results.push(json!({
            "task": task.name(),
            "target": target,
            "thetas": thetas,
            "normalised_times": normalised,
        }));
    }
    save_result("fig4", &results);
}

/// Fig. 5: mean per-round computation and communication time vs the
/// pruning ratio.
pub fn fig5(h: &mut Harness) {
    let ratios = [0.0f32, 0.2, 0.4, 0.6, 0.8];
    let mut spec = h.spec(TaskKind::AlexnetCifar);
    spec.fl.rounds = 6; // timing only; no need to converge
    let histories = h.histories(&spec, &ratios.map(Method::FedMpFixed));

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for (ratio, run) in ratios.iter().zip(&histories) {
        let n = run.rounds.len() as f64;
        let comp: f64 = run.rounds.iter().map(|r| r.mean_comp).sum::<f64>() / n;
        let comm: f64 = run.rounds.iter().map(|r| r.mean_comm).sum::<f64>() / n;
        rows.push(vec![
            format!("{ratio:.1}"),
            format!("{comp:.2}s"),
            format!("{comm:.2}s"),
            format!("{:.2}s", comp + comm),
        ]);
        series.push(json!({"ratio": ratio, "comp": comp, "comm": comm}));
    }
    print_table(
        "Fig. 5 — per-round time vs pruning ratio (AlexNet/CIFAR-like)",
        &["pruning ratio", "computation", "communication", "total"],
        &rows,
    );
    save_result("fig5", &series);
}

/// Fig. 6: accuracy vs virtual training time, five methods × four tasks.
pub fn fig6(h: &mut Harness) {
    let mut results = Vec::new();
    for task in TaskKind::all() {
        let histories = h.histories(&h.spec(task), &Method::paper_five());
        let target = common_target(&histories);
        let title = format!("Fig. 6 — {} (time to {:.0}% accuracy)", task.name(), target * 100.0);
        let rows = time_to_target(&title, &histories, target);
        let curves: Vec<Value> = histories
            .iter()
            .map(|run| json!({"method": run.method, "series": run.accuracy_curve()}))
            .collect();
        results.push(json!({
            "task": task.name(),
            "target": target,
            "curves": curves,
            "time_to_target": rows,
        }));
    }
    save_result("fig6", &results);
}

/// Table III: test accuracy each method reaches within a fixed
/// virtual-time budget, on Fig. 6's runs.
pub fn table3(h: &mut Harness) {
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for task in TaskKind::all() {
        let histories = h.histories(&h.spec(task), &Method::paper_five());
        // Budget: the earliest finisher's horizon, so every method is
        // compared over a window it fully covered.
        let budget = histories.iter().map(|run| run.total_time()).fold(f64::INFINITY, f64::min);
        let mut row = vec![task.name().to_string(), format!("{budget:.0}s")];
        let mut cells = Vec::new();
        for run in &histories {
            let acc = run.best_accuracy_within(budget).unwrap_or(0.0);
            row.push(format!("{:.1}%", acc * 100.0));
            cells.push(json!({"method": run.method, "accuracy": acc}));
        }
        rows.push(row);
        results.push(json!({"task": task.name(), "budget": budget, "cells": cells}));
    }
    print_table(
        "Table III — accuracy within a fixed virtual-time budget",
        &["model", "budget", "Syn-FL", "UP-FL", "FedProx", "FlexCom", "FedMP"],
        &rows,
    );
    save_result("table3", &results);
}

/// Fig. 7: R2SP vs traditional BSP on FedMP, accuracy vs rounds.
pub fn fig7(h: &mut Harness) {
    let mut results = Vec::new();
    let mut rows = Vec::new();
    for task in TaskKind::all() {
        let runs = h.histories(&h.spec(task), &[Method::FedMp, Method::FedMpBsp]);
        let (r2sp, bsp) = (&runs[0], &runs[1]);
        let a = r2sp.final_accuracy().unwrap_or(0.0);
        let b = bsp.final_accuracy().unwrap_or(0.0);
        rows.push(vec![
            task.name().into(),
            format!("{:.1}%", a * 100.0),
            format!("{:.1}%", b * 100.0),
            format!("{:+.1}pp", (a - b) * 100.0),
        ]);
        results.push(json!({
            "task": task.name(),
            "r2sp_curve": r2sp.accuracy_by_round(),
            "bsp_curve": bsp.accuracy_by_round(),
            "r2sp_final": a,
            "bsp_final": b,
        }));
    }
    print_table(
        "Fig. 7 — synchronisation scheme (final accuracy after equal rounds)",
        &["model", "R2SP", "BSP", "R2SP advantage"],
        &rows,
    );
    save_result("fig7", &results);
}

/// Fig. 8: time to target under the three §V-E heterogeneity levels.
pub fn fig8(h: &mut Harness) {
    let levels = [
        ("Low", HeterogeneityLevel::Low),
        ("Medium", HeterogeneityLevel::Medium),
        ("High", HeterogeneityLevel::High),
    ];
    let tasks: &[TaskKind] =
        if h.full { &[TaskKind::CnnMnist, TaskKind::AlexnetCifar] } else { &[TaskKind::CnnMnist] };
    let mut results = Vec::new();
    for &task in tasks {
        for (label, level) in levels {
            let mut spec = h.spec(task);
            spec.level = level;
            let histories = h.histories(&spec, &Method::paper_five());
            let target = common_target(&histories);
            let title = format!(
                "Fig. 8 — {} @ {label} heterogeneity (target {:.0}%)",
                task.name(),
                target * 100.0
            );
            let rows = time_to_target(&title, &histories, target);
            results.push(json!({
                "task": task.name(),
                "level": label,
                "target": target,
                "rows": rows,
            }));
        }
    }
    save_result("fig8", &results);
}

/// Fig. 9: time to target under increasing non-IID levels.
pub fn fig9(h: &mut Harness) {
    // Label-skew tasks use y ∈ {0, 30, 60}%; missing-classes tasks use
    // y missing classes scaled to the class count.
    let settings: &[(TaskKind, [u32; 3])] = if h.full {
        &[(TaskKind::CnnMnist, [0, 30, 60]), (TaskKind::VggEmnist, [0, 10, 20])]
    } else {
        &[(TaskKind::CnnMnist, [0, 30, 60])]
    };
    let mut results = Vec::new();
    for &(task, levels) in settings {
        let runs = levels.map(|y| {
            let mut spec = h.spec(task);
            spec.non_iid = y;
            h.histories(&spec, &Method::paper_five())
        });
        // Fixed target per task so times are comparable across levels:
        // derived from the IID (y = 0, first) runs.
        let target = common_target(&runs[0]) * 0.9;
        for (y, histories) in levels.iter().zip(&runs) {
            let title =
                format!("Fig. 9 — {} @ non-IID y={y} (target {:.0}%)", task.name(), target * 100.0);
            let rows = time_to_target(&title, histories, target);
            results.push(json!({"task": task.name(), "y": y, "target": target, "rows": rows}));
        }
    }
    save_result("fig9", &results);
}

/// Fig. 10: scalability — time to target as the worker count grows from
/// 10 to 30.
pub fn fig10(h: &mut Harness) {
    let counts: &[usize] = if h.full { &[10, 20, 30] } else { &[10, 30] };
    let task = if h.full { TaskKind::AlexnetCifar } else { TaskKind::CnnMnist };
    let mut results = Vec::new();
    for &workers in counts {
        let mut spec = h.spec(task);
        spec.workers = workers;
        let histories = h.histories(&spec, &Method::paper_five());
        let target = common_target(&histories);
        let title = format!("Fig. 10 — {workers} workers (target {:.0}%)", target * 100.0);
        let rows = time_to_target(&title, &histories, target);
        results.push(json!({"workers": workers, "target": target, "rows": rows}));
    }
    save_result("fig10", &results);
}

/// Fig. 11: mean per-round PS overhead (ratio decision + model pruning,
/// wall clock) vs the number of workers.
pub fn fig11(h: &mut Harness) {
    let built = h.spec(TaskKind::AlexnetCifar).build();
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for workers in [10usize, 15, 20, 25, 30] {
        let report = measure_overhead(&built.model, built.task.input_chw, workers, 5);
        rows.push(vec![
            workers.to_string(),
            format!("{:.2}ms", report.decision_secs * 1e3),
            format!("{:.2}ms", report.pruning_secs * 1e3),
            format!("{:.2}ms", report.total_secs() * 1e3),
        ]);
        series.push(json!({
            "workers": workers,
            "decision_ms": report.decision_secs * 1e3,
            "pruning_ms": report.pruning_secs * 1e3,
        }));
    }
    print_table(
        "Fig. 11 — PS algorithm overhead per round (wall clock)",
        &["workers", "ratio decision", "model pruning", "total"],
        &rows,
    );
    println!(
        "(for scale: simulated per-round training/transfer times are tens to hundreds of virtual seconds)"
    );
    save_result("fig11", &series);
}

/// Fig. 12: synchronous vs asynchronous settings (10 workers, m = 5).
pub fn fig12(h: &mut Harness) {
    let methods = [Method::AsynFl { m: 5 }, Method::AsynFedMp { m: 5 }, Method::FedMp];
    let task = if h.full { TaskKind::AlexnetCifar } else { TaskKind::CnnMnist };
    let histories = h.histories(&h.spec(task), &methods);
    let target = common_target(&histories);
    let title = format!("Fig. 12 — async setting, m=5 of 10 (target {:.0}%)", target * 100.0);
    let rows = time_to_target(&title, &histories, target);
    save_result("fig12", &json!({"target": target, "rows": rows}));
}

/// Table IV (§VI): the RNN extension — a 2-layer LSTM language model on
/// the PTB-like corpus under Syn-FL, UP-FL and FedMP (ISS pruning).
pub fn table4(h: &mut Harness) {
    let workers = 4usize;
    let vocab = 50usize;
    let corpus = ptb_like(vocab, 60_000, 77);
    let (train, eval) = corpus.split(0.9);
    let lane = train.len() / workers;
    let worker_batches: Vec<Vec<TextBatch>> = (0..workers)
        .map(|w| {
            fedmp_data::TextDataset {
                tokens: train.tokens[w * lane..(w + 1) * lane].to_vec(),
                vocab,
            }
            .batches(8, 12)
        })
        .collect();
    let mut rng = seeded_rng(78);
    // Width compensation: charge the simulator for the paper-sized LSTM.
    let cost = |width| lstm_cost_per_token(&zoo::lstm_ptb(vocab, width, &mut ShapesOnly));
    let cost_scale = CostScale::from_reports(&cost(1.0), &cost(0.3));
    let task = LmTask::new(worker_batches, eval.batches(8, 12));
    let devices = heterogeneity_scenario(HeterogeneityLevel::Medium, workers, &mut rng);
    let setup = FlSetup::with_cost_scale(&task, devices, TimeModel::default(), cost_scale);
    let cfg = FlConfig {
        rounds: if h.full { 32 } else { 16 },
        local: LocalTrainConfig { tau: 4, lr: 0.4, ..Default::default() },
        eval_every: 2,
        eval_max_samples: 8,
        ..Default::default()
    };
    let global = zoo::lstm_ptb(vocab, 0.3, &mut rng);

    let histories = [
        run_synfl(&cfg, &setup, global.clone()),
        run_upfl(&cfg, &setup, global.clone(), &UpFlOptions::default()),
        run_fedmp(&cfg, &setup, global, &FedMpOptions::default()),
    ];

    // Budget: earliest finisher's horizon; target perplexity: what
    // Syn-FL reaches at 80% of the budget.
    let budget = histories.iter().map(|run| run.total_time()).fold(f64::INFINITY, f64::min);
    let target = histories[0].best_perplexity_within(budget * 0.8).unwrap_or(f32::INFINITY);
    let base_time = histories[0].time_to_perplexity(target);

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for run in &histories {
        let ppl = run.best_perplexity_within(budget);
        let speedup = match (base_time, run.time_to_perplexity(target)) {
            (Some(b), Some(t)) if t > 0.0 => Some(b / t),
            _ => None,
        };
        rows.push(vec![
            run.method.clone(),
            ppl.map_or("-".into(), |p| format!("{p:.2}")),
            fmt_speedup(speedup),
        ]);
        cells.push(json!({"method": run.method, "perplexity": ppl, "speedup": speedup}));
    }
    print_table(
        &format!("Table IV — LSTM/PTB-like (budget {budget:.0}s, target ppl {target:.1})"),
        &["method", "perplexity in budget", "speedup to target"],
        &rows,
    );
    save_result("table4", &json!({"budget": budget, "target": target, "rows": cells}));
}

/// Ablation (DESIGN.md §5): the pruning-ratio decision policy, on a
/// simulated device-fitting environment whose optimal ratio drifts
/// mid-run (a worker's effective capability changes, e.g. thermal
/// throttling) — the non-stationarity the discounted design targets.
pub fn ablation_bandit(_: &mut Harness) {
    let rounds = 400usize;
    let seeds = [1u64, 2, 3, 4, 5];
    type PolicyCtor = fn(u64) -> Box<dyn Bandit>;
    let policies: [(&str, PolicyCtor); 4] = [
        ("E-UCB (split at arm)", |seed| {
            Box::new(EUcbAgent::new(EUcbConfig { seed, ..Default::default() }))
        }),
        ("E-UCB (midpoint split)", |seed| {
            let config = EUcbConfig { seed, split_at_midpoint: true, ..Default::default() };
            Box::new(EUcbAgent::new(config))
        }),
        ("Discrete D-UCB (9 arms)", |_| Box::new(DiscreteUcb::new(9, 0.9, 0.95))),
        ("epsilon-greedy (0.1)", |seed| Box::new(EpsilonGreedy::new(9, 0.9, 0.1, seed))),
    ];

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (name, ctor) in policies {
        // Per seed: mean |arm − optimum| over the last quarter of the
        // run, and total (pseudo-)regret.
        let (mut errs, mut regrets) = (Vec::new(), Vec::new());
        for seed in seeds {
            let mut policy = ctor(seed);
            let (mut regret, mut tail_err, mut tail_n) = (0.0f32, 0.0f32, 0usize);
            for k in 0..rounds {
                let optimum = if k < rounds / 2 { 0.3f32 } else { 0.65 };
                let arm = policy.select();
                let reward = 1.0 - 2.0 * (arm - optimum).abs();
                policy.observe(reward);
                regret += 1.0 - reward;
                if k >= rounds * 3 / 4 {
                    tail_err += (arm - optimum).abs();
                    tail_n += 1;
                }
            }
            errs.push(tail_err / tail_n as f32);
            regrets.push(regret);
        }
        let mean_err = errs.iter().sum::<f32>() / errs.len() as f32;
        let mean_regret = regrets.iter().sum::<f32>() / regrets.len() as f32;
        rows.push(vec![name.to_string(), format!("{mean_err:.3}"), format!("{mean_regret:.0}")]);
        results.push(json!({"policy": name, "tail_error": mean_err, "regret": mean_regret}));
    }
    print_table(
        "Ablation — ratio-decision policy (non-stationary optimum, 400 rounds, 5 seeds)",
        &["policy", "tail |alpha - alpha*|", "cumulative regret"],
        &rows,
    );
    save_result("ablation_bandit", &results);
}

/// Ablation (DESIGN.md §5): the Eq. 8 reward divides by `|Tₙ − T̄|`,
/// which explodes as a worker approaches the fleet average; we floor
/// the gap at `gap_floor · T̄`. What each floor does to time-to-target.
pub fn ablation_reward(h: &mut Harness) {
    let spec = h.spec(TaskKind::CnnMnist);
    // Reference target from the default configuration.
    let base = run_fedmp_custom(&spec, &FedMpOptions::default());
    let target = base.final_accuracy().unwrap_or(0.5) * 0.9;

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for gap_floor in [0.0f32, 0.05, 0.5] {
        let opts = FedMpOptions {
            reward: RewardConfig { gap_floor: gap_floor.max(1e-6), ..Default::default() },
            ..Default::default()
        };
        let run = run_fedmp_custom(&spec, &opts);
        let t = run.time_to_accuracy(target);
        let final_acc = run.final_accuracy().unwrap_or(0.0);
        rows.push(vec![format!("{gap_floor}"), fmt_time(t), format!("{:.1}%", final_acc * 100.0)]);
        results.push(json!({"gap_floor": gap_floor, "time_to_target": t, "final_acc": final_acc}));
    }
    print_table(
        &format!("Ablation — Eq. 8 gap floor (CNN/MNIST-like, target {:.0}%)", target * 100.0),
        &["gap floor", "time to target", "final accuracy"],
        &rows,
    );
    save_result("ablation_reward", &results);
}

/// Ablation (paper §VI / DESIGN.md §5): the pluggable importance
/// metric. Expected: L1 ≈ L2 (both weight-magnitude based), both clearly
/// ahead of seeded-random pruning.
pub fn ablation_importance(h: &mut Harness) {
    let spec = h.spec(TaskKind::CnnMnist);
    let metrics = [
        ("L1 (paper)", Importance::L1),
        ("L2", Importance::L2),
        ("random", Importance::Random { seed: 7 }),
    ];
    // All runs use a fixed moderate ratio so only the metric varies.
    let histories = metrics.map(|(_, importance)| {
        let opts = FedMpOptions { importance, fixed_ratio: Some(0.5), ..Default::default() };
        run_fedmp_custom(&spec, &opts)
    });
    let min_final =
        histories.iter().filter_map(|run| run.final_accuracy()).fold(f32::INFINITY, f32::min);
    let target = min_final * 0.95;

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for ((name, _), run) in metrics.iter().zip(&histories) {
        let final_acc = run.final_accuracy().unwrap_or(0.0);
        let t = run.time_to_accuracy(target);
        rows.push(vec![name.to_string(), format!("{:.1}%", final_acc * 100.0), fmt_time(t)]);
        results.push(json!({"metric": name, "final_acc": final_acc, "time_to_target": t}));
    }
    print_table(
        &format!("Ablation — importance metric (alpha=0.5 fixed, target {:.0}%)", target * 100.0),
        &["metric", "final accuracy", "time to target"],
        &rows,
    );
    save_result("ablation_importance", &results);
}

/// Extension: fleet energy per method. FedMP should cut *both* compute
/// and radio energy (smaller models, smaller transfers), compression-only
/// methods radio energy alone, FedProx mainly barrier idle time.
pub fn energy(h: &mut Harness) {
    let spec = h.spec(TaskKind::CnnMnist);
    let built = spec.build();
    let mean_flops =
        built.devices.iter().map(|d| d.flops()).sum::<f64>() / built.devices.len() as f64;
    let energy = EnergyModel::default();

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for run in h.histories(&spec, &Method::paper_five()) {
        let report = energy.estimate_run(
            run.rounds.iter().map(|r| (r.round_time, r.mean_comp, r.mean_comm)),
            spec.workers,
            mean_flops,
        );
        rows.push(vec![
            run.method.clone(),
            format!("{:.0}J", report.compute_j),
            format!("{:.0}J", report.comm_j),
            format!("{:.0}J", report.idle_j),
            format!("{:.0}J", report.total_j()),
            format!("{:.1}%", 100.0 * run.final_accuracy().unwrap_or(0.0)),
        ]);
        results.push(json!({
            "method": run.method,
            "compute_j": report.compute_j,
            "comm_j": report.comm_j,
            "idle_j": report.idle_j,
            "total_j": report.total_j(),
            "final_acc": run.final_accuracy(),
        }));
    }
    print_table(
        "Extension — fleet energy over the full run (CNN/MNIST-like, equal rounds)",
        &["method", "compute", "radio", "barrier idle", "total", "final acc"],
        &rows,
    );
    save_result("energy", &results);
}

/// First round (1-based) whose evaluation reached `target` accuracy.
fn rounds_to_accuracy(history: &RunHistory, target: f32) -> Option<usize> {
    history.rounds.iter().position(|r| r.eval.is_some_and(|(_, acc)| acc >= target)).map(|i| i + 1)
}

/// Resilience table: the threaded runtime on a 30-worker CNN/MNIST
/// deployment at 0 / 10 / 30 % fault pressure (availability faults plus
/// proportionally scaled transport chaos) — rounds to target once
/// faults exclude participants, and what recovery costs in wall clock.
/// Faults may slow convergence, never shorten the run.
pub fn resilience(_: &mut Harness) {
    let mut spec = ExperimentSpec::bench(TaskKind::CnnMnist);
    spec.workers = 30;
    spec.fl.rounds = 6;
    spec.fl.eval_every = 1;
    let built = spec.build();
    let setup =
        FlSetup::with_cost_scale(&built.task, built.devices.clone(), built.time, built.cost_scale);
    let target = 0.5f32;

    println!("\nfaulted threaded runtime (target accuracy {target:.2}):");
    let mut runs = Vec::new();
    for p in [0.0f64, 0.1, 0.3] {
        let (opts, chaos) = if p > 0.0 {
            let faults = FaultOptions { fail_prob: p, recover_rounds: 1, ..Default::default() };
            let chaos = ChaosOptions {
                corrupt_prob: p,
                drop_prob: 0.5 * p,
                delay_prob: 0.5 * p,
                crash_prob: 0.25 * p,
                ..ChaosOptions::demo(spec.fl.seed)
            };
            (FedMpOptions { faults: Some(faults), ..Default::default() }, chaos)
        } else {
            (FedMpOptions::default(), ChaosOptions::none())
        };
        let start = Instant::now();
        let history =
            run_threaded(&spec.fl, &setup, built.model.clone(), &SyncMethod::FedMp(opts), &chaos)
                .expect("injected faults are recoverable, never terminal");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(history.rounds.len(), spec.fl.rounds, "faults must not shorten the run");
        let to_target = rounds_to_accuracy(&history, target);
        let retries: usize = history.rounds.iter().map(|r| r.retries).sum();
        let exclusions: usize = history.rounds.iter().map(|r| r.exclusions).sum();
        let reached = to_target.map_or("never".to_string(), |r| format!("round {r}"));
        println!(
            "fault {p:>4.0}%   wall {wall_ms:9.1} ms  target: {reached:<9}  \
             retransmits {retries:3}  exclusions {exclusions:3}",
            p = p * 100.0
        );
        runs.push(json!({
            "fault_prob": p,
            "wall_ms": wall_ms,
            "rounds_to_target": to_target,
            "retransmits": retries,
            "exclusions": exclusions,
        }));
    }
    save_result(
        "resilience",
        &json!({"engine": "FedMP-threaded", "target_accuracy": target, "runs": runs}),
    );
}

/// Compression × pruning (wire v2): FedMP under every uplink codec
/// policy at two fixed pruning ratios, on a High-heterogeneity fleet —
/// its cluster C sits on Far links (12 Mbit/s), the bandwidth-constrained
/// class the adaptive policy compresses. Per-worker wire traffic and
/// Eq. 5 communication seconds are read off the trace stream. Panics
/// unless int8 top-k cuts uplink bytes ≥ 4× per round, the adaptive
/// policy lowers Eq. 5 time on the slow links, and every compressed
/// cell's accuracy stays within 0.15 of dense at matched rounds.
pub fn compression(_: &mut Harness) {
    let mut spec = ExperimentSpec::bench(TaskKind::CnnMnist);
    spec.level = HeterogeneityLevel::High;
    spec.fl.rounds = 8;
    spec.fl.eval_every = 1;
    let built = spec.build();
    let setup =
        FlSetup::with_cost_scale(&built.task, built.devices.clone(), built.time, built.cost_scale);
    let slow: Vec<bool> = built.devices.iter().map(|d| d.is_slow_link(SLOW_LINK_BPS)).collect();
    let slow_count = slow.iter().filter(|&&s| s).count();
    assert!(slow_count > 0 && slow_count < slow.len(), "the fleet must mix slow and fast links");

    let policies = [
        ("dense", CompressionPolicy::dense()),
        ("f16-up", CompressionPolicy::uniform_uplink(Codec::DenseF16)),
        ("int8-up", CompressionPolicy::uniform_uplink(Codec::Int8)),
        ("topk-int8-up", CompressionPolicy::uniform_uplink(Codec::TopKInt8 { keep: 0.1 })),
        ("adaptive", CompressionPolicy::adaptive()),
    ];
    let rounds = spec.fl.rounds as f64;
    println!("CNN/MNIST, {} workers ({slow_count} on slow links) x {rounds} rounds", spec.workers);
    let mut cells = Vec::new();
    let mut reduction = 0.0;
    for ratio in [0.0f32, 0.5] {
        // (uplink bytes per round, slow-link comm seconds, accuracy) by
        // policy; the dense cell runs first.
        let mut seen: Vec<(f64, f64, f32)> = Vec::new();
        for (name, compression) in policies {
            let opts = FedMpOptions { fixed_ratio: Some(ratio), compression, ..Default::default() };
            let manifest = RunManifest::new(name, spec.seed, spec.workers, spec.fl.rounds, 1);
            let session = TraceSession::capture(&manifest);
            let history = run_fedmp(&spec.fl, &setup, built.model.clone(), &opts);
            let (mut up, mut down) = (0.0, 0.0);
            // Eq. 5 seconds: [fast links, slow links] as (sum, count).
            let mut comm = [(0.0, 0usize); 2];
            for event in session.finish().events {
                if let TraceEvent::LocalTrain { worker, comm_secs, bytes_down, bytes_up, .. } =
                    event
                {
                    up += bytes_up;
                    down += bytes_down;
                    let class = &mut comm[usize::from(slow[worker])];
                    *class = (class.0 + comm_secs, class.1 + 1);
                }
            }
            let [fast_comm, slow_comm] = comm.map(|(sum, n)| sum / n.max(1) as f64);
            let acc = history.final_accuracy().expect("evaluated run");
            seen.push((up / rounds, slow_comm, acc));
            let target = (seen[0].2 * 0.9).min(0.99);
            println!(
                "ratio {ratio:.1} {name:<13} up/round {:12.0} B  slow-comm {slow_comm:.2}s  \
                 fast-comm {fast_comm:.2}s  acc {acc:.3}",
                up / rounds
            );
            cells.push(json!({
                "policy": name, "fixed_ratio": ratio,
                "uplink_bytes_total": up, "uplink_bytes_per_round": up / rounds,
                "downlink_bytes_total": down,
                "slow_comm_secs_mean": slow_comm, "fast_comm_secs_mean": fast_comm,
                "final_accuracy": acc, "target_accuracy": target,
                "rounds_to_target": rounds_to_accuracy(&history, target),
                "sim_time_total": history.rounds.last().map(|r| r.sim_time),
            }));
        }
        let [(dense_up, dense_slow, dense_acc), .., (topk_up, ..), (_, adaptive_slow, _)] =
            seen[..]
        else {
            unreachable!("five policies")
        };
        assert!(topk_up * 4.0 <= dense_up, "ratio {ratio}: top-k int8 {topk_up} vs {dense_up} B");
        assert!(adaptive_slow < dense_slow, "ratio {ratio}: {adaptive_slow} vs {dense_slow} s");
        for (&(.., acc), (name, _)) in seen.iter().zip(policies) {
            assert!(acc > dense_acc - 0.15, "ratio {ratio}: {name} accuracy {acc} vs {dense_acc}");
        }
        if ratio == 0.0 {
            reduction = dense_up / topk_up;
        }
    }
    println!("headline: int8 top-k uplink {reduction:.1}x smaller than dense per round");
    save_result(
        "compression",
        &json!({
            "task": "CnnMnist",
            "workers": spec.workers, "slow_link_workers": slow_count,
            "rounds": spec.fl.rounds, "slow_link_bps": SLOW_LINK_BPS,
            "cells": cells,
            "headline": {"policy": "topk-int8-up", "uplink_reduction_vs_dense": reduction},
        }),
    );
}

/// Parameter count of the synthetic template `scale`'s cohort curve
/// streams (the curve measures memory shape, not model quality).
const TEMPLATE_PARAMS: usize = 4096;

/// A deterministic synthetic client update: [`TEMPLATE_PARAMS`] values
/// derived from the client id, spanning signs and magnitudes.
fn synthetic_update(id: u64) -> Vec<StateEntry> {
    let mut z = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
    let vals: Vec<f32> = (0..TEMPLATE_PARAMS)
        .map(|_| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let u = (z >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
            (u - 0.5) * 2e4
        })
        .collect();
    let tensor = Tensor::from_vec(vals, &[TEMPLATE_PARAMS]).expect("synthetic template");
    vec![StateEntry::trainable("w", tensor)]
}

/// Population scale (docs/SCALE.md). The cohort curve streams up to 10⁵
/// synthetic clients through 8 shard reducers at the aggregation layer:
/// a shard holds its [`ExactState`] plus the one update in flight, so
/// its peak is a function of the model shape, not the cohort. The engine
/// rows are real hierarchical runs at small cohorts over a 100 000-device
/// population, reporting the `ShardReduced` peak the engine itself
/// traces. That any shard tree equals the flat average is
/// `crates/fl/tests/hierarchy.rs`; that the engine's history is one at
/// every partition is the root `tests/goldens.rs`.
pub fn scale(_: &mut Harness) {
    let shards = 8u64;
    let template = synthetic_update(0);
    let mut curve = Vec::new();
    let mut rows = Vec::new();
    for cohort in [100u64, 1_000, 10_000, 100_000] {
        let start = Instant::now();
        let mut peak = 0;
        let mut cloud: Option<ExactState> = None;
        for s in 0..shards {
            // The streaming contract: materialise one update, fold it,
            // drop it. The transient is one f32 snapshot.
            let mut acc = ExactState::like(&template);
            peak = peak.max(acc.tracked_bytes() + 4 * TEMPLATE_PARAMS);
            for id in s * cohort / shards..(s + 1) * cohort / shards {
                acc.fold(&synthetic_update(id));
            }
            match cloud.as_mut() {
                Some(c) => c.merge(&acc),
                None => cloud = Some(acc),
            }
        }
        let mean = cloud.expect("at least one shard").finalize(cohort as usize);
        // Keeps the finalised mean observable, and pins its bits.
        let checksum: u32 = mean[0].tensor.data().iter().map(|v| v.to_bits() >> 24).sum();
        let secs = start.elapsed().as_secs_f64();
        rows.push(vec![cohort.to_string(), peak.to_string(), format!("{secs:.2}s")]);
        curve.push(json!({
            "cohort": cohort, "shards": shards,
            "per_shard_peak_bytes": peak,
            "mean_checksum": checksum,
        }));
    }
    print_table(
        &format!("cohort curve ({shards} shard reducers, {TEMPLATE_PARAMS}-param template)"),
        &["cohort", "per-shard peak B", "fold time"],
        &rows,
    );

    let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
    spec.fl.rounds = 2;
    spec.fl.eval_every = 2;
    let population = 100_000u64;
    let built = spec.build();
    let mut setup =
        HierSetup::new(&built.task, Population::new(population, spec.seed, spec.level), built.time);
    setup.cost_scale = built.cost_scale;
    let mut engine_rows = Vec::new();
    for cohort in [8usize, 32] {
        let opts = HierarchyOptions { cohort, shards: 4, edges: 2, ..Default::default() };
        let manifest = RunManifest::new("scale", spec.seed, cohort, spec.fl.rounds, 1);
        // The engine itself, not `fedmp_core::run_hier`: under
        // `FEDMP_TRACE` that opens a file session of its own, and
        // sessions are exclusive — it would wait for this capture.
        let session = TraceSession::capture(&manifest);
        let history = run_fedmp_hier(&spec.fl, &setup, built.model.clone(), &opts);
        let peaks = session.finish().events.into_iter().filter_map(|e| match e {
            TraceEvent::ShardReduced { peak_bytes, .. } => Some(peak_bytes),
            _ => None,
        });
        let peak = peaks.max().unwrap_or(0);
        println!("engine: cohort {cohort} of {population} devices -> per-shard peak {peak} bytes");
        engine_rows.push(json!({
            "cohort": cohort, "population": population,
            "shards": 4, "edges": 2,
            "rounds": history.rounds.len(),
            "per_shard_peak_bytes": peak,
            "final_accuracy": history.final_accuracy(),
        }));
    }
    save_result("scale", &json!({"cohort_curve": curve, "engine_rows": engine_rows}));
}

/// Calibration probe (no artifact): Syn-FL vs FedMP per task. Use after
/// changing dataset difficulty, model widths or simulator calibration
/// to verify every task still learns and discriminates between methods.
pub fn probe(h: &mut Harness) {
    let mut rows = Vec::new();
    for task in TaskKind::all() {
        for run in h.histories(&h.spec(task), &[Method::SynFl, Method::FedMp]) {
            let final_acc = run.final_accuracy().unwrap_or(0.0);
            rows.push(vec![
                task.name().into(),
                run.method.clone(),
                format!("{:.1}%", final_acc * 100.0),
                run.time_to_accuracy(final_acc * 0.9).map_or("-".into(), |t| format!("{t:.0}s")),
                format!("{:.0}s", run.total_time()),
            ]);
        }
    }
    print_table(
        "calibration probe",
        &["task", "method", "final acc", "time to 0.9x final", "total time"],
        &rows,
    );
}
