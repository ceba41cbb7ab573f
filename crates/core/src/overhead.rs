//! Fig. 11 instrumentation: wall-clock cost of the PS-side algorithm
//! (pruning-ratio decision + model pruning), the one measurement the
//! paper reports in real time rather than on the virtual clock.

use fedmp_bandit::{Bandit, EUcbAgent, EUcbConfig};
use fedmp_nn::Sequential;
use fedmp_pruning::{extract_sequential, plan_sequential};
use serde::{Deserialize, Serialize};

/// Measured per-round PS overhead.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Workers measured.
    pub workers: usize,
    /// Pruning-ratio decision time per round (seconds, all workers).
    pub decision_secs: f64,
    /// Model pruning (plan + extract) time per round (seconds, all
    /// workers).
    pub pruning_secs: f64,
}

impl OverheadReport {
    /// Total algorithm overhead per round.
    pub fn total_secs(&self) -> f64 {
        self.decision_secs + self.pruning_secs
    }
}

/// Measures the mean per-round algorithm overhead for `workers` workers
/// over `rounds` simulated decision+pruning cycles on `model`.
#[expect(clippy::disallowed_types, reason = "measuring wall-clock overhead is this function's job")]
pub fn measure_overhead(
    model: &Sequential,
    input_chw: (usize, usize, usize),
    workers: usize,
    rounds: usize,
) -> OverheadReport {
    assert!(rounds > 0, "need at least one round");
    let mut agents: Vec<EUcbAgent> = (0..workers)
        .map(|w| EUcbAgent::new(EUcbConfig { seed: w as u64, ..Default::default() }))
        .collect();

    let mut decision = 0.0f64;
    let mut pruning = 0.0f64;
    for round in 0..rounds {
        let t0 = std::time::Instant::now();
        let ratios: Vec<f32> = agents.iter_mut().map(|a| a.select()).collect();
        decision += t0.elapsed().as_secs_f64();

        let t1 = std::time::Instant::now();
        for &r in &ratios {
            let plan = plan_sequential(model, input_chw, r);
            let sub = extract_sequential(model, &plan);
            std::hint::black_box(&sub);
        }
        pruning += t1.elapsed().as_secs_f64();

        // Feed synthetic rewards so the decision trees keep growing as
        // they would in a real run.
        for (w, a) in agents.iter_mut().enumerate() {
            a.observe(1.0 / (1.0 + (w + round) as f32));
        }
    }
    OverheadReport {
        workers,
        decision_secs: decision / rounds as f64,
        pruning_secs: pruning / rounds as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedmp_nn::zoo;
    use fedmp_tensor::seeded_rng;

    #[test]
    fn overhead_grows_with_worker_count() {
        // Wall-clock measurement: take the min of three trials per size
        // so scheduler noise on loaded machines cannot flip the
        // comparison (16 workers do 8× the decision+pruning work).
        let mut rng = seeded_rng(140);
        let model = zoo::cnn_mnist(0.25, &mut rng);
        let min_of = |workers: usize| {
            (0..3)
                .map(|_| measure_overhead(&model, (1, 28, 28), workers, 3).total_secs())
                .fold(f64::INFINITY, f64::min)
        };
        let small = min_of(2);
        let large = min_of(16);
        assert!(large > small, "16-worker overhead {large} not above 2-worker {small}");
        assert_eq!(measure_overhead(&model, (1, 28, 28), 2, 1).workers, 2);
    }

    #[test]
    fn overhead_is_small_relative_to_training() {
        // The paper's point: decision+pruning is negligible next to
        // hundreds of seconds of training. Even on this laptop-scale
        // model it must be well under a second per round for 10 workers.
        let mut rng = seeded_rng(141);
        let model = zoo::cnn_mnist(0.25, &mut rng);
        let report = measure_overhead(&model, (1, 28, 28), 10, 3);
        assert!(report.total_secs() < 1.0, "overhead {}s", report.total_secs());
    }
}
