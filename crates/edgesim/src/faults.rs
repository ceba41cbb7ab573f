//! Worker-failure injection and the paper's deadline rule (§V-A).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The §V-A deadline rule: record the time `d` at which `frac` (the
/// paper uses 85 %) of the local models have been received, then set the
/// round deadline to `factor · d` (the paper uses 1.5).
///
/// Returns `None` when `times` is empty.
pub fn deadline_for(times: &[f64], frac: f64, factor: f64) -> Option<f64> {
    if times.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&frac), "frac must be a fraction");
    let mut sorted = times.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let k = ((sorted.len() as f64 * frac).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[k - 1] * factor)
}

/// Bernoulli worker-failure injection with a fixed recovery delay:
/// a failed worker misses its failure round plus `recover_rounds`
/// further rounds, then rejoins (the paper's PS "periodically asks
/// whether these workers have recovered").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultInjector {
    /// Per-round failure probability of a healthy worker.
    pub fail_prob: f64,
    /// Rounds a failed worker stays offline.
    pub recover_rounds: u32,
    /// Remaining offline rounds per worker (0 = healthy).
    down: Vec<u32>,
    /// Whether each worker was offline in the previous round — the
    /// memory that turns a countdown reaching zero into a single
    /// `FaultRecovered` trace event.
    was_down: Vec<bool>,
}

impl FaultInjector {
    /// A fault injector for `workers` devices.
    pub fn new(workers: usize, fail_prob: f64, recover_rounds: u32) -> Self {
        assert!((0.0..=1.0).contains(&fail_prob), "fail_prob must be a probability");
        FaultInjector {
            fail_prob,
            recover_rounds,
            down: vec![0; workers],
            was_down: vec![false; workers],
        }
    }

    /// Advances one round. Returns the indices of workers that are
    /// **online** this round. Emits `FaultInjected` / `FaultRecovered`
    /// trace events (in worker-index order) when tracing is enabled.
    pub fn step(&mut self, rng: &mut StdRng) -> Vec<usize> {
        let down_rounds = self.recover_rounds;
        let mut online = Vec::with_capacity(self.down.len());
        for (i, d) in self.down.iter_mut().enumerate() {
            if *d > 0 {
                *d -= 1;
                self.was_down[i] = true;
                continue;
            }
            if self.was_down[i] {
                fedmp_obs::emit(|| fedmp_obs::TraceEvent::FaultRecovered { worker: i });
            }
            if self.fail_prob > 0.0 && rng.gen::<f64>() < self.fail_prob {
                *d = down_rounds;
                fedmp_obs::emit(|| fedmp_obs::TraceEvent::FaultInjected { worker: i, down_rounds });
                self.was_down[i] = true;
                continue;
            }
            self.was_down[i] = false;
            online.push(i);
        }
        online
    }

    /// Whether worker `i` is currently offline.
    pub fn is_down(&self, i: usize) -> bool {
        self.down[i] > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deadline_matches_paper_rule() {
        // 10 times; 85% → 9th order statistic; ×1.5.
        let times: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let d = deadline_for(&times, 0.85, 1.5).unwrap();
        assert!((d - 13.5).abs() < 1e-9, "deadline {d}");
    }

    #[test]
    fn deadline_empty_is_none() {
        assert!(deadline_for(&[], 0.85, 1.5).is_none());
    }

    #[test]
    fn deadline_single_worker() {
        assert_eq!(deadline_for(&[4.0], 0.85, 1.5), Some(6.0));
    }

    #[test]
    fn no_faults_means_everyone_online() {
        let mut inj = FaultInjector::new(5, 0.0, 3);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(inj.step(&mut rng), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn failed_workers_recover_after_the_delay() {
        let mut inj = FaultInjector::new(200, 0.5, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let online1 = inj.step(&mut rng);
        assert!(online1.len() < 150, "expected many failures, got {}", online1.len());
        let failed: Vec<usize> = (0..200).filter(|&i| inj.is_down(i)).collect();
        assert!(!failed.is_empty());
        // After recover_rounds steps with fail_prob forced to 0, all back.
        inj.fail_prob = 0.0;
        inj.step(&mut rng);
        inj.step(&mut rng);
        let online = inj.step(&mut rng);
        assert_eq!(online.len(), 200);
    }

    #[test]
    fn downtime_counts_down() {
        let mut inj = FaultInjector::new(1, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(inj.step(&mut rng).is_empty()); // fails immediately (misses this round)
        assert!(inj.is_down(0));
        inj.fail_prob = 0.0;
        assert!(inj.step(&mut rng).is_empty()); // 3 → 2
        assert!(inj.step(&mut rng).is_empty()); // 2 → 1
        assert!(inj.step(&mut rng).is_empty()); // 1 → 0
        assert_eq!(inj.step(&mut rng), vec![0]); // recovered
    }
}
