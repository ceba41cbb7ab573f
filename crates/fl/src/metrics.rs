//! Per-run resource accounting: aggregate virtual-time, data-volume and
//! compute totals derived from a [`RunHistory`] — the numbers a
//! deployment report would quote next to accuracy.

use crate::history::RunHistory;
use serde::{Deserialize, Serialize};

/// Aggregate resource totals of one training run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ResourceTotals {
    /// Total virtual wall time (s).
    pub wall_secs: f64,
    /// Summed per-worker computation time (s·workers).
    pub compute_secs: f64,
    /// Summed per-worker communication time (s·workers).
    pub comm_secs: f64,
    /// Summed barrier idle time (s·workers): round barrier minus each
    /// worker's busy time, accumulated over rounds.
    pub idle_secs: f64,
    /// Aggregation rounds executed.
    pub rounds: usize,
}

impl ResourceTotals {
    /// Fraction of fleet-seconds spent productive (compute + comm).
    pub fn utilisation(&self) -> f64 {
        let busy = self.compute_secs + self.comm_secs;
        let total = busy + self.idle_secs;
        if total <= 0.0 {
            0.0
        } else {
            busy / total
        }
    }
}

/// Computes resource totals for a run over `workers` devices.
///
/// Idle time is estimated per round as
/// `workers × (round_time − mean_comp − mean_comm)` — exact when worker
/// times are symmetric, a lower bound otherwise.
pub fn resource_totals(history: &RunHistory, workers: usize) -> ResourceTotals {
    let n = workers as f64;
    let mut t = ResourceTotals { rounds: history.rounds.len(), ..Default::default() };
    for r in &history.rounds {
        t.wall_secs += r.round_time;
        t.compute_secs += n * r.mean_comp;
        t.comm_secs += n * r.mean_comm;
        t.idle_secs += n * (r.round_time - r.mean_comp - r.mean_comm).max(0.0);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RoundRecord;

    fn history(rounds: usize, round_time: f64, comp: f64, comm: f64) -> RunHistory {
        let mut h = RunHistory::new("test");
        for i in 0..rounds {
            h.rounds.push(RoundRecord {
                round: i,
                sim_time: round_time * (i + 1) as f64,
                round_time,
                mean_comp: comp,
                mean_comm: comm,
                train_loss: 0.0,
                eval: None,
                ..Default::default()
            });
        }
        h
    }

    #[test]
    fn totals_accumulate_linearly() {
        let h = history(10, 5.0, 2.0, 1.0);
        let t = resource_totals(&h, 4);
        assert_eq!(t.rounds, 10);
        assert!((t.wall_secs - 50.0).abs() < 1e-9);
        assert!((t.compute_secs - 4.0 * 2.0 * 10.0).abs() < 1e-9);
        assert!((t.comm_secs - 4.0 * 1.0 * 10.0).abs() < 1e-9);
        assert!((t.idle_secs - 4.0 * 2.0 * 10.0).abs() < 1e-9);
        // busy 120, idle 80 → utilisation 0.6
        assert!((t.utilisation() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_history_is_zero() {
        let t = resource_totals(&RunHistory::new("empty"), 8);
        assert_eq!(t.rounds, 0);
        assert_eq!(t.utilisation(), 0.0);
    }
}
