//! Device energy model.
//!
//! The FlexCom baseline (\[13\], "energy efficient federated learning")
//! motivates compression by worker energy budgets; this module lets the
//! harness report per-run energy alongside completion time. Constants
//! are calibrated to a Jetson-TX2-class board: ~10 GFLOP/s per watt of
//! effective training throughput, a Wi-Fi-class radio, and a few watts
//! of idle draw while a worker waits at the synchronisation barrier.

use serde::{Deserialize, Serialize};

/// Power/efficiency constants of a simulated worker.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Compute energy per FLOP (J/FLOP) — inverse of GFLOP/s-per-watt.
    pub joules_per_flop: f64,
    /// Radio power while transmitting or receiving (W).
    pub radio_power_watts: f64,
    /// Idle draw while waiting at the barrier (W).
    pub idle_power_watts: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            joules_per_flop: 1.0e-10, // 10 GFLOP/s/W effective
            radio_power_watts: 1.3,
            idle_power_watts: 2.0,
        }
    }
}

/// Energy totals of one run (joules).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Training compute energy.
    pub compute_j: f64,
    /// Radio energy (download + upload).
    pub comm_j: f64,
    /// Barrier idle energy (fast workers waiting for stragglers).
    pub idle_j: f64,
}

impl EnergyReport {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.comm_j + self.idle_j
    }
}

impl EnergyModel {
    /// Estimates fleet energy from per-round aggregates: each round
    /// contributes `workers` × (mean compute seconds × device power +
    /// mean comm seconds × radio power), plus idle energy for the time
    /// each worker spends waiting below the round barrier.
    ///
    /// `rounds` yields `(round_time, mean_comp_secs, mean_comm_secs)`;
    /// `mean_device_flops` is the fleet's average effective throughput
    /// (used to convert compute seconds back to FLOPs).
    pub fn estimate_run(
        &self,
        rounds: impl IntoIterator<Item = (f64, f64, f64)>,
        workers: usize,
        mean_device_flops: f64,
    ) -> EnergyReport {
        let mut report = EnergyReport::default();
        let n = workers as f64;
        for (round_time, mean_comp, mean_comm) in rounds {
            let flops = mean_comp * mean_device_flops;
            report.compute_j += n * flops * self.joules_per_flop;
            report.comm_j += n * mean_comm * self.radio_power_watts;
            let busy = mean_comp + mean_comm;
            let idle = (round_time - busy).max(0.0);
            report.idle_j += n * idle * self.idle_power_watts;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_computed_round() {
        let m =
            EnergyModel { joules_per_flop: 1.0e-9, radio_power_watts: 2.0, idle_power_watts: 1.0 };
        // One round: 10 s barrier, 4 s compute at 1 GFLOP/s, 2 s comm.
        let report = m.estimate_run([(10.0, 4.0, 2.0)], 2, 1.0e9);
        // compute: 2 workers × 4e9 FLOPs × 1e-9 J = 8 J
        assert!((report.compute_j - 8.0).abs() < 1e-9);
        // comm: 2 × 2 s × 2 W = 8 J
        assert!((report.comm_j - 8.0).abs() < 1e-9);
        // idle: 2 × (10 − 6) s × 1 W = 8 J
        assert!((report.idle_j - 8.0).abs() < 1e-9);
        assert!((report.total_j() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn less_work_is_less_energy() {
        let m = EnergyModel::default();
        let heavy = m.estimate_run([(10.0, 8.0, 2.0)], 4, 50.0e9);
        let light = m.estimate_run([(5.0, 3.0, 1.0)], 4, 50.0e9);
        assert!(light.total_j() < heavy.total_j());
    }

    #[test]
    fn idle_never_negative() {
        let m = EnergyModel::default();
        // busy > round_time (deadline-truncated rounds) must clamp.
        let r = m.estimate_run([(1.0, 3.0, 2.0)], 2, 1.0e9);
        assert!(r.idle_j == 0.0);
    }
}
