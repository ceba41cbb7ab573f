//! # fedmp-edgesim
//!
//! A deterministic simulator of the paper's heterogeneous edge testbed:
//! 30 NVIDIA Jetson TX2 workers in four computing modes (Table II),
//! placed at different distances from the parameter server (Fig. 3), so
//! both computation and communication capabilities vary across workers.
//!
//! The paper's completion-time model (Eq. 5) is
//! `Tₙ = Tₙ_comp + Tₙ_comm`; this crate evaluates it analytically from
//! per-model FLOP counts and wire bytes on a **virtual clock**:
//!
//! * computation time = training FLOPs ÷ effective device throughput,
//! * communication time = (download + upload bytes) ÷ link bandwidth,
//! * both scaled by seeded log-normal jitter to model real-world
//!   variance.
//!
//! Absolute seconds are calibrated to be *plausible* for a TX2-class
//! device, but every result reported by the benchmark harness is a ratio
//! of completion times, which is insensitive to the absolute
//! calibration. The crate also implements the §V-A fault/deadline rule
//! (deadline = 1.5 × the time at which 85 % of local models arrived) and
//! the arrival queue used by asynchronous FedMP (Algorithm 2).

mod cluster;
mod device;
mod drift;
mod energy;
mod faults;
mod population;
mod queue;
mod time_model;

pub use cluster::{
    heterogeneity_scenario, level_fractions, sample_cluster_device, Cluster, HeterogeneityLevel,
};
pub use device::{tx2_profile, ComputeMode, DeviceProfile, LinkQuality, SLOW_LINK_BPS};
pub use drift::DriftModel;
pub use energy::{EnergyModel, EnergyReport};
pub use faults::{deadline_for, FaultInjector};
pub use population::{class_of, Population, CLASS_COUNT};
pub use queue::{ArrivalQueue, Completion};
pub use time_model::{RoundCost, RoundTime, TimeModel};
