//! # fedmp
//!
//! Umbrella crate of the FedMP reproduction: re-exports the public API
//! of every workspace crate so examples and downstream users need a
//! single dependency.
//!
//! * [`tensor`] — dense f32 tensor substrate
//! * [`nn`] — layers, models, optimizers, the model zoo
//! * [`data`] — synthetic datasets and federated partitioners
//! * [`pruning`] — structured pruning + R2SP primitives
//! * [`bandit`] — the E-UCB pruning-ratio policy
//! * [`edgesim`] — the heterogeneous edge simulator
//! * [`fl`] — the FL engine and every baseline
//! * [`obs`] — structured trace events, run manifests, trace tooling
//! * [`core`] — experiment specs, the method dispatcher, reports
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory.

pub use fedmp_bandit as bandit;
pub use fedmp_core as core;
pub use fedmp_data as data;
pub use fedmp_edgesim as edgesim;
pub use fedmp_fl as fl;
pub use fedmp_nn as nn;
pub use fedmp_obs as obs;
pub use fedmp_pruning as pruning;
pub use fedmp_tensor as tensor;

/// Convenience prelude for examples and tests.
pub mod prelude {
    pub use fedmp_bandit::{Bandit, EUcbAgent, EUcbConfig};
    pub use fedmp_core::{run_method, ExperimentSpec, Method, TaskKind};
    pub use fedmp_edgesim::{HeterogeneityLevel, TimeModel};
    pub use fedmp_fl::{FlConfig, FlSetup, RunHistory};
    pub use fedmp_nn::{zoo, Sequential};
    pub use fedmp_tensor::{seeded_rng, Tensor};
}
