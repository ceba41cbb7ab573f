//! # fedmp-fl
//!
//! The federated-learning engine of the FedMP reproduction: a simulated
//! parameter server and worker fleet running on the `fedmp-edgesim`
//! virtual clock, with every training/synchronisation scheme the paper
//! evaluates:
//!
//! | engine | paper reference |
//! |---|---|
//! | [`run_fedmp`] | FedMP (Fig. 1, §III–§IV): per-worker E-UCB ratios, structured pruning, R2SP; any [`FlModel`]: a `Sequential` CNN, or the §VI `LstmLm` on an [`LmTask`] |
//! | [`run_synfl`] | Syn-FL baseline \[5\]: full-model FedAvg — FedMP's round at ρ ≡ 0; any [`FlModel`] |
//! | [`run_upfl`] | UP-FL baseline \[15\]: uniform adaptive pruning ratio — the same round, one shared ρ; any [`FlModel`] |
//! | [`run_fedprox`] | FedProx baseline \[19\]: the same round at ρ ≡ 0 with a proximal term + capability-scaled local iterations |
//! | [`run_flexcom`] | FlexCom baseline \[13\]: the same round at ρ ≡ 0 with bandwidth-scaled top-k uplinks and error feedback |
//! | [`run_threaded`] / [`run_sockets`] | the paper's prototype (§V): any [`SyncMethod`] on any [`FlModel`] (the CNNs, or the LSTM on an [`LmTask`]) over real frames, one in-process thread or OS process per worker behind a Unix socket; history bit-identical to the loop engine's |
//! | [`run_async`] | Asyn-FL \[43\] and Asyn-FedMP (Algorithm 2): m-of-N arrival aggregation |
//!
//! Local training fans out across simulated workers through the
//! deterministic round executor in [`exec`] (`FEDMP_THREADS` workers,
//! results folded in fixed worker order); all stochasticity is derived
//! from per-worker, per-round seeds, so runs — histories, resource
//! totals, and trace streams alike — are bit-identical at any thread
//! count.
//!
//! No non-test path in this crate may panic: a panicking parameter
//! server, reader or node wedges its peers on their blocking socket
//! reads, turning a recoverable wire fault into a hang. Failures are
//! typed errors ([`RuntimeError`], [`TransportError`], [`WireError`]);
//! `assert!` documents invariants whose violation is a bug here.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod aggregate;
mod barrier;
mod chaos;
mod checksum;
mod engine;
mod engines;
mod eval;
pub mod exec;
mod hierarchy;
mod history;
mod lm;
mod local;
mod metrics;
mod runtime;
mod task;
mod transport;
mod wire;

pub use aggregate::{average_states, quorum_aggregate, r2sp_aggregate, ExactState};
pub use chaos::{backoff, ChaosOptions};
pub use engine::{CostScale, FlConfig, FlModel, FlSetup, SyncScheme, Workers};
pub use engines::baselines::{
    run_fedprox, run_flexcom, run_synfl, run_upfl, FedProxOptions, FlexComOptions, UpFlOptions,
};
pub use engines::fedmp::{run_fedmp, FaultOptions, FedMpOptions};
pub use engines::r#async::{run_async, AsyncMode, AsyncOptions};
pub use eval::{evaluate_image, EvalResult};
pub use hierarchy::{run_fedmp_hier, HierSetup, HierarchyOptions};
pub use history::{RoundRecord, RunHistory};
pub use lm::LmTask;
pub use local::{local_train, LocalOutcome, LocalTrainConfig};
pub use metrics::{resource_totals, ResourceTotals};
pub use runtime::{
    live_worker_threads, run_fedmp_threaded, run_threaded, RuntimeError, SyncMethod,
};
pub use task::ImageTask;
pub use transport::{
    run_fedmp_sockets, run_sockets, serve_worker, unique_socket_path, NodeHandle, NodeSpawner,
    ProcessNodes, SocketRunOptions, ThreadNodes, TransportError, TransportFault,
};
pub use wire::{
    codec_delivered, decode_state_v2, encode_state, encode_state_v2, f16_bits_to_f32,
    f32_to_f16_bits, frame_checksum_ok, wire_size_v2, Codec, CompressionPolicy, ErrorFeedback,
    LinkCodecs, WireError,
};
