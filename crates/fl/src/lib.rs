//! # fedmp-fl
//!
//! The federated-learning engine of the FedMP reproduction: a simulated
//! parameter server and worker fleet running on the `fedmp-edgesim`
//! virtual clock, with every training/synchronisation scheme the paper
//! evaluates:
//!
//! | engine | paper reference |
//! |---|---|
//! | [`run_fedmp`] | FedMP (Fig. 1, §III–§IV): per-worker E-UCB ratios, structured pruning, R2SP |
//! | [`run_synfl`] | Syn-FL baseline \[5\]: full-model FedAvg — FedMP's round at ρ ≡ 0 |
//! | [`run_upfl`] | UP-FL baseline \[15\]: uniform adaptive pruning ratio — the same round, one shared ρ |
//! | [`run_fedprox`] | FedProx baseline \[19\]: the same round at ρ ≡ 0 with a proximal term + capability-scaled local iterations |
//! | [`run_flexcom`] | FlexCom baseline \[13\]: heterogeneous top-k upload compression |
//! | [`run_async`] | Asyn-FL \[43\] and Asyn-FedMP (Algorithm 2): m-of-N arrival aggregation |
//! | [`run_lm`] | §VI LSTM extension: Syn-FL / UP-FL / FedMP with ISS pruning |
//!
//! Local training fans out across simulated workers through the
//! deterministic round executor in [`exec`] (`FEDMP_THREADS` workers,
//! results folded in fixed worker order); all stochasticity is derived
//! from per-worker, per-round seeds, so runs — histories, resource
//! totals, and trace streams alike — are bit-identical at any thread
//! count.

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

pub use aggregate::{average_states, bsp_aggregate, mix_states, quorum_aggregate, r2sp_aggregate};
pub use chaos::{backoff, backoff_scale, ChaosDraw, ChaosOptions, ChaosPlan};
pub use engine::{CostScale, FlConfig, FlSetup, SyncScheme};
pub use engines::baselines::{run_fedprox, run_synfl, run_upfl, FedProxOptions, UpFlOptions};
pub use engines::fedmp::{run_fedmp, FaultOptions, FedMpOptions};
pub use engines::flexcom::{run_flexcom, FlexComOptions};
pub use engines::r#async::{run_async, AsyncMode, AsyncOptions};
pub use eval::{evaluate_image, evaluate_lm, EvalResult};
pub use hierarchy::{
    run_fedmp_hier, run_fedmp_hier_threaded, ExactState, HierSetup, HierarchyOptions,
};
pub use history::{RoundRecord, RunHistory};
pub use lm::{run_lm, LmMethod, LmOptions, LmRunResult, LmSetup};
pub use local::{local_train, LocalOutcome, LocalTrainConfig};
pub use metrics::{relative_cost, resource_totals, ResourceTotals};
pub use runtime::{
    live_worker_threads, run_fedmp_threaded, run_fedmp_threaded_chaos, RuntimeError,
};
pub use task::ImageTask;
pub use transport::{
    connect_with_retry, run_fedmp_sockets, serve_worker, unique_socket_path, NodeHandle,
    NodeSpawner, ProcessNodes, Served, SocketRunOptions, ThreadNodes, TransportError,
    TransportFault,
};
pub use wire::{
    codec_delivered, decode_state_v2, encode_state, encode_state_v2, f16_bits_to_f32,
    f32_to_f16_bits, frame_checksum_ok, frame_codec, topk_len, wire_size_v2, Codec,
    CompressionPolicy, ErrorFeedback, LinkCodecs, WireError,
};
