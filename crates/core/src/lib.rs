//! # fedmp-core
//!
//! The FedMP orchestrator: experiment specifications, the method
//! dispatcher, overhead instrumentation and report output. This crate is
//! the public face of the reproduction — `fedmp-bench` and the examples
//! only talk to this API.
//!
//! ```no_run
//! use fedmp_core::{ExperimentSpec, Method, TaskKind};
//!
//! let spec = ExperimentSpec::small(TaskKind::CnnMnist);
//! let history = fedmp_core::run_method(&spec, Method::FedMp);
//! println!("time to 70% accuracy: {:?}", history.time_to_accuracy(0.7));
//! ```

mod config;
mod overhead;
mod report;
mod runner;
mod trace;

pub use config::{BuiltExperiment, ExperimentSpec, TaskKind};
pub use overhead::{measure_overhead, OverheadReport};
pub use report::{ensure_dir, print_table, save_json};
pub use runner::{
    run_fedmp_custom, run_hier, run_method, run_methods, run_sockets, spec_blob, speedup_table,
    task_from_blob, Method,
};
pub use trace::{maybe_trace, run_manifest, trace_requested};
