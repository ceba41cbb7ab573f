//! # fedmp-obs
//!
//! The workspace-wide observability layer: a lightweight structured-event
//! API that every engine, the edge simulator, the bandit and the kernel
//! scheduler emit through, plus the tooling to read what they wrote.
//!
//! Three pieces:
//!
//! 1. **Events** ([`TraceEvent`]): typed per-round records — round
//!    boundaries, per-worker local training, bandit decisions,
//!    aggregations, fault injection/recovery and kernel-scheduler
//!    dispatch counters. Serialised one-per-line as JSONL.
//! 2. **Sessions** ([`TraceSession`]): a process-global JSONL sink.
//!    Recording is off by default and [`emit`] is a single relaxed
//!    atomic load on that path, so instrumented code costs nothing when
//!    nobody is listening. Event construction happens inside a closure
//!    that only runs while a session is active.
//! 3. **Traces** ([`Trace`]): parse a recorded JSONL file back into
//!    events (`fedmp_fl::RunHistory::from_trace` rebuilds the run's
//!    history from them), or [`diff`] two traces to find the first
//!    diverging event.
//!
//! Every trace file starts with a [`RunManifest`] line (config hash,
//! seed, engine, thread count, crate versions) so an artifact is
//! reproducible on its own. The full format is documented in
//! `docs/TRACE_SCHEMA.md`, which a test in this crate keeps in sync with
//! the event enum.

#![deny(missing_docs)]
mod event;
mod manifest;
mod session;
mod trace;

pub use event::TraceEvent;
pub use manifest::{config_hash, RunManifest, SCHEMA_VERSION};
pub use session::{emit, enabled, TraceSession};
pub use trace::{diff, Trace, TraceDiff, TraceError};

/// This crate's version, for run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
