//! Run-level trace plumbing: build a [`RunManifest`] from an
//! [`ExperimentSpec`] and open a [`TraceSession`] when the
//! `FEDMP_TRACE` environment variable names an output directory.

use crate::config::ExperimentSpec;
use fedmp_obs::{RunManifest, TraceSession};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Builds the manifest describing a run of `engine` on `spec`:
/// schema version, engine name, seed, worker count, round count, the
/// effective kernel thread count, the active GEMM dispatch path, an
/// FNV-1a hash of the serialised spec, and crate versions.
pub fn run_manifest(engine: &str, spec: &ExperimentSpec) -> RunManifest {
    let serialised = serde_json::to_string(spec).expect("spec serialises");
    let mut m = RunManifest::new(
        engine,
        spec.seed,
        spec.workers,
        spec.fl.rounds,
        fedmp_tensor::parallel::configured_threads(),
    );
    m.simd_path = fedmp_tensor::simd::active_path().name().to_string();
    m.config_hash = fedmp_obs::config_hash(&serialised);
    m.crate_versions.insert("fedmp-core".to_string(), env!("CARGO_PKG_VERSION").to_string());
    m
}

/// Monotonic artifact counter so multiple traced runs in one process
/// get distinct file names (`000-fedmp.jsonl`, `001-synfl.jsonl`, …).
static TRACE_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Whether `FEDMP_TRACE` requests tracing for this process. Callers
/// that would otherwise run several methods concurrently (e.g.
/// [`crate::run_methods`]) use this to fall back to serial execution,
/// because trace sessions are process-exclusive.
pub fn trace_requested() -> bool {
    trace_dir().is_some()
}

/// The single sanctioned `FEDMP_TRACE` read: the one place this crate
/// touches the environment, so exactly one expectation covers it.
#[expect(
    clippy::disallowed_methods,
    reason = "FEDMP_TRACE only selects where the trace is written; it never influences the \
              simulated run itself"
)]
fn trace_dir() -> Option<String> {
    std::env::var("FEDMP_TRACE").ok().filter(|d| !d.is_empty())
}

/// Opens a file-backed trace session for `engine` if the `FEDMP_TRACE`
/// environment variable is set to an output directory (created if
/// missing). Returns `None` — tracing disabled, zero overhead — when
/// the variable is unset or empty.
///
/// Each call writes a new numbered artifact `NNN-<engine>.jsonl` whose
/// first line is the run manifest. Hold the returned session for the
/// duration of the run and call [`TraceSession::finish`] (or drop it)
/// afterwards; sessions are exclusive, so traced runs serialise.
pub fn maybe_trace(engine: &str, spec: &ExperimentSpec) -> Option<TraceSession> {
    let dir = PathBuf::from(trace_dir()?);
    std::fs::create_dir_all(&dir).ok()?;
    let slug: String = engine
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect();
    let n = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{n:03}-{slug}.jsonl"));
    let manifest = run_manifest(engine, spec);
    TraceSession::to_file(&path, &manifest).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskKind;

    #[test]
    fn manifest_reflects_the_spec() {
        let spec = ExperimentSpec::small(TaskKind::CnnMnist);
        let m = run_manifest("FedMP", &spec);
        assert_eq!(m.engine, "FedMP");
        assert_eq!(m.seed, spec.seed);
        assert_eq!(m.workers, spec.workers);
        assert_eq!(m.rounds, spec.fl.rounds);
        assert_eq!(m.config_hash.len(), 16);
        assert!(["avx2", "scalar"].contains(&m.simd_path.as_str()));
        assert!(m.crate_versions.contains_key("fedmp-core"));
        assert!(m.crate_versions.contains_key("fedmp-obs"));

        // Same spec → same hash; different seed → different hash.
        let again = run_manifest("FedMP", &spec);
        assert_eq!(m.config_hash, again.config_hash);
        let mut other = spec.clone();
        other.seed ^= 1;
        assert_ne!(m.config_hash, run_manifest("FedMP", &other).config_hash);
    }
}
