//! The lint implementations.
//!
//! Each lint is a free function taking the scanned file and its
//! [`LintConfig`](crate::config::LintConfig), pushing
//! [`Diagnostic`](crate::diagnostics::Diagnostic)s for every finding.
//! The driver in `lib.rs` decides which lints run (a lint runs iff its
//! `[lints.<name>]` table exists in `analysis.toml`) and which files
//! each one sees.

pub mod determinism;
pub mod executor_purity;
pub mod float_reduction;
pub mod no_panic;
pub mod reduction_escape;
pub mod suppression_audit;
pub mod trace_schema;
pub mod unsafe_hygiene;

/// Canonical lint names, as they appear in `analysis.toml` and in
/// `allow(...)` suppressions.
pub const LINT_NAMES: [&str; 9] = [
    "determinism",
    "executor-purity",
    "float-reduction",
    "no-panic",
    "reduction-escape",
    "suppression",
    "suppression-audit",
    "trace-schema",
    "unsafe-hygiene",
];
