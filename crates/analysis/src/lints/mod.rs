//! The lint implementations.
//!
//! Each lint is a free function taking the scanned file and its
//! [`LintConfig`](crate::config::LintConfig), pushing
//! [`Diagnostic`](crate::diagnostics::Diagnostic)s for every finding.
//! The driver in `lib.rs` decides which lints run (a lint runs iff its
//! `[lints.<name>]` table exists in `analysis.toml`) and which files
//! each one sees.

pub mod determinism;
pub mod float_reduction;
pub mod no_panic;
pub mod suppression_audit;

/// Canonical lint names, as they appear in `analysis.toml` and in
/// `allow(...)` suppressions.
pub const LINT_NAMES: [&str; 5] =
    ["determinism", "float-reduction", "no-panic", "suppression", "suppression-audit"];
