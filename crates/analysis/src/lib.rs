//! # fedmp-analysis
//!
//! A workspace invariant linter: statically enforces the rules the
//! paper reproduction's claims rest on that `rustc` and `clippy` do not,
//! without `syn` or rustc. Every rule runs over one comment/string-aware
//! token scanner, dependency-free and fast enough for each `cargo test`.
//! (`unsafe` is the compiler's job: `[workspace.lints]` in the root
//! `Cargo.toml`.)
//!
//! The lints (see `docs/ANALYSIS.md` for the full rationale):
//!
//! | lint | invariant protected |
//! |------|---------------------|
//! | `determinism` | same seed ⇒ bit-identical results: no hasher-ordered iteration, clocks, thread ids or env reads on the simulation path |
//! | `float-reduction` | reductions keep one fixed order at any thread count: float sums route through `fedmp_tensor::parallel::{sum_f32, sum_f64}` |
//! | `no-panic` | engines and the threaded runtime fail into typed errors, never aborts |
//! | `suppression` | every inline `allow(...)` carries a written reason |
//! | `suppression-audit` | every inline suppression still absorbs a finding, and every config `allow` entry still excuses one — escapes that suppress nothing are findings |
//!
//! Configuration lives in the checked-in `analysis.toml`. A finding is
//! suppressed inline with
//! `// fedmp-analysis: allow(<lint>) -- <reason>` — the reason is
//! mandatory; a reason-less directive is itself a finding. Every
//! scope/allow/skip path in the config must exist on disk: a dangling
//! entry is a config error (exit 2), because an entry matching nothing
//! is either a typo silently widening the lint's reach or a leftover
//! silently narrowing it.

pub mod config;
pub mod diagnostics;
pub mod lints;
pub mod scanner;
pub mod workspace;

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use diagnostics::{LintStat, Sink};
use scanner::SourceFile;

pub use config::{Config, ConfigError};
pub use diagnostics::{Diagnostic, Report};

/// A failure of the analysis *run* itself (bad config, unreadable
/// tree) — distinct from lint findings, which are data.
#[derive(Debug)]
pub enum AnalysisError {
    /// `analysis.toml` was missing or malformed.
    Config(ConfigError),
    /// A file or directory could not be read.
    Io { path: String, source: std::io::Error },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Config(e) => write!(f, "{e}"),
            AnalysisError::Io { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<ConfigError> for AnalysisError {
    fn from(e: ConfigError) -> Self {
        AnalysisError::Config(e)
    }
}

/// The result of one analysis run.
#[derive(Debug)]
pub struct Outcome {
    /// All findings, sorted by (file, line, lint).
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// The lints that ran, sorted by name.
    pub lints_run: Vec<String>,
    /// Per-lint finding/suppression counters, sorted by lint name.
    pub summary: Vec<LintStat>,
}

impl Outcome {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Loads `<root>/analysis.toml` and checks the workspace under `root`.
pub fn check_root(root: &Path) -> Result<Outcome, AnalysisError> {
    let config_path = root.join("analysis.toml");
    check_with_config_path(root, &config_path)
}

/// As [`check_root`], with an explicit config file path.
pub fn check_with_config_path(root: &Path, config_path: &Path) -> Result<Outcome, AnalysisError> {
    let text = std::fs::read_to_string(config_path).map_err(|source| AnalysisError::Io {
        path: config_path.to_string_lossy().into_owned(),
        source,
    })?;
    let config = config::parse(&text)?;
    validate_config_paths(root, &config)?;
    check(root, &config)
}

/// Every `skip`, lint `scope` and lint `allow` entry must name
/// something that exists on disk. A dangling entry is a hard config
/// error, not a warning: a typo'd scope silently widens or narrows
/// what the lint sees, and a leftover allow is a standing escape for
/// code that no longer exists. `roots` are exempt — they are
/// prospective mount points the walker skips when absent.
fn validate_config_paths(root: &Path, config: &Config) -> Result<(), ConfigError> {
    fn ensure(root: &Path, section: &str, entry: &str) -> Result<(), ConfigError> {
        if root.join(entry).exists() {
            Ok(())
        } else {
            Err(ConfigError {
                line: 0,
                message: format!(
                    "{section} entry `{entry}` matches no file or directory on disk — \
                     fix the path or delete the entry"
                ),
            })
        }
    }
    for entry in &config.skip {
        ensure(root, "workspace.skip", entry)?;
    }
    for (name, lint) in &config.lints {
        for entry in &lint.scope {
            ensure(root, &format!("lints.{name}.scope"), entry)?;
        }
        for entry in &lint.allow {
            ensure(root, &format!("lints.{name}.allow"), entry)?;
        }
    }
    Ok(())
}

/// Runs every configured lint over the workspace rooted at `root`.
pub fn check(root: &Path, config: &Config) -> Result<Outcome, AnalysisError> {
    let files = workspace::collect_rust_files(root, config).map_err(|source| {
        AnalysisError::Io { path: root.to_string_lossy().into_owned(), source }
    })?;

    // Keep every scanned file: the suppression audit diffs all of
    // their directives once every per-file pass is done.
    let mut scanned: Vec<SourceFile> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = workspace::relative(root, path);
        let raw = std::fs::read_to_string(path)
            .map_err(|source| AnalysisError::Io { path: rel.clone(), source })?;
        scanned.push(scanner::scan(&rel, &raw));
    }
    let files_scanned = scanned.len();
    let mut sink = Sink::new();

    for file in &scanned {
        let rel = &file.path;

        // The suppression meta-check is always on: a malformed or
        // reason-less directive is a finding wherever it appears. It
        // bypasses the sink — a broken escape hatch must not be able
        // to excuse itself.
        for line in &file.malformed_suppressions {
            sink.findings.push(Diagnostic::new(
                rel,
                *line,
                "suppression",
                "malformed `fedmp-analysis:` directive; the form is \
                 `// fedmp-analysis: allow(<lint>) -- <reason>` and the reason is mandatory",
            ));
        }
        // Unknown lint names in suppressions are typos that silently
        // suppress nothing — flag them too.
        for (idx, line) in file.lines.iter().enumerate() {
            for s in &line.suppressions {
                if !lints::LINT_NAMES.contains(&s.lint.as_str()) {
                    sink.findings.push(Diagnostic::new(
                        rel,
                        idx + 1,
                        "suppression",
                        format!(
                            "`allow({})` names no known lint; known lints: {}",
                            s.lint,
                            lints::LINT_NAMES.join(", ")
                        ),
                    ));
                }
            }
        }

        if let Some(cfg) = config.lints.get(lints::determinism::NAME) {
            if cfg.applies_to(rel) {
                lints::determinism::check(file, cfg, &mut sink);
            }
        }
        if let Some(cfg) = config.lints.get(lints::float_reduction::NAME) {
            if cfg.applies_to(rel) {
                lints::float_reduction::check(file, cfg, &mut sink);
            }
        }
        if let Some(cfg) = config.lints.get(lints::no_panic::NAME) {
            if cfg.applies_to(rel) {
                lints::no_panic::check(file, cfg, &mut sink);
            }
        }
    }

    // Post-pass: with every sink-reporting lint done, `sink.used` is
    // complete and the audit can diff directives against it.
    if config.lints.contains_key(lints::suppression_audit::NAME) {
        let enabled: BTreeSet<String> = config.lints.keys().cloned().collect();
        let refs: Vec<&SourceFile> = scanned.iter().collect();
        lints::suppression_audit::check(&refs, &enabled, &mut sink);
        audit_config_allows(config, &scanned, &mut sink);
    }

    let Sink { mut findings, used } = sink;
    diagnostics::sort(&mut findings);
    let mut lints_run: Vec<String> = config.lints.keys().cloned().collect();
    lints_run.push("suppression".to_string());
    lints_run.sort();
    lints_run.dedup();
    let summary: Vec<LintStat> = lints_run
        .iter()
        .map(|l| LintStat {
            lint: l.clone(),
            findings: findings.iter().filter(|d| &d.lint == l).count(),
            suppressions_used: used.iter().filter(|(_, _, lint)| lint == l).count(),
        })
        .collect();
    Ok(Outcome { diagnostics: findings, files_scanned, lints_run, summary })
}

/// A per-file lint pass, as rerun by the suppression audit.
type LintFn = fn(&SourceFile, &config::LintConfig, &mut Sink);

/// The config half of the suppression audit: an `allow` entry in
/// `analysis.toml` is live only while the lint it excuses would still
/// find something under that path. For each auditable lint, rerun it
/// into a scratch sink over the allowlisted files; entries whose
/// files produce zero candidates excuse nothing and are findings.
fn audit_config_allows(config: &Config, scanned: &[SourceFile], sink: &mut Sink) {
    let auditable: [(&str, LintFn); 3] = [
        (lints::determinism::NAME, lints::determinism::check),
        (lints::float_reduction::NAME, lints::float_reduction::check),
        (lints::no_panic::NAME, lints::no_panic::check),
    ];
    for (name, run) in auditable {
        let Some(cfg) = config.lints.get(name) else { continue };
        for entry in &cfg.allow {
            let mut scratch = Sink::new();
            for file in scanned {
                if config::path_has_prefix(&file.path, entry) && cfg.in_scope(&file.path) {
                    run(file, cfg, &mut scratch);
                }
            }
            if scratch.findings.is_empty() && scratch.used.is_empty() {
                sink.findings.push(Diagnostic::new(
                    "analysis.toml",
                    0,
                    lints::suppression_audit::NAME,
                    format!(
                        "`lints.{name}.allow` entry `{entry}` excuses nothing: the lint \
                         finds no candidate under that path — delete the entry (the escape \
                         is a standing invitation to reintroduce the violation silently)"
                    ),
                ));
            }
        }
    }
}
