//! Diagnostic records, the finding sink (which arbitrates inline
//! suppressions and remembers which ones fired), and the output
//! renderers (human, JSON).

use std::collections::BTreeSet;

use serde::Serialize;

use crate::scanner::SourceFile;

/// One finding: a file, a line, the lint that fired, and why.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-indexed line number (0 for file-level findings).
    pub line: usize,
    /// The lint name, e.g. `determinism`.
    pub lint: String,
    /// Human-readable explanation including the remedy.
    pub message: String,
}

impl Diagnostic {
    pub fn new(
        file: impl Into<String>,
        line: usize,
        lint: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self { file: file.into(), line, lint: lint.into(), message: message.into() }
    }

    /// `path:line: [lint] message` — the `path:line` prefix is what
    /// terminals and editors make clickable.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// Where lints report candidate findings. The sink — not each lint —
/// decides whether an inline `allow(...)` covers the line: suppressed
/// candidates are recorded in [`Sink::used`] (keyed by the directive's
/// own line) instead of becoming diagnostics, which is exactly the
/// bookkeeping the suppression-audit lint diffs against to find dead
/// directives.
#[derive(Debug, Default)]
pub struct Sink {
    /// Findings that survived suppression.
    pub findings: Vec<Diagnostic>,
    /// `(file, directive line, lint)` for every suppression that
    /// actually absorbed a finding.
    pub used: BTreeSet<(String, usize, String)>,
}

impl Sink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reports a candidate finding for 0-indexed line `idx0` of
    /// `file`, honoring any well-formed inline suppression on that
    /// line.
    pub fn report(
        &mut self,
        file: &SourceFile,
        idx0: usize,
        lint: &str,
        message: impl Into<String>,
    ) {
        let suppressed = file
            .lines
            .get(idx0)
            .and_then(|line| line.suppressions.iter().find(|s| s.reason_ok && s.lint == lint));
        match suppressed {
            Some(s) => {
                self.used.insert((file.path.clone(), s.line, lint.to_string()));
            }
            None => {
                self.findings.push(Diagnostic::new(&file.path, idx0 + 1, lint, message));
            }
        }
    }
}

/// Per-lint counters for the JSON report: how many findings survived
/// and how many were absorbed by inline suppressions. Review diffs of
/// the CI artifact make lint drift (new escapes, silently-dead rules)
/// visible without reading the whole tree.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct LintStat {
    pub lint: String,
    pub findings: usize,
    pub suppressions_used: usize,
}

/// Stable ordering so output (and the JSON artifact) is reproducible:
/// by file, then line, then lint name.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.file, a.line, &a.lint, &a.message).cmp(&(&b.file, b.line, &b.lint, &b.message))
    });
}

/// The machine-readable report emitted by `check --json`. Owned fields
/// because the in-tree serde derive supports no generic parameters.
#[derive(Debug, Serialize)]
pub struct Report {
    /// `"clean"` or `"violations"`.
    pub status: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The lints that ran (i.e. were configured), sorted.
    pub lints: Vec<String>,
    /// Per-lint finding/suppression counters, sorted by lint name.
    pub summary: Vec<LintStat>,
    pub diagnostics: Vec<Diagnostic>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_clickable_prefix() {
        let d = Diagnostic::new("crates/fl/src/lm.rs", 42, "determinism", "no HashMap here");
        assert_eq!(d.render(), "crates/fl/src/lm.rs:42: [determinism] no HashMap here");
    }

    #[test]
    fn sink_records_used_suppressions_instead_of_findings() {
        let src = "// fedmp-analysis: allow(determinism) -- documented\nlet v = std::env::var(\"X\");\nlet w = Instant::now();\n";
        let file = crate::scanner::scan("crates/fl/src/x.rs", src);
        let mut sink = Sink::new();
        sink.report(&file, 1, "determinism", "env read");
        sink.report(&file, 2, "determinism", "clock read");
        assert_eq!(sink.findings.len(), 1);
        assert_eq!(sink.findings[0].line, 3);
        assert!(sink.used.contains(&("crates/fl/src/x.rs".to_string(), 1, "determinism".into())));
    }

    #[test]
    fn sort_is_by_file_then_line_then_lint() {
        let mut v = vec![
            Diagnostic::new("b.rs", 1, "x", "m"),
            Diagnostic::new("a.rs", 9, "x", "m"),
            Diagnostic::new("a.rs", 2, "z", "m"),
            Diagnostic::new("a.rs", 2, "a", "m"),
        ];
        sort(&mut v);
        assert_eq!(
            v.iter().map(|d| (d.file.as_str(), d.line, d.lint.as_str())).collect::<Vec<_>>(),
            vec![("a.rs", 2, "a"), ("a.rs", 2, "z"), ("a.rs", 9, "x"), ("b.rs", 1, "x")]
        );
    }
}
