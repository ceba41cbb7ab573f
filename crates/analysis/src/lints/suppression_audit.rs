//! L9 — suppression audit.
//!
//! Escape hatches rot: the code a `// fedmp-analysis: allow(<lint>)`
//! once excused gets refactored away, and the directive stays behind
//! as a standing invitation to reintroduce the violation silently.
//! This lint closes the loop using the sink's bookkeeping: every lint
//! that reports through [`Sink::report`](crate::diagnostics::Sink)
//! records `(file, directive line, lint)` whenever a suppression
//! absorbs a finding, so after all lints have run, any well-formed
//! directive *not* in that set provably suppressed nothing this run —
//! delete it, or restore the code it excused.
//!
//! Only directives for lints that (a) actually ran and (b) arbitrate
//! suppressions through the sink are auditable; the `suppression` meta
//! lint (malformed directives are its findings, not suppressible
//! ones) is excluded. Directives for this lint itself are audited in
//! a second pass, after the first pass has recorded which
//! `allow(suppression-audit)` escapes absorbed a dead-directive
//! finding — otherwise the audit could mark its own escape dead
//! purely by iteration order.
//!
//! The companion config audit (dead `allow` *entries* in
//! `analysis.toml`) lives in the driver, which has the scratch-run
//! machinery; this module only audits inline directives.

use std::collections::BTreeSet;

use crate::diagnostics::Sink;
use crate::scanner::SourceFile;

pub const NAME: &str = "suppression-audit";

pub fn check(files: &[&SourceFile], enabled: &BTreeSet<String>, sink: &mut Sink) {
    for self_pass in [false, true] {
        for file in files {
            for d in &file.directives {
                if !d.reason_ok || (d.lint == NAME) != self_pass {
                    continue;
                }
                // `suppression` directives can never be "used" through
                // the sink.
                if d.lint == "suppression" || !enabled.contains(&d.lint) {
                    continue;
                }
                let key = (file.path.clone(), d.line, d.lint.clone());
                if !sink.used.contains(&key) {
                    sink.report(
                        file,
                        d.line - 1,
                        NAME,
                        format!(
                            "`allow({})` on this line suppressed nothing this run — the code \
                             it excused is gone; delete the directive (or restore what it \
                             excused)",
                            d.lint
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LintConfig;
    use crate::scanner::scan;

    fn enabled() -> BTreeSet<String> {
        ["determinism", "no-panic", NAME].iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn dead_directives_are_flagged_and_live_ones_are_not() {
        let src = "\
// fedmp-analysis: allow(determinism) -- still excuses the env read below\n\
let v = std::env::var(\"X\");\n\
let n = 1; // fedmp-analysis: allow(no-panic) -- nothing panics here anymore\n";
        let file = scan("crates/fl/src/x.rs", src);
        let mut sink = Sink::new();
        crate::lints::determinism::check(&file, &LintConfig::default(), &mut sink);
        crate::lints::no_panic::check(&file, &LintConfig::default(), &mut sink);
        check(&[&file], &enabled(), &mut sink);
        let audits: Vec<_> = sink.findings.iter().filter(|d| d.lint == NAME).collect();
        assert_eq!(audits.len(), 1, "{audits:?}");
        assert_eq!(audits[0].line, 3);
        assert!(audits[0].message.contains("allow(no-panic)"));
    }

    #[test]
    fn directives_for_lints_that_did_not_run_are_left_alone() {
        let src = "let n = 1; // fedmp-analysis: allow(no-panic) -- lint disabled here\n";
        let file = scan("crates/fl/src/x.rs", src);
        let mut sink = Sink::new();
        let only_self: BTreeSet<String> = [NAME.to_string()].into_iter().collect();
        check(&[&file], &only_self, &mut sink);
        assert!(sink.findings.is_empty(), "{:?}", sink.findings);
    }

    #[test]
    fn the_audit_escape_hatch_works_and_is_not_self_flagged() {
        let src = "\
// fedmp-analysis: allow(suppression-audit) -- migration in flight, directive returns next PR\n\
let n = 1; // fedmp-analysis: allow(no-panic) -- excuses code landing in the follow-up\n";
        let file = scan("crates/fl/src/x.rs", src);
        let mut sink = Sink::new();
        crate::lints::no_panic::check(&file, &LintConfig::default(), &mut sink);
        check(&[&file], &enabled(), &mut sink);
        // The dead no-panic directive was absorbed by the audit escape,
        // and the escape itself counts as used — nothing reported.
        assert!(sink.findings.is_empty(), "{:?}", sink.findings);
        assert!(sink.used.contains(&("crates/fl/src/x.rs".into(), 1, NAME.into())));
    }

    #[test]
    fn malformed_directives_are_not_double_reported() {
        let src = "let v = std::env::var(\"X\"); // fedmp-analysis: allow(determinism)\n";
        let file = scan("crates/fl/src/x.rs", src);
        let mut sink = Sink::new();
        crate::lints::determinism::check(&file, &LintConfig::default(), &mut sink);
        check(&[&file], &enabled(), &mut sink);
        // Reasonless directive: the suppression meta lint owns that
        // finding; the audit stays silent about it.
        assert!(sink.findings.iter().all(|d| d.lint != NAME), "{:?}", sink.findings);
    }
}
