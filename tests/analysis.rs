//! The invariant linter as a tier-1 test: `cargo test` alone must
//! catch a determinism leak, an ad-hoc float reduction, a panic on the
//! engine hot path, or a dead escape hatch — no CI required. (A stray
//! `unsafe` is a compile error, and trace-schema drift fails
//! `crates/obs/tests/schema.rs`.)

use std::path::Path;

/// The live workspace is clean under the checked-in `analysis.toml`.
#[test]
fn workspace_satisfies_invariant_contract() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = fedmp_analysis::check_root(root).expect("analysis run failed");
    assert!(
        outcome.is_clean(),
        "invariant contract violated:\n{}",
        outcome
            .diagnostics
            .iter()
            .map(fedmp_analysis::Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity floor so an over-broad skip list (scanning nothing) cannot
    // masquerade as a clean tree.
    assert!(
        outcome.files_scanned > 100,
        "only {} files scanned — the walker or skip list is broken",
        outcome.files_scanned
    );
    assert_eq!(
        outcome.lints_run,
        vec!["determinism", "float-reduction", "no-panic", "suppression", "suppression-audit"]
    );
    // The per-lint summary covers every active lint, so report diffs
    // make lint drift visible.
    assert_eq!(outcome.summary.len(), outcome.lints_run.len());
    assert!(outcome.summary.iter().all(|s| s.findings == 0));
    // The three `determinism` escapes (the trace-dir read and the two
    // argv reads) are the live suppressions.
    let used: usize = outcome.summary.iter().map(|s| s.suppressions_used).sum();
    assert!(used >= 3, "expected live inline suppressions, counted {used}");
}

/// Seeding a violation into a copy of a deterministic crate makes the
/// same config fail — proof the clean result above is earned, not a
/// scoping accident.
#[test]
fn seeded_violation_fails_under_the_live_config() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let config_text =
        std::fs::read_to_string(root.join("analysis.toml")).expect("read analysis.toml");
    let config = fedmp_analysis::config::parse(&config_text).expect("parse analysis.toml");

    let staged = root.join("target/analysis-seeded-test");
    let dir = staged.join("crates/fl/src");
    std::fs::create_dir_all(&dir).expect("create staged tree");
    std::fs::write(
        dir.join("seeded.rs"),
        "use std::collections::HashMap;\n\npub fn agg(m: &HashMap<u8, f32>) -> f32 {\n    let mut t = 0.0;\n    for (_, v) in m.iter() {\n        t += v;\n    }\n    t\n}\n",
    )
    .expect("write seeded violation");

    let outcome = fedmp_analysis::check(&staged, &config).expect("analysis run failed");
    let hits: Vec<_> = outcome
        .diagnostics
        .iter()
        .filter(|d| d.lint == "determinism" && d.file == "crates/fl/src/seeded.rs")
        .collect();
    assert!(
        !hits.is_empty(),
        "a HashMap seeded into crates/fl must fail under the live analysis.toml"
    );
    assert_eq!(hits[0].line, 1, "the `use` line is the first finding");

    std::fs::remove_dir_all(&staged).ok();
}

/// A config entry pointing at nothing on disk is a hard config error
/// naming the entry — not a silently-inert scope.
#[test]
fn dangling_config_entry_is_a_hard_error() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let staged = root.join("target/analysis-dangling-config");
    std::fs::create_dir_all(staged.join("crates/fl/src")).expect("create staged tree");
    std::fs::write(staged.join("crates/fl/src/lib.rs"), "pub fn f() {}\n").expect("write file");
    std::fs::write(
        staged.join("analysis.toml"),
        "[workspace]\nroots = [\"crates\"]\n\n[lints.determinism]\nscope = [\"crates/fl/src\", \"crates/gone/src\"]\n",
    )
    .expect("write config");

    let err = fedmp_analysis::check_root(&staged).expect_err("dangling entry must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("lints.determinism.scope") && msg.contains("crates/gone/src"),
        "error must name the section and the entry: {msg}"
    );
    assert!(
        matches!(err, fedmp_analysis::AnalysisError::Config(_)),
        "dangling entries are config errors (exit 2), not findings"
    );

    std::fs::remove_dir_all(&staged).ok();
}
