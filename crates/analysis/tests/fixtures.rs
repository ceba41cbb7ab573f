//! Fixture-corpus tests: every lint must fire on its `fail_*` tree at
//! the expected file:line positions, and the `pass` tree — which
//! exercises suppressions, allowlists, skip prefixes and test-region
//! exemptions — must come back clean.

use std::path::{Path, PathBuf};

use fedmp_analysis::Outcome;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run(name: &str) -> Outcome {
    fedmp_analysis::check_root(&fixture(name))
        .unwrap_or_else(|e| panic!("fixture {name} failed to analyze: {e}"))
}

/// `(file, line, lint)` triples, sorted, for compact assertions.
fn keys(outcome: &Outcome) -> Vec<(String, usize, String)> {
    outcome.diagnostics.iter().map(|d| (d.file.clone(), d.line, d.lint.clone())).collect()
}

#[test]
fn determinism_fixture_fires_on_every_leak() {
    let out = run("fail_determinism");
    let keys = keys(&out);
    assert!(
        keys.iter().all(|(f, _, l)| f == "crates/fl/src/bad.rs" && l == "determinism"),
        "{keys:?}"
    );
    let mut lines: Vec<usize> = keys.iter().map(|(_, n, _)| *n).collect();
    lines.dedup();
    assert_eq!(lines, vec![4, 6, 7, 17], "HashMap use/decl, clock, env read");
}

#[test]
fn float_reduction_fixture_flags_adhoc_sums_only() {
    let out = run("fail_float_reduction");
    let keys = keys(&out);
    assert_eq!(
        keys,
        vec![
            ("crates/num/src/bad.rs".to_string(), 6, "float-reduction".to_string()),
            ("crates/num/src/bad.rs".to_string(), 10, "float-reduction".to_string()),
            ("crates/num/src/bad.rs".to_string(), 15, "float-reduction".to_string()),
        ],
        "typed sum, ascribed sum, float fold — max-fold and integer fold exempt"
    );
}

#[test]
fn no_panic_fixture_flags_panic_shapes_not_total_variants() {
    let out = run("fail_no_panic");
    let keys = keys(&out);
    assert!(
        keys.iter().all(|(f, _, l)| f == "crates/fl/src/engines/bad.rs" && l == "no-panic"),
        "{keys:?}"
    );
    let lines: Vec<usize> = keys.iter().map(|(_, n, _)| *n).collect();
    assert_eq!(lines, vec![5, 6, 8, 18], "unwrap, expect, panic!, todo!");
}

#[test]
fn suppression_fixture_flags_reasonless_and_unknown_directives() {
    let out = run("fail_suppression");
    let keys = keys(&out);
    assert_eq!(
        keys,
        vec![
            ("crates/fl/src/bad.rs".to_string(), 5, "suppression".to_string()),
            ("crates/fl/src/bad.rs".to_string(), 7, "determinism".to_string()),
            ("crates/fl/src/bad.rs".to_string(), 11, "suppression".to_string()),
            ("crates/fl/src/bad.rs".to_string(), 12, "determinism".to_string()),
        ],
        "reason-less directives are reported AND inert; unknown lint names are typos"
    );
}

#[test]
fn suppression_audit_fixture_finds_dead_escapes() {
    let out = run("fail_suppression_audit");
    let keys = keys(&out);
    assert_eq!(
        keys,
        vec![
            ("analysis.toml".to_string(), 0, "suppression-audit".to_string()),
            ("crates/fl/src/bad.rs".to_string(), 4, "suppression-audit".to_string()),
            ("crates/fl/src/bad.rs".to_string(), 9, "suppression-audit".to_string()),
        ],
        "dead config allow entry and both dead inline directives; the live directive survives"
    );
}

#[test]
fn transport_scope_fixture_fires_in_both_new_scopes() {
    // Mirrors the real workspace's file-granular scope additions for
    // the socket transport: `fl/src/transport.rs` and the node binary
    // under no-panic, the node binary under determinism. The same
    // panic shape in `fl/src/engine.rs` proves scoping stays exact.
    let out = run("fail_transport_scope");
    let keys = keys(&out);
    assert_eq!(
        keys,
        vec![
            ("crates/bench/src/bin/fedmp_node.rs".to_string(), 5, "determinism".to_string()),
            ("crates/bench/src/bin/fedmp_node.rs".to_string(), 6, "no-panic".to_string()),
            ("crates/fl/src/transport.rs".to_string(), 6, "no-panic".to_string()),
        ],
        "ambient args + panic-shaped exit in the node binary, panicking decoder in transport; \
         the out-of-scope engine copy stays silent"
    );
}

#[test]
fn pass_fixture_is_clean() {
    let out = run("pass");
    assert!(out.is_clean(), "{:?}", out.diagnostics);
    assert_eq!(out.files_scanned, 2, "skip list must not swallow the tree, nor miss horror.rs");
}

#[test]
fn every_lint_has_a_fixture_that_fires_it() {
    // Guards the corpus itself: adding a lint without a failing
    // fixture leaves it untested.
    let by_fixture = [
        ("fail_determinism", "determinism"),
        ("fail_float_reduction", "float-reduction"),
        ("fail_no_panic", "no-panic"),
        ("fail_suppression", "suppression"),
        ("fail_suppression_audit", "suppression-audit"),
    ];
    for (fixture, lint) in by_fixture {
        let out = run(fixture);
        assert!(
            out.diagnostics.iter().any(|d| d.lint == lint),
            "{fixture} produced no `{lint}` finding"
        );
    }
}
