//! The `trace` binary's `summarize` and `record` contracts, driven as a
//! process.

use fedmp_obs::TraceEvent;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A per-process scratch path for one test's trace file.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fedmp-trace-cli-{tag}-{}.jsonl", std::process::id()))
}

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace")).args(args).output().expect("spawn trace")
}

/// A trace whose first line is an event parses with no manifest;
/// `summarize` needs one, so it says so and exits 1 instead of
/// panicking.
#[test]
fn summarize_without_a_manifest_exits_1() {
    let event = TraceEvent::RoundEnd {
        round: 0,
        sim_time: 5.0,
        round_time: 5.0,
        mean_comp: 2.0,
        mean_comm: 1.0,
        train_loss: None,
        eval_loss: None,
        eval_metric: None,
    };
    let path = scratch("no-manifest");
    std::fs::write(&path, serde_json::to_string(&event).expect("event serialises"))
        .expect("write trace");
    let out = trace(&["summarize", path.to_str().expect("utf-8 temp path")]);
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(String::from_utf8_lossy(&out.stderr), "error: trace has no manifest line\n");
}

/// A recorded trace with a blank line in front still has its manifest:
/// the manifest is the first non-blank line, not line 1.
#[test]
fn summarize_finds_the_manifest_after_a_blank_line() {
    let path = scratch("blank-first");
    let file = path.to_str().expect("utf-8 temp path");
    let recorded = trace(&["record", file, "--rounds", "1", "--seed", "3", "--threads", "1"]);
    assert!(recorded.status.success(), "record: {}", String::from_utf8_lossy(&recorded.stderr));
    let direct = trace(&["summarize", file]);
    let text = std::fs::read_to_string(&path).expect("read trace");
    std::fs::write(&path, format!("\n{text}")).expect("rewrite trace");
    let blank_first = trace(&["summarize", file]);
    std::fs::remove_file(&path).ok();
    assert!(direct.status.success(), "summarize: {}", String::from_utf8_lossy(&direct.stderr));
    assert!(
        blank_first.status.success(),
        "summarize after a blank line: {}",
        String::from_utf8_lossy(&blank_first.stderr)
    );
    assert_eq!(blank_first.stdout, direct.stdout);
}

/// A flag value that is not an integer is a usage error (exit 2), not
/// a panic.
#[test]
fn record_with_a_non_integer_flag_prints_usage() {
    let path = scratch("bad-flag");
    let file = path.to_str().expect("utf-8 temp path");
    for flag in ["--rounds", "--seed", "--threads"] {
        let out = trace(&["record", file, flag, "abc"]);
        assert_eq!(out.status.code(), Some(2), "{flag} abc");
        assert!(out.stdout.is_empty(), "{flag} abc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: trace record"), "{flag} abc: {stderr}");
    }
    assert!(!path.exists(), "nothing recorded");
}
