//! The `trace` binary's `summarize` contract, driven as a process.

use fedmp_obs::TraceEvent;
use std::process::Command;

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
    let path = std::env::temp_dir().join(format!("fedmp-trace-cli-{}.jsonl", std::process::id()));
    std::fs::write(&path, serde_json::to_string(&event).expect("event serialises"))
        .expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .arg("summarize")
        .arg(&path)
        .output()
        .expect("spawn trace");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(String::from_utf8_lossy(&out.stderr), "error: trace has no manifest line\n");
}
