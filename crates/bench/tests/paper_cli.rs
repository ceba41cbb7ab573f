//! The `paper` binary's command-line contract, driven as a process.

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper")).args(args).output().expect("spawn paper")
}

#[test]
fn unknown_id_exits_2_and_prints_the_id_list() {
    let out = paper(&["fig5", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before every id is known");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment fig99"), "{stderr}");

    let list = paper(&["list"]);
    assert!(list.status.success());
    let list = String::from_utf8_lossy(&list.stdout);
    let ids: Vec<&str> = list.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(ids.len(), 20);
    assert_eq!(ids[..2], ["fig6", "table3"], "table3 reads fig6's runs, so it follows it");
    for id in ids {
        assert!(stderr.contains(id), "usage omits {id}: {stderr}");
    }
}

#[test]
fn run_rejects_what_it_cannot_parse_before_training() {
    for (args, why) in [
        (&["run", "cnn"][..], "run needs a spec and a method"),
        (&["run", "cnn", "sgd"], "unknown method sgd"),
        (&["run", "cnn", "fixed:lots"], "unknown method fixed:lots"),
        (&["run", "/nonexistent/spec.json", "FedMp"], "read spec /nonexistent/spec.json"),
    ] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(why), "{args:?}");
    }
}

#[test]
fn check_exits_1_where_the_artifacts_are_missing() {
    let empty = std::env::temp_dir().join(format!("fedmp-paper-cli-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("check")
        .current_dir(&empty)
        .output()
        .expect("spawn paper");
    std::fs::remove_dir_all(&empty).ok();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("0/12 shape claims hold"));
}

/// CI diffs regenerated artifacts against the checked-in files byte for
/// byte, so wall-clock readings may live only in the three artifacts
/// that diff leaves out (`fig11`, `kernels`, `resilience`); every other
/// experiment prints its timings and writes none.
#[test]
fn only_the_timing_artifacts_carry_wall_clock_keys() {
    fn wall_clock_key(value: &serde_json::Value) -> Option<&str> {
        let timed = |key: &str| ["_secs", "_ms", "_us"].iter().any(|unit| key.ends_with(unit));
        match value {
            serde_json::Value::Object(map) => map.iter().find_map(|(key, v)| {
                timed(key).then_some(key.as_str()).or_else(|| wall_clock_key(v))
            }),
            serde_json::Value::Array(items) => items.iter().find_map(wall_clock_key),
            _ => None,
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-results");
    let mut timed = Vec::new();
    for entry in std::fs::read_dir(dir).expect("bench-results/") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read artifact");
        let json: serde_json::Value = serde_json::from_str(&text).expect("artifact parses");
        if let Some(key) = wall_clock_key(&json) {
            let name = path.file_stem().expect("stem").to_string_lossy().into_owned();
            timed.push((name, key.to_string()));
        }
    }
    timed.sort();
    let names: Vec<&str> = timed.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["fig11", "kernels", "resilience"], "wall-clock keys: {timed:?}");
}

/// `scale` holds an in-memory trace capture around its engine runs.
/// While it ran them through `fedmp_core::run_hier`, `FEDMP_TRACE` made
/// that open a second, file-backed session under the first — sessions
/// are exclusive, so the process waited on itself forever (PRs 22–23).
/// The same nesting, under a watchdog.
#[test]
fn scale_finishes_under_fedmp_trace() {
    let dir = std::env::temp_dir().join(format!("fedmp-paper-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("scale")
        .env("FEDMP_TRACE", dir.join("trace"))
        .current_dir(&dir)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn paper");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
    let status = loop {
        match child.try_wait().expect("poll paper") {
            Some(status) => break Some(status),
            None if std::time::Instant::now() > deadline => break None,
            None => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    };
    if status.is_none() {
        child.kill().ok();
        child.wait().ok();
    }
    let saved = dir.join("bench-results/scale.json").exists();
    std::fs::remove_dir_all(&dir).ok();
    assert!(status.expect("`paper scale` hung under FEDMP_TRACE").success());
    assert!(saved, "scale wrote no artifact");
}
