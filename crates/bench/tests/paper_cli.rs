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
    assert_eq!(ids.len(), 17);
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
