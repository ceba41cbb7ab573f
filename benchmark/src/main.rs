//! `benchmark` — the repo's one benchmark command. See README.md.

mod compare;
mod host;
mod metrics;
mod probes;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use serde_json::{json, Value};

use runner::{refuse_unless_clean_env, run_end_to_end, RunArgs, SCHEMA};
use workloads::{out_dir, Workload};

const USAGE: &str = "\
usage:
  benchmark [--seed N] [--seconds S] [--smoke]
      all four workloads, each in a process of its own, end to end and
      traced; writes benchmark/out/result.json
  benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      one workload; --trace 0 (default) prints its end-to-end metrics,
      --trace 1 its per-layer metrics and writes out/<W>.spans.jsonl
  benchmark compare A.json B.json
      verdict per (workload, metric); exits 1 on any `worse`
workloads: flat_loop flat_sockets hier_compressed ps_ingest
defaults: --seed 42, --seconds 15 (of timed repeats; traced: a third of it, of shadow rounds)";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { workload: None, seed: 42, seconds: 15.0, trace: false, smoke: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// Runs one workload in this process and prints the driver's line last.
fn run_one(cli: &Cli, workload: Workload) -> ExitCode {
    let args = RunArgs { workload, seed: cli.seed, seconds: cli.seconds, smoke: cli.smoke };
    let (part, line, correct) = if cli.trace {
        let report = probes::run_traced(args);
        report.print_table();
        (report.to_json(), report.driver_line(), report.correct())
    } else {
        let report = run_end_to_end(args);
        report.print_table();
        (report.to_json(), report.driver_line(), report.correct())
    };
    let suffix = if cli.trace { ".trace.json" } else { ".json" };
    fedmp_core::save_json(out_dir().join(format!("{}{suffix}", workload.name())), &part);
    println!("{}", serde_json::to_string(&line).expect("line serialises"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, end to end then traced, each in a child process
/// (so `peak_rss_mb` and the kernel counters are per workload), and
/// merges their part files into `out/result.json`.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let out = out_dir();
    let mut failures = Vec::new();
    let mut blocks: Vec<(String, Value)> = Vec::new();
    for w in Workload::ALL {
        let mut block: Vec<(String, Value)> = Vec::new();
        for (trace, suffix) in [("0", ".json"), ("1", ".trace.json")] {
            let part = out.join(format!("{}{suffix}", w.name()));
            let _ = std::fs::remove_file(&part);
            let mut child = Command::new(&exe);
            child.args(["--workload", w.name(), "--trace", trace]);
            child.args(["--seed", &cli.seed.to_string(), "--seconds", &cli.seconds.to_string()]);
            if cli.smoke {
                child.arg("--smoke");
            }
            let ok = child.status().is_ok_and(|s| s.success());
            if !ok {
                failures.push(format!("{} --trace {trace} exited non-zero", w.name()));
            }
            match read_json(&part) {
                Ok(Value::Object(fields)) => block.extend(fields.into_iter().filter(|(k, _)| {
                    !matches!(k.as_str(), "schema" | "kind" | "workload" | "smoke" | "host")
                })),
                _ => failures.push(format!("{} --trace {trace} left no part file", w.name())),
            }
        }
        blocks.push((w.name().to_string(), Value::Object(block)));
    }
    let hash =
        |name: &str| blocks.iter().find(|(n, _)| n == name).map(|(_, b)| b["history_hash"].clone());
    if hash("flat_loop") != hash("flat_sockets") || hash("flat_loop").is_none_or(|h| h.is_null()) {
        failures
            .push("flat_sockets history hash differs from flat_loop's for the same seed".into());
    }
    for (name, block) in &blocks {
        if block["failed"].as_u64() != Some(0) || block["traced"]["failed"].as_u64() != Some(0) {
            failures.push(format!("{name}: failed operations"));
        }
    }
    let result = json!({
        "schema": SCHEMA,
        "host": host::host_block(cli.seed),
        "seed": cli.seed,
        "smoke": cli.smoke,
        "workloads": Value::Object(blocks),
        "gate_failures": failures,
        "claim": null,
    });
    let path = out.join("result.json");
    fedmp_core::save_json(&path, &result);
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    println!(
        "[saved {}]  gate: {}",
        path.display(),
        if failures.is_empty() { "pass" } else { "FAIL" }
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("compare takes exactly two result files\n{USAGE}");
        return ExitCode::from(2);
    };
    let worse = read_json(Path::new(a))
        .and_then(|a| Ok((a, read_json(Path::new(b))?)))
        .and_then(|(a, b)| compare::compare(&a, &b));
    match worse {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            println!("{n} metric(s) worse");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return run_compare(&args[1..]);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = refuse_unless_clean_env() {
        eprintln!("refusing to run: {e}");
        return ExitCode::from(2);
    }
    match cli.workload {
        Some(w) => run_one(&cli, w),
        None => run_all(&cli),
    }
}
