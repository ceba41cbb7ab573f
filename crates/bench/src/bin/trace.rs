//! Trace tooling: record a traced FedMP run, summarize a trace back
//! into resource totals, or diff two traces event-by-event.
//!
//! ```text
//! cargo run --release -p fedmp-bench --bin trace -- record out.jsonl --rounds 8 --seed 1
//! cargo run --release -p fedmp-bench --bin trace -- chaos out.jsonl --rounds 8 --seed 1
//! cargo run --release -p fedmp-bench --bin trace -- summarize out.jsonl
//! cargo run --release -p fedmp-bench --bin trace -- diff a.jsonl b.jsonl
//! ```
//!
//! `summarize` rebuilds the run's history from its `RoundEnd` events and
//! prints `fedmp_fl::resource_totals` of it; `diff` prints the first
//! diverging event (exit code 1) or confirms the traces are identical
//! (exit code 0); `chaos` records the fault-tolerant threaded runtime
//! under the deterministic demo chaos plan — recording it twice (or at
//! different `--threads`) and diffing proves recovery is reproducible.
//! The event schema is documented in `docs/TRACE_SCHEMA.md`.

#![expect(clippy::disallowed_methods, reason = "a CLI's behaviour is its argument list")]

use fedmp_core::{run_manifest, ExperimentSpec, TaskKind};
use fedmp_fl::{
    resource_totals, run_fedmp, run_threaded, ChaosOptions, FaultOptions, FedMpOptions, RunHistory,
    SyncMethod,
};
use fedmp_obs::{diff, Trace, TraceSession};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace record <out.jsonl> [--rounds N] [--seed S] [--threads T]\n\
         \x20      trace chaos <out.jsonl> [--rounds N] [--seed S] [--threads T]\n\
         \x20      trace summarize <trace.jsonl>\n\
         \x20      trace diff <a.jsonl> <b.jsonl>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("chaos") => chaos_cmd(&args[1..]),
        Some("summarize") => summarize_cmd(&args[1..]),
        Some("diff") => diff_cmd(&args[1..]),
        _ => usage(),
    }
}

/// Parses the shared `record`/`chaos` flags: `(rounds, seed, threads)`,
/// or `None` on an unknown flag, a missing value or one that is not an
/// integer.
fn record_flags(args: &[String]) -> Option<(usize, u64, Option<usize>)> {
    let mut rounds = 6usize;
    let mut seed = 0u64;
    let mut threads: Option<usize> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--rounds" => rounds = value.parse().ok()?,
            "--seed" => seed = value.parse().ok()?,
            "--threads" => threads = Some(value.parse().ok()?),
            _ => return None,
        }
    }
    Some((rounds, seed, threads))
}

/// Runs a seeded small-CNN FedMP experiment with tracing to `out`.
fn record(args: &[String]) -> ExitCode {
    let Some(out) = args.first() else { return usage() };
    let Some((rounds, seed, threads)) = record_flags(&args[1..]) else { return usage() };
    if threads.is_some() {
        fedmp_tensor::parallel::override_threads(threads);
    }

    let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
    spec.seed = seed;
    spec.fl.rounds = rounds;
    spec.fl.eval_every = 2;

    let built = spec.build();
    let setup = built.setup();
    let manifest = run_manifest("FedMP", &spec);
    let session = TraceSession::to_file(out, &manifest).expect("open trace output");
    let history = run_fedmp(&spec.fl, &setup, built.model.clone(), &FedMpOptions::default());
    drop(session); // flush + close before re-reading

    let totals = resource_totals(&history, spec.workers);
    let trace = Trace::load(out).expect("re-read recorded trace");
    println!(
        "recorded {} events over {} rounds to {out}",
        trace.events.len(),
        history.rounds.len()
    );
    println!(
        "live resource totals: wall {:.2}s  compute {:.2}s  comm {:.2}s",
        totals.wall_secs, totals.compute_secs, totals.comm_secs
    );
    ExitCode::SUCCESS
}

/// Runs the same seeded experiment on the fault-tolerant threaded
/// runtime, with availability faults on and the seeded demo chaos plan
/// injecting transport corruption, drops, delays, and worker crashes.
/// The trace records the recovery machinery (`FrameRetransmit`,
/// `WorkerExcluded`, `WorkerRejoined`, `QuorumAggregate`, and the socket
/// fleet's `FrameTimeout`/`ConnReset`/`NodeRespawned`/`ConnEstablished`)
/// alongside the usual round events.
fn chaos_cmd(args: &[String]) -> ExitCode {
    let Some(out) = args.first() else { return usage() };
    let Some((rounds, seed, threads)) = record_flags(&args[1..]) else { return usage() };
    if threads.is_some() {
        fedmp_tensor::parallel::override_threads(threads);
    }

    let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
    spec.seed = seed;
    spec.fl.rounds = rounds;
    spec.fl.eval_every = 2;

    let opts = FedMpOptions {
        faults: Some(FaultOptions { fail_prob: 0.2, recover_rounds: 1, ..Default::default() }),
        ..Default::default()
    };
    let chaos = ChaosOptions::demo(seed);

    let built = spec.build();
    let setup = built.setup();
    let manifest = run_manifest("FedMP-threaded", &spec);
    let session = TraceSession::to_file(out, &manifest).expect("open trace output");
    let fedmp = SyncMethod::FedMp(opts);
    let history = match run_threaded(&spec.fl, &setup, built.model.clone(), &fedmp, &chaos) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(session); // flush + close before re-reading

    let trace = Trace::load(out).expect("re-read recorded trace");
    let retries: usize = history.rounds.iter().map(|r| r.retries).sum();
    let exclusions: usize = history.rounds.iter().map(|r| r.exclusions).sum();
    println!(
        "recorded {} events over {} rounds to {out}",
        trace.events.len(),
        history.rounds.len()
    );
    println!("recovered faults: {retries} retransmits, {exclusions} exclusions");
    ExitCode::SUCCESS
}

/// Prints the manifest and the `ResourceTotals` of the history rebuilt
/// from a trace file.
fn summarize_cmd(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else { return usage() };
    let trace = match Trace::load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(manifest) = trace.manifest.as_ref() else {
        eprintln!("error: trace has no manifest line");
        return ExitCode::FAILURE;
    };
    println!("trace     : {path}");
    println!("engine    : {}", manifest.engine);
    println!("seed      : {}", manifest.seed);
    println!("workers   : {}", manifest.workers);
    println!("threads   : {}", manifest.threads);
    println!("config    : {}", manifest.config_hash);
    println!("events    : {}", trace.events.len());
    let t = resource_totals(&RunHistory::from_trace(&trace), manifest.workers);
    println!("rounds    : {}", t.rounds);
    println!("wall      : {:.4} virtual s", t.wall_secs);
    println!("compute   : {:.4} worker·s", t.compute_secs);
    println!("comm      : {:.4} worker·s", t.comm_secs);
    println!("idle      : {:.4} worker·s", t.idle_secs);
    println!("utilisation: {:.1}%", 100.0 * t.utilisation());
    ExitCode::SUCCESS
}

/// Compares two traces; exit code 1 on the first diverging event.
fn diff_cmd(args: &[String]) -> ExitCode {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else { return usage() };
    let (ta, tb) = match (Trace::load(a), Trace::load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let d = diff(&ta, &tb);
    for note in &d.manifest_notes {
        println!("manifest: {note}");
    }
    match &d.divergence {
        None => {
            println!("identical: {} events in both traces", d.len_a);
            ExitCode::SUCCESS
        }
        Some(div) => {
            println!("first divergence at event {}:", div.index);
            println!("  a: {}", div.a);
            println!("  b: {}", div.b);
            ExitCode::FAILURE
        }
    }
}
