//! `paper` — every table and figure of the FedMP evaluation, one
//! subcommand each over one [`Harness`]:
//!
//! ```text
//! paper <id>... | all     run experiments; each (spec, method) is trained once per process
//! paper check             PASS/WARN per paper claim over bench-results/*.json
//! paper list | probe      ids and their artifacts | Syn-FL vs FedMP calibration table
//! paper run <preset|spec.json> <method> [out.json]    one run of any method
//! ```
//!
//! Experiments write `bench-results/<id>.json` under the working
//! directory. `FEDMP_BENCH_PROFILE=full` selects the paper's grids;
//! `FEDMP_TRACE=<dir>` makes every training leave a numbered trace
//! artifact (and turns the train-once memo off).

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a CLI over its argument list that reports wall-clock columns (`*_ms`) beside the \
              seeded results"
)]

mod check;
mod experiments;
mod kernels;

use experiments as ex;
use fedmp_bench::Harness;
use fedmp_core::{print_table, run_method, save_json, ExperimentSpec, Method, TaskKind};
use serde::Serialize;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

/// One row of the experiment table.
struct Experiment {
    /// Subcommand, the name of the bin it replaced, and of the artifact
    /// `bench-results/<id>.json` that `run`'s result is saved as.
    id: &'static str,
    run: fn(&mut Harness) -> Value,
    /// The paper claim `paper check` judges on the artifact, if any:
    /// its name in the report, what it says, and its judge.
    claim: Option<(&'static str, &'static str, check::Judge)>,
}

/// The row of a claim: experiment `ex::<f>` writes the artifact, and
/// `check::<f>` judges it, parsed as the type the experiment returns.
macro_rules! claim {
    (id: $id:literal, $f:ident, $name:literal, $claim:literal) => {
        Experiment {
            id: $id,
            run: |h| ex::$f(h).to_value(),
            claim: Some(($name, $claim, |body| Ok(check::$f(&check::parse(body, ex::$f)?)))),
        }
    };
}

/// `paper all` order: flagship results first. `table3` follows `fig6`
/// because it reads the same twenty runs — memo hits, not trainings.
const EXPERIMENTS: [Experiment; 20] = [
    claim!(id: "fig6", fig6, "Fig. 6", "FedMP fastest to the common target"),
    claim!(id: "table3", table3, "Table III", "FedMP's accuracy-in-budget column dominates"),
    claim!(id: "fig7", fig7, "Fig. 7", "R2SP beats BSP"),
    claim!(id: "fig8", fig8, "Fig. 8", "FedMP advantage holds Low→High"),
    claim!(id: "fig9", fig9, "Fig. 9", "FedMP fastest at every non-IID level"),
    claim!(id: "fig10", fig10, "Fig. 10", "FedMP fastest at 10/20/30 workers"),
    claim!(id: "fig2", fig2, "Fig. 2", "accuracy rises then falls with the fixed ratio"),
    claim!(id: "fig4", fig4, "Fig. 4", "small θ flat, large θ slower"),
    claim!(id: "fig5", fig5, "Fig. 5", "per-round comp & comm fall with the ratio"),
    claim!(id: "fig11", fig11, "Fig. 11", "PS overhead negligible, grows with N"),
    claim!(id: "fig12", fig12, "Fig. 12", "Asyn-FedMP beats Asyn-FL"),
    claim!(id: "table4", table4, "Table IV", "FedMP lowest perplexity within the budget"),
    Experiment { id: "ablation_bandit", run: ex::ablation_bandit, claim: None },
    Experiment { id: "ablation_reward", run: ex::ablation_reward, claim: None },
    Experiment { id: "ablation_importance", run: ex::ablation_importance, claim: None },
    Experiment { id: "energy", run: ex::energy, claim: None },
    Experiment { id: "resilience", run: ex::resilience, claim: None },
    Experiment { id: "compression", run: ex::compression, claim: None },
    Experiment { id: "scale", run: ex::scale, claim: None },
    Experiment { id: "kernels", run: kernels::kernels, claim: None },
];

fn usage() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    format!(
        "usage: paper <id>... | all | check | list | probe | run <preset|spec.json> <method> [out.json]\n\
         ids: {}\n\
         presets: cnn alexnet vgg resnet\n\
         methods: SynFl UpFl FedProx FlexCom FedMp FedMpBsp AsynFl AsynFedMp fixed:<r>",
        ids.join(" ")
    )
}

/// The experiments `args` name, in the order given; `Err` carries the
/// first name that is not in the table.
fn select(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if args == ["all"] {
        return Ok(EXPERIMENTS.iter().collect());
    }
    args.iter()
        .map(|arg| EXPERIMENTS.iter().find(|e| e.id == arg).ok_or_else(|| arg.clone()))
        .collect()
}

fn parse_method(s: &str) -> Result<Method, String> {
    Ok(match s {
        "SynFl" | "syn-fl" | "synfl" => Method::SynFl,
        "UpFl" | "up-fl" | "upfl" => Method::UpFl,
        "FedProx" | "fedprox" => Method::FedProx,
        "FlexCom" | "flexcom" => Method::FlexCom,
        "FedMp" | "fedmp" | "FedMP" => Method::FedMp,
        "FedMpBsp" | "bsp" => Method::FedMpBsp,
        "AsynFl" | "asyn-fl" => Method::AsynFl { m: 5 },
        "AsynFedMp" | "asyn-fedmp" => Method::AsynFedMp { m: 5 },
        other => match other.strip_prefix("fixed:").map(str::parse) {
            Some(Ok(ratio)) => Method::FedMpFixed(ratio),
            _ => return Err(format!("unknown method {other}")),
        },
    })
}

fn parse_spec(s: &str) -> Result<ExperimentSpec, String> {
    Ok(match s {
        "cnn" => ExperimentSpec::bench(TaskKind::CnnMnist),
        "alexnet" => ExperimentSpec::bench(TaskKind::AlexnetCifar),
        "vgg" => ExperimentSpec::bench(TaskKind::VggEmnist),
        "resnet" => ExperimentSpec::bench(TaskKind::ResnetTiny),
        path => {
            let body =
                std::fs::read_to_string(path).map_err(|e| format!("read spec {path}: {e}"))?;
            serde_json::from_str(&body).map_err(|e| format!("parse spec {path}: {e}"))?
        }
    })
}

/// `paper run`: any method on a preset or a spec file, evaluated rounds
/// printed, the full history optionally dumped.
fn run_one(args: &[String]) -> Result<(), String> {
    let [spec, method, out @ ..] = args else { return Err("run needs a spec and a method".into()) };
    let (spec, method) = (parse_spec(spec)?, parse_method(method)?);
    println!("task: {} | workers: {} | rounds: {}", spec.task.name(), spec.workers, spec.fl.rounds);
    let history = run_method(&spec, method);
    let rows: Vec<Vec<String>> = history
        .rounds
        .iter()
        .filter_map(|r| {
            let (loss, acc) = r.eval?;
            Some(vec![
                r.round.to_string(),
                format!("{:.0}s", r.sim_time),
                format!("{loss:.3}"),
                format!("{:.1}%", acc * 100.0),
            ])
        })
        .collect();
    print_table(&history.method, &["round", "virtual time", "test loss", "accuracy"], &rows);
    if let Some(out) = out.first() {
        save_json(out, &history);
        println!("history written to {out}");
    }
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let mut harness = Harness::from_env();
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => return Err(String::new()),
        Some("list") => {
            for e in &EXPERIMENTS {
                println!("{:<20} -> bench-results/{}.json", e.id, e.id);
            }
        }
        Some("check") => std::process::exit(check::report(Path::new("bench-results"))),
        Some("probe") => ex::probe(&mut harness),
        Some("run") => run_one(&args[1..])?,
        Some(_) => {
            let chosen = select(args).map_err(|id| format!("unknown experiment {id}"))?;
            let t0 = Instant::now();
            for e in &chosen {
                println!("\n######## {} ########", e.id);
                let path = Path::new("bench-results").join(format!("{}.json", e.id));
                save_json(&path, &(e.run)(&mut harness));
                println!("\n[saved {}]", path.display());
            }
            let (n, trained, secs) = (chosen.len(), harness.trainings, t0.elapsed().as_secs_f64());
            println!("\n{n} experiment(s), {trained} run_method training(s), {secs:.0}s.");
            println!(
                "Results under bench-results/*.json; `paper check` tests them against the paper."
            );
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(why) = dispatch(&args) {
        eprintln!("{why}\n{}", usage());
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn repo_file(path: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(path)
    }

    #[test]
    fn ids_and_artifacts_are_declared_once() {
        let ids: BTreeSet<_> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate id");
    }

    #[test]
    fn every_id_is_documented_in_experiments_md() {
        let doc = std::fs::read_to_string(repo_file("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
        for e in &EXPERIMENTS {
            assert!(doc.contains(&format!("paper -- {}", e.id)), "EXPERIMENTS.md omits `{}`", e.id);
        }
    }

    #[test]
    fn every_checked_in_artifact_has_an_owner() {
        let mut declared: BTreeSet<String> =
            EXPERIMENTS.iter().map(|e| format!("{}.json", e.id)).collect();
        // The one artifact no experiment writes: `mutants/run.py`'s
        // killer matrix.
        declared.insert("mutants.json".to_string());
        let on_disk: BTreeSet<String> = std::fs::read_dir(repo_file("bench-results"))
            .expect("bench-results/")
            .map(|f| f.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(on_disk, declared, "bench-results/ and the experiment table disagree");
    }
}
