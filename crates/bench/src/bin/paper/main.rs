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
use fedmp_core::{print_table, run_method, ExperimentSpec, Method, TaskKind};
use std::path::Path;
use std::time::Instant;

/// One row of the experiment table.
struct Experiment {
    /// Subcommand, and the name of the bin it replaced.
    id: &'static str,
    /// `bench-results/<name>.json` files it writes.
    artifacts: &'static [&'static str],
    run: fn(&mut Harness),
}

/// `paper all` order: flagship results first. `table3` follows `fig6`
/// because it reads the same twenty runs — memo hits, not trainings.
const EXPERIMENTS: [Experiment; 20] = [
    Experiment { id: "fig6", artifacts: &["fig6"], run: ex::fig6 },
    Experiment { id: "table3", artifacts: &["table3"], run: ex::table3 },
    Experiment { id: "fig7", artifacts: &["fig7"], run: ex::fig7 },
    Experiment { id: "fig8", artifacts: &["fig8"], run: ex::fig8 },
    Experiment { id: "fig9", artifacts: &["fig9"], run: ex::fig9 },
    Experiment { id: "fig10", artifacts: &["fig10"], run: ex::fig10 },
    Experiment { id: "fig2", artifacts: &["fig2"], run: ex::fig2 },
    Experiment { id: "fig4", artifacts: &["fig4"], run: ex::fig4 },
    Experiment { id: "fig5", artifacts: &["fig5"], run: ex::fig5 },
    Experiment { id: "fig11", artifacts: &["fig11"], run: ex::fig11 },
    Experiment { id: "fig12", artifacts: &["fig12"], run: ex::fig12 },
    Experiment { id: "table4", artifacts: &["table4"], run: ex::table4 },
    Experiment { id: "ablation_bandit", artifacts: &["ablation_bandit"], run: ex::ablation_bandit },
    Experiment { id: "ablation_reward", artifacts: &["ablation_reward"], run: ex::ablation_reward },
    Experiment {
        id: "ablation_importance",
        artifacts: &["ablation_importance"],
        run: ex::ablation_importance,
    },
    Experiment { id: "energy", artifacts: &["energy"], run: ex::energy },
    Experiment { id: "resilience", artifacts: &["resilience"], run: ex::resilience },
    Experiment { id: "compression", artifacts: &["compression"], run: ex::compression },
    Experiment { id: "scale", artifacts: &["scale"], run: ex::scale },
    Experiment { id: "kernels", artifacts: &["kernels"], run: kernels::kernels },
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
        fedmp_core::save_json(out, &history);
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
                println!("{:<20} -> bench-results/: {}", e.id, e.artifacts.join(" "));
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
                (e.run)(&mut harness);
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
        let artifacts: Vec<_> = EXPERIMENTS.iter().flat_map(|e| e.artifacts).collect();
        assert_eq!(artifacts.iter().collect::<BTreeSet<_>>().len(), artifacts.len());
        for (artifact, ..) in check::CHECKS {
            assert!(artifacts.contains(&&artifact), "check reads undeclared {artifact}");
        }
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
            EXPERIMENTS.iter().flat_map(|e| e.artifacts).map(|a| format!("{a}.json")).collect();
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
