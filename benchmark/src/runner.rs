//! The end-to-end run of one workload: timed set-up, one untimed
//! warm-up, timed repeats of identical work, the correctness gate, and
//! the report.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

use crate::host::{cpu_seconds, host_block, peak_rss_mb, PINNED_THREADS};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::Summary;
use crate::workloads::{Inputs, Outcome, Sizes, Workload, TARGET_ACCURACY};

/// Version of the result-file layout `compare` reads.
pub const SCHEMA: u32 = 1;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Repeats continue until this much timed wall has been measured.
    pub seconds: f64,
    pub smoke: bool,
}

impl RunArgs {
    /// How long timed repeats go on beyond the minimum count: `--seconds`,
    /// or not at all for a smoke run.
    pub fn measure_seconds(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            self.seconds
        }
    }

    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

pub struct E2eReport {
    pub args: RunArgs,
    pub repeats: usize,
    /// Every end-to-end metric by name; `None` where the workload does
    /// not define it.
    pub metrics: BTreeMap<&'static str, Option<Summary>>,
    pub attempted: usize,
    pub failed: usize,
    pub hash: u64,
}

/// End-to-end numbers are only comparable when nothing inside the
/// program is tracing and the kernel path is the default one.
pub fn refuse_unless_clean_env() -> Result<(), String> {
    if std::env::var_os("FEDMP_TRACE").is_some() {
        return Err("FEDMP_TRACE is set: end-to-end numbers are taken with tracing off".into());
    }
    if fedmp_obs::enabled() {
        return Err(
            "a TraceSession is recording: end-to-end numbers are taken with tracing off".into()
        );
    }
    match std::env::var("FEDMP_SIMD") {
        Ok(v) if !matches!(v.trim(), "" | "auto") => {
            Err(format!("FEDMP_SIMD={v}: the benchmark records FEDMP_SIMD=auto only"))
        }
        _ => Ok(()),
    }
}

/// Times `f` in wall and whole-process CPU seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu = cpu_seconds();
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64(), cpu_seconds() - cpu)
}

pub fn run_end_to_end(args: RunArgs) -> E2eReport {
    fedmp_tensor::parallel::override_threads(Some(PINNED_THREADS));
    let sizes = args.sizes();
    let w = args.workload;

    // Set-up is rebuilt several times and `setup_s` is the median: a
    // cheap set-up (tens of ms) gets more rebuilds, within the budget.
    let mut setup_s = Vec::new();
    let mut inputs = None;
    let setup_started = Instant::now();
    while setup_s.len() < sizes.setup_repeats
        || (setup_s.len() < 3 * sizes.setup_repeats
            && setup_started.elapsed().as_secs_f64() < sizes.setup_budget_s)
    {
        drop(inputs.take());
        let (built, wall, _) = timed(|| Inputs::build(w, args.seed, &sizes));
        setup_s.push(wall);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");

    let reference = inputs.warm_up(w);
    let (mut attempted, mut failed) = (0, 0);
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let started = Instant::now();
    while outcomes.len() < sizes.min_repeats
        || started.elapsed().as_secs_f64() < args.measure_seconds()
    {
        let (out, wall, cpu) = timed(|| inputs.run(w));
        attempted += out.attempted + 1;
        failed += out.failed;
        if out.hash != reference.hash {
            eprintln!(
                "FAIL: repeat {} hash {:#018x} differs from the reference {:#018x}",
                outcomes.len() + 1,
                out.hash,
                reference.hash
            );
            failed += 1;
        }
        walls.push(wall);
        cpus.push(cpu);
        outcomes.push(out);
    }
    // Sampled before the exactness check below, which holds hundreds of
    // decoded states at once and would otherwise set the workload's peak.
    let peak_rss = peak_rss_mb();
    if let Inputs::Ingest(ingest) = &inputs {
        let (checks, bad) = ingest.check_against_flat_average();
        attempted += checks;
        failed += bad;
    }

    let per = |f: &dyn Fn(usize, &Outcome) -> Option<f64>| -> Option<Summary> {
        let samples: Option<Vec<f64>> = outcomes.iter().enumerate().map(|(i, o)| f(i, o)).collect();
        Summary::of(&samples?)
    };
    let positive = |x: f64| (x > 0.0).then_some(x);
    let to_target = reference.history.as_ref().and_then(|h| {
        let hit =
            h.rounds.iter().find(|r| r.eval.is_some_and(|(_, acc)| acc >= TARGET_ACCURACY))?;
        Some((hit.round + 1, h.time_to_accuracy(TARGET_ACCURACY)?))
    });

    let mut metrics: BTreeMap<&'static str, Option<Summary>> = BTreeMap::new();
    metrics.insert("setup_s", Summary::of(&setup_s));
    metrics.insert("round_wall_s", per(&|i, o| Some(walls[i] / o.rounds as f64)));
    metrics.insert("cpu_s_per_round", per(&|i, o| Some(cpus[i] / o.rounds as f64)));
    metrics.insert("client_updates_per_s", per(&|i, o| Some(o.client_updates as f64 / walls[i])));
    metrics.insert("peak_rss_mb", Some(Summary::single(peak_rss)));
    metrics.insert("train_samples_per_s", per(&|i, o| positive(o.train_samples as f64 / walls[i])));
    metrics.insert(
        "ingest_mb_per_s",
        per(&|_, o| o.ingest.map(|p| p.ingest_bytes as f64 / 1e6 / p.ingest_s)),
    );
    metrics.insert(
        "encode_mb_per_s",
        per(&|_, o| o.ingest.map(|p| p.encode_bytes as f64 / 1e6 / p.encode_s)),
    );
    metrics.insert(
        "wall_to_target_s",
        per(&|i, o| to_target.map(|(rounds, _)| walls[i] / o.rounds as f64 * rounds as f64)),
    );
    metrics.insert("rounds_to_target", to_target.map(|(rounds, _)| Summary::single(rounds as f64)));
    metrics.insert("sim_to_target_s", to_target.map(|(_, sim)| Summary::single(sim)));
    metrics.insert("failed_share", Some(Summary::single(failed as f64 / attempted as f64)));
    debug_assert!(END_TO_END.iter().all(|m| metrics.contains_key(m.name)));

    E2eReport { repeats: outcomes.len(), metrics, attempted, failed, hash: reference.hash, args }
}

impl E2eReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable table: every metric by name, with its unit.
    pub fn print_table(&self) {
        println!(
            "workload {}  seed {}  repeats {}{}",
            self.args.workload.name(),
            self.args.seed,
            self.repeats,
            if self.args.smoke { "  (smoke)" } else { "" }
        );
        if let Some((_, why)) =
            WORKLOADS.iter().find(|(name, _)| *name == self.args.workload.name())
        {
            println!("  why: {why}");
        }
        for def in &END_TO_END {
            match self.metrics[def.name] {
                Some(s) => println!(
                    "  {:<22} {:>14.6} {:<6} {} is better (q1 {:.6}, q3 {:.6}, min {:.6}, max {:.6}, n {})",
                    def.name, s.median, def.unit, def.better.as_str(), s.q1, s.q3, s.min, s.max, s.n
                ),
                None => println!("  {:<22} {:>14} {:<6} not defined on this workload", def.name, "null", def.unit),
            }
        }
        println!(
            "  history hash {:#018x}  attempted {}  failed {}",
            self.hash, self.attempted, self.failed
        );
    }

    /// This workload's block of the result file.
    pub fn to_json(&self) -> Value {
        let sizes = self.args.sizes();
        let metrics: Vec<(String, Value)> = END_TO_END
            .iter()
            .map(|def| {
                let v = self.metrics[def.name].map_or(Value::Null, |s| s.to_json(def.unit));
                (def.name.to_string(), v)
            })
            .collect();
        json!({
            "schema": SCHEMA,
            "kind": "end_to_end",
            "workload": self.args.workload.name(),
            "smoke": self.args.smoke,
            "host": host_block(self.args.seed),
            "sizes": {
                "flat_rounds": sizes.flat_rounds, "hier_rounds": sizes.hier_rounds,
                "encode_clients_per_codec": sizes.encode_clients,
                "ingest_clients_per_codec": sizes.ingest_clients,
                "setup_repeats": sizes.setup_repeats, "min_repeats": sizes.min_repeats,
                "measure_seconds": self.args.seconds,
            },
            "repeats": self.repeats,
            "attempted": self.attempted,
            "failed": self.failed,
            "history_hash": format!("{:#018x}", self.hash),
            "end_to_end": Value::Object(metrics),
        })
    }

    /// The driver's last line: the gated metrics, as measured.
    pub fn driver_line(&self) -> Value {
        let metrics: Vec<(String, Value)> = END_TO_END
            .iter()
            .filter(|def| def.gated)
            .map(|def| {
                let s =
                    self.metrics[def.name].expect("gated metrics are defined on every workload");
                (def.name.to_string(), json!({"value": s.median, "unit": def.unit}))
            })
            .collect();
        json!({
            "correct": self.correct(), "attempted": self.attempted, "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}
