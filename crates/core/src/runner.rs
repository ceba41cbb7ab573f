//! Method dispatch: run any of the paper's methods against a built
//! experiment and compare outcomes.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use crate::config::{BuiltExperiment, ExperimentSpec};
use fedmp_edgesim::Population;
use fedmp_fl::{
    run_async, run_fedmp, run_fedmp_hier, run_fedprox, run_flexcom, run_synfl, run_upfl, AsyncMode,
    AsyncOptions, ChaosOptions, CompressionPolicy, FedMpOptions, FedProxOptions, FlexComOptions,
    HierSetup, HierarchyOptions, ImageTask, NodeSpawner, RunHistory, RuntimeError,
    SocketRunOptions, SyncMethod, SyncScheme, UpFlOptions,
};
use serde::{Deserialize, Serialize};

/// Every training method the evaluation section compares.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Method {
    /// Full-model synchronous FedAvg \[5\].
    SynFl,
    /// Uniform adaptive pruning \[15\].
    UpFl,
    /// Proximal + capability-scaled local iterations \[19\].
    FedProx,
    /// Heterogeneous upload compression \[13\].
    FlexCom,
    /// The paper's system.
    FedMp,
    /// FedMP with traditional BSP instead of R2SP (Fig. 7 ablation).
    FedMpBsp,
    /// FedMP at a fixed uniform ratio (Fig. 2 / Fig. 5 sweeps).
    FedMpFixed(f32),
    /// FedMP under the adaptive wire-v2 compression policy: slow links
    /// download `f16` and upload int8 top-k deltas with error feedback.
    FedMpCompressed,
    /// Asynchronous FedAvg \[43\], aggregating `m` arrivals per round.
    AsynFl {
        /// Arrivals per aggregation.
        m: usize,
    },
    /// Algorithm 2: asynchronous FedMP.
    AsynFedMp {
        /// Arrivals per aggregation.
        m: usize,
    },
}

impl Method {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            Method::SynFl => "Syn-FL".into(),
            Method::UpFl => "UP-FL".into(),
            Method::FedProx => "FedProx".into(),
            Method::FlexCom => "FlexCom".into(),
            Method::FedMp => "FedMP".into(),
            Method::FedMpBsp => "FedMP-BSP".into(),
            Method::FedMpFixed(r) => format!("FedMP(α={r})"),
            Method::FedMpCompressed => "FedMP-compressed".into(),
            Method::AsynFl { .. } => "Asyn-FL".into(),
            Method::AsynFedMp { .. } => "Asyn-FedMP".into(),
        }
    }

    /// The five synchronous methods of Table III / Fig. 6 / Fig. 8 /
    /// Fig. 9 / Fig. 10, in the paper's column order.
    pub fn paper_five() -> [Method; 5] {
        [Method::SynFl, Method::UpFl, Method::FedProx, Method::FlexCom, Method::FedMp]
    }
}

/// Builds the experiment described by `spec` and runs `method` on it.
///
/// When the `FEDMP_TRACE` environment variable names a directory, the
/// run is traced: a JSONL artifact with a run manifest plus one event
/// stream is written there (see [`crate::maybe_trace`]).
pub fn run_method(spec: &ExperimentSpec, method: Method) -> RunHistory {
    let _trace = crate::trace::maybe_trace(&method.name(), spec);
    run_built(spec, &spec.build(), method)
}

/// Runs `method` on an experiment already built from `spec`, starting
/// from a clone of its initial model.
fn run_built(spec: &ExperimentSpec, built: &BuiltExperiment, method: Method) -> RunHistory {
    let setup = built.setup();
    let model = built.model.clone();
    match method {
        Method::SynFl => run_synfl(&spec.fl, &setup, model),
        Method::UpFl => run_upfl(&spec.fl, &setup, model, &UpFlOptions::default()),
        Method::FedProx => run_fedprox(&spec.fl, &setup, model, &FedProxOptions::default()),
        Method::FlexCom => run_flexcom(&spec.fl, &setup, model, &FlexComOptions::default()),
        Method::FedMp => run_fedmp(&spec.fl, &setup, model, &FedMpOptions::default()),
        Method::FedMpBsp => {
            let opts = FedMpOptions { sync: SyncScheme::BSP, ..Default::default() };
            run_fedmp(&spec.fl, &setup, model, &opts)
        }
        Method::FedMpFixed(ratio) => {
            let opts = FedMpOptions { fixed_ratio: Some(ratio), ..Default::default() };
            run_fedmp(&spec.fl, &setup, model, &opts)
        }
        Method::FedMpCompressed => {
            let opts =
                FedMpOptions { compression: CompressionPolicy::adaptive(), ..Default::default() };
            run_fedmp(&spec.fl, &setup, model, &opts)
        }
        Method::AsynFl { m } => {
            let opts = AsyncOptions { mode: AsyncMode::AsynFl, m, ..Default::default() };
            run_async(&spec.fl, &setup, model, &opts)
        }
        Method::AsynFedMp { m } => {
            let opts = AsyncOptions { mode: AsyncMode::AsynFedMp, m, ..Default::default() };
            run_async(&spec.fl, &setup, model, &opts)
        }
    }
}

/// Runs every method in `methods` against `spec`, returning histories
/// in input order. The experiment is built once per call, and every
/// method starts from its own clone of the one initial model. The
/// independent runs fan out across the deterministic round executor
/// ([`fedmp_fl::exec::ordered_map`]); each engine's own per-worker
/// fan-out then runs inline on its pool thread, so every history is
/// bit-identical to calling [`run_method`] in a loop. Nothing is kept
/// between calls. When `FEDMP_TRACE` requests tracing the runs stay
/// serial through [`run_method`]: trace sessions are process-exclusive
/// and artifact numbering is order-sensitive.
pub fn run_methods(spec: &ExperimentSpec, methods: &[Method]) -> Vec<RunHistory> {
    if crate::trace::trace_requested() {
        return methods.iter().map(|&m| run_method(spec, m)).collect();
    }
    if methods.is_empty() {
        return Vec::new();
    }
    let built = spec.build();
    fedmp_fl::exec::ordered_map(methods.to_vec(), |_, m| run_built(spec, &built, m))
}

/// Runs `method` on the real socket transport
/// ([`fedmp_fl::run_sockets`]): the PS binds the Unix socket in
/// `sock`, `spawner` brings up one node per worker (in-process threads
/// or real OS processes), and the round protocol crosses the kernel as
/// length-prefixed frames with `chaos` re-mapped to packet-level
/// faults. Traced like [`run_method`] when `FEDMP_TRACE` names a
/// directory.
///
/// # Errors
/// Propagates terminal protocol and transport violations
/// ([`RuntimeError`]); every *injected* fault is recovered in-run.
pub fn run_sockets<S: NodeSpawner>(
    spec: &ExperimentSpec,
    method: &SyncMethod,
    chaos: &ChaosOptions,
    sock: &SocketRunOptions,
    spawner: &mut S,
) -> Result<RunHistory, RuntimeError> {
    let _trace = crate::trace::maybe_trace("sockets", spec);
    let built = spec.build();
    let setup = built.setup();
    fedmp_fl::run_sockets(&spec.fl, &setup, built.model.clone(), method, chaos, sock, spawner)
}

/// The experiment spec serialised for shipment to worker nodes inside
/// the socket SETUP frame: `fedmp-node --role worker` rebuilds its
/// dataset shard from exactly these bytes, so PS and workers provably
/// derive their data from one seed. Serialising a spec cannot fail
/// (it is a plain value tree), so the empty-blob fallback is dead in
/// practice and merely keeps this path total.
pub fn spec_blob(spec: &ExperimentSpec) -> Vec<u8> {
    serde_json::to_vec(spec).unwrap_or_default()
}

/// Worker-side inverse of [`spec_blob`]: rebuild the training task a
/// socket node should serve from the SETUP payload. `None` means the
/// blob did not parse as an [`ExperimentSpec`], which the node reports
/// as a handshake failure rather than guessing at a dataset.
pub fn task_from_blob(blob: &[u8]) -> Option<ImageTask> {
    let spec: ExperimentSpec = serde_json::from_slice(blob).ok()?;
    Some(spec.build_task())
}

/// Runs population-scale hierarchical FedMP ([`run_fedmp_hier`])
/// against the experiment described by `spec`: the spec's dataset and
/// model are built as usual, but the fleet is replaced by a lazy
/// seeded [`Population`] of `population` devices at the spec's
/// heterogeneity level, sampled `opts.cohort` clients per round.
/// Traced like [`run_method`] when `FEDMP_TRACE` names a directory.
pub fn run_hier(spec: &ExperimentSpec, population: u64, opts: &HierarchyOptions) -> RunHistory {
    let _trace = crate::trace::maybe_trace("FedMP-hier", spec);
    let built = spec.build();
    let pop = Population::new(population, spec.seed, spec.level);
    let mut setup = HierSetup::new(&built.task, pop, built.time);
    setup.cost_scale = built.cost_scale;
    run_fedmp_hier(&spec.fl, &setup, built.model, opts)
}

/// Runs FedMP with caller-supplied options (θ sweeps, custom reward
/// shaping, BSP ablations) on the experiment described by `spec`.
pub fn run_fedmp_custom(spec: &ExperimentSpec, opts: &FedMpOptions) -> RunHistory {
    let _trace = crate::trace::maybe_trace("FedMP-custom", spec);
    let built = spec.build();
    let setup = built.setup();
    run_fedmp(&spec.fl, &setup, built.model.clone(), opts)
}

/// Speedups relative to the first (baseline) history, by
/// time-to-target-accuracy. `None` appears when a method never reached
/// the target.
pub fn speedup_table(
    histories: &[RunHistory],
    target: f32,
) -> Vec<(String, Option<f64>, Option<f64>)> {
    let base = histories.first().and_then(|h| h.time_to_accuracy(target));
    histories
        .iter()
        .map(|h| {
            let t = h.time_to_accuracy(target);
            let speedup = match (base, t) {
                (Some(b), Some(t)) if t > 0.0 => Some(b / t),
                _ => None,
            };
            (h.method.clone(), t, speedup)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskKind;

    #[test]
    fn every_method_runs_end_to_end() {
        let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
        spec.fl.rounds = 3;
        spec.fl.eval_every = 2;
        for method in [
            Method::SynFl,
            Method::UpFl,
            Method::FedProx,
            Method::FlexCom,
            Method::FedMp,
            Method::FedMpBsp,
            Method::FedMpFixed(0.5),
            Method::FedMpCompressed,
            Method::AsynFl { m: 2 },
            Method::AsynFedMp { m: 2 },
        ] {
            let h = run_method(&spec, method);
            assert_eq!(h.rounds.len(), 3, "{}", method.name());
            assert!(h.final_accuracy().is_some(), "{}", method.name());
        }
    }

    #[test]
    fn hier_runner_runs_end_to_end() {
        let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
        spec.fl.rounds = 2;
        spec.fl.eval_every = 2;
        let opts = HierarchyOptions { cohort: 6, shards: 3, edges: 2, ..Default::default() };
        let h = run_hier(&spec, 100, &opts);
        assert_eq!(h.rounds.len(), 2);
        assert!(h.final_accuracy().is_some());
    }

    #[test]
    fn run_methods_matches_serial_run_method_exactly() {
        let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
        spec.fl.rounds = 2;
        spec.fl.eval_every = 1;
        let methods = [Method::SynFl, Method::FedMpFixed(0.5)];
        let batch = run_methods(&spec, &methods);
        assert_eq!(batch.len(), methods.len());
        for (&m, h) in methods.iter().zip(batch.iter()) {
            let solo = run_method(&spec, m);
            assert_eq!(
                serde_json::to_string(h).unwrap(),
                serde_json::to_string(&solo).unwrap(),
                "{}",
                m.name()
            );
        }
    }

    /// Asserts that `short` (R rounds) is the first R records of `long`
    /// (2R rounds), except that the short run's last record carries the
    /// forced final evaluation: `eval` is the one field that differs
    /// there, so R − 1 must not be a multiple of `eval_every`.
    fn assert_prefix_stable(short: &RunHistory, long: &RunHistory) {
        let r = short.rounds.len();
        assert_eq!(long.rounds.len(), 2 * r, "{}", long.method);
        let json = |rec: &fedmp_fl::RoundRecord| serde_json::to_string(rec).unwrap();
        for (i, (s, l)) in short.rounds.iter().zip(&long.rounds).enumerate() {
            if i + 1 < r {
                assert_eq!(json(s), json(l), "{} round {i}", long.method);
                continue;
            }
            assert!(s.eval.is_some(), "{}: forced final eval missing", short.method);
            assert!(l.eval.is_none(), "{}: pick R with R-1 off the eval grid", long.method);
            let mut s = s.clone();
            s.eval = None;
            assert_eq!(json(&s), json(l), "{} round {i} beyond eval", long.method);
        }
    }

    /// The CNN small spec at `rounds` rounds, evaluated every third.
    fn prefix_spec(rounds: usize) -> ExperimentSpec {
        let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
        spec.fl.rounds = rounds;
        spec.fl.eval_every = 3;
        spec
    }

    #[test]
    fn synchronous_round_body_is_prefix_stable() {
        for method in [Method::FedMp, Method::SynFl] {
            let short = run_method(&prefix_spec(5), method);
            let long = run_method(&prefix_spec(10), method);
            assert_prefix_stable(&short, &long);
        }
    }

    #[test]
    fn async_engine_is_prefix_stable() {
        let method = Method::AsynFedMp { m: 2 };
        assert_prefix_stable(
            &run_method(&prefix_spec(5), method),
            &run_method(&prefix_spec(10), method),
        );
    }

    #[test]
    fn hierarchy_is_prefix_stable() {
        let opts = HierarchyOptions { cohort: 6, shards: 3, edges: 2, ..Default::default() };
        assert_prefix_stable(
            &run_hier(&prefix_spec(3), 100, &opts),
            &run_hier(&prefix_spec(6), 100, &opts),
        );
    }

    #[test]
    fn socket_runner_matches_the_loop_engine() {
        let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
        spec.fl.rounds = 2;
        spec.fl.eval_every = 2;
        let h_loop = run_method(&spec, Method::FedMp);

        let task = std::sync::Arc::new(spec.build().task);
        let sock =
            SocketRunOptions::new(fedmp_fl::unique_socket_path("core-runner"), spec_blob(&spec));
        let mut spawner = fedmp_fl::ThreadNodes {
            task,
            socket: sock.socket.clone(),
            connect_attempts: 12,
            connect_backoff: core::time::Duration::from_millis(2),
        };
        let fedmp = SyncMethod::FedMp(FedMpOptions::default());
        let h_sock = run_sockets(&spec, &fedmp, &ChaosOptions::none(), &sock, &mut spawner)
            .expect("socket run");
        assert_eq!(
            serde_json::to_string(&h_loop).unwrap(),
            serde_json::to_string(&h_sock).unwrap(),
            "core socket runner diverged from the loop engine"
        );
        // A worker's task is the PS's, bit for bit (as `Debug` text).
        let rebuilt = task_from_blob(&spec_blob(&spec)).expect("blob round trip");
        assert_eq!(format!("{rebuilt:?}"), format!("{:?}", spawner.task));
        assert!(task_from_blob(b"not a spec").is_none());
    }

    #[test]
    fn speedup_table_is_relative_to_first() {
        let mut fast = RunHistory::new("fast");
        let mut slow = RunHistory::new("slow");
        for (h, scale) in [(&mut slow, 10.0f64), (&mut fast, 5.0)] {
            for i in 0..3 {
                h.rounds.push(fedmp_fl::RoundRecord {
                    round: i,
                    sim_time: scale * (i + 1) as f64,
                    round_time: scale,
                    mean_comp: 0.0,
                    mean_comm: 0.0,
                    train_loss: 0.0,
                    eval: Some((0.0, 0.3 * (i + 1) as f32)),
                    ..Default::default()
                });
            }
        }
        let table = speedup_table(&[slow, fast], 0.6);
        assert_eq!(table[0].2, Some(1.0));
        assert_eq!(table[1].2, Some(2.0));
    }
}
