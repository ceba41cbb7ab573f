//! # fedmp-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! FedMP paper's evaluation section. One binary, `paper`, holds a table
//! of experiments keyed by figure/table id; each prints the rows/series
//! the paper reports and dumps JSON under `bench-results/`:
//!
//! ```text
//! cargo run -p fedmp-bench --release --bin paper -- fig2 table3   # any ids
//! cargo run -p fedmp-bench --release --bin paper -- all     # everything, each run trained once
//! cargo run -p fedmp-bench --release --bin paper -- check   # PASS/WARN per paper claim
//! ```
//!
//! `FEDMP_BENCH_PROFILE=full` selects larger (slower, higher-fidelity)
//! runs than the laptop-scale `quick` default. This library is what the
//! experiments share: the [`Harness`] (profile-scaled specs, a
//! train-once memo over [`fedmp_core::run_methods`]) and the one
//! time-to-target block.

#![expect(
    clippy::disallowed_methods,
    reason = "FEDMP_BENCH_PROFILE picks the experiment sizes, before any run starts"
)]

use fedmp_core::{
    print_table, run_methods, speedup_table, trace_requested, ExperimentSpec, Method, TaskKind,
};
use fedmp_fl::RunHistory;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What every `paper` experiment runs through: the fidelity profile
/// (`FEDMP_BENCH_PROFILE`, read once) and a memo of finished runs, so a
/// deterministic `(spec, method)` pair is trained once per process
/// however many figures plot it.
#[derive(Default)]
pub struct Harness {
    /// The `full` profile (the paper's grids) rather than the
    /// laptop-scale `quick` default.
    pub full: bool,
    memo: BTreeMap<String, RunHistory>,
    /// Runs actually trained through `run_method` so far (memo hits are
    /// not counted).
    pub trainings: usize,
}

impl Harness {
    /// A harness at the profile the environment asks for.
    pub fn from_env() -> Self {
        let full = std::env::var("FEDMP_BENCH_PROFILE").as_deref() == Ok("full");
        Harness { full, ..Default::default() }
    }

    /// The experiment spec each bench uses for a task under the current
    /// profile: the paper's default deployment (10 workers, Medium
    /// heterogeneity) at laptop width.
    pub fn spec(&self, task: TaskKind) -> ExperimentSpec {
        let mut spec = ExperimentSpec::bench(task);
        if self.full {
            spec.width *= 2.0;
            spec.data_scale *= 2.0;
            spec.fl.rounds *= 2;
        }
        spec
    }

    /// One history per method, in input order, each bit-identical to
    /// `run_method(spec, method)`. Pairs this process has not trained
    /// yet fan out through [`run_methods`]; the rest are memo hits.
    /// Under `FEDMP_TRACE` nothing is memoised — every call must leave
    /// its numbered trace artifact.
    pub fn histories(&mut self, spec: &ExperimentSpec, methods: &[Method]) -> Vec<RunHistory> {
        if trace_requested() {
            self.trainings += methods.len();
            return run_methods(spec, methods);
        }
        let key = |m: &Method| serde_json::to_string(&(spec, m)).expect("spec serialises");
        let new: Vec<Method> =
            methods.iter().copied().filter(|m| !self.memo.contains_key(&key(m))).collect();
        self.trainings += new.len();
        for (m, history) in new.iter().zip(run_methods(spec, &new)) {
            self.memo.insert(key(m), history);
        }
        methods.iter().map(|m| self.memo[&key(m)].clone()).collect()
    }
}

/// Default time-to-target accuracy used across Figs. 6/8–10/12: 90 %
/// of the *baseline's* (first history's) final accuracy — the paper
/// fixes absolute targets relative to what Syn-FL achieves; methods
/// that never reach it report `-`.
pub fn common_target(histories: &[RunHistory]) -> f32 {
    let base_final = histories.first().and_then(|h| h.final_accuracy()).unwrap_or(0.5);
    (base_final * 0.9).min(0.99)
}

/// One method's row of a time-to-target block; `None` where the method
/// (or, for the speed-up, the baseline) never reached the target.
#[derive(Serialize, Deserialize)]
pub struct TimeToTarget {
    /// Display name (`Syn-FL`, `FedMP`, …).
    pub method: String,
    /// Virtual seconds to the target.
    pub time: Option<f64>,
    /// Baseline time over this method's time.
    pub speedup: Option<f64>,
}

/// The time-to-target block of Figs. 6/8–10/12: prints each method's
/// time to `target` and its speed-up over the first (baseline) history,
/// and returns the same rows.
pub fn time_to_target(title: &str, histories: &[RunHistory], target: f32) -> Vec<TimeToTarget> {
    let table = speedup_table(histories, target);
    let baseline = histories.first().map_or("baseline", |h| h.method.as_str());
    let rows: Vec<Vec<String>> =
        table.iter().map(|(n, t, s)| vec![n.clone(), fmt_time(*t), fmt_speedup(*s)]).collect();
    print_table(title, &["method", "time to target", &format!("speedup vs {baseline}")], &rows);
    table
        .into_iter()
        .map(|(method, time, speedup)| TimeToTarget { method, time, speedup })
        .collect()
}

/// Formats an `Option<f64>` seconds value for tables.
pub fn fmt_time(t: Option<f64>) -> String {
    t.map_or("-".into(), |v| format!("{v:.1}s"))
}

/// Formats a speedup column.
pub fn fmt_speedup(s: Option<f64>) -> String {
    s.map_or("-".into(), |v| format!("{v:.2}x"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, because the last part sets `FEDMP_TRACE` for the whole
    /// process; nothing else in this test binary trains.
    #[test]
    fn memo_trains_each_pair_once_and_tracing_bypasses_it() {
        let mut spec = ExperimentSpec::small(TaskKind::CnnMnist);
        spec.fl.rounds = 2;
        let methods = [Method::SynFl, Method::FedMpFixed(0.5)];
        let json = |hs: &[RunHistory]| serde_json::to_string(hs).expect("histories serialise");
        let mut h = Harness::default();

        let first = h.histories(&spec, &methods);
        assert_eq!(h.trainings, 2);
        let again = h.histories(&spec, &methods);
        assert_eq!(h.trainings, 2, "a pair already trained is a memo hit");
        assert_eq!(json(&first), json(&again));
        assert_eq!(json(&first[1..]), json(&h.histories(&spec, &methods[1..])));
        assert_eq!(h.trainings, 2);

        h.histories(&spec, &[Method::FedMpFixed(0.25)]);
        assert_eq!(h.trainings, 3, "another method trains");
        let mut reseeded = spec.clone();
        reseeded.seed += 1;
        let other = h.histories(&reseeded, &methods[..1]);
        assert_eq!(h.trainings, 4, "another seed trains");
        assert_ne!(json(&other), json(&first[..1]));

        let dir = std::env::temp_dir().join(format!("fedmp-memo-trace-{}", std::process::id()));
        std::env::set_var("FEDMP_TRACE", &dir);
        let traced = [h.histories(&spec, &methods), h.histories(&spec, &methods)];
        std::env::remove_var("FEDMP_TRACE");
        assert_eq!(h.trainings, 8, "every traced call trains");
        assert!(traced.iter().all(|t| json(t) == json(&first)));
        let artifacts = std::fs::read_dir(&dir).expect("trace dir").count();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(artifacts, 4, "and leaves its own numbered artifact");
    }
}
