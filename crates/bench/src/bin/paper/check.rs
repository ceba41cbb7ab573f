//! `paper check`: digests `bench-results/*.json` into a paper-shape
//! report — one line per table/figure stating whether the claim under
//! reproduction holds in the measured data. WARN is a finding about the
//! reproduction, not a failure of the tool: only a missing or
//! unparseable artifact makes the exit code non-zero (gating the WARNs
//! is ROADMAP item 1(d)).

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// From an artifact's JSON: does the claim hold, and the detail line a
/// WARN prints.
type Verdict = fn(&Value) -> (bool, String);

/// `(artifact, name in the report, claim, verdict)` per shape claim.
pub const CHECKS: [(&str, &str, &str, Verdict); 12] = [
    ("fig2", "Fig. 2", "accuracy rises then falls with the fixed ratio", fig2),
    ("fig4", "Fig. 4", "small θ flat, large θ slower", fig4),
    ("fig5", "Fig. 5", "per-round comp & comm fall with the ratio", fig5),
    ("table3", "Table III", "FedMP's accuracy-in-budget column dominates", table3),
    ("fig6", "Fig. 6", "FedMP fastest to the common target", fig6),
    ("fig7", "Fig. 7", "R2SP beats BSP", fig7),
    ("fig8", "Fig. 8", "FedMP advantage holds Low→High", fig8),
    ("fig9", "Fig. 9", "FedMP fastest at every non-IID level", fig9),
    ("fig10", "Fig. 10", "FedMP fastest at 10/20/30 workers", fig10),
    ("fig11", "Fig. 11", "PS overhead negligible, grows with N", fig11),
    ("fig12", "Fig. 12", "Asyn-FedMP beats Asyn-FL", fig12),
    ("table4", "Table IV", "FedMP lowest perplexity within the budget", table4),
];

/// Prints the report over the artifacts in `dir`; returns the process
/// exit code (1 when any artifact is missing or does not parse).
pub fn report(dir: &Path) -> i32 {
    println!("\n=== paper-shape report ===");
    let (mut pass, mut unreadable) = (0usize, 0usize);
    for (artifact, id, claim, verdict) in CHECKS {
        let path = dir.join(format!("{artifact}.json"));
        let (tag, detail) = match load(&path).map(|v| verdict(&v)) {
            Ok((true, _)) => ("PASS", None),
            Ok((false, detail)) => ("WARN", Some(detail)),
            Err(why) => ("MISSING", Some(format!("{}: {why} — run `paper all`", path.display()))),
        };
        pass += usize::from(tag == "PASS");
        unreadable += usize::from(tag == "MISSING");
        println!("[{tag:>7}] {id:<10} {claim}");
        if let Some(detail) = detail {
            println!("          {detail}");
        }
    }
    println!("\n{pass}/{} shape claims hold in the measured data.", CHECKS.len());
    i32::from(unreadable > 0)
}

fn load(path: &Path) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    serde_json::from_str(&body).map_err(|e| e.to_string())
}

/// A claim about every entry of a top-level array: holds if `entry`
/// holds for each (vacuously for none); the details concatenate.
fn every(v: &Value, entry: impl Fn(&Value) -> (bool, String)) -> (bool, String) {
    let entries = v.as_array().into_iter().flatten().map(entry);
    entries
        .fold((true, String::new()), |(all, details), (ok, detail)| (all & ok, details + &detail))
}

fn speedup_of(rows: &Value, method: &str) -> Option<f64> {
    rows.as_array()?.iter().find(|r| r["method"] == method)?["speedup"].as_f64()
}

fn task_of(v: &Value) -> &str {
    v["task"].as_str().unwrap_or("?")
}

/// Interior peak of accuracy vs fixed ratio.
fn fig2(v: &Value) -> (bool, String) {
    every(v, |task| {
        let series = task["series"].as_array().into_iter().flatten();
        let accs: Vec<f64> = series.filter_map(|p| p["accuracy"].as_f64()).collect();
        let Some((peak, _)) = accs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) else {
            return (false, String::new());
        };
        let interior_peak = peak > 0 && peak + 1 < accs.len();
        let tail_below_peak = accs[accs.len() - 1] < accs[peak] - 1e-6;
        let ok = (interior_peak || accs[peak] > accs[0]) && tail_below_peak;
        (ok, format!("{}: peak at index {peak} of {}; ", task_of(task), accs.len()))
    })
}

/// θ ≤ 0.05 ≈ flat; θ = 0.25 clearly worse. Grids are sorted by θ:
/// compare the smallest-θ point to the largest-θ point.
fn fig4(v: &Value) -> (bool, String) {
    every(v, |task| {
        let times = task["normalised_times"].as_array().into_iter().flatten();
        let times: Vec<f64> = times.filter_map(Value::as_f64).collect();
        let [small, .., large] = times[..] else { return (false, String::new()) };
        let detail = format!("{}: max(θ≤.05)={small:.2}, θ=.25={large:.2}; ", task_of(task));
        (large >= small, detail)
    })
}

/// Monotone decrease of comp and comm.
fn fig5(v: &Value) -> (bool, String) {
    let pts = v.as_array().cloned().unwrap_or_default();
    let mono = |key: &str| {
        pts.windows(2)
            .all(|w| w[1][key].as_f64().unwrap_or(0.0) <= w[0][key].as_f64().unwrap_or(0.0) + 1e-9)
    };
    (mono("comp") && mono("comm"), format!("{} sweep points", pts.len()))
}

/// FedMP wins accuracy-within-budget on most tasks.
fn table3(v: &Value) -> (bool, String) {
    let (mut wins, mut total) = (0usize, 0usize);
    let mut detail = String::new();
    for task in v.as_array().into_iter().flatten() {
        total += 1;
        let cells = task["cells"].as_array().cloned().unwrap_or_default();
        let acc = |c: &Value| c["accuracy"].as_f64();
        let (ours, others): (Vec<&Value>, _) = cells.iter().partition(|c| c["method"] == "FedMP");
        let fedmp = ours.first().copied().and_then(acc).unwrap_or(0.0);
        let best_other = others.into_iter().filter_map(acc).fold(0.0, f64::max);
        wins += usize::from(fedmp >= best_other);
        let (f, o) = (fedmp * 100.0, best_other * 100.0);
        detail += &format!("{}: FedMP {f:.1}% vs best-other {o:.1}%; ", task_of(task));
    }
    (wins * 2 > total, format!("wins {wins}/{total}: {detail}"))
}

/// FedMP speedup over Syn-FL > 1 per task.
fn fig6(v: &Value) -> (bool, String) {
    every(v, |task| {
        let s = speedup_of(&task["time_to_target"], "FedMP");
        (s.is_some_and(|x| x > 1.0), format!("{}: FedMP speedup {s:?}; ", task_of(task)))
    })
}

/// R2SP ≥ BSP final accuracy (2-point tolerance).
fn fig7(v: &Value) -> (bool, String) {
    every(v, |task| {
        let a = task["r2sp_final"].as_f64().unwrap_or(0.0);
        let b = task["bsp_final"].as_f64().unwrap_or(0.0);
        (a >= b - 0.02, format!("{}: {:.1}% vs {:.1}%; ", task_of(task), a * 100.0, b * 100.0))
    })
}

/// FedMP's speedup at High is at least 0.8 × its speedup at Low:
/// widening, or at least not collapsing.
fn fig8(v: &Value) -> (bool, String) {
    let mut by_task: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
    for row in v.as_array().into_iter().flatten() {
        if let Some(s) = speedup_of(&row["rows"], "FedMP") {
            let level = row["level"].as_str().unwrap_or("?");
            by_task.entry(task_of(row)).or_default().push((level, s));
        }
    }
    let mut ok = !by_task.is_empty();
    let mut detail = String::new();
    for (task, levels) in &by_task {
        let get = |name: &str| levels.iter().find(|(l, _)| *l == name).map(|(_, s)| *s);
        if let (Some(l), Some(h)) = (get("Low"), get("High")) {
            ok &= h >= l * 0.8;
            detail.push_str(&format!("{task}: Low {l:.2}x → High {h:.2}x; "));
        } else {
            ok = false;
        }
    }
    (ok, detail)
}

/// FedMP at least as fast as Syn-FL at every non-IID level.
fn fig9(v: &Value) -> (bool, String) {
    every(v, |row| {
        let label = format!("{} y={}", task_of(row), row["y"].as_u64().unwrap_or(0));
        match speedup_of(&row["rows"], "FedMP") {
            Some(x) if x >= 1.0 => (true, format!("{label}: {x:.2}x; ")),
            other => (false, format!("{label}: {other:?}; ")),
        }
    })
}

/// FedMP faster than Syn-FL at every worker count.
fn fig10(v: &Value) -> (bool, String) {
    every(v, |row| {
        let s = speedup_of(&row["rows"], "FedMP");
        (s.is_some_and(|x| x > 1.0), format!("N={}: {s:?}; ", row["workers"].as_u64().unwrap_or(0)))
    })
}

/// Overhead grows with N and stays < 1 s.
fn fig11(v: &Value) -> (bool, String) {
    let ms = |p: &Value, key: &str| p[key].as_f64().unwrap_or(0.0);
    let totals: Vec<f64> = (v.as_array().into_iter().flatten())
        .map(|p| ms(p, "decision_ms") + ms(p, "pruning_ms"))
        .collect();
    let ok =
        !totals.is_empty() && totals.last() >= totals.first() && totals.iter().all(|&t| t < 1000.0);
    (ok, format!("totals {totals:.1?} ms"))
}

/// Asyn-FedMP reaches the target no later than Asyn-FL.
fn fig12(v: &Value) -> (bool, String) {
    let s = speedup_of(&v["rows"], "Asyn-FedMP");
    (s.is_some_and(|x| x >= 1.0), format!("Asyn-FedMP speedup vs Asyn-FL: {s:?}"))
}

/// FedMP's perplexity in budget no worse than Syn-FL's (UP-FL may trail
/// Syn-FL — the paper's 0.8×).
fn table4(v: &Value) -> (bool, String) {
    let rows = v["rows"].as_array().cloned().unwrap_or_default();
    let ppl =
        |m: &str| rows.iter().find(|r| r["method"] == m).and_then(|r| r["perplexity"].as_f64());
    let (syn, up, fed) = (ppl("Syn-FL"), ppl("UP-FL"), ppl("FedMP"));
    let ok = matches!((syn, fed), (Some(s), Some(f)) if f <= s + 1e-6);
    (ok, format!("Syn-FL {syn:?}, UP-FL {up:?}, FedMP {fed:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn rows(pairs: &[(&str, Option<f64>)]) -> Value {
        Value::Array(pairs.iter().map(|(m, s)| json!({"method": m, "speedup": s})).collect())
    }

    #[test]
    fn fig2_wants_a_peak_off_ratio_zero_and_a_lower_tail() {
        let task = |accs: &[f64]| {
            let series: Vec<Value> = accs.iter().map(|a| json!({"accuracy": a})).collect();
            json!([{"task": "CNN", "series": series}])
        };
        assert!(fig2(&task(&[0.90, 0.95, 0.93, 0.80])).0, "interior peak");
        let (ok, detail) = fig2(&task(&[0.95, 0.90, 0.85, 0.80]));
        assert!(!ok, "peak at ratio 0 means pruning never paid");
        assert_eq!(detail, "CNN: peak at index 0 of 4; ");
        assert!(!fig2(&task(&[0.80, 0.85, 0.90, 0.95])).0, "accuracy must fall at the tail");
        assert!(!fig2(&task(&[])).0, "an empty series is not a pass");
    }

    #[test]
    fn fig7_fails_on_one_losing_task_beyond_the_tolerance() {
        let task = |r2sp: f64, bsp: f64| json!({"task": "T", "r2sp_final": r2sp, "bsp_final": bsp});
        assert!(fig7(&json!([task(1.0, 0.975), task(0.21, 0.145), task(0.49, 0.50)])).0);
        let (ok, detail) = fig7(&json!([task(1.0, 0.975), task(0.137, 0.355)]));
        assert!(!ok);
        assert!(detail.ends_with("T: 13.7% vs 35.5%; "), "{detail}");
    }

    #[test]
    fn table3_needs_fedmp_to_win_a_majority_of_tasks() {
        let task = |fedmp: f64, other: f64| {
            json!({"task": "T", "cells": [
                {"method": "Syn-FL", "accuracy": other},
                {"method": "FedMP", "accuracy": fedmp},
            ]})
        };
        let (win, lose) = (task(0.995, 0.995), task(0.205, 0.475));
        let (ok, detail) = table3(&json!([win, lose, lose, lose]));
        assert!(!ok);
        assert!(detail.starts_with("wins 1/4: T: FedMP 99.5% vs best-other 99.5%; "), "{detail}");
        assert!(!table3(&json!([win, win, lose, lose])).0, "a tie is not a majority");
        assert!(table3(&json!([win, win, win, lose])).0);
    }

    #[test]
    fn a_method_that_never_reaches_the_target_fails_its_speedup_claims() {
        let missed =
            json!({"target": 0.887, "rows": rows(&[("Asyn-FL", Some(1.0)), ("Asyn-FedMP", None)])});
        assert_eq!(fig12(&missed), (false, "Asyn-FedMP speedup vs Asyn-FL: None".to_string()));
        let reached = json!({"rows": rows(&[("Asyn-FL", Some(1.0)), ("Asyn-FedMP", Some(1.2))])});
        assert!(fig12(&reached).0);
        let task = |s| json!({"task": "T", "time_to_target": rows(&[("FedMP", s)])});
        assert!(fig6(&json!([task(Some(1.15))])).0);
        assert!(!fig6(&json!([task(Some(1.15)), task(None)])).0);
        assert!(!fig10(&json!([{"workers": 30, "rows": rows(&[("FedMP", Some(0.95))])}])).0);
    }

    #[test]
    fn fig5_fig8_fig9_and_table4_shapes() {
        let pt = |comp: f64, comm: f64| json!({"comp": comp, "comm": comm});
        assert!(fig5(&json!([pt(16.2, 6.8), pt(8.0, 3.0), pt(1.0, 0.3)])).0);
        assert!(!fig5(&json!([pt(16.2, 6.8), pt(8.0, 7.0)])).0, "comm rose");
        let level =
            |l: &str, s: f64| json!({"task": "T", "level": l, "rows": rows(&[("FedMP", Some(s))])});
        assert!(fig8(&json!([level("Low", 1.0), level("High", 0.85)])).0);
        assert!(!fig8(&json!([level("Low", 1.0), level("High", 0.7)])).0, "collapsed");
        assert!(!fig8(&json!([level("Low", 1.0)])).0, "no High row");
        let y = |y: u32, s: f64| json!({"task": "T", "y": y, "rows": rows(&[("FedMP", Some(s))])});
        assert_eq!(
            fig9(&json!([y(0, 1.13), y(30, 0.5)])),
            (false, "T y=0: 1.13x; T y=30: Some(0.5); ".into())
        );
        let ppl = |fed: f64| {
            json!({"rows": [
                {"method": "Syn-FL", "perplexity": 17.19}, {"method": "FedMP", "perplexity": fed},
            ]})
        };
        assert!(table4(&ppl(16.34)).0 && !table4(&ppl(17.5)).0);
    }

    #[test]
    fn missing_or_unparseable_artifacts_fail_the_run_and_warns_do_not() {
        let dir = std::env::temp_dir().join(format!("fedmp-paper-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        assert_eq!(report(&dir), 1, "every artifact missing");
        for (artifact, ..) in CHECKS {
            // `[]` parses and satisfies no claim but the vacuous ones.
            std::fs::write(dir.join(format!("{artifact}.json")), "[]").expect("write");
        }
        assert_eq!(report(&dir), 0, "WARNs alone exit 0");
        std::fs::write(dir.join("fig7.json"), "[{\"task\": ").expect("write");
        assert!(load(&dir.join("fig7.json")).is_err());
        assert_eq!(report(&dir), 1, "one truncated artifact");
        std::fs::remove_dir_all(&dir).ok();
    }
}
