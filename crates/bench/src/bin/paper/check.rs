//! `paper check`: digests `bench-results/*.json` into a paper-shape
//! report — one line per table/figure stating whether the claim under
//! reproduction holds in the measured data. Each claim parses its
//! artifact as the type its experiment returns. WARN is a finding about
//! the reproduction, not a failure of the tool: only an artifact that is
//! missing, does not parse or does not match its type makes the exit
//! code non-zero (gating the WARNs is ROADMAP item 1(d)).

use crate::experiments::{
    Fig10Fleet, Fig11Point, Fig12, Fig2Task, Fig4Task, Fig5Point, Fig6Task, Fig7Task, Fig8Level,
    Fig9Level, MethodAccuracy, Table3Task, Table4,
};
use crate::EXPERIMENTS;
use fedmp_bench::{Harness, TimeToTarget};
use serde::Deserialize;
use serde_json::Error;
use std::collections::BTreeMap;
use std::path::Path;

/// A claim's outcome on one artifact: does it hold, and the detail line
/// a WARN prints.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    pub holds: bool,
    pub detail: String,
}

/// A claim about every entry of an artifact: holds if each entry holds
/// (vacuously for none); the details concatenate.
impl FromIterator<Verdict> for Verdict {
    fn from_iter<I: IntoIterator<Item = Verdict>>(entries: I) -> Self {
        let all = Verdict { holds: true, detail: String::new() };
        entries.into_iter().fold(all, |all, entry| Verdict {
            holds: all.holds & entry.holds,
            detail: all.detail + &entry.detail,
        })
    }
}

/// Parses an artifact's text as its claim's type and judges it.
pub type Judge = fn(&str) -> Result<Verdict, Error>;

/// Parses `body` as exactly the type `run` returns, so the writer and
/// the reader of an artifact cannot drift apart.
pub fn parse<T: Deserialize>(body: &str, _run: fn(&mut Harness) -> T) -> Result<T, Error> {
    serde_json::from_str(body)
}

/// Prints the report over the artifacts in `dir`; returns the process
/// exit code (1 when any artifact is unreadable).
pub fn report(dir: &Path) -> i32 {
    println!("\n=== paper-shape report ===");
    let claims: Vec<_> = EXPERIMENTS.iter().filter_map(|e| Some((e.id, e.claim?))).collect();
    let (mut pass, mut unreadable) = (0usize, 0usize);
    for &(id, (name, claim, judge)) in &claims {
        let path = dir.join(format!("{id}.json"));
        let verdict = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|body| judge(&body).map_err(|e| e.to_string()));
        let (tag, detail) = match verdict {
            Ok(Verdict { holds: true, .. }) => ("PASS", None),
            Ok(Verdict { detail, .. }) => ("WARN", Some(detail)),
            Err(why) => ("MISSING", Some(format!("{}: {why} — run `paper all`", path.display()))),
        };
        pass += usize::from(tag == "PASS");
        unreadable += usize::from(tag == "MISSING");
        println!("[{tag:>7}] {name:<10} {claim}");
        if let Some(detail) = detail {
            println!("          {detail}");
        }
    }
    println!("\n{pass}/{} shape claims hold in the measured data.", claims.len());
    i32::from(unreadable > 0)
}

fn speedup(rows: &[TimeToTarget], method: &str) -> Option<f64> {
    rows.iter().find(|r| r.method == method)?.speedup
}

/// Interior peak of accuracy vs fixed ratio.
pub fn fig2(tasks: &[Fig2Task]) -> Verdict {
    tasks
        .iter()
        .map(|task| {
            let accs: Vec<f64> = task.series.iter().map(|p| f64::from(p.accuracy)).collect();
            let Some((peak, _)) = accs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) else {
                return Verdict { holds: false, detail: String::new() };
            };
            let interior_peak = peak > 0 && peak + 1 < accs.len();
            let tail_below_peak = accs[accs.len() - 1] < accs[peak] - 1e-6;
            let holds = (interior_peak || accs[peak] > accs[0]) && tail_below_peak;
            Verdict {
                holds,
                detail: format!("{}: peak at index {peak} of {}; ", task.task, accs.len()),
            }
        })
        .collect()
}

/// θ ≤ 0.05 ≈ flat; θ = 0.25 clearly worse. Grids are sorted by θ:
/// compare the smallest-θ point to the largest-θ point.
pub fn fig4(tasks: &[Fig4Task]) -> Verdict {
    tasks
        .iter()
        .map(|task| {
            let (&[theta_small, .., theta_large], &[small, .., large]) =
                (&task.thetas[..], &task.normalised_times[..])
            else {
                return Verdict { holds: false, detail: String::new() };
            };
            let detail = format!(
                "{}: θ={theta_small} → {small:.2}, θ={theta_large} → {large:.2}; ",
                task.task
            );
            Verdict { holds: large >= small, detail }
        })
        .collect()
}

/// Monotone decrease of comp and comm.
pub fn fig5(points: &[Fig5Point]) -> Verdict {
    let falls =
        |time: fn(&Fig5Point) -> f64| points.windows(2).all(|w| time(&w[1]) <= time(&w[0]) + 1e-9);
    let holds = falls(|p| p.comp) && falls(|p| p.comm);
    Verdict { holds, detail: format!("{} sweep points", points.len()) }
}

/// FedMP wins accuracy-within-budget on most tasks.
pub fn table3(tasks: &[Table3Task]) -> Verdict {
    let mut wins = 0usize;
    let mut detail = String::new();
    for task in tasks {
        let acc = |c: &MethodAccuracy| f64::from(c.accuracy);
        let (ours, others): (Vec<_>, Vec<_>) = task.cells.iter().partition(|c| c.method == "FedMP");
        let fedmp = ours.first().map_or(0.0, |c| acc(c));
        let best_other = others.into_iter().map(acc).fold(0.0, f64::max);
        wins += usize::from(fedmp >= best_other);
        let (f, o) = (fedmp * 100.0, best_other * 100.0);
        detail += &format!("{}: FedMP {f:.1}% vs best-other {o:.1}%; ", task.task);
    }
    Verdict {
        holds: wins * 2 > tasks.len(),
        detail: format!("wins {wins}/{}: {detail}", tasks.len()),
    }
}

/// FedMP speedup over Syn-FL > 1 per task.
pub fn fig6(tasks: &[Fig6Task]) -> Verdict {
    tasks
        .iter()
        .map(|task| {
            let s = speedup(&task.time_to_target, "FedMP");
            Verdict {
                holds: s.is_some_and(|x| x > 1.0),
                detail: format!("{}: FedMP speedup {s:?}; ", task.task),
            }
        })
        .collect()
}

/// R2SP ≥ BSP final accuracy (2-point tolerance).
pub fn fig7(tasks: &[Fig7Task]) -> Verdict {
    tasks
        .iter()
        .map(|task| {
            let (a, b) = (f64::from(task.r2sp_final), f64::from(task.bsp_final));
            let detail = format!("{}: {:.1}% vs {:.1}%; ", task.task, a * 100.0, b * 100.0);
            Verdict { holds: a >= b - 0.02, detail }
        })
        .collect()
}

/// FedMP's speedup at High is at least 0.8 × its speedup at Low:
/// widening, or at least not collapsing.
pub fn fig8(levels: &[Fig8Level]) -> Verdict {
    let mut by_task: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
    for row in levels {
        if let Some(s) = speedup(&row.rows, "FedMP") {
            by_task.entry(&row.task).or_default().push((&row.level, s));
        }
    }
    let mut holds = !by_task.is_empty();
    let mut detail = String::new();
    for (task, levels) in &by_task {
        let get = |name: &str| levels.iter().find(|(l, _)| *l == name).map(|(_, s)| *s);
        if let (Some(l), Some(h)) = (get("Low"), get("High")) {
            holds &= h >= l * 0.8;
            detail.push_str(&format!("{task}: Low {l:.2}x → High {h:.2}x; "));
        } else {
            holds = false;
        }
    }
    Verdict { holds, detail }
}

/// FedMP at least as fast as Syn-FL at every non-IID level.
pub fn fig9(levels: &[Fig9Level]) -> Verdict {
    levels
        .iter()
        .map(|row| {
            let label = format!("{} y={}", row.task, row.y);
            match speedup(&row.rows, "FedMP") {
                Some(x) if x >= 1.0 => {
                    Verdict { holds: true, detail: format!("{label}: {x:.2}x; ") }
                }
                other => Verdict { holds: false, detail: format!("{label}: {other:?}; ") },
            }
        })
        .collect()
}

/// FedMP faster than Syn-FL at every worker count.
pub fn fig10(fleets: &[Fig10Fleet]) -> Verdict {
    fleets
        .iter()
        .map(|row| {
            let s = speedup(&row.rows, "FedMP");
            Verdict {
                holds: s.is_some_and(|x| x > 1.0),
                detail: format!("N={}: {s:?}; ", row.workers),
            }
        })
        .collect()
}

/// Overhead grows with N and stays < 1 s.
pub fn fig11(points: &[Fig11Point]) -> Verdict {
    let totals: Vec<f64> = points.iter().map(|p| p.decision_ms + p.pruning_ms).collect();
    let holds =
        !totals.is_empty() && totals.last() >= totals.first() && totals.iter().all(|&t| t < 1000.0);
    Verdict { holds, detail: format!("totals {totals:.1?} ms") }
}

/// Asyn-FedMP reaches the target no later than Asyn-FL.
pub fn fig12(artifact: &Fig12) -> Verdict {
    let s = speedup(&artifact.rows, "Asyn-FedMP");
    Verdict {
        holds: s.is_some_and(|x| x >= 1.0),
        detail: format!("Asyn-FedMP speedup vs Asyn-FL: {s:?}"),
    }
}

/// FedMP's perplexity in budget no worse than Syn-FL's (UP-FL may trail
/// Syn-FL — the paper's 0.8×).
pub fn table4(artifact: &Table4) -> Verdict {
    let ppl = |m: &str| artifact.rows.iter().find(|r| r.method == m)?.perplexity.map(f64::from);
    let (syn, up, fed) = (ppl("Syn-FL"), ppl("UP-FL"), ppl("FedMP"));
    let holds = matches!((syn, fed), (Some(s), Some(f)) if f <= s + 1e-6);
    Verdict { holds, detail: format!("Syn-FL {syn:?}, UP-FL {up:?}, FedMP {fed:?}") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{RatioAccuracy, Table4Row};
    use serde::Serialize;

    fn rows(pairs: &[(&str, Option<f64>)]) -> Vec<TimeToTarget> {
        let row = |&(method, speedup): &(&str, _)| TimeToTarget {
            method: method.into(),
            time: None,
            speedup,
        };
        pairs.iter().map(row).collect()
    }

    fn warn(detail: &str) -> Verdict {
        Verdict { holds: false, detail: detail.into() }
    }

    #[test]
    fn fig2_wants_a_peak_off_ratio_zero_and_a_lower_tail() {
        let task = |accs: &[f32]| {
            let series = accs.iter().map(|&accuracy| RatioAccuracy { ratio: 0.0, accuracy });
            [Fig2Task { task: "CNN".into(), budget: 0.0, series: series.collect() }]
        };
        assert!(fig2(&task(&[0.90, 0.95, 0.93, 0.80])).holds, "interior peak");
        let verdict = fig2(&task(&[0.95, 0.90, 0.85, 0.80]));
        assert_eq!(
            verdict,
            warn("CNN: peak at index 0 of 4; "),
            "peak at ratio 0: pruning never paid"
        );
        assert!(!fig2(&task(&[0.80, 0.85, 0.90, 0.95])).holds, "accuracy must fall at the tail");
        assert!(!fig2(&task(&[])).holds, "an empty series is not a pass");
    }

    #[test]
    fn fig7_fails_on_one_losing_task_beyond_the_tolerance() {
        let task = |r2sp_final, bsp_final| Fig7Task {
            task: "T".into(),
            r2sp_curve: Vec::new(),
            bsp_curve: Vec::new(),
            r2sp_final,
            bsp_final,
        };
        assert!(fig7(&[task(1.0, 0.975), task(0.21, 0.145), task(0.49, 0.50)]).holds);
        let verdict = fig7(&[task(1.0, 0.975), task(0.137, 0.355)]);
        assert!(!verdict.holds);
        assert!(verdict.detail.ends_with("T: 13.7% vs 35.5%; "), "{}", verdict.detail);
    }

    #[test]
    fn table3_needs_fedmp_to_win_a_majority_of_tasks() {
        let task = |fedmp, other| {
            let cell = |method: &str, accuracy| MethodAccuracy { method: method.into(), accuracy };
            let cells = vec![cell("Syn-FL", other), cell("FedMP", fedmp)];
            Table3Task { task: "T".into(), budget: 0.0, cells }
        };
        let (win, lose) = (|| task(0.995, 0.995), || task(0.205, 0.475));
        let verdict = table3(&[win(), lose(), lose(), lose()]);
        assert!(!verdict.holds);
        let detail = verdict.detail;
        assert!(detail.starts_with("wins 1/4: T: FedMP 99.5% vs best-other 99.5%; "), "{detail}");
        assert!(!table3(&[win(), win(), lose(), lose()]).holds, "a tie is not a majority");
        assert!(table3(&[win(), win(), win(), lose()]).holds);
    }

    #[test]
    fn a_method_that_never_reaches_the_target_fails_its_speedup_claims() {
        let asyn = |speedup| Fig12 {
            target: 0.887,
            rows: rows(&[("Asyn-FL", Some(1.0)), ("Asyn-FedMP", speedup)]),
        };
        assert_eq!(fig12(&asyn(None)), warn("Asyn-FedMP speedup vs Asyn-FL: None"));
        assert!(fig12(&asyn(Some(1.2))).holds);
        let task = |s| Fig6Task {
            task: "T".into(),
            target: 0.0,
            curves: Vec::new(),
            time_to_target: rows(&[("FedMP", s)]),
        };
        assert!(fig6(&[task(Some(1.15))]).holds);
        assert!(!fig6(&[task(Some(1.15)), task(None)]).holds);
        let fleet = Fig10Fleet { workers: 30, target: 0.0, rows: rows(&[("FedMP", Some(0.95))]) };
        assert!(!fig10(&[fleet]).holds);
    }

    #[test]
    fn fig5_fig8_fig9_and_table4_shapes() {
        let pt = |comp, comm| Fig5Point { ratio: 0.0, comp, comm };
        assert!(fig5(&[pt(16.2, 6.8), pt(8.0, 3.0), pt(1.0, 0.3)]).holds);
        assert!(!fig5(&[pt(16.2, 6.8), pt(8.0, 7.0)]).holds, "comm rose");
        let level = |l: &str, s| Fig8Level {
            task: "T".into(),
            level: l.into(),
            target: 0.0,
            rows: rows(&[("FedMP", Some(s))]),
        };
        assert!(fig8(&[level("Low", 1.0), level("High", 0.85)]).holds);
        assert!(!fig8(&[level("Low", 1.0), level("High", 0.7)]).holds, "collapsed");
        assert!(!fig8(&[level("Low", 1.0)]).holds, "no High row");
        let y = |y, s| Fig9Level {
            task: "T".into(),
            y,
            target: 0.0,
            rows: rows(&[("FedMP", Some(s))]),
        };
        assert_eq!(fig9(&[y(0, 1.13), y(30, 0.5)]), warn("T y=0: 1.13x; T y=30: Some(0.5); "));
        let ppl = |fed| {
            let row = |method: &str, p| Table4Row {
                method: method.into(),
                perplexity: Some(p),
                speedup: None,
            };
            Table4 { budget: 0.0, target: 0.0, rows: vec![row("Syn-FL", 17.19), row("FedMP", fed)] }
        };
        assert!(table4(&ppl(16.34)).holds && !table4(&ppl(17.5)).holds);
    }

    #[test]
    fn missing_or_unparseable_artifacts_fail_the_run_and_warns_do_not() {
        let dir = std::env::temp_dir().join(format!("fedmp-paper-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        assert_eq!(report(&dir), 1, "every artifact missing");
        let save = |id: &str, artifact: &dyn Serialize| {
            let body = serde_json::to_string(artifact).expect("artifact serialises");
            std::fs::write(dir.join(format!("{id}.json")), body).expect("write");
        };
        // One schema-valid artifact per claim that satisfies no claim.
        let flat = Fig5Point { ratio: 0.0, comp: 1.0, comm: 1.0 };
        save("fig2", &vec![Fig2Task { task: "T".into(), budget: 0.0, series: Vec::new() }]);
        save(
            "fig4",
            &vec![Fig4Task {
                task: "T".into(),
                target: 0.0,
                thetas: Vec::new(),
                normalised_times: Vec::new(),
            }],
        );
        save("fig5", &vec![Fig5Point { comp: 0.5, ..flat }, flat]);
        save("table3", &Vec::<Table3Task>::new());
        save(
            "fig6",
            &vec![Fig6Task {
                task: "T".into(),
                target: 0.0,
                curves: Vec::new(),
                time_to_target: Vec::new(),
            }],
        );
        save(
            "fig7",
            &vec![Fig7Task {
                task: "T".into(),
                r2sp_curve: Vec::new(),
                bsp_curve: Vec::new(),
                r2sp_final: 0.0,
                bsp_final: 1.0,
            }],
        );
        save("fig8", &Vec::<Fig8Level>::new());
        save("fig9", &vec![Fig9Level { task: "T".into(), y: 0, target: 0.0, rows: Vec::new() }]);
        save("fig10", &vec![Fig10Fleet { workers: 1, target: 0.0, rows: Vec::new() }]);
        save("fig11", &Vec::<Fig11Point>::new());
        save("fig12", &Fig12 { target: 0.0, rows: Vec::new() });
        save("table4", &Table4 { budget: 0.0, target: 0.0, rows: Vec::new() });
        for (id, (.., judge)) in EXPERIMENTS.iter().filter_map(|e| Some((e.id, e.claim?))) {
            let body = std::fs::read_to_string(dir.join(format!("{id}.json"))).expect("saved");
            assert!(!judge(&body).expect("schema-valid").holds, "{id} must WARN");
        }
        assert_eq!(report(&dir), 0, "WARNs alone exit 0");
        std::fs::write(dir.join("fig7.json"), "[{\"task\": ").expect("write");
        assert_eq!(report(&dir), 1, "one truncated artifact");
        std::fs::remove_dir_all(&dir).ok();
    }
}
