//! `benchmark compare A.json B.json`: is B worse than A, metric by
//! metric, by the bounds the benchmark fixed?

use serde_json::Value;

use crate::metrics::{per_layer, Better, Bound, END_TO_END, EXACT_LAYER_PREFIXES};
use crate::stats::Summary;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The parent's own runs spread wider than the bound and the two
    /// sets of runs overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a`'s median
/// (negative when better).
fn worsening(a: &Summary, b: &Summary, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    delta / a.median.abs()
}

/// Judges parent `a` against change `b`. `None` on a side means the
/// metric was not defined or not reached there.
pub fn judge(
    a: Option<&Summary>,
    b: Option<&Summary>,
    better: Better,
    bound: Bound,
) -> Option<Verdict> {
    let (a, b) = match (a, b) {
        (None, None) => return None,
        // A target that was reached and no longer is, is worse.
        (Some(_), None) => return Some(Verdict::Worse),
        (None, Some(_)) => return Some(Verdict::Better),
        (Some(a), Some(b)) => (a, b),
    };
    let bound = match bound {
        Bound::Exact => {
            return Some(if a.median == b.median {
                Verdict::Same
            } else if worsening(a, b, better) > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Better
            })
        }
        Bound::Share(s) => s,
    };
    let w = worsening(a, b, better);
    if a.spread() > bound {
        let (b_all_better, b_all_worse) = match better {
            Better::Lower => (b.max < a.min, b.min > a.max),
            Better::Higher => (b.min > a.max, b.max < a.min),
        };
        return Some(if b_all_better {
            Verdict::Better
        } else if b_all_worse && w > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        });
    }
    Some(if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    })
}

fn fmt_summary(s: Option<&Summary>) -> String {
    s.map_or("null".to_string(), |s| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3))
}

fn row(
    workload: &str,
    name: &str,
    unit: &str,
    a: Option<&Summary>,
    b: Option<&Summary>,
    verdict: &str,
) {
    let ratio = match (a, b) {
        (Some(a), Some(b)) if a.median != 0.0 => format!("{:.4}x of A", b.median / a.median),
        _ => "-".to_string(),
    };
    println!(
        "{workload:<16} {name:<42} {unit:<6} A {:<38} B {:<38} {ratio:<14} {verdict}",
        fmt_summary(a),
        fmt_summary(b)
    );
}

/// Prints one row per (workload, metric) both files carry and returns
/// how many were `worse`.
pub fn compare(a: &Value, b: &Value) -> Result<usize, String> {
    for (label, doc) in [("A", a), ("B", b)] {
        if doc.get("workloads").and_then(Value::as_object).is_none() {
            return Err(format!(
                "{label} is not a benchmark result file (no \"workloads\" object)"
            ));
        }
    }
    println!("ratio = B median / A median (base A); [q1, q3] after each median");
    let mut worse = 0;
    for w in Workload::ALL {
        let (wa, wb) = (&a["workloads"][w.name()], &b["workloads"][w.name()]);
        if wa.is_null() || wb.is_null() {
            continue;
        }
        for def in &END_TO_END {
            let sa = Summary::from_json(&wa["end_to_end"][def.name]);
            let sb = Summary::from_json(&wb["end_to_end"][def.name]);
            if let Some(v) = judge(sa.as_ref(), sb.as_ref(), def.better, def.bound) {
                worse += usize::from(v == Verdict::Worse);
                row(w.name(), def.name, def.unit, sa.as_ref(), sb.as_ref(), v.as_str());
            }
        }
        // Per-layer metrics carry no bound: exact counts are compared
        // with ==, timings are shown for reading only.
        for (name, unit, better) in per_layer() {
            let value = |doc: &Value| {
                doc["per_layer"][name.as_str()]["value"].as_f64().map(Summary::single)
            };
            let (sa, sb) = (value(wa), value(wb));
            if sa.is_none() && sb.is_none() {
                continue;
            }
            let verdict = if EXACT_LAYER_PREFIXES.iter().any(|p| name.starts_with(p)) {
                let v = judge(sa.as_ref(), sb.as_ref(), better, Bound::Exact)
                    .expect("one side is present");
                worse += usize::from(v == Verdict::Worse);
                v.as_str()
            } else {
                "(no bound)"
            };
            row(w.name(), &name, unit, sa.as_ref(), sb.as_ref(), verdict);
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary {
            n: 5,
            min: median * 0.99,
            q1: median * 0.995,
            median,
            q3: median * 1.005,
            max: median * 1.01,
        }
    }

    #[test]
    fn verdicts_at_inside_and_outside_a_bound() {
        // 0.25 and the medians below are exact in binary, so "at the
        // bound" really is at the bound.
        let a = tight(1.0);
        let bound = Bound::Share(0.25);
        let lower = |b: f64| judge(Some(&a), Some(&tight(b)), Better::Lower, bound).unwrap();
        assert_eq!(lower(1.125), Verdict::Same);
        assert_eq!(lower(1.25), Verdict::Same, "exactly at the bound is not a regression");
        assert_eq!(lower(1.2501), Verdict::Worse);
        assert_eq!(lower(0.75), Verdict::Same);
        assert_eq!(lower(0.7), Verdict::Better);
        // Direction flips for throughput metrics.
        let higher = |b: f64| judge(Some(&a), Some(&tight(b)), Better::Higher, bound).unwrap();
        assert_eq!(higher(0.7), Verdict::Worse);
        assert_eq!(higher(0.75), Verdict::Same);
        assert_eq!(higher(1.5), Verdict::Better);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_runs_separate() {
        // Parent IQR is 30 % of its median: wider than the 10 % bound.
        let a = Summary { n: 5, min: 0.8, q1: 0.85, median: 1.0, q3: 1.15, max: 1.2 };
        let b = |lo: f64, hi: f64| Summary {
            n: 5,
            min: lo,
            q1: lo,
            median: (lo + hi) / 2.0,
            q3: hi,
            max: hi,
        };
        let v = |b: &Summary| judge(Some(&a), Some(b), Better::Lower, Bound::Share(0.10)).unwrap();
        assert_eq!(v(&b(1.1, 1.5)), Verdict::Unresolved, "median 30 % worse but the runs overlap");
        assert_eq!(v(&b(1.3, 1.5)), Verdict::Worse, "every run of B is slower than every run of A");
        assert_eq!(
            v(&b(0.5, 0.7)),
            Verdict::Better,
            "every run of B is faster than every run of A"
        );
        assert_eq!(v(&b(0.7, 0.9)), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_compare_with_equality_and_null_means_not_reached() {
        let (nine, eleven) = (Summary::single(9.0), Summary::single(11.0));
        let v = |a, b| judge(a, b, Better::Lower, Bound::Exact);
        assert_eq!(v(Some(&nine), Some(&nine)), Some(Verdict::Same));
        assert_eq!(v(Some(&nine), Some(&eleven)), Some(Verdict::Worse));
        assert_eq!(v(Some(&eleven), Some(&nine)), Some(Verdict::Better));
        assert_eq!(v(Some(&nine), None), Some(Verdict::Worse));
        assert_eq!(v(None, Some(&nine)), Some(Verdict::Better));
        assert_eq!(v(None, None), None);
        let zero = Summary::single(0.0);
        assert_eq!(v(Some(&zero), Some(&zero)), Some(Verdict::Same));
    }

    #[test]
    fn compare_counts_worse_rows_and_rejects_foreign_files() {
        let file = |wall: f64, gemm: f64| {
            serde_json::json!({"workloads": {"flat_loop": {
                "end_to_end": {"round_wall_s": tight(wall).to_json("s"), "rounds_to_target": Value::Null},
                "per_layer": {
                    "tensor.gemm_calls_simd_dense": {"value": gemm, "unit": "count"},
                    "nn.forward_ms.dense": {"value": wall, "unit": "ms"},
                },
            }}})
        };
        assert_eq!(compare(&file(1.0, 100.0), &file(1.0, 100.0)), Ok(0));
        assert_eq!(
            compare(&file(1.0, 100.0), &file(1.5, 100.0)),
            Ok(1),
            "wall regressed; layer timing has no bound"
        );
        assert_eq!(compare(&file(1.0, 100.0), &file(1.0, 101.0)), Ok(1), "an exact count moved");
        assert!(compare(&serde_json::json!({"x": 1}), &file(1.0, 1.0)).is_err());
    }
}
