//! Order statistics over the timed repeats of one metric.

use serde_json::{json, Value};

/// Median, quartiles, extremes and sample count of one metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: quantile(&v, 1),
            median: quantile(&v, 2),
            q3: quantile(&v, 3),
            max: v[v.len() - 1],
        })
    }

    /// A metric measured once (exact counts, deterministic values).
    pub fn single(value: f64) -> Summary {
        Summary { n: 1, min: value, q1: value, median: value, q3: value, max: value }
    }

    /// Inter-quartile distance as a share of the median — the spread the
    /// benchmark's bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Value {
        json!({
            "unit": unit, "n": self.n, "min": self.min, "q1": self.q1,
            "median": self.median, "q3": self.q3, "max": self.max,
        })
    }

    /// Inverse of [`Summary::to_json`]; `None` for `null` or malformed rows.
    pub fn from_json(v: &Value) -> Option<Summary> {
        Some(Summary {
            n: v.get("n")?.as_u64()? as usize,
            min: v.get("min")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            median: v.get("median")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
        })
    }
}

/// The `k`-th quartile cut of sorted data, by the rule of Python's
/// `statistics.quantiles(data, n=4)` (exclusive method) so the numbers
/// match what the PR driver computes from the same samples.
fn quantile(sorted: &[f64], k: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (k * m / 4).clamp(1, len - 1);
    let delta = (k * m) as f64 - (j * 4) as f64;
    // `+ 0.0` turns the -0.0 an all-zero sample interpolates to into 0.0.
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0 + 0.0
}

/// Median of `values` (0 when empty) — the per-layer reduction.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max), (1.0, 1.0, 2.0, 3.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample_and_empty() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!(s, Summary::single(4.0));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median_and_json_round_trips() {
        let s = Summary::of(&[10.0, 11.0, 12.0, 13.0, 14.0]).unwrap();
        assert_eq!(s.median, 12.0);
        assert!((s.spread() - 3.0 / 12.0).abs() < 1e-12);
        assert_eq!(Summary::from_json(&s.to_json("s")), Some(s));
        assert_eq!(Summary::from_json(&Value::Null), None);
    }
}
