//! Reading recorded traces: parsing, and diffing two traces to the
//! first diverging event.

use crate::event::TraceEvent;
use crate::manifest::RunManifest;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Errors loading or interpreting a trace file.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The file could not be read.
    Io(String),
    /// A line failed to parse as a manifest or event.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        msg: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
            TraceError::Parse { line, msg } => write!(f, "trace line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A parsed trace: the manifest (when present) plus every event, both
/// typed and as the raw JSONL lines they came from ([`diff`] compares
/// the lines first and reports them on divergence).
#[derive(Debug, Clone)]
pub struct Trace {
    /// The first-line manifest, if the trace has one.
    pub manifest: Option<RunManifest>,
    /// Every event, in emission order.
    pub events: Vec<TraceEvent>,
    /// The raw JSONL line of each event (manifest line excluded),
    /// parallel to `events`.
    pub event_lines: Vec<String>,
}

impl FromStr for Trace {
    type Err = TraceError;

    fn from_str(text: &str) -> Result<Self, TraceError> {
        let mut manifest = None;
        let mut events = Vec::new();
        let mut event_lines = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if i == 0 {
                if let Ok(m) = serde_json::from_str::<RunManifest>(line) {
                    manifest = Some(m);
                    continue;
                }
            }
            let ev = serde_json::from_str::<TraceEvent>(line)
                .map_err(|e| TraceError::Parse { line: i + 1, msg: e.to_string() })?;
            events.push(ev);
            event_lines.push(line.to_string());
        }
        Ok(Trace { manifest, events, event_lines })
    }
}

impl Trace {
    /// Loads and parses a JSONL trace file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path).map_err(|e| TraceError::Io(e.to_string()))?;
        text.parse()
    }
}

/// The first point at which two traces' event streams disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based event index (manifest excluded).
    pub index: usize,
    /// The left trace's raw line, or `"<end of trace>"`.
    pub a: String,
    /// The right trace's raw line, or `"<end of trace>"`.
    pub b: String,
}

/// Result of [`diff`]: the first event divergence (if any) plus
/// informational manifest differences. Manifest fields — notably
/// `threads` — are *expected* to differ between runs that should
/// produce identical events, so they never count as divergence.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// First diverging event, `None` when the event streams are
    /// identical.
    pub divergence: Option<Divergence>,
    /// Human-readable notes on manifest fields that differ.
    pub manifest_notes: Vec<String>,
    /// Event count of the left trace.
    pub len_a: usize,
    /// Event count of the right trace.
    pub len_b: usize,
}

impl TraceDiff {
    /// Whether the event streams diverge.
    pub fn is_divergent(&self) -> bool {
        self.divergence.is_some()
    }
}

/// Compares two traces event-by-event, in order, and reports the first
/// index where they disagree; a trace that is a strict prefix of the
/// other diverges at the shorter length. Two lines agree when their raw
/// text is equal or they parse to the same event under the current
/// schema — so a trace recorded before a field was retired (its key is
/// ignored on load) still diffs clean against one recorded after.
pub fn diff(a: &Trace, b: &Trace) -> TraceDiff {
    let mut manifest_notes = Vec::new();
    match (&a.manifest, &b.manifest) {
        (Some(ma), Some(mb)) => {
            for ((name, va), (_, vb)) in ma.field_strings().iter().zip(mb.field_strings()) {
                if *va != vb {
                    manifest_notes.push(format!("manifest.{name}: {va} vs {vb}"));
                }
            }
        }
        (Some(_), None) => manifest_notes.push("right trace has no manifest".into()),
        (None, Some(_)) => manifest_notes.push("left trace has no manifest".into()),
        (None, None) => {}
    }

    let end = "<end of trace>".to_string();
    let n = a.event_lines.len().max(b.event_lines.len());
    let mut divergence = None;
    for i in 0..n {
        let la = a.event_lines.get(i);
        let lb = b.event_lines.get(i);
        if la != lb && a.events.get(i) != b.events.get(i) {
            divergence = Some(Divergence {
                index: i,
                a: la.cloned().unwrap_or_else(|| end.clone()),
                b: lb.cloned().unwrap_or_else(|| end.clone()),
            });
            break;
        }
    }
    TraceDiff { divergence, manifest_notes, len_a: a.event_lines.len(), len_b: b.event_lines.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_end(round: usize, rt: f64, comp: f64, comm: f64) -> String {
        serde_json::to_string(&TraceEvent::RoundEnd {
            round,
            sim_time: rt * (round + 1) as f64,
            round_time: rt,
            mean_comp: comp,
            mean_comm: comm,
            train_loss: Some(1.0),
            eval_loss: None,
            eval_metric: None,
        })
        .unwrap()
    }

    fn trace_of(lines: &[String], manifest: Option<&RunManifest>) -> Trace {
        let mut text = String::new();
        if let Some(m) = manifest {
            text.push_str(&serde_json::to_string(m).unwrap());
            text.push('\n');
        }
        for l in lines {
            text.push_str(l);
            text.push('\n');
        }
        text.parse().unwrap()
    }

    #[test]
    fn diff_finds_first_divergence_and_prefixes() {
        let m = RunManifest::new("t", 0, 2, 3, 1);
        let base: Vec<String> = (0..3).map(|r| round_end(r, 1.0, 0.5, 0.25)).collect();
        let mut changed = base.clone();
        changed[1] = round_end(1, 2.0, 0.5, 0.25);

        let same = diff(&trace_of(&base, Some(&m)), &trace_of(&base, Some(&m)));
        assert!(!same.is_divergent());
        assert!(same.manifest_notes.is_empty());

        let d = diff(&trace_of(&base, Some(&m)), &trace_of(&changed, Some(&m)));
        assert_eq!(d.divergence.as_ref().unwrap().index, 1);

        let short = diff(&trace_of(&base[..2], Some(&m)), &trace_of(&base, Some(&m)));
        let div = short.divergence.unwrap();
        assert_eq!(div.index, 2);
        assert_eq!(div.a, "<end of trace>");
    }

    #[test]
    fn retired_keys_load_and_do_not_diverge() {
        // A line recorded before the `*_pruned` path counters were
        // retired (parent of that change, `trace record --seed 3`).
        let legacy = r#"{"KernelDispatch":{"round":0,"dispatches":2004,"bands":4958,"gemm_simd_dense":1848,"gemm_scalar_dense":0,"gemm_simd_pruned":0,"gemm_scalar_pruned":0}}"#;
        let today = |gemm_simd_dense| {
            let ev = TraceEvent::KernelDispatch {
                round: 0,
                dispatches: 2004,
                bands: 4958,
                gemm_simd_dense,
                gemm_scalar_dense: 0,
            };
            trace_of(&[serde_json::to_string(&ev).unwrap()], None)
        };
        let old = trace_of(&[legacy.to_string()], None);
        assert_eq!(old.events, today(1848).events);
        assert_ne!(old.event_lines, today(1848).event_lines);
        assert!(!diff(&old, &today(1848)).is_divergent());

        // A value that differs still diverges, and is reported raw.
        let div = diff(&old, &today(1849)).divergence.expect("counter moved");
        assert_eq!((div.index, div.a.as_str()), (0, legacy));
    }

    #[test]
    fn thread_count_difference_is_a_note_not_a_divergence() {
        let m1 = RunManifest::new("t", 0, 2, 1, 1);
        let m4 = RunManifest::new("t", 0, 2, 1, 4);
        let lines = vec![round_end(0, 1.0, 0.5, 0.25)];
        let d = diff(&trace_of(&lines, Some(&m1)), &trace_of(&lines, Some(&m4)));
        assert!(!d.is_divergent());
        assert_eq!(d.manifest_notes, vec!["manifest.threads: 1 vs 4".to_string()]);
    }

    #[test]
    fn bad_lines_report_their_line_number() {
        let err = "{\"RoundStart\":{}}\nnot json\n".parse::<Trace>().unwrap_err();
        match err {
            TraceError::Parse { line, .. } => assert_eq!(line, 1), // RoundStart missing fields
            other => panic!("unexpected {other:?}"),
        }
    }
}
