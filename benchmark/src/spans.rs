//! The harness-owned span recorder of the traced run.
//!
//! Spans are recorded around calls into each layer's public functions —
//! from this crate only; no product file gains a span (ROADMAP item 4
//! is a later issue). They stay in memory until the traced run ends and
//! are written out after the last one closes.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde_json::json;

/// One closed span. `parent` is the span that was open when this one
/// started; spans of one shadow round share its `repeat`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub repeat: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory recorder for one single-threaded harness.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Stamped on every span opened from now on.
    pub repeat: usize,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), repeat: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under whichever
    /// span is currently open. `f` gets the recorder back to open
    /// children of its own.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            repeat: self.repeat,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Total duration (s) of the spans called `name` within `repeat`.
    pub fn total_s_in(&self, repeat: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.repeat == repeat && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Writes one JSON object per span. Call only once every span has
    /// closed.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "span file written while a span is still open");
        let selfs = self_times_ns(&self.spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let line = json!({
                "workload": workload, "repeat": s.repeat, "id": s.id, "parent": s.parent,
                "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns, "self_ns": self_ns,
            });
            writeln!(w, "{}", serde_json::to_string(&line).expect("span serialises"))?;
        }
        w.flush()
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover. The harness is one thread, so siblings
/// never overlap and the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let covered = s.end_ns.min(spans[p].end_ns) - s.start_ns.max(spans[p].start_ns);
            selfs[p] = selfs[p].saturating_sub(covered);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, repeat: 0, name: format!("s{id}"), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // round [0,100) > worker [10,90) > {extract [10,30), train [30,80)}; eval [90,100).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 90),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 30, 80),
            span(4, Some(0), 90, 100),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 10, 20, 50, 10]);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new();
        rec.repeat = 3;
        let v = rec.span("round", |r| {
            r.span("worker", |r| r.span("pruning.extract", |_| 7));
            r.span("worker", |_| ());
            42
        });
        assert_eq!(v, 42);
        let s = rec.spans();
        let shape: Vec<(&str, Option<usize>)> =
            s.iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("round", None),
                ("worker", Some(0)),
                ("pruning.extract", Some(1)),
                ("worker", Some(0))
            ]
        );
        assert!(s.iter().all(|s| s.repeat == 3 && s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[3].end_ns && s[1].end_ns <= s[3].start_ns);
        assert_eq!(rec.durations_ms("worker").len(), 2);
    }
}
