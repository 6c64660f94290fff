//! In-memory span recorder for the traced run.
//!
//! Spans carry a name, start, end, parent and run id; counts are
//! attached to the span of the call they describe. Nothing is written
//! until the run ends, when [`Tracer::chrome_json`] renders the Chrome
//! trace-event format (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`topology.generate`, `section5`, ...).
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Counts recorded at this span's call boundary.
    pub counts: BTreeMap<String, f64>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose spans all carry `run` as their run id.
    pub fn new(run: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let start = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            counts: BTreeMap::new(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Attaches a count to the most recently opened span: the call the
    /// count describes has just returned inside it.
    pub fn count(&mut self, name: &str, value: f64) {
        if let Some(span) = self.spans.last_mut() {
            span.counts.insert(name.to_string(), value);
        }
    }

    /// Inserts an already-timed span (used by tests to build exact
    /// shapes).
    #[cfg(test)]
    pub fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            counts: BTreeMap::new(),
        });
        self.spans.len() - 1
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration in ms of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// The count `name` recorded on any span, if one was.
    pub fn count_value(&self, name: &str) -> Option<f64> {
        self.spans.iter().find_map(|s| s.counts.get(name).copied())
    }

    /// Total duration in ms of the spans named `name` that descend from
    /// span `root`.
    pub fn total_ms_under(&self, root: usize, name: &str) -> f64 {
        let descends = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if p == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && descends(*i))
            .map(|(_, s)| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Sum of the durations of `id`'s direct children, in ms.
    pub fn children_ms(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Self time of span `id` in ns: its duration minus the part of its
    /// interval that its direct children cover (overlapping children
    /// are counted once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        me.dur_ns() - covered
    }

    /// The trace as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span, with the parent and run id in `args`.
    pub fn chrome_json(&self) -> String {
        let events: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("run".to_string(), serde_json::json!(self.run)),
                    ("span".to_string(), serde_json::json!(i)),
                    (
                        "parent".to_string(),
                        s.parent
                            .map_or(serde_json::Value::Null, |p| serde_json::json!(p)),
                    ),
                    (
                        "self_ms".to_string(),
                        serde_json::json!(self.self_ns(i) as f64 / 1e6),
                    ),
                ];
                for (k, v) in &s.counts {
                    args.push((k.clone(), serde_json::json!(*v)));
                }
                serde_json::json!({
                    "name": s.name.as_str(),
                    "cat": "layer",
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.dur_ns() as f64 / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": serde_json::Value::Object(args),
                })
            })
            .collect();
        let doc = serde_json::json!({
            "traceEvents": serde_json::Value::Array(events),
            "displayTimeUnit": "ms",
        });
        serde_json::to_string(&doc).expect("trace events serialize")
    }
}

/// Measured cost of recording one span (enter + exit), in ns: the
/// median over batches of empty spans on a scratch tracer.
pub fn span_cost_ns() -> f64 {
    const BATCH: usize = 2_000;
    let mut per_batch = Vec::new();
    for _ in 0..9 {
        let mut t = Tracer::new(0);
        let start = Instant::now();
        for _ in 0..BATCH {
            let id = t.enter("calibration");
            t.exit(id);
        }
        per_batch.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
        std::hint::black_box(t.spans().len());
    }
    crate::stats::median(&per_batch).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut t = Tracer::new(7);
        let root = t.push("root", 0, 100, None);
        let a = t.push("a", 10, 30, Some(root));
        t.push("a.inner", 12, 20, Some(a));
        t.push("b", 50, 90, Some(root));
        assert_eq!(t.self_ns(root), 100 - 20 - 40);
        assert_eq!(t.self_ns(a), 20 - 8);
        assert!((t.total_ms_under(root, "a.inner") - 8e-6).abs() < 1e-12);
        assert_eq!(t.total_ms_under(a, "b"), 0.0);
        assert!((t.children_ms(root) - 60e-6).abs() < 1e-12);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut t = Tracer::new(1);
        let root = t.push("root", 0, 100, None);
        t.push("x", 10, 60, Some(root));
        t.push("y", 40, 80, Some(root));
        t.push("z", 90, 130, Some(root));
        // Children cover [10, 80) and [90, 100) inside the parent.
        assert_eq!(t.self_ns(root), 100 - 70 - 10);
    }

    #[test]
    fn live_spans_nest_and_export() {
        let mut t = Tracer::new(3);
        let outer = t.enter("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.count("items", 5.0);
        t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.count_value("items"), Some(5.0));
        let json = t.chrome_json();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
    }
}
