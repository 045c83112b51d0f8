//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as Chrome trace-event JSON when the run ends.
//!
//! Spans of one query carry the query's id (its index in the workload's
//! query set), so a served query's client span lines up with the
//! in-process replay of the same query.

use crate::json::Json;
use alae::search::{EngineKind, EngineRun, LocalAligner, SearchGuard};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval, in microseconds since the trace's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `core.align`.
    pub name: &'static str,
    pub query: Option<usize>,
    pub tid: usize,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// Extra numeric fields shown in the trace viewer.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The spans of one run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Microseconds from the origin to `t`.
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a span from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        query: Option<usize>,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            query,
            tid: 0,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            args: Vec::new(),
        };
        self.push(span)
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// A span's duration minus the part of its interval its child spans
    /// cover (overlapping children counted once).
    pub fn self_time_us(&self, index: usize) -> f64 {
        let parent = &self.spans[index];
        let mut covered: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (start, end) in covered {
            let start = start.max(reach);
            if end > start {
                total += end - start;
            }
            reach = reach.max(end);
        }
        parent.dur_us() - total
    }

    /// Chrome trace-event JSON (complete events), loadable in Perfetto or
    /// `chrome://tracing`.
    pub fn to_chrome(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                let mut args: Vec<(String, Json)> = vec![("span".into(), Json::Num(i as f64))];
                if let Some(q) = span.query {
                    args.push(("query".into(), Json::Num(q as f64)));
                }
                if let Some(p) = span.parent {
                    args.push(("parent".into(), Json::Num(p as f64)));
                }
                args.extend(
                    span.args
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::Num(v))),
                );
                let category = span.name.split('.').next().unwrap_or(span.name);
                Json::obj([
                    ("name", Json::str(span.name)),
                    ("cat", Json::str(category)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(span.start_us)),
                    ("dur", Json::Num(span.dur_us())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(span.tid as f64)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("otherData", Json::obj([("workload", Json::str(workload))])),
        ])
    }
}

/// Start and end of each engine run, in call order.
pub type AlignLog = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// A [`LocalAligner`] that times every run of the engine it wraps, so a
/// facade call (`Searcher::search`) can be split into the engine's part
/// and the facade's own part (record resolution and shaping).
pub struct AlignClock {
    pub inner: Box<dyn LocalAligner>,
    pub log: AlignLog,
}

impl LocalAligner for AlignClock {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn resolve_threshold(&self, query_len: usize) -> i64 {
        self.inner.resolve_threshold(query_len)
    }

    fn align_codes_guarded(&self, query: &[u8], guard: &SearchGuard) -> EngineRun {
        let start = Instant::now();
        let run = self.inner.align_codes_guarded(query, guard);
        let end = Instant::now();
        self.log
            .lock()
            .expect("align log lock is never held across a panic")
            .push((start, end));
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: "x.y",
            query: Some(3),
            tid: 0,
            start_us,
            end_us,
            parent,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut trace = Trace::new(Instant::now());
        let root = trace.push(span(0.0, 100.0, None));
        // Overlapping children count once; the part of a child outside
        // its parent does not count.
        trace.push(span(10.0, 30.0, Some(root)));
        trace.push(span(20.0, 40.0, Some(root)));
        trace.push(span(90.0, 120.0, Some(root)));
        // A grandchild is its parent's business, not the root's.
        let child = trace.push(span(50.0, 60.0, Some(root)));
        trace.push(span(52.0, 58.0, Some(child)));
        assert_eq!(trace.self_time_us(root), 100.0 - 30.0 - 10.0 - 10.0);
        assert_eq!(trace.self_time_us(child), 4.0);
        // A leaf's self time is its duration.
        assert_eq!(trace.self_time_us(child + 1), 6.0);
    }

    #[test]
    fn chrome_events_carry_query_and_parent() {
        let mut trace = Trace::new(Instant::now());
        let root = trace.push(span(0.0, 10.0, None));
        trace.push(span(1.0, 2.0, Some(root)));
        let json = trace.to_chrome("w");
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("query").and_then(Json::as_f64), Some(3.0));
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("x"));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(10.0));
    }
}
