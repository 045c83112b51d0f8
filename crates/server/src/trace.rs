//! Per-query trace records.
//!
//! Every query that reaches the admission queue leaves one
//! [`QueryTrace`] describing its path through the pipeline — admission →
//! clamp → queue → engine → sink — in a fixed-capacity ring buffer.  The
//! newest records are dumpable over HTTP (`GET /debug/last-queries`) and
//! appendable to a file via `alae-serve --trace-log`.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default number of queries the ring buffer retains.
pub const DEFAULT_TRACE_CAPACITY: usize = 64;

/// One query's path through the server, admission to sink.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Monotone id assigned at record time.
    pub id: u64,
    /// Which front admitted the query: `"tcp"` or `"http"`.
    pub proto: &'static str,
    /// Engine label (`EngineKind::label`).
    pub engine: &'static str,
    /// Query length in residues, after decoding.
    pub query_len: usize,
    /// Whether server-side clamping tightened any guardrail field.
    pub clamped: bool,
    /// Microseconds spent in the admission queue before a worker took
    /// the query.
    pub queue_wait_us: u64,
    /// Microseconds of engine wall-clock, pickup to termination.
    pub engine_us: u64,
    /// Hits delivered to the sink.
    pub hits: usize,
    /// Termination label (`Termination::label`).
    pub termination: &'static str,
}

/// One server lifecycle event (reload, drain, eviction, signal) — the
/// control-plane counterpart of [`QueryTrace`], kept in its own small
/// ring so a query flood cannot wash recent operational history away.
#[derive(Debug, Clone)]
pub struct ServerEvent {
    /// Monotone id sharing the query-trace sequence.
    pub id: u64,
    /// Stable event kind: `reload`, `drain`, `evict`, `signal`, ….
    pub kind: &'static str,
    /// Free-form detail (path, epoch, peer, outcome).
    pub detail: String,
}

impl ServerEvent {
    /// One-line rendering used by `/debug/last-queries` and the
    /// `--trace-log` file.
    pub fn render_line(&self) -> String {
        let mut line = String::with_capacity(64 + self.detail.len());
        let _ = write!(
            line,
            "event id={} kind={} {}",
            self.id, self.kind, self.detail
        );
        line
    }
}

impl QueryTrace {
    /// One-line rendering used by both `/debug/last-queries` and the
    /// `--trace-log` file (stable field order, `key=value` pairs).
    pub fn render_line(&self) -> String {
        let mut line = String::with_capacity(128);
        let _ = write!(
            line,
            "query id={} proto={} engine={} len={} clamped={} queue_wait_us={} engine_us={} hits={} termination={}",
            self.id,
            self.proto,
            self.engine,
            self.query_len,
            self.clamped,
            self.queue_wait_us,
            self.engine_us,
            self.hits,
            self.termination,
        );
        line
    }
}

/// Server lifecycle events retained alongside the query ring.
pub const EVENT_RING_CAPACITY: usize = 32;

/// Fixed-capacity ring of the most recent [`QueryTrace`] records,
/// with an optional line-per-query sink (`alae-serve --trace-log`).
pub struct TraceLog {
    capacity: usize,
    next_id: AtomicU64,
    ring: Mutex<VecDeque<QueryTrace>>,
    events: Mutex<VecDeque<ServerEvent>>,
    sink: Mutex<Option<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl TraceLog {
    /// A ring retaining the last `capacity` queries (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            next_id: AtomicU64::new(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            events: Mutex::new(VecDeque::with_capacity(EVENT_RING_CAPACITY)),
            sink: Mutex::new(None),
        }
    }

    /// Mirror every record as one [`QueryTrace::render_line`] line to
    /// `sink` (pass `None` to stop mirroring).
    pub fn set_sink(&self, sink: Option<Box<dyn Write + Send>>) {
        let mut slot = self
            .sink
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *slot = sink;
    }

    /// Record one query, assigning and returning its id.
    pub fn record(&self, mut trace: QueryTrace) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        trace.id = id;
        {
            let mut sink = self
                .sink
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(out) = sink.as_mut() {
                // Formatted writes are the one I/O the lock-discipline
                // lint allows under a guard; a full trace line is one
                // short buffered write.
                let _ = writeln!(out, "{}", trace.render_line());
                let _ = out.flush();
            }
        }
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
        id
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        let ring = self
            .ring
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        ring.iter().cloned().collect()
    }

    /// Record one server lifecycle event (reload, drain, eviction,
    /// signal), assigning and returning its id.
    pub fn record_event(&self, kind: &'static str, detail: impl Into<String>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let event = ServerEvent {
            id,
            kind,
            detail: detail.into(),
        };
        {
            let mut sink = self
                .sink
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(out) = sink.as_mut() {
                let _ = writeln!(out, "{}", event.render_line());
                let _ = out.flush();
            }
        }
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if events.len() == EVENT_RING_CAPACITY {
            events.pop_front();
        }
        events.push_back(event);
        id
    }

    /// The retained lifecycle events, oldest first.
    pub fn events_snapshot(&self) -> Vec<ServerEvent> {
        let events = self
            .events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        events.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(engine: &'static str) -> QueryTrace {
        QueryTrace {
            id: 0,
            proto: "tcp",
            engine,
            query_len: 32,
            clamped: false,
            queue_wait_us: 10,
            engine_us: 250,
            hits: 2,
            termination: "complete",
        }
    }

    #[test]
    fn ring_evicts_oldest_and_ids_are_monotone() {
        let log = TraceLog::new(3);
        for _ in 0..5 {
            log.record(sample("alae"));
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        let ids: Vec<u64> = snap.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn sink_mirrors_one_line_per_record() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Capture(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Capture {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let capture = Capture(Arc::new(Mutex::new(Vec::new())));
        let log = TraceLog::new(2);
        log.set_sink(Some(Box::new(capture.clone())));
        log.record(sample("alae"));
        log.record(sample("sw"));
        let text = String::from_utf8(capture.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with("query id=")));
    }

    #[test]
    fn events_keep_their_own_ring_and_share_the_id_sequence() {
        let log = TraceLog::new(2);
        log.record(sample("alae"));
        let event_id = log.record_event("reload", "outcome=ok epoch=2");
        assert_eq!(event_id, 2);
        // Query floods do not evict events.
        for _ in 0..8 {
            log.record(sample("alae"));
        }
        let events = log.events_snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "reload");
        let line = events[0].render_line();
        assert!(line.starts_with("event id=2 kind=reload "));
        assert!(line.contains("epoch=2"));
    }

    #[test]
    fn render_line_is_single_line_key_value() {
        let log = TraceLog::new(4);
        log.record(sample("bwtsw"));
        let snap = log.snapshot();
        let line = snap[0].render_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("engine=bwtsw"));
        assert!(line.contains("termination=complete"));
        assert!(line.starts_with("query id=1 "));
    }
}
