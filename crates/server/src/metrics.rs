//! Dependency-free metrics: atomic counters, gauges and histograms plus a
//! Prometheus text-exposition renderer.
//!
//! The registry follows the same discipline as the wire protocol — `std`
//! only, no crates.io.  Every instrument is lock-free (plain atomics; the
//! histogram sum is a CAS loop over `f64` bits), so the serving path never
//! blocks on observability and a scrape never blocks a search.
//!
//! One [`Metrics`] instance lives inside the server's shared state; both
//! fronts (TCP frames, HTTP) feed it, and `GET /metrics` renders it with
//! [`Metrics::render`].  Every exported family is documented in
//! `docs/metrics.md` — names and label values are a stable contract, they
//! are never renamed once published.

use alae::search::{EngineKind, Termination};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (use a negative `n` to decrement).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an `f64` (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct GaugeF64(AtomicU64);

impl GaugeF64 {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Latency bucket upper bounds, in seconds (100 µs … 10 s).
pub const LATENCY_BOUNDS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Queue-wait bucket upper bounds, in seconds (the admission queue should
/// drain in milliseconds; the tail buckets make a saturated pool obvious).
pub const QUEUE_WAIT_BOUNDS: &[f64] =
    &[0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

/// A fixed-bucket histogram (cumulative rendering, Prometheus-style).
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds of the finite buckets; an implicit `+Inf` bucket
    /// follows.
    bounds: &'static [f64],
    /// One count per finite bound, plus the `+Inf` bucket at the end.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values, as `f64` bits (CAS-updated).
    sum_bits: AtomicU64,
}

impl Histogram {
    /// An empty histogram over `bounds` (which must be sorted ascending).
    pub fn new(bounds: &'static [f64]) -> Self {
        let mut buckets = Vec::with_capacity(bounds.len() + 1);
        buckets.resize_with(bounds.len() + 1, AtomicU64::default);
        Self {
            bounds,
            buckets,
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&bound| v <= bound)
            .unwrap_or(self.bounds.len());
        if let Some(bucket) = self.buckets.get(slot) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }

    /// Record a duration, in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative count of observations `<= bound` for each finite bound,
    /// then the total (`+Inf`).
    fn cumulative(&self) -> Vec<u64> {
        let mut total = 0;
        self.buckets
            .iter()
            .map(|b| {
                total += b.load(Ordering::Relaxed);
                total
            })
            .collect()
    }
}

/// The server's metric registry.  One instance per [`crate::Server`],
/// shared by the TCP and HTTP fronts; scrape it with [`Metrics::render`].
///
/// Fields are public so embedders wiring their own fronts (or tests) can
/// drive and read the instruments directly; the stable external contract
/// is the rendered exposition, documented in `docs/metrics.md`.
#[derive(Debug)]
pub struct Metrics {
    /// Connections accepted on the TCP frame front.
    pub tcp_connections: Counter,
    /// Connections accepted on the HTTP front.
    pub http_connections: Counter,
    /// Requests refused because the admission queue was full.
    pub rejected_capacity: Counter,
    /// Frames/requests refused as malformed before reaching the queue.
    pub rejected_malformed: Counter,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: Gauge,
    /// Time requests spent in the admission queue before a worker picked
    /// them up.
    pub queue_wait_seconds: Histogram,
    /// One counter per [`Termination`] outcome; every query that reaches
    /// the server increments exactly one of these.
    pub terminations: [Counter; Termination::LABELS.len()],
    /// Engine wall-clock latency per query, one histogram per engine.
    pub query_latency: [Histogram; EngineKind::ALL.len()],
    /// Bytes read from TCP frame connections (shared with the
    /// [`alae::wire::CountingReader`] wrapping each stream).
    pub tcp_bytes_read: Arc<AtomicU64>,
    /// Bytes written to TCP frame connections.
    pub tcp_bytes_written: Arc<AtomicU64>,
    /// Bytes read from HTTP connections.
    pub http_bytes_read: Arc<AtomicU64>,
    /// Bytes written to HTTP connections.
    pub http_bytes_written: Arc<AtomicU64>,
    /// HTTP responses by status code, in [`HTTP_STATUSES`] order.
    pub http_responses: [Counter; HTTP_STATUSES.len()],
    /// Seconds the index file took to open (set once at startup by
    /// `alae-serve`; 0 when the index was built in-process).
    pub index_open_seconds: GaugeF64,
    /// 1 while the index is loaded and the server is ready to answer
    /// (`GET /healthz` keys off this and the worker-pool liveness).
    pub index_loaded: Gauge,
    /// Requests refused because the server is draining for shutdown.
    pub rejected_draining: Counter,
    /// Hot index reloads that published a new epoch.
    pub index_reloads_ok: Counter,
    /// Hot index reloads refused before publication (bad file, missing
    /// path); the serving epoch is untouched.
    pub index_reloads_rejected: Counter,
    /// Epoch of the currently published index (1 at startup; +1 per
    /// successful reload).
    pub index_epoch: Gauge,
    /// Admissions refused by the per-peer fairness gate, in
    /// [`FAIRNESS_REASONS`] order (`rate` = token bucket empty,
    /// `concurrency` = per-peer in-flight cap).
    pub fairness_rejections: [Counter; FAIRNESS_REASONS.len()],
    /// Idle connections evicted to admit new ones at the connection
    /// ceiling.
    pub connections_evicted: Counter,
    /// Seconds the last graceful drain took, start to worker-pool stop
    /// (0 until a drain has run).
    pub drain_seconds: GaugeF64,
}

/// The HTTP status codes the front can produce, in rendering order.
pub const HTTP_STATUSES: [u16; 7] = [200, 400, 404, 405, 429, 500, 503];

/// Label values of the `alae_fairness_rejections_total` family.
pub const FAIRNESS_REASONS: [&str; 2] = ["rate", "concurrency"];

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh registry with every instrument at zero.
    pub fn new() -> Self {
        Self {
            tcp_connections: Counter::new(),
            http_connections: Counter::new(),
            rejected_capacity: Counter::new(),
            rejected_malformed: Counter::new(),
            queue_depth: Gauge::new(),
            queue_wait_seconds: Histogram::new(QUEUE_WAIT_BOUNDS),
            terminations: std::array::from_fn(|_| Counter::new()),
            query_latency: std::array::from_fn(|_| Histogram::new(LATENCY_BOUNDS)),
            tcp_bytes_read: Arc::new(AtomicU64::new(0)),
            tcp_bytes_written: Arc::new(AtomicU64::new(0)),
            http_bytes_read: Arc::new(AtomicU64::new(0)),
            http_bytes_written: Arc::new(AtomicU64::new(0)),
            http_responses: std::array::from_fn(|_| Counter::new()),
            index_open_seconds: GaugeF64::new(),
            index_loaded: Gauge::new(),
            rejected_draining: Counter::new(),
            index_reloads_ok: Counter::new(),
            index_reloads_rejected: Counter::new(),
            index_epoch: Gauge::new(),
            fairness_rejections: std::array::from_fn(|_| Counter::new()),
            connections_evicted: Counter::new(),
            drain_seconds: GaugeF64::new(),
        }
    }

    /// The fairness-rejection counter for `reason` (one of
    /// [`FAIRNESS_REASONS`]; unknown reasons count as the first).
    pub fn fairness_rejection_counter(&self, reason: &str) -> &Counter {
        let slot = FAIRNESS_REASONS
            .iter()
            .position(|&r| r == reason)
            .unwrap_or(0);
        self.fairness_rejections
            .get(slot)
            .unwrap_or(&self.fairness_rejections[0])
    }

    /// The termination counter for `termination` (exactly one per query).
    pub fn termination_counter(&self, termination: &Termination) -> &Counter {
        // The index is defined by the same enum, so `get` always succeeds;
        // the fallback keeps the serving path panic-free by construction.
        self.terminations
            .get(termination.label_index())
            .unwrap_or(&self.terminations[0])
    }

    /// The latency histogram for `engine`.
    pub fn latency_histogram(&self, engine: EngineKind) -> &Histogram {
        let slot = EngineKind::ALL
            .iter()
            .position(|&k| k == engine)
            .unwrap_or(0);
        self.query_latency
            .get(slot)
            .unwrap_or(&self.query_latency[0])
    }

    /// The HTTP response counter for `status` (unknown codes count as 500).
    pub fn http_response_counter(&self, status: u16) -> &Counter {
        let slot = HTTP_STATUSES.iter().position(|&s| s == status).unwrap_or(5); // 500
        self.http_responses
            .get(slot)
            .unwrap_or(&self.http_responses[0])
    }

    /// Render the whole registry in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`): `# HELP`/`# TYPE` headers, one
    /// sample per line, label values escaped, histograms cumulative.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);

        family(
            &mut out,
            "alae_connections_total",
            "Connections accepted, by front.",
            "counter",
        );
        sample(
            &mut out,
            "alae_connections_total",
            &[("proto", "tcp")],
            self.tcp_connections.get(),
        );
        sample(
            &mut out,
            "alae_connections_total",
            &[("proto", "http")],
            self.http_connections.get(),
        );

        family(
            &mut out,
            "alae_requests_rejected_total",
            "Requests refused before reaching the admission queue, by reason.",
            "counter",
        );
        sample(
            &mut out,
            "alae_requests_rejected_total",
            &[("reason", "capacity")],
            self.rejected_capacity.get(),
        );
        sample(
            &mut out,
            "alae_requests_rejected_total",
            &[("reason", "malformed")],
            self.rejected_malformed.get(),
        );
        sample(
            &mut out,
            "alae_requests_rejected_total",
            &[("reason", "draining")],
            self.rejected_draining.get(),
        );

        family(
            &mut out,
            "alae_fairness_rejections_total",
            "Admissions refused by the per-peer fairness gate, by reason.",
            "counter",
        );
        for (reason, counter) in FAIRNESS_REASONS.iter().zip(&self.fairness_rejections) {
            sample(
                &mut out,
                "alae_fairness_rejections_total",
                &[("reason", reason)],
                counter.get(),
            );
        }

        family(
            &mut out,
            "alae_connections_evicted_total",
            "Idle connections evicted to admit new ones at the connection ceiling.",
            "counter",
        );
        sample(
            &mut out,
            "alae_connections_evicted_total",
            &[],
            self.connections_evicted.get(),
        );

        family(
            &mut out,
            "alae_queue_depth",
            "Requests currently waiting in the admission queue.",
            "gauge",
        );
        sample(&mut out, "alae_queue_depth", &[], self.queue_depth.get());

        histogram(
            &mut out,
            "alae_queue_wait_seconds",
            "Seconds requests waited in the admission queue before a worker picked them up.",
            &[],
            &self.queue_wait_seconds,
        );

        family(
            &mut out,
            "alae_query_terminations_total",
            "Completed queries by termination outcome; every query increments exactly one.",
            "counter",
        );
        for (label, counter) in Termination::LABELS.iter().zip(&self.terminations) {
            sample(
                &mut out,
                "alae_query_terminations_total",
                &[("outcome", label)],
                counter.get(),
            );
        }

        family(
            &mut out,
            "alae_query_latency_seconds",
            "Engine wall-clock seconds per query, by engine.",
            "histogram",
        );
        for (kind, hist) in EngineKind::ALL.iter().zip(&self.query_latency) {
            histogram_samples(
                &mut out,
                "alae_query_latency_seconds",
                &[("engine", kind.label())],
                hist,
            );
        }

        family(
            &mut out,
            "alae_wire_bytes_total",
            "Bytes moved on the sockets, by front and direction.",
            "counter",
        );
        for (proto, direction, cell) in [
            ("tcp", "read", &self.tcp_bytes_read),
            ("tcp", "written", &self.tcp_bytes_written),
            ("http", "read", &self.http_bytes_read),
            ("http", "written", &self.http_bytes_written),
        ] {
            sample(
                &mut out,
                "alae_wire_bytes_total",
                &[("proto", proto), ("direction", direction)],
                cell.load(Ordering::Relaxed),
            );
        }

        family(
            &mut out,
            "alae_http_responses_total",
            "HTTP responses, by status code.",
            "counter",
        );
        let mut status_buf = String::new();
        for (status, counter) in HTTP_STATUSES.iter().zip(&self.http_responses) {
            status_buf.clear();
            let _ = write!(status_buf, "{status}");
            sample(
                &mut out,
                "alae_http_responses_total",
                &[("status", &status_buf)],
                counter.get(),
            );
        }

        family(
            &mut out,
            "alae_index_open_seconds",
            "Seconds spent opening the persisted index at startup (0 when built in-process).",
            "gauge",
        );
        sample(
            &mut out,
            "alae_index_open_seconds",
            &[],
            Fmt(self.index_open_seconds.get()),
        );

        family(
            &mut out,
            "alae_index_loaded",
            "1 while the index is loaded and the server is accepting queries.",
            "gauge",
        );
        sample(&mut out, "alae_index_loaded", &[], self.index_loaded.get());

        family(
            &mut out,
            "alae_index_epoch",
            "Epoch of the currently published index (1 at startup, +1 per hot reload).",
            "gauge",
        );
        sample(&mut out, "alae_index_epoch", &[], self.index_epoch.get());

        family(
            &mut out,
            "alae_index_reloads_total",
            "Hot index reload attempts, by outcome.",
            "counter",
        );
        sample(
            &mut out,
            "alae_index_reloads_total",
            &[("outcome", "ok")],
            self.index_reloads_ok.get(),
        );
        sample(
            &mut out,
            "alae_index_reloads_total",
            &[("outcome", "rejected")],
            self.index_reloads_rejected.get(),
        );

        family(
            &mut out,
            "alae_drain_seconds",
            "Seconds the last graceful drain took (0 until a drain has run).",
            "gauge",
        );
        sample(
            &mut out,
            "alae_drain_seconds",
            &[],
            Fmt(self.drain_seconds.get()),
        );

        out
    }
}

/// An `f64` formatted so Prometheus parses it (plain decimal or scientific).
struct Fmt(f64);

impl std::fmt::Display for Fmt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else if self.0.is_nan() {
            f.write_str("NaN")
        } else if self.0 > 0.0 {
            f.write_str("+Inf")
        } else {
            f.write_str("-Inf")
        }
    }
}

fn family(out: &mut String, name: &str, help: &str, ty: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {ty}");
}

fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: impl std::fmt::Display) {
    out.push_str(name);
    write_labels(out, labels);
    let _ = writeln!(out, " {value}");
}

fn write_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        // Label-value escaping per the exposition format.
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out.push('}');
}

/// `# HELP`/`# TYPE` plus the samples for one single-series histogram.
fn histogram(out: &mut String, name: &str, help: &str, labels: &[(&str, &str)], hist: &Histogram) {
    family(out, name, help, "histogram");
    histogram_samples(out, name, labels, hist);
}

/// The `_bucket`/`_sum`/`_count` sample lines for one histogram series.
fn histogram_samples(out: &mut String, name: &str, labels: &[(&str, &str)], hist: &Histogram) {
    let cumulative = hist.cumulative();
    let mut bound_buf = String::new();
    for (i, bound) in hist.bounds.iter().enumerate() {
        bound_buf.clear();
        let _ = write!(bound_buf, "{}", Fmt(*bound));
        let mut with_le: Vec<(&str, &str)> = labels.to_vec();
        with_le.push(("le", &bound_buf));
        sample(
            out,
            &format!("{name}_bucket"),
            &with_le,
            cumulative.get(i).copied().unwrap_or(0),
        );
    }
    let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
    with_inf.push(("le", "+Inf"));
    let total = cumulative.last().copied().unwrap_or(0);
    sample(out, &format!("{name}_bucket"), &with_inf, total);
    sample(out, &format!("{name}_sum"), labels, Fmt(hist.sum()));
    sample(out, &format!("{name}_count"), labels, total);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_move() {
        let m = Metrics::new();
        m.tcp_connections.inc();
        m.tcp_connections.add(2);
        assert_eq!(m.tcp_connections.get(), 3);
        m.queue_depth.add(5);
        m.queue_depth.add(-2);
        assert_eq!(m.queue_depth.get(), 3);
        m.index_open_seconds.set(0.25);
        assert!((m.index_open_seconds.get() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_sum_exact() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.cumulative(), vec![1, 2, 3, 4]);
        assert!((h.sum() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn every_termination_has_exactly_one_counter() {
        let m = Metrics::new();
        use alae::search::SearchError;
        let outcomes = [
            Termination::Complete,
            Termination::DeadlineExceeded,
            Termination::BudgetExhausted,
            Termination::Cancelled,
            Termination::EnginePanicked,
            Termination::Invalid(SearchError::EmptyQuery),
        ];
        for t in &outcomes {
            m.termination_counter(t).inc();
        }
        for counter in &m.terminations {
            assert_eq!(counter.get(), 1);
        }
    }

    #[test]
    fn render_is_well_formed_exposition() {
        let m = Metrics::new();
        m.tcp_connections.inc();
        m.latency_histogram(EngineKind::Alae).observe(0.003);
        m.termination_counter(&Termination::Complete).inc();
        let text = m.render();
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "unparseable value in line: {line}"
            );
        }
        assert!(text.contains("alae_query_terminations_total{outcome=\"complete\"} 1"));
        assert!(text.contains("alae_query_latency_seconds_bucket{engine=\"alae\",le=\"0.005\"} 1"));
        assert!(text.contains("alae_query_latency_seconds_count{engine=\"alae\"} 1"));
        // Every family appears even when untouched: scrapes see the full
        // outcome space with zeros, not a shrinking set of series.
        assert!(text.contains("alae_query_terminations_total{outcome=\"cancelled\"} 0"));
        assert!(text.contains("alae_index_loaded 0"));
        // Resilience families render even before any reload/drain/rejection.
        assert!(text.contains("alae_index_epoch 0"));
        assert!(text.contains("alae_index_reloads_total{outcome=\"ok\"} 0"));
        assert!(text.contains("alae_index_reloads_total{outcome=\"rejected\"} 0"));
        assert!(text.contains("alae_fairness_rejections_total{reason=\"rate\"} 0"));
        assert!(text.contains("alae_fairness_rejections_total{reason=\"concurrency\"} 0"));
        assert!(text.contains("alae_requests_rejected_total{reason=\"draining\"} 0"));
        assert!(text.contains("alae_connections_evicted_total 0"));
        assert!(text.contains("alae_drain_seconds 0"));
    }

    #[test]
    fn http_429_has_its_own_counter() {
        let m = Metrics::new();
        m.http_response_counter(429).inc();
        m.http_response_counter(999).inc(); // unknown → 500
        let text = m.render();
        assert!(text.contains("alae_http_responses_total{status=\"429\"} 1"));
        assert!(text.contains("alae_http_responses_total{status=\"500\"} 1"));
        assert!(text.contains("alae_http_responses_total{status=\"200\"} 0"));
    }

    #[test]
    fn fairness_reasons_map_to_distinct_counters() {
        let m = Metrics::new();
        m.fairness_rejection_counter("rate").inc();
        m.fairness_rejection_counter("concurrency").inc();
        m.fairness_rejection_counter("concurrency").inc();
        assert_eq!(m.fairness_rejections[0].get(), 1);
        assert_eq!(m.fairness_rejections[1].get(), 2);
    }
}
