//! The metric tables: names, units, direction and regression bounds.
//! `BENCHMARK.json` at the repository root mirrors these tables; a unit
//! test keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("throughput_qps", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("index_bytes_per_char", "B/char", Lower, 0.01),
];

/// Failed ÷ attempted.  Printed with the end-to-end metrics and written
/// to `results.json`, but not part of the result line's `metrics`: it is 0
/// on a healthy run, and the line carries `attempted` and `failed` anyway.
pub const FAIL_RATIO: MetricSpec = e2e("fail_ratio", "ratio", Lower, 0.0);

/// Single-layer metrics from the traced run (`--trace 1`).  A workload
/// that does not pass through a layer reports 0 for it (the batch
/// workload has no server, client or queue).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("suffix.build_s", "s", Lower),
    layer("suffix.occ_scans_per_query", "count", Lower),
    layer("suffix.occ_bytes_per_query", "B", Lower),
    layer("store.save_s", "s", Lower),
    layer("store.open_s", "s", Lower),
    layer("store.verify_s", "s", Lower),
    layer("store.index_bytes", "B", Lower),
    layer("core.engine_build_ms", "ms", Lower),
    layer("core.align_ms_p50", "ms", Lower),
    layer("core.calculated_entries_per_query", "count", Lower),
    layer("core.reused_ratio", "%", Higher),
    layer("core.filtering_ratio", "%", Higher),
    layer("core.forks_dominated_ratio", "%", Higher),
    layer("core.visited_nodes_per_query", "count", Lower),
    layer("core.alae_vs_bwtsw", "ratio", Higher),
    layer("search.searcher_new_ms", "ms", Lower),
    layer("search.shape_ms_p50", "ms", Lower),
    layer("search.batch_efficiency", "ratio", Higher),
    layer("wire.encode_ms_per_query", "ms", Lower),
    layer("wire.decode_ms_per_query", "ms", Lower),
    layer("wire.bytes_per_query", "B", Lower),
    layer("server.queue_wait_ms_mean", "ms", Lower),
    layer("server.engine_ms_p50", "ms", Lower),
    layer("server.overhead_ms_p50", "ms", Lower),
    layer("server.served_vs_inproc", "ratio", Lower),
    layer("client.unattributed_ms_p50", "ms", Lower),
    layer("trace.overhead", "ratio", Lower),
];

/// The spec of a metric by name, searching both tables and `fail_ratio`.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(std::iter::once(&FAIL_RATIO))
        .find(|m| m.name == name)
}

/// A set of measured values keyed by metric name, in table order.
#[derive(Debug, Clone, Default)]
pub struct Measured(Vec<(&'static MetricSpec, f64)>);

impl Measured {
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        match self.0.iter_mut().find(|(s, _)| s.name == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((spec, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(s, _)| s.name == name).map(|&(_, v)| v)
    }

    /// The values of `table`'s metrics, in table order; a metric not set
    /// is a bug in the run.
    pub fn select(&self, table: &'static [MetricSpec]) -> Vec<(&'static MetricSpec, f64)> {
        table
            .iter()
            .map(|spec| {
                let value = self
                    .get(spec.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", spec.name));
                (spec, value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_table(json: &Json, key: &str, table: &[MetricSpec]) {
        let entries = json.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(entries.len(), table.len(), "{key} length");
        for (entry, spec) in entries.iter().zip(table) {
            let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or("");
            assert_eq!(field("name"), spec.name);
            assert_eq!(field("unit"), spec.unit, "{}", spec.name);
            assert_eq!(field("better"), spec.better.label(), "{}", spec.name);
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                spec.bound,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let json = benchmark_json();
        check_table(&json, "end_to_end", END_TO_END);
        check_table(&json, "per_layer", PER_LAYER);
        let workloads = json.get("workloads").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, expected);
        for (entry, workload) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(
                entry.get("why").and_then(Json::as_str),
                Some(workload.why),
                "{}",
                workload.name
            );
        }
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = spec("setup_s").and_then(|m| m.bound).unwrap();
        for metric in END_TO_END {
            assert!(metric.bound.unwrap() <= setup, "{}", metric.name);
            assert!(metric.bound.unwrap() <= 0.25, "{}", metric.name);
        }
    }
}
