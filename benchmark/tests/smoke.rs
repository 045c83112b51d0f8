//! `--quick` end to end: tiny texts, one round per workload (two when
//! traced), every workload in its own child process, as a full run does.

use alae_benchmark::json::Json;
use alae_benchmark::metrics::{MetricSpec, END_TO_END, FAIL_RATIO, PER_LAYER};
use alae_benchmark::workloads::WORKLOADS;
use std::path::PathBuf;
use std::process::Command;

/// Run the benchmark with `--quick` plus `extra`, writing into a fresh
/// directory; returns standard output and that directory.
fn quick_run(name: &str, extra: &[&str]) -> (String, PathBuf) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&out).ok();
    let output = Command::new(env!("CARGO_BIN_EXE_alae-benchmark"))
        .args(["--quick", "--seed", "7"])
        .args(extra)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "benchmark failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    (stdout, out)
}

/// Every workload printed every metric of `table` as `workload metric
/// value unit`, and `results` holds it with `correct: true`.
fn check(stdout: &str, results: &Json, table: &[MetricSpec]) {
    let entries = results.get("workloads").and_then(Json::as_array).unwrap();
    assert_eq!(entries.len(), WORKLOADS.len());
    for (workload, entry) in WORKLOADS.iter().zip(entries) {
        assert_eq!(
            entry.get("name").and_then(Json::as_str),
            Some(workload.name)
        );
        assert_eq!(
            entry.get("correct"),
            Some(&Json::Bool(true)),
            "{}",
            workload.name
        );
        assert_eq!(entry.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = entry.get("metrics").unwrap();
        for metric in table {
            let prefix = format!("{} {} ", workload.name, metric.name);
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no line for {prefix}"));
            assert!(line.ends_with(&format!(" {}", metric.unit)), "{line}");
            let value = metrics
                .get(metric.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{prefix} missing from results"));
            assert!(value.is_finite(), "{prefix}{value}");
        }
    }
}

fn read_json(path: PathBuf) -> Json {
    let text = std::fs::read_to_string(&path).expect("results written");
    Json::parse(&text).expect("results parse")
}

#[test]
fn quick_run_prints_every_metric_and_passes_exactness() {
    let (stdout, out) = quick_run("quick", &[]);
    let results = read_json(out.join("results.json"));
    let mut table = END_TO_END.to_vec();
    table.push(FAIL_RATIO);
    check(&stdout, &results, &table);
    for entry in results.get("workloads").and_then(Json::as_array).unwrap() {
        let metrics = entry.get("metrics").unwrap();
        for metric in END_TO_END {
            let value = metrics.get(metric.name).and_then(|m| m.get("value"));
            assert!(
                value.and_then(Json::as_f64).is_some_and(|v| v > 0.0),
                "{} is not positive",
                metric.name
            );
        }
    }
}

#[test]
fn quick_traced_run_writes_traces_and_every_layer_metric() {
    let (stdout, out) = quick_run("quick-trace", &["--trace", "1"]);
    let results = read_json(out.join("results-trace.json"));
    check(&stdout, &results, PER_LAYER);
    for workload in WORKLOADS {
        let trace = read_json(out.join(format!("trace-{}.json", workload.name)));
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        let has = |name: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(name))
        };
        for span in ["suffix.build", "store.open", "search.search", "core.align"] {
            assert!(has(span), "{}: no {span} span", workload.name);
        }
    }
}
