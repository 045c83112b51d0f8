//! Committed benchmark snapshots (`BENCH_*.json`) and the gate that
//! compares a fresh run against one.
//!
//! Every gated experiment runs one flow, [`gate`]: print the fresh report;
//! with `--check`, compare it against the committed snapshot and fail on
//! regression; rewrite the snapshot only when asked to *and* the gate
//! passed, so a failing run leaves the pre-regression baseline in place for
//! the next `--check`.  Snapshots are the workspace's own JSON (one entry
//! object per line, hand-written because the environment has no serde), so
//! [`field_str`] and [`field_num`] stand in for a JSON parser.

use std::path::{Path, PathBuf};

/// A benchmark report that is written as a committed snapshot and gated
/// against one.
pub trait Report {
    /// Serialize as the snapshot's JSON.
    fn to_json(&self) -> String;
    /// Print a human-readable table.
    fn print(&self);
    /// Compare against a committed snapshot's JSON; `tolerance` is the
    /// fraction a gated ratio may fall below its baseline.
    fn check(&self, baseline_json: &str, tolerance: f64) -> CheckOutcome;
}

/// Result of comparing a fresh run against the committed baseline.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Human-readable regressions; non-empty fails the gate.
    pub failures: Vec<String>,
    /// Informational comparisons.
    pub notes: Vec<String>,
}

impl CheckOutcome {
    /// The gates' ratio rule: the fresh speedup `now` may fall below the
    /// committed `base` by at most `tolerance`.  Speedup ratios (not raw
    /// times) are gated so a baseline transfers across machines.  A ratio
    /// missing from the baseline is noted and skipped.
    pub fn check_ratio(&mut self, what: &str, now: f64, base: Option<f64>, tolerance: f64) {
        let Some(base) = base else {
            self.notes
                .push(format!("{what}: {now:.2}x (not in baseline, skipped)"));
            return;
        };
        let floor = base * (1.0 - tolerance);
        if now < floor {
            self.failures.push(format!(
                "{what}: speedup {now:.2}x fell below baseline {base:.2}x \
                 - {:.0}% tolerance ({floor:.2}x)",
                tolerance * 100.0
            ));
        } else {
            self.notes.push(format!(
                "{what}: speedup {now:.2}x (baseline {base:.2}x) ok"
            ));
        }
    }
}

/// Where the committed snapshot `file_name` lives: the enclosing workspace
/// root (nearest ancestor of the CWD holding `Cargo.toml` and
/// `crates/suffix/`), so runs from anywhere inside a checkout update its
/// committed baseline, else the CWD.
pub fn snapshot_path(file_name: &str) -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    // `crates/suffix` is specific to this workspace, so the walk cannot stop
    // at the root of some other repository that also has `crates/`.
    cwd.ancestors()
        .find(|dir| dir.join("Cargo.toml").is_file() && dir.join("crates/suffix").is_dir())
        .unwrap_or(cwd.as_path())
        .join(file_name)
}

/// Extract a string field from a serialized snapshot object.
pub fn field_str(object: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = object.find(&marker)? + marker.len();
    let end = object[start..].find('"')? + start;
    Some(object[start..end].to_string())
}

/// Extract a numeric field from a serialized snapshot object.
pub fn field_num(object: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\": ");
    let start = object.find(&marker)? + marker.len();
    let end = object[start..]
        .find([',', '}', '\n'])
        .map_or(object.len(), |e| e + start);
    object[start..end].trim().parse().ok()
}

/// Print `report`; with `tolerance` set (`--check`), gate it against the
/// committed snapshot at `path`; with `refresh` set, rewrite `path` — but
/// only once the gate passed.  Returns `false` when the gate failed.
pub fn gate(report: &impl Report, path: &Path, tolerance: Option<f64>, refresh: bool) -> bool {
    report.print();
    if let Some(tolerance) = tolerance {
        match std::fs::read_to_string(path) {
            Ok(baseline) => {
                let outcome = report.check(&baseline, tolerance);
                for note in &outcome.notes {
                    println!("check: {note}");
                }
                if !outcome.failures.is_empty() {
                    for failure in &outcome.failures {
                        eprintln!("check FAILED: {failure}");
                    }
                    eprintln!(
                        "check FAILED: baseline at {} left untouched",
                        path.display()
                    );
                    return false;
                }
                println!("check: OK (tolerance {:.0}%)", tolerance * 100.0);
            }
            Err(_) => println!(
                "no committed baseline at {}; nothing to check against",
                path.display()
            ),
        }
    }
    if refresh {
        write_snapshot(path, &report.to_json());
    } else {
        println!(
            "({} not written: the committed baseline is only refreshed by a direct run at default --scale/--seed)",
            path.display()
        );
    }
    true
}

fn write_snapshot(path: &Path, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report whose check passes or fails on demand.
    struct Fake {
        passes: bool,
    }

    impl Report for Fake {
        fn to_json(&self) -> String {
            "{\"fresh\": 1}\n".to_string()
        }

        fn print(&self) {}

        fn check(&self, _baseline_json: &str, _tolerance: f64) -> CheckOutcome {
            let mut outcome = CheckOutcome::default();
            if !self.passes {
                outcome.failures.push("regressed".to_string());
            }
            outcome
        }
    }

    const BASELINE: &str = "{\"committed\": 1}\n";

    /// A fresh scratch directory under the system temp dir.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alae-snapshot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn a_failing_check_leaves_the_baseline_byte_identical() {
        let dir = temp_dir("fail");
        let path = dir.join("BENCH_test.json");
        std::fs::write(&path, BASELINE).expect("write baseline");
        assert!(!gate(&Fake { passes: false }, &path, Some(0.15), true));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), BASELINE);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_passing_check_rewrites_the_baseline_only_on_refresh() {
        let dir = temp_dir("pass");
        let path = dir.join("BENCH_test.json");
        std::fs::write(&path, BASELINE).expect("write baseline");
        assert!(gate(&Fake { passes: true }, &path, Some(0.15), false));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), BASELINE);
        assert!(gate(&Fake { passes: true }, &path, Some(0.15), true));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            Fake { passes: true }.to_json()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_missing_baseline_is_written_only_on_refresh() {
        let dir = temp_dir("missing");
        let path = dir.join("BENCH_test.json");
        assert!(gate(&Fake { passes: true }, &path, Some(0.15), false));
        assert!(!path.exists());
        assert!(gate(&Fake { passes: true }, &path, Some(0.15), true));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            Fake { passes: true }.to_json()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn the_ratio_rule_fails_only_beyond_tolerance() {
        let mut outcome = CheckOutcome::default();
        outcome.check_ratio("inside", 0.86, Some(1.0), 0.15);
        outcome.check_ratio("missing", 0.10, None, 0.15);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(outcome.notes.iter().any(|n| n.contains("skipped")));
        outcome.check_ratio("beyond", 0.84, Some(1.0), 0.15);
        assert_eq!(outcome.failures.len(), 1);
        assert!(outcome.failures[0].starts_with("beyond: "));
    }
}
