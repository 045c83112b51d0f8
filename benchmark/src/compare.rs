//! `compare`: two sets of `results.json` files (parent runs and change
//! runs, paired in the order given) → per (workload, metric) medians,
//! quartiles, pairs won and a verdict.
//!
//! The verdict follows the benchmark's rules: a gain needs the change to
//! win at least nine pairs in ten (ties count for neither) and a median
//! gap larger than the parent's interquartile range; a regression is a
//! median worse than the parent's by more than the metric's bound; a
//! metric whose parent spread is wider than its bound is unresolved unless
//! every change run beats every parent run.

use crate::json::Json;
use crate::metrics::{Better, MetricSpec, END_TO_END, FAIL_RATIO, PER_LAYER};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    /// Within the bound (end-to-end metrics).
    Unchanged,
    /// No gain shown, and no bound to judge a regression by (per-layer).
    NoClaim,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "within bound",
            Verdict::NoClaim => "-",
        }
    }
}

/// Whether `a` is better than `b` in the metric's direction.
fn better(spec: &MetricSpec, a: f64, b: f64) -> bool {
    match spec.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Pairs (base[i], change[i]) the change wins, and pairs compared.
pub fn pairs_won(spec: &MetricSpec, base: &[f64], change: &[f64]) -> (usize, usize) {
    let won = base
        .iter()
        .zip(change)
        .filter(|&(&b, &c)| better(spec, c, b))
        .count();
    (won, base.len().min(change.len()))
}

/// Judge one (workload, metric) from its two sets of runs.
pub fn verdict(spec: &MetricSpec, base: &[f64], change: &[f64]) -> Verdict {
    let (Some((b1, bm, b3)), Some((_, cm, _))) = (quartiles(base), quartiles(change)) else {
        return Verdict::NoClaim;
    };
    let (won, pairs) = pairs_won(spec, base, change);
    if pairs > 0 && won * 10 >= pairs * 9 && better(spec, cm, bm) && (cm - bm).abs() > b3 - b1 {
        return Verdict::Gain;
    }
    let Some(bound) = spec.bound else {
        return Verdict::NoClaim;
    };
    let scale = bm.abs();
    let spread = if scale > 0.0 { (b3 - b1) / scale } else { 0.0 };
    let every_run_better = change
        .iter()
        .all(|&c| base.iter().all(|&b| better(spec, c, b)));
    if spread > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    let worse_by = match spec.better {
        Better::Lower => cm - bm,
        Better::Higher => bm - cm,
    };
    if worse_by > bound * scale {
        Verdict::Regression
    } else {
        Verdict::Unchanged
    }
}

/// (workload, metric) → values, one per results file, in file order.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[String]) -> Result<(Series, Vec<String>), String> {
    let mut series = Series::new();
    let mut order = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workloads = json
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}: no workloads array"))?;
        for entry in workloads {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: workload without a name"))?;
            if !order.iter().any(|o| o == name) {
                order.push(name.to_string());
            }
            for (metric, value) in entry
                .get("metrics")
                .and_then(Json::as_object)
                .unwrap_or(&[])
            {
                let value = value.get("value").and_then(Json::as_f64);
                if let Some(value) = value {
                    series
                        .entry((name.to_string(), metric.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok((series, order))
}

fn parse_sets(args: &[String]) -> Result<(Vec<String>, Vec<String>), String> {
    let (mut base, mut change) = (Vec::new(), Vec::new());
    let mut target: Option<&mut Vec<String>> = None;
    for arg in args {
        match arg.as_str() {
            "--base" => target = Some(&mut base),
            "--change" => target = Some(&mut change),
            file => match target.as_mut() {
                Some(list) => list.push(file.to_string()),
                None => return Err(format!("unexpected argument {file}")),
            },
        }
    }
    if base.is_empty() || change.is_empty() {
        return Err("need at least one --base and one --change results file".into());
    }
    Ok((base, change))
}

fn summary((q1, median, q3): (f64, f64, f64)) -> String {
    format!("{median:.4} [{q1:.4}, {q3:.4}]")
}

/// `compare --base FILE... --change FILE...`; exits 1 when any metric
/// regressed.
pub fn main(args: &[String]) -> ExitCode {
    let result = parse_sets(args).and_then(|(base, change)| Ok((load(&base)?, load(&change)?)));
    let ((base, order), (change, _)) = match result {
        Ok(loaded) => loaded,
        Err(err) => {
            eprintln!("compare: {err}");
            eprintln!("usage: compare --base FILE... --change FILE...");
            return ExitCode::from(2);
        }
    };
    let mut regressions = 0;
    println!(
        "workload metric unit better | parent median [q1, q3] | change median [q1, q3] | pairs won | verdict"
    );
    let table = END_TO_END
        .iter()
        .chain(std::iter::once(&FAIL_RATIO))
        .chain(PER_LAYER);
    for w in &order {
        for spec in table.clone() {
            let key = (w.clone(), spec.name.to_string());
            let (Some(base_values), Some(change_values)) = (base.get(&key), change.get(&key))
            else {
                continue;
            };
            let (Some(b), Some(c)) = (quartiles(base_values), quartiles(change_values)) else {
                continue;
            };
            let metric = spec.name;
            let (won, pairs) = pairs_won(spec, base_values, change_values);
            let verdict = verdict(spec, base_values, change_values);
            if verdict == Verdict::Regression {
                regressions += 1;
            }
            println!(
                "{w} {metric} {} {} | {} | {} | {won}/{pairs} | {}",
                spec.unit,
                spec.better.label(),
                summary(b),
                summary(c),
                verdict.label()
            );
        }
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::spec;

    fn latency() -> &'static MetricSpec {
        spec("latency_p50_ms").unwrap()
    }

    const PARENT: [f64; 10] = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.1];

    #[test]
    fn clear_win_is_a_gain() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.8).collect();
        assert_eq!(pairs_won(latency(), &PARENT, &change), (10, 10));
        assert_eq!(verdict(latency(), &PARENT, &change), Verdict::Gain);
    }

    #[test]
    fn eight_of_ten_pairs_is_not_a_gain() {
        let mut change: Vec<f64> = PARENT.iter().map(|v| v * 0.95).collect();
        change[0] = 11.0;
        change[1] = 11.0;
        assert_eq!(pairs_won(latency(), &PARENT, &change).0, 8);
        assert_eq!(verdict(latency(), &PARENT, &change), Verdict::Unchanged);
    }

    #[test]
    fn gap_inside_the_parent_spread_is_not_a_gain() {
        // Wins every pair by a hair, but the medians differ by less than
        // the parent's interquartile range.
        let change: Vec<f64> = PARENT.iter().map(|v| v - 0.01).collect();
        assert_eq!(pairs_won(latency(), &PARENT, &change).0, 10);
        assert_eq!(verdict(latency(), &PARENT, &change), Verdict::Unchanged);
    }

    #[test]
    fn worse_than_the_bound_is_a_regression() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(latency(), &PARENT, &change), Verdict::Regression);
        // Within the 25% bound it is not.
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(latency(), &PARENT, &change), Verdict::Unchanged);
    }

    #[test]
    fn higher_is_better_metrics_flip_direction() {
        let qps = spec("throughput_qps").unwrap();
        let lower: Vec<f64> = PARENT.iter().map(|v| v * 0.7).collect();
        assert_eq!(verdict(qps, &PARENT, &lower), Verdict::Regression);
        let higher: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(qps, &PARENT, &higher), Verdict::Gain);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 10.0, 10.0];
        let change: Vec<f64> = noisy.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(latency(), &noisy, &change), Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let change = [4.0; 10];
        assert_eq!(verdict(latency(), &noisy, &change), Verdict::Unchanged);
    }

    #[test]
    fn any_rise_in_fail_ratio_is_a_regression() {
        let fail = spec("fail_ratio").unwrap();
        let base = [0.0; 5];
        assert_eq!(verdict(fail, &base, &[0.0; 5]), Verdict::Unchanged);
        assert_eq!(
            verdict(fail, &base, &[0.0, 0.0, 0.01, 0.0, 0.01]),
            Verdict::Unchanged
        );
        assert_eq!(verdict(fail, &base, &[0.01; 5]), Verdict::Regression);
    }

    #[test]
    fn per_layer_metrics_have_no_regression_verdict() {
        let layer = spec("core.align_ms_p50").unwrap();
        let change: Vec<f64> = PARENT.iter().map(|v| v * 2.0).collect();
        assert_eq!(verdict(layer, &PARENT, &change), Verdict::NoClaim);
    }
}
