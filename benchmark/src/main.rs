//! The benchmark's command line.
//!
//! ```text
//! alae-benchmark [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! alae-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! alae-benchmark compare --base FILE... --change FILE...
//! ```
//!
//! With `--workload` one workload runs in this process and the last line
//! of standard output is its result as one JSON object.  Without it every
//! workload runs in a child process of its own (so `peak_rss_mb` is per
//! workload) and the results are collected into `results.json`
//! (`results-trace.json` for a traced run) in the output directory.

#![forbid(unsafe_code)]

use alae_benchmark::compare;
use alae_benchmark::json::Json;
use alae_benchmark::metrics::{MetricSpec, END_TO_END, FAIL_RATIO, PER_LAYER};
use alae_benchmark::run::{run_workload, Outcome, RunOptions};
use alae_benchmark::workloads::{WorkloadSpec, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Seconds one run measures by default (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 55.0;

const USAGE: &str = "usage: alae-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out DIR]\n       \
                     alae-benchmark compare --base FILE... --change FILE...";

#[derive(Debug)]
struct Args {
    workload: Option<&'static WorkloadSpec>,
    options: RunOptions,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WorkloadSpec::by_name(&name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be within 0..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => quick = true,
            "--out" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.unwrap_or(if quick { 0.0 } else { DEFAULT_SECONDS });
    Ok(Args {
        workload,
        options: RunOptions {
            seed,
            seconds,
            trace,
            quick,
            out_dir,
        },
    })
}

fn table(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `{"value": v, "unit": u}` per metric.
fn metrics_json(pairs: &[(&'static MetricSpec, f64)]) -> Json {
    Json::obj(pairs.iter().map(|(spec, value)| {
        (
            spec.name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(spec.unit))]),
        )
    }))
}

/// Run one workload here: metric lines, then the result line.
fn run_one(spec: &WorkloadSpec, options: &RunOptions) -> ExitCode {
    println!("# {}: {}", spec.name, spec.why);
    let outcome: Outcome = match run_workload(spec, options) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("{}: {err}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    let selected = outcome.metrics.select(table(options.trace));
    for (metric, value) in &selected {
        println!("{} {} {value} {}", spec.name, metric.name, metric.unit);
    }
    if !options.trace {
        let fail = outcome.metrics.get(FAIL_RATIO.name).unwrap_or(0.0);
        println!(
            "{} {} {fail} {}",
            spec.name, FAIL_RATIO.name, FAIL_RATIO.unit
        );
    }
    for (key, value, unit) in &outcome.info {
        println!("# {} {key} {value} {unit}", spec.name);
    }
    if !outcome.correct {
        eprintln!("{}: hit sets are NOT exact", spec.name);
    }
    let line = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&selected)),
    ]);
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in a child process and collect `results.json`.
fn run_all(options: &RunOptions) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("cannot locate this executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut entries = Vec::new();
    for spec in WORKLOADS {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", spec.name])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&options.out_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if options.quick {
            command.arg("--quick");
        }
        let output = match command.output() {
            Ok(output) => output,
            Err(err) => {
                eprintln!("{}: could not run: {err}", spec.name);
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().and_then(|last| Json::parse(last).ok());
        for line in lines {
            println!("{line}");
        }
        let Some(result) = result.filter(|_| output.status.success()) else {
            eprintln!("{}: failed ({})", spec.name, output.status);
            ok = false;
            continue;
        };
        let attempted = result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let mut metrics = result.get("metrics").cloned().unwrap_or(Json::Null);
        if let (Json::Obj(pairs), false) = (&mut metrics, options.trace) {
            pairs.push((
                FAIL_RATIO.name.to_string(),
                Json::obj([
                    ("value", Json::Num(failed / attempted.max(1.0))),
                    ("unit", Json::str(FAIL_RATIO.unit)),
                ]),
            ));
        }
        entries.push(Json::obj([
            ("name", Json::str(spec.name)),
            (
                "correct",
                result.get("correct").cloned().unwrap_or(Json::Null),
            ),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("metrics", metrics),
        ]));
    }
    let results = Json::obj([
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("trace", Json::Bool(options.trace)),
        ("quick", Json::Bool(options.quick)),
        ("workloads", Json::Arr(entries)),
    ]);
    let file = options.out_dir.join(if options.trace {
        "results-trace.json"
    } else {
        "results.json"
    });
    let written = std::fs::create_dir_all(&options.out_dir)
        .and_then(|()| std::fs::write(&file, format!("{results}\n")));
    match written {
        Ok(()) => println!("# results written to {}", file.display()),
        Err(err) => {
            eprintln!("write {}: {err}", file.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(spec) => run_one(spec, &args.options),
        None => run_all(&args.options),
    }
}
