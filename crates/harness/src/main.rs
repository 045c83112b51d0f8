//! `alae-experiments`: regenerate the tables and figures of the ALAE paper
//! on scaled synthetic workloads.
//!
//! ```text
//! alae-experiments <experiment> [--scale <factor>|large] [--queries <count>] [--seed <seed>]
//!                               [--check] [--tolerance <fraction>]
//!
//! experiments: all, table2, table3, table4, table5, fig7, fig8, fig9,
//!              fig10, fig11, bounds, sw-anchor, ablation, rank, search, store
//! ```
//!
//! `--check` (rank and search experiments) compares the fresh measurements
//! against the committed `BENCH_rank.json` / `BENCH_search.json` and exits
//! non-zero on regression beyond `--tolerance` (default 0.15) — the CI
//! perf-regression gates.  `--scale large` is shorthand for a tens-of-MB
//! text (factor 500), the scale where the two-level checkpoint rows stop
//! being cache-resident.

use alae_harness::{run_experiment, ExperimentOptions, EXPERIMENT_NAMES};

/// The `--scale large` factor: 500 × the 60 kB default ≈ 30 MB of text.
const LARGE_SCALE: f64 = 500.0;

fn print_usage() {
    eprintln!("usage: alae-experiments <experiment> [--scale <factor>|large] [--queries <count>] [--seed <seed>] [--check] [--tolerance <fraction>]");
    eprintln!("experiments: all, {}", EXPERIMENT_NAMES.join(", "));
    eprintln!("--check (rank, search): fail when the committed BENCH_rank.json / BENCH_search.json throughput regresses beyond --tolerance (default 0.15)");
    eprintln!("--scale large: tens-of-MB text (factor {LARGE_SCALE}); the two-level-checkpoint bench point");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    let mut experiment: Option<String> = None;
    let mut options = ExperimentOptions::default();
    let mut check = false;
    let mut tolerance = 0.15f64;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--tolerance" => {
                let value = iter.next().unwrap_or_default();
                match value.parse::<f64>() {
                    Ok(fraction) if (0.0..1.0).contains(&fraction) => tolerance = fraction,
                    _ => {
                        eprintln!(
                            "invalid --tolerance value (expected a fraction in [0, 1)): {value:?}"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--scale" => {
                let value = iter.next().unwrap_or_default();
                if value == "large" {
                    options.scale = LARGE_SCALE;
                } else {
                    match value.parse::<f64>() {
                        Ok(scale) if scale > 0.0 => options.scale = scale,
                        _ => {
                            eprintln!("invalid --scale value: {value:?}");
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--queries" => {
                let value = iter.next().unwrap_or_default();
                match value.parse::<usize>() {
                    Ok(count) if count > 0 => options.queries_per_point = count,
                    _ => {
                        eprintln!("invalid --queries value: {value:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                let value = iter.next().unwrap_or_default();
                match value.parse::<u64>() {
                    Ok(seed) => options.seed = seed,
                    Err(_) => {
                        eprintln!("invalid --seed value: {value:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            name if experiment.is_none() => experiment = Some(name.to_string()),
            unexpected => {
                eprintln!("unexpected argument: {unexpected:?}");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    let Some(name) = experiment else {
        print_usage();
        std::process::exit(2);
    };
    if check {
        if name != "rank" && name != "search" {
            eprintln!("--check only applies to the `rank` and `search` experiments");
            std::process::exit(2);
        }
        let defaults = ExperimentOptions::default();
        if options.scale != defaults.scale || options.seed != defaults.seed {
            // The committed baselines are defined at the default scale/seed;
            // comparing a different workload against them would report
            // phantom regressions (or mask real ones).
            eprintln!(
                "--check requires the default --scale ({}) and --seed ({}) the committed baseline was generated with",
                defaults.scale, defaults.seed
            );
            std::process::exit(2);
        }
        options.bench_check = Some(tolerance);
    }
    if !run_experiment(&name, &options) {
        eprintln!("unknown experiment: {name:?}");
        print_usage();
        std::process::exit(2);
    }
}
