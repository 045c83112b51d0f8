//! End-to-end search benchmark: facade-level queries/sec per engine, on a
//! hit-dense *and* a sparse-hit workload.
//!
//! Where `rank_bench` gates the occurrence layer, this benchmark drives the
//! whole `alae::search` stack — engine construction aside, exactly what a
//! query hitting a deployed service would execute — for every engine over
//! two shared [`crate::setup::PreparedWorkload`]s, and writes the
//! measurements to `BENCH_search.json` so successive PRs accumulate a
//! facade-level perf trajectory next to the rank layer's:
//!
//! * **hit-dense** — segmented-homologous queries (the default workload of
//!   the earlier snapshots): most trie descents carry live forks and many
//!   nodes report hits.  This is the regime the zero-allocation fork arena
//!   targets; the ALAE-vs-BWT-SW ratio here is gated against an absolute
//!   1.0× floor.
//! * **sparse-hit** — fully random queries of the same shape: hits are
//!   rare, time is dominated by traversal and pruning (the regime of the
//!   paper's m = 100 rows, where ALAE's filters shine).
//!
//! `alae-experiments search --check [--tolerance 0.20]` re-measures and
//! fails (exit 1) when, on either workload, ALAE's speedup over
//! Smith–Waterman or over BWT-SW falls below the committed baseline's
//! beyond tolerance, when the exact engines stop agreeing on any query's
//! hit set, when ALAE is not faster than Smith–Waterman outright, or when
//! the hit-dense ALAE-vs-BWT-SW ratio drops below the absolute 1.0× floor
//! (full-scale runs only).  Speedup *ratios* are gated (not raw
//! queries/sec), the same machine-portability convention as `rank
//! --check`.

use crate::experiments::ExperimentOptions;
use crate::runners::{first_hit_set_mismatch, run_request};
use crate::setup::{prepare_dna, prepare_dna_sparse, PreparedWorkload};
use crate::snapshot::{field_num, field_str, CheckOutcome, Report};
use alae::search::{build_engine, CancelToken, EngineKind, SearchGuard, SearchRequest};
use alae_bioseq::hits::AlignmentHit;
use alae_bioseq::ScoringScheme;
use std::time::{Duration, Instant};

/// Workload shape at `--scale 1` (text length and query length multiply by
/// the scale; the query count stays fixed so per-query times stay
/// comparable).
const BASE_TEXT_LEN: usize = 60_000;
const BASE_QUERY_LEN: usize = 200;
const QUERY_COUNT: usize = 6;

/// Best-of-N repetitions per engine.  Engines are *interleaved* within each
/// repetition (ALAE, BWT-SW, BLAST, SW, then again) so slow machine drift
/// hits every engine alike and cancels out of the speedup ratios the CI
/// gate checks — the same convention as the rank benchmark.
const REPETITIONS: usize = 5;

/// Reporting threshold shared by every engine (`H = 30`, the scaled
/// stringency the experiment suite uses throughout).
const THRESHOLD: i64 = 30;

/// Absolute floor on the hit-dense ALAE-vs-BWT-SW speedup: the
/// zero-allocation fork arena flipped the historical ~0.8× deficit, and the
/// gate keeps it flipped.  Only enforced at full scale (tiny test scales
/// are too noisy to gate an absolute ratio).
pub const HIT_DENSE_BWTSW_FLOOR: f64 = 1.0;

/// Absolute floor on the guarded-vs-unguarded ALAE throughput ratio on the
/// hit-dense workload: running under a fully armed [`SearchGuard`]
/// (deadline + work budget + memory budget + live cancel token) must cost
/// less than 2% versus `SearchGuard::none()`.  The guard polls are
/// amortized (one clock read per [`SearchGuard::DEFAULT_POLL_INTERVAL`]
/// node expansions) precisely so this holds.  Only enforced at full scale.
pub const GUARD_OVERHEAD_FLOOR: f64 = 0.98;

/// One engine's measurement.
#[derive(Debug, Clone)]
pub struct SearchBenchEntry {
    /// Engine display name (`ALAE`, `BWT-SW`, …).
    pub engine: &'static str,
    /// Queries per second (best-of-N pass over the whole query set).
    pub queries_per_sec: f64,
    /// Mean milliseconds per query within the best pass.
    pub ms_per_query: f64,
    /// Each query's canonical hit set (what the exactness check compares).
    pub query_hits: Vec<Vec<AlignmentHit>>,
}

impl SearchBenchEntry {
    /// Total reported alignments across the query set.
    pub fn hits(&self) -> usize {
        self.query_hits.iter().map(Vec::len).sum()
    }
}

/// One workload's measurements.
#[derive(Debug, Clone)]
pub struct WorkloadBench {
    /// Workload name (`hit-dense` / `sparse-hit`).
    pub workload: &'static str,
    /// Indexed text length (including separators).
    pub text_len: usize,
    /// Query length.
    pub query_len: usize,
    /// Number of queries per measured pass.
    pub queries: usize,
    /// Per-engine measurements, in [`EngineKind::ALL`] order.
    pub entries: Vec<SearchBenchEntry>,
}

impl WorkloadBench {
    /// The entry for one engine, if measured.
    pub fn entry(&self, engine: &str) -> Option<&SearchBenchEntry> {
        self.entries.iter().find(|e| e.engine == engine)
    }

    /// ALAE's throughput ratio over `engine` (`> 1` = ALAE is faster).
    pub fn alae_speedup_over(&self, engine: &str) -> Option<f64> {
        let alae = self.entry("ALAE")?;
        let other = self.entry(engine)?;
        (other.queries_per_sec > 0.0).then(|| alae.queries_per_sec / other.queries_per_sec)
    }
}

/// The full report written to `BENCH_search.json`.
#[derive(Debug, Clone)]
pub struct SearchBenchReport {
    /// The `--scale` the report was generated with.
    pub scale: f64,
    /// The `--seed` the report was generated with.
    pub seed: u64,
    /// The reporting threshold applied by every engine.
    pub threshold: i64,
    /// ALAE throughput under a fully armed guard (deadline + budgets +
    /// cancel token) divided by throughput under `SearchGuard::none()`, on
    /// the hit-dense workload.  Gated against [`GUARD_OVERHEAD_FLOOR`].
    pub guarded_vs_unguarded: f64,
    /// Per-workload measurements (`hit-dense`, then `sparse-hit`).
    pub workloads: Vec<WorkloadBench>,
}

impl SearchBenchReport {
    /// The named workload's measurements, if present.
    pub fn workload(&self, name: &str) -> Option<&WorkloadBench> {
        self.workloads.iter().find(|w| w.workload == name)
    }
}

/// Measure all four engines over one prepared workload (interleaved,
/// best-of-N), keeping each query's hit set from the last repetition.
fn run_workload(prepared: &PreparedWorkload) -> Vec<SearchBenchEntry> {
    let queries = prepared.queries.len().max(1) as f64;
    let mut best = [f64::INFINITY; EngineKind::ALL.len()];
    let mut query_hits: [Vec<Vec<AlignmentHit>>; EngineKind::ALL.len()] = Default::default();
    for _ in 0..REPETITIONS {
        for (k, kind) in EngineKind::ALL.into_iter().enumerate() {
            let request =
                SearchRequest::with_threshold(ScoringScheme::DEFAULT, THRESHOLD).engine(kind);
            let (summary, runs) = run_request(prepared, request);
            best[k] = best[k].min(summary.total_time.as_secs_f64());
            query_hits[k] = runs.into_iter().map(|run| run.hits).collect();
        }
    }
    EngineKind::ALL
        .into_iter()
        .zip(query_hits)
        .enumerate()
        .map(|(k, (kind, query_hits))| SearchBenchEntry {
            engine: kind.name(),
            queries_per_sec: if best[k] > 0.0 {
                queries / best[k]
            } else {
                0.0
            },
            ms_per_query: best[k] * 1e3 / queries,
            query_hits,
        })
        .collect()
}

/// Measure the guard-poll overhead: ALAE over the hit-dense workload under
/// a fully armed guard (far-future deadline, effectively-infinite work and
/// memory budgets, live cancel token — every poll branch active) versus
/// `SearchGuard::none()`.  The two passes are interleaved within each
/// best-of-N repetition so machine drift cancels out of the ratio.
///
/// Returns guarded/unguarded throughput (1.0 = free, < 1 = guard costs).
fn measure_guard_overhead(prepared: &PreparedWorkload) -> f64 {
    let request =
        SearchRequest::with_threshold(ScoringScheme::DEFAULT, THRESHOLD).engine(EngineKind::Alae);
    let engine = build_engine(&prepared.indexed, &request);
    let cancel = CancelToken::new();
    let armed = SearchGuard {
        deadline: Some(Instant::now() + Duration::from_secs(3600)),
        // One below the unlimited sentinel, so every slow poll genuinely
        // compares the budget and evaluates the memory probe.
        work_budget: Some(u64::MAX - 1),
        memory_budget: Some(u64::MAX - 1),
        cancel: Some(cancel.clone()),
        poll_interval: None,
        #[cfg(feature = "fault-inject")]
        fault: None,
    };
    let none = SearchGuard::none();
    let mut best_guarded = f64::INFINITY;
    let mut best_unguarded = f64::INFINITY;
    for _ in 0..REPETITIONS {
        for (guard, best) in [(&none, &mut best_unguarded), (&armed, &mut best_guarded)] {
            let start = Instant::now();
            for query in &prepared.queries {
                std::hint::black_box(engine.align_codes_guarded(query.codes(), guard));
            }
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    if best_guarded > 0.0 {
        best_unguarded / best_guarded
    } else {
        1.0
    }
}

/// Run the benchmark: every engine over the hit-dense and the sparse-hit
/// workload.
pub fn run(options: &ExperimentOptions) -> SearchBenchReport {
    let text_len = ((BASE_TEXT_LEN as f64 * options.scale) as usize).max(2_000);
    let query_len = ((BASE_QUERY_LEN as f64 * options.scale.min(4.0)) as usize).max(100);
    let mut workloads = Vec::new();
    let mut guarded_vs_unguarded = 1.0;
    for (name, sparse) in [("hit-dense", false), ("sparse-hit", true)] {
        let prepared = if sparse {
            prepare_dna_sparse(text_len, query_len, QUERY_COUNT, options.seed)
        } else {
            prepare_dna(text_len, query_len, QUERY_COUNT, options.seed)
        };
        if !sparse {
            guarded_vs_unguarded = measure_guard_overhead(&prepared);
        }
        workloads.push(WorkloadBench {
            workload: name,
            text_len: prepared.text_len(),
            query_len,
            queries: prepared.queries.len(),
            entries: run_workload(&prepared),
        });
    }
    SearchBenchReport {
        scale: options.scale,
        seed: options.seed,
        threshold: THRESHOLD,
        guarded_vs_unguarded,
        workloads,
    }
}

/// The gated ALAE-vs-engine speedup ratios (JSON key + engine name).
const CHECKED_SPEEDUPS: &[(&str, &str)] = &[
    ("speedup_alae_vs_sw", "Smith-Waterman"),
    ("speedup_alae_vs_bwtsw", "BWT-SW"),
    ("speedup_alae_vs_blast", "BLAST-like"),
];

/// Slice the section of the baseline JSON belonging to one workload (from
/// its `"workload": "<name>"` marker up to the next workload marker or the
/// end), so the repeated per-workload keys resolve unambiguously.
fn workload_section<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let marker = format!("\"workload\": \"{name}\"");
    let start = json.find(&marker)?;
    let rest = &json[start + marker.len()..];
    let end = rest.find("\"workload\":").unwrap_or(rest.len());
    Some(&rest[..end])
}

impl Report for SearchBenchReport {
    /// Serialize as JSON (hand-rolled; the environment has no serde).
    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"benchmark\": \"search\",\n");
        out.push_str("  \"generated_by\": \"alae-experiments search\",\n");
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"threshold\": {},\n", self.threshold));
        out.push_str(&format!(
            "  \"guarded_vs_unguarded\": {:.3},\n",
            self.guarded_vs_unguarded
        ));
        out.push_str("  \"workloads\": [\n");
        for (w, workload) in self.workloads.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"workload\": \"{}\",\n", workload.workload));
            out.push_str(&format!("      \"text_len\": {},\n", workload.text_len));
            out.push_str(&format!("      \"query_len\": {},\n", workload.query_len));
            out.push_str(&format!("      \"queries\": {},\n", workload.queries));
            for &(key, engine) in CHECKED_SPEEDUPS {
                if let Some(ratio) = workload.alae_speedup_over(engine) {
                    out.push_str(&format!("      \"{key}\": {ratio:.2},\n"));
                }
            }
            out.push_str("      \"engines\": [\n");
            for (i, entry) in workload.entries.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"engine\": \"{}\", \"queries_per_sec\": {:.3}, \
                     \"ms_per_query\": {:.3}, \"hits\": {}}}{}\n",
                    entry.engine,
                    entry.queries_per_sec,
                    entry.ms_per_query,
                    entry.hits(),
                    if i + 1 < workload.entries.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if w + 1 < self.workloads.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn print(&self) {
        for workload in &self.workloads {
            println!(
                "facade search [{}]: {} queries x {} chars against {} indexed chars (H = {})",
                workload.workload,
                workload.queries,
                workload.query_len,
                workload.text_len,
                self.threshold
            );
            println!(
                "{:<16} {:>14} {:>14} {:>8}",
                "engine", "queries/sec", "ms/query", "hits"
            );
            for entry in &workload.entries {
                println!(
                    "{:<16} {:>14.3} {:>14.3} {:>8}",
                    entry.engine,
                    entry.queries_per_sec,
                    entry.ms_per_query,
                    entry.hits()
                );
            }
            for &(_, engine) in CHECKED_SPEEDUPS {
                if let Some(ratio) = workload.alae_speedup_over(engine) {
                    println!("ALAE speedup over {engine}: {ratio:.2}x");
                }
            }
            println!();
        }
        println!(
            "guarded-vs-unguarded ALAE throughput (hit-dense): {:.3}x",
            self.guarded_vs_unguarded
        );
        println!();
    }

    /// Compare against the committed baseline.
    ///
    /// Raw queries/sec are machine-bound, so the gate tracks the *within-run*
    /// ALAE-vs-engine speedup ratios per workload: each fresh ratio must stay
    /// within `tolerance` of the committed one.  Three machine-independent
    /// invariants are checked exactly on every workload: the exact engines
    /// (ALAE, BWT-SW, Smith–Waterman) must report identical canonical hit
    /// sets query by query, ALAE must actually be faster than Smith–Waterman
    /// (the paper's headline property), and — at full scale — the hit-dense
    /// ALAE-vs-BWT-SW ratio must hold the absolute [`HIT_DENSE_BWTSW_FLOOR`].
    fn check(&self, baseline_json: &str, tolerance: f64) -> CheckOutcome {
        let mut outcome = CheckOutcome::default();

        let base_scale = field_num(baseline_json, "scale");
        let comparable = base_scale == Some(self.scale)
            && field_str(baseline_json, "benchmark").as_deref() == Some("search");

        // Guardrail polling must stay effectively free (full-scale runs only;
        // tiny test scales are too noisy for an absolute ratio).  The committed
        // baseline cannot grandfather a breach in: the floor is absolute.
        if self.scale >= 1.0 {
            if self.guarded_vs_unguarded < GUARD_OVERHEAD_FLOOR {
                outcome.failures.push(format!(
                    "guarded-vs-unguarded ALAE throughput {:.3}x fell below the absolute \
                     {GUARD_OVERHEAD_FLOOR:.2}x floor (guard polling costs > {:.0}%)",
                    self.guarded_vs_unguarded,
                    (1.0 - GUARD_OVERHEAD_FLOOR) * 100.0
                ));
            } else {
                outcome.notes.push(format!(
                    "guarded-vs-unguarded {:.3}x holds the absolute {GUARD_OVERHEAD_FLOOR:.2}x floor",
                    self.guarded_vs_unguarded
                ));
            }
        }

        for workload in &self.workloads {
            let label = workload.workload;

            // Exactness: the exact engines report the same hit set per query.
            if let (Some(alae), Some(bwtsw), Some(sw)) = (
                workload.entry("ALAE"),
                workload.entry("BWT-SW"),
                workload.entry("Smith-Waterman"),
            ) {
                let mismatch = [bwtsw, sw].into_iter().find_map(|other| {
                    first_hit_set_mismatch(&alae.query_hits, &other.query_hits)
                        .map(|why| format!("{} vs {}, {why}", alae.engine, other.engine))
                });
                match mismatch {
                    None => outcome.notes.push(format!(
                        "[{label}] exact engines agree hit-for-hit on {} queries ({} hits)",
                        alae.query_hits.len(),
                        alae.hits()
                    )),
                    Some(why) => outcome
                        .failures
                        .push(format!("[{label}] exact engines disagree on {why}")),
                }
            }

            // ALAE must beat the full dynamic program outright (machine-free).
            if let Some(ratio) = workload.alae_speedup_over("Smith-Waterman") {
                if ratio <= 1.0 {
                    outcome.failures.push(format!(
                        "[{label}] ALAE is not faster than Smith-Waterman ({ratio:.2}x)"
                    ));
                }
            }

            // Absolute hit-dense floor (full-scale runs only; tiny test scales
            // are too noisy for an absolute ratio).
            if label == "hit-dense" && self.scale >= 1.0 {
                if let Some(ratio) = workload.alae_speedup_over("BWT-SW") {
                    if ratio < HIT_DENSE_BWTSW_FLOOR {
                        outcome.failures.push(format!(
                            "[{label}] ALAE-vs-BWT-SW speedup {ratio:.2}x fell below the \
                             absolute {HIT_DENSE_BWTSW_FLOOR:.1}x floor"
                        ));
                    } else {
                        outcome.notes.push(format!(
                            "[{label}] ALAE-vs-BWT-SW {ratio:.2}x holds the absolute \
                             {HIT_DENSE_BWTSW_FLOOR:.1}x floor"
                        ));
                    }
                }
            }

            // Baseline-relative ratio gates (machine-portable).
            let section = comparable
                .then(|| workload_section(baseline_json, label))
                .flatten();
            for &(key, engine) in CHECKED_SPEEDUPS {
                if let Some(now) = workload.alae_speedup_over(engine) {
                    let base = section.and_then(|s| field_num(s, key));
                    outcome.check_ratio(&format!("[{label}] {key}"), now, base, tolerance);
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> ExperimentOptions {
        ExperimentOptions {
            scale: 0.05,
            queries_per_point: 1,
            seed: 9,
            bench_check: None,
        }
    }

    #[test]
    fn report_measures_both_workloads_and_serializes() {
        let report = run(&tiny_options());
        assert_eq!(report.workloads.len(), 2);
        for workload in &report.workloads {
            assert_eq!(workload.entries.len(), 4);
            assert!(workload.entries.iter().all(|e| e.queries_per_sec > 0.0));
        }
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"search\""));
        assert!(json.contains("\"workload\": \"hit-dense\""));
        assert!(json.contains("\"workload\": \"sparse-hit\""));
        assert!(json.contains("\"engine\": \"ALAE\""));
        assert!(json.contains("speedup_alae_vs_sw"));
        assert!(json.contains("speedup_alae_vs_bwtsw"));
        assert!(json.contains("guarded_vs_unguarded"));
        assert!(
            report.guarded_vs_unguarded > 0.0,
            "guard overhead ratio must be measured"
        );
        // The two workloads genuinely differ: random queries report fewer
        // hits than homologous ones.
        let dense = report.workload("hit-dense").unwrap();
        let sparse = report.workload("sparse-hit").unwrap();
        assert!(
            sparse.entry("ALAE").unwrap().hits() <= dense.entry("ALAE").unwrap().hits(),
            "sparse workload should not out-hit the dense one"
        );
    }

    #[test]
    fn exact_engines_agree_and_check_passes_against_itself() {
        let report = run(&tiny_options());
        for workload in &report.workloads {
            let alae = workload.entry("ALAE").unwrap();
            for engine in ["BWT-SW", "Smith-Waterman"] {
                let other = workload.entry(engine).unwrap();
                assert_eq!(other.hits(), alae.hits());
                assert_eq!(
                    first_hit_set_mismatch(&alae.query_hits, &other.query_hits),
                    None
                );
            }
        }
        let outcome = report.check(&report.to_json(), 0.20);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(outcome.notes.iter().any(|n| n.contains("hit-for-hit")));
    }

    #[test]
    fn check_flags_one_differing_hit_despite_equal_totals() {
        let mut report = run(&tiny_options());
        let dense = report
            .workloads
            .iter_mut()
            .find(|w| w.workload == "hit-dense")
            .unwrap();
        let engine = |name: &str| dense.entries.iter().position(|e| e.engine == name).unwrap();
        let (alae, bwtsw, sw) = (engine("ALAE"), engine("BWT-SW"), engine("Smith-Waterman"));
        // Every exact engine reports the same single hit for query 0 ...
        let hit = AlignmentHit {
            end_text: 10,
            end_query: 5,
            score: THRESHOLD,
        };
        for k in [alae, bwtsw, sw] {
            dense.entries[k].query_hits[0] = vec![hit];
        }
        let outcome = report.check(&report.to_json(), 0.20);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        // ... then BWT-SW's hit moves by one text position: the totals
        // still match, the hit sets do not.
        let dense = report
            .workloads
            .iter_mut()
            .find(|w| w.workload == "hit-dense")
            .unwrap();
        dense.entries[bwtsw].query_hits[0][0].end_text += 1;
        assert_eq!(dense.entries[alae].hits(), dense.entries[bwtsw].hits());
        let outcome = report.check(&report.to_json(), 0.20);
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.contains("hit-dense") && f.contains("query 0")),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn check_flags_a_speedup_regression() {
        let report = run(&tiny_options());
        // Inflate the committed hit-dense ALAE-vs-SW ratio far beyond the
        // fresh one.
        let sw_ratio = report
            .workload("hit-dense")
            .unwrap()
            .alae_speedup_over("Smith-Waterman")
            .unwrap();
        let json = report.to_json();
        let needle = format!("\"speedup_alae_vs_sw\": {sw_ratio:.2}");
        let inflated = json.replacen(
            &needle,
            &format!("\"speedup_alae_vs_sw\": {:.2}", sw_ratio * 100.0),
            1,
        );
        assert_ne!(inflated, json);
        let outcome = report.check(&inflated, 0.20);
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.contains("hit-dense") && f.contains("speedup_alae_vs_sw")),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn check_flags_a_hit_dense_floor_breach_at_full_scale() {
        // Synthesize a full-scale report whose hit-dense ALAE-vs-BWT-SW
        // ratio sits below 1.0: the absolute floor must fire even when the
        // baseline agrees (i.e. the committed baseline cannot grandfather a
        // regression in).
        let mut report = run(&tiny_options());
        report.scale = 1.0;
        let dense = report
            .workloads
            .iter_mut()
            .find(|w| w.workload == "hit-dense")
            .unwrap();
        let bwtsw_qps = dense.entry("BWT-SW").unwrap().queries_per_sec;
        dense
            .entries
            .iter_mut()
            .find(|e| e.engine == "ALAE")
            .unwrap()
            .queries_per_sec = bwtsw_qps * 0.8;
        let outcome = report.check(&report.to_json(), 0.20);
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.contains("absolute") && f.contains("floor")),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn check_flags_a_guard_overhead_breach_at_full_scale() {
        let mut report = run(&tiny_options());
        report.scale = 1.0;
        report.guarded_vs_unguarded = 0.90;
        let outcome = report.check(&report.to_json(), 0.20);
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.contains("guarded-vs-unguarded")),
            "{:?}",
            outcome.failures
        );
        // And a healthy ratio passes the same gate.
        report.guarded_vs_unguarded = 0.999;
        let outcome = report.check(&report.to_json(), 0.20);
        assert!(
            !outcome
                .failures
                .iter()
                .any(|f| f.contains("guarded-vs-unguarded")),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn check_skips_baselines_from_a_different_scale() {
        let report = run(&tiny_options());
        let json = report.to_json().replace("\"scale\": 0.05", "\"scale\": 7");
        let outcome = report.check(&json, 0.20);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(outcome.notes.iter().any(|n| n.contains("skipped")));
    }

    #[test]
    fn workload_sections_resolve_repeated_keys() {
        let report = run(&tiny_options());
        let json = report.to_json();
        let dense = workload_section(&json, "hit-dense").unwrap();
        let sparse = workload_section(&json, "sparse-hit").unwrap();
        // Each section carries exactly its own workload's text_len.
        assert_eq!(
            field_num(dense, "text_len"),
            Some(report.workload("hit-dense").unwrap().text_len as f64)
        );
        assert_eq!(
            field_num(sparse, "text_len"),
            Some(report.workload("sparse-hit").unwrap().text_len as f64)
        );
        assert!(workload_section(&json, "no-such-workload").is_none());
    }
}
