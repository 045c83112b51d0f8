//! Runners driving each engine over a query workload through the unified
//! `alae::search` facade, collecting wall-clock time, result counts and
//! work counters.
//!
//! Every engine goes through the same [`alae::search::LocalAligner`] path
//! (via [`build_engine`]) — the per-engine functions below only translate
//! configurations and unpack the engine-specific counters the experiment
//! tables print.

use crate::setup::PreparedWorkload;
use alae::search::{build_engine, EngineKind, EngineRun, SearchRequest};
use alae_bioseq::hits::{diff_hits, AlignmentHit};
use alae_bioseq::ScoringScheme;
use alae_bwtsw::BwtswStats;
use alae_core::{AlaeConfig, AlaeStats, ThresholdSpec};
use std::time::{Duration, Instant};

/// Aggregated outcome of running one aligner over a whole query workload.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Total wall-clock time across all queries (excluding index build).
    pub total_time: Duration,
    /// Total number of reported alignments (the paper's `C`).
    pub result_count: usize,
    /// Number of queries aligned.
    pub query_count: usize,
}

impl RunSummary {
    /// Average time per query in seconds.
    pub fn avg_seconds(&self) -> f64 {
        if self.query_count == 0 {
            0.0
        } else {
            self.total_time.as_secs_f64() / self.query_count as f64
        }
    }
}

/// Run any engine over the workload through the engine-agnostic
/// `LocalAligner` trait, timing each query.
///
/// Only the engine's `align_codes` call is inside the timed section —
/// record resolution and result shaping are facade conveniences the
/// experiment tables deliberately exclude, so timings stay comparable
/// across engines regardless of how many hits each reports.
///
/// Returns the aggregate summary plus the per-query runs (hit sets,
/// thresholds and engine counters) for callers that need more than counts.
pub fn run_request(
    prepared: &PreparedWorkload,
    request: SearchRequest,
) -> (RunSummary, Vec<EngineRun>) {
    let engine = build_engine(&prepared.indexed, &request);
    let mut summary = RunSummary::default();
    let mut runs = Vec::with_capacity(prepared.queries.len());
    for query in &prepared.queries {
        let start = Instant::now();
        let run = engine.align_codes(query.codes());
        summary.total_time += start.elapsed();
        summary.result_count += run.hits.len();
        summary.query_count += 1;
        runs.push(run);
    }
    (summary, runs)
}

/// The first query whose hit set differs between two runs of the same query
/// list, as a human-readable reason (`None` when every query agrees).
pub fn first_hit_set_mismatch(
    left: &[Vec<AlignmentHit>],
    right: &[Vec<AlignmentHit>],
) -> Option<String> {
    left.iter()
        .zip(right)
        .enumerate()
        .find_map(|(q, (l, r))| diff_hits(l, r).map(|why| format!("query {q}: {why}")))
}

/// Run ALAE over the workload.
pub fn run_alae(prepared: &PreparedWorkload, config: AlaeConfig) -> (RunSummary, AlaeStats, i64) {
    let request = match config.threshold {
        ThresholdSpec::Score(h) => SearchRequest::with_threshold(config.scheme, h),
        ThresholdSpec::EValue(e) => SearchRequest::with_evalue(config.scheme, e),
    }
    .engine(EngineKind::Alae)
    .filters(config.filters);
    let (summary, runs) = run_request(prepared, request);
    let mut stats = AlaeStats::default();
    let mut threshold = 0;
    for run in &runs {
        stats.merge(run.counters.as_alae().expect("ALAE ran"));
        threshold = run.threshold;
    }
    (summary, stats, threshold)
}

/// Run BWT-SW over the workload with an explicit threshold.
pub fn run_bwtsw(
    prepared: &PreparedWorkload,
    scheme: ScoringScheme,
    threshold: i64,
) -> (RunSummary, BwtswStats) {
    let request = SearchRequest::with_threshold(scheme, threshold).engine(EngineKind::Bwtsw);
    let (summary, runs) = run_request(prepared, request);
    let mut stats = BwtswStats::default();
    for run in &runs {
        stats.merge(run.counters.as_bwtsw().expect("BWT-SW ran"));
    }
    (summary, stats)
}

/// Run the BLAST-like heuristic over the workload with an explicit
/// threshold.
pub fn run_blast(prepared: &PreparedWorkload, scheme: ScoringScheme, threshold: i64) -> RunSummary {
    let request = SearchRequest::with_threshold(scheme, threshold).engine(EngineKind::BlastLike);
    run_request(prepared, request).0
}

/// Run the full Smith–Waterman oracle over the workload (only used for the
/// Section 7.1 anchor point — it is orders of magnitude slower).
pub fn run_smith_waterman(
    prepared: &PreparedWorkload,
    scheme: ScoringScheme,
    threshold: i64,
) -> RunSummary {
    let request =
        SearchRequest::with_threshold(scheme, threshold).engine(EngineKind::SmithWaterman);
    run_request(prepared, request).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::prepare_dna;

    #[test]
    fn all_runners_produce_consistent_results_on_a_tiny_workload() {
        let prepared = prepare_dna(3_000, 120, 2, 42);
        let scheme = ScoringScheme::DEFAULT;
        let config = AlaeConfig::with_threshold(scheme, 30);
        let (alae_summary, alae_stats, threshold) = run_alae(&prepared, config);
        assert_eq!(threshold, 30);
        let (bwtsw_summary, bwtsw_stats) = run_bwtsw(&prepared, scheme, threshold);
        let sw_summary = run_smith_waterman(&prepared, scheme, threshold);
        // Exact engines agree on the number of results.
        assert_eq!(alae_summary.result_count, bwtsw_summary.result_count);
        assert_eq!(alae_summary.result_count, sw_summary.result_count);
        // The heuristic reports at most as many.
        let blast_summary = run_blast(&prepared, scheme, threshold);
        assert!(blast_summary.result_count <= alae_summary.result_count);
        // ALAE calculates no more entries than BWT-SW.
        assert!(alae_stats.calculated_entries() <= bwtsw_stats.calculated_entries);
        assert_eq!(alae_summary.query_count, 2);
        assert!(alae_summary.avg_seconds() >= 0.0);
    }

    #[test]
    fn exactness_holds_per_query_on_the_runner_path() {
        // The exact engines must report bit-identical canonical hit
        // vectors query by query when driven through the trait.
        let prepared = prepare_dna(2_000, 100, 1, 11);
        let scheme = ScoringScheme::DEFAULT;
        let request = SearchRequest::with_threshold(scheme, 25);
        let (_, alae_runs) = run_request(&prepared, request);
        let (_, sw_runs) = run_request(&prepared, request.engine(EngineKind::SmithWaterman));
        for (alae, sw) in alae_runs.iter().zip(&sw_runs) {
            assert_eq!(alae.hits, sw.hits);
        }
    }
}
