//! Occurrence-layer micro-benchmark: one `extend_all` fan-out versus the σ
//! per-character `extend_left` loop it replaces, measured on the two rank
//! layouts the index builds — protein (σ = 21 codes, byte layout) and DNA
//! (2-bit packed).  Writes the measurements (including per-layout
//! occurrence-table bytes) to `BENCH_rank.json` so successive PRs
//! accumulate a perf trajectory, and implements the `--check` comparison
//! the CI perf-regression gate runs against the committed snapshot.

use crate::experiments::ExperimentOptions;
use crate::snapshot::{field_num, CheckOutcome, Report};
use alae_bioseq::Alphabet;
use alae_suffix::{ChildBuf, SuffixTrieCursor, TextIndex};
use alae_workload::{generate_text, TextSpec};
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct RankBenchEntry {
    /// Configuration name.
    pub name: String,
    /// `"before"` for the per-character loop, `"after"` for `extend_all`.
    pub role: &'static str,
    /// Mean wall-clock nanoseconds per trie-node expansion.
    pub ns_per_node: f64,
    /// Occurrence-table block scans per expansion (exact, from the counter).
    pub block_scans_per_node: f64,
    /// Storage bytes examined per expansion (exact, from the counter).
    pub bytes_scanned_per_node: f64,
    /// Occurrence-table footprint of the configuration's index (BWT storage
    /// + checkpoint rows), in bytes.
    pub index_bytes: u64,
    /// On `after` entries, the configuration's `extend_all` speedup over
    /// the `extend_left` loop as the median of per-repetition paired ratios
    /// (the statistic the gate compares; see `measure`).
    pub paired_speedup: Option<f64>,
}

/// The full report written to `BENCH_rank.json`.
#[derive(Debug, Clone)]
pub struct RankBenchReport {
    /// The `--scale` the report was generated with (provenance: a committed
    /// baseline from non-default options is visible in the diff).
    pub scale: f64,
    /// The `--seed` the report was generated with.
    pub seed: u64,
    /// Protein text length used for the headline comparison.
    pub text_len: usize,
    /// Caller-visible code count of the headline comparison (σ + separator).
    pub code_count: usize,
    /// Number of trie nodes expanded per measured pass.
    pub nodes: usize,
    /// Speedup of `extend_all` over the `extend_left` loop (protein).
    pub speedup: f64,
    /// The measured configurations.
    pub entries: Vec<RankBenchEntry>,
}

impl RankBenchReport {
    /// The `extend_all` ("after") entry of a configuration, if measured.
    fn after(&self, config: &str) -> Option<&RankBenchEntry> {
        let prefix = format!("{config}/");
        self.entries
            .iter()
            .find(|e| e.role == "after" && e.name.starts_with(&prefix))
    }
}

/// The committed `after` entry line of `config` in a `BENCH_rank.json`
/// snapshot (one entry object per line), if present.
fn baseline_after<'a>(json: &'a str, config: &str) -> Option<&'a str> {
    let name = format!("\"name\": \"{config}/");
    json.lines()
        .find(|line| line.contains(&name) && line.contains("\"role\": \"after\""))
}

/// Configuration prefixes the gate tracks (a baseline predating a
/// configuration simply skips it).
const CHECKED_CONFIGS: &[&str] = &["protein_sigma21", "dna_packed"];

impl Report for RankBenchReport {
    /// Serialize as JSON (hand-rolled; the environment has no serde).
    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"benchmark\": \"rank_occ\",\n");
        out.push_str("  \"generated_by\": \"alae-experiments rank\",\n");
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"text_len\": {},\n", self.text_len));
        out.push_str(&format!("  \"code_count\": {},\n", self.code_count));
        out.push_str(&format!("  \"nodes\": {},\n", self.nodes));
        out.push_str(&format!(
            "  \"extend_all_speedup_vs_extend_left\": {:.2},\n",
            self.speedup
        ));
        out.push_str("  \"entries\": [\n");
        for (i, entry) in self.entries.iter().enumerate() {
            let paired = entry
                .paired_speedup
                .map(|speedup| format!(", \"paired_speedup\": {speedup:.2}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"role\": \"{}\", \"ns_per_node\": {:.1}, \
                 \"block_scans_per_node\": {:.1}, \"bytes_scanned_per_node\": {:.1}, \
                 \"index_bytes\": {}{paired}}}{}\n",
                entry.name,
                entry.role,
                entry.ns_per_node,
                entry.block_scans_per_node,
                entry.bytes_scanned_per_node,
                entry.index_bytes,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn print(&self) {
        println!(
            "occurrence layer: {} nodes over {} protein characters (σ+1 = {})",
            self.nodes, self.text_len, self.code_count
        );
        println!(
            "{:<34} {:>6} {:>12} {:>10} {:>10} {:>12}",
            "configuration", "role", "ns/node", "scans", "bytes", "index bytes"
        );
        for entry in &self.entries {
            println!(
                "{:<34} {:>6} {:>12.1} {:>10.1} {:>10.1} {:>12}",
                entry.name,
                entry.role,
                entry.ns_per_node,
                entry.block_scans_per_node,
                entry.bytes_scanned_per_node,
                entry.index_bytes
            );
        }
        println!(
            "extend_all speedup over the extend_left loop (protein): {:.2}x",
            self.speedup
        );
    }

    /// Compare against the committed baseline.
    ///
    /// Raw nanoseconds are not comparable across machines (the committed
    /// baseline and a CI runner differ), so throughput is gated on the
    /// *within-run* `extend_all`-vs-`extend_left` paired speedup of each
    /// configuration: the fresh one must stay within `tolerance` of the
    /// committed one.  Per-node block scans, a machine-independent
    /// invariant, are gated exactly: they must not grow (deterministic for a
    /// fixed scale/seed).
    fn check(&self, baseline_json: &str, tolerance: f64) -> CheckOutcome {
        let mut outcome = CheckOutcome::default();
        for config in CHECKED_CONFIGS {
            let Some(fresh) = self.after(config) else {
                continue;
            };
            let base = baseline_after(baseline_json, config);
            if let Some(now) = fresh.paired_speedup {
                let committed = base.and_then(|line| field_num(line, "paired_speedup"));
                outcome.check_ratio(config, now, committed, tolerance);
            }

            // Scans per node are exact and deterministic for a fixed
            // scale/seed; any growth is a real algorithmic regression.  Skip
            // when the committed snapshot carries no scan count.
            let base_scans = base
                .and_then(|line| field_num(line, "block_scans_per_node"))
                .unwrap_or(0.0);
            if base_scans > 0.0 && fresh.block_scans_per_node > base_scans + 1e-6 {
                outcome.failures.push(format!(
                    "{config}: block scans per node grew {base_scans:.2} -> {:.2}",
                    fresh.block_scans_per_node
                ));
            }
        }
        outcome
    }
}

/// Median of `values` (averaging the middle pair for even counts), or
/// `None` when empty.  Sorts in place.
fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        Some(values[mid])
    } else {
        Some((values[mid - 1] + values[mid]) / 2.0)
    }
}

/// Wall-clock nanoseconds of one invocation of `pass`.
fn time_once(pass: &mut impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let guard = pass();
    let elapsed = start.elapsed().as_secs_f64() * 1e9;
    std::hint::black_box(guard);
    elapsed
}

/// DFS-collect up to `cap` trie nodes from the top `max_depth` levels — a
/// representative mix of wide and narrow SA ranges.
fn collect_trie_nodes(index: &TextIndex, max_depth: usize, cap: usize) -> Vec<SuffixTrieCursor> {
    let mut nodes = Vec::new();
    let mut buf = ChildBuf::new();
    let mut stack = vec![index.root()];
    while let Some(cursor) = stack.pop() {
        if nodes.len() >= cap {
            break;
        }
        nodes.push(cursor);
        if cursor.depth >= max_depth {
            continue;
        }
        index.children_into(cursor, &mut buf);
        stack.extend(buf.iter().map(|&(_, child)| child));
    }
    nodes
}

/// Expand every node with the σ per-character `extend` loop (the layer the
/// single-scan `extend_all` replaced); returns the number of live children.
fn extend_left_pass(index: &TextIndex, nodes: &[SuffixTrieCursor]) -> usize {
    let code_count = index.code_count();
    let mut live = 0usize;
    for cursor in nodes {
        for code in 1..code_count as u8 {
            if index.extend(*cursor, code).is_some() {
                live += 1;
            }
        }
    }
    live
}

/// Expand every node with the single-scan `children_into` fan-out; returns
/// the number of live children.
fn extend_all_pass(index: &TextIndex, nodes: &[SuffixTrieCursor], buf: &mut ChildBuf) -> usize {
    let mut live = 0usize;
    for cursor in nodes {
        index.children_into(*cursor, buf);
        live += buf.len();
    }
    live
}

/// Measure one (index, node set) configuration both ways.  The two passes
/// are *interleaved* within each repetition (loop, then fan-out, N times)
/// so slow machine drift — CPU frequency, a noisy co-tenant — hits both
/// sides alike.  The speedup the CI gate checks is the **median of the
/// per-repetition paired ratios** (loop-time over fan-out-time within one
/// repetition), not a ratio of two best-of-N aggregates: pairing cancels
/// drift out of every individual ratio, and the median discards the
/// outlier repetitions (a descheduled pass, a page-cache miss) that made
/// the best-of-N gate flaky.  Per-node times in the report are medians of
/// the same repetitions.  Policy recorded in ROADMAP.md.
fn measure(
    name_prefix: &str,
    index: &TextIndex,
    nodes: &[SuffixTrieCursor],
    repetitions: usize,
    entries: &mut Vec<RankBenchEntry>,
) -> f64 {
    let n = nodes.len() as f64;
    let index_bytes = index.occ_size_in_bytes() as u64;

    // Before: the σ-scan per-character loop `children` used to perform.
    // After: the single-scan `extend_all` fan-out behind `children_into`.
    let mut loop_pass = || extend_left_pass(index, nodes);
    let mut buf = ChildBuf::new();
    let mut all_pass = || extend_all_pass(index, nodes, &mut buf);

    // Warm-up passes double as the exact scan-count measurement.
    let scans_before = index.scan_snapshot();
    let _ = loop_pass();
    let loop_scans = index.scan_snapshot().since(&scans_before);
    let scans_before = index.scan_snapshot();
    let _ = all_pass();
    let all_scans = index.scan_snapshot().since(&scans_before);

    let mut loop_times: Vec<f64> = Vec::with_capacity(repetitions);
    let mut all_times: Vec<f64> = Vec::with_capacity(repetitions);
    let mut ratios: Vec<f64> = Vec::with_capacity(repetitions);
    for _ in 0..repetitions {
        let loop_t = time_once(&mut loop_pass);
        let all_t = time_once(&mut all_pass);
        loop_times.push(loop_t);
        all_times.push(all_t);
        if all_t > 0.0 {
            ratios.push(loop_t / all_t);
        }
    }
    let loop_ns = median(&mut loop_times).unwrap_or(f64::INFINITY) / n;
    let all_ns = median(&mut all_times).unwrap_or(f64::INFINITY) / n;
    let paired = median(&mut ratios).unwrap_or(0.0);

    entries.push(RankBenchEntry {
        name: format!("{name_prefix}/extend_left_loop"),
        role: "before",
        ns_per_node: loop_ns,
        block_scans_per_node: loop_scans.block_scans as f64 / n,
        bytes_scanned_per_node: loop_scans.bytes_scanned as f64 / n,
        index_bytes,
        paired_speedup: None,
    });
    entries.push(RankBenchEntry {
        name: format!("{name_prefix}/extend_all"),
        role: "after",
        ns_per_node: all_ns,
        block_scans_per_node: all_scans.block_scans as f64 / n,
        bytes_scanned_per_node: all_scans.bytes_scanned as f64 / n,
        index_bytes,
        paired_speedup: Some(paired),
    });

    paired
}

/// Run the benchmark and build the report.
pub fn run(options: &ExperimentOptions) -> RankBenchReport {
    // Each pass is sub-millisecond, so a generous repetition count buys
    // noise immunity (paired-ratio medians; see `measure`) for the
    // committed baseline and the CI gate cheaply.
    let repetitions = 25;

    // Headline: protein alphabet (σ = 20 residues + separator = 21 codes),
    // where the per-character loop pays 2σ block scans per node.
    let text_len = (60_000_f64 * options.scale) as usize;
    let protein = generate_text(&TextSpec::protein(text_len.max(1_000), options.seed));
    let index = TextIndex::new(protein.codes(), Alphabet::Protein.code_count());
    let nodes = collect_trie_nodes(&index, 2, 2_000);

    let mut entries = Vec::new();
    let speedup = measure("protein_sigma21", &index, &nodes, repetitions, &mut entries);

    // DNA: the 2-bit packed popcount path the index builds for σ ≤ 6.
    let dna = generate_text(&TextSpec::dna(text_len.max(1_000), options.seed + 1));
    let dna_index = TextIndex::new(dna.codes(), Alphabet::Dna.code_count());
    let dna_nodes = collect_trie_nodes(&dna_index, 4, 2_000);
    measure(
        "dna_packed",
        &dna_index,
        &dna_nodes,
        repetitions,
        &mut entries,
    );

    RankBenchReport {
        scale: options.scale,
        seed: options.seed,
        text_len: index.len(),
        code_count: index.code_count(),
        nodes: nodes.len(),
        speedup,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> ExperimentOptions {
        ExperimentOptions {
            scale: 0.02,
            queries_per_point: 1,
            seed: 5,
            bench_check: None,
        }
    }

    #[test]
    fn scan_counts_match_the_analytic_model() {
        let report = run(&tiny_options());
        // Protein: the loop pays 2σ block scans per node, extend_all pays 2.
        let sigma = (report.code_count - 1) as f64;
        let loop_entry = &report.entries[0];
        let all_entry = &report.entries[1];
        assert_eq!(loop_entry.role, "before");
        assert_eq!(all_entry.role, "after");
        assert!(
            (loop_entry.block_scans_per_node - 2.0 * sigma).abs() < 1e-9,
            "loop scans {}",
            loop_entry.block_scans_per_node
        );
        assert!((all_entry.block_scans_per_node - 2.0).abs() < 1e-9);
        assert!(report.speedup > 0.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(&tiny_options());
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"rank_occ\""));
        assert!(json.contains("\"scale\": 0.02"));
        assert!(json.contains("\"seed\": 5"));
        assert!(json.contains("extend_left_loop"));
        assert!(json.contains("extend_all"));
        for config in CHECKED_CONFIGS {
            assert!(
                json.contains(&format!("\"{config}/extend_all\"")),
                "{config}"
            );
        }
        assert!(json.contains("\"index_bytes\""));
        assert_eq!(json.matches("\"role\": \"before\"").count(), 2);
        assert_eq!(json.matches("\"role\": \"after\"").count(), 2);
        assert_eq!(json.matches("\"paired_speedup\"").count(), 2);
    }

    #[test]
    fn entries_round_trip_through_the_parser() {
        // Everything the gate reads back from a snapshot: each
        // configuration's paired speedup and scans per node.
        let report = run(&tiny_options());
        let json = report.to_json();
        for config in CHECKED_CONFIGS {
            let original = report.after(config).unwrap();
            let line = baseline_after(&json, config).unwrap();
            let paired = field_num(line, "paired_speedup").unwrap();
            assert!((paired - original.paired_speedup.unwrap()).abs() < 0.01);
            let scans = format!("{:.1}", original.block_scans_per_node);
            assert_eq!(field_num(line, "block_scans_per_node"), scans.parse().ok());
        }
    }

    #[test]
    fn check_passes_against_its_own_snapshot() {
        let report = run(&tiny_options());
        let outcome = report.check(&report.to_json(), 0.15);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(outcome.notes.iter().filter(|n| n.ends_with(" ok")).count() >= 2);
    }

    #[test]
    fn check_flags_a_speedup_regression() {
        let report = run(&tiny_options());
        // A baseline whose committed paired speedups sit far above the fresh
        // ones while its entry times reproduce the fresh speedups exactly:
        // the gate must compare paired medians on both sides, so only the
        // paired statistic can (and must) fail it.
        let mut baseline = report.clone();
        for pair in baseline.entries.chunks_mut(2) {
            let paired = pair[1].paired_speedup.unwrap();
            pair[0].ns_per_node = pair[1].ns_per_node * paired;
            pair[1].paired_speedup = Some(paired * 2.0);
        }
        let outcome = report.check(&baseline.to_json(), 0.15);
        assert_eq!(outcome.failures.len(), 2, "{:?}", outcome.failures);
        assert!(outcome.failures.iter().all(|f| f.contains("speedup")));
    }

    #[test]
    fn check_skips_configs_missing_from_the_baseline() {
        let report = run(&tiny_options());
        let outcome = report.check("{\n  \"entries\": [\n  ]\n}\n", 0.15);
        assert!(outcome.failures.is_empty());
        assert!(outcome.notes.iter().any(|n| n.contains("not in baseline")));
    }
}
