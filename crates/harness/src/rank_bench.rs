//! Occurrence-layer micro-benchmark: one `extend_all` fan-out versus the σ
//! per-character `extend_left` loop it replaces, measured per rank layout —
//! protein (σ = 21 codes, byte layout), a reduced-protein nibble-packed
//! layout versus its byte-layout twin, and packed DNA.  Writes the
//! measurements (including per-layout occurrence-table bytes) to
//! `BENCH_rank.json` so successive PRs accumulate a perf trajectory, and
//! implements the `--check` mode the CI perf-regression gate runs against
//! the committed snapshot.

use crate::experiments::ExperimentOptions;
use alae_bioseq::Alphabet;
use alae_suffix::{ChildBuf, IndexOptions, RankLayout, SuffixTrieCursor, TextIndex};
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
    /// Occurrence-table block scans per expansion (exact, from the counter;
    /// zero when the `occ-counters` feature is disabled).
    pub block_scans_per_node: f64,
    /// Storage bytes examined per expansion (exact, from the counter).
    pub bytes_scanned_per_node: f64,
    /// Occurrence-table footprint of the configuration's index (BWT storage
    /// + checkpoint rows), in bytes.
    pub index_bytes: u64,
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
    /// Per-configuration extend_all-vs-extend_left speedups as medians of
    /// per-repetition paired ratios (the gate's noise-robust statistic;
    /// see ROADMAP.md, "rank gate flakiness").
    pub paired_speedups: Vec<(String, f64)>,
    /// The measured configurations.
    pub entries: Vec<RankBenchEntry>,
}

impl RankBenchReport {
    /// Serialize as JSON (hand-rolled; the environment has no serde).
    pub fn to_json(&self) -> String {
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
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"role\": \"{}\", \"ns_per_node\": {:.1}, \
                 \"block_scans_per_node\": {:.1}, \"bytes_scanned_per_node\": {:.1}, \
                 \"index_bytes\": {}}}{}\n",
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

    /// The `extend_all` ("after") entry of a configuration, if measured.
    fn after(&self, config: &str) -> Option<&RankBenchEntry> {
        let prefix = format!("{config}/");
        self.entries
            .iter()
            .find(|e| e.role == "after" && e.name.starts_with(&prefix))
    }

    /// The within-run speedup of `extend_all` over the `extend_left` loop
    /// for one configuration prefix — the paired-ratio median when this
    /// report measured it, the entry-time ratio otherwise (reports parsed
    /// back from older snapshots).
    fn config_speedup(&self, config: &str) -> Option<f64> {
        if let Some((_, paired)) = self.paired_speedups.iter().find(|(name, _)| name == config) {
            return Some(*paired);
        }
        let prefix = format!("{config}/");
        let before = self
            .entries
            .iter()
            .find(|e| e.role == "before" && e.name.starts_with(&prefix))?;
        let after = self.after(config)?;
        if after.ns_per_node > 0.0 {
            Some(before.ns_per_node / after.ns_per_node)
        } else {
            None
        }
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
    paired_speedups: &mut Vec<(String, f64)>,
) -> f64 {
    let n = nodes.len() as f64;
    let index_bytes = index.occ_size_in_bytes() as u64;

    // Before: the σ-scan per-character loop `children` used to perform.
    // After: the single-scan `extend_all` fan-out behind `children_into`.
    let mut loop_pass = || alae_bench::extend_left_pass(index, nodes);
    let mut buf = ChildBuf::new();
    let mut all_pass = || alae_bench::extend_all_pass(index, nodes, &mut buf);

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
    paired_speedups.push((name_prefix.to_string(), paired));

    entries.push(RankBenchEntry {
        name: format!("{name_prefix}/extend_left_loop"),
        role: "before",
        ns_per_node: loop_ns,
        block_scans_per_node: loop_scans.block_scans as f64 / n,
        bytes_scanned_per_node: loop_scans.bytes_scanned as f64 / n,
        index_bytes,
    });
    entries.push(RankBenchEntry {
        name: format!("{name_prefix}/extend_all"),
        role: "after",
        ns_per_node: all_ns,
        block_scans_per_node: all_scans.block_scans as f64 / n,
        bytes_scanned_per_node: all_scans.bytes_scanned as f64 / n,
        index_bytes,
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
    let protein_codes = protein.codes().to_vec();
    let index = TextIndex::new(protein_codes.clone(), Alphabet::Protein.code_count());
    let nodes = alae_bench::collect_trie_nodes(&index, 2, 2_000);

    let mut entries = Vec::new();
    let mut paired_speedups = Vec::new();
    let speedup = measure(
        "protein_sigma21",
        &index,
        &nodes,
        repetitions,
        &mut entries,
        &mut paired_speedups,
    );

    // Reduced protein alphabet (σ = 15 + separator = 16 codes): the 4-bit
    // nibble-packed popcount path versus the generic byte path on the same
    // text.
    let reduced = alae_bench::reduce_alphabet(&protein_codes, 15);
    for (label, layout) in [
        ("protein_reduced15_nibble", RankLayout::PackedNibble),
        ("protein_reduced15_bytes", RankLayout::Bytes),
    ] {
        let reduced_index = IndexOptions::new()
            .layout(layout)
            .build_text_index(reduced.clone(), 16);
        let reduced_nodes = alae_bench::collect_trie_nodes(&reduced_index, 2, 2_000);
        measure(
            label,
            &reduced_index,
            &reduced_nodes,
            repetitions,
            &mut entries,
            &mut paired_speedups,
        );
    }

    // DNA: the 2-bit packed popcount path `Auto` selects for σ ≤ 6.
    let dna = generate_text(&TextSpec::dna(text_len.max(1_000), options.seed + 1));
    let dna_index = IndexOptions::new()
        .layout(RankLayout::PackedDna)
        .build_text_index(dna.codes().to_vec(), Alphabet::Dna.code_count());
    let dna_nodes = alae_bench::collect_trie_nodes(&dna_index, 4, 2_000);
    measure(
        "dna_packed",
        &dna_index,
        &dna_nodes,
        repetitions,
        &mut entries,
        &mut paired_speedups,
    );

    RankBenchReport {
        scale: options.scale,
        seed: options.seed,
        text_len: index.len(),
        code_count: index.code_count(),
        nodes: nodes.len(),
        speedup,
        paired_speedups,
        entries,
    }
}

/// Where to write a committed benchmark snapshot named `file_name`:
/// `$ALAE_BENCH_DIR` if set, else the enclosing workspace root (nearest
/// ancestor of the CWD holding `Cargo.toml` and `crates/suffix/`) so runs
/// from anywhere inside a checkout update its committed baseline, else the
/// CWD.  Shared by the rank and search benchmarks.
pub(crate) fn snapshot_path(file_name: &str) -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("ALAE_BENCH_DIR") {
        return std::path::PathBuf::from(dir).join(file_name);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    let mut dir = cwd.as_path();
    loop {
        // `crates/suffix` is specific to this workspace, so the walk cannot
        // stop at the root of some other repository that also has `crates/`.
        if dir.join("Cargo.toml").is_file() && dir.join("crates/suffix").is_dir() {
            return dir.join(file_name);
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => break,
        }
    }
    cwd.join(file_name)
}

/// The rank benchmark's committed snapshot location.
fn bench_output_path() -> std::path::PathBuf {
    snapshot_path("BENCH_rank.json")
}

/// Run and print a human-readable table without touching the committed
/// `BENCH_rank.json` baseline (used by the `all` experiment sweep, whose
/// scale/seed usually differ from the baseline's).
pub fn run_and_print(options: &ExperimentOptions) {
    let report = run(options);
    print_report(&report);
}

/// Run, print, and write `BENCH_rank.json`.
pub fn run_and_write(options: &ExperimentOptions) {
    let report = run(options);
    print_report(&report);
    write_snapshot(&report);
}

fn write_snapshot(report: &RankBenchReport) {
    let path = bench_output_path();
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
}

/// Run, compare against the committed `BENCH_rank.json`, optionally refresh
/// the snapshot (`refresh` is only true for runs at the baseline's default
/// scale/seed), and return `false` when the run regressed beyond `tolerance`
/// (the CI perf gate; see [`check_against_baseline`] for the rules).
pub fn run_and_check(options: &ExperimentOptions, tolerance: f64, refresh: bool) -> bool {
    let path = bench_output_path();
    let baseline = std::fs::read_to_string(&path).ok();
    let report = run(options);
    print_report(&report);
    let Some(baseline) = baseline else {
        println!(
            "no committed baseline at {}; nothing to check against",
            path.display()
        );
        if refresh {
            write_snapshot(&report);
        }
        return true;
    };
    let outcome = check_against_baseline(&baseline, &report, tolerance);
    for note in &outcome.notes {
        println!("check: {note}");
    }
    if outcome.failures.is_empty() {
        println!("check: OK (tolerance {:.0}%)", tolerance * 100.0);
        // Refresh only after the gate passes: a failing run must leave the
        // committed baseline in place, so re-running `--check` still
        // compares against the pre-regression numbers.
        if refresh {
            write_snapshot(&report);
        }
        true
    } else {
        for failure in &outcome.failures {
            eprintln!("check FAILED: {failure}");
        }
        eprintln!(
            "check FAILED: baseline at {} left untouched",
            path.display()
        );
        false
    }
}

/// Result of comparing a fresh run against the committed baseline.
#[derive(Debug, Default)]
pub struct CheckOutcome {
    /// Human-readable regressions; non-empty fails the gate.
    pub failures: Vec<String>,
    /// Informational per-configuration comparisons.
    pub notes: Vec<String>,
}

/// A subset of one baseline entry parsed back out of `BENCH_rank.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEntry {
    /// Configuration name (e.g. `protein_sigma21/extend_all`).
    pub name: String,
    /// `"before"` or `"after"`.
    pub role: String,
    /// Mean wall-clock nanoseconds per node.
    pub ns_per_node: f64,
    /// Block scans per node (0 when counters were disabled).
    pub block_scans_per_node: f64,
    /// Occurrence-table bytes (absent in pre-two-level snapshots).
    pub index_bytes: Option<f64>,
}

/// Extract a string field from one serialized entry object.
pub(crate) fn field_str(object: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = object.find(&marker)? + marker.len();
    let end = object[start..].find('"')? + start;
    Some(object[start..end].to_string())
}

/// Extract a numeric field from one serialized entry object.
pub(crate) fn field_num(object: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\": ");
    let start = object.find(&marker)? + marker.len();
    let end = object[start..]
        .find([',', '}', '\n'])
        .map_or(object.len(), |e| e + start);
    object[start..end].trim().parse().ok()
}

/// Parse the `entries` array of a `BENCH_rank.json` snapshot.  The format is
/// the workspace's own (one object per line, written by
/// [`RankBenchReport::to_json`]), so a full JSON parser is unnecessary.
pub fn parse_entries(json: &str) -> Vec<ParsedEntry> {
    let mut entries = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if !(line.starts_with('{') && line.contains("\"name\"")) {
            continue;
        }
        let (Some(name), Some(role)) = (field_str(line, "name"), field_str(line, "role")) else {
            continue;
        };
        let Some(ns_per_node) = field_num(line, "ns_per_node") else {
            continue;
        };
        entries.push(ParsedEntry {
            name,
            role,
            ns_per_node,
            block_scans_per_node: field_num(line, "block_scans_per_node").unwrap_or(0.0),
            index_bytes: field_num(line, "index_bytes"),
        });
    }
    entries
}

/// Configuration prefixes the gate tracks (a baseline predating a
/// configuration simply skips it).
const CHECKED_CONFIGS: &[&str] = &[
    "protein_sigma21",
    "protein_reduced15_nibble",
    "protein_reduced15_bytes",
    "dna_packed",
];

/// Compare a fresh report against the committed baseline.
///
/// Raw nanoseconds are not comparable across machines (the committed
/// baseline and a CI runner differ), so throughput is gated on the
/// *within-run* `extend_all`-vs-`extend_left` speedup of each
/// configuration: the fresh speedup must stay within `tolerance` of the
/// baseline's.  Two machine-independent invariants are gated exactly:
/// per-node block scans must not grow (deterministic for a fixed
/// scale/seed), and the nibble-packed index must stay smaller than its
/// byte-layout twin.
pub fn check_against_baseline(
    baseline_json: &str,
    fresh: &RankBenchReport,
    tolerance: f64,
) -> CheckOutcome {
    let baseline = parse_entries(baseline_json);
    let mut outcome = CheckOutcome::default();
    let base_speedup = |config: &str| -> Option<f64> {
        let prefix = format!("{config}/");
        let before = baseline
            .iter()
            .find(|e| e.role == "before" && e.name.starts_with(&prefix))?;
        let after = baseline
            .iter()
            .find(|e| e.role == "after" && e.name.starts_with(&prefix))?;
        (after.ns_per_node > 0.0).then(|| before.ns_per_node / after.ns_per_node)
    };

    for config in CHECKED_CONFIGS {
        let (Some(base), Some(now)) = (base_speedup(config), fresh.config_speedup(config)) else {
            outcome
                .notes
                .push(format!("{config}: not in baseline, skipped"));
            continue;
        };
        let floor = base * (1.0 - tolerance);
        if now < floor {
            outcome.failures.push(format!(
                "{config}: extend_all speedup {now:.2}x fell below baseline {base:.2}x \
                 - {:.0}% tolerance ({floor:.2}x)",
                tolerance * 100.0
            ));
        } else {
            outcome.notes.push(format!(
                "{config}: speedup {now:.2}x (baseline {base:.2}x) ok"
            ));
        }

        // Scans per node are exact and deterministic for a fixed
        // scale/seed; any growth is a real algorithmic regression.  Skip
        // when either side was built without the occ-counters feature.
        let prefix = format!("{config}/");
        let base_after = baseline
            .iter()
            .find(|e| e.role == "after" && e.name.starts_with(&prefix));
        let fresh_after = fresh.after(config);
        if let (Some(base_after), Some(fresh_after)) = (base_after, fresh_after) {
            if base_after.block_scans_per_node > 0.0
                && fresh_after.block_scans_per_node > 0.0
                && fresh_after.block_scans_per_node > base_after.block_scans_per_node + 1e-6
            {
                outcome.failures.push(format!(
                    "{config}: block scans per node grew {:.2} -> {:.2}",
                    base_after.block_scans_per_node, fresh_after.block_scans_per_node
                ));
            }
        }
    }

    // Index-size ordering within the fresh run (machine-independent).
    let size_of = |config: &str| fresh.after(config).map(|e| e.index_bytes);
    if let (Some(nibble), Some(bytes)) = (
        size_of("protein_reduced15_nibble"),
        size_of("protein_reduced15_bytes"),
    ) {
        if nibble >= bytes {
            outcome.failures.push(format!(
                "nibble-packed index ({nibble} B) is not smaller than the byte layout ({bytes} B)"
            ));
        } else {
            outcome.notes.push(format!(
                "reduced-protein index bytes: nibble {nibble} < bytes {bytes} ok"
            ));
        }
    }

    outcome
}

fn print_report(report: &RankBenchReport) {
    println!(
        "occurrence layer: {} nodes over {} protein characters (σ+1 = {})",
        report.nodes, report.text_len, report.code_count
    );
    println!(
        "{:<34} {:>6} {:>12} {:>10} {:>10} {:>12}",
        "configuration", "role", "ns/node", "scans", "bytes", "index bytes"
    );
    for entry in &report.entries {
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
        report.speedup
    );
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

    #[cfg(feature = "occ-counters")]
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
    fn nibble_index_is_smaller_than_its_byte_twin() {
        let report = run(&tiny_options());
        let nibble = report
            .after("protein_reduced15_nibble")
            .unwrap()
            .index_bytes;
        let bytes = report.after("protein_reduced15_bytes").unwrap().index_bytes;
        assert!(nibble < bytes, "nibble {nibble} vs bytes {bytes}");
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
        assert_eq!(json.matches("\"role\": \"before\"").count(), 4);
        assert_eq!(json.matches("\"role\": \"after\"").count(), 4);
    }

    #[test]
    fn entries_round_trip_through_the_parser() {
        let report = run(&tiny_options());
        let parsed = parse_entries(&report.to_json());
        assert_eq!(parsed.len(), report.entries.len());
        for (parsed, original) in parsed.iter().zip(&report.entries) {
            assert_eq!(parsed.name, original.name);
            assert_eq!(parsed.role, original.role);
            assert!((parsed.ns_per_node - original.ns_per_node).abs() < 0.1);
            assert_eq!(parsed.index_bytes, Some(original.index_bytes as f64));
        }
    }

    #[test]
    fn check_passes_against_its_own_snapshot() {
        let report = run(&tiny_options());
        let outcome = check_against_baseline(&report.to_json(), &report, 0.15);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(!outcome.notes.is_empty());
    }

    #[test]
    fn check_flags_a_speedup_regression() {
        let report = run(&tiny_options());
        // Inflate the baseline's recorded extend_all throughput so the fresh
        // run's within-run speedup falls beyond any reasonable tolerance.
        let mut inflated = report.clone();
        for entry in &mut inflated.entries {
            if entry.role == "after" {
                entry.ns_per_node /= 10.0;
            }
        }
        let outcome = check_against_baseline(&inflated.to_json(), &report, 0.15);
        assert!(!outcome.failures.is_empty());
    }

    #[test]
    fn check_skips_configs_missing_from_the_baseline() {
        let report = run(&tiny_options());
        let outcome = check_against_baseline("{\n  \"entries\": [\n  ]\n}\n", &report, 0.15);
        assert!(outcome.failures.is_empty());
        assert!(outcome.notes.iter().any(|n| n.contains("not in baseline")));
    }
}
