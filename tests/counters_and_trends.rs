//! Trend-level checks on the work counters: the qualitative claims of
//! Section 7 (ALAE calculates fewer entries than BWT-SW, filtering and reuse
//! ratios behave as the paper describes) must hold even at test scale.

use alae::bioseq::{Alphabet, ScoringScheme};
use alae::bwtsw::{BwtswAligner, BwtswConfig};
use alae::core::analysis::expected_entry_bound;
use alae::core::{AlaeAligner, AlaeConfig, FilterToggles};
use alae::workload::{MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};
use std::sync::Arc;

fn workload(text_len: usize, query_len: usize, seed: u64) -> alae::workload::Workload {
    WorkloadBuilder::new(
        TextSpec::dna(text_len, seed),
        QuerySpec {
            count: 1,
            length: query_len,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: seed + 1,
        },
    )
    // Conserved segments embedded in random background — the workload shape
    // of the paper's cross-species experiments (see DESIGN.md).
    .build_segmented(2)
}

#[test]
fn alae_calculates_fewer_entries_than_bwtsw_and_filters_most_of_them() {
    let workload = workload(8_000, 300, 77);
    let query = workload.queries[0].codes();
    let scheme = ScoringScheme::DEFAULT;
    let index = Arc::new(alae::suffix::TextIndex::new(
        workload.database.text(),
        workload.database.alphabet().code_count(),
    ));
    let alae = AlaeAligner::with_index(
        index.clone(),
        Alphabet::Dna,
        AlaeConfig::with_threshold(scheme, 25),
    )
    .align(query);
    let bwtsw =
        BwtswAligner::with_index(index, BwtswConfig::new(scheme, alae.threshold)).align(query);
    assert_eq!(alae.hits.len(), bwtsw.hits.len(), "exact engines agree");
    assert!(alae.stats.calculated_entries() < bwtsw.stats.calculated_entries);
    // The paper reports filtering ratios of 50–80% for the default scheme on
    // 100 M – 1 G texts; the ratio shrinks with the text because the planted
    // segments account for a larger share of the total work, so at this test
    // scale we only require a clearly positive ratio.
    let ratio = alae.stats.filtering_ratio(bwtsw.stats.calculated_entries);
    assert!(ratio > 5.0, "filtering ratio too low: {ratio:.1}%");
    // Cost accounting: ALAE's weighted cost beats BWT-SW's 3-per-entry cost.
    assert!(alae.stats.computation_cost() < bwtsw.stats.computation_cost());
}

#[test]
fn repetitive_queries_reuse_more_than_random_queries() {
    // A query made of a repeated block reuses heavily; an extracted
    // non-repetitive query reuses little.
    let base = workload(6_000, 240, 5);
    let scheme = ScoringScheme::DEFAULT;
    let config = AlaeConfig::with_evalue(scheme, 10.0);
    let aligner = AlaeAligner::build(&base.database, config);

    let natural = aligner.align(base.queries[0].codes());

    let block: Vec<u8> = base.queries[0].codes()[..40].to_vec();
    let mut repetitive = Vec::new();
    for _ in 0..6 {
        repetitive.extend_from_slice(&block);
    }
    let repeated = aligner.align(&repetitive);

    assert!(
        repeated.stats.reusing_ratio() > natural.stats.reusing_ratio(),
        "repetitive query should reuse more: {:.1}% vs {:.1}%",
        repeated.stats.reusing_ratio(),
        natural.stats.reusing_ratio()
    );
    assert!(repeated.stats.reused_entries > 0);
}

#[test]
fn domination_filter_skips_forks_on_repetitive_texts() {
    // A text with long duplicated segments produces dominated q-grams.
    let workload = workload(10_000, 400, 13);
    let query = workload.queries[0].codes();
    let filtered = AlaeAligner::build(
        &workload.database,
        AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 10.0),
    )
    .align(query);
    let unfiltered = AlaeAligner::build(
        &workload.database,
        AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 10.0).filters(FilterToggles {
            domination_filter: false,
            ..FilterToggles::ALL
        }),
    )
    .align(query);
    assert_eq!(filtered.hits, unfiltered.hits);
    assert!(filtered.stats.forks_started <= unfiltered.stats.forks_started);
    assert_eq!(unfiltered.stats.forks_dominated, 0);
}

#[test]
fn weak_mismatch_penalties_cost_more_as_the_analysis_predicts() {
    // Section 6 / Figure 9: <1,-1,-5,-2> has a much larger exponent than the
    // default scheme, so ALAE must calculate more entries on the same
    // workload.
    let workload = workload(5_000, 200, 29);
    let query = workload.queries[0].codes();
    let default_run = AlaeAligner::build(
        &workload.database,
        AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 10.0),
    )
    .align(query);
    let weak_scheme = ScoringScheme::new(1, -1, -5, -2).unwrap();
    let weak_run = AlaeAligner::build(
        &workload.database,
        AlaeConfig::with_evalue(weak_scheme, 10.0),
    )
    .align(query);
    assert!(
        weak_run.stats.calculated_entries() > default_run.stats.calculated_entries(),
        "weak mismatch penalty should calculate more entries ({} vs {})",
        weak_run.stats.calculated_entries(),
        default_run.stats.calculated_entries()
    );
    // The analytic models predict the same ordering.
    let default_model = expected_entry_bound(Alphabet::Dna, &ScoringScheme::DEFAULT).unwrap();
    let weak_model = expected_entry_bound(Alphabet::Dna, &weak_scheme).unwrap();
    assert!(weak_model.exponent > default_model.exponent);
}

#[test]
fn smaller_evalues_never_increase_the_work() {
    let workload = workload(6_000, 300, 41);
    let query = workload.queries[0].codes();
    let loose = AlaeAligner::build(
        &workload.database,
        AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 10.0),
    )
    .align(query);
    let strict = AlaeAligner::build(
        &workload.database,
        AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 1e-10),
    )
    .align(query);
    assert!(strict.threshold > loose.threshold);
    assert!(strict.stats.calculated_entries() <= loose.stats.calculated_entries());
    assert!(strict.hits.len() <= loose.hits.len());
}

#[test]
fn index_size_split_matches_figure_11_shape_for_dna() {
    // Figure 11(a): the BWT index is the whole index (Lemma 1 is answered
    // from it, so no dominate index sits beside it), and for DNA it takes
    // under a byte per text character: a 2-bit packed BWT, its checkpoint
    // rows and sparse suffix-array samples.
    let workload = workload(20_000, 100, 61);
    let aligner = AlaeAligner::build(
        &workload.database,
        AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 10.0),
    );
    let per_char = aligner.bwt_index_size_bytes() as f64 / workload.database.text_len() as f64;
    assert!(
        per_char < 1.0,
        "BWT index too large for DNA: {per_char:.3} bytes per character"
    );
}
