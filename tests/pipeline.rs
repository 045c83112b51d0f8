//! End-to-end pipeline tests exercising the public API the way the examples
//! and the experiment harness do: FASTA in, E-value thresholds, heuristic
//! vs exact comparison, and index sharing.

use alae::bioseq::fasta::read_fasta_str;
use alae::bioseq::{Alphabet, ScoringScheme, SequenceDatabase};
use alae::blast::{BlastConfig, BlastLikeAligner};
use alae::bwtsw::{BwtswAligner, BwtswConfig};
use alae::core::{AlaeAligner, AlaeConfig};
use alae::suffix::TextIndex;
use alae::workload::{MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};
use std::sync::Arc;

#[test]
fn fasta_to_hits_pipeline() {
    let fasta = ">chr1\nTTGACCATTGCAGTCAGGTTCAACGGTACT\nGACGGTCAGTTCAGGATCCAGTTGACCATTGCA\n\
                 >chr2\nACGGTCAGTTCAGGATCCAGTTGACC\n";
    let records = read_fasta_str(Alphabet::Dna, fasta).unwrap();
    assert_eq!(records.len(), 2);
    let database = SequenceDatabase::from_sequences(Alphabet::Dna, records);
    let query = Alphabet::Dna.encode(b"CAGTTCAGGATCCAGTTGACC").unwrap();
    let aligner = AlaeAligner::build(
        &database,
        AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 15),
    );
    let result = aligner.align(&query);
    assert!(!result.hits.is_empty());
    // Every hit maps back into a record (never onto a separator).
    for hit in &result.hits {
        assert!(database.locate(hit.end_text).is_some());
    }
}

#[test]
fn heuristic_never_finds_more_than_the_exact_engine() {
    let workload = WorkloadBuilder::new(
        TextSpec::dna(6_000, 3),
        QuerySpec {
            count: 3,
            length: 250,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: 4,
        },
    )
    .build();
    let scheme = ScoringScheme::DEFAULT;
    let alae = AlaeAligner::build(&workload.database, AlaeConfig::with_evalue(scheme, 10.0));
    for query in &workload.queries {
        let exact = alae.align(query.codes());
        let blast = BlastLikeAligner::build(
            &workload.database,
            BlastConfig::for_alphabet(Alphabet::Dna, scheme, exact.threshold),
        )
        .align(query.codes());
        assert!(blast.hits.len() <= exact.hits.len());
        // Every heuristic hit's score is admissible (≥ threshold); heuristic
        // scores never exceed the true optimum for the same end pair.
        let exact_best: std::collections::HashMap<(usize, usize), i64> = exact
            .hits
            .iter()
            .map(|h| ((h.end_text, h.end_query), h.score))
            .collect();
        for hit in &blast.hits {
            assert!(hit.score >= exact.threshold);
            if let Some(&best) = exact_best.get(&(hit.end_text, hit.end_query)) {
                assert!(hit.score <= best);
            }
        }
    }
}

#[test]
fn shared_index_gives_identical_results_to_private_indexes() {
    let workload = WorkloadBuilder::new(
        TextSpec::dna(3_000, 13),
        QuerySpec {
            count: 2,
            length: 150,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: 14,
        },
    )
    .build();
    let scheme = ScoringScheme::DEFAULT;
    let threshold = 20;
    let shared = Arc::new(TextIndex::new(
        workload.database.text(),
        workload.database.alphabet().code_count(),
    ));
    for query in &workload.queries {
        let from_shared = AlaeAligner::with_index(
            shared.clone(),
            Alphabet::Dna,
            AlaeConfig::with_threshold(scheme, threshold),
        )
        .align(query.codes());
        let from_private = AlaeAligner::build(
            &workload.database,
            AlaeConfig::with_threshold(scheme, threshold),
        )
        .align(query.codes());
        assert_eq!(from_shared.hits, from_private.hits);
        let bwtsw_shared =
            BwtswAligner::with_index(shared.clone(), BwtswConfig::new(scheme, threshold))
                .align(query.codes());
        assert_eq!(from_shared.hits, bwtsw_shared.hits);
    }
}

#[test]
fn evalue_sweep_shrinks_result_sets_monotonically() {
    let workload = WorkloadBuilder::new(
        TextSpec::dna(5_000, 23),
        QuerySpec {
            count: 1,
            length: 300,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: 24,
        },
    )
    .build();
    let query = workload.queries[0].codes();
    let mut previous_hits = usize::MAX;
    let mut previous_threshold = 0;
    // From permissive (E = 10) to stringent (E = 1e-15).
    for evalue in [10.0, 1.0, 1e-5, 1e-10, 1e-15] {
        let aligner = AlaeAligner::build(
            &workload.database,
            AlaeConfig::with_evalue(ScoringScheme::DEFAULT, evalue),
        );
        let result = aligner.align(query);
        assert!(result.threshold >= previous_threshold);
        assert!(result.hits.len() <= previous_hits);
        previous_hits = result.hits.len();
        previous_threshold = result.threshold;
    }
}

#[test]
fn index_sizes_scale_with_text_length() {
    let small = WorkloadBuilder::new(
        TextSpec::dna(2_000, 31),
        QuerySpec {
            count: 1,
            length: 100,
            mutation: MutationProfile::EXACT,
            seed: 32,
        },
    )
    .build();
    let large = WorkloadBuilder::new(
        TextSpec::dna(8_000, 31),
        QuerySpec {
            count: 1,
            length: 100,
            mutation: MutationProfile::EXACT,
            seed: 32,
        },
    )
    .build();
    let config = AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 10.0);
    let small_aligner = AlaeAligner::build(&small.database, config);
    let large_aligner = AlaeAligner::build(&large.database, config);
    assert!(large_aligner.bwt_index_size_bytes() > small_aligner.bwt_index_size_bytes());
}
