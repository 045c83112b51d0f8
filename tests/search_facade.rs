//! Integration tests for the unified `alae::search` facade: cross-engine
//! agreement through the engine-agnostic `LocalAligner` trait, batch-vs-
//! sequential identity, streaming sinks and record resolution.

use alae::bioseq::{Alphabet, ScoringScheme, Sequence};
use alae::search::{
    build_engine, CollectSink, EngineKind, FnSink, IndexBuilder, IndexedDatabase, SearchRequest,
    Searcher, SinkFlow,
};
use alae::workload::{MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};

/// Build an indexed workload: a synthetic database plus homologous queries.
fn workload(
    alphabet: Alphabet,
    text_len: usize,
    queries: usize,
    query_len: usize,
    seed: u64,
) -> (IndexedDatabase, Vec<Sequence>) {
    let spec = match alphabet {
        Alphabet::Dna => TextSpec::dna(text_len, seed),
        Alphabet::Protein => TextSpec::protein(text_len, seed),
    };
    let built = WorkloadBuilder::new(
        spec,
        QuerySpec {
            count: queries,
            length: query_len,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: seed + 1,
        },
    )
    .build();
    (IndexBuilder::new().index(built.database), built.queries)
}

/// The exact engines (ALAE, BWT-SW, Smith–Waterman) must report
/// bit-identical record-resolved hit vectors when driven uniformly through
/// the `LocalAligner` trait, and the heuristic must report a subset.
fn assert_cross_engine_agreement(
    db: &IndexedDatabase,
    queries: &[Sequence],
    request: SearchRequest,
) {
    let exact: Vec<EngineKind> = EngineKind::ALL
        .into_iter()
        .filter(|kind| kind.is_exact())
        .collect();
    for (qi, query) in queries.iter().enumerate() {
        let mut reference: Option<(EngineKind, alae::search::SearchResponse)> = None;
        for &kind in &exact {
            let searcher = Searcher::new(db.clone(), request.engine(kind));
            let response = searcher.search(query);
            assert_eq!(response.engine, kind);
            match &reference {
                None => reference = Some((kind, response)),
                Some((ref_kind, ref_response)) => {
                    assert_eq!(
                        ref_response.threshold, response.threshold,
                        "query {qi}: {ref_kind} vs {kind} disagree on the threshold"
                    );
                    assert_eq!(
                        ref_response.hits, response.hits,
                        "query {qi}: {ref_kind} vs {kind} disagree on the hit set"
                    );
                }
            }
        }
        // The heuristic never reports a hit the exact engines missed, and
        // never overscores an end pair.
        let (_, exact_response) = reference.expect("at least one exact engine ran");
        let blast = Searcher::new(db.clone(), request.engine(EngineKind::BlastLike)).search(query);
        assert!(blast.hits.len() <= exact_response.hits.len());
        for hit in &blast.hits {
            let best = exact_response
                .hits
                .iter()
                .find(|e| e.text_end == hit.text_end && e.query_end == hit.query_end)
                .unwrap_or_else(|| panic!("query {qi}: heuristic-only hit {hit:?}"));
            assert!(hit.score <= best.score);
        }
    }
}

#[test]
fn dna_engines_agree_through_the_trait() {
    let (db, queries) = workload(Alphabet::Dna, 4_000, 3, 150, 9);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 25);
    assert_cross_engine_agreement(&db, &queries, request);
}

#[test]
fn dna_engines_agree_with_evalue_thresholds() {
    let (db, queries) = workload(Alphabet::Dna, 3_000, 2, 120, 17);
    let request = SearchRequest::with_evalue(ScoringScheme::DEFAULT, 10.0);
    assert_cross_engine_agreement(&db, &queries, request);
}

#[test]
fn protein_engines_agree_through_the_trait() {
    let (db, queries) = workload(Alphabet::Protein, 2_500, 2, 100, 23);
    let request = SearchRequest::with_evalue(ScoringScheme::PROTEIN_DEFAULT, 10.0);
    assert_cross_engine_agreement(&db, &queries, request);
}

#[test]
fn batch_search_is_identical_to_sequential_at_every_thread_count() {
    let (db, queries) = workload(Alphabet::Dna, 5_000, 8, 150, 31);
    for kind in [EngineKind::Alae, EngineKind::Bwtsw] {
        let searcher = Searcher::new(
            db.clone(),
            SearchRequest::with_evalue(ScoringScheme::DEFAULT, 10.0).engine(kind),
        );
        let sequential: Vec<_> = queries.iter().map(|q| searcher.search(q)).collect();
        assert!(
            sequential.iter().any(|r| !r.hits.is_empty()),
            "workload should produce hits"
        );
        for threads in [1, 2, 4] {
            let batch = searcher.search_batch(&queries, threads);
            assert_eq!(batch.len(), sequential.len());
            for (qi, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    b.threshold, s.threshold,
                    "{kind}, {threads} threads, query {qi}: threshold"
                );
                assert_eq!(
                    b.hits, s.hits,
                    "{kind}, {threads} threads, query {qi}: hits"
                );
            }
        }
    }
}

#[test]
fn batch_search_reports_exact_per_query_scan_counts() {
    // The occurrence-layer scan counters are measured with per-thread
    // snapshot deltas, so every concurrent batch query must report exactly
    // the counts the sequential run reports — not whatever another thread's
    // scans happened to bleed into an index-wide total.
    let (db, queries) = workload(Alphabet::Dna, 5_000, 8, 150, 59);
    let occ_scans = |counters: &alae::search::EngineCounters| -> (u64, u64) {
        if let Some(stats) = counters.as_alae() {
            (stats.occ_block_scans, stats.occ_bytes_scanned)
        } else if let Some(stats) = counters.as_bwtsw() {
            (stats.occ_block_scans, stats.occ_bytes_scanned)
        } else {
            panic!("an exact trie engine ran");
        }
    };
    for kind in [EngineKind::Alae, EngineKind::Bwtsw] {
        let searcher = Searcher::new(
            db.clone(),
            SearchRequest::with_evalue(ScoringScheme::DEFAULT, 10.0).engine(kind),
        );
        let sequential: Vec<(u64, u64)> = queries
            .iter()
            .map(|q| occ_scans(&searcher.search(q).counters))
            .collect();
        // The workload must actually scan, or equality would be trivial.
        assert!(sequential.iter().any(|&(scans, _)| scans > 0));
        for threads in [2, 4] {
            let batch = searcher.search_batch(&queries, threads);
            for (qi, (response, expected)) in batch.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    occ_scans(&response.counters),
                    *expected,
                    "{kind}, {threads} threads, query {qi}: occ scan counters"
                );
            }
        }
    }
}

#[test]
fn batch_search_tolerates_more_threads_than_queries() {
    let (db, queries) = workload(Alphabet::Dna, 2_000, 2, 100, 41);
    let searcher = Searcher::new(
        db,
        SearchRequest::with_threshold(ScoringScheme::DEFAULT, 25),
    );
    let responses = searcher.search_batch(&queries, 16);
    assert_eq!(responses.len(), 2);
    let empty = searcher.search_batch(&[], 4);
    assert!(empty.is_empty());
}

#[test]
fn hits_are_record_resolved_with_one_based_coordinates() {
    let records = [
        Sequence::from_ascii_named(Alphabet::Dna, "plasmid-a", b"TTTTGCTAGCATCGTTTT").unwrap(),
        Sequence::from_ascii_named(Alphabet::Dna, "plasmid-b", b"AAAAGCTAGCATCGAAAA").unwrap(),
    ];
    let db = IndexedDatabase::from_sequences(Alphabet::Dna, records);
    let searcher = Searcher::new(
        db.clone(),
        SearchRequest::with_threshold(ScoringScheme::DEFAULT, 10),
    );
    let query = Sequence::from_ascii(Alphabet::Dna, b"GCTAGCATCG").unwrap();
    let response = searcher.search(&query);
    // The 10-character region occurs once per record, ending at in-record
    // position 14 in both.
    let mut records_seen: Vec<&str> = response
        .hits
        .iter()
        .filter(|h| h.score == 10)
        .map(|h| &*h.name)
        .collect();
    records_seen.sort_unstable();
    assert_eq!(records_seen, ["plasmid-a", "plasmid-b"]);
    for hit in response.hits.iter().filter(|h| h.score == 10) {
        assert_eq!(hit.record_end, 14);
        assert_eq!(hit.query_end, 10);
        // Cross-check against the database's span resolution.
        let span = db
            .database()
            .locate_range(hit.text_end + 1 - 10, hit.text_end)
            .expect("a full-length hit stays inside its record");
        assert_eq!(span.end, hit.record_end);
        assert_eq!(span.len(), 10);
        assert_eq!(span.name, hit.name);
    }
    // E-values are monotone: a better score never has a larger E-value.
    for pair in response.hits.windows(2) {
        let (a, b) = (pair[0].evalue.unwrap(), pair[1].evalue.unwrap());
        assert!(a <= b, "E-values out of order: {a} vs {b}");
    }
}

#[test]
fn sinks_stream_and_early_stop_across_engines() {
    let (db, queries) = workload(Alphabet::Dna, 3_000, 1, 150, 53);
    let query = &queries[0];
    for kind in EngineKind::ALL {
        let searcher = Searcher::new(
            db.clone(),
            SearchRequest::with_threshold(ScoringScheme::DEFAULT, 25).engine(kind),
        );
        let eager = searcher.search(query);
        let mut collect = CollectSink::default();
        let summary = searcher.search_into(query, &mut collect);
        assert_eq!(summary.engine, kind);
        assert_eq!(collect.hits, eager.hits, "{kind}: sink vs eager");
        assert!(!summary.stopped_early);
        if eager.hits.len() > 1 {
            let mut taken = 0;
            let summary = searcher.search_into(
                query,
                &mut FnSink(|_| {
                    taken += 1;
                    if taken == 1 {
                        SinkFlow::Stop
                    } else {
                        SinkFlow::Continue
                    }
                }),
            );
            assert!(summary.stopped_early);
            assert_eq!(summary.delivered, 1);
        }
    }
}

#[test]
fn result_shaping_is_engine_agnostic() {
    let (db, queries) = workload(Alphabet::Dna, 3_000, 1, 150, 61);
    let query = &queries[0];
    let base = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 20);
    for kind in [
        EngineKind::Alae,
        EngineKind::Bwtsw,
        EngineKind::SmithWaterman,
    ] {
        let all = Searcher::new(db.clone(), base.engine(kind)).search(query);
        if all.hits.len() < 3 {
            continue;
        }
        let shaped = Searcher::new(db.clone(), base.engine(kind).top_k(3)).search(query);
        assert_eq!(shaped.hits.len(), 3);
        assert!(shaped.truncated());
        assert_eq!(shaped.hits[..], all.hits[..3], "{kind}: top-k prefix");
    }
}

#[test]
fn trait_objects_expose_threshold_resolution() {
    let (db, _) = workload(Alphabet::Dna, 2_000, 1, 100, 71);
    let request = SearchRequest::with_evalue(ScoringScheme::DEFAULT, 10.0);
    let thresholds: Vec<i64> = EngineKind::ALL
        .into_iter()
        .map(|kind| build_engine(&db, &request.engine(kind)).resolve_threshold(100))
        .collect();
    // Every engine resolves the same E-value to the same score threshold.
    assert!(thresholds.windows(2).all(|w| w[0] == w[1]));
    assert!(thresholds[0] > 0);
}
