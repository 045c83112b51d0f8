//! Persistence round-trip tests: `IndexedDatabase::save` → `open` must be
//! behavior-identical to a fresh build for every engine, opening must skip
//! the suffix-array build entirely, and damaged files must be rejected
//! with typed errors instead of garbage hits.

use alae::bioseq::{Alphabet, ScoringScheme};
use alae::search::{EngineKind, IndexBuilder, IndexedDatabase, SearchRequest, Searcher};
use alae::store::StoreError;
use alae::suffix::{suffix_array_build_count, RankLayout};
use alae::workload::{MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

mod common;
use common::byte_twin;

/// Run one search on a dedicated thread so per-thread scratch pools start
/// cold (see `open_matches_fresh_build_for_all_engines`).
fn search_on_cold_thread(
    db: IndexedDatabase,
    request: SearchRequest,
    query: alae::bioseq::Sequence,
) -> alae::search::SearchResponse {
    std::thread::spawn(move || Searcher::new(db, request).search(&query))
        .join()
        .expect("search thread panicked")
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "alae-roundtrip-{}-{}.idx",
        std::process::id(),
        name
    ));
    path
}

fn workload(
    alphabet: Alphabet,
    text_len: usize,
    seed: u64,
) -> (IndexBuilder, alae::workload::Workload) {
    let spec = match alphabet {
        Alphabet::Dna => TextSpec::dna(text_len, seed),
        Alphabet::Protein => TextSpec::protein(text_len, seed),
    };
    let built = WorkloadBuilder::new(
        spec,
        QuerySpec {
            count: 4,
            length: 24,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: seed + 1,
        },
    )
    .build();
    (IndexBuilder::new(), built)
}

/// Save → open → search must be hit- and counter-identical to the fresh
/// build for all four engines, across alphabets and storage layouts.  The
/// `dna-bytes` case is the byte-layout twin of a DNA index: the file it
/// saves has the shape of a byte-layout DNA file from earlier builds, which
/// must still open hit-identical.
#[test]
fn open_matches_fresh_build_for_all_engines() {
    let cases = [
        (Alphabet::Dna, RankLayout::Bytes, "dna-bytes"),
        (Alphabet::Dna, RankLayout::PackedDna, "dna-packed"),
        (Alphabet::Protein, RankLayout::Bytes, "protein-bytes"),
    ];
    for (alphabet, layout, name) in cases {
        let (builder, built) = workload(alphabet, 4_000, 0x5eed + name.len() as u64);
        let database = Arc::new(built.database);
        let mut fresh = builder.index_shared(Arc::clone(&database));
        if fresh.index().rank_layout() != layout {
            fresh = IndexedDatabase::from_parts(database, Arc::new(byte_twin(fresh.index())));
        }
        assert_eq!(fresh.index().rank_layout(), layout, "{name}");

        let path = temp_path(name);
        fresh.save(&path).expect("save");
        let opened = IndexedDatabase::open(&path).expect("open");

        assert_eq!(opened.alphabet(), fresh.alphabet());
        assert_eq!(opened.text_len(), fresh.text_len());
        assert_eq!(opened.record_count(), fresh.record_count());

        let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
        for kind in EngineKind::ALL {
            let request = request.engine(kind);
            for query in &built.queries {
                // Each search runs on its own thread: the ALAE fork arena
                // is pooled per thread, and counter identity should test
                // the index structure, not pool warm-up from prior queries.
                let fresh_response = search_on_cold_thread(fresh.clone(), request, query.clone());
                let opened_response = search_on_cold_thread(opened.clone(), request, query.clone());
                assert_eq!(
                    fresh_response.threshold, opened_response.threshold,
                    "{name}/{kind:?}: threshold drifted through the file"
                );
                assert_eq!(
                    fresh_response.hits, opened_response.hits,
                    "{name}/{kind:?}: hits differ between fresh build and reopened index"
                );
                assert_eq!(
                    fresh_response.raw_hit_count, opened_response.raw_hit_count,
                    "{name}/{kind:?}: raw hit count differs"
                );
                assert_eq!(
                    format!("{:?}", fresh_response.counters),
                    format!("{:?}", opened_response.counters),
                    "{name}/{kind:?}: engine work counters differ — the \
                     reopened index is not structurally identical"
                );
            }
        }
        fs::remove_file(&path).ok();
    }
}

/// Opening a saved index must not build a suffix array: the whole point of
/// the file is paying the O(n log n) build once.  The SA build counter
/// counts the calling thread's builds only, so indexes that sibling tests
/// build on other threads never move it: the delta across `open` plus the
/// search it feeds must be zero.
#[test]
fn open_skips_the_suffix_array_build() {
    let (builder, built) = workload(Alphabet::Dna, 3_000, 0xbeef);
    let fresh = builder.index(built.database);
    let path = temp_path("skip-build");
    fresh.save(&path).expect("save");
    drop(fresh);

    let before = suffix_array_build_count();
    let opened = IndexedDatabase::open(&path).expect("open");
    let searcher = Searcher::new(
        opened,
        SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12),
    );
    let response = searcher.search(&built.queries[0]);
    assert!(response.termination.is_complete());
    assert_eq!(
        suffix_array_build_count(),
        before,
        "IndexedDatabase::open must deserialize the index, not rebuild it"
    );
    fs::remove_file(&path).ok();
}

/// Damaged files are rejected with typed errors, never opened part-way.
#[test]
fn damaged_files_are_rejected_with_typed_errors() {
    let (builder, built) = workload(Alphabet::Dna, 2_000, 0xdead);
    let fresh = builder.index(built.database);
    let expected_records = fresh.record_count();
    let path = temp_path("damage");
    fresh.save(&path).expect("save");
    let pristine = fs::read(&path).expect("read back");

    // Wrong magic.
    let mut bytes = pristine.clone();
    bytes[0..8].copy_from_slice(b"NOTANIDX");
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        IndexedDatabase::open(&path),
        Err(StoreError::BadMagic)
    ));

    // Future format version.
    let mut bytes = pristine.clone();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        IndexedDatabase::open(&path),
        Err(StoreError::UnsupportedVersion(99))
    ));

    // Truncated mid-payload.
    fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
    assert!(matches!(
        IndexedDatabase::open(&path),
        Err(StoreError::Truncated(_)) | Err(StoreError::ChecksumMismatch(_))
    ));

    // Single flipped bit in the last section.
    let mut bytes = pristine.clone();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        IndexedDatabase::open(&path),
        Err(StoreError::ChecksumMismatch(_))
    ));

    // A file shorter than the header.
    fs::write(&path, b"ALAEIDX\0").unwrap();
    assert!(matches!(
        IndexedDatabase::open(&path),
        Err(StoreError::Truncated("header"))
    ));

    // The pristine bytes still open (the damage above was the only issue).
    fs::write(&path, &pristine).unwrap();
    let reopened = IndexedDatabase::open(&path).expect("pristine file reopens");
    assert_eq!(reopened.record_count(), expected_records);
    fs::remove_file(&path).ok();
}

/// Saving requires write access; a bogus directory is a typed I/O error.
#[test]
fn save_into_missing_directory_is_io_error() {
    let (builder, built) = workload(Alphabet::Dna, 500, 0x10);
    let fresh = builder.index(built.database);
    let result = fresh.save("/nonexistent-dir/alae.idx");
    assert!(matches!(result, Err(StoreError::Io(_))));
    assert!(!built.queries.is_empty());
}
