//! Persistence round-trip tests: `IndexedDatabase::save` → `open` must be
//! behavior-identical to a fresh build for every engine, opening must skip
//! the suffix-array build entirely, and damaged files must be rejected
//! with typed errors instead of garbage hits.

use alae::bioseq::{Alphabet, ScoringScheme, Termination};
use alae::search::{EngineKind, IndexBuilder, IndexedDatabase, SearchRequest, Searcher};
use alae::store::StoreError;
use alae::suffix::{suffix_array_build_count, RankLayout};
use alae::workload::{MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};
use std::fs;
use std::path::PathBuf;

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
/// build for all four engines, across alphabets and storage layouts, on
/// two DNA workloads and a protein one.
#[test]
fn open_matches_fresh_build_for_all_engines() {
    let cases = [
        (Alphabet::Dna, RankLayout::PackedDna, "dna-a", 0x5eed + 9),
        (Alphabet::Dna, RankLayout::PackedDna, "dna-b", 0x5eed + 10),
        (Alphabet::Protein, RankLayout::Bytes, "protein", 0x5eed + 13),
    ];
    for (alphabet, layout, name, seed) in cases {
        let (builder, built) = workload(alphabet, 4_000, seed);
        let fresh = builder.index(built.database);
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

/// Open counts the checkpoint rows and the C array from the stored BWT
/// with the code the build runs, so an opened index ranks exactly as the
/// built one at every row.  Format 3 stored the rows, and open never
/// checked them: one `CHK_DELTAS` entry raised by one in a checksum-valid
/// 5,000-letter DNA file gave wrong hits without an error.
#[test]
fn an_opened_index_ranks_every_row_as_the_built_one() {
    for (alphabet, spec) in [
        (Alphabet::Dna, TextSpec::dna(5_000, 3)),
        (Alphabet::Protein, TextSpec::protein(5_000, 3)),
    ] {
        let built = WorkloadBuilder::new(
            spec,
            QuerySpec {
                count: 1,
                length: 24,
                mutation: MutationProfile::HOMOLOGOUS,
                seed: 4,
            },
        )
        .build();
        let fresh = IndexBuilder::new().index(built.database);
        let path = temp_path(&format!("ranks-{alphabet:?}"));
        fresh.save(&path).expect("save");
        let opened = IndexedDatabase::open(&path).expect("open");
        let (fresh, opened) = (fresh.index().fm_index(), opened.index().fm_index());
        assert_eq!(fresh.c_array(), opened.c_array(), "{alphabet:?}");
        let (fresh, opened) = (fresh.occ_table(), opened.occ_table());
        assert_eq!(opened.len(), 5_001);
        let mut fresh_counts = vec![0u32; fresh.code_count()];
        let mut opened_counts = vec![0u32; opened.code_count()];
        for row in 0..=opened.len() {
            fresh.rank_all(row, &mut fresh_counts);
            opened.rank_all(row, &mut opened_counts);
            assert_eq!(fresh_counts, opened_counts, "{alphabet:?}, row {row}");
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

/// The `Rss:` of this process's mappings of `path`, summed over
/// `/proc/self/smaps`: the pages of the file that are resident here.
/// Panics when the file is not mapped, so a path that never matches
/// cannot pass for an empty mapping.
#[cfg(target_os = "linux")]
fn mapped_resident_bytes(path: &std::path::Path) -> u64 {
    let path = fs::canonicalize(path).expect("canonical index path");
    let suffix = format!(" {}", path.display());
    let smaps = fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut in_file = false;
    let mut mappings = 0;
    let mut kib = 0;
    for line in smaps.lines() {
        // A mapping's header line starts with its address range and ends
        // with its path; the field lines under it start with `Name:`.
        let Some(first) = line.split_whitespace().next() else {
            continue;
        };
        if !first.ends_with(':') {
            in_file = line.ends_with(&suffix);
            mappings += usize::from(in_file);
        } else if let Some(rss) = line.strip_prefix("Rss:").filter(|_| in_file) {
            let rss = rss.trim().strip_suffix("kB").expect("Rss in kB");
            kib += rss.trim().parse::<u64>().expect("Rss value");
        }
    }
    assert!(mappings > 0, "{} is not mapped", path.display());
    kib * 1024
}

/// A served index keeps resident only the mapped pages its queries read.
/// Open checks every section with positioned reads before it maps the
/// file; ALAE and BWT-SW then read the decoded vectors and, in the byte
/// layout, the BWT bytes; and hits are resolved from the record table, not
/// the text.  So the mapping holds nothing for DNA, and at most the
/// `OCC_BYTES` section (which open range-checks through the mapping) plus
/// the kernel's fault-around at its two ends for protein.
#[cfg(target_os = "linux")]
#[test]
fn a_served_index_keeps_only_what_its_queries_read_resident() {
    const TEXT_LEN: usize = 200_000;
    for (alphabet, bound) in [
        (Alphabet::Dna, 0),
        (Alphabet::Protein, TEXT_LEN as u64 + 1 + 128 * 1024),
    ] {
        let (builder, built) = workload(alphabet, TEXT_LEN, 0x5e7);
        assert_eq!(built.database.record_count(), 1);
        let fresh = builder.index(built.database);
        let path = temp_path(&format!("resident-{alphabet:?}"));
        fresh.save(&path).expect("save");
        drop(fresh);

        let opened = IndexedDatabase::open(&path).expect("open");
        let resident = mapped_resident_bytes(&path);
        assert!(
            resident <= bound,
            "{alphabet:?}: {resident} bytes of the index file resident after open (bound {bound})"
        );
        let mut hits = 0;
        for kind in [EngineKind::Alae, EngineKind::Bwtsw] {
            let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12).engine(kind);
            let searcher = Searcher::new(opened.clone(), request);
            for query in &built.queries {
                hits += searcher.search(query).hits.len();
            }
        }
        assert!(hits > 0, "{alphabet:?}: the searches must resolve hits");
        let resident = mapped_resident_bytes(&path);
        assert!(
            resident <= bound,
            "{alphabet:?}: {resident} bytes of the index file resident after {hits} hits \
             (bound {bound})"
        );
        drop(opened);
        fs::remove_file(&path).ok();
    }
}

/// An opened index holds no text, and its database derives it only when
/// an engine reads the text.  ALAE and BWT-SW find their hits and resolve
/// them without reading it, and so do open, the facade's length check and
/// every record-table probe on the way; Smith–Waterman then derives it
/// once, for every clone of the handle, and its hits equal the in-memory
/// database's.
#[test]
fn an_opened_text_is_derived_only_by_the_engines_that_read_it() {
    let (builder, built) = workload(Alphabet::Dna, 20_000, 0x1a2);
    let fresh = builder.index(built.database);
    let path = temp_path("lazy-text");
    fresh.save(&path).expect("save");
    let opened = IndexedDatabase::open(&path).expect("open");
    let database = opened.database().clone();
    let _ = (
        format!("{opened:?}"),
        opened.clone(),
        database.locate(10),
        database.text_len(),
    );
    assert!(
        !database.text_is_derived(),
        "open, Debug, clone and the record table must not derive the text"
    );

    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let mut hits = 0;
    for kind in [EngineKind::Alae, EngineKind::Bwtsw] {
        let searcher = Searcher::new(opened.clone(), request.engine(kind));
        for query in &built.queries {
            let response = searcher.search(query);
            assert!(response.hits.iter().all(|hit| hit.record == 0));
            hits += response.hits.len();
        }
    }
    assert!(hits > 0, "the searches must resolve hits");
    assert!(
        !database.text_is_derived(),
        "ALAE and BWT-SW must not derive the text"
    );

    let request = request.engine(EngineKind::SmithWaterman);
    let from_file = Searcher::new(opened.clone(), request);
    let in_memory = Searcher::new(fresh, request);
    for query in &built.queries {
        assert_eq!(from_file.search(query).hits, in_memory.search(query).hits);
    }
    assert!(database.text_is_derived(), "Smith-Waterman reads the text");
    assert!(opened.database().text_is_derived());
    fs::remove_file(&path).ok();
}

/// A checksum-valid protein file with two neighbouring BWT letters of one
/// block swapped keeps every count: the checkpoint rows and the C array
/// open counts from it, and the samples, all agree, so it opens.  It is no text's BWT, though, so
/// the LF walk that derives the text fails, and the first Smith–Waterman
/// query ends `EnginePanicked` instead of answering from a wrong text.
#[test]
fn a_bwt_that_spells_no_text_fails_the_first_query_that_reads_it() {
    use alae::store::format::{checksum, section, TableEntry, HEADER_LEN, TABLE_ENTRY_LEN};

    let (builder, built) = workload(Alphabet::Protein, 3_000, 0x5a7);
    let fresh = builder.index(built.database);
    let path = temp_path("swapped-bwt");
    fresh.save(&path).expect("save");
    let mut bytes = fs::read(&path).expect("read back");
    let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let (slot, entry) = (0..sections)
        .map(|k| HEADER_LEN + k * TABLE_ENTRY_LEN)
        .find_map(|at| {
            TableEntry::from_bytes(&bytes[at..at + TABLE_ENTRY_LEN])
                .filter(|entry| entry.id == section::OCC_BYTES)
                .map(|entry| (at, entry))
        })
        .expect("OCC_BYTES entry");
    let bwt = entry.offset as usize..(entry.offset + entry.len) as usize;
    // Two different letters (neither the sentinel, code 0, nor a
    // separator, code 1) next to each other inside one 128-row block.
    let at = (bwt.start + 1..bwt.end - 1)
        .find(|&at| {
            let (a, b) = (bytes[at], bytes[at + 1]);
            a > 1 && b > 1 && a != b && (at + 1 - bwt.start) % 128 != 0
        })
        .expect("two different neighbouring letters");
    bytes.swap(at, at + 1);
    let stamped = TableEntry {
        checksum: checksum(&bytes[bwt]),
        ..entry
    };
    bytes[slot..slot + TABLE_ENTRY_LEN].copy_from_slice(&stamped.to_bytes());
    fs::write(&path, &bytes).expect("write the swapped file");

    let opened = IndexedDatabase::open(&path).expect("the counts all agree, so it opens");
    let request =
        SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12).engine(EngineKind::SmithWaterman);
    let responses = Searcher::new(opened, request).search_batch(&built.queries[..1], 1);
    assert_eq!(responses.len(), 1);
    assert_eq!(
        responses[0].termination,
        Termination::EnginePanicked,
        "{} hits",
        responses[0].hits.len()
    );
    assert!(responses[0].hits.is_empty());
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
