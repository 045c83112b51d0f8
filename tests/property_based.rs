//! Property-based tests on the core data structures and the exactness
//! invariant.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these tests drive the same properties from a deterministic xorshift
//! generator: every case derives from a fixed seed, so failures reproduce
//! exactly.

use alae::baseline::{global_similarity, local_alignment_hits};
use alae::bioseq::hits::diff_hits;
use alae::bioseq::{Alphabet, KarlinAltschul, ScoringScheme, Sequence, SequenceDatabase};
use alae::bwtsw::{BwtswAligner, BwtswConfig};
use alae::core::{AlaeAligner, AlaeConfig, FilterToggles, QGramIndex};
use alae::search::{IndexBuilder, IndexedDatabase, SearchRequest, Searcher};
use alae::suffix::rank::OccTable;
use alae::suffix::sais::{reversed_suffix_array, suffix_array_naive};
use alae::suffix::{ChildBuf, RankLayout, TextIndex};
use std::collections::HashMap;

/// Deterministic case generator (xorshift64*).
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.next() as usize) % (hi - lo)
    }

    /// A DNA code sequence (codes `1..=4`) with length in `[lo, hi)`.
    fn dna(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        let len = self.range(lo, hi);
        (0..len).map(|_| (self.next() % 4) as u8 + 1).collect()
    }

    /// A protein code sequence (codes `1..=20`) with record separators
    /// (code 0) at about one position in twelve, length in `[lo, hi)`.
    fn protein_records(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        let len = self.range(lo, hi);
        let sigma = Alphabet::Protein.sigma() as u64;
        (0..len)
            .map(|_| match self.next() % 12 {
                0 => 0,
                _ => (self.next() % sigma) as u8 + 1,
            })
            .collect()
    }

    /// A scoring scheme with the paper's sign conventions.
    fn scheme(&mut self) -> ScoringScheme {
        let sa = self.range(1, 3) as i64;
        let sb = -(self.range(1, 5) as i64);
        let sg = -(self.range(2, 7) as i64);
        let ss = -(self.range(1, 4) as i64);
        ScoringScheme::new(sa, sb, sg, ss).unwrap()
    }
}

const CASES: usize = 48;

/// The suffix array of the text read backwards against the naive order of
/// its reversed copy.
fn assert_suffix_array_matches_naive(text: &[u8], case: &str) {
    let reversed: Vec<u8> = text.iter().rev().copied().collect();
    assert_eq!(
        reversed_suffix_array(text),
        suffix_array_naive(&reversed),
        "{case}"
    );
}

#[test]
fn suffix_array_matches_naive() {
    let mut g = Gen::new(0x5eed_0001);
    for case in 0..CASES {
        let text = g.dna(0, 200);
        assert_suffix_array_matches_naive(&text, &format!("case {case}"));
    }
    let mut g = Gen::new(0x5eed_0011);
    for case in 0..CASES {
        let text = g.protein_records(0, 600);
        assert_suffix_array_matches_naive(&text, &format!("protein case {case}"));
    }
}

#[test]
fn fm_index_counts_match_naive_search() {
    let mut g = Gen::new(0x5eed_0002);
    for case in 0..CASES {
        let text = g.dna(30, 300);
        let pattern = g.dna(1, 8);
        let index = TextIndex::new(&text, 5);
        let expected: Vec<usize> = (0..=text.len().saturating_sub(pattern.len()))
            .filter(|&i| text[i..].starts_with(&pattern))
            .collect();
        assert_eq!(index.find_occurrences(&pattern), expected, "case {case}");
    }
}

#[test]
fn qgram_index_positions_are_correct() {
    let mut g = Gen::new(0x5eed_0003);
    for case in 0..CASES {
        let query = g.dna(10, 120);
        let q = 4;
        let index = QGramIndex::build(&query, q, 5);
        for (gram, positions) in index.iter() {
            for &p in positions {
                let window = &query[p as usize..p as usize + q];
                assert_eq!(index.pack(window), Some(gram), "case {case}");
            }
        }
        // Every window is indexed exactly once.
        let total: usize = index.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, query.len().saturating_sub(q - 1), "case {case}");
    }
}

/// Columns `j ≥ 1` of `query` that Lemma 1 lets ALAE skip, counted from
/// the definition: the q-gram at `j` occurs in `text`, and every
/// occurrence `t` has `t ≥ 1` and `text[t−1] = query[j−1]`.
fn brute_force_dominated(text: &[u8], query: &[u8], q: usize) -> u64 {
    let mut dominated = 0;
    for j in 1..=query.len() - q {
        let gram = &query[j..j + q];
        let mut occurrences = (0..=text.len().saturating_sub(q))
            .filter(|&t| text.len() >= q && &text[t..t + q] == gram)
            .peekable();
        if occurrences.peek().is_none() {
            continue;
        }
        if occurrences.all(|t| t >= 1 && text[t - 1] == query[j - 1]) {
            dominated += 1;
        }
    }
    dominated
}

/// A scheme with q-prefix length `q` (Equation 2).
fn scheme_with_q(q: usize) -> ScoringScheme {
    let scheme = if q == 1 {
        ScoringScheme::new(2, -1, -5, -2).unwrap()
    } else {
        ScoringScheme::new(1, 1 - q as i64, -5, -2).unwrap()
    };
    assert_eq!(scheme.q(), q);
    scheme
}

/// Run ALAE (arena and reference paths) and check its dominated fork
/// starts against the definition; returns the count.
fn check_domination(alphabet: Alphabet, records: &[Vec<u8>], query: &[u8], q: usize) -> u64 {
    let db = SequenceDatabase::from_sequences(
        alphabet,
        records
            .iter()
            .map(|codes| Sequence::from_codes(alphabet, codes.clone())),
    );
    let config = AlaeConfig::with_threshold(scheme_with_q(q), 8);
    let aligner = AlaeAligner::build(&db, config);
    let expected = brute_force_dominated(db.text(), query, q);
    let context = format!("{alphabet:?} q={q} records {records:?} query {query:?}");
    let arena = aligner.align(query).stats;
    assert_eq!(arena.forks_dominated, expected, "{context}");
    assert_eq!(
        aligner.align_reference(query).stats.forks_dominated,
        expected,
        "{context}"
    );
    // Every column whose gram occurs in the text is started or dominated.
    let occurring = (0..=query.len() - q)
        .filter(|&j| {
            db.text()
                .windows(q)
                .any(|window| window == &query[j..j + q])
        })
        .count() as u64;
    assert_eq!(
        arena.forks_started + arena.forks_dominated,
        occurring,
        "{context}"
    );
    expected
}

#[test]
fn domination_filter_skips_exactly_the_columns_lemma_1_names() {
    // Fixed cases (DNA codes A=1 C=2 G=3 T=4), query ACGT or CGTA, q = 3:
    // CGT always after A is dominated; an occurrence at text position 0,
    // one right after a record separator, or one after another character
    // keeps a gram undominated; a text shorter than q dominates nothing.
    let acgt = [1u8, 2, 3, 4];
    for (records, query, dominated) in [
        (vec![vec![1u8, 2, 3, 4, 1, 2, 3, 4]], &acgt[..], 1),
        (vec![vec![2, 3, 4, 1, 2, 3, 4]], &acgt[..], 0),
        (vec![vec![1, 2, 3, 4], vec![2, 3, 4, 4]], &acgt[..], 0),
        (
            vec![vec![1, 2, 3, 4, 1, 4, 4, 4, 3, 4, 1]],
            &[2, 3, 4, 1][..],
            0,
        ),
        (vec![vec![1, 2]], &acgt[..], 0),
    ] {
        assert_eq!(
            check_domination(Alphabet::Dna, &records, query, 3),
            dominated,
            "{records:?}"
        );
    }

    // Random databases of 1-4 records, q = 1..5, queries cut from a record
    // or drawn at random.
    let mut g = Gen::new(0x5eed_0004);
    for alphabet in [Alphabet::Dna, Alphabet::Protein] {
        let sigma = alphabet.code_count() as u64 - 1;
        let mut dominated = 0;
        for case in 0..CASES * 2 {
            let q = 1 + case % 5;
            let records: Vec<Vec<u8>> = (0..g.range(1, 5))
                .map(|_| {
                    let len = g.range(1, 120);
                    (0..len).map(|_| (g.next() % sigma) as u8 + 1).collect()
                })
                .collect();
            let source = &records[g.range(0, records.len())];
            let query: Vec<u8> = if case % 2 == 0 && source.len() >= q {
                let len = g.range(q, source.len() + 1);
                let start = g.range(0, source.len() - len + 1);
                source[start..start + len].to_vec()
            } else {
                let len = g.range(q, q + 40);
                (0..len).map(|_| (g.next() % sigma) as u8 + 1).collect()
            };
            dominated += check_domination(alphabet, &records, &query, q);
        }
        // Not vacuous: the filter skipped forks on this alphabet.
        assert!(dominated > 0, "{alphabet:?}");
    }
}

#[test]
fn domination_filter_never_changes_hits() {
    // For every q and every setting of the other three toggles, switching
    // the domination filter on skips forks but reports the same hits.
    let mut g = Gen::new(0x5eed_000f);
    for alphabet in [Alphabet::Dna, Alphabet::Protein] {
        let sigma = alphabet.code_count() as u64 - 1;
        let len = g.range(300, 600);
        let text: Vec<u8> = (0..len).map(|_| (g.next() % sigma) as u8 + 1).collect();
        let db = IndexedDatabase::from_sequences(
            alphabet,
            [Sequence::from_codes(alphabet, text.clone())],
        );
        let (mut hits, mut dominated) = (0, 0);
        for q in 2..=6 {
            let scheme = scheme_with_q(q);
            let start = g.range(0, len - 40);
            let mut query = text[start..start + 40].to_vec();
            let pos = g.range(0, query.len());
            query[pos] = (g.next() % sigma) as u8 + 1;
            let threshold = (q as i64).max(8);
            for bits in 0..8u8 {
                let off = FilterToggles {
                    length_filter: bits & 1 != 0,
                    score_filter: bits & 2 != 0,
                    domination_filter: false,
                    reuse: bits & 4 != 0,
                };
                let on = FilterToggles {
                    domination_filter: true,
                    ..off
                };
                let search = |toggles| {
                    let request = SearchRequest::with_threshold(scheme, threshold).filters(toggles);
                    Searcher::new(db.clone(), request).search_codes(&query)
                };
                let (with, without) = (search(on), search(off));
                let context = format!("{alphabet:?} q={q} {on:?}");
                assert_eq!(with.hits, without.hits, "{context}");
                let skipped = with.counters.as_alae().unwrap().forks_dominated;
                assert_eq!(without.counters.as_alae().unwrap().forks_dominated, 0);
                hits += with.hits.len();
                dominated += skipped;
            }
        }
        // The comparison is not vacuous: hits were found and the filter
        // skipped forks.
        assert!(
            hits > 0 && dominated > 0,
            "{alphabet:?}: {hits} {dominated}"
        );
    }
}

#[test]
fn global_similarity_upper_bounds_identity() {
    let mut g = Gen::new(0x5eed_0005);
    for case in 0..CASES {
        let s1 = g.dna(1, 40);
        let s2 = g.dna(1, 40);
        let scheme = ScoringScheme::DEFAULT;
        let sim = global_similarity(&s1, &s2, &scheme);
        // Never better than a perfect match of the shorter string.
        assert!(
            sim <= scheme.sa * s1.len().min(s2.len()) as i64,
            "case {case}"
        );
        // Symmetric.
        assert_eq!(sim, global_similarity(&s2, &s1, &scheme), "case {case}");
    }
}

#[test]
fn alae_equals_oracle_on_random_instances() {
    let mut g = Gen::new(0x5eed_0006);
    for case in 0..CASES {
        let text = g.dna(60, 220);
        let scheme = g.scheme();
        // Derive a query as a mutated slice of the text so hits exist often.
        let qlen = 24.min(text.len() / 2);
        let start = g.range(0, text.len() - qlen);
        let mut query = text[start..start + qlen].to_vec();
        let pos = g.range(0, query.len());
        query[pos] = (g.next() % 4) as u8 + 1;
        let threshold = (scheme.q() as i64 * scheme.sa).max(6);
        let seq = Sequence::from_codes(Alphabet::Dna, text.clone());
        let database = SequenceDatabase::from_sequences(Alphabet::Dna, [seq]);
        let alae = AlaeAligner::build(&database, AlaeConfig::with_threshold(scheme, threshold))
            .align(&query);
        let (oracle, _) = local_alignment_hits(&text, &query, &scheme, threshold);
        assert!(
            diff_hits(&alae.hits, &oracle).is_none(),
            "case {case}: ALAE vs oracle: {:?}",
            diff_hits(&alae.hits, &oracle)
        );
    }
}

#[test]
fn bwtsw_equals_oracle_on_random_instances() {
    let mut g = Gen::new(0x5eed_0007);
    for case in 0..CASES {
        let text = g.dna(60, 200);
        let scheme = ScoringScheme::DEFAULT;
        let qlen = 20.min(text.len() / 2);
        let start = g.range(0, text.len() - qlen);
        let query = text[start..start + qlen].to_vec();
        let threshold = 6;
        let seq = Sequence::from_codes(Alphabet::Dna, text.clone());
        let database = SequenceDatabase::from_sequences(Alphabet::Dna, [seq]);
        let bwtsw =
            BwtswAligner::build(&database, BwtswConfig::new(scheme, threshold)).align(&query);
        let (oracle, _) = local_alignment_hits(&text, &query, &scheme, threshold);
        assert!(diff_hits(&bwtsw.hits, &oracle).is_none(), "case {case}");
    }
}

/// How often each substring of `text` of 1 to `max_len` codes occurs: the
/// naive count trie expansions are checked against.
fn substring_counts(text: &[u8], max_len: usize) -> HashMap<&[u8], usize> {
    let mut counts = HashMap::new();
    for len in 1..=max_len {
        for window in text.windows(len) {
            *counts.entry(window).or_insert(0) += 1;
        }
    }
    counts
}

/// The `(edge label, occurrence count)` pairs a naive count gives the trie
/// node of `pattern`: every letter `c` (separators excluded) with
/// `pattern·c` in the text.
fn naive_children(
    counts: &HashMap<&[u8], usize>,
    pattern: &[u8],
    code_count: usize,
) -> Vec<(u8, usize)> {
    (1..code_count as u8)
        .filter_map(|c| {
            let child = [pattern, &[c]].concat();
            counts.get(child.as_slice()).map(|&n| (c, n))
        })
        .collect()
}

#[test]
fn extend_all_agrees_with_extend_left_on_random_dfs() {
    // Tentpole invariant: for every trie node reached by a random DFS, the
    // single-scan `extend_all` fan-out reports exactly the ranges the σ
    // per-character `extend_left` steps report, with the occurrence counts
    // a naive count of the text gives — on the DNA packed layout and on a
    // protein-sized alphabet's byte layout.
    let mut g = Gen::new(0x5eed_000a);
    for case in 0..24 {
        let (code_count, layout) = match case % 3 {
            0 | 1 => (5usize, RankLayout::PackedDna),
            _ => (21usize, RankLayout::Bytes),
        };
        let sigma = code_count - 1;
        let len = g.range(100, 400);
        let text: Vec<u8> = (0..len)
            .map(|_| (g.next() % sigma as u64) as u8 + 1)
            .collect();
        let counts = substring_counts(&text, 5);
        let index = TextIndex::new(&text, code_count);
        assert_eq!(index.rank_layout(), layout, "case {case}");
        let mut buf = ChildBuf::new();
        let mut stack = vec![(index.root(), Vec::new())];
        let mut visited = 0usize;
        while let Some((cursor, pattern)) = stack.pop() {
            if cursor.depth >= 5 || visited >= 500 {
                continue;
            }
            visited += 1;
            index.children_into(cursor, &mut buf);
            // Per-character extension must agree edge by edge.
            let mut expected = Vec::new();
            for c in 1..code_count as u8 {
                if let Some(child) = index.extend(cursor, c) {
                    expected.push((c, child));
                }
            }
            assert_eq!(buf.as_slice(), expected.as_slice(), "case {case}");
            let found: Vec<(u8, usize)> = buf
                .iter()
                .map(|&(c, child)| (c, child.occurrence_count()))
                .collect();
            assert_eq!(
                found,
                naive_children(&counts, &pattern, code_count),
                "case {case}"
            );
            // Randomly descend into a few children to diversify ranges.
            for &(c, child) in buf.as_slice() {
                if g.next().is_multiple_of(2) {
                    stack.push((child, [pattern.as_slice(), &[c]].concat()));
                }
            }
        }
    }
}

#[test]
fn packed_rank_path_matches_naive_counts_on_random_texts() {
    // The 2-bit-packed popcount path must compute exact ranks, including
    // for the sentinel/separator exception codes, on texts of 2 to 6 codes.
    let mut g = Gen::new(0x5eed_000b);
    for case in 0..32 {
        let code_count = g.range(2, 7);
        let len = g.range(1, 700);
        let data: Vec<u8> = (0..len)
            .map(|_| {
                // Skew towards high codes so low (sparse) codes are rare, as
                // in a real BWT with its single sentinel.
                let r = g.next() % 100;
                if r < 3 {
                    (g.next() % code_count as u64) as u8
                } else {
                    let dense = 4.min(code_count) as u64;
                    (code_count - 1) as u8 - (g.next() % dense) as u8
                }
            })
            .collect();
        let packed = OccTable::new(data.clone(), code_count);
        assert_eq!(packed.layout(), RankLayout::PackedDna, "case {case}");
        let mut counts = vec![0u32; code_count];
        for _ in 0..40 {
            let i = g.range(0, len + 1);
            packed.rank_all(i, &mut counts);
            for c in 0..code_count as u8 {
                let naive = data[..i].iter().filter(|&&b| b == c).count();
                assert_eq!(
                    counts[c as usize] as usize, naive,
                    "case {case} c={c} i={i}"
                );
                assert_eq!(packed.rank(c, i), naive, "case {case} c={c} i={i}");
            }
        }
        for (i, &c) in data.iter().enumerate() {
            assert_eq!(packed.get(i), c, "case {case} i={i}");
        }
    }
}

#[test]
fn occ_tables_agree_with_naive_counts_on_random_texts() {
    // Whatever layout the code count picks, ranks over the two-level
    // checkpoint rows must equal a naive count — on random texts, including
    // separator/sentinel-heavy ones where the packed layout's exception list
    // carries a large share of positions.
    let mut g = Gen::new(0x5eed_000d);
    for case in 0..24 {
        let code_count = g.range(5, 19);
        let len = g.range(1, 2_500);
        let sparse_cut = if case % 3 == 0 { 25 } else { 2 }; // heavy vs rare
        let data: Vec<u8> = (0..len)
            .map(|_| {
                if g.next() % 100 < sparse_cut {
                    // Sentinel/separator band: the lowest codes.
                    (g.next() % 2.min(code_count as u64)) as u8
                } else {
                    (g.next() % code_count as u64) as u8
                }
            })
            .collect();
        let table = OccTable::new(data.clone(), code_count);
        let mut counts = vec![0u32; code_count];
        for _ in 0..60 {
            let i = g.range(0, len + 1);
            table.rank_all(i, &mut counts);
            for c in 0..code_count as u8 {
                let naive = data[..i].iter().filter(|&&b| b == c).count();
                assert_eq!(
                    counts[c as usize] as usize, naive,
                    "case {case} c={c} i={i}"
                );
                assert_eq!(table.rank(c, i), naive, "case {case} c={c} i={i}");
            }
        }
        for (i, &c) in data.iter().enumerate() {
            assert_eq!(table.get(i), c, "case {case} i={i}");
        }
    }
}

#[test]
fn two_level_protein_index_has_the_exact_footprint() {
    // The size claim, asserted at the index level: a protein-sized
    // occurrence table stores one byte per character plus exactly one u16
    // delta per code per block and one u64 super row per code per 8 blocks.
    let mut g = Gen::new(0x5eed_000e);
    let len: usize = 40_000;
    let blocks = len / 128 + 1;
    for code_count in [22usize, 16] {
        let data: Vec<u8> = (0..len)
            .map(|_| (g.next() % code_count as u64) as u8)
            .collect();
        let table = OccTable::new(data, code_count);
        assert_eq!(table.layout(), RankLayout::Bytes);
        assert_eq!(
            table.checkpoint_bytes(),
            code_count * (8 * blocks.div_ceil(8) + 2 * blocks)
        );
        assert_eq!(table.size_in_bytes(), len + table.checkpoint_bytes());
    }
}

#[test]
fn trie_expansion_performs_two_block_scans_per_node() {
    let mut g = Gen::new(0x5eed_000c);
    for (code_count, layout) in [
        (5usize, RankLayout::PackedDna),
        (5, RankLayout::PackedDna),
        (16, RankLayout::Bytes),
        (21, RankLayout::Bytes),
    ] {
        let sigma = code_count - 1;
        let text: Vec<u8> = (0..300)
            .map(|_| (g.next() % sigma as u64) as u8 + 1)
            .collect();
        let index = TextIndex::new(&text, code_count);
        assert_eq!(index.rank_layout(), layout);
        let mut buf = ChildBuf::new();
        let mut nodes = 0u64;
        let mut stack = vec![index.root()];
        let before = index.scan_snapshot();
        while let Some(cursor) = stack.pop() {
            if cursor.depth >= 3 {
                continue;
            }
            index.children_into(cursor, &mut buf);
            nodes += 1;
            stack.extend(buf.iter().map(|&(_, child)| child));
        }
        let delta = index.scan_snapshot().since(&before);
        assert_eq!(
            delta.block_scans,
            2 * nodes,
            "layout {layout:?} code_count {code_count}"
        );
    }
}

#[test]
fn evalue_threshold_is_monotone() {
    let mut g = Gen::new(0x5eed_0008);
    let ka = KarlinAltschul::estimate(Alphabet::Dna, &ScoringScheme::DEFAULT).unwrap();
    for case in 0..CASES {
        let exp1 = -15.0 + (g.next() % 1600) as f64 / 100.0;
        let exp2 = -15.0 + (g.next() % 1600) as f64 / 100.0;
        let m = g.range(100, 10_000);
        let n = g.range(1_000, 10_000_000);
        let (e1, e2) = (10f64.powf(exp1), 10f64.powf(exp2));
        let (h1, h2) = (
            ka.threshold_for_evalue(m, n, e1),
            ka.threshold_for_evalue(m, n, e2),
        );
        if e1 < e2 {
            assert!(h1 >= h2, "case {case}");
        } else if e1 > e2 {
            assert!(h1 <= h2, "case {case}");
        }
    }
}

#[test]
fn alae_counters_are_internally_consistent() {
    let mut g = Gen::new(0x5eed_0009);
    for case in 0..CASES {
        let text = g.dna(80, 200);
        let qlen = 30.min(text.len() / 2);
        let start = g.range(0, text.len() - qlen);
        let query = text[start..start + qlen].to_vec();
        let seq = Sequence::from_codes(Alphabet::Dna, text);
        let database = SequenceDatabase::from_sequences(Alphabet::Dna, [seq]);
        let result = AlaeAligner::build(
            &database,
            AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 8),
        )
        .align(&query);
        let stats = result.stats;
        assert_eq!(
            stats.accessed_entries(),
            stats.calculated_entries() + stats.reused_entries,
            "case {case}"
        );
        assert!(stats.reusing_ratio() >= 0.0 && stats.reusing_ratio() <= 100.0);
        assert!(
            stats.emr_entries >= 4 * stats.forks_started || stats.forks_started == 0,
            "case {case}"
        );
        assert!(result.hits.iter().all(|h| h.score >= result.threshold));
    }
}

#[test]
fn rank_layouts_agree_through_the_text_index() {
    // Layout choice must be invisible end-to-end: over random and
    // separator-heavy texts, the index `new` builds in either layout (DNA
    // packed, a protein-sized alphabet in bytes) expands every trie node to
    // the children and occurrence counts a naive count of the text gives,
    // locates a sampled substring where a naive search does, and pays two
    // block scans per expansion (the numbers BENCH_rank.json gates).
    let mut g = Gen::new(0x5eed_51f0);
    for (code_count, layout) in [(5usize, RankLayout::PackedDna), (17, RankLayout::Bytes)] {
        for separator_heavy in [false, true] {
            let len = g.range(900, 1800);
            let mut text = Vec::with_capacity(len);
            for i in 0..len {
                if separator_heavy && i % 7 == 0 {
                    text.push(0); // record separator (sparse code)
                } else {
                    text.push((g.next() % (code_count as u64 - 1)) as u8 + 1);
                }
            }
            let counts = substring_counts(&text, 4);
            let index = TextIndex::new(&text, code_count);
            assert_eq!(index.rank_layout(), layout);
            // DFS over the top of the trie.
            let mut buf = ChildBuf::new();
            let mut stack = vec![(index.root(), Vec::new())];
            let mut nodes = 0;
            let before = index.scan_snapshot();
            while let Some((cursor, pattern)) = stack.pop() {
                index.children_into(cursor, &mut buf);
                let found: Vec<(u8, usize)> = buf
                    .iter()
                    .map(|&(c, child)| (c, child.occurrence_count()))
                    .collect();
                assert_eq!(
                    found,
                    naive_children(&counts, &pattern, code_count),
                    "layout {layout:?} separators {separator_heavy}"
                );
                nodes += 1;
                if cursor.depth < 3 {
                    stack.extend(
                        buf.iter()
                            .map(|&(c, child)| (child, [pattern.as_slice(), &[c]].concat())),
                    );
                }
            }
            assert!(nodes > 1);
            assert_eq!(
                index.scan_snapshot().since(&before).block_scans,
                2 * nodes as u64
            );
            // The occurrence set of a sampled substring.
            let start = g.range(0, text.len() - 8);
            let pattern = text[start..start + 6].to_vec();
            let expected: Vec<usize> = (0..=text.len() - pattern.len())
                .filter(|&i| text[i..].starts_with(&pattern))
                .collect();
            assert_eq!(index.find_occurrences(&pattern), expected);
        }
    }
}

/// Save → open of random DNA and protein databases of 1–5 records, with an
/// empty record first, in the middle or last, text lengths that 16 (the
/// suffix-array sample rate) divides and that it does not, and the empty
/// database: the text an opened database derives from its index equals
/// the built one byte for byte.
#[test]
fn opened_indexes_derive_the_built_text() {
    let mut g = Gen::new(0x7e47);
    let path = std::env::temp_dir().join(format!("alae-derived-text-{}.idx", std::process::id()));
    let (mut divisible, mut not_divisible) = (0, 0);
    let mut cases: Vec<SequenceDatabase> = [Alphabet::Dna, Alphabet::Protein]
        .map(SequenceDatabase::new)
        .into();
    for case in 0..CASES {
        let alphabet = [Alphabet::Dna, Alphabet::Protein][case % 2];
        let records = g.range(1, 6);
        let mut lengths: Vec<usize> = (0..records).map(|_| g.range(1, 150)).collect();
        let empty = [0, records / 2, records - 1][case / 2 % 3];
        lengths[empty] = 0;
        if case % 4 < 2 {
            // Pad another record (or this one, when it is the only one) so
            // 16 divides the text length, separators included.
            let text_len = lengths.iter().sum::<usize>() + records - 1;
            lengths[(empty + 1) % records] += (16 - text_len % 16) % 16;
        }
        let sigma = alphabet.sigma() as u64;
        cases.push(SequenceDatabase::from_sequences(
            alphabet,
            lengths.iter().map(|&len| {
                let codes = (0..len).map(|_| (g.next() % sigma) as u8 + 1).collect();
                Sequence::from_codes(alphabet, codes)
            }),
        ));
    }
    for database in cases {
        let text_len = database.text_len();
        if text_len.is_multiple_of(16) {
            divisible += 1;
        } else {
            not_divisible += 1;
        }
        let built = IndexBuilder::new().index(database);
        built.save(&path).expect("save");
        let opened = IndexedDatabase::open(&path).expect("open");
        assert!(!opened.database().text_is_derived());
        assert_eq!(
            opened.database().record_starts(),
            built.database().record_starts()
        );
        assert!(
            opened.database().text() == built.database().text(),
            "{:?}, records {:?}",
            built.alphabet(),
            built.database().record_lengths()
        );
    }
    assert!(divisible > 2 && not_divisible > 2);
    std::fs::remove_file(&path).ok();
}
