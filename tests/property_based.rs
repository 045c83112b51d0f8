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
use alae::core::{AlaeAligner, AlaeConfig, DominationIndex, QGramIndex};
use alae::suffix::sais::{suffix_array, suffix_array_naive};
use alae::suffix::{ChildBuf, IndexOptions, RankLayout, TextIndex};

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

#[test]
fn suffix_array_matches_naive() {
    let mut g = Gen::new(0x5eed_0001);
    for case in 0..CASES {
        let text = g.dna(0, 200);
        assert_eq!(
            suffix_array(&text),
            suffix_array_naive(&text),
            "case {case}"
        );
    }
}

#[test]
fn fm_index_counts_match_naive_search() {
    let mut g = Gen::new(0x5eed_0002);
    for case in 0..CASES {
        let text = g.dna(30, 300);
        let pattern = g.dna(1, 8);
        let index = TextIndex::new(text.clone(), 5);
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

#[test]
fn domination_index_respects_the_definition() {
    let mut g = Gen::new(0x5eed_0004);
    for case in 0..CASES {
        let text = g.dna(20, 250);
        let q = 4;
        let index = DominationIndex::build(&text, q, 5);
        // For every adjacent pair of grams, `dominates` implies the literal
        // definition on every occurrence.
        for start in 1..=text.len() - q {
            let gram = &text[start..start + q];
            let prev = &text[start - 1..start - 1 + q];
            let gram_key = alae::core::qgram::pack_gram(gram, 5).unwrap();
            let prev_key = alae::core::qgram::pack_gram(prev, 5).unwrap();
            if index.dominates(prev_key, gram_key) {
                for t in 0..=text.len() - q {
                    if &text[t..t + q] == gram {
                        assert!(t >= 1, "case {case}: occurrence at text start");
                        assert_eq!(&text[t - 1..t - 1 + q], prev, "case {case}");
                    }
                }
            }
        }
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

#[test]
fn extend_all_agrees_with_extend_left_on_random_dfs() {
    // Tentpole invariant: for every trie node reached by a random DFS, the
    // single-scan `extend_all` fan-out reports exactly the ranges the σ
    // per-character `extend_left` steps report — on both rank layouts and on
    // a protein-sized alphabet.
    let mut g = Gen::new(0x5eed_000a);
    for case in 0..24 {
        let (code_count, layout) = match case % 3 {
            0 => (5usize, RankLayout::PackedDna),
            1 => (5usize, RankLayout::Bytes),
            _ => (21usize, RankLayout::Auto),
        };
        let sigma = code_count - 1;
        let len = g.range(100, 400);
        let text: Vec<u8> = (0..len)
            .map(|_| (g.next() % sigma as u64) as u8 + 1)
            .collect();
        let index = IndexOptions::new()
            .layout(layout)
            .build_text_index(text, code_count);
        let mut buf = ChildBuf::new();
        let mut stack = vec![index.root()];
        let mut visited = 0usize;
        while let Some(cursor) = stack.pop() {
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
            // Randomly descend into a few children to diversify ranges.
            for &(_, child) in buf.as_slice() {
                if g.next().is_multiple_of(2) {
                    stack.push(child);
                }
            }
        }
    }
}

#[test]
fn packed_and_generic_rank_paths_agree_on_random_texts() {
    // The 2-bit-packed popcount path and the generic SWAR path must compute
    // identical ranks — including sentinel/separator exception codes.
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
        let bytes = IndexOptions::new()
            .layout(RankLayout::Bytes)
            .build_occ_table(data.clone(), code_count);
        let packed = IndexOptions::new()
            .layout(RankLayout::PackedDna)
            .build_occ_table(data.clone(), code_count);
        let mut counts_b = vec![0u32; code_count];
        let mut counts_p = vec![0u32; code_count];
        for _ in 0..40 {
            let i = g.range(0, len + 1);
            bytes.rank_all(i, &mut counts_b);
            packed.rank_all(i, &mut counts_p);
            assert_eq!(counts_b, counts_p, "case {case} i={i}");
            for c in 0..code_count as u8 {
                assert_eq!(
                    bytes.rank(c, i),
                    packed.rank(c, i),
                    "case {case} c={c} i={i}"
                );
            }
        }
        for i in 0..len {
            assert_eq!(bytes.get(i), packed.get(i), "case {case} i={i}");
        }
    }
}

#[test]
fn nibble_and_two_level_agree_with_generic_on_random_texts() {
    // The 4-bit nibble-packed path must compute identical ranks to the
    // generic SWAR byte layout (both over the two-level checkpoint rows) —
    // on random texts, including separator/sentinel-heavy ones where the
    // exception list carries a large share of positions.
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
        let reference = IndexOptions::new()
            .layout(RankLayout::Bytes)
            .build_occ_table(data.clone(), code_count);
        let nibble = IndexOptions::new()
            .layout(RankLayout::PackedNibble)
            .build_occ_table(data.clone(), code_count);
        let mut counts_r = vec![0u32; code_count];
        let mut counts_n = vec![0u32; code_count];
        for _ in 0..60 {
            let i = g.range(0, len + 1);
            reference.rank_all(i, &mut counts_r);
            nibble.rank_all(i, &mut counts_n);
            assert_eq!(counts_r, counts_n, "case {case} i={i}");
            for c in 0..code_count as u8 {
                assert_eq!(
                    reference.rank(c, i),
                    nibble.rank(c, i),
                    "case {case} c={c} i={i}"
                );
            }
        }
        for i in 0..len {
            assert_eq!(reference.get(i), nibble.get(i), "case {case} i={i}");
        }
    }
}

#[test]
fn two_level_protein_index_has_the_exact_footprint() {
    // The size claim, asserted at the index level: a protein-alphabet
    // occurrence table carries exactly one u16 delta per code per block
    // plus one u64 super row per code per 8 blocks, and the nibble packing
    // makes a reduced-alphabet table smaller than its byte twin.
    let mut g = Gen::new(0x5eed_000e);
    let len: usize = 40_000;
    let protein: Vec<u8> = (0..len).map(|_| (g.next() % 22) as u8).collect();
    let table = IndexOptions::new()
        .layout(RankLayout::Bytes)
        .build_occ_table(protein, 22);
    let blocks = len / 128 + 1;
    assert_eq!(
        table.checkpoint_bytes(),
        22 * (8 * blocks.div_ceil(8) + 2 * blocks)
    );
    assert_eq!(table.size_in_bytes(), len + table.checkpoint_bytes());

    let reduced: Vec<u8> = (0..len).map(|_| (g.next() % 16) as u8).collect();
    let bytes16 = IndexOptions::new()
        .layout(RankLayout::Bytes)
        .build_occ_table(reduced.clone(), 16);
    let nibble16 = IndexOptions::new()
        .layout(RankLayout::PackedNibble)
        .build_occ_table(reduced, 16);
    assert!(nibble16.size_in_bytes() < bytes16.size_in_bytes());
}

#[cfg(feature = "occ-counters")]
#[test]
fn trie_expansion_performs_two_block_scans_per_node() {
    let mut g = Gen::new(0x5eed_000c);
    for (code_count, layout) in [
        (5usize, RankLayout::PackedDna),
        (5, RankLayout::Bytes),
        (16, RankLayout::PackedNibble),
        (21, RankLayout::Bytes),
    ] {
        let sigma = code_count - 1;
        let text: Vec<u8> = (0..300)
            .map(|_| (g.next() % sigma as u64) as u8 + 1)
            .collect();
        let index = IndexOptions::new()
            .layout(layout)
            .build_text_index(text, code_count);
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
    // separator-heavy texts, a packed index and a byte-layout index report
    // identical trie expansions, identical occurrence sets, and the same
    // two block scans per expansion (the numbers BENCH_rank.json gates).
    let mut g = Gen::new(0x5eed_51f0);
    for (code_count, layout) in [
        (5usize, RankLayout::PackedDna),
        (17, RankLayout::PackedNibble),
    ] {
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
            let reference = IndexOptions::new()
                .layout(RankLayout::Bytes)
                .build_text_index(text.clone(), code_count);
            let packed = IndexOptions::new()
                .layout(layout)
                .build_text_index(text.clone(), code_count);
            assert_eq!(packed.rank_layout(), layout);
            // DFS over the top of the trie: identical children at every
            // node (ranges and labels), so identical walks everywhere.
            let mut buf_ref = ChildBuf::new();
            let mut buf_packed = ChildBuf::new();
            let mut stack = vec![reference.root()];
            let mut nodes = 0;
            while let Some(cursor) = stack.pop() {
                reference.children_into(cursor, &mut buf_ref);
                packed.children_into(cursor, &mut buf_packed);
                assert_eq!(
                    buf_ref.as_slice(),
                    buf_packed.as_slice(),
                    "layout {layout:?} separators {separator_heavy}"
                );
                nodes += 1;
                if cursor.depth < 3 {
                    stack.extend(buf_ref.iter().map(|&(_, child)| child));
                }
            }
            assert!(nodes > 1);
            assert_eq!(
                reference.scan_snapshot().block_scans,
                packed.scan_snapshot().block_scans
            );
            // Identical occurrence sets for a sampled substring.
            let start = g.range(0, text.len() - 8);
            let pattern = text[start..start + 6].to_vec();
            assert_eq!(
                reference.find_occurrences(&pattern),
                packed.find_occurrences(&pattern)
            );
        }
    }
}
