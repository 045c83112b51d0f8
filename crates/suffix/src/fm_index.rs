//! FM-index: backward search and occurrence location over a BWT
//! (the "compressed suffix array" of Sections 2.3 and 5).
//!
//! The index operates on code sequences produced by `alae-bioseq`
//! (record separators are code 0, alphabet characters are `1..=σ`).
//! Internally every code is shifted up by one so that code 0 can serve as the
//! unique sentinel appended during suffix-array construction; callers never
//! see the shift.

use crate::bitvec::RankBitVec;
use crate::bwt::bwt_from_sa;
use crate::rank::{OccTable, RankLayout, ScanSnapshot};
use crate::sais::suffix_array;

/// Largest caller-visible code count an index supports; keeps the
/// [`FmIndex::extend_all`] scratch buffers on the stack.
pub const MAX_CODE_COUNT: usize = 30;

/// A half-open range `[start, end)` of rows in the suffix array; the paper's
/// "SA range" (Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaRange {
    /// First row of the range.
    pub start: usize,
    /// One past the last row of the range.
    pub end: usize,
}

impl SaRange {
    /// Number of suffixes (occurrences) in the range.
    #[inline]
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True when the range contains no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Default suffix-array sampling rate (one sampled row per this many text
/// positions).
pub const DEFAULT_SA_SAMPLE_RATE: usize = 16;

/// An FM-index over a code sequence.
#[derive(Debug, Clone)]
pub struct FmIndex {
    /// Number of characters in the indexed text (excluding the sentinel).
    text_len: usize,
    /// Number of distinct caller-visible codes (alphabet size + separator).
    code_count: usize,
    /// Occurrence structure over the BWT of the *shifted* text.
    occ: OccTable,
    /// `c_array[c]` = number of BWT characters strictly smaller than shifted
    /// code `c`.
    c_array: Vec<usize>,
    /// Marks rows whose suffix-array value is sampled.
    sampled_rows: RankBitVec,
    /// Sampled suffix-array values, indexed by `sampled_rows.rank1(row)`.
    samples: Vec<u32>,
    /// Sampling rate used at construction time.
    sample_rate: usize,
}

impl FmIndex {
    /// Build an FM-index for `text`, whose codes must all be `< code_count`.
    pub fn new(text: &[u8], code_count: usize) -> Self {
        Self::build(text, code_count, DEFAULT_SA_SAMPLE_RATE, RankLayout::Auto)
    }

    /// The one real constructor ([`FmIndex::new`] and
    /// [`crate::IndexOptions`] funnel here).
    pub(crate) fn build(
        text: &[u8],
        code_count: usize,
        sample_rate: usize,
        layout: RankLayout,
    ) -> Self {
        assert!(sample_rate >= 1);
        assert!(code_count >= 1);
        assert!(
            code_count <= MAX_CODE_COUNT,
            "code_count {code_count} exceeds MAX_CODE_COUNT {MAX_CODE_COUNT}"
        );
        debug_assert!(text.iter().all(|&c| (c as usize) < code_count));

        let sa = suffix_array(text);
        let transform = bwt_from_sa(text, &sa);
        // Shift every code up by one; the sentinel entry stays 0.
        let shifted_code_count = code_count + 1;
        let mut shifted_bwt = transform.data;
        for (row, b) in shifted_bwt.iter_mut().enumerate() {
            if row != transform.sentinel_row {
                *b += 1;
            }
        }
        // Note: the sentinel entry equals 0 already; positions holding
        // caller code 0 (record separators) become 1 after the shift, so the
        // sentinel remains unique.

        // C array over shifted codes (counted before the BWT moves into the
        // occurrence table, so the table's scan counters stay at zero until
        // the first real query).
        let mut counts = vec![0u32; shifted_code_count];
        for &c in &shifted_bwt {
            counts[c as usize] += 1;
        }
        let occ = OccTable::build(shifted_bwt, shifted_code_count, layout);
        let mut c_array = vec![0usize; shifted_code_count];
        let mut running = 0usize;
        for c in 1..shifted_code_count {
            running += counts[c - 1] as usize;
            c_array[c] = running;
        }

        // Sample suffix-array rows whose text position is a multiple of the
        // sampling rate (position n — the sentinel suffix — is always
        // sampled so locate() terminates).  The predicate is evaluated once
        // per row and drives both the marker bitvec and the sample values.
        let n_rows = sa.len();
        let is_sampled: Vec<bool> = sa
            .iter()
            .map(|&pos| {
                let pos = pos as usize;
                pos.is_multiple_of(sample_rate) || pos == text.len()
            })
            .collect();
        let sampled_rows = RankBitVec::from_bits(is_sampled.iter().copied());
        let mut samples = Vec::with_capacity(n_rows / sample_rate + 2);
        for (row, &sampled) in is_sampled.iter().enumerate() {
            if sampled {
                samples.push(sa[row]);
            }
        }

        Self {
            text_len: text.len(),
            code_count,
            occ,
            c_array,
            sampled_rows,
            samples,
            sample_rate,
        }
    }

    /// Length of the indexed text (without the sentinel).
    #[inline]
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Number of suffix-array rows (`text_len + 1`).
    #[inline]
    pub fn row_count(&self) -> usize {
        self.text_len + 1
    }

    /// Caller-visible code count the index was built for.
    #[inline]
    pub fn code_count(&self) -> usize {
        self.code_count
    }

    /// The SA range covering every suffix (the empty pattern).
    #[inline]
    pub fn full_range(&self) -> SaRange {
        SaRange {
            start: 0,
            end: self.row_count(),
        }
    }

    /// Extend a pattern by prepending character `c` (backward-search step,
    /// Section 2.3: "it processes the string xS by iteratively inserting one
    /// character x before S").  Returns an empty range when `xS` does not
    /// occur.
    #[inline]
    pub fn extend_left(&self, range: SaRange, c: u8) -> SaRange {
        debug_assert!((c as usize) < self.code_count);
        let shifted = c + 1;
        let start = self.c_array[shifted as usize] + self.occ.rank(shifted, range.start);
        let end = self.c_array[shifted as usize] + self.occ.rank(shifted, range.end);
        SaRange { start, end }
    }

    /// One backward-search step for **every** character at once: derive the
    /// SA range of `c·S` for each caller code `c` from the range of `S`.
    ///
    /// `out` must have length [`FmIndex::code_count`]; `out[c]` receives the
    /// range of `c·S` (empty when `c·S` does not occur).  The two range
    /// boundaries are resolved with one [`OccTable::rank_all`] each, so the
    /// whole fan-out costs **two** block scans — the per-character
    /// [`FmIndex::extend_left`] loop it replaces costs `2·σ`.
    pub fn extend_all(&self, range: SaRange, out: &mut [SaRange]) {
        assert_eq!(out.len(), self.code_count);
        let shifted_count = self.c_array.len();
        let mut at_start = [0u32; MAX_CODE_COUNT + 1];
        let mut at_end = [0u32; MAX_CODE_COUNT + 1];
        self.occ
            .rank_all(range.start, &mut at_start[..shifted_count]);
        self.occ.rank_all(range.end, &mut at_end[..shifted_count]);
        for (code, slot) in out.iter_mut().enumerate() {
            let shifted = code + 1;
            let base = self.c_array[shifted];
            *slot = SaRange {
                start: base + at_start[shifted] as usize,
                end: base + at_end[shifted] as usize,
            };
        }
    }

    /// Scan-work counters of the underlying occurrence table (block scans
    /// and storage bytes touched since construction).
    pub fn scan_snapshot(&self) -> ScanSnapshot {
        self.occ.scan_snapshot()
    }

    /// The rank-storage layout selected at construction.
    pub fn rank_layout(&self) -> RankLayout {
        self.occ.layout()
    }

    /// Footprint of the occurrence table alone (BWT storage + checkpoint
    /// rows) — the per-layout figure the rank benchmark reports.
    pub fn occ_size_in_bytes(&self) -> usize {
        self.occ.size_in_bytes()
    }

    /// Backward search for a whole pattern; `O(|pattern|)` extension steps.
    pub fn backward_search(&self, pattern: &[u8]) -> SaRange {
        let mut range = self.full_range();
        for &c in pattern.iter().rev() {
            range = self.extend_left(range, c);
            if range.is_empty() {
                break;
            }
        }
        range
    }

    /// Number of occurrences of `pattern` in the text.
    pub fn count(&self, pattern: &[u8]) -> usize {
        self.backward_search(pattern).len()
    }

    /// LF-mapping: the row of the suffix starting one position earlier.
    #[inline]
    fn lf(&self, row: usize) -> usize {
        let c = self.occ.get(row);
        if c == 0 {
            // The sentinel row maps to row 0 (the smallest suffix).
            return 0;
        }
        self.c_array[c as usize] + self.occ.rank(c, row)
    }

    /// The text position (0-based) of the suffix at `row`.
    ///
    /// Position `text_len` denotes the empty (sentinel) suffix.
    pub fn locate(&self, row: usize) -> usize {
        let mut row = row;
        let mut steps = 0usize;
        while !self.sampled_rows.get(row) {
            row = self.lf(row);
            steps += 1;
        }
        let base = self.samples[self.sampled_rows.rank1(row)] as usize;
        base + steps
    }

    /// Text positions of all occurrences of the pattern represented by
    /// `range` (callers typically obtain `range` from
    /// [`FmIndex::backward_search`]).
    pub fn locate_range(&self, range: SaRange) -> Vec<usize> {
        (range.start..range.end)
            .map(|row| self.locate(row))
            .collect()
    }

    /// Approximate index footprint in bytes (BWT + rank checkpoints +
    /// SA samples); used by the Figure 11 index-size experiment.
    pub fn size_in_bytes(&self) -> usize {
        self.occ.size_in_bytes()
            + self.c_array.len() * std::mem::size_of::<usize>()
            + self.sampled_rows.size_in_bytes()
            + self.samples.len() * std::mem::size_of::<u32>()
    }

    /// The sampling rate the index was built with.
    pub fn sample_rate(&self) -> usize {
        self.sample_rate
    }

    /// The occurrence table over the BWT of the shifted text (serialization
    /// support).
    pub fn occ_table(&self) -> &OccTable {
        &self.occ
    }

    /// The C array over shifted codes (serialization support).
    pub fn c_array(&self) -> &[usize] {
        &self.c_array
    }

    /// The sampled-row marker bit vector (serialization support).
    pub fn sampled_rows(&self) -> &RankBitVec {
        &self.sampled_rows
    }

    /// The sampled suffix-array values (serialization support).
    pub fn samples(&self) -> &[u32] {
        &self.samples
    }

    /// Reassemble an index from serialized parts without rebuilding the
    /// suffix array or the BWT (the `alae-store` open path).
    ///
    /// Shapes are validated (the occurrence table must cover `text_len + 1`
    /// rows of `code_count + 1` shifted codes, the C array must be a
    /// non-decreasing prefix-sum row, the sample list must match the marker
    /// bit vector); content integrity is covered by the store's per-section
    /// checksums.
    pub fn from_parts(
        text_len: usize,
        code_count: usize,
        occ: OccTable,
        c_array: Vec<usize>,
        sampled_rows: RankBitVec,
        samples: Vec<u32>,
        sample_rate: usize,
    ) -> Result<Self, String> {
        if sample_rate < 1 {
            return Err("sample_rate must be ≥ 1".into());
        }
        if !(1..=MAX_CODE_COUNT).contains(&code_count) {
            return Err(format!(
                "code_count {code_count} outside 1..={MAX_CODE_COUNT}"
            ));
        }
        let rows = text_len + 1;
        if occ.len() != rows {
            return Err(format!(
                "occurrence table covers {} positions, expected {rows}",
                occ.len()
            ));
        }
        if occ.code_count() != code_count + 1 {
            return Err(format!(
                "occurrence table built for {} codes, expected {}",
                occ.code_count(),
                code_count + 1
            ));
        }
        if c_array.len() != code_count + 1 {
            return Err(format!(
                "C array holds {} entries, expected {}",
                c_array.len(),
                code_count + 1
            ));
        }
        if c_array.first() != Some(&0)
            || c_array.windows(2).any(|w| w[0] > w[1])
            || c_array.last().is_some_and(|&last| last > rows)
        {
            return Err("C array is not a non-decreasing prefix-sum row".into());
        }
        if sampled_rows.len() != rows {
            return Err(format!(
                "sampled-row bit vector covers {} rows, expected {rows}",
                sampled_rows.len()
            ));
        }
        if samples.len() != sampled_rows.count_ones() {
            return Err(format!(
                "{} samples for {} marked rows",
                samples.len(),
                sampled_rows.count_ones()
            ));
        }
        if samples.iter().any(|&pos| pos as usize > text_len) {
            return Err("sample position past the end of the text".into());
        }
        Ok(Self {
            text_len,
            code_count,
            occ,
            c_array,
            sampled_rows,
            samples,
            sample_rate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::IndexOptions;

    fn naive_occurrences(text: &[u8], pattern: &[u8]) -> Vec<usize> {
        if pattern.is_empty() || pattern.len() > text.len() {
            return Vec::new();
        }
        (0..=text.len() - pattern.len())
            .filter(|&i| &text[i..i + pattern.len()] == pattern)
            .collect()
    }

    #[test]
    fn paper_example_gc_occurrences() {
        // Section 2.3: "the SA range of a substring GC is [4, 5], then the
        // starting positions of GC in T are 5 and 1" (1-based).
        let text: Vec<u8> = b"GCTAGC"
            .iter()
            .map(|&b| match b {
                b'A' => 1u8,
                b'C' => 2,
                b'G' => 3,
                b'T' => 4,
                _ => unreachable!(),
            })
            .collect();
        let fm = FmIndex::new(&text, 5);
        let pattern = [3u8, 2u8]; // "GC"
        let range = fm.backward_search(&pattern);
        assert_eq!(range.len(), 2);
        let mut positions = fm.locate_range(range);
        positions.sort_unstable();
        // 0-based positions 0 and 4 correspond to the paper's 1-based 1 and 5.
        assert_eq!(positions, vec![0, 4]);
    }

    #[test]
    fn counts_match_naive_search() {
        let text: Vec<u8> = b"ACGTACGTAGGGCATACGT"
            .iter()
            .map(|&b| match b {
                b'A' => 1u8,
                b'C' => 2,
                b'G' => 3,
                b'T' => 4,
                _ => unreachable!(),
            })
            .collect();
        let fm = FmIndex::new(&text, 5);
        for pattern_ascii in [
            b"ACGT".as_slice(),
            b"GG",
            b"TTT",
            b"A",
            b"CATACGT",
            b"ACGTACGTAGGGCATACGT",
        ] {
            let pattern: Vec<u8> = pattern_ascii
                .iter()
                .map(|&b| match b {
                    b'A' => 1u8,
                    b'C' => 2,
                    b'G' => 3,
                    b'T' => 4,
                    _ => unreachable!(),
                })
                .collect();
            let expected = naive_occurrences(&text, &pattern);
            assert_eq!(
                fm.count(&pattern),
                expected.len(),
                "pattern {pattern_ascii:?}"
            );
            let mut located = fm.locate_range(fm.backward_search(&pattern));
            located.sort_unstable();
            assert_eq!(located, expected, "pattern {pattern_ascii:?}");
        }
    }

    #[test]
    fn random_text_occurrences_match_naive() {
        let mut state = 42u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let text: Vec<u8> = (0..800).map(|_| (next() % 4) as u8 + 1).collect();
        let fm = IndexOptions::new().sample_rate(8).build_fm_index(&text, 5);
        for len in [1usize, 2, 3, 5, 8] {
            for _ in 0..20 {
                let start = (next() as usize) % (text.len() - len);
                let pattern = &text[start..start + len];
                let expected = naive_occurrences(&text, pattern);
                let range = fm.backward_search(pattern);
                assert_eq!(range.len(), expected.len());
                let mut located = fm.locate_range(range);
                located.sort_unstable();
                assert_eq!(located, expected);
            }
        }
    }

    #[test]
    fn absent_patterns_give_empty_ranges() {
        let text = vec![1u8, 1, 1, 1, 2, 2, 2];
        let fm = FmIndex::new(&text, 5);
        assert!(fm.backward_search(&[3u8]).is_empty());
        assert!(fm.backward_search(&[1u8, 2, 1]).is_empty());
        assert_eq!(fm.count(&[4u8, 4]), 0);
    }

    #[test]
    fn texts_with_separators_are_searchable() {
        // Two records "ACG" and "CGT" concatenated with separator 0.
        let text = vec![1u8, 2, 3, 0, 2, 3, 4];
        let fm = FmIndex::new(&text, 5);
        // "CG" occurs in both records.
        assert_eq!(fm.count(&[2u8, 3]), 2);
        // A pattern spanning the separator only matches when it includes it.
        assert_eq!(fm.count(&[3u8, 2]), 0);
        assert_eq!(fm.count(&[3u8, 0, 2]), 1);
    }

    #[test]
    fn full_range_and_empty_pattern() {
        let text = vec![1u8, 2, 3, 4];
        let fm = FmIndex::new(&text, 5);
        assert_eq!(fm.full_range().len(), 5);
        assert_eq!(fm.backward_search(&[]).len(), 5);
        assert_eq!(fm.text_len(), 4);
        assert_eq!(fm.row_count(), 5);
    }

    #[test]
    fn locate_every_row_is_a_permutation() {
        let text: Vec<u8> = (0..100).map(|i| (i % 4) as u8 + 1).collect();
        for rate in [1usize, 4, 16, 64] {
            let fm = IndexOptions::new()
                .sample_rate(rate)
                .build_fm_index(&text, 5);
            let mut positions: Vec<usize> = (0..fm.row_count()).map(|row| fm.locate(row)).collect();
            positions.sort_unstable();
            let expected: Vec<usize> = (0..=text.len()).collect();
            assert_eq!(positions, expected, "rate {rate}");
        }
    }

    #[test]
    fn extend_all_matches_per_character_extend_left() {
        let mut state = 77u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for code_count in [5usize, 9, 21] {
            let sigma = code_count - 1;
            let text: Vec<u8> = (0..600)
                .map(|_| (next() % sigma as u64) as u8 + 1)
                .collect();
            let fm = FmIndex::new(&text, code_count);
            // Random ranges reached by short backward searches plus the full
            // range and an empty range.
            let mut ranges = vec![fm.full_range(), SaRange { start: 3, end: 3 }];
            for _ in 0..30 {
                let len = (next() % 4) as usize + 1;
                let pattern: Vec<u8> = (0..len)
                    .map(|_| (next() % sigma as u64) as u8 + 1)
                    .collect();
                ranges.push(fm.backward_search(&pattern));
            }
            let mut all = vec![SaRange { start: 0, end: 0 }; code_count];
            for range in ranges {
                fm.extend_all(range, &mut all);
                for c in 0..code_count as u8 {
                    assert_eq!(
                        all[c as usize],
                        fm.extend_left(range, c),
                        "code_count={code_count} range={range:?} c={c}"
                    );
                }
            }
        }
    }

    #[cfg(feature = "occ-counters")]
    #[test]
    fn extend_all_costs_two_block_scans_regardless_of_alphabet() {
        for code_count in [5usize, 21] {
            let sigma = code_count - 1;
            let text: Vec<u8> = (0..400).map(|i| (i % sigma) as u8 + 1).collect();
            let fm = FmIndex::new(&text, code_count);
            let mut out = vec![SaRange { start: 0, end: 0 }; code_count];
            let before = fm.scan_snapshot();
            for _ in 0..10 {
                fm.extend_all(fm.full_range(), &mut out);
            }
            let delta = fm.scan_snapshot().since(&before);
            assert_eq!(delta.block_scans, 20, "code_count={code_count}");
        }
    }

    #[test]
    fn size_accounting_scales_with_text() {
        let small = FmIndex::new(&vec![1u8; 1_000], 5);
        let large = FmIndex::new(&vec![1u8; 10_000], 5);
        assert!(large.size_in_bytes() > small.size_in_bytes());
        assert_eq!(small.sample_rate(), DEFAULT_SA_SAMPLE_RATE);
    }
}
