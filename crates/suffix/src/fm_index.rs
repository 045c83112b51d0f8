//! FM-index: backward search and occurrence location over a BWT
//! (the "compressed suffix array" of Sections 2.3 and 5).
//!
//! The index operates on code sequences produced by `alae-bioseq`
//! (record separators are code 0, alphabet characters are `1..=σ`).
//! Internally every code is shifted up by one so that code 0 can serve as the
//! unique sentinel appended during suffix-array construction; callers never
//! see the shift.
//!
//! A build's one large buffer is the suffix array.  It is sampled, then
//! overwritten with the shifted BWT (four rows per `u32`) and shrunk to the
//! BWT's size before the occurrence table is built from it, so no second
//! buffer of `n` bytes is ever live next to the full array.
//!
//! Everything the BWT determines is computed from it, on the build and on
//! the open path alike: the occurrence table's checkpoint rows
//! ([`OccTable`]) and the C array (from the table's code totals).  Only
//! the BWT, the sampled-row bits and the packed samples ([`PackedSamples`])
//! are stored.

use crate::bitvec::RankBitVec;
use crate::rank::{OccTable, RankLayout, ScanSnapshot};
use crate::sais::{suffix_array_of, Reversed, Symbols};

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

/// Suffix-array sampling rate of every index: the rows of text positions
/// that are multiples of this rate are sampled, plus the sentinel suffix's
/// row.  [`FmIndex::from_parts`] refuses any other sampling, so `locate`
/// meets a sampled row within this many LF steps.
pub const SA_SAMPLE_RATE: usize = 16;

/// The suffix-array samples of every sampled row but row 0, in row order,
/// packed the same way in the build, the file and the resident index.
///
/// Each sample is a multiple of [`SA_SAMPLE_RATE`] below the text length,
/// stored as `position / SA_SAMPLE_RATE` in a field of
/// ⌈log₂(⌊`text_len` / 16⌋ + 1)⌉ bits: field `k` occupies bits
/// `k·width .. (k+1)·width` of the little-endian `u64` words, and the
/// last word's unused bits are zero.  Row 0's sample, the empty suffix at
/// `text_len`, is implied and not stored.
#[derive(Debug, Clone)]
pub struct PackedSamples {
    words: Vec<u64>,
    /// Bits per field (0 for a text shorter than the rate).
    width: usize,
    /// Number of fields.
    len: usize,
}

impl PackedSamples {
    /// The field width and field count of a text of `text_len` characters.
    fn shape(text_len: usize) -> (usize, usize) {
        let width = (usize::BITS - (text_len / SA_SAMPLE_RATE).leading_zeros()) as usize;
        (width, sample_count(text_len) - 1)
    }

    /// All-zero fields for the samples of a text of `text_len` characters.
    fn zeroed(text_len: usize) -> Self {
        let (width, len) = Self::shape(text_len);
        Self {
            words: vec![0; (len * width).div_ceil(64)],
            width,
            len,
        }
    }

    /// Adopt the stored `words` of a text of `text_len` characters,
    /// refusing words that are not that text's samples: a word count other
    /// than its fields need, nonzero bits past the last field, or a field
    /// whose position is not below `text_len`.
    fn from_words(text_len: usize, words: Vec<u64>) -> Result<Self, String> {
        let (width, len) = Self::shape(text_len);
        let bits = len * width;
        if words.len() != bits.div_ceil(64) {
            return Err(format!(
                "{} sample words, a text of {text_len} has {len} samples of {width} bits in {}",
                words.len(),
                bits.div_ceil(64)
            ));
        }
        if !bits.is_multiple_of(64) && words.last().is_some_and(|&w| w >> (bits % 64) != 0) {
            return Err(format!("the sample words hold bits past the {len} samples"));
        }
        let samples = Self { words, width, len };
        if let Some(k) = (0..len).find(|&k| samples.position(k) >= text_len) {
            return Err(format!(
                "sample {k} holds position {}, not below the text length {text_len}",
                samples.position(k)
            ));
        }
        Ok(samples)
    }

    /// Store `position` (a multiple of the rate) as field `k`, which is
    /// still zero.
    fn set(&mut self, k: usize, position: usize) {
        let value = (position / SA_SAMPLE_RATE) as u64;
        if value == 0 {
            return; // Also the only value a 0-bit field holds.
        }
        let (word, bit) = (k * self.width / 64, k * self.width % 64);
        self.words[word] |= value << bit;
        if bit + self.width > 64 {
            self.words[word + 1] |= value >> (64 - bit);
        }
    }

    /// The position stored in field `k`.  Always inlined: `locate` reads
    /// one per hit.
    #[inline(always)]
    fn position(&self, k: usize) -> usize {
        debug_assert!(k < self.len);
        let (word, bit) = (k * self.width / 64, k * self.width % 64);
        // Only 0-bit fields have no word under them, and they hold 0.
        let Some(&low) = self.words.get(word) else {
            return 0;
        };
        let mut value = low >> bit;
        if bit + self.width > 64 {
            value |= self.words[word + 1] << (64 - bit);
        }
        (value & ((1 << self.width) - 1)) as usize * SA_SAMPLE_RATE
    }

    /// The packed words (serialization support).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Bits per field.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no sample is stored (the empty text).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The FM-index of a reversed code sequence (what [`crate::TextIndex`]
/// searches).
#[derive(Debug, Clone)]
pub struct FmIndex {
    /// Number of characters in the indexed text (excluding the sentinel).
    text_len: usize,
    /// Number of distinct caller-visible codes (alphabet size + separator).
    code_count: usize,
    /// Occurrence structure over the BWT of the *shifted* text.
    occ: OccTable,
    /// `c_array[c]` = number of BWT characters strictly smaller than shifted
    /// code `c`, from the occurrence table's code totals.
    c_array: Vec<usize>,
    /// Marks rows whose suffix-array value is sampled.
    sampled_rows: RankBitVec,
    /// Sampled suffix-array values of the marked rows after row 0, indexed
    /// by `sampled_rows.rank1(row) - 1`.
    samples: PackedSamples,
}

impl FmIndex {
    /// Build the FM-index of `text` reversed, reading `text` backwards
    /// instead of copying it.  Its codes must all be `< code_count`.
    pub(crate) fn new_reversed(text: &[u8], code_count: usize) -> Self {
        debug_assert!(text.iter().all(|&c| (c as usize) < code_count));
        assert!(code_count >= 1);
        assert!(
            code_count <= MAX_CODE_COUNT,
            "code_count {code_count} exceeds MAX_CODE_COUNT {MAX_CODE_COUNT}"
        );

        // The suffix array is the build's one large buffer: sample it, then
        // overwrite it with the BWT.  The sentinel is shifted code 0; caller
        // code 0 (record separators) is shifted to 1, so it stays unique.
        let reversed = Reversed(text);
        let sa = suffix_array_of(&reversed);
        let (sampled_rows, samples) = sample_suffix_array(&sa);
        let occ = OccTable::new(shifted_bwt_in_place(&reversed, sa), code_count + 1);
        Self {
            text_len: text.len(),
            code_count,
            c_array: c_array_of(&code_totals(&occ)[..=code_count]),
            occ,
            sampled_rows,
            samples,
        }
    }

    /// Length of the indexed text (without the sentinel).
    #[inline]
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Caller-visible code count the index was built for.
    #[inline]
    pub fn code_count(&self) -> usize {
        self.code_count
    }

    /// The SA range covering every suffix (the empty pattern): all
    /// `text_len + 1` rows.
    #[inline]
    pub fn full_range(&self) -> SaRange {
        SaRange {
            start: 0,
            end: self.text_len + 1,
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

    /// The storage layout of the occurrence table.
    pub fn rank_layout(&self) -> RankLayout {
        self.occ.layout()
    }

    /// Footprint of the occurrence table alone (BWT storage + checkpoint
    /// rows) — the per-layout figure the rank benchmark reports.
    pub fn occ_size_in_bytes(&self) -> usize {
        self.occ.size_in_bytes()
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
    ///
    /// # Panics
    ///
    /// Panics when [`SA_SAMPLE_RATE`] LF steps meet no sampled row, which
    /// only a corrupt index can cause: each step moves one text position
    /// back, so a built index meets one within `SA_SAMPLE_RATE − 1`.
    pub fn locate(&self, row: usize) -> usize {
        let mut row = row;
        let mut steps = 0usize;
        while !self.sampled_rows.get(row) {
            assert!(
                steps < SA_SAMPLE_RATE,
                "corrupt index: {SA_SAMPLE_RATE} LF steps met no sampled row"
            );
            row = self.lf(row);
            steps += 1;
        }
        // Row 0, the first marked row, holds the empty suffix.
        let base = match self.sampled_rows.rank1(row) {
            0 => self.text_len,
            k => self.samples.position(k - 1),
        };
        base + steps
    }

    /// The text this index was built from, in caller codes, spelled by
    /// one LF walk of `text_len` steps.
    ///
    /// The index is the reversed text's, so row 0 (the empty suffix) holds
    /// the text's first code in the BWT, and each LF step reads the next
    /// one.  The walk counts no scans: it is not query work.  An opened
    /// index keeps no text, and this is how its database derives it.
    ///
    /// Fails when the walk meets the sentinel before its last step or does
    /// not end on it, or leaves the table: a corrupt index.
    pub fn derive_text(&self) -> Result<Vec<u8>, String> {
        let rows = self.text_len + 1;
        let mut text = Vec::with_capacity(self.text_len);
        let mut row = 0;
        for step in 0..self.text_len {
            if row >= rows {
                return Err(format!("the LF walk left the {rows} rows at step {step}"));
            }
            let c = self.occ.get(row);
            if c == 0 {
                return Err(format!(
                    "the LF walk met the sentinel at step {step} of {}",
                    self.text_len
                ));
            }
            text.push(c - 1);
            row = self.c_array[c as usize] + self.occ.rank_unrecorded(c, row);
        }
        if row >= rows || self.occ.get(row) != 0 {
            return Err(format!(
                "the LF walk did not end on the sentinel after {} steps",
                self.text_len
            ));
        }
        Ok(text)
    }

    /// Approximate index footprint in bytes (BWT + rank checkpoints +
    /// SA samples); used by the Figure 11 index-size experiment.
    pub fn size_in_bytes(&self) -> usize {
        self.occ.size_in_bytes()
            + self.c_array.len() * std::mem::size_of::<usize>()
            + self.sampled_rows.size_in_bytes()
            + self.samples.words.len() * std::mem::size_of::<u64>()
    }

    /// The occurrence table over the BWT of the shifted text (serialization
    /// support).
    pub fn occ_table(&self) -> &OccTable {
        &self.occ
    }

    /// The C array over shifted codes: `c_array()[c]` BWT characters are
    /// below shifted code `c`.
    pub fn c_array(&self) -> &[usize] {
        &self.c_array
    }

    /// The sampled-row marker bit vector (serialization support).
    pub fn sampled_rows(&self) -> &RankBitVec {
        &self.sampled_rows
    }

    /// The packed suffix-array samples (serialization support).
    pub fn samples(&self) -> &PackedSamples {
        &self.samples
    }

    /// Reassemble an index from serialized parts without rebuilding the
    /// suffix array or the BWT (the `alae-store` open path).
    ///
    /// The occurrence table must cover `text_len + 1` rows of
    /// `code_count + 1` shifted codes, exactly one of them the sentinel;
    /// the C array is computed from its code totals, as the build computes
    /// it.  The samples must be the [`SA_SAMPLE_RATE`] sampling: row 0
    /// marked, one marked row per multiple of the rate up to `text_len`
    /// plus row 0, and `sample_words` those rows' packed samples (see
    /// [`PackedSamples`]).  Which rows are marked is not checked (that
    /// needs a walk of the whole BWT): [`FmIndex::locate`] panics rather
    /// than spin on a marker set that leaves a row unsampled.
    pub fn from_parts(
        text_len: usize,
        code_count: usize,
        occ: OccTable,
        sampled_rows: RankBitVec,
        sample_words: Vec<u64>,
    ) -> Result<Self, String> {
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
        let totals = code_totals(&occ);
        if totals[0] != 1 {
            return Err(format!("the BWT holds {} sentinels, not 1", totals[0]));
        }
        if sampled_rows.len() != rows {
            return Err(format!(
                "sampled-row bit vector covers {} rows, expected {rows}",
                sampled_rows.len()
            ));
        }
        let (marked, expected) = (sampled_rows.rank1(rows), sample_count(text_len));
        if marked != expected {
            return Err(format!(
                "{marked} marked rows, a text of {text_len} has {expected}"
            ));
        }
        if !sampled_rows.get(0) {
            return Err("row 0, the sentinel suffix, must be sampled".into());
        }
        Ok(Self {
            text_len,
            code_count,
            c_array: c_array_of(&totals[..=code_count]),
            occ,
            sampled_rows,
            samples: PackedSamples::from_words(text_len, sample_words)?,
        })
    }
}

/// `Occ(c, rows)` for every shifted code `c` of `occ`: its code totals, in
/// one `rank_all` at the table's end (counting no scan).
fn code_totals(occ: &OccTable) -> [u32; MAX_CODE_COUNT + 1] {
    let mut totals = [0u32; MAX_CODE_COUNT + 1];
    occ.rank_all_unrecorded(occ.len(), &mut totals[..occ.code_count()]);
    totals
}

/// The C array of the code totals `totals`: each code's count of smaller
/// codes.
fn c_array_of(totals: &[u32]) -> Vec<usize> {
    totals
        .iter()
        .scan(0, |below, &total| {
            let entry = *below;
            *below += total as usize;
            Some(entry)
        })
        .collect()
}

/// Number of sampled rows of a text of `text_len` characters: positions 0,
/// [`SA_SAMPLE_RATE`], … up to `text_len`, plus `text_len` itself.
fn sample_count(text_len: usize) -> usize {
    text_len / SA_SAMPLE_RATE + 1 + usize::from(!text_len.is_multiple_of(SA_SAMPLE_RATE))
}

/// Mark the suffix-array rows whose text position is a multiple of
/// [`SA_SAMPLE_RATE`], plus row 0, the sentinel suffix's (so `locate` always
/// terminates), and pack the positions of the marked rows after row 0 in
/// row order.  Both outputs are written straight from `sa`, each at its
/// final size.
fn sample_suffix_array(sa: &[u32]) -> (RankBitVec, PackedSamples) {
    let mut words = vec![0u64; sa.len().div_ceil(64)];
    let mut samples = PackedSamples::zeroed(sa.len() - 1);
    words[0] = 1;
    let mut k = 0;
    for (row, &pos) in sa.iter().enumerate().skip(1) {
        if (pos as usize).is_multiple_of(SA_SAMPLE_RATE) {
            words[row / 64] |= 1 << (row % 64);
            samples.set(k, pos as usize);
            k += 1;
        }
    }
    (RankBitVec::from_words(sa.len(), words), samples)
}

/// Overwrite `sa` with the BWT of `text` (byte `text.at(p − 1)` for the
/// suffix at `p`, 0 for the suffix at 0), four rows per `u32`, and return
/// it as bytes.
///
/// Word k holds rows 4k..4k+3 and goes into slot k once row 4k+3 has been
/// read; slot k's own row (k ≤ 4k) was read before that.  The vector then
/// shrinks to its first ⌈rows / 4⌉ words before the bytes are copied out,
/// so no second row-sized buffer is live next to the full suffix array.
fn shifted_bwt_in_place(text: &Reversed, mut sa: Vec<u32>) -> Vec<u8> {
    let rows = sa.len();
    let mut word = 0u32;
    for row in 0..rows {
        let p = sa[row] as usize;
        let code = if p == 0 { 0 } else { text.at(p - 1) };
        word |= (code as u32) << (8 * (row % 4));
        if row % 4 == 3 || row + 1 == rows {
            sa[row / 4] = word;
            word = 0;
        }
    }
    sa.truncate(rows.div_ceil(4));
    sa.shrink_to_fit();
    let mut bwt = Vec::with_capacity(rows);
    bwt.extend(sa.iter().flat_map(|word| word.to_le_bytes()).take(rows));
    bwt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TextIndex;

    fn naive_occurrences(text: &[u8], pattern: &[u8]) -> Vec<usize> {
        if pattern.is_empty() || pattern.len() > text.len() {
            return Vec::new();
        }
        (0..=text.len() - pattern.len())
            .filter(|&i| &text[i..i + pattern.len()] == pattern)
            .collect()
    }

    fn dna(ascii: &[u8]) -> Vec<u8> {
        ascii
            .iter()
            .map(|&b| match b {
                b'A' => 1u8,
                b'C' => 2,
                b'G' => 3,
                b'T' => 4,
                _ => unreachable!(),
            })
            .collect()
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Number of occurrences of `pattern` in the text `index` covers.
    fn count_of(index: &TextIndex, pattern: &[u8]) -> usize {
        index
            .cursor_for(pattern)
            .map_or(0, |cursor| cursor.occurrence_count())
    }

    #[test]
    fn paper_example_gc_occurrences() {
        // Section 2.3: "the SA range of a substring GC is [4, 5], then the
        // starting positions of GC in T are 5 and 1" (1-based).
        let index = TextIndex::new(&dna(b"GCTAGC"), 5);
        let cursor = index.cursor_for(&dna(b"GC")).unwrap();
        assert_eq!(cursor.occurrence_count(), 2);
        // 0-based positions 0 and 4 correspond to the paper's 1-based 1 and 5.
        assert_eq!(index.occurrences(cursor), vec![0, 4]);
    }

    #[test]
    fn counts_match_naive_search() {
        let text = dna(b"ACGTACGTAGGGCATACGT");
        let index = TextIndex::new(&text, 5);
        for pattern_ascii in [
            b"ACGT".as_slice(),
            b"GG",
            b"TTT",
            b"A",
            b"CATACGT",
            b"ACGTACGTAGGGCATACGT",
        ] {
            let pattern = dna(pattern_ascii);
            let expected = naive_occurrences(&text, &pattern);
            assert_eq!(
                count_of(&index, &pattern),
                expected.len(),
                "pattern {pattern_ascii:?}"
            );
            assert_eq!(
                index.find_occurrences(&pattern),
                expected,
                "pattern {pattern_ascii:?}"
            );
        }
    }

    #[test]
    fn random_text_occurrences_match_naive() {
        let mut state = 42u64;
        let text: Vec<u8> = (0..800)
            .map(|_| (xorshift(&mut state) % 4) as u8 + 1)
            .collect();
        let index = TextIndex::new(&text, 5);
        for len in [1usize, 2, 3, 5, 8] {
            for _ in 0..20 {
                let start = (xorshift(&mut state) as usize) % (text.len() - len);
                let pattern = &text[start..start + len];
                let expected = naive_occurrences(&text, pattern);
                assert_eq!(count_of(&index, pattern), expected.len());
                assert_eq!(index.find_occurrences(pattern), expected);
            }
        }
    }

    #[test]
    fn absent_patterns_give_empty_ranges() {
        let index = TextIndex::new(&[1u8, 1, 1, 1, 2, 2, 2], 5);
        let root = index.root();
        assert!(index.fm_index().extend_left(root.range, 3).is_empty());
        assert!(index.cursor_for(&[1u8, 2, 1]).is_none());
        assert_eq!(count_of(&index, &[4u8, 4]), 0);
    }

    #[test]
    fn texts_with_separators_are_searchable() {
        // Two records "ACG" and "CGT" concatenated with separator 0.
        let index = TextIndex::new(&[1u8, 2, 3, 0, 2, 3, 4], 5);
        // "CG" occurs in both records.
        assert_eq!(count_of(&index, &[2u8, 3]), 2);
        // A pattern spanning the separator only matches when it includes it.
        assert_eq!(count_of(&index, &[3u8, 2]), 0);
        assert_eq!(count_of(&index, &[3u8, 0, 2]), 1);
    }

    #[test]
    fn full_range_and_empty_pattern() {
        let fm = FmIndex::new_reversed(&[1u8, 2, 3, 4], 5);
        assert_eq!(fm.full_range().len(), 5);
        assert_eq!(fm.text_len(), 4);
        let index = TextIndex::new(&[1u8, 2, 3, 4], 5);
        assert_eq!(index.cursor_for(&[]), Some(index.root()));
        assert_eq!(index.root().occurrence_count(), 5);
    }

    #[test]
    fn locate_every_row_is_a_permutation() {
        let text: Vec<u8> = (0..100).map(|i| (i % 4) as u8 + 1).collect();
        let fm = FmIndex::new_reversed(&text, 5);
        let mut positions: Vec<usize> =
            (0..fm.full_range().end).map(|row| fm.locate(row)).collect();
        positions.sort_unstable();
        let expected: Vec<usize> = (0..=text.len()).collect();
        assert_eq!(positions, expected);
    }

    /// `fm` reassembled through `from_parts` after `edit` has changed its
    /// sampled-row words and packed sample words.
    fn reassembled(
        fm: &FmIndex,
        edit: impl FnOnce(&mut Vec<u64>, &mut Vec<u64>),
    ) -> Result<FmIndex, String> {
        let mut words = fm.sampled_rows().words().to_vec();
        let mut samples = fm.samples().words().to_vec();
        edit(&mut words, &mut samples);
        FmIndex::from_parts(
            fm.text_len(),
            fm.code_count(),
            fm.occ_table().clone(),
            RankBitVec::from_words(fm.sampled_rows().len(), words),
            samples,
        )
    }

    #[test]
    fn locate_matches_the_suffix_array_where_the_field_width_changes() {
        // The width is ⌈log₂(⌊n/16⌋ + 1)⌉ bits: 0 below n = 16, and one
        // more at every n = 16·2^k.  At each side of those steps, the built
        // index and the one reassembled from its packed words locate every
        // row at its suffix-array position.
        let mut lengths = vec![0, 1, 15, 16, 17];
        for k in [1, 2, 3, 6, 9] {
            let step = 16 << k;
            lengths.extend([step - 1, step, step + 1]);
        }
        let mut state = 16u64;
        for n in lengths {
            let text: Vec<u8> = (0..n)
                .map(|_| (xorshift(&mut state) % 4) as u8 + 1)
                .collect();
            let sa = crate::sais::reversed_suffix_array(&text);
            let built = FmIndex::new_reversed(&text, 5);
            let width = (usize::BITS - (n / SA_SAMPLE_RATE).leading_zeros()) as usize;
            assert_eq!(built.samples().width(), width, "n = {n}");
            assert_eq!(built.samples().len(), sample_count(n) - 1, "n = {n}");
            let opened = reassembled(&built, |_, _| {}).unwrap();
            for (row, &pos) in sa.iter().enumerate() {
                assert_eq!(built.locate(row), pos as usize, "n = {n}, row {row}");
                assert_eq!(opened.locate(row), pos as usize, "n = {n}, row {row}");
            }
        }
    }

    #[test]
    fn from_parts_refuses_what_the_built_index_cannot_hold() {
        // 100 letters: rows 0..=100, row 0 at 100 and seven stored samples,
        // 0, 16, …, 96, each as position / 16 in a 3-bit field: 21 bits of
        // one word.
        let text: Vec<u8> = (0..100).map(|i| (i * 7 % 4) as u8 + 1).collect();
        let fm = FmIndex::new_reversed(&text, 5);
        assert_eq!((fm.samples().len(), fm.samples().width()), (7, 3));
        assert_eq!(fm.samples().words().len(), 1);
        reassembled(&fm, |_, _| {}).unwrap();
        let refused = |edit: fn(&mut Vec<u64>, &mut Vec<u64>), why: &str| {
            let result = reassembled(&fm, edit);
            assert!(
                matches!(&result, Err(msg) if msg.contains(why)),
                "{why}: {:?}",
                result.map(|_| ())
            );
        };
        // No sampled row at all: `locate` would never stop.
        refused(
            |words, _| words.fill(0),
            "0 marked rows, a text of 100 has 8",
        );
        // One marked row fewer than the rate-16 sampling holds.
        refused(
            |words, _| {
                let k = words.iter().rposition(|&word| word != 0).unwrap();
                words[k] &= !(1 << (63 - words[k].leading_zeros()));
            },
            "7 marked rows, a text of 100 has 8",
        );
        // Row 0, the sentinel suffix, must be marked: its mark moved to
        // row 1 keeps the count.
        refused(
            |words, _| {
                assert_eq!(words[0] & 3, 1, "row 1 is not sampled");
                words[0] ^= 3;
            },
            "row 0, the sentinel suffix, must be sampled",
        );
        // A field holding 7, position 112, past the text.
        refused(
            |_, samples| samples[0] |= 7 << 6,
            "holds position 112, not below the text length 100",
        );
        // A bit past the seventh field.
        refused(
            |_, samples| samples[0] |= 1 << 21,
            "bits past the 7 samples",
        );
        // A word more or fewer than seven 3-bit fields need.
        refused(
            |_, samples| samples.push(0),
            "2 sample words, a text of 100 has 7 samples of 3 bits in 1",
        );
        refused(|_, samples| samples.clear(), "0 sample words");
    }

    #[test]
    fn a_text_of_a_multiple_of_the_rate_stores_no_sample_at_its_end() {
        // At n = 96 position 96 is row 0's, implied: the six stored fields
        // hold 0..=5, and a field holding 6 (position 96) is refused.
        let text: Vec<u8> = (0..96).map(|i| (i * 5 % 4) as u8 + 1).collect();
        let fm = FmIndex::new_reversed(&text, 5);
        assert_eq!((fm.samples().len(), fm.samples().width()), (6, 3));
        let mut stored: Vec<usize> = (0..6).map(|k| fm.samples().position(k)).collect();
        stored.sort_unstable();
        assert_eq!(stored, [0, 16, 32, 48, 64, 80]);
        let k = (0..6).find(|&k| fm.samples().position(k) == 80).unwrap();
        let refused = reassembled(&fm, |_, samples| samples[0] |= 1 << (3 * k + 1)).map(|_| ());
        assert_eq!(
            refused,
            Err(format!(
                "sample {k} holds position 112, not below the text length 96"
            ))
        );
        let k = (0..6).find(|&k| fm.samples().position(k) == 64).unwrap();
        let refused = reassembled(&fm, |_, samples| samples[0] |= 2 << (3 * k)).map(|_| ());
        assert_eq!(
            refused,
            Err(format!(
                "sample {k} holds position 96, not below the text length 96"
            ))
        );
    }

    #[test]
    #[should_panic(expected = "corrupt index")]
    fn a_moved_sample_marker_panics_in_locate() {
        // Move the marker of position 32 to the row of position 70: the
        // counts, row 0 and every sample value stay valid, so `from_parts`
        // accepts it.  The walk from position 47 then passes 32 unsampled
        // and reaches no marked row within the rate's 16 steps.
        let text: Vec<u8> = (0..100).map(|i| (i * 7 % 4) as u8 + 1).collect();
        let fm = FmIndex::new_reversed(&text, 5);
        let row_of = |pos: usize| (0..=100).find(|&row| fm.locate(row) == pos).unwrap();
        let (from, to) = (row_of(32), row_of(70));
        let moved = reassembled(&fm, |words, _| {
            words[from / 64] &= !(1 << (from % 64));
            words[to / 64] |= 1 << (to % 64);
        })
        .unwrap();
        for row in 0..=100 {
            moved.locate(row);
        }
    }

    #[test]
    fn derive_text_spells_the_built_text_and_counts_no_scan() {
        let mut state = 5u64;
        for (code_count, len) in [(5, 0), (5, 1), (5, 1_000), (21, 17), (21, 300)] {
            // Code 0 included: records separated anywhere, back to back too.
            let text: Vec<u8> = (0..len)
                .map(|_| (xorshift(&mut state) % code_count as u64) as u8)
                .collect();
            let fm = FmIndex::new_reversed(&text, code_count);
            let (table, thread) = (fm.scan_snapshot(), crate::thread_scan_snapshot());
            assert_eq!(fm.derive_text().unwrap(), text, "{code_count} codes, {len}");
            assert_eq!(fm.scan_snapshot(), table);
            assert_eq!(crate::thread_scan_snapshot(), thread);
        }
    }

    #[test]
    fn derive_text_refuses_a_bwt_that_spells_no_text() {
        // Swapping two neighbouring, different BWT letters keeps every code
        // total, so `from_parts` accepts the table, but it splits the LF
        // cycle in two: the walk returns to the sentinel early.
        let text: Vec<u8> = (0..300).map(|i| (i * 7 % 20) as u8 + 1).collect();
        let fm = FmIndex::new_reversed(&text, 21);
        let crate::StorageDataRef::Bytes(bwt) = fm.occ_table().storage_data() else {
            panic!("21 codes are stored as bytes");
        };
        let bwt = bwt.to_vec();
        let at = (1..bwt.len() - 1)
            .find(|&row| bwt[row] != 0 && bwt[row + 1] != 0 && bwt[row] != bwt[row + 1])
            .unwrap();
        let with_bwt = |bwt: Vec<u8>| {
            FmIndex::from_parts(
                fm.text_len(),
                fm.code_count(),
                OccTable::new(bwt, 22),
                fm.sampled_rows().clone(),
                fm.samples().words().to_vec(),
            )
        };
        let mut swapped = bwt.clone();
        swapped.swap(at, at + 1);
        let refused = with_bwt(swapped).unwrap().derive_text();
        assert!(
            matches!(&refused, Err(why) if why.contains("met the sentinel at step")),
            "{refused:?}"
        );
        // A second sentinel is refused when the index is assembled.
        let mut two_sentinels = bwt;
        two_sentinels[at] = 0;
        let refused = with_bwt(two_sentinels).map(|_| ());
        assert_eq!(refused, Err("the BWT holds 2 sentinels, not 1".into()));
    }

    #[test]
    fn extend_all_matches_per_character_extend_left() {
        let mut state = 77u64;
        for code_count in [5usize, 9, 21] {
            let sigma = code_count as u64 - 1;
            let text: Vec<u8> = (0..600)
                .map(|_| (xorshift(&mut state) % sigma) as u8 + 1)
                .collect();
            let fm = FmIndex::new_reversed(&text, code_count);
            // Random ranges reached by short backward searches plus the full
            // range and an empty range.
            let mut ranges = vec![fm.full_range(), SaRange { start: 3, end: 3 }];
            for _ in 0..30 {
                let len = (xorshift(&mut state) % 4) as usize + 1;
                let mut range = fm.full_range();
                for _ in 0..len {
                    let c = (xorshift(&mut state) % sigma) as u8 + 1;
                    range = fm.extend_left(range, c);
                }
                ranges.push(range);
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

    #[test]
    fn extend_all_costs_two_block_scans_regardless_of_alphabet() {
        for code_count in [5usize, 21] {
            let sigma = code_count - 1;
            let text: Vec<u8> = (0..400).map(|i| (i % sigma) as u8 + 1).collect();
            let fm = FmIndex::new_reversed(&text, code_count);
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
        let small = FmIndex::new_reversed(&[1u8; 1_000], 5);
        let large = FmIndex::new_reversed(&[1u8; 10_000], 5);
        assert!(large.size_in_bytes() > small.size_in_bytes());
    }
}
