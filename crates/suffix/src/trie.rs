//! Suffix-trie emulation over a compressed suffix array (Section 5).
//!
//! BWT-SW and ALAE both walk the conceptual suffix trie of the text `T`
//! top-down, appending one character to the represented substring `X` per
//! step.  An FM-index extends patterns by *prepending* characters, so —
//! exactly as the paper describes — the index is built over the reversed
//! text `T⁻¹`: prepending `c` to `X⁻¹` is the same as appending `c` to `X`.
//! The build reads `T` backwards; no reversed copy is made.
//!
//! [`TextIndex`] is the reversed-text FM-index and nothing else: the text
//! itself stays with its owner (a `SequenceDatabase`), and no search reads
//! it.  [`SuffixTrieCursor`] is a lightweight (range, depth) pair
//! representing a trie node, i.e. a distinct substring of `T` together with
//! all of its occurrences.

use crate::fm_index::{FmIndex, SaRange, MAX_CODE_COUNT};
use crate::rank::{RankLayout, ScanSnapshot};

/// Largest number of children a trie node can have (`MAX_CODE_COUNT` minus
/// the separator, which never labels an edge).
pub const MAX_CHILDREN: usize = MAX_CODE_COUNT - 1;

/// A reusable, allocation-free buffer of one node's children.
///
/// [`TextIndex::children_into`] fills the buffer in place; DFS loops keep a
/// single `ChildBuf` alive across every node they expand instead of
/// allocating a `Vec` per node.
#[derive(Debug, Clone)]
pub struct ChildBuf {
    entries: [(u8, SuffixTrieCursor); MAX_CHILDREN],
    len: usize,
}

impl ChildBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        const EMPTY: (u8, SuffixTrieCursor) = (
            0,
            SuffixTrieCursor {
                range: SaRange { start: 0, end: 0 },
                depth: 0,
            },
        );
        Self {
            entries: [EMPTY; MAX_CHILDREN],
            len: 0,
        }
    }

    /// Number of children currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the node had no children.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored `(edge label, child cursor)` pairs, in code order.
    #[inline]
    pub fn as_slice(&self) -> &[(u8, SuffixTrieCursor)] {
        &self.entries[..self.len]
    }

    /// Iterate over the stored children.
    pub fn iter(&self) -> impl Iterator<Item = &(u8, SuffixTrieCursor)> {
        self.as_slice().iter()
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    fn push(&mut self, label: u8, cursor: SuffixTrieCursor) {
        self.entries[self.len] = (label, cursor);
        self.len += 1;
    }
}

impl Default for ChildBuf {
    fn default() -> Self {
        Self::new()
    }
}

/// A searchable text: the FM-index of its reversal, which answers every
/// suffix-trie question (children, counts, positions) without the text.
///
/// The index holds no copy of the text: [`TextIndex::new`] reads it only
/// while it builds, and the caller keeps the one copy (e.g. a
/// `SequenceDatabase`'s concatenated text).
#[derive(Debug, Clone)]
pub struct TextIndex {
    fm_reverse: FmIndex,
}

/// A node of the conceptual suffix trie: the set of occurrences of one
/// distinct substring of the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuffixTrieCursor {
    /// SA range of the reversed substring in the reversed-text index.
    pub range: SaRange,
    /// Length of the represented substring (depth of the trie node).
    pub depth: usize,
}

impl SuffixTrieCursor {
    /// Number of occurrences of the represented substring in the text.
    #[inline]
    pub fn occurrence_count(&self) -> usize {
        self.range.len()
    }
}

impl TextIndex {
    /// Build the index for a code sequence whose codes are `< code_count`.
    ///
    /// `text` is read only while the index builds.  The occurrence-table
    /// layout follows from `code_count` (see [`crate::rank`]) and the
    /// suffix array is sampled every [`crate::fm_index::SA_SAMPLE_RATE`]
    /// positions; there is nothing else to choose.
    ///
    /// There is deliberately no q-gram length here: Equation 2 of the paper
    /// derives `q` from the scoring scheme (`ScoringScheme::q` in
    /// `alae-bioseq`), and the exactness proof depends on using exactly that
    /// value, so it is resolved per query and the index stays
    /// scheme-agnostic.
    pub fn new(text: &[u8], code_count: usize) -> Self {
        Self::from_parts(FmIndex::new_reversed(text, code_count))
    }

    /// Wrap a reversed-text FM-index restored via [`FmIndex::from_parts`]
    /// without rebuilding anything (the `alae-store` open path).
    pub fn from_parts(fm_reverse: FmIndex) -> Self {
        Self { fm_reverse }
    }

    /// Scan-work counters of the underlying occurrence table.
    pub fn scan_snapshot(&self) -> ScanSnapshot {
        self.fm_reverse.scan_snapshot()
    }

    /// The FM-index over the **reversed** text (serialization support; all
    /// search traffic should go through the cursor API instead).
    pub fn fm_index(&self) -> &FmIndex {
        &self.fm_reverse
    }

    /// The storage layout of the occurrence table.
    pub fn rank_layout(&self) -> RankLayout {
        self.fm_reverse.rank_layout()
    }

    /// Footprint of the occurrence table alone (BWT storage + checkpoint
    /// rows), the per-layout figure the rank benchmark reports.
    pub fn occ_size_in_bytes(&self) -> usize {
        self.fm_reverse.occ_size_in_bytes()
    }

    /// Length `n` of the indexed text.
    #[inline]
    pub fn len(&self) -> usize {
        self.fm_reverse.text_len()
    }

    /// True when the indexed text is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of caller-visible codes (alphabet size + separator).
    #[inline]
    pub fn code_count(&self) -> usize {
        self.fm_reverse.code_count()
    }

    /// The root of the suffix trie (the empty substring, occurring
    /// everywhere).
    #[inline]
    pub fn root(&self) -> SuffixTrieCursor {
        SuffixTrieCursor {
            range: self.fm_reverse.full_range(),
            depth: 0,
        }
    }

    /// Follow the edge labelled `c` from the node `cursor`, i.e. extend the
    /// represented substring by one character **on the right**.  Returns
    /// `None` when no occurrence of `X·c` exists.
    #[inline]
    pub fn extend(&self, cursor: SuffixTrieCursor, c: u8) -> Option<SuffixTrieCursor> {
        let range = self.fm_reverse.extend_left(cursor.range, c);
        if range.is_empty() {
            None
        } else {
            Some(SuffixTrieCursor {
                range,
                depth: cursor.depth + 1,
            })
        }
    }

    /// Cursor for an explicit pattern, or `None` if it does not occur.
    pub fn cursor_for(&self, pattern: &[u8]) -> Option<SuffixTrieCursor> {
        let mut cursor = self.root();
        for &c in pattern {
            cursor = self.extend(cursor, c)?;
        }
        Some(cursor)
    }

    /// All starting positions (0-based) in the forward text of the substring
    /// represented by `cursor`.
    pub fn occurrences(&self, cursor: SuffixTrieCursor) -> Vec<usize> {
        let mut positions = Vec::new();
        self.occurrences_into(cursor, &mut positions);
        positions
    }

    /// Fill `out` with the starting positions of the substring represented
    /// by `cursor` (0-based, sorted), reusing the buffer's capacity — the
    /// allocation-free twin of [`TextIndex::occurrences`] for DFS hot loops
    /// that locate occurrences once per reported node.
    pub fn occurrences_into(&self, cursor: SuffixTrieCursor, out: &mut Vec<usize>) {
        let n = self.len();
        let depth = cursor.depth;
        out.clear();
        out.extend((cursor.range.start..cursor.range.end).map(|row| {
            let rev_start = self.fm_reverse.locate(row);
            // The reversed substring occupies rev_start .. rev_start+depth
            // in T⁻¹, which corresponds to the forward-range starting at
            // n − rev_start − depth.
            n - rev_start - depth
        }));
        out.sort_unstable();
    }

    /// Does `pattern` occur in the text?
    pub fn contains(&self, pattern: &[u8]) -> bool {
        self.cursor_for(pattern).is_some()
    }

    /// Starting positions of `pattern` in the text (0-based, sorted).
    pub fn find_occurrences(&self, pattern: &[u8]) -> Vec<usize> {
        match self.cursor_for(pattern) {
            Some(cursor) => self.occurrences(cursor),
            None => Vec::new(),
        }
    }

    /// Fill `buf` with the characters `c` for which the trie node has an
    /// outgoing edge, together with the child cursors.  Separators (code 0)
    /// are excluded — no alignment may extend across a record boundary.
    ///
    /// The expansion derives every child range from one
    /// [`FmIndex::extend_all`] call — exactly two occurrence-table block
    /// scans per node, independent of the alphabet size — and reuses the
    /// caller's buffer, so a DFS walk performs no per-node allocation.
    pub fn children_into(&self, cursor: SuffixTrieCursor, buf: &mut ChildBuf) {
        let code_count = self.code_count();
        let mut ranges = [SaRange { start: 0, end: 0 }; MAX_CODE_COUNT];
        self.fm_reverse
            .extend_all(cursor.range, &mut ranges[..code_count]);
        buf.clear();
        for (code, &range) in ranges[..code_count].iter().enumerate().skip(1) {
            if !range.is_empty() {
                buf.push(
                    code as u8,
                    SuffixTrieCursor {
                        range,
                        depth: cursor.depth + 1,
                    },
                );
            }
        }
    }

    /// Approximate index footprint in bytes (BWT, rank checkpoints and SA
    /// samples); the "BWT index" series of Figure 11.
    pub fn size_in_bytes(&self) -> usize {
        self.fm_reverse.size_in_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(ascii: &[u8]) -> Vec<u8> {
        ascii
            .iter()
            .map(|&b| match b {
                b'$' => 0u8,
                b'A' => 1,
                b'C' => 2,
                b'G' => 3,
                b'T' => 4,
                _ => unreachable!(),
            })
            .collect()
    }

    /// The `(edge label, child)` pairs of `cursor`'s node.
    fn children_of(index: &TextIndex, cursor: SuffixTrieCursor) -> Vec<(u8, SuffixTrieCursor)> {
        let mut buf = ChildBuf::new();
        index.children_into(cursor, &mut buf);
        buf.as_slice().to_vec()
    }

    fn naive_occurrences(text: &[u8], pattern: &[u8]) -> Vec<usize> {
        if pattern.is_empty() || pattern.len() > text.len() {
            return Vec::new();
        }
        (0..=text.len() - pattern.len())
            .filter(|&i| &text[i..i + pattern.len()] == pattern)
            .collect()
    }

    #[test]
    fn extension_matches_naive_substring_search() {
        let text = encode(b"GCTAGCTAGGCATCGATCGGCTAGCAT");
        let index = TextIndex::new(&text, 5);
        for pattern_ascii in [b"GCTA".as_slice(), b"GCTAG", b"CAT", b"TTTT", b"G", b"ATCG"] {
            let pattern = encode(pattern_ascii);
            let expected = naive_occurrences(&text, &pattern);
            assert_eq!(
                index.find_occurrences(&pattern),
                expected,
                "pattern {pattern_ascii:?}"
            );
            assert_eq!(index.contains(&pattern), !expected.is_empty());
        }
    }

    #[test]
    fn cursor_depth_tracks_pattern_length() {
        let text = encode(b"ACGTACGT");
        let index = TextIndex::new(&text, 5);
        let cursor = index.cursor_for(&encode(b"ACGT")).unwrap();
        assert_eq!(cursor.depth, 4);
        assert_eq!(cursor.occurrence_count(), 2);
    }

    #[test]
    fn children_enumerate_right_extensions() {
        let text = encode(b"ACGTAAG");
        let index = TextIndex::new(&text, 5);
        // Children of the root are the distinct characters of the text.
        let labels: Vec<u8> = children_of(&index, index.root())
            .iter()
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(labels, vec![1, 2, 3, 4]); // A, C, G, T all occur.
                                              // Extensions of "A" are "AC" (pos 0), "AA" (pos 4), "AG" (pos 5).
        let a_cursor = index.cursor_for(&encode(b"A")).unwrap();
        let a_children: Vec<u8> = children_of(&index, a_cursor)
            .iter()
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(a_children, vec![1, 2, 3]); // A, C, G
    }

    #[test]
    fn separators_are_never_trie_edges() {
        let text = encode(b"ACG$TAC");
        let index = TextIndex::new(&text, 5);
        let root = index.root();
        let labels: Vec<u8> = children_of(&index, root).iter().map(|(c, _)| *c).collect();
        assert!(!labels.contains(&0));
        // But explicit separator searches still work at the FM level.
        assert!(index.contains(&encode(b"G$T")));
    }

    #[test]
    fn depth_first_walk_visits_every_distinct_substring_once() {
        let text = encode(b"GATTACA");
        let index = TextIndex::new(&text, 5);
        // Enumerate all distinct substrings via the trie and via brute force.
        let mut from_trie = std::collections::BTreeSet::new();
        let mut stack = vec![(index.root(), Vec::<u8>::new())];
        while let Some((cursor, prefix)) = stack.pop() {
            if !prefix.is_empty() {
                from_trie.insert(prefix.clone());
            }
            if prefix.len() >= text.len() {
                continue;
            }
            for (c, child) in children_of(&index, cursor) {
                let mut next = prefix.clone();
                next.push(c);
                stack.push((child, next));
            }
        }
        let mut brute = std::collections::BTreeSet::new();
        for i in 0..text.len() {
            for j in i + 1..=text.len() {
                brute.insert(text[i..j].to_vec());
            }
        }
        assert_eq!(from_trie, brute);
    }

    #[test]
    fn children_into_matches_extend_and_costs_two_scans_per_node() {
        let text = encode(b"GCTAGCTAGGCATCGATCGGCTAGCAT");
        let index = TextIndex::new(&text, 5);
        let mut buf = ChildBuf::new();
        let mut stack = vec![index.root()];
        let mut nodes = 0u64;
        let before = index.scan_snapshot();
        let mut expected_from_vec = Vec::new();
        while let Some(cursor) = stack.pop() {
            if cursor.depth >= 4 {
                continue;
            }
            index.children_into(cursor, &mut buf);
            nodes += 1;
            expected_from_vec.push((cursor, buf.as_slice().to_vec()));
            for &(_, child) in buf.as_slice() {
                stack.push(child);
            }
        }
        let delta = index.scan_snapshot().since(&before);
        // The tentpole invariant: expanding a node costs exactly two
        // occurrence-table block scans, independent of σ.
        assert_eq!(delta.block_scans, 2 * nodes);
        // And the fan-out reports exactly the edges the independent
        // per-character `extend` path finds.
        for (cursor, reported) in expected_from_vec {
            let mut expected = Vec::new();
            for c in 1..index.code_count() as u8 {
                if let Some(child) = index.extend(cursor, c) {
                    expected.push((c, child));
                }
            }
            assert_eq!(reported, expected);
        }
    }

    #[test]
    fn occurrence_counts_agree_with_positions() {
        let text = encode(b"ACACACACAC");
        let index = TextIndex::new(&text, 5);
        let cursor = index.cursor_for(&encode(b"ACAC")).unwrap();
        assert_eq!(cursor.occurrence_count(), 4);
        assert_eq!(index.occurrences(cursor), vec![0, 2, 4, 6]);
    }

    #[test]
    fn size_accounting() {
        let index = TextIndex::new(&[1u8; 5000], 5);
        // Under a byte per character: the index holds no copy of the text.
        assert!((1..5000).contains(&index.size_in_bytes()));
        assert_eq!(index.len(), 5000);
        assert!(!index.is_empty());
        assert_eq!(index.code_count(), 5);
    }
}
