//! q-gram inverted lists of the query (Section 3.1.3).
//!
//! "In order to find the exact match of X[1, q] in P efficiently, we build
//! inverted lists of q-grams of P on the fly.  We decompose P into a set of
//! q-grams by sliding a window of length q over the characters of P.  For
//! each q-gram in P, we generate an inverted list of its start positions in
//! P.  The time complexity of building inverted lists is O(m)."
//!
//! The index is flat: every start position lives in one contiguous `u32`
//! array, grouped by gram, and the gram → `(offset, len)` mapping is either
//! a **direct-address table** (small key spaces — DNA-sized `σ^q`) or an
//! **open-addressed** power-of-two hash table probed with one multiply and a
//! linear scan (no `HashMap`, no per-gram `Vec`s, no SipHash on the hot
//! path).  Keys are built incrementally while sliding the window — one
//! multiply-add and one modulus per character (`key ← (key mod σ^(q-1))·σ +
//! c`) instead of re-packing the whole window.
//!
//! [`QGramIndex::rebuild`] reuses every buffer, so an aligner that keeps a
//! `QGramIndex` in its per-thread scratch builds query indexes without heap
//! allocation in steady state.

/// Pack a window of codes into a base-`code_count` integer key.
///
/// Returns `None` when the window contains a separator (code 0) — such
/// windows can never be matched by a text q-prefix that is itself
/// separator-free.
#[inline]
pub fn pack_gram(window: &[u8], code_count: u64) -> Option<u64> {
    let mut key = 0u64;
    for &c in window {
        if c == 0 {
            return None;
        }
        key = key * code_count + c as u64;
    }
    Some(key)
}

/// One gram's slice of the contiguous positions array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct GramSpan {
    /// Start offset into `QGramIndex::positions`.
    offset: u32,
    /// Number of positions.
    len: u32,
}

/// Largest `code_count^q` key space served by the direct-address table
/// (4096 spans = 32 kB, re-zeroed per rebuild).  DNA with q ≤ 5 fits;
/// everything larger takes the open-addressed path.
const DIRECT_TABLE_LIMIT: u64 = 4096;

/// Multiplier of the Fibonacci-style hash spreading packed keys over the
/// open-addressed table (the workspace-shared golden-ratio constant).
use alae_bioseq::hash::GOLDEN_MUL as HASH_MUL;

/// Inverted lists of the query's q-grams, stored flat.
#[derive(Debug, Clone, Default)]
pub struct QGramIndex {
    q: usize,
    code_count: u64,
    /// `code_count^(q-1)` — the weight of a window's leading character.
    high_pow: u64,
    distinct: usize,
    /// All indexed start positions, grouped by gram; each group ascends
    /// (the builder scans the query left to right).
    positions: Vec<u32>,
    /// Direct mode: `spans[key]`.  Hashed mode: parallel to `keys`.
    spans: Vec<GramSpan>,
    /// Hashed mode only: open-addressed keys (0 = empty slot; packed keys
    /// are always ≥ 1 because windows with separators are skipped).
    keys: Vec<u64>,
    /// `keys.len() - 1` in hashed mode.
    mask: usize,
    /// Right-shift applied to the multiplied key (Fibonacci hashing).
    shift: u32,
    direct: bool,
}

impl QGramIndex {
    /// Build the inverted lists for `query` with gram length `q`.
    ///
    /// `code_count` is the number of distinct codes (alphabet + separator);
    /// `code_count ^ q` must fit in a `u64` (checked exactly via
    /// `checked_pow`), which holds for every scheme and alphabet the paper
    /// considers (q ≤ 12 for DNA, q ≤ 13 for protein).
    pub fn build(query: &[u8], q: usize, code_count: usize) -> Self {
        let mut index = Self::default();
        index.rebuild(query, q, code_count);
        index
    }

    /// Rebuild in place for a new query, reusing every buffer — the
    /// steady-state-allocation-free path used by the engine's per-thread
    /// scratch.
    pub fn rebuild(&mut self, query: &[u8], q: usize, code_count: usize) {
        assert!(q >= 1, "q must be at least 1");
        let code_count = code_count as u64;
        // Exact overflow guard: σ^q must fit in a u64 (the float-ln check
        // this replaces was subject to rounding at the boundary).
        let key_space = code_count
            .checked_pow(q as u32)
            .expect("q-gram too long to pack into 64 bits");
        self.q = q;
        self.code_count = code_count;
        self.high_pow = key_space / code_count;
        self.direct = key_space <= DIRECT_TABLE_LIMIT;
        self.distinct = 0;
        self.positions.clear();
        self.spans.clear();
        self.keys.clear();
        self.mask = 0;
        self.shift = 0;

        let windows = (query.len() + 1).saturating_sub(q);
        if self.direct {
            self.spans.resize(key_space as usize, GramSpan::default());
        } else {
            // Open addressing at ≤ 50% load; capacity is a power of two so
            // probes wrap with a mask.
            let capacity = (windows.max(1) * 2).next_power_of_two();
            self.keys.resize(capacity, 0);
            self.spans.resize(capacity, GramSpan::default());
            self.mask = capacity - 1;
            self.shift = 64 - capacity.trailing_zeros();
        }
        if windows == 0 {
            return;
        }

        // Pass 1: count occurrences per gram, sliding the packed key.
        let mut total = 0u32;
        self.for_each_window(query, |index, key, _| {
            let slot = index.claim_slot(key);
            if index.spans[slot].len == 0 {
                index.distinct += 1;
            }
            index.spans[slot].len += 1;
            total += 1;
        });

        // Prefix-sum the group offsets, then reuse `offset` as the write
        // cursor for pass 2.
        let mut running = 0u32;
        if self.direct {
            for span in &mut self.spans {
                span.offset = running;
                running += span.len;
            }
        } else {
            for (slot, span) in self.spans.iter_mut().enumerate() {
                if self.keys[slot] != 0 {
                    span.offset = running;
                    running += span.len;
                }
            }
        }
        debug_assert_eq!(running, total);
        self.positions.resize(total as usize, 0);

        // Pass 2: place the positions (groups stay ascending because the
        // scan is left to right), advancing each group's cursor.
        self.for_each_window(query, |index, key, start| {
            let slot = index.find_slot(key).expect("gram inserted in pass 1");
            let cursor = index.spans[slot].offset;
            index.positions[cursor as usize] = start;
            index.spans[slot].offset = cursor + 1;
        });

        // Restore the group offsets (cursor now points one past the end).
        for span in &mut self.spans {
            span.offset -= span.len;
        }
    }

    /// Slide the q-window over `query`, maintaining the packed key with one
    /// multiply-add per character and resetting at separators; calls
    /// `visit(self, key, window_start)` for every separator-free window.
    fn for_each_window(&mut self, query: &[u8], mut visit: impl FnMut(&mut Self, u64, u32)) {
        let q = self.q;
        let mut key = 0u64;
        let mut run = 0usize;
        for (i, &c) in query.iter().enumerate() {
            if c == 0 {
                key = 0;
                run = 0;
                continue;
            }
            // Drop the leading character, append `c` on the right.
            key = (key % self.high_pow) * self.code_count + c as u64;
            run += 1;
            if run >= q {
                visit(self, key, (i + 1 - q) as u32);
            }
        }
    }

    /// Hashed-mode slot of `key` for insertion (claims an empty slot on
    /// miss).  Direct mode addresses by key.
    fn claim_slot(&mut self, key: u64) -> usize {
        if self.direct {
            return key as usize;
        }
        let mut slot = (key.wrapping_mul(HASH_MUL) >> self.shift) as usize;
        loop {
            let k = self.keys[slot];
            if k == key {
                return slot;
            }
            if k == 0 {
                self.keys[slot] = key;
                return slot;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Lookup-only slot of `key`, or `None` when the gram is absent.
    #[inline]
    fn find_slot(&self, key: u64) -> Option<usize> {
        if self.direct {
            let slot = key as usize;
            return (slot < self.spans.len() && self.spans[slot].len > 0).then_some(slot);
        }
        if self.keys.is_empty() {
            return None;
        }
        let mut slot = (key.wrapping_mul(HASH_MUL) >> self.shift) as usize;
        loop {
            let k = self.keys[slot];
            if k == key {
                return Some(slot);
            }
            if k == 0 {
                return None;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// The gram length.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of distinct q-grams in the query.
    pub fn distinct_grams(&self) -> usize {
        self.distinct
    }

    /// Total number of q-gram occurrences indexed.
    pub fn total_positions(&self) -> usize {
        self.positions.len()
    }

    /// Start positions of a packed q-gram, if present.
    #[inline]
    pub fn positions(&self, key: u64) -> Option<&[u32]> {
        let slot = self.find_slot(key)?;
        let span = self.spans[slot];
        if span.len == 0 {
            return None;
        }
        Some(&self.positions[span.offset as usize..(span.offset + span.len) as usize])
    }

    /// Iterate over `(packed gram, start positions)` pairs in an unspecified
    /// order (allocation-free).
    pub fn iter(&self) -> QGramIter<'_> {
        QGramIter {
            index: self,
            slot: 0,
        }
    }

    /// Pack an arbitrary window with this index's parameters.
    pub fn pack(&self, window: &[u8]) -> Option<u64> {
        debug_assert_eq!(window.len(), self.q);
        pack_gram(window, self.code_count)
    }

    /// Exact footprint of the flat tables in bytes: the contiguous positions
    /// array plus the span table (and, in hashed mode, the key array).
    /// Unlike the former `HashMap` estimate this is the real resident size
    /// of every live entry — there is no per-gram allocation or hidden
    /// bucket overhead to miss.
    pub fn size_in_bytes(&self) -> usize {
        self.positions.len() * std::mem::size_of::<u32>()
            + self.spans.len() * std::mem::size_of::<GramSpan>()
            + self.keys.len() * std::mem::size_of::<u64>()
    }
}

/// Allocation-free iterator over a [`QGramIndex`]'s `(key, positions)`
/// pairs.
#[derive(Debug, Clone)]
pub struct QGramIter<'a> {
    index: &'a QGramIndex,
    slot: usize,
}

impl<'a> Iterator for QGramIter<'a> {
    type Item = (u64, &'a [u32]);

    fn next(&mut self) -> Option<Self::Item> {
        let index = self.index;
        while self.slot < index.spans.len() {
            let slot = self.slot;
            self.slot += 1;
            let span = index.spans[slot];
            if span.len == 0 {
                continue;
            }
            let key = if index.direct {
                slot as u64
            } else {
                index.keys[slot]
            };
            let positions =
                &index.positions[span.offset as usize..(span.offset + span.len) as usize];
            return Some((key, positions));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_match_sliding_window() {
        // P = ACGTACG, q = 3: ACG at 0 and 4, CGT at 1, GTA at 2, TAC at 3.
        let query = vec![1u8, 2, 3, 4, 1, 2, 3];
        let index = QGramIndex::build(&query, 3, 5);
        assert_eq!(index.distinct_grams(), 4);
        assert_eq!(index.total_positions(), 5);
        let acg = index.pack(&[1, 2, 3]).unwrap();
        assert_eq!(index.positions(acg), Some([0u32, 4].as_slice()));
        let gta = index.pack(&[3, 4, 1]).unwrap();
        assert_eq!(index.positions(gta), Some([2u32].as_slice()));
        assert!(index.positions(index.pack(&[4, 4, 4]).unwrap()).is_none());
    }

    #[test]
    fn query_shorter_than_q_is_empty() {
        let index = QGramIndex::build(&[1, 2], 4, 5);
        assert_eq!(index.distinct_grams(), 0);
        assert_eq!(index.total_positions(), 0);
        assert!(index.iter().next().is_none());
    }

    #[test]
    fn windows_with_separators_are_skipped() {
        let query = vec![1u8, 0, 2, 3, 4];
        let index = QGramIndex::build(&query, 2, 5);
        // Windows: [1,0] skipped, [0,2] skipped, [2,3], [3,4].
        assert_eq!(index.total_positions(), 2);
        assert!(pack_gram(&[1, 0], 5).is_none());
    }

    #[test]
    fn packing_is_injective_for_small_grams() {
        let mut seen = std::collections::HashSet::new();
        for a in 1..=4u8 {
            for b in 1..=4u8 {
                for c in 1..=4u8 {
                    let key = pack_gram(&[a, b, c], 5).unwrap();
                    assert!(seen.insert(key), "collision for {:?}", (a, b, c));
                }
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn iter_covers_all_grams() {
        let query = vec![1u8, 1, 1, 1, 1];
        let index = QGramIndex::build(&query, 2, 5);
        let collected: Vec<(u64, usize)> = index.iter().map(|(k, v)| (k, v.len())).collect();
        assert_eq!(collected.len(), 1);
        assert_eq!(collected[0].1, 4);
        assert!(index.size_in_bytes() > 0);
        assert_eq!(index.q(), 2);
    }

    #[test]
    fn hashed_mode_agrees_with_packing_oracle() {
        // Protein-sized key space (22^4 > 4096) exercises the open-addressed
        // path; compare every window against pack_gram + linear scan.
        let code_count = 22usize;
        let q = 4usize;
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let query: Vec<u8> = (0..300)
            .map(|_| (next() % (code_count as u64 - 1)) as u8 + 1)
            .collect();
        let index = QGramIndex::build(&query, q, code_count);
        assert!(!index.direct);
        let mut expected_total = 0usize;
        for (start, window) in query.windows(q).enumerate() {
            let key = pack_gram(window, code_count as u64).unwrap();
            let positions = index.positions(key).expect("window indexed");
            assert!(positions.contains(&(start as u32)));
            expected_total += 1;
        }
        assert_eq!(index.total_positions(), expected_total);
        // Distinct grams from the iterator agree with the counter, and every
        // group is ascending.
        let mut distinct = 0;
        for (key, positions) in index.iter() {
            distinct += 1;
            assert!(positions.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(index.positions(key), Some(positions));
        }
        assert_eq!(distinct, index.distinct_grams());
    }

    #[test]
    fn rebuild_reuses_buffers_across_queries() {
        let mut index = QGramIndex::build(&[1u8, 2, 3, 4, 1, 2], 3, 5);
        let first: Vec<(u64, Vec<u32>)> = index.iter().map(|(k, v)| (k, v.to_vec())).collect();
        // Rebuild with a different query, then with the original again: the
        // contents must match a fresh build exactly.
        index.rebuild(&[4u8, 4, 4, 4, 4, 4, 4], 3, 5);
        assert_eq!(index.distinct_grams(), 1);
        index.rebuild(&[1u8, 2, 3, 4, 1, 2], 3, 5);
        let again: Vec<(u64, Vec<u32>)> = index.iter().map(|(k, v)| (k, v.to_vec())).collect();
        assert_eq!(first, again);
        // Mode switches (direct -> hashed) work too.
        index.rebuild(&[1u8, 2, 3, 4, 5, 6, 7, 8], 4, 22);
        assert!(!index.direct);
        assert_eq!(index.distinct_grams(), 5);
    }

    #[test]
    fn size_in_bytes_is_the_exact_flat_footprint() {
        // Direct mode: 5^3 = 125 spans of 8 bytes + 5 positions of 4 bytes.
        let query = vec![1u8, 2, 3, 4, 1, 2, 3];
        let index = QGramIndex::build(&query, 3, 5);
        assert!(index.direct);
        assert_eq!(index.size_in_bytes(), 125 * 8 + 5 * 4);

        // Hashed mode: capacity = next_pow2(2 * windows) slots of
        // (8-byte key + 8-byte span) + one u32 per position.
        let query: Vec<u8> = (1..=21).collect();
        let windows = query.len() - 4 + 1; // 18
        let index = QGramIndex::build(&query, 4, 22);
        assert!(!index.direct);
        let capacity = (windows * 2).next_power_of_two(); // 64
        assert_eq!(index.size_in_bytes(), capacity * (8 + 8) + windows * 4);
    }

    #[test]
    #[should_panic(expected = "q-gram too long")]
    fn oversized_key_space_is_rejected_exactly() {
        // 22^15 overflows u64; the checked_pow guard must reject it.
        QGramIndex::build(&[1u8; 20], 15, 22);
    }

    #[test]
    fn boundary_key_space_is_accepted() {
        // 2^63 < u64::MAX fits exactly; the old float-ln guard was subject
        // to rounding at boundaries like this.
        let index = QGramIndex::build(&[1u8; 10], 63, 2);
        assert_eq!(index.q(), 63);
        // No window of length 63 exists in a 10-character query.
        assert_eq!(index.total_positions(), 0);
    }
}
