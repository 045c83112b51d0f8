//! Linear-time suffix array construction (SA-IS).
//!
//! The suffix array of Section 2.3 is built with the induced-sorting
//! algorithm of Nong, Zhang and Chan (IEEE TC 2011), in their in-place
//! layout.  The public entry point [`reversed_suffix_array`] accepts a byte
//! text *without* a sentinel, reads it backwards, and appends the implicit
//! smallest suffix itself (the returned array has length `text.len() + 1`
//! and its first entry is always `text.len()`, the empty suffix, matching
//! the `$`-terminated convention of the paper).  The FM-index of
//! [`crate::TextIndex`] is built over the reversed text this way.
//!
//! # Layout
//!
//! Apart from the returned array, a build allocates only bit vectors and
//! the bucket counters that do not fit inside that array:
//!
//! * The byte text is never copied.  An accessor reads it backwards, each
//!   code as `code + 1` (position `i < n` holds `text[n − 1 − i] + 1`), and
//!   yields the implicit sentinel 0 at position `n`.
//! * S/L types are one bit per position, under `n / 4` bytes over all
//!   recursion levels.
//! * The names of the sorted LMS substrings go into the upper half of the
//!   suffix array itself, at `n1 + p / 2`: LMS positions are at least two
//!   apart, so `n1 ≤ n / 2` and the slots never collide.  The names are then
//!   compacted to `sa[n − n1..]`, and the reduced problem recurses on that
//!   slice with its suffix array in `sa[..n1]`.
//! * Bucket sizes are counted into one σ-sized `u32` array (`counts`), and
//!   every induce pass derives its heads or tails from them into a second
//!   (`bkt`).  σ is 257 at the top, whose two arrays are the build's only
//!   heap bucket arrays.  At a reduced level σ′ is the number of distinct
//!   LMS substrings of the level above, and the arrays go into the scratch
//!   that level hands down: the larger of its free middle
//!   `sa[n1 .. n − n1]`, which nothing reads while the reduced level runs
//!   (Nong's SACA-K and Mori's sais-lite use it the same way), and what its
//!   own arrays left of its own scratch.  Both arrays go there when `2σ′`
//!   slots fit.  Otherwise `bkt` goes there alone, and each derivation
//!   recounts the reduced text into it.  Only when not even `σ′` slots fit
//!   (a period-2 text leaves no middle) does `bkt` go on the heap.
//!
//! On the reversed `TextSpec::dna(600_000, _)` and
//! `TextSpec::protein(300_000, _)` texts (`alae-workload`), every DNA level
//! keeps both arrays in its scratch, and the protein levels below the first
//! keep `bkt` alone and recount.  A build then peaks at 0.18 and 0.19 heap
//! bytes per character above the returned array: the type bits, one per
//! position over all levels (1.15 and 2.56 with every bucket array on the
//! heap).

use std::cell::Cell;

thread_local! {
    /// Suffix-array constructions performed by this thread.
    static SA_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Number of suffix-array constructions the **calling thread** has
/// performed so far.
///
/// Exists so the persistence tests can prove that opening a saved index
/// performs **no** build work: the counter must not move across
/// `IndexedDatabase::open`.  It is per thread (like
/// [`crate::thread_scan_snapshot`]) so that builds by concurrently running
/// tests never bleed into a delta taken around one call.
pub fn suffix_array_build_count() -> u64 {
    SA_BUILDS.with(Cell::get)
}

/// Build the suffix array of `reverse(text) ⊕ $` without reversing `text`,
/// where `$` is an implicit sentinel strictly smaller than every byte value.
///
/// The result `sa` has length `text.len() + 1`; `sa[i]` is the starting
/// position (0-based) in the reversed text of its i-th lexicographically
/// smallest suffix, and `sa[0] == text.len()` is the empty suffix: the
/// array [`suffix_array_naive`] returns for a reversed copy.
pub fn reversed_suffix_array(text: &[u8]) -> Vec<u32> {
    suffix_array_of(&Reversed(text))
}

/// The suffix array of `text`, whose last symbol is its unique smallest.
pub(crate) fn suffix_array_of<T: Symbols + ?Sized>(text: &T) -> Vec<u32> {
    assert!(
        text.len() < u32::MAX as usize - 1,
        "text too long for u32 suffix array"
    );
    SA_BUILDS.with(|builds| builds.set(builds.get() + 1));
    let mut sa = vec![0u32; text.len()];
    // The top level's two bucket arrays, the only ones on the heap.
    let mut buckets = vec![0u32; 2 * 257];
    sais(text, &mut sa, 257, &mut buckets);
    sa
}

/// Naive O(n² log n) suffix array used as a cross-check in tests and for very
/// small inputs.
pub fn suffix_array_naive(text: &[u8]) -> Vec<u32> {
    let n = text.len();
    let mut sa: Vec<u32> = (0..=n as u32).collect();
    sa.sort_by(|&a, &b| {
        let sa_suffix = &text[a as usize..];
        let sb_suffix = &text[b as usize..];
        sa_suffix.cmp(sb_suffix)
    });
    sa
}

/// A text whose last symbol is its unique smallest, 0.
pub(crate) trait Symbols {
    /// Number of symbols, the final 0 included.
    fn len(&self) -> usize;
    /// Symbol at position `i < len()`.
    fn at(&self, i: usize) -> usize;
}

/// The caller's bytes read from the last to the first as `code + 1`,
/// followed by the implicit sentinel 0: the reversed text, uncopied.
pub(crate) struct Reversed<'a>(pub(crate) &'a [u8]);

impl Symbols for Reversed<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.0.len() + 1
    }

    #[inline]
    fn at(&self, i: usize) -> usize {
        match self.0.len().checked_sub(i + 1) {
            Some(j) => self.0[j] as usize + 1,
            None => 0,
        }
    }
}

/// A reduced text: the names of the LMS substrings in text order.
impl Symbols for [u32] {
    #[inline]
    fn len(&self) -> usize {
        <[u32]>::len(self)
    }

    #[inline]
    fn at(&self, i: usize) -> usize {
        self[i] as usize
    }
}

/// Marks a suffix-array slot that holds no suffix yet.
const EMPTY: u32 = u32::MAX;

/// S/L suffix types, one bit per position (set = S-type).
struct Types(Vec<u64>);

impl Types {
    fn classify<T: Symbols + ?Sized>(text: &T) -> Self {
        let n = text.len();
        let mut words = vec![0u64; n.div_ceil(64)];
        // The sentinel suffix is S-type; each earlier one compares with its
        // successor, and equal neighbours share a type.
        let mut next = text.at(n - 1);
        let mut next_is_s = true;
        words[(n - 1) / 64] |= 1 << ((n - 1) % 64);
        for i in (0..n - 1).rev() {
            let c = text.at(i);
            let is_s = c < next || (c == next && next_is_s);
            if is_s {
                words[i / 64] |= 1 << (i % 64);
            }
            next = c;
            next_is_s = is_s;
        }
        Self(words)
    }

    #[inline]
    fn is_s(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Leftmost S-type: an S-type position preceded by an L-type one.
    #[inline]
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }
}

/// The two bucket arrays of one level.  `bkt` holds the bucket heads or
/// tails of the current pass and is rewritten before every use; `counts`
/// holds each symbol's count where the level has room for it, and without
/// it every rewrite of `bkt` recounts the text.
struct Buckets<'a> {
    counts: Option<&'a mut [u32]>,
    bkt: &'a mut [u32],
}

impl<'a> Buckets<'a> {
    /// Place the arrays of a `sigma`-symbol level at the front of
    /// `scratch`: both when `2σ` slots fit, `bkt` alone when `σ` do, and
    /// `bkt` in `spill` otherwise.  Counts `text` into `counts` when kept,
    /// and returns the rest of `scratch`.
    fn place<T: Symbols + ?Sized>(
        text: &T,
        sigma: usize,
        scratch: &'a mut [u32],
        spill: &'a mut Vec<u32>,
    ) -> (Self, &'a mut [u32]) {
        let (mut buckets, rest) = if 2 * sigma <= scratch.len() {
            let (counts, rest) = scratch.split_at_mut(sigma);
            let (bkt, rest) = rest.split_at_mut(sigma);
            (
                Self {
                    counts: Some(counts),
                    bkt,
                },
                rest,
            )
        } else if sigma <= scratch.len() {
            let (bkt, rest) = scratch.split_at_mut(sigma);
            (Self { counts: None, bkt }, rest)
        } else {
            spill.resize(sigma, 0);
            (
                Self {
                    counts: None,
                    bkt: spill.as_mut_slice(),
                },
                scratch,
            )
        };
        if let Some(counts) = buckets.counts.as_deref_mut() {
            tally(text, counts);
        }
        (buckets, rest)
    }

    /// Load each symbol's count into `bkt`.
    fn load<T: Symbols + ?Sized>(&mut self, text: &T) {
        match &self.counts {
            Some(counts) => self.bkt.copy_from_slice(counts),
            None => tally(text, self.bkt),
        }
    }

    /// Write the first slot of every bucket into `bkt`.
    fn heads<T: Symbols + ?Sized>(&mut self, text: &T) {
        self.load(text);
        let mut sum = 0;
        for slot in self.bkt.iter_mut() {
            let count = *slot;
            *slot = sum;
            sum += count;
        }
    }

    /// Write one past the last slot of every bucket into `bkt`.
    fn tails<T: Symbols + ?Sized>(&mut self, text: &T) {
        self.load(text);
        let mut sum = 0;
        for slot in self.bkt.iter_mut() {
            sum += *slot;
            *slot = sum;
        }
    }
}

/// Count every symbol of `text` into `counts`.
fn tally<T: Symbols + ?Sized>(text: &T, counts: &mut [u32]) {
    counts.fill(0);
    for i in 0..text.len() {
        counts[text.at(i)] += 1;
    }
}

/// Core SA-IS: fill `sa` (of `text.len()` slots) with the suffix array of
/// `text`, whose symbols are `< sigma` and whose last symbol is the unique
/// smallest, 0.  `scratch` is memory the caller does not read until this
/// returns; the level keeps its bucket arrays there when they fit, and
/// hands a reduced level the larger of what they leave and its own free
/// middle.
fn sais<T: Symbols + ?Sized>(text: &T, sa: &mut [u32], sigma: usize, scratch: &mut [u32]) {
    let n = text.len();
    debug_assert_eq!(sa.len(), n);
    if n == 1 {
        sa[0] = 0;
        return;
    }
    let types = Types::classify(text);
    let mut spill = Vec::new();
    let (mut buckets, rest) = Buckets::place(text, sigma, scratch, &mut spill);

    // 1. Sort the LMS substrings: drop every LMS position at its bucket's
    //    tail, in any order, and induce.
    sa.fill(EMPTY);
    buckets.tails(text);
    for i in 1..n {
        if types.is_lms(i) {
            let c = text.at(i);
            buckets.bkt[c] -= 1;
            sa[buckets.bkt[c] as usize] = i as u32;
        }
    }
    induce(text, sa, &types, &mut buckets);

    // 2. Compact the sorted LMS positions into `sa[..n1]` (every slot is
    //    filled after an induce), then name them: equal LMS substrings get
    //    equal names, written at `n1 + p / 2`.
    let mut n1 = 0;
    for i in 0..n {
        let p = sa[i];
        if types.is_lms(p as usize) {
            sa[n1] = p;
            n1 += 1;
        }
    }
    sa[n1..].fill(EMPTY);
    let mut name = 0;
    for k in 0..n1 {
        let p = sa[k] as usize;
        if k > 0 && !same_lms_substring(text, &types, p, sa[k - 1] as usize) {
            name += 1;
        }
        sa[n1 + p / 2] = name;
    }
    let names = name as usize + 1;

    // 3. Compact the names to `sa[n − n1..]`: the reduced text, in text
    //    order of the LMS positions.  Writes never pass the read cursor.
    let mut j = n;
    for i in (n1..n).rev() {
        if sa[i] != EMPTY {
            j -= 1;
            sa[j] = sa[i];
        }
    }

    // 4. Sort the reduced suffixes into `sa[..n1]`, recursing when two LMS
    //    substrings share a name, then map them back to LMS positions by
    //    overwriting the reduced text with those positions in text order.
    //    The recursion keeps its buckets in the larger of `sa[n1..n − n1]`,
    //    which nothing reads until step 5, and the unused rest of this
    //    level's scratch.
    {
        let (head, reduced) = sa.split_at_mut(n - n1);
        let (reduced_sa, middle) = head.split_at_mut(n1);
        if names < n1 {
            let scratch = if middle.len() >= rest.len() {
                middle
            } else {
                rest
            };
            sais(&*reduced, reduced_sa, names, scratch);
        } else {
            for (i, &name) in reduced.iter().enumerate() {
                reduced_sa[name as usize] = i as u32;
            }
        }
        let mut k = 0;
        for i in 1..n {
            if types.is_lms(i) {
                reduced[k] = i as u32;
                k += 1;
            }
        }
        for slot in reduced_sa.iter_mut() {
            *slot = reduced[*slot as usize];
        }
    }

    // 5. Drop the sorted LMS suffixes at their buckets' tails, largest
    //    first (each lands at or after its own slot, which is cleared
    //    first), and induce the final order.
    sa[n1..].fill(EMPTY);
    buckets.tails(text);
    for i in (0..n1).rev() {
        let p = sa[i];
        sa[i] = EMPTY;
        let c = text.at(p as usize);
        buckets.bkt[c] -= 1;
        sa[buckets.bkt[c] as usize] = p;
    }
    induce(text, sa, &types, &mut buckets);
}

/// Induce the L-type suffixes left to right from the placed ones, then the
/// S-type suffixes right to left.
fn induce<T: Symbols + ?Sized>(text: &T, sa: &mut [u32], types: &Types, buckets: &mut Buckets) {
    buckets.heads(text);
    for i in 0..sa.len() {
        let p = sa[i];
        if p != EMPTY && p > 0 && !types.is_s(p as usize - 1) {
            let c = text.at(p as usize - 1);
            sa[buckets.bkt[c] as usize] = p - 1;
            buckets.bkt[c] += 1;
        }
    }
    buckets.tails(text);
    for i in (0..sa.len()).rev() {
        let p = sa[i];
        if p != EMPTY && p > 0 && types.is_s(p as usize - 1) {
            let c = text.at(p as usize - 1);
            buckets.bkt[c] -= 1;
            sa[buckets.bkt[c] as usize] = p - 1;
        }
    }
}

/// Whether the LMS substrings starting at `p` and `q` (distinct LMS
/// positions) are equal in symbols and types.  The unique sentinel ends
/// every comparison before it can run past the text.
fn same_lms_substring<T: Symbols + ?Sized>(text: &T, types: &Types, p: usize, q: usize) -> bool {
    for d in 0.. {
        if text.at(p + d) != text.at(q + d) || types.is_s(p + d) != types.is_s(q + d) {
            return false;
        }
        if d > 0 && types.is_lms(p + d) {
            return true;
        }
    }
    unreachable!("the sentinel differs from every other symbol")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The suffix array of `text` in text order: the built array of its
    /// reversed copy.
    fn forward(text: &[u8]) -> Vec<u32> {
        let reversed: Vec<u8> = text.iter().rev().copied().collect();
        reversed_suffix_array(&reversed)
    }

    /// The text read backwards against the naive order of its reversed
    /// copy.
    fn check(text: &[u8]) {
        let reversed: Vec<u8> = text.iter().rev().copied().collect();
        assert_eq!(
            reversed_suffix_array(text),
            suffix_array_naive(&reversed),
            "mismatch for text {:?}",
            text
        );
    }

    #[test]
    fn paper_example_gctagc() {
        // Section 2.3: SA of GCTAGC$ is {7, 4, 6, 2, 5, 1, 3} in 1-based
        // terms, i.e. {6, 3, 5, 1, 4, 0, 2} 0-based.
        assert_eq!(forward(b"GCTAGC"), vec![6, 3, 5, 1, 4, 0, 2]);
    }

    #[test]
    fn small_texts_match_naive() {
        check(b"");
        check(b"A");
        check(b"AAAA");
        check(b"ABAB");
        check(b"BANANA");
        check(b"MISSISSIPPI");
        check(b"GCTAGCTAGGCATCGATCG");
        check(b"ACGTACGTACGTACGT");
    }

    #[test]
    fn texts_with_runs_and_repeats() {
        check(b"AAAAAAAAAAB");
        check(b"BAAAAAAAAAA");
        check(b"ABCABCABCABCABC");
        check(b"ZYXWVUTSRQPONMLKJIHGFEDCBA");
        check(b"ABRACADABRAABRACADABRA");
    }

    #[test]
    fn encoded_dna_codes_work() {
        // Codes 1..=4 as produced by alae-bioseq, including separator 0 in
        // the middle (multi-record database text).
        let text = [1u8, 2, 3, 4, 0, 4, 3, 2, 1, 1, 2, 3];
        check(&text);
    }

    #[test]
    fn random_texts_match_naive() {
        // Deterministic xorshift so the test is reproducible without rand.
        let mut state = 0x12345678u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Codes 0..sigma, so the separator code 0 is drawn too; sigma runs
        // up to MAX_CODE_COUNT.
        let max_sigma = crate::MAX_CODE_COUNT as u64;
        for len in [0usize, 1, 2, 3, 10, 50, 200, 500, 2_000] {
            for sigma in [1u64, 2, 3, 4, 5, 20, 21, max_sigma] {
                let text: Vec<u8> = (0..len).map(|_| (next() % sigma) as u8).collect();
                check(&text);
            }
        }
        // Repetitive texts recurse deeply and name many LMS substrings
        // equal: all-equal, short periods and the Fibonacci word.
        for len in [7usize, 64, 333, 1_000] {
            check(&vec![3u8; len]);
            for period in [[1u8, 2].as_slice(), &[2, 1, 1], &[4, 1, 3, 1, 2, 0, 1]] {
                let text: Vec<u8> = period.iter().copied().cycle().take(len).collect();
                check(&text);
            }
            let mut fibonacci = vec![1u8];
            let mut previous = vec![2u8];
            while fibonacci.len() < len {
                let next = [fibonacci.as_slice(), &previous].concat();
                previous = std::mem::replace(&mut fibonacci, next);
            }
            fibonacci.truncate(len);
            check(&fibonacci);
        }
    }

    #[test]
    fn suffix_array_is_a_permutation() {
        let text = b"GATTACAGATTACAGATTACA";
        let sa = forward(text);
        let mut seen = vec![false; text.len() + 1];
        for &p in &sa {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn suffixes_are_sorted() {
        let text = b"TGCATGCATGCAACGT";
        let sa = forward(text);
        for window in sa.windows(2) {
            let a = &text[window[0] as usize..];
            let b = &text[window[1] as usize..];
            assert!(a < b, "suffix order violated: {:?} !< {:?}", a, b);
        }
    }
}
