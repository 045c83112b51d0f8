//! Bit-parallel (SWAR) occurrence-layer scan kernels.
//!
//! Every in-block scan of the occurrence table ([`crate::rank`]) bottoms out
//! in one of four kernels: byte equality count and byte histogram (the
//! [`crate::rank::RankLayout::Bytes`] layout), and 2-bit pattern count and
//! 2-bit histogram ([`crate::rank::RankLayout::PackedDna`]).  All four are
//! portable "SIMD within a register" code: `u64` equality folds plus
//! `count_ones`, so the same kernels run on every target.
//!
//! There are deliberately no SSE2/AVX2 variants: on the layouts the index
//! builds, SSE2/AVX2 kernels measured 1.00×–1.03× of these (see the README's
//! "Occurrence-layer scan kernels"), which did not pay for an `unsafe`
//! island and a runtime-dispatch layer.

/// Characters per `u64` in the 2-bit packed layout.
pub(crate) const CHARS_PER_WORD: usize = 32;

/// Low bit of every 2-bit group.
const GROUP_LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Low bit of every byte.
const BYTE_LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Total set bits across `words` (the rank bit-vector's in-block scan).
#[inline]
pub(crate) fn popcount_words(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Low-bit-per-group equality mask: bit `2k` set iff 2-bit group `k` equals
/// `pattern`.
#[inline]
fn eq2(word: u64, pattern: u64) -> u64 {
    let lo = if pattern & 1 != 0 { word } else { !word };
    let hi = if pattern & 2 != 0 {
        word >> 1
    } else {
        !(word >> 1)
    };
    lo & hi & GROUP_LOW_BITS
}

/// Mask selecting the first `rem` 2-bit groups of a word.
#[inline]
fn group_mask(rem: usize) -> u64 {
    let groups = if rem >= CHARS_PER_WORD {
        !0
    } else {
        (1u64 << (2 * rem)) - 1
    };
    groups & GROUP_LOW_BITS
}

/// Number of bytes of `data` equal to `c`, eight bytes per step.
#[inline]
pub(crate) fn count_eq_bytes(data: &[u8], c: u8) -> usize {
    let pattern = u64::from_ne_bytes([c; 8]);
    let mut count = 0usize;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_ne_bytes(chunk.try_into().unwrap());
        let x = word ^ pattern;
        // Fold each byte onto its low bit: low bit set iff the byte is
        // nonzero (all folds stay inside the byte, so this is exact — unlike
        // the borrow-based `haszero` trick, which is only a predicate).
        let mut folded = x | (x >> 4);
        folded |= folded >> 2;
        folded |= folded >> 1;
        count += 8 - (folded & BYTE_LOW_BITS).count_ones() as usize;
    }
    count + chunks.remainder().iter().filter(|&&b| b == c).count()
}

/// Byte histogram: `counts[b] += 1` for every byte `b` of `data` (all bytes
/// must be `< counts.len()`).
///
/// Four bytes per step.  A one-byte loop body is so short that its speed
/// depends on where it lands in the binary: when it straddled a 32-byte
/// instruction-fetch window, protein `extend_all` ran about 20% slower in
/// the rank benchmark with no change to this code.  Four bytes per
/// iteration spread any such straddle over four bytes.
#[inline]
pub(crate) fn byte_histogram(data: &[u8], counts: &mut [u32]) {
    let mut chunks = data.chunks_exact(4);
    for chunk in &mut chunks {
        for &b in chunk {
            counts[b as usize] += 1;
        }
    }
    for &b in chunks.remainder() {
        counts[b as usize] += 1;
    }
}

/// Occurrences of the 2-bit `pattern` in character positions `[start, end)`
/// of the packed `words`, one word per step; `start` must be a multiple of
/// [`CHARS_PER_WORD`].
#[inline]
pub(crate) fn count_pattern_2bit(words: &[u64], pattern: u64, start: usize, end: usize) -> usize {
    debug_assert_eq!(start % CHARS_PER_WORD, 0);
    let mut count = 0u32;
    let mut pos = start;
    let mut w = start / CHARS_PER_WORD;
    while pos < end {
        let rem = (end - pos).min(CHARS_PER_WORD);
        count += (eq2(words[w], pattern) & group_mask(rem)).count_ones();
        pos += rem;
        w += 1;
    }
    count as usize
}

/// Histogram of all four 2-bit patterns over `[start, end)` in one pass;
/// `start` must be a multiple of [`CHARS_PER_WORD`].
#[inline]
pub(crate) fn count_all_2bit(words: &[u64], start: usize, end: usize, out: &mut [u32; 4]) {
    debug_assert_eq!(start % CHARS_PER_WORD, 0);
    let mut pos = start;
    let mut w = start / CHARS_PER_WORD;
    while pos < end {
        let rem = (end - pos).min(CHARS_PER_WORD);
        let word = words[w];
        let (lo, hi) = (word, word >> 1);
        let mask = group_mask(rem);
        out[0] += (!hi & !lo & mask).count_ones();
        out[1] += (!hi & lo & mask).count_ones();
        out[2] += (hi & !lo & mask).count_ones();
        out[3] += (hi & lo & mask).count_ones();
        pos += rem;
        w += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn byte_kernels_match_naive() {
        let mut state = 11u64;
        for code_count in [6usize, 23, 31] {
            let data: Vec<u8> = (0..200)
                .map(|_| (xorshift(&mut state) % code_count as u64) as u8)
                .collect();
            for c in 0..code_count as u8 {
                for len in [0usize, 1, 7, 16, 31, 33, 64, 127, 128, 200] {
                    assert_eq!(
                        count_eq_bytes(&data[..len], c),
                        data[..len].iter().filter(|&&b| b == c).count(),
                        "len {len} c {c}"
                    );
                }
            }
            for (start, end) in [
                (0usize, 0usize),
                (0, 1),
                (5, 11),
                (0, 31),
                (64, 127),
                (128, 200),
            ] {
                let mut expected = vec![0u32; code_count];
                for &b in &data[start..end] {
                    expected[b as usize] += 1;
                }
                let mut counts = vec![0u32; code_count];
                byte_histogram(&data[start..end], &mut counts);
                assert_eq!(counts, expected, "code_count {code_count} [{start}, {end})");
            }
        }
    }

    #[test]
    fn two_bit_kernels_match_naive() {
        let mut state = 77u64;
        let chars: usize = 512 + 13; // several words plus a ragged tail
        let words: Vec<u64> = (0..chars.div_ceil(CHARS_PER_WORD))
            .map(|_| xorshift(&mut state))
            .collect();
        let naive = |pattern: u64, start: usize, end: usize| -> usize {
            (start..end)
                .filter(|&i| {
                    (words[i / CHARS_PER_WORD] >> (2 * (i % CHARS_PER_WORD))) & 3 == pattern
                })
                .count()
        };
        for start_block in [0usize, 1, 4] {
            let start = start_block * CHARS_PER_WORD;
            for end in [start, start + 1, start + 63, start + 64, start + 130, chars] {
                if end > chars {
                    continue;
                }
                let mut all = [0u32; 4];
                count_all_2bit(&words, start, end, &mut all);
                for pattern in 0..4u64 {
                    let expected = naive(pattern, start, end);
                    assert_eq!(
                        count_pattern_2bit(&words, pattern, start, end),
                        expected,
                        "pattern {pattern} [{start}, {end})"
                    );
                    assert_eq!(all[pattern as usize] as usize, expected);
                }
            }
        }
    }

    #[test]
    fn popcount_words_matches_scalar() {
        let mut state = 5u64;
        let words: Vec<u64> = (0..17).map(|_| xorshift(&mut state)).collect();
        let expected: u32 = words.iter().map(|w| w.count_ones()).sum();
        assert_eq!(popcount_words(&words), expected);
        assert_eq!(popcount_words(&[]), 0);
    }
}
