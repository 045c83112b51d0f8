//! Bit-parallel (SWAR) occurrence-layer scan kernels.
//!
//! Every in-block scan of the occurrence table ([`crate::rank`]) bottoms out
//! in one of six kernels: byte equality count and byte histogram (the
//! [`crate::rank::RankLayout::Bytes`] layout), 2-bit pattern count and 2-bit
//! histogram ([`crate::rank::RankLayout::PackedDna`]), and 4-bit (nibble)
//! pattern count and histogram ([`crate::rank::RankLayout::PackedNibble`]).
//! All six are portable "SIMD within a register" code: `u64` equality folds
//! plus `count_ones`, so the same kernels run on every target.
//!
//! There are deliberately no SSE2/AVX2 variants: on the three layouts
//! [`crate::rank::RankLayout::Auto`] selects, SSE2/AVX2 kernels measured
//! 1.00×–1.03× of these (see the README's "Occurrence-layer scan kernels"),
//! which did not pay for an `unsafe` island and a runtime-dispatch layer.

/// Characters per `u64` in the 2-bit packed layout.
pub(crate) const CHARS_PER_WORD: usize = 32;

/// Characters per `u64` in the 4-bit nibble layout.
pub(crate) const NIBBLE_CHARS_PER_WORD: usize = 16;

/// Low bit of every 2-bit group.
const GROUP_LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Low bit of every nibble.
const NIBBLE_LOW_BITS: u64 = 0x1111_1111_1111_1111;

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

/// Low-bit-per-nibble equality mask: bit `4k` set iff nibble `k` equals
/// `pattern` (`pattern < 16`).
#[inline]
fn eq4(word: u64, pattern: u64) -> u64 {
    // XOR leaves matching nibbles zero; fold each nibble onto its low bit
    // (all folds stay inside the nibble, so this is exact).
    let x = word ^ (pattern * NIBBLE_LOW_BITS);
    let mut folded = x | (x >> 2);
    folded |= folded >> 1;
    !folded & NIBBLE_LOW_BITS
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

/// Mask selecting the first `rem` nibbles of a word.
#[inline]
fn nibble_mask(rem: usize) -> u64 {
    let nibbles = if rem >= NIBBLE_CHARS_PER_WORD {
        !0
    } else {
        (1u64 << (4 * rem)) - 1
    };
    nibbles & NIBBLE_LOW_BITS
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
#[inline]
pub(crate) fn byte_histogram(data: &[u8], counts: &mut [u32]) {
    for &b in data {
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

/// Occurrences of the 4-bit `pattern` in nibble positions `[start, end)` of
/// the packed `words`, one word per step; `start` must be a multiple of
/// [`NIBBLE_CHARS_PER_WORD`].
#[inline]
pub(crate) fn count_pattern_nibble(words: &[u64], pattern: u64, start: usize, end: usize) -> usize {
    debug_assert_eq!(start % NIBBLE_CHARS_PER_WORD, 0);
    let mut count = 0u32;
    let mut pos = start;
    let mut w = start / NIBBLE_CHARS_PER_WORD;
    while pos < end {
        let rem = (end - pos).min(NIBBLE_CHARS_PER_WORD);
        count += (eq4(words[w], pattern) & nibble_mask(rem)).count_ones();
        pos += rem;
        w += 1;
    }
    count as usize
}

/// Nibble histogram over `[start, end)`: `out[p] += 1` for every nibble
/// value `p` (every stored nibble must be `< out.len()`).  Each storage word
/// is loaded once and its nibbles shifted out; `start` must be a multiple of
/// [`NIBBLE_CHARS_PER_WORD`].
#[inline]
pub(crate) fn nibble_histogram_into(words: &[u64], start: usize, end: usize, out: &mut [u32]) {
    debug_assert_eq!(start % NIBBLE_CHARS_PER_WORD, 0);
    let mut pos = start;
    let mut w = start / NIBBLE_CHARS_PER_WORD;
    while pos < end {
        let rem = (end - pos).min(NIBBLE_CHARS_PER_WORD);
        let mut word = words[w];
        for _ in 0..rem {
            out[(word & 0xF) as usize] += 1;
            word >>= 4;
        }
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
            for (start, end) in [(0usize, 0usize), (0, 31), (64, 127), (128, 200)] {
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
    fn nibble_kernels_match_naive() {
        let mut state = 99u64;
        let nibbles: usize = 256 + 9;
        let words: Vec<u64> = (0..nibbles.div_ceil(NIBBLE_CHARS_PER_WORD))
            .map(|_| xorshift(&mut state))
            .collect();
        let nibble_at = |i: usize| -> usize {
            ((words[i / NIBBLE_CHARS_PER_WORD] >> (4 * (i % NIBBLE_CHARS_PER_WORD))) & 0xF) as usize
        };
        for start_block in [0usize, 1, 3] {
            let start = start_block * NIBBLE_CHARS_PER_WORD;
            for end in [
                start,
                start + 5,
                start + 32,
                start + 64,
                start + 100,
                nibbles,
            ] {
                if end > nibbles {
                    continue;
                }
                let mut expected = [0u32; 16];
                for i in start..end {
                    expected[nibble_at(i)] += 1;
                }
                let mut hist = [0u32; 16];
                nibble_histogram_into(&words, start, end, &mut hist);
                assert_eq!(hist, expected, "[{start}, {end})");
                for pattern in 0..16u64 {
                    assert_eq!(
                        count_pattern_nibble(&words, pattern, start, end),
                        expected[pattern as usize] as usize,
                        "pattern {pattern} [{start}, {end})"
                    );
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
