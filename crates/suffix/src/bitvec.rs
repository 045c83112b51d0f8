//! A plain bit vector with constant-time rank support.
//!
//! Used to mark sampled suffix-array rows in the FM-index without spending a
//! full word per row.  Rank checkpoints use the same two-level layout as the
//! occurrence table's checkpoint rows ([`crate::rank`]): a `u32`
//! absolute count every `BLOCKS_PER_SUPER` blocks of 512 bits plus a `u16`
//! per-block delta, i.e. 2.5 bytes per 512 bits (2 + 4/8) instead of the 4
//! a flat `u32` checkpoint costs — which is what keeps the "BWT index"
//! curve of Figure 11 close to the text size rather than a multiple of it.

use crate::swar::popcount_words;

/// Bits per rank block (one `u16` delta per block).
const BLOCK_BITS: usize = 512;
const WORDS_PER_BLOCK: usize = BLOCK_BITS / 64;

/// Blocks per superblock (one `u32` absolute count per superblock).
const BLOCKS_PER_SUPER: usize = 8;
const SUPER_BITS: usize = BLOCK_BITS * BLOCKS_PER_SUPER;

// Block deltas must fit a u16.
const _: () = assert!(SUPER_BITS <= u16::MAX as usize);

/// An immutable bit vector with `rank1` support.
#[derive(Debug, Clone)]
pub struct RankBitVec {
    len: usize,
    words: Vec<u64>,
    /// `superblocks[s]` = number of set bits in `words[0 .. s * BLOCKS_PER_SUPER * WORDS_PER_BLOCK]`.
    superblocks: Vec<u32>,
    /// `blocks[b]` = number of set bits between the enclosing superblock
    /// boundary and `words[b * WORDS_PER_BLOCK]`.
    blocks: Vec<u16>,
    /// Total number of set bits.
    ones: u32,
}

impl RankBitVec {
    /// Build from raw words (extra high bits in the final word must be zero).
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        let block_count = words.len().div_ceil(WORDS_PER_BLOCK) + 1;
        let super_count = block_count.div_ceil(BLOCKS_PER_SUPER);
        let mut superblocks = vec![0u32; super_count];
        let mut blocks = vec![0u16; block_count];
        let mut running: u32 = 0;
        let mut super_base: u32 = 0;
        for block in 0..block_count {
            if block % BLOCKS_PER_SUPER == 0 {
                superblocks[block / BLOCKS_PER_SUPER] = running;
                super_base = running;
            }
            blocks[block] = (running - super_base) as u16;
            let start = block * WORDS_PER_BLOCK;
            let end = ((block + 1) * WORDS_PER_BLOCK).min(words.len());
            if start < end {
                running += popcount_words(&words[start..end]);
            }
        }
        Self {
            len,
            words,
            superblocks,
            blocks,
            ones: running,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits in positions `[0, i)`.
    #[inline]
    pub fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.len);
        let word_index = i / 64;
        let block = word_index / WORDS_PER_BLOCK;
        let mut count = self.superblocks[block / BLOCKS_PER_SUPER] as usize
            + self.blocks[block] as usize
            + popcount_words(&self.words[block * WORDS_PER_BLOCK..word_index]) as usize;
        let bit = i % 64;
        if bit > 0 && word_index < self.words.len() {
            count += (self.words[word_index] & ((1u64 << bit) - 1)).count_ones() as usize;
        }
        count
    }

    /// Total number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones as usize
    }

    /// The raw bit words (serialization support; the rank directories are
    /// rebuilt from them via [`RankBitVec::from_words`], not stored).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Approximate heap footprint in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.words.len() * 8 + self.superblocks.len() * 4 + self.blocks.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_bits(bits: impl ExactSizeIterator<Item = bool>) -> RankBitVec {
        let len = bits.len();
        let mut words = vec![0u64; len.div_ceil(64)];
        for (i, bit) in bits.enumerate() {
            if bit {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        RankBitVec::from_words(len, words)
    }

    fn naive_rank(bits: &[bool], i: usize) -> usize {
        bits[..i].iter().filter(|&&b| b).count()
    }

    #[test]
    fn rank_matches_naive_small() {
        let bits = vec![true, false, true, true, false, false, true];
        let bv = from_bits(bits.iter().copied());
        for i in 0..=bits.len() {
            assert_eq!(bv.rank1(i), naive_rank(&bits, i));
        }
        assert_eq!(bv.count_ones(), 4);
    }

    #[test]
    fn rank_matches_naive_across_blocks_and_superblocks() {
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            state >> 40
        };
        let bits: Vec<bool> = (0..SUPER_BITS * 2 + BLOCK_BITS * 3 + 100)
            .map(|_| next() % 3 == 0)
            .collect();
        let bv = from_bits(bits.iter().copied());
        for i in (0..=bits.len()).step_by(37) {
            assert_eq!(bv.rank1(i), naive_rank(&bits, i), "i = {i}");
        }
        // Exactly at block and superblock boundaries.
        for b in 0..=bits.len() / BLOCK_BITS {
            let i = (b * BLOCK_BITS).min(bits.len());
            assert_eq!(bv.rank1(i), naive_rank(&bits, i), "boundary {i}");
        }
        assert_eq!(bv.rank1(bits.len()), naive_rank(&bits, bits.len()));
    }

    #[test]
    fn get_round_trips() {
        let bits: Vec<bool> = (0..200).map(|i| i % 5 == 0).collect();
        let bv = from_bits(bits.iter().copied());
        for (i, &bit) in bits.iter().enumerate() {
            assert_eq!(bv.get(i), bit);
        }
        assert_eq!(bv.len(), 200);
        assert!(!bv.is_empty());
    }

    #[test]
    fn empty_vector() {
        let bv = from_bits(std::iter::empty());
        assert!(bv.is_empty());
        assert_eq!(bv.rank1(0), 0);
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn all_ones_and_all_zeros() {
        let ones = from_bits((0..10_000).map(|_| true));
        assert_eq!(ones.rank1(10_000), 10_000);
        assert_eq!(ones.rank1(513), 513);
        assert_eq!(ones.rank1(SUPER_BITS + 1), SUPER_BITS + 1);
        assert_eq!(ones.count_ones(), 10_000);
        let zeros = from_bits((0..10_000).map(|_| false));
        assert_eq!(zeros.rank1(10_000), 0);
    }
}
