//! A fast multiply-mix hasher for the small fixed-width keys used on
//! alignment hot paths (end-pair tuples, packed q-gram keys).
//!
//! The std `HashMap` default (SipHash 1-3) is keyed and DoS-resistant but
//! costs tens of cycles per small key; the maps on the alignment hot paths
//! ([`crate::hits::HitMap`]'s per-end-pair maxima) are keyed by trusted
//! integers derived from the sequences themselves, so a two-instruction
//! multiply-mix is safe and measurably faster on hit-dense workloads.  No
//! external crates (the build environment is offline) and no unsafe.

use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (the Fibonacci-hashing constant), shared with
/// every other multiply-mix probe in the workspace (e.g. the flat q-gram
/// table's open addressing).
pub const GOLDEN_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
use self::GOLDEN_MUL as K;

/// Multiply-mix hasher for integer-shaped keys.
///
/// Every `write_*` folds the value in with an xor + multiply; the generic
/// byte path compresses 8-byte chunks the same way so arbitrary `Hash`
/// impls still work.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One final mix so sequential keys spread across high bits too.
        let h = self.0 ^ (self.0 >> 32);
        h.wrapping_mul(K)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` plugging [`FastHasher`] into `HashMap`/`HashSet`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn maps_with_the_fast_hasher_behave_like_std() {
        let mut fast: HashMap<(usize, usize), i64, FastBuildHasher> = HashMap::default();
        let mut std_map: HashMap<(usize, usize), i64> = HashMap::new();
        let mut state = 7u64;
        for _ in 0..5_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = ((state >> 20) as usize % 997, (state >> 40) as usize % 997);
            let value = (state % 1000) as i64;
            fast.insert(key, value);
            std_map.insert(key, value);
        }
        assert_eq!(fast.len(), std_map.len());
        for (key, value) in &std_map {
            assert_eq!(fast.get(key), Some(value));
        }
    }

    #[test]
    fn sequential_keys_do_not_collide_catastrophically() {
        // Sequential end pairs are the common case in hit-dense runs; the
        // finish() mix must spread them.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let mut h = FastHasher::default();
            h.write_u64(i);
            seen.insert(h.finish() >> 48); // top 16 bits only
        }
        // With decent spreading the 10k keys cover most of the 65k buckets.
        assert!(seen.len() > 5_000, "only {} distinct top-16s", seen.len());
    }
}
