//! One builder for every index construction knob.
//!
//! [`IndexOptions`] carries the two construction knobs — the rank-storage
//! layout and the suffix-array sampling rate — and builds an [`OccTable`],
//! [`FmIndex`] or [`TextIndex`] from them.  Everything else about the
//! occurrence layer is fixed: two-level checkpoint rows and the portable
//! SWAR scan kernels are the only implementations.
//!
//! # Why there is no `q` knob
//!
//! The ALAE q-gram filter length `q` is *not* an index-construction
//! parameter: Equation 2 of the paper derives it from the scoring scheme
//! (`ScoringScheme::q` in `alae-bioseq`), and the exactness proof depends on
//! using exactly that value.  Indexes are scheme-agnostic; `q` is resolved
//! per query from the request's scheme, so there is deliberately no way to
//! override it here.

use crate::fm_index::{FmIndex, DEFAULT_SA_SAMPLE_RATE};
use crate::rank::{OccTable, RankLayout};
use crate::trie::TextIndex;
use alae_bioseq::SharedBytes;

/// Every index-construction knob in one place.
///
/// ```
/// use alae_suffix::{IndexOptions, RankLayout};
///
/// let index = IndexOptions::new()
///     .layout(RankLayout::Bytes)
///     .sample_rate(8)
///     .build_text_index(vec![1u8, 2, 3, 1, 2], 5);
/// assert_eq!(index.len(), 5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IndexOptions {
    pub(crate) layout: RankLayout,
    pub(crate) sample_rate: usize,
}

impl IndexOptions {
    /// The defaults: auto layout and the default suffix-array sampling
    /// rate.
    pub fn new() -> Self {
        Self {
            layout: RankLayout::Auto,
            sample_rate: DEFAULT_SA_SAMPLE_RATE,
        }
    }

    /// Rank-storage layout for the occurrence table.
    pub fn layout(mut self, layout: RankLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Suffix-array sampling rate (≥ 1).
    pub fn sample_rate(mut self, rate: usize) -> Self {
        self.sample_rate = rate;
        self
    }

    /// Build an occurrence table for `data` (codes `< code_count`).
    pub fn build_occ_table(&self, data: Vec<u8>, code_count: usize) -> OccTable {
        OccTable::build(data, code_count, self.layout)
    }

    /// Build an FM-index for `text` (codes `< code_count`).
    pub fn build_fm_index(&self, text: &[u8], code_count: usize) -> FmIndex {
        FmIndex::build(text, code_count, self.sample_rate, self.layout)
    }

    /// Build a suffix-trie text index.  Accepts anything convertible into a
    /// [`SharedBytes`] — a `Vec<u8>`, an `Arc<Vec<u8>>`, or a view into a
    /// mapped file — so callers share the text instead of copying it.
    pub fn build_text_index(&self, text: impl Into<SharedBytes>, code_count: usize) -> TextIndex {
        TextIndex::build(text.into(), code_count, self)
    }
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_knobs_reach_the_built_index() {
        let text = vec![1u8, 2, 3, 4, 1, 2, 3, 4, 2, 2];
        let index = IndexOptions::new()
            .layout(RankLayout::Bytes)
            .sample_rate(4)
            .build_text_index(text, 5);
        assert_eq!(index.rank_layout(), RankLayout::Bytes);
        assert_eq!(index.fm_index().sample_rate(), 4);
    }

    #[test]
    fn defaults_match_the_simple_constructors() {
        let text = vec![1u8, 2, 1, 2, 3];
        let a = IndexOptions::new().build_text_index(text.clone(), 5);
        let b = TextIndex::new(text.clone(), 5);
        assert_eq!(a.rank_layout(), b.rank_layout());
        assert_eq!(a.size_in_bytes(), b.size_in_bytes());
        assert_eq!(a.find_occurrences(&[1, 2]), b.find_occurrences(&[1, 2]));
    }

    #[test]
    fn fm_and_occ_builders_work() {
        let text = vec![1u8, 2, 3, 1, 2, 3, 1];
        let fm = IndexOptions::new().sample_rate(2).build_fm_index(&text, 4);
        assert_eq!(fm.sample_rate(), 2);
        assert_eq!(fm.count(&[1, 2]), 2);
        let occ = IndexOptions::new()
            .layout(RankLayout::PackedDna)
            .build_occ_table(text.clone(), 4);
        assert_eq!(occ.layout(), RankLayout::PackedDna);
        assert_eq!(occ.rank(1, text.len()), 3);
    }
}
