//! Compressed suffix array substrate for the ALAE reproduction.
//!
//! Section 5 of the paper simulates suffix-trie traversals over the text `T`
//! with a compressed suffix array: a Burrows–Wheeler transform, rank
//! (occurrence) structures supporting backward search, and a sampled suffix
//! array for locating occurrences.  Because ALAE extends text substrings to
//! the *right* one character at a time (appending `c` behind `X`), the index
//! is built over the **reversed** text `T⁻¹`, so that appending a character on
//! the right of `X` becomes a backward-search extension on `(X)⁻¹` — exactly
//! the construction described in Section 5.
//!
//! The crate provides, from scratch (no external succinct-structure crates):
//!
//! * [`sais`] — linear-time, in-place suffix array construction (SA-IS) of
//!   the reversed text,
//! * [`rank`] — byte-sequence rank structure (two-level occurrence
//!   checkpoints plus portable SWAR in-block scans),
//! * [`fm_index`] — FM-index with backward search and a sampled suffix
//!   array, whose BWT the build writes over the suffix array,
//! * [`trie`] — the suffix-trie emulation used by BWT-SW and ALAE
//!   ([`trie::SuffixTrieCursor`] extends a represented substring one
//!   character to the right).
//!
//! Index construction has one path and no options: [`TextIndex::new`]
//! reads the text and builds the reversed text's FM-index, which is all a
//! [`TextIndex`] holds.  The code count picks the occurrence-table layout
//! ([`RankLayout::PackedDna`] for DNA's 6 shifted codes,
//! [`RankLayout::Bytes`] for protein's 22), and every index samples its
//! suffix array at the one rate [`fm_index::SA_SAMPLE_RATE`].  The
//! [`rank`] module docs give the reasons for both layouts.
//!
//! The crate contains no `unsafe` code.
#![forbid(unsafe_code)]

pub mod bitvec;
pub mod fm_index;
pub mod rank;
pub mod sais;
mod swar;
pub mod trie;

pub use fm_index::{FmIndex, PackedSamples, SaRange, MAX_CODE_COUNT};
pub use sais::suffix_array_build_count;

pub use rank::{thread_scan_snapshot, RankLayout, ScanSnapshot, StorageData, StorageDataRef};
pub use trie::{ChildBuf, SuffixTrieCursor, TextIndex, MAX_CHILDREN};
