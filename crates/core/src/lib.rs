//! ALAE — Accelerating Local alignment with Affine gap Exactly.
//!
//! This crate implements the paper's primary contribution: an exact
//! local-alignment search engine that prunes the dynamic programming of
//! BWT-SW with a family of filtering techniques and reuses duplicated score
//! calculations, while guaranteeing the same result set as a full
//! Smith–Waterman scan.
//!
//! The moving parts map onto the paper as follows:
//!
//! | Paper | Module |
//! |-------|--------|
//! | Length / score / q-prefix filtering (Section 3.1, Theorems 1–3) | [`filters`] |
//! | Fork model: EMR, NGR, FGOE, gap regions (Section 3.1.3, Figure 2) | [`fork`] |
//! | q-gram inverted lists of the query (Section 3.1.3) | [`qgram`] |
//! | q-prefix domination (Section 3.2.2, Lemma 1), answered from the text index | [`engine`] |
//! | Reusing score calculations across forks (Section 4) | fork groups in [`engine`] |
//! | Compressed-suffix-array traversal (Section 5) | `alae-suffix` (re-used) |
//! | Entry-count analysis (Section 6) | [`analysis`] |
//! | Work counters: calculated / reused / accessed entries, cost classes (Section 7.2, Table 4) | [`counters`] |
//!
//! # Exactness contract
//!
//! For any scoring scheme `⟨sa, sb, sg, ss⟩` and threshold `H ≥ q·sa`
//! (`q` from Equation 2 — every threshold derived from a realistic E-value
//! satisfies this by a wide margin), [`AlaeAligner::align`] reports exactly
//! the same `(end position, score)` pairs as the thresholded Smith–Waterman
//! oracle and as BWT-SW.  The integration tests in `tests/` assert this on
//! randomized workloads.
#![forbid(unsafe_code)]

pub mod analysis;
pub mod arena;
pub mod config;
pub mod counters;
pub mod engine;
pub mod filters;
pub mod fork;
pub mod qgram;

pub use analysis::{expected_entry_bound, EntryBoundModel};
pub use arena::ForkArena;
pub use config::{AlaeConfig, FilterToggles, ThresholdSpec};
pub use counters::AlaeStats;
pub use engine::{AlaeAligner, AlaeResult};
pub use qgram::QGramIndex;

/// "Minus infinity" sentinel used throughout the dynamic programs; far from
/// `i64::MIN` so adding penalties can never overflow.
pub(crate) const NEG_INF: i64 = i64::MIN / 4;
