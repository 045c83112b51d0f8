//! Biosequence primitives used throughout the ALAE reproduction.
//!
//! This crate provides the substrate types that every other crate in the
//! workspace builds on:
//!
//! * [`Alphabet`] — DNA and protein alphabets with compact integer encodings,
//! * [`Sequence`] — an encoded biosequence with helpers for slicing and
//!   decoding,
//! * [`SequenceDatabase`] — a collection of sequences concatenated into a
//!   single text with record separators (the paper aligns against the
//!   concatenation of all database sequences, Section 2.2),
//! * [`ScoringScheme`] — the affine-gap scoring scheme `⟨sa, sb, sg, ss⟩`
//!   of Section 2.1 together with the derived quantities used by the ALAE
//!   filters (the `q` value of Equation 2 and the `Lmax` bound of Theorem 1),
//! * [`evalue`] — the Karlin–Altschul statistics used to convert a
//!   user-supplied E-value into the score threshold `H` (Section 7),
//! * [`fasta`] — minimal FASTA reading and writing for the examples.
#![forbid(unsafe_code)]

pub mod alphabet;
pub mod database;
pub mod evalue;
pub mod fasta;
pub mod guard;
pub mod hash;
pub mod hits;
pub mod scoring;
pub mod sequence;
pub mod shared;

pub use alphabet::Alphabet;
pub use database::{RecordLocation, RecordSpan, SequenceDatabase};
pub use evalue::KarlinAltschul;
pub use guard::{CancelOnDrop, CancelToken, GuardProbe, SearchError, SearchGuard, Termination};
pub use hits::{AlignmentHit, HitMap};
pub use scoring::ScoringScheme;
pub use sequence::Sequence;
pub use shared::SharedBytes;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BioseqError {
    /// A character outside the selected alphabet was encountered.
    InvalidCharacter {
        /// The offending byte.
        byte: u8,
        /// Offset of the byte in the input.
        position: usize,
    },
    /// A scoring scheme violated the sign or magnitude constraints of
    /// Section 2.1 (match positive, mismatch/gap penalties negative).
    InvalidScoringScheme(String),
    /// FASTA input was malformed.
    MalformedFasta(String),
    /// The Karlin–Altschul parameter estimation did not converge.
    StatisticsDidNotConverge(String),
}

impl std::fmt::Display for BioseqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BioseqError::InvalidCharacter { byte, position } => {
                write!(
                    f,
                    "invalid character {:?} (0x{:02x}) at position {}",
                    *byte as char, byte, position
                )
            }
            BioseqError::InvalidScoringScheme(msg) => {
                write!(f, "invalid scoring scheme: {msg}")
            }
            BioseqError::MalformedFasta(msg) => write!(f, "malformed FASTA: {msg}"),
            BioseqError::StatisticsDidNotConverge(msg) => {
                write!(f, "Karlin-Altschul statistics did not converge: {msg}")
            }
        }
    }
}

impl std::error::Error for BioseqError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, BioseqError>;
