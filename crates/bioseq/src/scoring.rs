//! Affine-gap scoring schemes (Section 2.1) and the derived filter
//! quantities (Equation 2 and Theorem 1).

use crate::alphabet::SEPARATOR_CODE;
use crate::{BioseqError, Result};

/// Score assigned to any alignment column touching a record separator.
///
/// Large enough (in magnitude) that an alignment crossing a record boundary
/// can never stay positive, small enough that `i64` arithmetic on scores can
/// never overflow.
pub const SEPARATOR_PENALTY: i64 = -1_000_000_000;

/// Largest magnitude [`ScoringScheme::validate`] accepts for each of `sa`,
/// `sb`, `sg` and `ss` (2^20).
///
/// The engines add and multiply scores in unchecked `i64` arithmetic.  A
/// query holds at most 2^26 codes (`MAX_FRAME_LEN` of `alae::wire`) and a
/// text fewer than 2^32 characters (the suffix array stores `u32`
/// positions), so an alignment has fewer than 2^33 columns.  Within a
/// record each column scores at most `|sg| + |ss| ≤ 2^21` in magnitude,
/// so every alignment score, and every product such as `q·sa`, `sa·m` or
/// `r·ss`, stays below 2^54 in magnitude: far inside `i64`, and far from
/// the `i64::MIN / 4` (−2^61) sentinel the dynamic programs add penalties
/// to.  Published schemes use single digits.
pub const MAX_SCORE_MAGNITUDE: i64 = 1 << 20;

/// The affine-gap scoring scheme `⟨sa, sb, sg, ss⟩` of Section 2.1.
///
/// * `sa` — positive score for an identical mapping,
/// * `sb` — negative score for a substitution,
/// * `sg` — negative gap *opening* penalty,
/// * `ss` — negative gap *extension* penalty per inserted/deleted character,
///
/// so a gap of `r` characters costs `sg + r·ss`.  The default scheme used by
/// BLAST and BWT-SW (and by all worked examples in the paper) is
/// `⟨1, −3, −5, −2⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScoringScheme {
    /// Match score `sa > 0`.
    pub sa: i64,
    /// Mismatch score `sb < 0`.
    pub sb: i64,
    /// Gap opening penalty `sg < 0`.
    pub sg: i64,
    /// Gap extension penalty `ss < 0`.
    pub ss: i64,
}

impl Default for ScoringScheme {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl std::fmt::Display for ScoringScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{},{},{},{}>", self.sa, self.sb, self.sg, self.ss)
    }
}

impl ScoringScheme {
    /// The default scheme `⟨1, −3, −5, −2⟩` shared by BLAST and BWT-SW.
    pub const DEFAULT: ScoringScheme = ScoringScheme {
        sa: 1,
        sb: -3,
        sg: -5,
        ss: -2,
    };

    /// The four representative schemes of Figure 9:
    /// `⟨1,−3,−5,−2⟩`, `⟨1,−4,−5,−2⟩`, `⟨1,−1,−5,−2⟩` and `⟨1,−3,−2,−2⟩`.
    pub const FIGURE9_SCHEMES: [ScoringScheme; 4] = [
        ScoringScheme {
            sa: 1,
            sb: -3,
            sg: -5,
            ss: -2,
        },
        ScoringScheme {
            sa: 1,
            sb: -4,
            sg: -5,
            ss: -2,
        },
        ScoringScheme {
            sa: 1,
            sb: -1,
            sg: -5,
            ss: -2,
        },
        ScoringScheme {
            sa: 1,
            sb: -3,
            sg: -2,
            ss: -2,
        },
    ];

    /// The `(sa, sb)` pairs BLAST exposes on its web interface, quoted in
    /// Section 6 of the paper.
    pub const BLAST_MATCH_MISMATCH_PAIRS: [(i64, i64); 6] =
        [(1, -2), (1, -3), (1, -4), (2, -3), (4, -5), (1, -1)];

    /// The protein scheme the paper uses for the index-size experiment
    /// (Figure 11(b)): `⟨1, −3, −11, −1⟩`.
    pub const PROTEIN_DEFAULT: ScoringScheme = ScoringScheme {
        sa: 1,
        sb: -3,
        sg: -11,
        ss: -1,
    };

    /// Build and validate a scheme.
    pub fn new(sa: i64, sb: i64, sg: i64, ss: i64) -> Result<Self> {
        let scheme = Self { sa, sb, sg, ss };
        scheme.validate()?;
        Ok(scheme)
    }

    /// Check the sign constraints of Section 2.1 and the magnitude bound
    /// [`MAX_SCORE_MAGNITUDE`].
    pub fn validate(&self) -> Result<()> {
        if self.sa <= 0 {
            return Err(BioseqError::InvalidScoringScheme(format!(
                "match score sa must be positive, got {}",
                self.sa
            )));
        }
        if self.sb >= 0 {
            return Err(BioseqError::InvalidScoringScheme(format!(
                "mismatch score sb must be negative, got {}",
                self.sb
            )));
        }
        if self.sg >= 0 {
            return Err(BioseqError::InvalidScoringScheme(format!(
                "gap opening penalty sg must be negative, got {}",
                self.sg
            )));
        }
        if self.ss >= 0 {
            return Err(BioseqError::InvalidScoringScheme(format!(
                "gap extension penalty ss must be negative, got {}",
                self.ss
            )));
        }
        for (name, value) in [
            ("sa", self.sa),
            ("sb", self.sb),
            ("sg", self.sg),
            ("ss", self.ss),
        ] {
            if value.unsigned_abs() > MAX_SCORE_MAGNITUDE.unsigned_abs() {
                return Err(BioseqError::InvalidScoringScheme(format!(
                    "|{name}| must not exceed {MAX_SCORE_MAGNITUDE}, got {value}"
                )));
            }
        }
        Ok(())
    }

    /// `δ(x, p)` of Section 2.2: `sa` on a match, `sb` on a mismatch, and a
    /// prohibitive penalty whenever either side is a record separator.
    #[inline]
    pub fn delta(&self, text_code: u8, query_code: u8) -> i64 {
        if text_code == SEPARATOR_CODE || query_code == SEPARATOR_CODE {
            SEPARATOR_PENALTY
        } else if text_code == query_code {
            self.sa
        } else {
            self.sb
        }
    }

    /// Cost of opening a gap of length one: `sg + ss` (always negative).
    #[inline]
    pub fn gap_open_extend(&self) -> i64 {
        self.sg + self.ss
    }

    /// Cost of an affine gap of `r ≥ 1` characters: `sg + r·ss`.
    #[inline]
    pub fn gap_cost(&self, r: usize) -> i64 {
        debug_assert!(r >= 1);
        self.sg + (r as i64) * self.ss
    }

    /// The q-prefix length of Equation 2:
    /// `q = ⌊min{|sb|, |sg + ss|} / sa⌋ + 1`.
    ///
    /// A positive-scoring alignment must begin with `q` exact matches on the
    /// text side (Theorem 3), which is what makes q-gram seeding exact.
    /// Panics where Equation 2 has no value (see [`ScoringScheme::checked_q`]).
    #[inline]
    pub fn q(&self) -> usize {
        self.checked_q()
            .expect("Equation 2 needs sa > 0 and penalties whose magnitudes fit i64")
    }

    /// [`ScoringScheme::q`], or `None` where Equation 2 has no value: when
    /// `sa ≤ 0`, or when a penalty is so large that `|sb|` or `|sg + ss|`
    /// overflows `i64`.  Use it for schemes from outside the process.
    pub fn checked_q(&self) -> Option<usize> {
        if self.sa <= 0 {
            return None;
        }
        let gap = self.sg.checked_add(self.ss)?.checked_abs()?;
        let min_penalty = self.sb.checked_abs()?.min(gap);
        usize::try_from(min_penalty / self.sa).ok()?.checked_add(1)
    }

    /// Lower bound on meaningful text-substring lengths (Theorem 1):
    /// `⌈H / sa⌉`.
    #[inline]
    pub fn min_text_length(&self, threshold: i64) -> usize {
        debug_assert!(threshold > 0, "threshold must be positive");
        (threshold + self.sa - 1).div_euclid(self.sa).max(1) as usize
    }

    /// Upper bound `Lmax` on meaningful text-substring lengths (Theorem 1):
    /// `max{m, m + ⌊(H − (sa·m + sg)) / ss⌋}`.
    #[inline]
    pub fn lmax(&self, query_len: usize, threshold: i64) -> usize {
        let m = query_len as i64;
        // Mathematical floor division (both operands may be negative; Rust's
        // `/` truncates and `div_euclid` keeps the remainder non-negative,
        // neither of which is the ⌊·⌋ the theorem states).
        let numerator = threshold - (self.sa * m + self.sg);
        let extra = floor_div(numerator, self.ss);
        let bound = (m + extra).max(m);
        bound.max(1) as usize
    }

    /// Whether the scheme satisfies BWT-SW's usability constraint
    /// `|sb| ≥ 3·|sa|` (Section 2.4).  BWT-SW refuses schemes outside this
    /// range; ALAE does not.
    #[inline]
    pub fn satisfies_bwtsw_constraint(&self) -> bool {
        self.sb.abs() >= 3 * self.sa.abs()
    }

    /// Maximum achievable alignment score for a query of length `m`
    /// (all matches): `sa·m`.
    #[inline]
    pub fn max_score(&self, query_len: usize) -> i64 {
        self.sa * query_len as i64
    }
}

/// Mathematical floor of `a / b` for possibly-negative operands.
#[inline]
pub fn floor_div(a: i64, b: i64) -> i64 {
    let quotient = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        quotient - 1
    } else {
        quotient
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_div_matches_mathematical_floor() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_div(7, -2), -4);
        assert_eq!(floor_div(-7, -2), 3);
        assert_eq!(floor_div(-3, -2), 1);
        assert_eq!(floor_div(6, 3), 2);
        assert_eq!(floor_div(-6, 3), -2);
    }

    #[test]
    fn default_scheme_matches_paper() {
        let s = ScoringScheme::DEFAULT;
        assert_eq!((s.sa, s.sb, s.sg, s.ss), (1, -3, -5, -2));
        assert_eq!(s.to_string(), "<1,-3,-5,-2>");
    }

    #[test]
    fn delta_matches_section_2_2_example() {
        let s = ScoringScheme::DEFAULT;
        // sim(AAACG, AACCG) = 4·1 + (−3) = 1 uses one mismatch.
        assert_eq!(s.delta(1, 1), 1);
        assert_eq!(s.delta(1, 2), -3);
        assert_eq!(s.delta(0, 2), SEPARATOR_PENALTY);
        assert_eq!(s.delta(2, 0), SEPARATOR_PENALTY);
    }

    #[test]
    fn q_value_examples() {
        // Default scheme: min(|−3|, |−5 + −2|) = 3, q = 3/1 + 1 = 4.
        assert_eq!(ScoringScheme::DEFAULT.q(), 4);
        // ⟨1,−1,−5,−2⟩: min(1, 7) = 1, q = 2.
        assert_eq!(ScoringScheme::new(1, -1, -5, -2).unwrap().q(), 2);
        // ⟨1,−3,−2,−2⟩: min(3, 4) = 3, q = 4.
        assert_eq!(ScoringScheme::new(1, -3, -2, -2).unwrap().q(), 4);
        // ⟨2,−3,−5,−2⟩: min(3, 7) = 3, q = 3/2 + 1 = 2.
        assert_eq!(ScoringScheme::new(2, -3, -5, -2).unwrap().q(), 2);
    }

    #[test]
    fn checked_q_agrees_with_q_and_refuses_overflow() {
        for scheme in ScoringScheme::FIGURE9_SCHEMES {
            assert_eq!(scheme.checked_q(), Some(scheme.q()));
        }
        assert_eq!(ScoringScheme::PROTEIN_DEFAULT.checked_q(), Some(4));
        let scheme = |sa, sb, sg, ss| ScoringScheme { sa, sb, sg, ss };
        assert_eq!(scheme(0, -3, -5, -2).checked_q(), None);
        assert_eq!(scheme(1, i64::MIN, -5, -2).checked_q(), None);
        assert_eq!(scheme(1, -3, i64::MIN, -2).checked_q(), None);
        assert_eq!(scheme(1, -100, -500, -200).checked_q(), Some(101));
    }

    #[test]
    fn gap_costs_are_affine() {
        let s = ScoringScheme::DEFAULT;
        assert_eq!(s.gap_open_extend(), -7);
        assert_eq!(s.gap_cost(1), -7);
        assert_eq!(s.gap_cost(3), -11);
    }

    #[test]
    fn length_filter_example_from_section_3_1_1() {
        // T = CTAGCTAG, P = GCTAC (m = 5), H = 3, default scheme:
        // only substrings of length 3..=4 need to be considered.
        let s = ScoringScheme::DEFAULT;
        assert_eq!(s.min_text_length(3), 3);
        // H − (sa·m + sg) = 3 − (5 − 5) = 3; ⌊3 / −2⌋ = −2; the theorem takes
        // the max with m, so Lmax = 5 here; the worked example in the paper
        // further intersects with the i ≥ ⌈H/sa⌉ bound.
        assert_eq!(s.lmax(5, 3), 5);
        assert!(s.lmax(5, 3) >= s.min_text_length(3));
    }

    #[test]
    fn lmax_grows_with_small_thresholds() {
        let s = ScoringScheme::DEFAULT;
        // A small threshold relative to sa·m allows gaps, extending Lmax
        // beyond m.
        let m = 10;
        let h = 4;
        // numerator = 4 − (10 − 5) = −1; ⌊−1/−2⌋ = 0 ... use a smaller H.
        assert!(s.lmax(m, h) >= m);
        let h_small = 2;
        // numerator = 2 − 5 = −3; div_euclid(−3, −2) = 2 (wait: −3 / −2 = 1.5,
        // floor = 1 with euclid). Lmax = 11.
        assert_eq!(s.lmax(m, h_small), 11);
    }

    #[test]
    fn validation_rejects_bad_signs() {
        assert!(ScoringScheme::new(0, -3, -5, -2).is_err());
        assert!(ScoringScheme::new(1, 3, -5, -2).is_err());
        assert!(ScoringScheme::new(1, -3, 5, -2).is_err());
        assert!(ScoringScheme::new(1, -3, -5, 2).is_err());
        assert!(ScoringScheme::new(1, -3, -5, -2).is_ok());
    }

    #[test]
    fn validation_bounds_every_magnitude() {
        let max = MAX_SCORE_MAGNITUDE;
        assert!(ScoringScheme::new(max, -max, -max, -max).is_ok());
        assert!(ScoringScheme::new(max + 1, -3, -5, -2).is_err());
        assert!(ScoringScheme::new(1, -max - 1, -5, -2).is_err());
        assert!(ScoringScheme::new(1, -3, -max - 1, -2).is_err());
        assert!(ScoringScheme::new(1, -3, -5, i64::MIN).is_err());
    }

    #[test]
    fn bwtsw_constraint() {
        assert!(ScoringScheme::DEFAULT.satisfies_bwtsw_constraint());
        assert!(!ScoringScheme::new(1, -1, -5, -2)
            .unwrap()
            .satisfies_bwtsw_constraint());
        assert!(!ScoringScheme::new(1, -2, -5, -2)
            .unwrap()
            .satisfies_bwtsw_constraint());
    }

    #[test]
    fn figure9_schemes_are_valid() {
        for scheme in ScoringScheme::FIGURE9_SCHEMES {
            assert!(scheme.validate().is_ok());
        }
        assert!(ScoringScheme::PROTEIN_DEFAULT.validate().is_ok());
    }

    #[test]
    fn max_score_is_all_matches() {
        assert_eq!(ScoringScheme::DEFAULT.max_score(100), 100);
        assert_eq!(
            ScoringScheme::new(2, -3, -5, -2).unwrap().max_score(50),
            100
        );
    }
}
