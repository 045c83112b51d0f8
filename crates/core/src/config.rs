//! Aligner configuration.

use alae_bioseq::{Alphabet, KarlinAltschul, ScoringScheme};

/// How the reporting threshold `H` is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdSpec {
    /// An explicit score threshold (the paper's `H`).
    Score(i64),
    /// An E-value; `H` is derived per query with the Karlin–Altschul model
    /// (Section 7: `H = ⌈(ln(K·m·n) − ln E) / λ⌉`).
    EValue(f64),
}

/// Individual on/off switches for the ALAE techniques, used by the ablation
/// experiments.  All of them preserve exactness; turning one off only makes
/// the engine do more work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterToggles {
    /// Length filtering (Theorem 1): cap the trie depth at `Lmax`.
    pub length_filter: bool,
    /// Score filtering (Theorem 2): prune cells that can no longer reach the
    /// threshold.
    pub score_filter: bool,
    /// q-prefix domination (Section 3.2.2, Lemma 1): skip forks whose
    /// q-gram is dominated by the preceding q-gram of the query, decided
    /// from the text index.
    pub domination_filter: bool,
    /// Score reuse across forks (Section 4): copy identical columns instead
    /// of recomputing them.
    pub reuse: bool,
}

impl Default for FilterToggles {
    fn default() -> Self {
        Self::ALL
    }
}

impl FilterToggles {
    /// Every technique enabled (the configuration the paper evaluates).
    pub const ALL: FilterToggles = FilterToggles {
        length_filter: true,
        score_filter: true,
        domination_filter: true,
        reuse: true,
    };

    /// Everything off: the engine degenerates to a q-prefix-seeded version
    /// of the BWT-SW dynamic program (used as an ablation baseline).
    pub const NONE: FilterToggles = FilterToggles {
        length_filter: false,
        score_filter: false,
        domination_filter: false,
        reuse: false,
    };
}

/// Configuration of an [`crate::AlaeAligner`].
#[derive(Debug, Clone, Copy)]
pub struct AlaeConfig {
    /// The affine-gap scoring scheme.
    pub scheme: ScoringScheme,
    /// The reporting threshold (explicit score or E-value).
    pub threshold: ThresholdSpec,
    /// Technique toggles.
    pub filters: FilterToggles,
}

impl AlaeConfig {
    /// Configuration with an explicit score threshold.
    pub fn with_threshold(scheme: ScoringScheme, threshold: i64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self {
            scheme,
            threshold: ThresholdSpec::Score(threshold),
            filters: FilterToggles::ALL,
        }
    }

    /// Configuration with an E-value threshold (the paper's default is
    /// `E = 10`).
    pub fn with_evalue(scheme: ScoringScheme, evalue: f64) -> Self {
        assert!(evalue > 0.0, "E-value must be positive");
        Self {
            scheme,
            threshold: ThresholdSpec::EValue(evalue),
            filters: FilterToggles::ALL,
        }
    }

    /// Replace the filter toggles.
    pub fn filters(mut self, filters: FilterToggles) -> Self {
        self.filters = filters;
        self
    }

    /// Resolve the threshold `H` for a concrete query length `m` and text
    /// length `n`.
    ///
    /// The result is clamped from below to `q·sa`, the smallest threshold
    /// for which the q-prefix seeding of Theorem 3 is lossless (any
    /// realistic E-value produces a far larger `H`; the clamp only matters
    /// for stress tests with extreme E-values).
    pub fn resolve_threshold(&self, alphabet: Alphabet, m: usize, n: usize) -> i64 {
        let floor = self.scheme.q() as i64 * self.scheme.sa;
        let h = match self.threshold {
            ThresholdSpec::Score(h) => h,
            ThresholdSpec::EValue(e) => {
                let ka = KarlinAltschul::estimate(alphabet, &self.scheme)
                    .expect("Karlin-Altschul statistics must exist for a valid scheme");
                ka.threshold_for_evalue(m.max(1), n.max(1), e)
            }
        };
        h.max(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_threshold_is_used_when_large_enough() {
        let config = AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 25);
        assert_eq!(
            config.resolve_threshold(Alphabet::Dna, 1_000, 1_000_000),
            25
        );
    }

    #[test]
    fn tiny_thresholds_are_clamped_to_q_times_sa() {
        let config = AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 1);
        // q = 4 and sa = 1 for the default scheme.
        assert_eq!(config.resolve_threshold(Alphabet::Dna, 100, 100), 4);
    }

    #[test]
    fn evalue_thresholds_shrink_with_larger_evalues() {
        let config_loose = AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 10.0);
        let config_tight = AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 1e-15);
        let loose = config_loose.resolve_threshold(Alphabet::Dna, 10_000, 1_000_000);
        let tight = config_tight.resolve_threshold(Alphabet::Dna, 10_000, 1_000_000);
        assert!(tight > loose);
        assert!(
            loose > 10,
            "E=10 over a 1e10 search space needs a real threshold"
        );
    }

    #[test]
    fn filter_toggles_builder() {
        let config =
            AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 20).filters(FilterToggles {
                domination_filter: false,
                reuse: false,
                ..FilterToggles::ALL
            });
        assert!(!config.filters.domination_filter);
        assert!(config.filters.length_filter);
        assert_eq!(FilterToggles::default(), FilterToggles::ALL);
    }

    #[test]
    #[should_panic]
    fn zero_threshold_rejected() {
        AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 0);
    }

    #[test]
    #[should_panic]
    fn zero_evalue_rejected() {
        AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 0.0);
    }
}
