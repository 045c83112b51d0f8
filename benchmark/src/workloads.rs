//! The workloads: what each generates from the seed, how it loads
//! the system, and why it exists.

use alae::bioseq::{Alphabet, ScoringScheme};
use alae::search::SearchRequest;
use alae::workload::{MutationProfile, QuerySpec, TextSpec, Workload, WorkloadBuilder};

/// How a workload drives the system.  Every load is a closed loop with one
/// operation in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// One `alae::client::Client` connection, from one thread, against an
    /// in-process `alae-server` on loopback.
    Served,
    /// In-process `Searcher::search_batch` calls on one thread, `chunk`
    /// queries each, over one `Searcher` built at setup.
    Batch { chunk: usize },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: what the workload stresses (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub alphabet: Alphabet,
    pub text_len: usize,
    pub query_len: usize,
    /// Homologous segments per query (0 = fully random queries).
    pub segments: usize,
    /// Reporting threshold H.
    pub threshold: i64,
    /// Distinct queries; one round sends each once.  Few enough that every
    /// operation repeats about a hundred times in a run (see
    /// [`crate::run::best_runs`]).
    pub round_queries: usize,
    pub load: Load,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Leading queries of every workload also checked against the
/// Smith–Waterman oracle.
pub const ORACLE_QUERIES: usize = 3;

/// Threads of the traced `search.batch_efficiency` probe: the machine the
/// bounds were set on has two cores.  The timed loads run one operation
/// at a time on one thread, because on that shared host two threads ran
/// anywhere between 0.9 and 1.5 times as fast as one.
pub const THREADS: usize = 2;

/// Untimed queries before the first round.
pub const WARMUP_QUERIES: usize = 10;

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "serve-dense",
        why: "Hit-dense DNA over TCP, 1 connection: the engine is about half of served latency, \
              the rest is per-wave engine build, the batch window and ~250 hit frames per query.",
        alphabet: Alphabet::Dna,
        text_len: 600_000,
        query_len: 200,
        segments: 2,
        threshold: 30,
        round_queries: 20,
        load: Load::Served,
        setup_reps: 15,
    },
    WorkloadSpec {
        name: "batch-protein",
        why: "In-process Searcher::search_batch on one thread, protein (sigma 21 layout): no \
              server, wire or per-wave build, so serving-layer changes should not move it.",
        alphabet: Alphabet::Protein,
        text_len: 300_000,
        query_len: 300,
        segments: 2,
        threshold: 30,
        round_queries: 80,
        load: Load::Batch { chunk: 4 },
        setup_reps: 15,
    },
];

impl WorkloadSpec {
    pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The same workload shrunk for a smoke test: tiny text, few queries,
    /// one set-up.
    pub fn quick(&self) -> WorkloadSpec {
        WorkloadSpec {
            text_len: 20_000,
            round_queries: 6,
            setup_reps: 1,
            ..*self
        }
    }

    /// The one request every query of the workload carries: ALAE, the
    /// default scheme, threshold H, no result shaping.
    pub fn request(&self) -> SearchRequest {
        SearchRequest::with_threshold(ScoringScheme::DEFAULT, self.threshold)
    }

    /// Text and queries, a function of `seed` alone.
    pub fn generate(&self, seed: u64) -> Workload {
        let text = match self.alphabet {
            Alphabet::Dna => TextSpec::dna(self.text_len, seed),
            Alphabet::Protein => TextSpec::protein(self.text_len, seed),
        };
        let queries = QuerySpec {
            count: self.round_queries,
            length: self.query_len,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: seed.wrapping_add(1),
        };
        WorkloadBuilder::new(text, queries).build_segmented(self.segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_reasons_fit_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let spec = WORKLOADS[0].quick();
        let a = spec.generate(5);
        let b = spec.generate(5);
        let c = spec.generate(6);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.database.text(), b.database.text());
        assert_ne!(a.database.text(), c.database.text());
    }
}
