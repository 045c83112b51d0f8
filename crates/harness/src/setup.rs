//! Workload construction and shared index setup for the experiments.

use alae::search::{IndexBuilder, IndexedDatabase};
use alae_bioseq::{Alphabet, Sequence, SequenceDatabase};
use alae_suffix::TextIndex;
use alae_workload::{MutationProfile, QuerySpec, TextSpec, Workload, WorkloadBuilder};
use std::sync::Arc;

/// A workload plus the shared database/index handle every runner searches
/// through.
pub struct PreparedWorkload {
    /// The shared database + suffix-trie index (the facade's unit of
    /// sharing across engines and threads).
    pub indexed: IndexedDatabase,
    /// The query set.
    pub queries: Vec<Sequence>,
}

impl PreparedWorkload {
    /// The record table and concatenated text.
    pub fn database(&self) -> &SequenceDatabase {
        self.indexed.database()
    }

    /// The shared compressed-suffix-array index of the database text.
    pub fn index(&self) -> &Arc<TextIndex> {
        self.indexed.index()
    }

    /// Total text length `n` (including record separators).
    pub fn text_len(&self) -> usize {
        self.database().text_len()
    }
}

/// Build a DNA workload of `query_count` homologous queries of length
/// `query_len` against a text of `text_len` characters, and index the text.
pub fn prepare_dna(
    text_len: usize,
    query_len: usize,
    query_count: usize,
    seed: u64,
) -> PreparedWorkload {
    // Segmented-homology queries: conserved segments embedded in random
    // background, mirroring the structure of real cross-species queries
    // (see `WorkloadBuilder::build_segmented`).
    let segments = (query_len / 400).clamp(2, 8);
    prepare_segmented(text_len, query_len, query_count, seed, segments)
}

/// Build a *sparse-hit* DNA workload: fully random queries (no homologous
/// segments embedded), so alignments reaching the threshold are rare and
/// engine time is dominated by traversal/pruning rather than hit
/// recording — the regime of the paper's m = 100 rows, and the counterpart
/// of the hit-dense default in `BENCH_search.json`.
pub fn prepare_dna_sparse(
    text_len: usize,
    query_len: usize,
    query_count: usize,
    seed: u64,
) -> PreparedWorkload {
    // segment_count = 0 degenerates to fully random queries.
    prepare_segmented(text_len, query_len, query_count, seed, 0)
}

fn prepare_segmented(
    text_len: usize,
    query_len: usize,
    query_count: usize,
    seed: u64,
    segments: usize,
) -> PreparedWorkload {
    let query_spec = QuerySpec {
        count: query_count,
        length: query_len,
        mutation: MutationProfile::HOMOLOGOUS,
        seed: seed.wrapping_add(1),
    };
    let Workload { database, queries } =
        WorkloadBuilder::new(TextSpec::dna(text_len, seed), query_spec).build_segmented(segments);
    PreparedWorkload {
        indexed: IndexBuilder::new().index(database),
        queries,
    }
}

/// Generate a text only (no queries, no index) — used by the index-size
/// experiment, which never aligns anything.
pub fn text_only(alphabet: Alphabet, text_len: usize, seed: u64) -> SequenceDatabase {
    let spec = match alphabet {
        Alphabet::Dna => TextSpec::dna(text_len, seed),
        Alphabet::Protein => TextSpec::protein(text_len, seed),
    };
    let text = alae_workload::generate_text(&spec);
    SequenceDatabase::from_sequences(alphabet, [text])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_workload_has_index_over_the_text() {
        let prepared = prepare_dna(5_000, 200, 2, 7);
        assert_eq!(prepared.index().len(), prepared.database().text_len());
        assert_eq!(prepared.queries.len(), 2);
        assert_eq!(prepared.text_len(), 5_000);
    }

    #[test]
    fn text_only_skips_queries() {
        let db = text_only(Alphabet::Dna, 2_000, 1);
        assert_eq!(db.character_count(), 2_000);
    }
}
