//! Shared helpers for the Criterion benchmarks.
//!
//! Every benchmark regenerates one table or figure of the paper at
//! micro-benchmark scale: the workloads are deliberately small (tens of
//! kilobases, queries of a few hundred characters) so each Criterion sample
//! completes in milliseconds, while the *relative* ordering of the aligners
//! — the shape the paper reports — is preserved.  The full-scale (minutes,
//! not milliseconds) reproduction lives in the `alae-experiments` binary.
#![forbid(unsafe_code)]

use alae_bioseq::{Alphabet, ScoringScheme, Sequence, SequenceDatabase};
use alae_suffix::{ChildBuf, SuffixTrieCursor, TextIndex};
use alae_workload::{MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};
use std::sync::Arc;

/// DFS-collect up to `cap` trie nodes from the top `max_depth` levels — a
/// representative mix of wide and narrow SA ranges for rank-layer
/// measurements (the harness `rank` experiment's node set).
pub fn collect_trie_nodes(
    index: &TextIndex,
    max_depth: usize,
    cap: usize,
) -> Vec<SuffixTrieCursor> {
    let mut nodes = Vec::new();
    let mut buf = ChildBuf::new();
    let mut stack = vec![index.root()];
    while let Some(cursor) = stack.pop() {
        if nodes.len() >= cap {
            break;
        }
        nodes.push(cursor);
        if cursor.depth >= max_depth {
            continue;
        }
        index.children_into(cursor, &mut buf);
        stack.extend(buf.iter().map(|&(_, child)| child));
    }
    nodes
}

/// Fold the alphabet codes of a text onto `sigma` codes (separator code 0
/// stays 0), producing a reduced-alphabet text for the nibble rank layout
/// (the harness `rank` experiment's reduced-protein text).
pub fn reduce_alphabet(codes: &[u8], sigma: u8) -> Vec<u8> {
    codes
        .iter()
        .map(|&c| if c == 0 { 0 } else { (c - 1) % sigma + 1 })
        .collect()
}

/// Expand every node with the σ per-character `extend` loop (the layer the
/// single-scan `extend_all` replaced); returns the number of live children.
pub fn extend_left_pass(index: &TextIndex, nodes: &[SuffixTrieCursor]) -> usize {
    let code_count = index.code_count();
    let mut live = 0usize;
    for cursor in nodes {
        for code in 1..code_count as u8 {
            if index.extend(*cursor, code).is_some() {
                live += 1;
            }
        }
    }
    live
}

/// Expand every node with the single-scan `children_into` fan-out; returns
/// the number of live children.
pub fn extend_all_pass(index: &TextIndex, nodes: &[SuffixTrieCursor], buf: &mut ChildBuf) -> usize {
    let mut live = 0usize;
    for cursor in nodes {
        index.children_into(*cursor, buf);
        live += buf.len();
    }
    live
}

/// A small benchmark workload: one indexed DNA text plus one query.
pub struct BenchWorkload {
    /// The database.
    pub database: SequenceDatabase,
    /// Shared suffix-trie index of the text.
    pub index: Arc<TextIndex>,
    /// The query to align.
    pub query: Sequence,
    /// The score threshold used by every aligner (derived once from E = 10).
    pub threshold: i64,
}

/// Build a benchmark workload of `text_len` DNA characters and one
/// homologous query of `query_len` characters.
pub fn dna_workload(text_len: usize, query_len: usize, seed: u64) -> BenchWorkload {
    let built = WorkloadBuilder::new(
        TextSpec::dna(text_len, seed),
        QuerySpec {
            count: 1,
            length: query_len,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: seed + 1,
        },
    )
    // Conserved segments embedded in random background (the shape of real
    // cross-species queries) keep the gap regions bounded at micro scale.
    .build_segmented(2);
    let database = built.database;
    let query = built
        .queries
        .into_iter()
        .next()
        .expect("one query requested");
    let index = Arc::new(TextIndex::new(
        database.text().to_vec(),
        database.alphabet().code_count(),
    ));
    let ka = alae_bioseq::KarlinAltschul::estimate(Alphabet::Dna, &ScoringScheme::DEFAULT)
        .expect("statistics exist");
    // E = 10 at micro-benchmark scale would give a very permissive threshold
    // (H ≈ 11) and drown every engine in barely-significant hits; clamp to
    // the stringency the paper's E = 10 corresponds to at its full scale.
    let threshold = ka
        .threshold_for_evalue(query.len(), database.text_len(), 10.0)
        .max(25);
    BenchWorkload {
        database,
        index,
        query,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_well_formed() {
        let w = dna_workload(5_000, 200, 3);
        assert_eq!(w.database.character_count(), 5_000);
        assert!(w.threshold > 0);
        assert_eq!(w.index.len(), w.database.text_len());
    }
}
