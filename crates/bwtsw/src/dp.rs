//! The pruned suffix-trie dynamic program of BWT-SW.
//!
//! The DFS shares the ALAE engine's zero-allocation traversal shape: sparse
//! DP rows are pooled `Vec<Cell>` buffers recycled through a per-thread
//! scratch (acquired per child, released when the node's subtree is done),
//! and occurrence location reuses one pooled buffer — no per-trie-node heap
//! allocation once the scratch is warm.

use crate::stats::BwtswStats;
use alae_bioseq::guard::{SearchGuard, Termination};
use alae_bioseq::hits::{AlignmentHit, HitMap};
use alae_bioseq::{ScoringScheme, SequenceDatabase};
use alae_suffix::{ChildBuf, SuffixTrieCursor, TextIndex};
use std::cell::RefCell;
use std::sync::Arc;

/// "Minus infinity" for pruned scores; far from `i64::MIN` so arithmetic
/// never overflows.
const NEG_INF: i64 = i64::MIN / 4;

/// Reusable per-thread DFS scratch: pooled sparse rows, the frame stack,
/// the child-expansion buffer and the occurrence buffer.
#[derive(Debug, Default)]
struct BwtswScratch {
    /// Recycled row buffers.
    row_pool: Vec<Vec<Cell>>,
    /// The DFS stack (each frame owns a pooled row).
    stack: Vec<(SuffixTrieCursor, Vec<Cell>)>,
    /// Child-expansion buffer (two occurrence-table scans per refill).
    child_buf: ChildBuf,
    /// Occurrence positions of the current reported node.
    occ_buf: Vec<usize>,
    /// Row 0 (every column is a valid start).
    root_row: Vec<Cell>,
}

impl BwtswScratch {
    // lint: no-alloc — pooled-row reuse (tests/alloc_steady_state.rs)
    #[inline]
    fn acquire_row(&mut self) -> Vec<Cell> {
        let mut row = self.row_pool.pop().unwrap_or_default();
        row.clear();
        row
    }

    // lint: no-alloc — returns the row to the pool, never allocates
    #[inline]
    fn release_row(&mut self, row: Vec<Cell>) {
        self.row_pool.push(row);
    }

    /// Reclaim every frame (safe after a truncated run), keeping capacity.
    fn reset(&mut self) {
        while let Some((_, row)) = self.stack.pop() {
            self.row_pool.push(row);
        }
    }

    /// Current scratch footprint in bytes (pooled rows, live stack rows,
    /// the root row and the occurrence buffer) — the quantity a request's
    /// memory budget caps.
    fn bytes_in_use(&self) -> usize {
        let cell = std::mem::size_of::<Cell>();
        let pooled: usize = self.row_pool.iter().map(Vec::capacity).sum();
        let stacked: usize = self.stack.iter().map(|(_, row)| row.capacity()).sum();
        (pooled + stacked + self.root_row.capacity()) * cell
            + self.occ_buf.capacity() * std::mem::size_of::<usize>()
    }
}

thread_local! {
    /// The calling thread's scratch; every `align` call on this thread
    /// (including all queries a batch worker processes) reuses it.
    static THREAD_SCRATCH: RefCell<BwtswScratch> = RefCell::new(BwtswScratch::default());
}

/// Configuration for a BWT-SW run.
#[derive(Debug, Clone, Copy)]
pub struct BwtswConfig {
    /// The affine-gap scoring scheme.
    pub scheme: ScoringScheme,
    /// Report every end pair whose best score is at least this threshold
    /// (`H` in the paper; must be positive).
    pub threshold: i64,
}

impl BwtswConfig {
    /// Create a configuration with the given scheme and threshold.
    pub fn new(scheme: ScoringScheme, threshold: i64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self { scheme, threshold }
    }
}

/// The outcome of one BWT-SW alignment run.
#[derive(Debug, Clone)]
pub struct BwtswResult {
    /// All end pairs whose best alignment score reached the threshold.
    /// When `termination` is not [`Termination::Complete`] these are the
    /// (still canonically ordered) hits found before the run was cut
    /// short.
    pub hits: Vec<AlignmentHit>,
    /// Work counters.
    pub stats: BwtswStats,
    /// Why the run ended (guardrails; [`Termination::Complete`] for the
    /// unguarded entry point).
    pub termination: Termination,
}

/// One sparse dynamic-programming cell: the column `j` (1-based), the main
/// score `M(i, j)` and the vertical-gap auxiliary `Ga(i, j)`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    j: u32,
    m: i64,
    ga: i64,
}

/// The BWT-SW aligner: a text index plus a configuration.
#[derive(Debug, Clone)]
pub struct BwtswAligner {
    index: Arc<TextIndex>,
    config: BwtswConfig,
}

impl BwtswAligner {
    /// Build the aligner (and its index) from a sequence database.
    ///
    /// The index reads the database's text while it builds and keeps no
    /// copy of it.
    pub fn build(database: &SequenceDatabase, config: BwtswConfig) -> Self {
        let index = TextIndex::new(database.text(), database.alphabet().code_count());
        Self {
            index: Arc::new(index),
            config,
        }
    }

    /// Build the aligner around an existing (possibly shared) index.
    pub fn with_index(index: Arc<TextIndex>, config: BwtswConfig) -> Self {
        Self { index, config }
    }

    /// The underlying text index.
    pub fn index(&self) -> &Arc<TextIndex> {
        &self.index
    }

    /// The configuration.
    pub fn config(&self) -> &BwtswConfig {
        &self.config
    }

    /// Align a query (code sequence) against the indexed text and report
    /// every end pair reaching the threshold.
    ///
    /// Uses (and warms) the calling thread's pooled DFS scratch, so
    /// repeated calls on one thread perform no per-node heap allocation.
    pub fn align(&self, query: &[u8]) -> BwtswResult {
        self.align_guarded(query, &SearchGuard::none())
    }

    /// Align under request guardrails: the DFS polls `guard` once per
    /// trie-node expansion (amortized; see [`SearchGuard`]) and unwinds
    /// cleanly when a deadline, budget or cancellation trips, returning
    /// the hits found so far with the matching [`Termination`].
    pub fn align_guarded(&self, query: &[u8], guard: &SearchGuard) -> BwtswResult {
        THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.align_with_scratch(query, &mut scratch, guard),
            // Re-entrant alignment on the same thread: throwaway scratch.
            Err(_) => self.align_with_scratch(query, &mut BwtswScratch::default(), guard),
        })
    }

    fn align_with_scratch(
        &self,
        query: &[u8],
        scratch: &mut BwtswScratch,
        guard: &SearchGuard,
    ) -> BwtswResult {
        let mut stats = BwtswStats::default();
        // Thread-local scan totals: the whole walk runs on the calling
        // thread, so the snapshot delta attributes exactly this query's
        // occurrence-table work even under concurrent batch search.
        let scans_at_start = alae_suffix::thread_scan_snapshot();
        let mut hits = HitMap::new();
        let m = query.len();
        if m == 0 || self.index.is_empty() {
            return BwtswResult {
                hits: Vec::new(),
                stats,
                termination: Termination::Complete,
            };
        }
        let mut probe = guard.probe(m);
        let scheme = &self.config.scheme;
        let threshold = self.config.threshold;

        scratch.reset();
        // Row 0: every column (including column 0, the empty query prefix)
        // is a valid start with score 0.
        scratch.root_row.clear();
        scratch.root_row.extend((0..=m as u32).map(|j| Cell {
            j,
            m: 0,
            ga: NEG_INF,
        }));

        // Depth-first traversal of the suffix trie; each stack entry owns
        // the sparse DP row of its node, drawn from (and returned to) the
        // row pool.  One child buffer serves the whole walk: each node
        // expansion refills it in place (two occurrence-table block scans
        // via `extend_all`).
        let root = self.index.root();
        self.index.children_into(root, &mut scratch.child_buf);
        for k in 0..scratch.child_buf.len() {
            // One poll per root expansion; a trip skips the main walk below
            // (the stack is still empty or partially filled — `reset` after
            // the walk reclaims whatever is on it).
            if probe.poll(|| scratch.bytes_in_use() as u64) {
                break;
            }
            let (c, child) = scratch.child_buf.as_slice()[k];
            let mut row = scratch.acquire_row();
            let entries_before = stats.calculated_entries;
            advance_row_into(&scratch.root_row, c, query, scheme, &mut stats, &mut row);
            probe.add_work(stats.calculated_entries - entries_before);
            self.visit(child, &row, &mut scratch.occ_buf, &mut hits, &mut stats);
            if !row.is_empty() {
                scratch.stack.push((child, row));
            } else {
                stats.pruned_subtrees += 1;
                scratch.release_row(row);
            }
        }
        while let Some((cursor, row)) = scratch.stack.pop() {
            // One poll per node expansion: on a trip, recycle this frame's
            // row and every row still on the stack, then unwind — the
            // scratch is left reusable and the hits recorded so far stand.
            if probe.poll(|| scratch.bytes_in_use() as u64) {
                scratch.release_row(row);
                scratch.reset();
                break;
            }
            self.index.children_into(cursor, &mut scratch.child_buf);
            for k in 0..scratch.child_buf.len() {
                let (c, child) = scratch.child_buf.as_slice()[k];
                let mut child_row = scratch.acquire_row();
                let entries_before = stats.calculated_entries;
                advance_row_into(&row, c, query, scheme, &mut stats, &mut child_row);
                probe.add_work(stats.calculated_entries - entries_before);
                self.visit(
                    child,
                    &child_row,
                    &mut scratch.occ_buf,
                    &mut hits,
                    &mut stats,
                );
                if !child_row.is_empty() {
                    scratch.stack.push((child, child_row));
                } else {
                    stats.pruned_subtrees += 1;
                    scratch.release_row(child_row);
                }
            }
            scratch.release_row(row);
        }

        let scan_delta = alae_suffix::thread_scan_snapshot().since(&scans_at_start);
        stats.occ_block_scans = scan_delta.block_scans;
        stats.occ_bytes_scanned = scan_delta.bytes_scanned;

        BwtswResult {
            hits: hits.into_hits(threshold),
            stats,
            termination: probe.termination(),
        }
    }

    /// Record hits contributed by one trie node's row.
    fn visit(
        &self,
        cursor: SuffixTrieCursor,
        row: &[Cell],
        occ_buf: &mut Vec<usize>,
        hits: &mut HitMap,
        stats: &mut BwtswStats,
    ) {
        stats.visited_nodes += 1;
        stats.max_depth = stats.max_depth.max(cursor.depth);
        let threshold = self.config.threshold;
        if row.iter().all(|cell| cell.m < threshold) {
            return;
        }
        // Locate the occurrences once per node (into the pooled buffer);
        // every reported cell of this node shares them.
        self.index.occurrences_into(cursor, occ_buf);
        for cell in row {
            if cell.m >= threshold {
                stats.threshold_entries += 1;
                for &start in occ_buf.iter() {
                    let end_text = start + cursor.depth - 1;
                    hits.record(end_text, cell.j as usize - 1, cell.m);
                }
            }
        }
    }
}

/// Compute the sparse row for `X·c` from the sparse row for `X`, writing
/// into the pooled `out` buffer (cleared first).
///
/// `prev` holds only the cells whose scores survived the positivity pruning;
/// every other cell of the previous row is exactly `−∞` for the purposes of
/// the recurrence (Section 3.1.2, case (i)).
// lint: no-alloc — pooled-row hot path (tests/alloc_steady_state.rs)
fn advance_row_into(
    prev: &[Cell],
    text_char: u8,
    query: &[u8],
    scheme: &ScoringScheme,
    stats: &mut BwtswStats,
    out: &mut Vec<Cell>,
) {
    let m = query.len() as u32;
    let open = scheme.gap_open_extend();
    let ss = scheme.ss;

    // Candidate columns: vertical (same j) and diagonal (j + 1) successors of
    // every surviving cell.  Both streams are sorted, so a merge keeps the
    // whole pass linear.
    out.clear();
    let mut vert_idx = 0usize; // candidates prev[vert_idx].j
    let mut diag_idx = 0usize; // candidates prev[diag_idx].j + 1
    let mut lookup_idx = 0usize; // pointer for prev-row lookups

    // State of the horizontal (Gb) chain along the current row.
    let mut last_j: u32 = 0;
    let mut last_m: i64 = NEG_INF;
    let mut last_gb: i64 = NEG_INF;
    let mut have_last = false;
    let mut forced: Option<u32> = None;

    loop {
        // Choose the next column to evaluate.
        let vert = prev.get(vert_idx).map(|c| c.j);
        let diag = prev.get(diag_idx).map(|c| c.j + 1);
        let mut j = u32::MAX;
        if let Some(f) = forced {
            j = j.min(f);
        }
        if let Some(v) = vert {
            j = j.min(v);
        }
        if let Some(d) = diag {
            j = j.min(d);
        }
        if j == u32::MAX {
            break;
        }
        if forced == Some(j) {
            forced = None;
        }
        if vert == Some(j) {
            vert_idx += 1;
        }
        if diag == Some(j) {
            diag_idx += 1;
        }
        if j == 0 || j > m {
            continue;
        }

        // Previous-row lookups at columns j-1 (diagonal) and j (vertical).
        while lookup_idx < prev.len() && prev[lookup_idx].j + 1 < j {
            lookup_idx += 1;
        }
        let mut prev_m_diag = NEG_INF;
        let mut prev_m_vert = NEG_INF;
        let mut prev_ga_vert = NEG_INF;
        let mut k = lookup_idx;
        if k < prev.len() && prev[k].j + 1 == j {
            prev_m_diag = prev[k].m;
            k += 1;
        }
        if k < prev.len() && prev[k].j == j {
            prev_m_vert = prev[k].m;
            prev_ga_vert = prev[k].ga;
        }

        // Affine recurrences (Section 2.2) with non-positive scores treated
        // as −∞.
        let ga = (prev_ga_vert + ss).max(prev_m_vert + open);
        let (gb_prev, m_prev) = if have_last && last_j + 1 == j {
            (last_gb, last_m)
        } else {
            (NEG_INF, NEG_INF)
        };
        let gb = (gb_prev + ss).max(m_prev + open);
        let diag_score = prev_m_diag + scheme.delta(text_char, query[j as usize - 1]);
        let score = diag_score.max(ga).max(gb);
        stats.calculated_entries += 1;

        last_j = j;
        last_gb = if gb > 0 { gb } else { NEG_INF };
        last_m = if score > 0 { score } else { NEG_INF };
        have_last = true;

        if score > 0 {
            out.push(Cell {
                j,
                m: score,
                ga: if ga > 0 { ga } else { NEG_INF },
            });
            // The horizontal chain may carry a positive score into column
            // j + 1 even without previous-row support there.
            if j < m && (last_gb + ss).max(score + open) > 0 {
                forced = Some(j + 1);
            }
        } else if last_gb > 0 && j < m {
            forced = Some(j + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alae_align_baseline::local_alignment_hits;
    use alae_bioseq::hits::diff_hits;
    use alae_bioseq::{Alphabet, Sequence};

    fn dna_db(ascii: &[u8]) -> SequenceDatabase {
        let seq = Sequence::from_ascii(Alphabet::Dna, ascii).unwrap();
        SequenceDatabase::from_sequences(Alphabet::Dna, [seq])
    }

    fn encode(ascii: &[u8]) -> Vec<u8> {
        Alphabet::Dna.encode(ascii).unwrap()
    }

    fn assert_matches_oracle(
        text_ascii: &[u8],
        query_ascii: &[u8],
        scheme: ScoringScheme,
        threshold: i64,
    ) {
        let db = dna_db(text_ascii);
        let query = encode(query_ascii);
        let aligner = BwtswAligner::build(&db, BwtswConfig::new(scheme, threshold));
        let result = aligner.align(&query);
        let (oracle, _) = local_alignment_hits(db.text(), &query, &scheme, threshold);
        assert!(
            diff_hits(&result.hits, &oracle).is_none(),
            "hits differ from oracle for text {:?} / query {:?}: {:?}",
            String::from_utf8_lossy(text_ascii),
            String::from_utf8_lossy(query_ascii),
            diff_hits(&result.hits, &oracle)
        );
    }

    #[test]
    fn exact_match_found() {
        assert_matches_oracle(b"TTTTGCTAGCTTTT", b"GCTAGC", ScoringScheme::DEFAULT, 5);
    }

    #[test]
    fn repeated_text_occurrences_all_reported() {
        assert_matches_oracle(
            b"GCTAGCAAGCTAGCTTGCTAGC",
            b"GCTAGC",
            ScoringScheme::DEFAULT,
            5,
        );
    }

    #[test]
    fn substitution_and_gap_handling_matches_oracle() {
        assert_matches_oracle(
            b"ACGTACGTCCACGTACGTAAGGCCTTACGTAGGTACGT",
            b"ACGTACGTACGTACGT",
            ScoringScheme::DEFAULT,
            6,
        );
    }

    #[test]
    fn low_threshold_matches_oracle() {
        assert_matches_oracle(
            b"GATTACAGATTACAGGATCCGATTACA",
            b"GATTACA",
            ScoringScheme::DEFAULT,
            4,
        );
    }

    #[test]
    fn alternative_schemes_match_oracle() {
        for scheme in ScoringScheme::FIGURE9_SCHEMES {
            assert_matches_oracle(
                b"ACCGTTAGGCATCGATTGCAACCGGTTACGATCAGT",
                b"TTAGGCATCGAT",
                scheme,
                5,
            );
        }
    }

    #[test]
    fn multi_record_database_respects_boundaries() {
        let a = Sequence::from_ascii(Alphabet::Dna, b"AAGCTA").unwrap();
        let b = Sequence::from_ascii(Alphabet::Dna, b"GCTTAA").unwrap();
        let db = SequenceDatabase::from_sequences(Alphabet::Dna, [a, b]);
        let query = encode(b"GCTAGCTT");
        let aligner = BwtswAligner::build(&db, BwtswConfig::new(ScoringScheme::DEFAULT, 4));
        let result = aligner.align(&query);
        let (oracle, _) = local_alignment_hits(db.text(), &query, &ScoringScheme::DEFAULT, 4);
        assert!(diff_hits(&result.hits, &oracle).is_none());
    }

    #[test]
    fn empty_query_is_empty_result() {
        let db = dna_db(b"ACGTACGT");
        let aligner = BwtswAligner::build(&db, BwtswConfig::new(ScoringScheme::DEFAULT, 3));
        let result = aligner.align(&[]);
        assert!(result.hits.is_empty());
        assert_eq!(result.stats.calculated_entries, 0);
    }

    #[test]
    fn counters_are_populated() {
        let db = dna_db(b"GCTAGCTAGCATCGATCGATGCTAGCAT");
        let query = encode(b"GCTAGCAT");
        let aligner = BwtswAligner::build(&db, BwtswConfig::new(ScoringScheme::DEFAULT, 4));
        let result = aligner.align(&query);
        assert!(result.stats.calculated_entries > 0);
        assert!(result.stats.visited_nodes > 0);
        assert!(result.stats.max_depth >= 4);
        assert!(!result.hits.is_empty());
        assert_eq!(
            result.stats.computation_cost(),
            3 * result.stats.calculated_entries
        );
    }

    #[test]
    fn prunes_far_fewer_entries_than_full_matrix() {
        // The pruned trie DP must calculate fewer entries than the full n·m
        // Smith-Waterman matrix on a random-ish text.
        let text = b"ACGGTCAGTTCAGGATCCAGTTGACCATTGCAGTCAGGTTCAACGGTACTGACGGTCAGTT";
        let query = b"TTGACCATTGCA";
        let db = dna_db(text);
        let query_codes = encode(query);
        let aligner = BwtswAligner::build(&db, BwtswConfig::new(ScoringScheme::DEFAULT, 6));
        let result = aligner.align(&query_codes);
        let full = (text.len() * query.len()) as u64;
        assert!(
            result.stats.calculated_entries < full,
            "{} !< {}",
            result.stats.calculated_entries,
            full
        );
    }

    #[test]
    fn random_texts_match_oracle() {
        let mut state = 0xabcdef12u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..12 {
            let n = 120 + (next() % 80) as usize;
            let text: Vec<u8> = (0..n).map(|_| (next() % 4) as u8 + 1).collect();
            // Queries are mutated substrings of the text so hits exist.
            let qlen = 14 + (next() % 10) as usize;
            let start = (next() as usize) % (n - qlen);
            let mut query: Vec<u8> = text[start..start + qlen].to_vec();
            // Introduce a couple of substitutions.
            for _ in 0..2 {
                let pos = (next() as usize) % qlen;
                query[pos] = (next() % 4) as u8 + 1;
            }
            let scheme = ScoringScheme::DEFAULT;
            let threshold = 5;
            let seq = Sequence::from_codes(Alphabet::Dna, text.clone());
            let db = SequenceDatabase::from_sequences(Alphabet::Dna, [seq]);
            let aligner = BwtswAligner::build(&db, BwtswConfig::new(scheme, threshold));
            let result = aligner.align(&query);
            let (oracle, _) = local_alignment_hits(&text, &query, &scheme, threshold);
            assert!(
                diff_hits(&result.hits, &oracle).is_none(),
                "trial {trial}: {:?}",
                diff_hits(&result.hits, &oracle)
            );
        }
    }
}
