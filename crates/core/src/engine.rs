//! The ALAE alignment engine.
//!
//! One [`AlaeAligner::align`] call runs the full pipeline of the paper:
//!
//! 1. build the q-gram inverted lists of the query (Section 3.1.3),
//! 2. for every distinct query q-gram that also occurs in the text, start a
//!    fork group at each of its (undominated) query positions — the q-prefix
//!    filter of Theorem 3 plus the global domination filter of Lemma 1,
//! 3. walk the suffix-trie subtree below that q-prefix (via the compressed
//!    suffix array of Section 5), advancing each fork group one text
//!    character at a time with the EMR/NGR/gap-region dynamic programming of
//!    Section 3.1.3 and the length/score filters of Theorems 1–2,
//! 4. share computed cells across forks whose remaining query substrings are
//!    identical (the score-reuse technique of Section 4),
//! 5. record every cell reaching the threshold into the per-end-pair maxima
//!    of the BASIC algorithm (Algorithm 1).
//!
//! # Hot path: the fork arena
//!
//! The DFS is allocation-free in steady state: all fork-group state lives in
//! a per-thread [`ForkArena`] whose slot slab, sparse-cell buffers and
//! frame id-lists are recycled across nodes, queries and (per thread)
//! batches.  [`AlaeAligner::align`] borrows the calling thread's arena;
//! [`AlaeAligner::align_with_arena`] takes an explicit one (tests, embedders
//! that manage their own scratch).  The historical clone-per-child
//! implementation is retained as [`AlaeAligner::align_reference`] — the
//! bookkeeping oracle the property tests compare the arena engine against.

use crate::arena::{ForkArena, ForkSlot, Frame};
use crate::config::{AlaeConfig, FilterToggles};
use crate::counters::AlaeStats;
use crate::domination::DominationIndex;
use crate::filters::LengthBounds;
use crate::fork::{
    advance_fork, advance_fork_into, open_gap_region_into, AdvanceContext, Consulted, ForkGroup,
    ForkPhase, PhaseRef,
};
use crate::qgram::QGramIndex;
use alae_bioseq::guard::{GuardProbe, SearchGuard, Termination};
use alae_bioseq::hits::{AlignmentHit, HitMap};
use alae_bioseq::{Alphabet, SequenceDatabase};
use alae_suffix::{IndexOptions, SuffixTrieCursor, TextIndex};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// The calling thread's reusable DFS scratch: one arena serves every
    /// `align` call made on this thread (including all queries a
    /// `search_batch` worker processes), so the hot path allocates nothing
    /// once warm.
    static THREAD_ARENA: RefCell<ForkArena> = RefCell::new(ForkArena::new());
}

/// The outcome of one ALAE alignment run.
#[derive(Debug, Clone)]
pub struct AlaeResult {
    /// All end pairs whose best alignment score reached the threshold.
    /// When `termination` is not [`Termination::Complete`] these are the
    /// (still canonically ordered) hits found before the run was cut
    /// short.
    pub hits: Vec<AlignmentHit>,
    /// Work counters.
    pub stats: AlaeStats,
    /// The threshold `H` that was actually applied (resolved from the
    /// E-value when the configuration uses one).
    pub threshold: i64,
    /// Why the run ended (guardrails; [`Termination::Complete`] for the
    /// unguarded entry points).
    pub termination: Termination,
}

/// The ALAE aligner: a compressed-suffix-array text index, the offline
/// domination index, and a configuration.
#[derive(Debug, Clone)]
pub struct AlaeAligner {
    index: Arc<TextIndex>,
    domination: Option<DominationIndex>,
    alphabet: Alphabet,
    config: AlaeConfig,
}

impl AlaeAligner {
    /// Build the aligner (indexes included) from a sequence database.
    ///
    /// The database's concatenated text is shared with the new index (both
    /// hold the same `Arc`), not copied — constructing an aligner over a
    /// 30 MB database does not duplicate the text.
    pub fn build(database: &SequenceDatabase, config: AlaeConfig) -> Self {
        let index = Arc::new(
            IndexOptions::new()
                .build_text_index(database.shared_text(), database.alphabet().code_count()),
        );
        Self::with_index(index, database.alphabet(), config)
    }

    /// Build the aligner around an existing (possibly shared) text index.
    pub fn with_index(index: Arc<TextIndex>, alphabet: Alphabet, config: AlaeConfig) -> Self {
        let domination = if config.filters.domination_filter {
            Some(DominationIndex::build(
                index.text(),
                config.scheme.q(),
                alphabet.code_count(),
            ))
        } else {
            None
        };
        Self {
            index,
            domination,
            alphabet,
            config,
        }
    }

    /// The underlying text index.
    pub fn index(&self) -> &Arc<TextIndex> {
        &self.index
    }

    /// The configuration.
    pub fn config(&self) -> &AlaeConfig {
        &self.config
    }

    /// Size of the compressed-suffix-array index in bytes (the "BWT index"
    /// series of Figure 11).
    pub fn bwt_index_size_bytes(&self) -> usize {
        self.index.fm_size_in_bytes()
    }

    /// Size of the offline domination index in bytes (the "dominate index"
    /// series of Figure 11); zero when the filter is disabled.
    pub fn domination_index_size_bytes(&self) -> usize {
        self.domination
            .as_ref()
            .map_or(0, DominationIndex::size_in_bytes)
    }

    /// Align a query given as a code slice and report every end pair whose
    /// best local-alignment score reaches the threshold.
    ///
    /// Uses (and warms) the calling thread's [`ForkArena`], so repeated
    /// calls on one thread perform no per-node heap allocation.
    pub fn align(&self, query: &[u8]) -> AlaeResult {
        self.align_guarded(query, &SearchGuard::none())
    }

    /// Align under request guardrails: the fork DFS polls `guard` once per
    /// trie-node expansion (amortized; see [`SearchGuard`]) and unwinds
    /// cleanly when a deadline, budget or cancellation trips, returning
    /// the hits found so far with the matching [`Termination`].
    pub fn align_guarded(&self, query: &[u8], guard: &SearchGuard) -> AlaeResult {
        THREAD_ARENA.with(|cell| match cell.try_borrow_mut() {
            Ok(mut arena) => self.align_with_arena_guarded(query, &mut arena, guard),
            // Re-entrant alignment on the same thread (not reachable through
            // the facade); fall back to a throwaway arena.
            Err(_) => self.align_with_arena_guarded(query, &mut ForkArena::new(), guard),
        })
    }

    /// Align with an explicit scratch arena.
    ///
    /// The arena is reset (capacity retained) at the start of the call;
    /// once it has been warmed by a comparable query, the whole DFS runs
    /// without heap allocation.  An arena must not be shared between
    /// threads; each `search_batch` worker owns one (via the thread-local
    /// used by [`AlaeAligner::align`]).
    pub fn align_with_arena(&self, query: &[u8], arena: &mut ForkArena) -> AlaeResult {
        self.align_with_arena_guarded(query, arena, &SearchGuard::none())
    }

    /// [`AlaeAligner::align_with_arena`] under request guardrails.
    pub fn align_with_arena_guarded(
        &self,
        query: &[u8],
        arena: &mut ForkArena,
        guard: &SearchGuard,
    ) -> AlaeResult {
        let mut stats = AlaeStats::default();
        // Thread-local scan totals: one align call runs entirely on the
        // calling thread, so the snapshot delta counts exactly this run's
        // occurrence-table work even while other threads share the index.
        let scans_at_start = alae_suffix::thread_scan_snapshot();
        let mut hits = HitMap::new();
        let scheme = self.config.scheme;
        let m = query.len();
        let n = self.index.len();
        let threshold = self.config.resolve_threshold(self.alphabet, m, n);
        if m == 0 || n == 0 {
            return AlaeResult {
                hits: Vec::new(),
                stats,
                threshold,
                termination: Termination::Complete,
            };
        }
        let mut probe = guard.probe(m);

        let q = scheme.q();
        let filters = self.config.filters;
        let bounds = LengthBounds::new(&scheme, m, threshold);
        let fallback_cap = LengthBounds::fallback_cap(&scheme, m);
        let mut max_depth = if filters.length_filter {
            bounds.max_len
        } else {
            fallback_cap
        };
        if let Some(cap) = self.config.max_depth {
            max_depth = max_depth.min(cap);
        }

        arena.reset();
        // Take the q-gram index out of the arena for the duration of the
        // gram loop (its inverted lists are borrowed while the rest of the
        // arena is mutated), and put it back so its buffers stay warm.
        let mut qgram = std::mem::take(&mut arena.qgram);
        qgram.rebuild(query, q, self.alphabet.code_count());
        let ctx = AdvanceContext {
            query,
            scheme: &scheme,
            threshold,
            max_depth,
            score_filter: filters.score_filter,
        };

        for (gram_key, positions) in qgram.iter() {
            if probe.is_tripped() {
                break;
            }
            self.process_gram(
                gram_key, positions, &qgram, q, threshold, max_depth, &filters, &ctx, arena,
                &mut hits, &mut stats, &mut probe,
            );
        }
        arena.qgram = qgram;

        stats.fork_slots_reused = arena.slots_reused();
        stats.arena_bytes = arena.bytes_in_use() as u64;
        let scan_delta = alae_suffix::thread_scan_snapshot().since(&scans_at_start);
        stats.occ_block_scans = scan_delta.block_scans;
        stats.occ_bytes_scanned = scan_delta.bytes_scanned;

        AlaeResult {
            hits: hits.into_hits(threshold),
            stats,
            threshold,
            termination: probe.termination(),
        }
    }

    /// Handle one distinct query q-gram on the arena hot path: build its
    /// fork-group slots and walk the suffix-trie subtree below the
    /// q-prefix.
    #[allow(clippy::too_many_arguments)]
    fn process_gram(
        &self,
        gram_key: u64,
        positions: &[u32],
        qgram: &QGramIndex,
        q: usize,
        threshold: i64,
        max_depth: usize,
        filters: &FilterToggles,
        ctx: &AdvanceContext<'_>,
        arena: &mut ForkArena,
        hits: &mut HitMap,
        stats: &mut AlaeStats,
        probe: &mut GuardProbe,
    ) {
        let query = ctx.query;
        let m = query.len();
        // The q-prefix filter (Theorem 3): the q-gram must occur in the text.
        let first_pos = positions[0] as usize;
        let window = &query[first_pos..first_pos + q];
        let Some(root_cursor) = self.index.cursor_for(window) else {
            stats.grams_without_text_match += 1;
            return;
        };
        // One poll per gram root (the per-node polls cover the descent).
        if probe.poll(|| arena.bytes_in_use() as u64) {
            return;
        }

        // Global filtering via q-prefix domination (Lemma 1): skip fork
        // starts whose q-gram is dominated by the q-gram one column to the
        // left in the query.  The left-neighbour key comes from the rolling
        // update (`key_left_of`), not from re-packing the window.
        arena.active.clear();
        for &col in positions {
            let keep = if !filters.domination_filter || col == 0 {
                true
            } else if let Some(dom) = &self.domination {
                match qgram.key_left_of(gram_key, query[col as usize - 1]) {
                    Some(prev_key) => !dom.dominates(prev_key, gram_key),
                    None => true,
                }
            } else {
                true
            };
            if keep {
                arena.active.push(col);
            }
        }
        stats.forks_dominated += (positions.len() - arena.active.len()) as u64;
        if arena.active.is_empty() {
            return;
        }
        stats.forks_started += arena.active.len() as u64;
        // EMR entries (cost 1): q per started fork, assigned without
        // computation.
        stats.emr_entries += (q as u64) * arena.active.len() as u64;
        probe.add_work((q as u64) * arena.active.len() as u64);

        // Initial fork groups at depth q (the whole EMR has score q·sa).
        // When q·sa already exceeds |sg + ss| the EMR's last entry is itself
        // the first gap open entry, so the fork starts directly in the gap
        // region (otherwise gaps opened right after the EMR would be lost).
        let initial_score = q as i64 * ctx.scheme.sa;
        let open_gap = initial_score > ctx.scheme.gap_open_extend().abs();
        if open_gap {
            // The extension entries hold pure gap scores, so they are
            // identical for every member of the group: compute them once
            // (into the advance scratch) and copy into each initial slot.
            let representative = arena.active[0];
            let boundary_entries = open_gap_region_into(
                (q - 1) as u32,
                initial_score,
                representative,
                q,
                ctx,
                &mut arena.advance.cells,
            );
            stats.ngr_entries += boundary_entries;
            probe.add_work(boundary_entries);
        }
        let mut ids = arena.acquire_ids();
        let group_count = if filters.reuse { 1 } else { arena.active.len() };
        for g in 0..group_count {
            let sid = arena.acquire_slot();
            let slot = &mut arena.slots[sid as usize];
            if filters.reuse {
                slot.start_cols.extend_from_slice(&arena.active);
            } else {
                slot.start_cols.push(arena.active[g]);
            }
            if open_gap {
                slot.is_gap = true;
                slot.fgoe_depth = q;
                slot.cells.extend_from_slice(&arena.advance.cells);
            } else {
                slot.is_gap = false;
                slot.diag_score = initial_score;
            }
            ids.push(sid);
        }

        self.record_hits_arena(
            root_cursor,
            &ids,
            &arena.slots,
            &mut arena.occ_buf,
            m,
            threshold,
            hits,
            stats,
        );
        stats.visited_nodes += 1;
        stats.max_depth = stats.max_depth.max(root_cursor.depth);

        if root_cursor.depth >= max_depth {
            arena.release_slots_of(&ids);
            arena.release_ids(ids);
            return;
        }

        // Depth-first descent below the q-prefix.  Frames reference their
        // fork groups by slot id; every buffer involved is arena-pooled, so
        // the walk performs no heap allocation once the arena is warm.
        arena.frames.push(Frame {
            cursor: root_cursor,
            group_ids: ids,
        });
        while let Some(frame) = arena.frames.pop() {
            // One poll per node expansion: on a trip, recycle this frame's
            // groups and every frame still on the stack, then unwind — the
            // arena is left reusable and the hits recorded so far stand.
            if probe.poll(|| arena.bytes_in_use() as u64) {
                arena.release_slots_of(&frame.group_ids);
                arena.release_ids(frame.group_ids);
                while let Some(rest) = arena.frames.pop() {
                    arena.release_slots_of(&rest.group_ids);
                    arena.release_ids(rest.group_ids);
                }
                return;
            }
            self.index.children_into(frame.cursor, &mut arena.child_buf);
            for k in 0..arena.child_buf.len() {
                let (c, child) = arena.child_buf.as_slice()[k];
                let mut child_ids = arena.acquire_ids();
                for &pgid in &frame.group_ids {
                    self.advance_group(
                        arena,
                        pgid,
                        c,
                        frame.cursor.depth,
                        filters.reuse,
                        ctx,
                        stats,
                        probe,
                        &mut child_ids,
                    );
                }
                if child_ids.is_empty() {
                    arena.release_ids(child_ids);
                    continue;
                }
                stats.visited_nodes += 1;
                stats.max_depth = stats.max_depth.max(child.depth);
                self.record_hits_arena(
                    child,
                    &child_ids,
                    &arena.slots,
                    &mut arena.occ_buf,
                    m,
                    threshold,
                    hits,
                    stats,
                );
                if child.depth < max_depth {
                    arena.frames.push(Frame {
                        cursor: child,
                        group_ids: child_ids,
                    });
                } else {
                    arena.release_slots_of(&child_ids);
                    arena.release_ids(child_ids);
                }
            }
            // The parent's groups are no longer needed: recycle the slots
            // and the id list.
            arena.release_slots_of(&frame.group_ids);
            arena.release_ids(frame.group_ids);
        }
    }

    /// Advance one parent fork group by one text character on the arena
    /// path, splitting off members that stop agreeing on the consulted
    /// query characters (Section 4, Lemma 2); surviving (sub)groups are
    /// written into freshly acquired slots whose ids are appended to
    /// `out_ids`.
    #[allow(clippy::too_many_arguments)]
    fn advance_group(
        &self,
        arena: &mut ForkArena,
        pgid: u32,
        text_char: u8,
        depth: usize,
        reuse: bool,
        ctx: &AdvanceContext<'_>,
        stats: &mut AlaeStats,
        probe: &mut GuardProbe,
        out_ids: &mut Vec<u32>,
    ) {
        let m = ctx.query.len();
        // Fast path for the dominant case: a single-member group needs no
        // pending/rest splitting, no Lemma 2 agreement checks and no
        // consulted-pair recording.
        if arena.slots[pgid as usize].start_cols.len() == 1 {
            let representative = arena.slots[pgid as usize].start_cols[0];
            {
                let parent = &arena.slots[pgid as usize];
                let phase = if parent.is_gap {
                    PhaseRef::Gap {
                        cells: &parent.cells,
                        fgoe_depth: parent.fgoe_depth,
                    }
                } else {
                    PhaseRef::Diagonal {
                        score: parent.diag_score,
                    }
                };
                advance_fork_into(
                    phase,
                    representative,
                    text_char,
                    depth,
                    ctx,
                    Consulted::Skip,
                    &mut arena.advance,
                );
            }
            stats.ngr_entries += arena.advance.ngr_entries;
            stats.gap_entries += arena.advance.gap_entries;
            probe.add_work(arena.advance.ngr_entries + arena.advance.gap_entries);
            if arena.advance.alive {
                let sid = arena.acquire_slot();
                let slot = &mut arena.slots[sid as usize];
                slot.is_gap = arena.advance.is_gap;
                slot.diag_score = arena.advance.diag_score;
                slot.fgoe_depth = arena.advance.fgoe_depth;
                if arena.advance.is_gap {
                    // O(1) hand-over of the computed sparse cells; the
                    // slot's previous buffer becomes the next advance's
                    // scratch.  Diagonal commits skip the swap so the warm
                    // scratch buffer is never parked in a cell-less slot.
                    std::mem::swap(&mut slot.cells, &mut arena.advance.cells);
                }
                slot.start_cols.push(representative);
                out_ids.push(sid);
            }
            return;
        }
        arena.pending.clear();
        arena
            .pending
            .extend_from_slice(&arena.slots[pgid as usize].start_cols);
        while !arena.pending.is_empty() {
            let representative = arena.pending[0];
            {
                let parent = &arena.slots[pgid as usize];
                let phase = if parent.is_gap {
                    PhaseRef::Gap {
                        cells: &parent.cells,
                        fgoe_depth: parent.fgoe_depth,
                    }
                } else {
                    PhaseRef::Diagonal {
                        score: parent.diag_score,
                    }
                };
                advance_fork_into(
                    phase,
                    representative,
                    text_char,
                    depth,
                    ctx,
                    if arena.pending.len() > 1 {
                        Consulted::Record
                    } else {
                        Consulted::Skip
                    },
                    &mut arena.advance,
                );
            }
            stats.ngr_entries += arena.advance.ngr_entries;
            stats.gap_entries += arena.advance.gap_entries;
            let computed = arena.advance.ngr_entries + arena.advance.gap_entries;
            probe.add_work(computed);

            // Members whose query agrees at every consulted offset share the
            // representative's outcome (Section 4, Lemma 2).
            arena.rest.clear();
            if arena.advance.alive {
                let sid = arena.acquire_slot();
                let slot = &mut arena.slots[sid as usize];
                slot.is_gap = arena.advance.is_gap;
                slot.diag_score = arena.advance.diag_score;
                slot.fgoe_depth = arena.advance.fgoe_depth;
                if arena.advance.is_gap {
                    // O(1) hand-over of the computed sparse cells (see the
                    // single-member path for the swap discipline).
                    std::mem::swap(&mut slot.cells, &mut arena.advance.cells);
                }
                slot.start_cols.push(representative);
                for idx in 1..arena.pending.len() {
                    let start_col = arena.pending[idx];
                    let agrees = reuse
                        && arena.advance.consulted.iter().all(|&(offset, ch)| {
                            let col = start_col as usize + offset as usize;
                            col < m && ctx.query[col] == ch
                        });
                    if agrees {
                        stats.reused_entries += computed;
                        slot.start_cols.push(start_col);
                    } else {
                        arena.rest.push(start_col);
                    }
                }
                out_ids.push(sid);
            } else {
                // The representative died; agreeing members share the death
                // (and the reused-entry accounting), the rest try again.
                for idx in 1..arena.pending.len() {
                    let start_col = arena.pending[idx];
                    let agrees = reuse
                        && arena.advance.consulted.iter().all(|&(offset, ch)| {
                            let col = start_col as usize + offset as usize;
                            col < m && ctx.query[col] == ch
                        });
                    if agrees {
                        stats.reused_entries += computed;
                    } else {
                        arena.rest.push(start_col);
                    }
                }
            }
            std::mem::swap(&mut arena.pending, &mut arena.rest);
        }
    }

    /// Record every cell at or above the threshold for every member fork and
    /// every text occurrence of the current trie node (arena path; the
    /// occurrence buffer is pooled).
    #[allow(clippy::too_many_arguments)]
    fn record_hits_arena(
        &self,
        cursor: SuffixTrieCursor,
        ids: &[u32],
        slots: &[ForkSlot],
        occ_buf: &mut Vec<usize>,
        query_len: usize,
        threshold: i64,
        hits: &mut HitMap,
        stats: &mut AlaeStats,
    ) {
        // Cheap pre-check before paying for occurrence location.
        let any_hit = ids.iter().any(|&gid| {
            let slot = &slots[gid as usize];
            if slot.is_gap {
                slot.cells.iter().any(|cell| cell.m >= threshold)
            } else {
                slot.diag_score >= threshold
            }
        });
        if !any_hit {
            return;
        }
        self.index.occurrences_into(cursor, occ_buf);
        let depth = cursor.depth;
        for &gid in ids {
            let slot = &slots[gid as usize];
            if !slot.is_gap {
                if slot.diag_score < threshold {
                    continue;
                }
                let offset = depth - 1;
                for &start_col in &slot.start_cols {
                    let col = start_col as usize + offset;
                    if col >= query_len {
                        continue;
                    }
                    stats.threshold_entries += 1;
                    for &t in occ_buf.iter() {
                        hits.record(t + depth - 1, col, slot.diag_score);
                    }
                }
            } else {
                for cell in &slot.cells {
                    if cell.m < threshold {
                        continue;
                    }
                    for &start_col in &slot.start_cols {
                        let col = start_col as usize + cell.offset as usize;
                        if col >= query_len {
                            continue;
                        }
                        stats.threshold_entries += 1;
                        for &t in occ_buf.iter() {
                            hits.record(t + depth - 1, col, cell.m);
                        }
                    }
                }
            }
        }
    }

    /// The retained clone-per-child reference implementation of
    /// [`AlaeAligner::align`]: identical filtering, DP and counting, but
    /// with owned `Vec` bookkeeping at every step.
    ///
    /// This is **not** the hot path — it exists as the oracle the property
    /// tests compare the arena engine against (hit-identical,
    /// scan-counter-identical, work-counter-identical).
    pub fn align_reference(&self, query: &[u8]) -> AlaeResult {
        let mut stats = AlaeStats::default();
        let scans_at_start = alae_suffix::thread_scan_snapshot();
        let mut hits = HitMap::new();
        let scheme = self.config.scheme;
        let m = query.len();
        let n = self.index.len();
        let threshold = self.config.resolve_threshold(self.alphabet, m, n);
        if m == 0 || n == 0 {
            return AlaeResult {
                hits: Vec::new(),
                stats,
                threshold,
                termination: Termination::Complete,
            };
        }

        let q = scheme.q();
        let filters = self.config.filters;
        let bounds = LengthBounds::new(&scheme, m, threshold);
        let fallback_cap = LengthBounds::fallback_cap(&scheme, m);
        let mut max_depth = if filters.length_filter {
            bounds.max_len
        } else {
            fallback_cap
        };
        if let Some(cap) = self.config.max_depth {
            max_depth = max_depth.min(cap);
        }

        let qgram_index = QGramIndex::build(query, q, self.alphabet.code_count());
        let ctx = AdvanceContext {
            query,
            scheme: &scheme,
            threshold,
            max_depth,
            score_filter: filters.score_filter,
        };

        for (gram_key, positions) in qgram_index.iter() {
            self.process_gram_reference(
                gram_key, positions, query, q, threshold, max_depth, &filters, &ctx, &mut hits,
                &mut stats,
            );
        }

        let scan_delta = alae_suffix::thread_scan_snapshot().since(&scans_at_start);
        stats.occ_block_scans = scan_delta.block_scans;
        stats.occ_bytes_scanned = scan_delta.bytes_scanned;

        AlaeResult {
            hits: hits.into_hits(threshold),
            stats,
            threshold,
            termination: Termination::Complete,
        }
    }

    /// Reference-path gram handler (clone-based bookkeeping).
    #[allow(clippy::too_many_arguments)]
    fn process_gram_reference(
        &self,
        gram_key: u64,
        positions: &[u32],
        query: &[u8],
        q: usize,
        threshold: i64,
        max_depth: usize,
        filters: &FilterToggles,
        ctx: &AdvanceContext<'_>,
        hits: &mut HitMap,
        stats: &mut AlaeStats,
    ) {
        // The q-prefix filter (Theorem 3): the q-gram must occur in the text.
        let first_pos = positions[0] as usize;
        let window = &query[first_pos..first_pos + q];
        let Some(root_cursor) = self.index.cursor_for(window) else {
            stats.grams_without_text_match += 1;
            return;
        };

        // Global filtering via q-prefix domination (Lemma 1), re-packing the
        // left-neighbour window from scratch (the rolling-key equivalence is
        // what the arena path's property tests assert).
        let active: Vec<u32> = positions
            .iter()
            .copied()
            .filter(|&col| {
                if !filters.domination_filter || col == 0 {
                    return true;
                }
                let Some(dom) = &self.domination else {
                    return true;
                };
                let col = col as usize;
                let prev_window = &query[col - 1..col - 1 + q];
                match crate::qgram::pack_gram(prev_window, self.alphabet.code_count() as u64) {
                    Some(prev_key) => !dom.dominates(prev_key, gram_key),
                    None => true,
                }
            })
            .collect();
        stats.forks_dominated += (positions.len() - active.len()) as u64;
        if active.is_empty() {
            return;
        }
        stats.forks_started += active.len() as u64;
        stats.emr_entries += (q as u64) * active.len() as u64;

        let initial_score = q as i64 * ctx.scheme.sa;
        let initial_phase = if initial_score > ctx.scheme.gap_open_extend().abs() {
            let representative = active[0];
            let (cells, boundary_entries) =
                crate::fork::open_gap_region((q - 1) as u32, initial_score, representative, q, ctx);
            stats.ngr_entries += boundary_entries;
            ForkPhase::Gap {
                cells,
                fgoe_depth: q,
            }
        } else {
            ForkPhase::Diagonal {
                score: initial_score,
            }
        };
        let groups: Vec<ForkGroup> = if filters.reuse {
            vec![ForkGroup {
                start_cols: active,
                phase: initial_phase,
            }]
        } else {
            active
                .into_iter()
                .map(|col| ForkGroup {
                    start_cols: vec![col],
                    phase: initial_phase.clone(),
                })
                .collect()
        };

        self.record_hits(root_cursor, &groups, query, threshold, hits, stats);
        stats.visited_nodes += 1;
        stats.max_depth = stats.max_depth.max(root_cursor.depth);

        if root_cursor.depth >= max_depth {
            return;
        }

        let mut child_buf = alae_suffix::ChildBuf::new();
        let mut stack: Vec<(SuffixTrieCursor, Vec<ForkGroup>)> = vec![(root_cursor, groups)];
        while let Some((cursor, groups)) = stack.pop() {
            self.index.children_into(cursor, &mut child_buf);
            for &(c, child) in child_buf.as_slice() {
                let child_groups =
                    advance_groups(&groups, c, cursor.depth, filters.reuse, ctx, stats);
                if child_groups.is_empty() {
                    continue;
                }
                stats.visited_nodes += 1;
                stats.max_depth = stats.max_depth.max(child.depth);
                self.record_hits(child, &child_groups, query, threshold, hits, stats);
                if child.depth < max_depth {
                    stack.push((child, child_groups));
                }
            }
        }
    }

    /// Record every cell at or above the threshold for every member fork and
    /// every text occurrence of the current trie node (reference path).
    fn record_hits(
        &self,
        cursor: SuffixTrieCursor,
        groups: &[ForkGroup],
        query: &[u8],
        threshold: i64,
        hits: &mut HitMap,
        stats: &mut AlaeStats,
    ) {
        // Cheap pre-check before paying for occurrence location.
        let any_hit = groups.iter().any(|group| match &group.phase {
            ForkPhase::Diagonal { score } => *score >= threshold,
            ForkPhase::Gap { cells, .. } => cells.iter().any(|cell| cell.m >= threshold),
        });
        if !any_hit {
            return;
        }
        let occurrences = self.index.occurrences(cursor);
        let depth = cursor.depth;
        let m = query.len();
        for group in groups {
            match &group.phase {
                ForkPhase::Diagonal { score } => {
                    if *score < threshold {
                        continue;
                    }
                    let offset = depth - 1;
                    for &start_col in &group.start_cols {
                        let col = start_col as usize + offset;
                        if col >= m {
                            continue;
                        }
                        stats.threshold_entries += 1;
                        for &t in &occurrences {
                            hits.record(t + depth - 1, col, *score);
                        }
                    }
                }
                ForkPhase::Gap { cells, .. } => {
                    for cell in cells {
                        if cell.m < threshold {
                            continue;
                        }
                        for &start_col in &group.start_cols {
                            let col = start_col as usize + cell.offset as usize;
                            if col >= m {
                                continue;
                            }
                            stats.threshold_entries += 1;
                            for &t in &occurrences {
                                hits.record(t + depth - 1, col, cell.m);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Advance every fork group by one text character, splitting groups whose
/// members stop agreeing on the consulted query characters (reference
/// path).
fn advance_groups(
    groups: &[ForkGroup],
    text_char: u8,
    depth: usize,
    reuse: bool,
    ctx: &AdvanceContext<'_>,
    stats: &mut AlaeStats,
) -> Vec<ForkGroup> {
    let m = ctx.query.len();
    let mut result = Vec::with_capacity(groups.len());
    for group in groups {
        let mut pending: Vec<u32> = group.start_cols.clone();
        while !pending.is_empty() {
            let representative = pending[0];
            let outcome = advance_fork(&group.phase, representative, text_char, depth, ctx);
            stats.ngr_entries += outcome.ngr_entries;
            stats.gap_entries += outcome.gap_entries;
            let computed = outcome.ngr_entries + outcome.gap_entries;

            // Members whose query agrees at every consulted offset share the
            // representative's outcome (Section 4, Lemma 2).
            let mut shared = vec![representative];
            let mut rest = Vec::new();
            for &start_col in &pending[1..] {
                let agrees = reuse
                    && outcome.consulted.iter().all(|&(offset, ch)| {
                        let col = start_col as usize + offset as usize;
                        col < m && ctx.query[col] == ch
                    });
                if agrees {
                    stats.reused_entries += computed;
                    shared.push(start_col);
                } else {
                    rest.push(start_col);
                }
            }
            if let Some(phase) = outcome.phase {
                result.push(ForkGroup {
                    start_cols: shared,
                    phase,
                });
            }
            pending = rest;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use alae_align_baseline::local_alignment_hits;
    use alae_bioseq::hits::diff_hits;
    use alae_bioseq::{ScoringScheme, Sequence};

    fn dna_db(ascii: &[u8]) -> SequenceDatabase {
        let seq = Sequence::from_ascii(Alphabet::Dna, ascii).unwrap();
        SequenceDatabase::from_sequences(Alphabet::Dna, [seq])
    }

    fn encode(ascii: &[u8]) -> Vec<u8> {
        Alphabet::Dna.encode(ascii).unwrap()
    }

    /// Assert the arena engine agrees with the retained reference path on
    /// hits and on every bookkeeping counter the reference also tracks.
    fn assert_arena_matches_reference(aligner: &AlaeAligner, query: &[u8]) {
        let arena_run = aligner.align(query);
        let reference = aligner.align_reference(query);
        assert_eq!(arena_run.hits, reference.hits, "hit mismatch");
        assert_eq!(arena_run.threshold, reference.threshold);
        let mut a = arena_run.stats;
        // The reference path has no arena, so its arena counters are zero;
        // blank them before the exact comparison.
        a.fork_slots_reused = 0;
        a.arena_bytes = 0;
        assert_eq!(a, reference.stats, "counter mismatch");
    }

    fn assert_matches_oracle(
        text_ascii: &[u8],
        query_ascii: &[u8],
        scheme: ScoringScheme,
        threshold: i64,
        filters: FilterToggles,
    ) {
        let db = dna_db(text_ascii);
        let query = encode(query_ascii);
        let config = AlaeConfig::with_threshold(scheme, threshold).filters(filters);
        let aligner = AlaeAligner::build(&db, config);
        let result = aligner.align(&query);
        let (oracle, _) = local_alignment_hits(db.text(), &query, &scheme, threshold);
        assert!(
            diff_hits(&result.hits, &oracle).is_none(),
            "ALAE differs from oracle for text {:?} / query {:?} (filters {filters:?}): {:?}",
            String::from_utf8_lossy(text_ascii),
            String::from_utf8_lossy(query_ascii),
            diff_hits(&result.hits, &oracle)
        );
        assert_arena_matches_reference(&aligner, &query);
    }

    #[test]
    fn exact_match_found() {
        assert_matches_oracle(
            b"TTTTGCTAGCTTTT",
            b"GCTAGC",
            ScoringScheme::DEFAULT,
            5,
            FilterToggles::ALL,
        );
    }

    #[test]
    fn repeats_and_substitutions_match_oracle() {
        assert_matches_oracle(
            b"GCTAGCAAGCTAGCTTGCTAGCGGACGTACGTAAGG",
            b"GCTAGCACGTACGT",
            ScoringScheme::DEFAULT,
            6,
            FilterToggles::ALL,
        );
    }

    #[test]
    fn gapped_alignments_match_oracle() {
        // Text contains the query with a 2-character insertion.
        let half = b"ACGGTCAGTTCAGGATCC";
        let mut text = b"TTTT".to_vec();
        text.extend_from_slice(half);
        text.extend_from_slice(b"GG");
        text.extend_from_slice(half);
        text.extend_from_slice(b"TTTT");
        let mut query = half.to_vec();
        query.extend_from_slice(half);
        assert_matches_oracle(
            &text,
            &query,
            ScoringScheme::DEFAULT,
            12,
            FilterToggles::ALL,
        );
    }

    #[test]
    fn every_filter_combination_is_exact() {
        let text = b"ACGGTCAGTTCAGGATCCAGTTGACCATTGCAGTCAGGTTCAACGGTACTGACGGTCAGTTACC";
        let query = b"CAGGATCCAGTTGACCATTACAGTCAGG";
        for length_filter in [false, true] {
            for score_filter in [false, true] {
                for domination_filter in [false, true] {
                    for reuse in [false, true] {
                        let filters = FilterToggles {
                            length_filter,
                            score_filter,
                            domination_filter,
                            reuse,
                        };
                        assert_matches_oracle(text, query, ScoringScheme::DEFAULT, 8, filters);
                    }
                }
            }
        }
    }

    #[test]
    fn alternative_schemes_match_oracle() {
        for scheme in ScoringScheme::FIGURE9_SCHEMES {
            let threshold = (scheme.q() as i64 * scheme.sa).max(8);
            assert_matches_oracle(
                b"ACCGTTAGGCATCGATTGCAACCGGTTACGATCAGTACCGTTAGGC",
                b"TTAGGCATCGATCCGGTTACG",
                scheme,
                threshold,
                FilterToggles::ALL,
            );
        }
    }

    #[test]
    fn multi_record_databases_respect_boundaries() {
        let a = Sequence::from_ascii(Alphabet::Dna, b"AAGCTAGCAA").unwrap();
        let b = Sequence::from_ascii(Alphabet::Dna, b"GCTTAAGCTAGG").unwrap();
        let db = SequenceDatabase::from_sequences(Alphabet::Dna, [a, b]);
        let query = encode(b"GCTAGCTT");
        let config = AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 5);
        let aligner = AlaeAligner::build(&db, config);
        let result = aligner.align(&query);
        let (oracle, _) = local_alignment_hits(db.text(), &query, &ScoringScheme::DEFAULT, 5);
        assert!(diff_hits(&result.hits, &oracle).is_none());
        assert_arena_matches_reference(&aligner, &query);
    }

    #[test]
    fn counters_are_consistent() {
        let db = dna_db(b"GCTAGCTAGCATCGATCGATGCTAGCATGCTAGCAT");
        let query = encode(b"GCTAGCATCGATGG");
        let config = AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 6);
        let aligner = AlaeAligner::build(&db, config);
        let result = aligner.align(&query);
        assert!(!result.hits.is_empty());
        let stats = result.stats;
        assert!(stats.calculated_entries() > 0);
        assert_eq!(
            stats.accessed_entries(),
            stats.calculated_entries() + stats.reused_entries
        );
        assert!(stats.forks_started > 0);
        assert!(stats.visited_nodes > 0);
        assert!(stats.reusing_ratio() >= 0.0 && stats.reusing_ratio() <= 100.0);
        // The arena footprint is reported and the warm rerun recycles slots
        // instead of creating them.
        assert!(stats.arena_bytes > 0);
        let mut arena = ForkArena::new();
        aligner.align_with_arena(&query, &mut arena);
        let warmed = aligner.align_with_arena(&query, &mut arena);
        assert!(warmed.stats.fork_slots_reused > 0);
        assert_eq!(arena.slots_created(), 0, "warm arena must not grow");
    }

    #[test]
    fn empty_query_and_empty_text() {
        let db = dna_db(b"ACGT");
        let aligner =
            AlaeAligner::build(&db, AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 5));
        let result = aligner.align(&[]);
        assert!(result.hits.is_empty());
        let empty_db = SequenceDatabase::new(Alphabet::Dna);
        let aligner = AlaeAligner::build(
            &empty_db,
            AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 5),
        );
        assert!(aligner.align(&encode(b"ACGT")).hits.is_empty());
    }

    #[test]
    fn evalue_configuration_runs() {
        let db = dna_db(b"GCTAGCTAGCATCGATCGATGCTAGCATTTTGCATCAGTACGGTACCAGT");
        let query = encode(b"GCTAGCATCGATCGATGCTAGCAT");
        let config = AlaeConfig::with_evalue(ScoringScheme::DEFAULT, 10.0);
        let aligner = AlaeAligner::build(&db, config);
        let result = aligner.align(&query);
        assert!(result.threshold > 0);
        // The resolved threshold must agree with the oracle run at the same
        // threshold.
        let (oracle, _) =
            local_alignment_hits(db.text(), &query, &ScoringScheme::DEFAULT, result.threshold);
        assert!(diff_hits(&result.hits, &oracle).is_none());
    }

    #[test]
    fn index_sizes_are_reported() {
        let db = dna_db(b"ACGTACGTACGTACGTACGTACGTACGTACGT");
        let aligner =
            AlaeAligner::build(&db, AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 8));
        assert!(aligner.bwt_index_size_bytes() > 0);
        assert!(aligner.domination_index_size_bytes() > 0);
        let no_dom = AlaeAligner::build(
            &db,
            AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 8)
                .filters(FilterToggles::LOCAL_ONLY),
        );
        assert_eq!(no_dom.domination_index_size_bytes(), 0);
    }

    #[test]
    fn reuse_reduces_calculated_entries_on_repetitive_queries() {
        // A query made of the same block repeated many times: forks at the
        // repeated blocks share their computations.
        let block = b"GCTAGCATCGGA";
        let mut query_ascii = Vec::new();
        for _ in 0..6 {
            query_ascii.extend_from_slice(block);
        }
        let mut text_ascii = b"TTTT".to_vec();
        text_ascii.extend_from_slice(&query_ascii);
        text_ascii.extend_from_slice(b"AACCGGTT");
        let db = dna_db(&text_ascii);
        let query = encode(&query_ascii);

        let with_reuse =
            AlaeAligner::build(&db, AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 10))
                .align(&query);
        let without_reuse = AlaeAligner::build(
            &db,
            AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 10).filters(FilterToggles {
                reuse: false,
                ..FilterToggles::ALL
            }),
        )
        .align(&query);
        assert!(diff_hits(&with_reuse.hits, &without_reuse.hits).is_none());
        assert!(with_reuse.stats.reused_entries > 0);
        assert!(
            with_reuse.stats.calculated_entries() < without_reuse.stats.calculated_entries(),
            "reuse should save calculations: {} vs {}",
            with_reuse.stats.calculated_entries(),
            without_reuse.stats.calculated_entries()
        );
    }

    #[test]
    fn random_texts_match_oracle_and_bwtsw() {
        let mut state = 0x5a5a5a5au64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..10 {
            let n = 150 + (next() % 100) as usize;
            let text: Vec<u8> = (0..n).map(|_| (next() % 4) as u8 + 1).collect();
            let qlen = 20 + (next() % 15) as usize;
            let start = (next() as usize) % (n - qlen);
            let mut query: Vec<u8> = text[start..start + qlen].to_vec();
            for _ in 0..3 {
                let pos = (next() as usize) % qlen;
                query[pos] = (next() % 4) as u8 + 1;
            }
            let scheme = ScoringScheme::DEFAULT;
            let threshold = 6;
            let seq = Sequence::from_codes(Alphabet::Dna, text.clone());
            let db = SequenceDatabase::from_sequences(Alphabet::Dna, [seq]);
            let alae = AlaeAligner::build(&db, AlaeConfig::with_threshold(scheme, threshold));
            let result = alae.align(&query);
            let (oracle, _) = local_alignment_hits(&text, &query, &scheme, threshold);
            assert!(
                diff_hits(&result.hits, &oracle).is_none(),
                "trial {trial}: ALAE vs oracle: {:?}",
                diff_hits(&result.hits, &oracle)
            );
            assert_arena_matches_reference(&alae, &query);
            let bwtsw = alae_bwtsw::BwtswAligner::build(
                &db,
                alae_bwtsw::BwtswConfig::new(scheme, threshold),
            )
            .align(&query);
            assert!(
                diff_hits(&result.hits, &bwtsw.hits).is_none(),
                "trial {trial}: ALAE vs BWT-SW"
            );
            // ALAE must never calculate more entries than BWT-SW.
            assert!(
                result.stats.calculated_entries() <= bwtsw.stats.calculated_entries,
                "trial {trial}: {} > {}",
                result.stats.calculated_entries(),
                bwtsw.stats.calculated_entries
            );
        }
    }
}
