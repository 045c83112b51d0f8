//! Reusable per-thread scratch for the ALAE DFS hot path.
//!
//! The engine's depth-first walk historically cloned its bookkeeping onto
//! the stack at every trie-node expansion: a `Vec<ForkGroup>` per child, a
//! `start_cols` clone and a sparse-cell vector per advanced group, an
//! `occurrences` vector per reported node.  On hit-dense workloads that
//! per-node allocation traffic dominated the run time (the
//! ALAE-vs-BWT-SW ≈ 0.8× gap recorded in `BENCH_search.json`).
//!
//! [`ForkArena`] makes the walk allocation-free in steady state:
//!
//! * a **slab of [`ForkSlot`]s** holds every live fork group's state
//!   (member start columns + sparse gap cells) in buffers that are recycled
//!   through a free list — advancing a node writes child state into a
//!   re-acquired slot instead of cloning vectors;
//! * a **pool of group-id lists** backs the DFS frames (each frame
//!   references its groups by slot id);
//! * single reusable **advance / pending / occurrence / child buffers**
//!   serve every node expansion;
//! * the query's **q-gram index** is rebuilt in place
//!   ([`crate::qgram::QGramIndex::rebuild`]), and so is the buffer of
//!   per-column gram nodes that the q-prefix and domination filters read.
//!
//! One arena serves one alignment at a time; its internal `reset` (called
//! by `align_with_arena`) reclaims every slot without releasing memory, so
//! a warm arena performs zero heap allocations per trie node.  The engine
//! keeps a thread-local arena, which is what makes `search_batch` threads
//! reuse their scratch across queries automatically.

use crate::fork::{AdvanceScratch, GapCell};
use crate::qgram::QGramIndex;
use alae_suffix::{ChildBuf, SuffixTrieCursor};

/// One fork group's state, flattened into reusable buffers (the arena twin
/// of [`crate::fork::ForkGroup`] + [`crate::fork::ForkPhase`]).
#[derive(Debug, Clone, Default)]
pub struct ForkSlot {
    /// 0-based query columns where the member forks' EMRs start (ascending;
    /// the first is the representative).  The representative is the
    /// smallest start column, the member with the most query characters
    /// left: its score-filter bound is the most permissive, so sharing its
    /// state with the other members never prunes a cell they still need.
    pub start_cols: Vec<u32>,
    /// Gap-region cells (meaningful when `is_gap`; empty otherwise).
    pub cells: Vec<GapCell>,
    /// Diagonal-phase score (meaningful when `!is_gap`).
    pub diag_score: i64,
    /// Depth at which the FGOE was found (meaningful when `is_gap`).
    pub fgoe_depth: usize,
    /// Phase discriminant: gap region vs. diagonal (EMR/NGR).
    pub is_gap: bool,
}

impl ForkSlot {
    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.start_cols.capacity() * std::mem::size_of::<u32>()
            + self.cells.capacity() * std::mem::size_of::<GapCell>()
    }
}

/// One DFS frame: a trie node plus the slot ids of its live fork groups
/// (the id list is pooled).
#[derive(Debug)]
pub(crate) struct Frame {
    pub cursor: SuffixTrieCursor,
    pub group_ids: Vec<u32>,
}

/// The reusable scratch arena for one alignment run (see module docs).
#[derive(Debug, Default)]
pub struct ForkArena {
    /// Slab of fork-group slots; `free_slots` indexes the currently unused
    /// ones.
    pub(crate) slots: Vec<ForkSlot>,
    pub(crate) free_slots: Vec<u32>,
    /// Pool of group-id lists for DFS frames.
    pub(crate) id_list_pool: Vec<Vec<u32>>,
    /// The DFS stack (frames reference pooled id lists).
    pub(crate) frames: Vec<Frame>,
    /// Child-expansion buffer (two occurrence-table scans per refill).
    pub(crate) child_buf: ChildBuf,
    /// In-place advance output.
    pub(crate) advance: AdvanceScratch,
    /// Member columns still awaiting a representative advance.
    pub(crate) pending: Vec<u32>,
    /// Members that disagreed with the current representative.
    pub(crate) rest: Vec<u32>,
    /// Undominated fork start columns of the current q-gram.
    pub(crate) active: Vec<u32>,
    /// Occurrence positions of the current reported node.
    pub(crate) occ_buf: Vec<usize>,
    /// The query's q-gram inverted lists, rebuilt in place per query.
    pub(crate) qgram: QGramIndex,
    /// The suffix-trie node of the q-gram at every query column (`None`
    /// where the gram is not in the text), refilled per query.
    pub(crate) gram_nodes: Vec<Option<SuffixTrieCursor>>,
    /// Slots handed out from the free list this run.
    pub(crate) slots_reused: u64,
    /// Slots newly created (slab growth) this run.
    pub(crate) slots_created: u64,
}

impl ForkArena {
    /// An empty arena (no memory reserved yet; buffers grow on first use
    /// and are retained afterwards).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reclaim every slot and frame for a new alignment run, keeping all
    /// capacity.  Called by `align_with_arena`; safe after a panicked or
    /// truncated run.
    pub(crate) fn reset(&mut self) {
        for frame in self.frames.drain(..) {
            self.id_list_pool.push(frame.group_ids);
        }
        self.free_slots.clear();
        // Low ids first, so warm slots at the slab's front are preferred.
        self.free_slots.extend((0..self.slots.len() as u32).rev());
        self.slots_reused = 0;
        self.slots_created = 0;
    }

    /// Acquire a cleared slot (recycled when possible).
    // lint: no-alloc — steady-state slot reuse (tests/alloc_steady_state.rs)
    #[inline]
    pub(crate) fn acquire_slot(&mut self) -> u32 {
        if let Some(id) = self.free_slots.pop() {
            self.slots_reused += 1;
            let slot = &mut self.slots[id as usize];
            slot.start_cols.clear();
            slot.cells.clear();
            id
        } else {
            self.slots_created += 1;
            self.slots.push(ForkSlot::default());
            (self.slots.len() - 1) as u32
        }
    }

    /// Acquire a cleared group-id list from the pool.
    // lint: no-alloc — steady-state pool reuse (tests/alloc_steady_state.rs)
    #[inline]
    pub(crate) fn acquire_ids(&mut self) -> Vec<u32> {
        let mut ids = self.id_list_pool.pop().unwrap_or_default();
        ids.clear();
        ids
    }

    /// Return a group-id list to the pool (the referenced slots must have
    /// been released separately).
    // lint: no-alloc — returns capacity to the pool, never allocates
    #[inline]
    pub(crate) fn release_ids(&mut self, ids: Vec<u32>) {
        self.id_list_pool.push(ids);
    }

    /// Release every slot in `ids` back to the free list.
    // lint: no-alloc — returns slots to the free list, never allocates
    #[inline]
    pub(crate) fn release_slots_of(&mut self, ids: &[u32]) {
        self.free_slots.extend_from_slice(ids);
    }

    /// Fork-group slots handed out from the free list during the current
    /// run (the `fork_slots_reused` counter).
    pub fn slots_reused(&self) -> u64 {
        self.slots_reused
    }

    /// Slots newly created (slab growth) during the current run; zero in
    /// steady state once the arena is warm.
    pub fn slots_created(&self) -> u64 {
        self.slots_created
    }

    /// Approximate resident footprint of the arena in bytes (slab, pools
    /// and scratch buffers) — the `arena_bytes` counter.
    pub fn bytes_in_use(&self) -> usize {
        let slot_bytes: usize = self.slots.iter().map(ForkSlot::bytes).sum();
        let id_bytes: usize = self
            .id_list_pool
            .iter()
            .map(|v| v.capacity() * std::mem::size_of::<u32>())
            .sum::<usize>()
            + self
                .frames
                .iter()
                .map(|f| f.group_ids.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>();
        slot_bytes
            + id_bytes
            + self.frames.capacity() * std::mem::size_of::<Frame>()
            + self.free_slots.capacity() * std::mem::size_of::<u32>()
            + (self.pending.capacity() + self.rest.capacity() + self.active.capacity())
                * std::mem::size_of::<u32>()
            + self.occ_buf.capacity() * std::mem::size_of::<usize>()
            + self.advance.cells.capacity() * std::mem::size_of::<GapCell>()
            + self.advance.consulted.capacity() * std::mem::size_of::<(u32, u8)>()
            + self.qgram.size_in_bytes()
            + self.gram_nodes.capacity() * std::mem::size_of::<Option<SuffixTrieCursor>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_recycle_through_the_free_list() {
        let mut arena = ForkArena::new();
        arena.reset();
        let a = arena.acquire_slot();
        let b = arena.acquire_slot();
        assert_eq!((arena.slots_created, arena.slots_reused), (2, 0));
        arena.slots[a as usize].start_cols.push(7);
        arena.release_slots_of(&[a, b]);
        let c = arena.acquire_slot();
        // Recycled and cleared.
        assert!(c == a || c == b);
        assert!(arena.slots[c as usize].start_cols.is_empty());
        assert_eq!(arena.slots_reused, 1);
        // After reset every slot is free again and counters restart.
        arena.reset();
        assert_eq!(arena.free_slots.len(), arena.slots.len());
        assert_eq!((arena.slots_created, arena.slots_reused), (0, 0));
    }

    #[test]
    fn id_lists_pool_and_bytes_are_reported() {
        let mut arena = ForkArena::new();
        let mut ids = arena.acquire_ids();
        ids.extend([1, 2, 3]);
        arena.release_ids(ids);
        let again = arena.acquire_ids();
        assert!(again.is_empty());
        assert!(again.capacity() >= 3);
        arena.release_ids(again);
        assert!(arena.bytes_in_use() > 0);
    }
}
