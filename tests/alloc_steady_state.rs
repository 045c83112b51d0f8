//! Steady-state allocation regression test for the ALAE fork-arena DFS.
//!
//! The tentpole contract of the arena engine: once a [`ForkArena`] has been
//! warmed by one alignment, re-aligning performs **zero** heap allocations —
//! every trie-node expansion runs entirely out of recycled slots, pools and
//! scratch buffers.  This file proves it two ways:
//!
//! 1. a test-only counting `#[global_allocator]` measures the exact number
//!    of allocator calls during a warm re-alignment of a hit-free
//!    deep-DFS workload and asserts it is zero (hits are excluded because
//!    result materialisation legitimately allocates),
//! 2. the arena's own high-water accounting asserts that a warm re-run of a
//!    *hit-dense* workload creates no new slots (`slots_created() == 0`) —
//!    all fork state is served from the free list.
//!
//! The whole check lives in a single `#[test]` so no sibling test thread
//! can contribute allocator traffic to the measured windows.
//!
//! This is the one test file allowed to contain `unsafe`: implementing
//! `GlobalAlloc` requires it.  The allowance is scoped and `lint.toml` pins
//! it.
#![allow(unsafe_code)]

use alae::bioseq::{Alphabet, ScoringScheme, Sequence, SequenceDatabase};
use alae::core::{AlaeAligner, AlaeConfig, FilterToggles, ForkArena};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocator entry point (alloc / realloc / alloc_zeroed);
/// deallocations are not counted — releasing memory is allowed anywhere.
struct CountingAllocator;

static ALLOCATION_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards verbatim to `System` after bumping a
// relaxed counter — the allocator upholds `GlobalAlloc`'s contract exactly
// as far as `System` does, and the counter has no failure modes.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as the wrapped `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller, who
        // guarantees it is valid per the `GlobalAlloc` contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as the wrapped `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from our caller, who guarantees the
        // block was allocated by this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as the wrapped `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: arguments forwarded unchanged under the caller's
        // `GlobalAlloc` obligations (live block, matching layout).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as the wrapped `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATION_CALLS.load(Ordering::Relaxed)
}

/// A deterministic pseudo-random DNA text.
fn random_text(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 4) as u8 + 1
        })
        .collect()
}

#[test]
fn warm_arena_alignments_do_not_allocate() {
    // ------------------------------------------------------------------
    // Phase 1: counting-allocator proof on a hit-free deep DFS.
    //
    // The query is an exact substring of the text, so its forks survive to
    // full depth (diagonals of matches, gap regions fanning out); the
    // threshold is far above anything reachable, so no hit is ever
    // recorded and the run's only memory traffic is DFS bookkeeping —
    // exactly the traffic the arena must eliminate.  The score filter is
    // disabled so the unreachable threshold does not prune the walk.
    // ------------------------------------------------------------------
    let text = random_text(2_000, 0x00c0_ffee_1234_5678);
    let query: Vec<u8> = text[700..760].to_vec();
    let db = SequenceDatabase::from_sequences(
        Alphabet::Dna,
        [Sequence::from_codes(Alphabet::Dna, text.clone())],
    );
    let config =
        AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 100_000).filters(FilterToggles {
            score_filter: false,
            ..FilterToggles::ALL
        });
    let aligner = AlaeAligner::build(&db, config);

    let mut arena = ForkArena::new();
    // Warm-up: the arena grows to the run's high-water mark here.
    let first = aligner.align_with_arena(&query, &mut arena);
    assert!(first.hits.is_empty(), "threshold must be unreachable");
    assert!(
        first.stats.visited_nodes > 1_000,
        "the DFS must actually run deep (visited {} nodes)",
        first.stats.visited_nodes
    );

    // Steady state: bit-for-bit the same work, zero allocator calls.
    let before = allocations();
    let second = aligner.align_with_arena(&query, &mut arena);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warm re-alignment performed {delta} heap allocations (expected 0)"
    );
    assert_eq!(second.hits, first.hits);
    assert_eq!(second.stats.visited_nodes, first.stats.visited_nodes);
    assert_eq!(
        arena.slots_created(),
        0,
        "warm arena must not grow its slab"
    );
    assert!(second.stats.fork_slots_reused > 0);

    // ------------------------------------------------------------------
    // Phase 2: arena high-water proof on a hit-dense workload.
    //
    // Same query against a low threshold: nearly every surviving node
    // reports hits, so result materialisation allocates (HitMap, result
    // vector) — but the *fork state* must still come entirely from the
    // free list on a warm arena.
    // ------------------------------------------------------------------
    let dense_config = AlaeConfig::with_threshold(ScoringScheme::DEFAULT, 8);
    let dense = AlaeAligner::build(&db, dense_config);
    let mut dense_arena = ForkArena::new();
    let first = dense.align_with_arena(&query, &mut dense_arena);
    assert!(
        first.hits.len() > 10,
        "hit-dense workload expected (got {} hits)",
        first.hits.len()
    );
    let second = dense.align_with_arena(&query, &mut dense_arena);
    assert_eq!(second.hits, first.hits);
    assert_eq!(
        dense_arena.slots_created(),
        0,
        "hit-dense warm re-run must serve every fork slot from the free list"
    );
    assert!(second.stats.fork_slots_reused > 0);
    assert!(second.stats.arena_bytes > 0);
}
