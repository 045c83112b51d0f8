//! Occurrence (rank) structure over the BWT string — the hottest data
//! structure in the workspace.
//!
//! Backward search (Section 2.3 / [Ferragina & Manzini]) needs
//! `Occ(c, i)` — the number of occurrences of character `c` in the first `i`
//! positions of the BWT.  Every suffix-trie node expansion performed by
//! BWT-SW and ALAE (Section 5) turns into backward-search steps, so the cost
//! of a whole alignment run is dominated by how many BWT bytes these queries
//! touch.
//!
//! # Checkpoint-interleaving + single-scan design
//!
//! The table stores, every [`BLOCK`] positions, one *interleaved checkpoint
//! row* holding the absolute count of every code before the block.
//! Interleaving means the whole row for one block is contiguous, so
//! [`OccTable::rank_all`] — the query behind [`crate::FmIndex::extend_all`]
//! — answers `Occ(c, i)` for **every** code `c` with one row load plus
//! **one** scan of the in-block prefix, instead of the `σ` independent scans
//! a per-code `rank` loop would pay.  A trie-node expansion needs ranks at
//! both ends of its SA range, so it costs exactly **two block scans**,
//! independent of the alphabet size.
//!
//! # Two-level checkpoint rows
//!
//! Checkpoint rows use a two-level scheme: a `u64` *super-block* row holding
//! absolute counts every `BLOCKS_PER_SUPER` blocks, plus a `u16` *delta* row
//! per block holding the count since the enclosing super-block.  A rank
//! query reconstructs the absolute count as `super + delta`.  The hot
//! per-block row is 2 bytes per code (half a flat `u32` row), so the row
//! load touches half the bytes, and the amortized checkpoint footprint is
//! 3 bytes per code per block — on the σ = 20 protein alphabet that is the
//! difference between the checkpoint rows thrashing the cache and staying
//! resident.  A super-block spans `8 × 128 = 1024` positions, so deltas
//! always fit a `u16`.
//!
//! # Bit-parallel in-block scans
//!
//! Every in-block scan bottoms out in one of the portable SWAR kernels of
//! `crate::swar` (`u64` equality folds plus `count_ones`).
//!
//! The code count alone picks one of two storage layouts at construction
//! ([`RankLayout`] reports which):
//!
//! * **`Bytes`** (`σ > 6`, the protein case): one byte per BWT character.
//!   Single-code `rank` compares eight characters per step with a SWAR
//!   equality mask and `u64::count_ones`; `rank_all` performs one byte
//!   histogram pass.
//! * **`PackedDna`** (`σ ≤ 6`, the DNA case): 2 bits per character, 32
//!   characters per `u64`.  The four *dense* (most frequent) codes live in
//!   the packed words and are counted with mask + popcount; the at-most-two
//!   *sparse* codes (BWT sentinel and record separators, which are rare by
//!   construction) live in an exception list — no scan at all.
//!
//! The packed layout encodes exception slots as the dense pattern `0` and
//! subtracts the in-range exception count from the first dense code, so
//! ranks stay exact.  The exception list keeps a cumulative per-block count
//! (one `u32` per checkpoint row, `ExceptionList::block_starts`), so
//! locating the exceptions of a block is O(1) plus a search bounded by the
//! handful of exceptions inside that one block — never a binary search over
//! the whole list, which matters for million-record databases with one
//! separator per record.
//!
//! The checkpoint rows are never stored or handed in: both constructors
//! count them from the storage with the same in-block scan `rank_all` ends
//! with, so a table [`OccTable::new`] builds and one
//! [`OccTable::from_parts`] reassembles from the same storage hold the same
//! rows.
//!
//! Every table counts the block scans and storage bytes it touches
//! ([`OccTable::scan_snapshot`]); the engines surface the deltas in their
//! work counters so the `O(σ)` → `O(1)` scan reduction is measurable
//! end-to-end.

use crate::swar::{self, CHARS_PER_WORD};
use alae_bioseq::SharedBytes;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of positions per sampled checkpoint block.
pub const BLOCK: usize = 128;

/// Checkpoint blocks per two-level super-block.
pub const BLOCKS_PER_SUPER: usize = 8;

/// Positions spanned by one super-block.
const SUPER_SPAN: usize = BLOCK * BLOCKS_PER_SUPER;

/// Number of codes kept in the 2-bit packed words.
const DENSE_CODES: usize = 4;

/// Largest code count eligible for the 2-bit packed layout (4 dense +
/// 2 sparse).
const PACKED_MAX_CODES: usize = DENSE_CODES + 2;

// The packed scans assume checkpoint blocks start on a word boundary, and
// the two-level deltas assume a super-block span fits a u16.
const _: () = assert!(BLOCK.is_multiple_of(CHARS_PER_WORD));
const _: () = assert!(SUPER_SPAN <= u16::MAX as usize);

/// The storage layout of a table's in-block scans, as reported by
/// [`OccTable::layout`].  [`OccTable::new`] derives it from the code count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankLayout {
    /// One byte per character; SWAR equality scan.  Works for any alphabet.
    Bytes,
    /// 2 bits per character plus an exception list; popcount scan.
    /// Requires `code_count ≤ 6`.
    PackedDna,
}

/// Running totals of the work performed by rank queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSnapshot {
    /// Number of in-block scans performed (one per `rank`/`rank_all` call
    /// that touched storage).
    pub block_scans: u64,
    /// Storage bytes covered by the scanned prefixes (logical footprint:
    /// one byte per character for the byte layout, a quarter byte for the
    /// packed layout — not word-granular cache traffic).
    pub bytes_scanned: u64,
}

impl ScanSnapshot {
    /// Work performed since an earlier snapshot.
    pub fn since(&self, earlier: &ScanSnapshot) -> ScanSnapshot {
        ScanSnapshot {
            block_scans: self.block_scans - earlier.block_scans,
            bytes_scanned: self.bytes_scanned - earlier.bytes_scanned,
        }
    }
}

thread_local! {
    /// Per-thread scan totals across every table the thread queries.
    ///
    /// Engines snapshot-diff these around one `align` call
    /// ([`thread_scan_snapshot`]), which attributes scans to the run that
    /// performed them *exactly* — concurrent `search_batch` queries on other
    /// threads never bleed into the delta, unlike the index-wide atomics.
    static THREAD_BLOCK_SCANS: Cell<u64> = const { Cell::new(0) };
    /// Per-thread companion of `THREAD_BLOCK_SCANS` for bytes scanned.
    static THREAD_BYTES_SCANNED: Cell<u64> = const { Cell::new(0) };
}

/// Scan-work counters accumulated by the **calling thread**, across every
/// table it has queried.
///
/// This is the per-run attribution primitive: an engine snapshots before and
/// after one alignment, and because each query runs on exactly one thread,
/// the [`ScanSnapshot::since`] delta counts that query's scans and nothing
/// else — exact even while other threads hammer the same shared index.
/// (Table-wide aggregates are still available from
/// [`OccTable::scan_snapshot`].)
pub fn thread_scan_snapshot() -> ScanSnapshot {
    ScanSnapshot {
        block_scans: THREAD_BLOCK_SCANS.with(Cell::get),
        bytes_scanned: THREAD_BYTES_SCANNED.with(Cell::get),
    }
}

/// Interior-mutable scan counters (`OccTable` is shared behind `Arc`).
#[derive(Debug, Default)]
struct ScanCounter {
    block_scans: AtomicU64,
    bytes_scanned: AtomicU64,
}

impl ScanCounter {
    #[inline]
    fn record(&self, bytes: usize) {
        // Index-wide totals (any thread may observe them) ...
        self.block_scans.fetch_add(1, Ordering::Relaxed);
        self.bytes_scanned
            .fetch_add(bytes as u64, Ordering::Relaxed);
        // ... plus the per-thread totals behind `thread_scan_snapshot`,
        // which make per-query attribution exact under concurrency.
        THREAD_BLOCK_SCANS.with(|c| c.set(c.get() + 1));
        THREAD_BYTES_SCANNED.with(|c| c.set(c.get() + bytes as u64));
    }

    fn snapshot(&self) -> ScanSnapshot {
        ScanSnapshot {
            block_scans: self.block_scans.load(Ordering::Relaxed),
            bytes_scanned: self.bytes_scanned.load(Ordering::Relaxed),
        }
    }
}

impl Clone for ScanCounter {
    fn clone(&self) -> Self {
        let snapshot = self.snapshot();
        Self {
            block_scans: AtomicU64::new(snapshot.block_scans),
            bytes_scanned: AtomicU64::new(snapshot.bytes_scanned),
        }
    }
}

/// Two-level checkpoint rows: `supers[(block / BLOCKS_PER_SUPER) *
/// code_count + c] + deltas[block * code_count + c]` = absolute count of `c`
/// before the block.
#[derive(Debug, Clone)]
struct Checkpoints {
    supers: Vec<u64>,
    deltas: Vec<u16>,
}

impl Checkpoints {
    /// Count the rows of `storage` (`len` characters): one row per block
    /// plus the final partial row, so queries at `i == len` resolve without
    /// special cases.  Each block is counted with [`OccStorage::count_into`],
    /// the scan `rank_all` ends with.  Fails when the storage holds a code
    /// at or above `code_count`: every scan indexes a `code_count`-sized row
    /// by the code, so the first query would panic.
    fn count(storage: &OccStorage, len: usize, code_count: usize) -> Result<Self, String> {
        let block_count = len / BLOCK + 1;
        let mut supers = Vec::with_capacity(block_count.div_ceil(BLOCKS_PER_SUPER) * code_count);
        let mut deltas = Vec::with_capacity(block_count * code_count);
        // One slot per byte value, so an out-of-range code is counted, not
        // indexed past.
        let mut running = [0u32; 256];
        let mut super_base = [0u32; 256];
        for block in 0..block_count {
            if block.is_multiple_of(BLOCKS_PER_SUPER) {
                supers.extend(running[..code_count].iter().map(|&count| count as u64));
                super_base[..code_count].copy_from_slice(&running[..code_count]);
            }
            deltas.extend(
                running[..code_count]
                    .iter()
                    .zip(&super_base)
                    .map(|(&count, &base)| (count - base) as u16),
            );
            storage.count_into(block, ((block + 1) * BLOCK).min(len), &mut running);
        }
        if let Some(above) = running[code_count..].iter().rposition(|&count| count > 0) {
            return Err(format!(
                "the BWT storage holds code {}, not below the code count {code_count}",
                code_count + above
            ));
        }
        Ok(Self { supers, deltas })
    }

    /// Absolute count of code `c` before `block`.
    #[inline]
    fn get(&self, block: usize, code_count: usize, c: usize) -> usize {
        let s = block / BLOCKS_PER_SUPER;
        self.supers[s * code_count + c] as usize + self.deltas[block * code_count + c] as usize
    }

    /// Copy the whole absolute row for `block` into `counts`.
    #[inline]
    fn row_into(&self, block: usize, code_count: usize, counts: &mut [u32]) {
        let super_row = &self.supers[(block / BLOCKS_PER_SUPER) * code_count..][..code_count];
        let delta_row = &self.deltas[block * code_count..][..code_count];
        for ((slot, &base), &delta) in counts.iter_mut().zip(super_row).zip(delta_row) {
            // Counts fit u32 because indexed texts are capped at u32
            // positions (every rank_all consumer is u32-wide); the u64 super
            // rows only buy headroom for a future >4G-position format.
            *slot = base as u32 + delta as u32;
        }
    }

    /// Heap footprint in bytes.
    fn size_in_bytes(&self) -> usize {
        self.supers.len() * std::mem::size_of::<u64>()
            + self.deltas.len() * std::mem::size_of::<u16>()
    }
}

/// Sparse-code exceptions of the packed layout: positions holding codes below
/// the dense base, kept sorted with a cumulative per-block count.
#[derive(Debug, Clone, Default)]
struct ExceptionList {
    /// Positions holding sparse codes, sorted ascending.
    pos: Vec<u32>,
    /// The sparse code at each exception position.
    code: Vec<u8>,
    /// `block_starts[b]` = number of exceptions before position `b * BLOCK`
    /// (one `u32` per checkpoint row).  Makes the per-block exception lookup
    /// O(1) plus a search bounded by the exceptions inside that one block,
    /// instead of a binary search over the whole list.
    block_starts: Vec<u32>,
}

impl ExceptionList {
    /// Reassemble from serialized positions and codes (the per-block
    /// cumulative counts are derived, not stored).
    fn from_parts(
        pos: Vec<u32>,
        code: Vec<u8>,
        len: usize,
        dense_base: u8,
    ) -> Result<Self, String> {
        if pos.len() != code.len() {
            return Err(format!(
                "exception list arity mismatch: {} positions, {} codes",
                pos.len(),
                code.len()
            ));
        }
        if !pos.windows(2).all(|w| w[0] < w[1]) {
            return Err("exception positions must be strictly ascending".into());
        }
        if pos.last().is_some_and(|&p| p as usize >= len) {
            return Err("exception position past the end of the sequence".into());
        }
        if code.iter().any(|&c| c >= dense_base) {
            return Err(format!(
                "exception code not below the dense base {dense_base}"
            ));
        }
        let mut exc = Self {
            pos,
            code,
            block_starts: Vec::new(),
        };
        exc.finish(len);
        Ok(exc)
    }

    /// Derive the per-block cumulative counts once the sorted positions are
    /// complete; `len` is the underlying sequence length.
    fn finish(&mut self, len: usize) {
        let block_count = len / BLOCK + 1;
        self.block_starts = Vec::with_capacity(block_count);
        let mut k = 0usize;
        for block in 0..block_count {
            let start = (block * BLOCK) as u32;
            while k < self.pos.len() && self.pos[k] < start {
                k += 1;
            }
            self.block_starts.push(k as u32);
        }
    }

    /// Number of exceptions.
    #[inline]
    fn len(&self) -> usize {
        self.pos.len()
    }

    /// Index range into the exception lists covering positions
    /// `[block * BLOCK, i)`, where `i` lies inside `block` (or at its
    /// start).  O(1) block lookup + bounded in-block search.
    #[inline]
    fn block_range(&self, block: usize, i: usize) -> (usize, usize) {
        let lo = self.block_starts[block] as usize;
        let cap = self
            .block_starts
            .get(block + 1)
            .map_or(self.pos.len(), |&n| n as usize);
        let hi = lo + self.pos[lo..cap].partition_point(|&p| (p as usize) < i);
        (lo, hi)
    }

    /// The sparse code stored at position `i`, if `i` is an exception slot.
    /// Always inlined, as [`OccTable::get`] is.
    #[inline(always)]
    fn code_at(&self, i: usize) -> Option<u8> {
        let (lo, cap) = {
            let block = i / BLOCK;
            let lo = self.block_starts[block] as usize;
            let cap = self
                .block_starts
                .get(block + 1)
                .map_or(self.pos.len(), |&n| n as usize);
            (lo, cap)
        };
        self.pos[lo..cap]
            .binary_search(&(i as u32))
            .ok()
            .map(|k| self.code[lo + k])
    }

    /// Occurrences of sparse code `c` in `[block * BLOCK, i)`.
    #[inline]
    fn count_code(&self, block: usize, i: usize, c: u8) -> usize {
        let (lo, hi) = self.block_range(block, i);
        self.code[lo..hi].iter().filter(|&&e| e == c).count()
    }

    /// Heap footprint in bytes.
    fn size_in_bytes(&self) -> usize {
        self.pos.len() * 4 + self.code.len() + self.block_starts.len() * 4
    }
}

/// The in-block scan layouts.
#[derive(Debug, Clone)]
enum OccStorage {
    Bytes(SharedBytes),
    Packed(PackedDna),
}

impl OccStorage {
    /// Add the occurrences of every code in positions `[block * BLOCK, i)`,
    /// where `i` lies inside `block` or at its end, to `counts`, which is
    /// indexed by code; returns the storage bytes the scan covered.  The
    /// one in-block scan behind both `rank_all` and the checkpoint rows;
    /// always inlined, so `rank_all` keeps it in its body.
    #[inline(always)]
    fn count_into(&self, block: usize, i: usize, counts: &mut [u32]) -> usize {
        let start = block * BLOCK;
        match self {
            OccStorage::Bytes(data) => {
                swar::byte_histogram(&data[start..i], counts);
                i - start
            }
            OccStorage::Packed(packed) => {
                let mut dense = [0u32; DENSE_CODES];
                packed.count_all(start, i, &mut dense);
                let (lo, hi) = packed.exc.block_range(block, i);
                dense[0] -= (hi - lo) as u32; // Exception slots packed as 0.
                for k in lo..hi {
                    counts[packed.exc.code[k] as usize] += 1;
                }
                let dense_base = packed.dense_base as usize;
                for (offset, &n) in dense.iter().enumerate() {
                    if dense_base + offset < counts.len() {
                        counts[dense_base + offset] += n;
                    }
                }
                (i - start).div_ceil(4)
            }
        }
    }
}

/// Owned storage payload, as serialized by the `alae-store` crate.  The
/// derived quantities (dense base, dense-code count, per-block exception
/// offsets) are reconstructed by [`OccTable::from_parts`], not stored.
#[derive(Debug, Clone)]
pub enum StorageData {
    /// One byte per character (possibly a zero-copy view into a mapped
    /// file).
    Bytes(SharedBytes),
    /// 2-bit packed words plus the sparse-code exception list.
    PackedDna {
        /// 32 characters per word, 2 bits each.
        words: Vec<u64>,
        /// Exception positions, sorted ascending.
        exc_pos: Vec<u32>,
        /// The sparse code at each exception position.
        exc_code: Vec<u8>,
    },
}

/// Borrowed view of the storage payload (the save path's counterpart of
/// [`StorageData`]).
#[derive(Debug, Clone, Copy)]
pub enum StorageDataRef<'a> {
    /// One byte per character.
    Bytes(&'a SharedBytes),
    /// 2-bit packed words plus the exception list.
    PackedDna {
        /// 32 characters per word, 2 bits each.
        words: &'a [u64],
        /// Exception positions, sorted ascending.
        exc_pos: &'a [u32],
        /// The sparse code at each exception position.
        exc_code: &'a [u8],
    },
}

/// 2-bit packed characters plus an exception list for sparse codes.
#[derive(Debug, Clone)]
struct PackedDna {
    /// 32 characters per word, 2 bits each, little-endian within the word.
    words: Vec<u64>,
    /// Smallest dense code; packed pattern = `code - dense_base`.
    dense_base: u8,
    /// Positions holding sparse codes (`code < dense_base`).
    exc: ExceptionList,
}

impl PackedDna {
    fn build(data: &[u8], code_count: usize) -> Self {
        let dense_base = code_count.saturating_sub(DENSE_CODES) as u8;
        let mut words = vec![0u64; data.len().div_ceil(CHARS_PER_WORD)];
        let mut exc = ExceptionList::default();
        for (i, &c) in data.iter().enumerate() {
            let pattern = if c >= dense_base {
                (c - dense_base) as u64
            } else {
                exc.pos.push(i as u32);
                exc.code.push(c);
                0 // Filler; queries subtract the exception count from code 0.
            };
            words[i / CHARS_PER_WORD] |= pattern << (2 * (i % CHARS_PER_WORD));
        }
        exc.finish(data.len());
        Self {
            words,
            dense_base,
            exc,
        }
    }

    /// Character at position `i`.  Always inlined, as [`OccTable::get`] is.
    #[inline(always)]
    fn get(&self, i: usize) -> u8 {
        if let Some(code) = self.exc.code_at(i) {
            return code;
        }
        let pattern = (self.words[i / CHARS_PER_WORD] >> (2 * (i % CHARS_PER_WORD))) & 3;
        self.dense_base + pattern as u8
    }

    /// Occurrences of the 2-bit `pattern` in positions `[start, end)`;
    /// `start` must be word-aligned.  Exception slots count as pattern 0.
    #[inline]
    fn count_pattern(&self, pattern: u64, start: usize, end: usize) -> usize {
        swar::count_pattern_2bit(&self.words, pattern, start, end)
    }

    /// Occurrence histogram of all four dense patterns over `[start, end)`
    /// in a single pass; `start` must be word-aligned.
    #[inline]
    fn count_all(&self, start: usize, end: usize, out: &mut [u32; DENSE_CODES]) {
        swar::count_all_2bit(&self.words, start, end, out);
    }

    fn size_in_bytes(&self) -> usize {
        self.words.len() * 8 + self.exc.size_in_bytes()
    }
}

/// Sampled occurrence counts over a byte sequence.
#[derive(Debug, Clone)]
pub struct OccTable {
    /// Number of distinct codes (alphabet size including the sentinel).
    code_count: usize,
    /// Sequence length.
    len: usize,
    /// Interleaved checkpoint rows (one per block).
    checkpoints: Checkpoints,
    /// The BWT characters in one of the scan layouts.
    storage: OccStorage,
    /// Scan-work accounting.
    scans: ScanCounter,
}

impl OccTable {
    /// Build the table for `data` where all codes are `< code_count`.
    /// Alphabets of at most 6 codes (DNA) are packed 2 bits per character;
    /// every larger one (protein) is stored one byte per character.
    ///
    /// # Panics
    ///
    /// Panics when a code of `data` is not below `code_count`.
    pub fn new(data: Vec<u8>, code_count: usize) -> Self {
        assert!(code_count > 0);
        let len = data.len();
        let storage = if code_count <= PACKED_MAX_CODES {
            OccStorage::Packed(PackedDna::build(&data, code_count))
        } else {
            OccStorage::Bytes(SharedBytes::from_vec(data))
        };
        Self::with_storage(len, code_count, storage).expect("every code is below code_count")
    }

    /// The table over `storage`, with its checkpoint rows counted from it:
    /// the one path both [`OccTable::new`] and [`OccTable::from_parts`]
    /// take.
    fn with_storage(len: usize, code_count: usize, storage: OccStorage) -> Result<Self, String> {
        Ok(Self {
            code_count,
            len,
            checkpoints: Checkpoints::count(&storage, len, code_count)?,
            storage,
            scans: ScanCounter::default(),
        })
    }

    /// Length of the underlying sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct codes the table was built for.
    #[inline]
    pub fn code_count(&self) -> usize {
        self.code_count
    }

    /// The storage layout of this table.
    pub fn layout(&self) -> RankLayout {
        match self.storage {
            OccStorage::Bytes(_) => RankLayout::Bytes,
            OccStorage::Packed(_) => RankLayout::PackedDna,
        }
    }

    /// Character at position `i`.
    ///
    /// Always inlined, with the packed layout's lookups under it:
    /// `FmIndex::locate` reads one per LF step of every hit it resolves,
    /// and with the text's LF walk as a second caller the inliner would
    /// otherwise leave `locate` a call per step.
    #[inline(always)]
    pub fn get(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        match &self.storage {
            OccStorage::Bytes(data) => data[i],
            OccStorage::Packed(packed) => packed.get(i),
        }
    }

    /// `Occ(c, i)`: number of occurrences of `c` in `data[0..i]` (exclusive
    /// upper bound).  One checkpoint lookup plus one bit-parallel scan of at
    /// most `BLOCK` positions.
    #[inline]
    pub fn rank(&self, c: u8, i: usize) -> usize {
        self.rank_counting::<true>(c, i)
    }

    /// [`OccTable::rank`] without counting the scan, for the LF walk that
    /// derives an opened index's text, which is not query work.
    #[inline]
    pub(crate) fn rank_unrecorded(&self, c: u8, i: usize) -> usize {
        self.rank_counting::<false>(c, i)
    }

    /// `Occ(c, i)`, counting the scan in the table's and the thread's
    /// totals when `RECORD`.
    #[inline]
    fn rank_counting<const RECORD: bool>(&self, c: u8, i: usize) -> usize {
        debug_assert!(i <= self.len);
        debug_assert!((c as usize) < self.code_count);
        let block = i / BLOCK;
        let base = self.checkpoints.get(block, self.code_count, c as usize);
        let start = block * BLOCK;
        match &self.storage {
            OccStorage::Bytes(data) => {
                if RECORD {
                    self.scans.record(i - start);
                }
                base + swar::count_eq_bytes(&data[start..i], c)
            }
            OccStorage::Packed(packed) => {
                if c < packed.dense_base {
                    // Sparse code: the exception list answers exactly,
                    // without touching the packed words.
                    base + packed.exc.count_code(block, i, c)
                } else {
                    if RECORD {
                        self.scans.record((i - start).div_ceil(4));
                    }
                    let mut count = packed.count_pattern((c - packed.dense_base) as u64, start, i);
                    if c == packed.dense_base {
                        // Exception slots packed as pattern 0.
                        let (lo, hi) = packed.exc.block_range(block, i);
                        count -= hi - lo;
                    }
                    base + count
                }
            }
        }
    }

    /// `Occ(c, i)` for **every** code `c` in one pass: one checkpoint row
    /// load plus a single scan of the in-block prefix.
    ///
    /// `counts` must have length [`OccTable::code_count`].  This is the
    /// single-scan primitive behind `FmIndex::extend_all`: expanding a trie
    /// node costs two `rank_all` calls — two block scans — independent of σ.
    pub fn rank_all(&self, i: usize, counts: &mut [u32]) {
        let scanned = self.rank_all_unrecorded(i, counts);
        self.scans.record(scanned);
    }

    /// [`OccTable::rank_all`] without counting the scan, for the code
    /// totals the FM-index derives its C array from, which are not query
    /// work.  Returns the storage bytes the scan covered.
    #[inline]
    pub(crate) fn rank_all_unrecorded(&self, i: usize, counts: &mut [u32]) -> usize {
        debug_assert!(i <= self.len);
        assert_eq!(counts.len(), self.code_count);
        let block = i / BLOCK;
        self.checkpoints.row_into(block, self.code_count, counts);
        self.storage.count_into(block, i, counts)
    }

    /// Scan-work counters accumulated since construction.
    pub fn scan_snapshot(&self) -> ScanSnapshot {
        self.scans.snapshot()
    }

    /// Approximate heap footprint in bytes (sequence + checkpoints), used by
    /// the index-size experiment (Figure 11).
    pub fn size_in_bytes(&self) -> usize {
        self.storage_bytes() + self.checkpoint_bytes()
    }

    /// Footprint of the character storage alone (packed words + exception
    /// lists, or the raw bytes).
    pub fn storage_bytes(&self) -> usize {
        match &self.storage {
            OccStorage::Bytes(data) => data.len(),
            OccStorage::Packed(packed) => packed.size_in_bytes(),
        }
    }

    /// Footprint of the checkpoint rows alone.
    pub fn checkpoint_bytes(&self) -> usize {
        self.checkpoints.size_in_bytes()
    }

    /// Number of exception-list entries (0 for the byte layout).
    pub fn exception_count(&self) -> usize {
        match &self.storage {
            OccStorage::Bytes(_) => 0,
            OccStorage::Packed(packed) => packed.exc.len(),
        }
    }

    /// Borrowed view of the storage payload (serialization support).
    pub fn storage_data(&self) -> StorageDataRef<'_> {
        match &self.storage {
            OccStorage::Bytes(data) => StorageDataRef::Bytes(data),
            OccStorage::Packed(packed) => StorageDataRef::PackedDna {
                words: &packed.words,
                exc_pos: &packed.exc.pos,
                exc_code: &packed.exc.code,
            },
        }
    }

    /// Reassemble a table from its serialized storage (the `alae-store`
    /// open path).  The storage must be the layout [`OccTable::new`] picks
    /// for `code_count`: packed for at most 6 codes, bytes above that.
    /// Derived quantities — the dense base, the per-block exception
    /// offsets and the checkpoint rows — are computed as `new` computes
    /// them, and every stored code is checked for range in the same pass.
    pub fn from_parts(len: usize, code_count: usize, storage: StorageData) -> Result<Self, String> {
        if code_count == 0 {
            return Err("code_count must be positive".into());
        }
        let storage = match storage {
            StorageData::Bytes(data) => {
                if code_count <= PACKED_MAX_CODES {
                    return Err(format!(
                        "byte storage is for more than {PACKED_MAX_CODES} codes; {code_count} \
                         codes are packed"
                    ));
                }
                if data.len() != len {
                    return Err(format!(
                        "byte storage holds {} bytes, expected {len}",
                        data.len()
                    ));
                }
                OccStorage::Bytes(data)
            }
            StorageData::PackedDna {
                words,
                exc_pos,
                exc_code,
            } => {
                if code_count > PACKED_MAX_CODES {
                    return Err(format!(
                        "packed layout supports at most {PACKED_MAX_CODES} codes, got {code_count}"
                    ));
                }
                if words.len() != len.div_ceil(CHARS_PER_WORD) {
                    return Err(format!(
                        "packed storage holds {} words, expected {}",
                        words.len(),
                        len.div_ceil(CHARS_PER_WORD)
                    ));
                }
                let dense_base = code_count.saturating_sub(DENSE_CODES) as u8;
                let exc = ExceptionList::from_parts(exc_pos, exc_code, len, dense_base)?;
                OccStorage::Packed(PackedDna {
                    words,
                    dense_base,
                    exc,
                })
            }
        };
        Self::with_storage(len, code_count, storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_rank(data: &[u8], c: u8, i: usize) -> usize {
        data[..i].iter().filter(|&&b| b == c).count()
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn rank_matches_naive_on_small_input() {
        let data = vec![1u8, 2, 1, 3, 0, 1, 2, 2, 3, 1];
        let table = OccTable::new(data.clone(), 4);
        for c in 0..4u8 {
            for i in 0..=data.len() {
                assert_eq!(table.rank(c, i), naive_rank(&data, c, i), "c={c} i={i}");
            }
        }
    }

    #[test]
    fn rank_matches_naive_across_block_boundaries() {
        let mut state = 7u64;
        let data: Vec<u8> = (0..BLOCK * 3 + 17)
            .map(|_| (xorshift(&mut state) % 5) as u8)
            .collect();
        let table = OccTable::new(data.clone(), 5);
        for c in 0..5u8 {
            for i in (0..=data.len()).step_by(7) {
                assert_eq!(table.rank(c, i), naive_rank(&data, c, i), "c={c} i={i}");
            }
            // Exactly at the boundaries.
            for block in 0..=3 {
                let i = (block * BLOCK).min(data.len());
                assert_eq!(table.rank(c, i), naive_rank(&data, c, i), "c={c} i={i}");
            }
        }
    }

    #[test]
    fn rank_matches_naive_across_superblock_boundaries() {
        // Long enough to cross two super-block boundaries with a partial
        // tail, so the u64 + u16 reconstruction is exercised end-to-end on
        // the packed layout.
        let mut state = 13u64;
        let data: Vec<u8> = (0..SUPER_SPAN * 2 + 3 * BLOCK + 41)
            .map(|_| (xorshift(&mut state) % 6) as u8)
            .collect();
        let table = OccTable::new(data.clone(), 6);
        for c in 0..6u8 {
            for i in (0..=data.len()).step_by(97) {
                assert_eq!(table.rank(c, i), naive_rank(&data, c, i), "c={c} i={i}");
            }
            for s in 0..=2 {
                for b in 0..BLOCKS_PER_SUPER {
                    let i = (s * SUPER_SPAN + b * BLOCK).min(data.len());
                    assert_eq!(table.rank(c, i), naive_rank(&data, c, i), "c={c} i={i}");
                }
            }
        }
    }

    #[test]
    fn rank_all_matches_per_code_rank() {
        let mut state = 99u64;
        for code_count in [2usize, 4, 6, 9, 16, 18, 21] {
            let data: Vec<u8> = (0..BLOCK * 2 + 61)
                .map(|_| (xorshift(&mut state) % code_count as u64) as u8)
                .collect();
            let table = OccTable::new(data.clone(), code_count);
            let mut counts = vec![0u32; code_count];
            for i in (0..=data.len()).step_by(13) {
                table.rank_all(i, &mut counts);
                for c in 0..code_count as u8 {
                    assert_eq!(
                        counts[c as usize] as usize,
                        naive_rank(&data, c, i),
                        "code_count={code_count} c={c} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_layout_matches_naive_for_every_code_count_it_holds() {
        let mut state = 4242u64;
        for code_count in [1usize, 2, 4, 5, 6] {
            let data: Vec<u8> = (0..BLOCK * 2 + 93)
                .map(|_| (xorshift(&mut state) % code_count as u64) as u8)
                .collect();
            let packed = OccTable::new(data.clone(), code_count);
            assert_eq!(packed.layout(), RankLayout::PackedDna);
            let mut counts = vec![0u32; code_count];
            for i in (0..=data.len()).step_by(11) {
                packed.rank_all(i, &mut counts);
                for c in 0..code_count as u8 {
                    let expected = naive_rank(&data, c, i);
                    assert_eq!(counts[c as usize] as usize, expected, "c={c} i={i}");
                    assert_eq!(packed.rank(c, i), expected, "c={c} i={i}");
                }
            }
            for (i, &expected) in data.iter().enumerate() {
                assert_eq!(packed.get(i), expected, "i={i}");
            }
        }
    }

    #[test]
    fn two_level_checkpoint_footprint_is_exact() {
        // One u16 delta per code per block plus one u64 super row per code
        // per BLOCKS_PER_SUPER blocks (rounded up), whatever the storage
        // layout: `code_count · (8·⌈blocks/8⌉ + 2·blocks)`.
        let mut state = 555u64;
        for code_count in [22usize, 6, 18] {
            for len in [
                0usize,
                1,
                BLOCK - 1,
                BLOCK,
                SUPER_SPAN,
                SUPER_SPAN * 16 + 77,
            ] {
                let data: Vec<u8> = (0..len)
                    .map(|_| (xorshift(&mut state) % code_count as u64) as u8)
                    .collect();
                let table = OccTable::new(data, code_count);
                let blocks = len / BLOCK + 1;
                assert_eq!(
                    table.checkpoint_bytes(),
                    code_count * (8 * blocks.div_ceil(BLOCKS_PER_SUPER) + 2 * blocks),
                    "code_count={code_count} len={len}"
                );
                assert_eq!(
                    table.size_in_bytes(),
                    table.storage_bytes() + table.checkpoint_bytes()
                );
            }
        }
    }

    #[test]
    fn layout_follows_the_code_count() {
        let dna = OccTable::new(vec![0u8, 1, 2, 3, 4, 5], 6);
        assert_eq!(dna.layout(), RankLayout::PackedDna);
        for code_count in [7u8, 18, 19, 22] {
            let table = OccTable::new((0..code_count).collect(), code_count as usize);
            assert_eq!(table.layout(), RankLayout::Bytes, "{code_count} codes");
        }
    }

    #[test]
    fn sparse_codes_are_exact_in_every_layout() {
        // Mostly-dense data with rare sentinel/separator codes, mirroring a
        // real BWT (the lowest shifted codes are the sparse ones).
        let mut state = 31u64;
        for (code_count, dense) in [(6usize, 4usize), (18, 16)] {
            let sparse = code_count - dense;
            let mut data: Vec<u8> = (0..BLOCK * 2)
                .map(|_| (xorshift(&mut state) % dense as u64) as u8 + sparse as u8)
                .collect();
            data[0] = 0;
            data[37] = 1;
            data[BLOCK] = 1;
            data[BLOCK + 1] = 1;
            let table = OccTable::new(data.clone(), code_count);
            let layout = table.layout();
            let exceptions = if layout == RankLayout::PackedDna {
                4
            } else {
                0
            };
            assert_eq!(table.exception_count(), exceptions, "layout {layout:?}");
            for c in 0..code_count as u8 {
                for i in (0..=data.len()).step_by(3) {
                    assert_eq!(
                        table.rank(c, i),
                        naive_rank(&data, c, i),
                        "layout {layout:?} c={c} i={i}"
                    );
                }
            }
            for (i, &c) in data.iter().enumerate() {
                assert_eq!(table.get(i), c);
            }
        }
    }

    #[test]
    fn exception_heavy_inputs_stay_exact() {
        // Pathological separator-heavy input (every third position is a
        // sparse code) across several blocks: stresses the per-block
        // cumulative exception counts.
        let mut state = 77u64;
        let code_count = 6usize;
        let data: Vec<u8> = (0..BLOCK * 5 + 19)
            .map(|i| {
                if i % 3 == 0 {
                    (xorshift(&mut state) % 2) as u8 // sparse: 0 or 1
                } else {
                    (xorshift(&mut state) % 4) as u8 + 2 // dense: 2..=5
                }
            })
            .collect();
        let table = OccTable::new(data.clone(), code_count);
        let mut counts = vec![0u32; code_count];
        for i in (0..=data.len()).step_by(5) {
            table.rank_all(i, &mut counts);
            for c in 0..code_count as u8 {
                assert_eq!(
                    counts[c as usize] as usize,
                    naive_rank(&data, c, i),
                    "c={c} i={i}"
                );
                assert_eq!(table.rank(c, i), naive_rank(&data, c, i));
            }
        }
        for (i, &c) in data.iter().enumerate() {
            assert_eq!(table.get(i), c, "i={i}");
        }
    }

    #[test]
    fn scan_counters_track_rank_all_calls() {
        let data = vec![1u8; BLOCK + 40];
        let table = OccTable::new(data, 4);
        let before = table.scan_snapshot();
        let mut counts = [0u32; 4];
        table.rank_all(BLOCK + 20, &mut counts);
        table.rank_all(10, &mut counts);
        let delta = table.scan_snapshot().since(&before);
        assert_eq!(delta.block_scans, 2);
        assert!(delta.bytes_scanned > 0);
    }

    #[test]
    fn thread_scan_snapshot_attributes_per_thread_work_exactly() {
        // Two threads querying the *same* table: each thread's snapshot
        // delta counts its own scans only, while the table-wide totals see
        // the sum — the per-run attribution the engines rely on.
        let table = std::sync::Arc::new(OccTable::new(vec![2u8; BLOCK * 2], 4));
        let table_before = table.scan_snapshot();
        let scans_of = |calls: usize, table: &OccTable| {
            let before = thread_scan_snapshot();
            let mut counts = [0u32; 4];
            for _ in 0..calls {
                table.rank_all(BLOCK + 5, &mut counts);
            }
            thread_scan_snapshot().since(&before)
        };
        let handle = {
            let table = table.clone();
            std::thread::spawn(move || scans_of(7, &table))
        };
        let mine = scans_of(3, &table);
        let theirs = handle.join().expect("worker thread panicked");
        assert_eq!(mine.block_scans, 3);
        assert_eq!(theirs.block_scans, 7);
        assert_eq!(
            table.scan_snapshot().since(&table_before).block_scans,
            10,
            "table-wide totals aggregate across threads"
        );
    }

    #[test]
    fn empty_sequence() {
        let table = OccTable::new(Vec::new(), 3);
        assert!(table.is_empty());
        assert_eq!(table.rank(0, 0), 0);
        assert_eq!(table.len(), 0);
        let mut counts = [0u32; 3];
        table.rank_all(0, &mut counts);
        assert_eq!(counts, [0, 0, 0]);
    }

    #[test]
    fn get_returns_characters() {
        let data = vec![4u8, 3, 2, 1];
        let table = OccTable::new(data.clone(), 5);
        for (i, &c) in data.iter().enumerate() {
            assert_eq!(table.get(i), c);
        }
    }

    #[test]
    fn size_accounting_is_positive() {
        let data = vec![1u8; 1000];
        let packed = OccTable::new(data.clone(), 2);
        let bytes = OccTable::new(data, 7);
        assert_eq!(bytes.storage_bytes(), 1000);
        // The packed layout stores the same data in a quarter of the space.
        assert_eq!(
            packed.storage_bytes(),
            1000usize.div_ceil(CHARS_PER_WORD) * 8 + 4 * 8
        );
        assert!(packed.size_in_bytes() < bytes.size_in_bytes());
    }

    /// Random text over `code_count` codes, plus a separator-heavy twin
    /// (every third position is a low/sparse code).
    fn random_and_separator_heavy_texts(code_count: usize, len: usize, seed: u64) -> [Vec<u8>; 2] {
        let mut state = seed;
        let random: Vec<u8> = (0..len)
            .map(|_| (xorshift(&mut state) % code_count as u64) as u8)
            .collect();
        let sparse_cap = (code_count / 4).max(1) as u64;
        let separator_heavy: Vec<u8> = (0..len)
            .map(|i| {
                if i % 3 == 0 {
                    (xorshift(&mut state) % sparse_cap) as u8
                } else {
                    (xorshift(&mut state) % code_count as u64) as u8
                }
            })
            .collect();
        [random, separator_heavy]
    }

    #[test]
    fn every_layout_matches_naive_on_random_and_separator_heavy_texts() {
        // The table-level exactness proof: for both storage layouts, over a
        // random and a separator-heavy text spanning a super-block, ranks,
        // rank_all histograms and stored characters equal a naive count.
        for code_count in [21usize, 5, 6, 18, 9] {
            for data in
                random_and_separator_heavy_texts(code_count, SUPER_SPAN + 2 * BLOCK + 37, 0xA1AE)
            {
                let table = OccTable::new(data.clone(), code_count);
                let layout = table.layout();
                let mut counts = vec![0u32; code_count];
                for i in (0..=data.len()).step_by(7) {
                    table.rank_all(i, &mut counts);
                    for c in 0..code_count as u8 {
                        let expected = naive_rank(&data, c, i);
                        assert_eq!(
                            counts[c as usize] as usize, expected,
                            "rank_all {layout:?} c={c} i={i}"
                        );
                        assert_eq!(table.rank(c, i), expected, "rank {layout:?} c={c} i={i}");
                    }
                }
                for (i, &expected) in data.iter().enumerate() {
                    assert_eq!(table.get(i), expected);
                }
            }
        }
    }

    /// `table` reassembled from its own storage, as open reassembles it.
    fn reassembled(table: &OccTable) -> Result<OccTable, String> {
        let storage = match table.storage_data() {
            StorageDataRef::Bytes(data) => StorageData::Bytes(data.clone()),
            StorageDataRef::PackedDna {
                words,
                exc_pos,
                exc_code,
            } => StorageData::PackedDna {
                words: words.to_vec(),
                exc_pos: exc_pos.to_vec(),
                exc_code: exc_code.to_vec(),
            },
        };
        OccTable::from_parts(table.len(), table.code_count(), storage)
    }

    #[test]
    fn from_parts_counts_the_rows_new_counts() {
        // Lengths on and off block and super-block boundaries, on both
        // layouts, with separator-heavy data among them: the rows a
        // reassembled table counts are the built table's, entry for entry.
        let mut state = 2024u64;
        for code_count in [2usize, 6, 7, 22] {
            for len in [
                0,
                1,
                BLOCK - 1,
                BLOCK,
                SUPER_SPAN,
                SUPER_SPAN + 1,
                3 * SUPER_SPAN + 77,
            ] {
                for data in random_and_separator_heavy_texts(code_count, len, xorshift(&mut state))
                {
                    let built = OccTable::new(data.clone(), code_count);
                    let opened = reassembled(&built).unwrap();
                    assert_eq!(opened.layout(), built.layout());
                    assert_eq!(opened.checkpoints.supers, built.checkpoints.supers);
                    assert_eq!(opened.checkpoints.deltas, built.checkpoints.deltas);
                    let mut counts = vec![0u32; code_count];
                    for i in (0..=len).step_by(BLOCK / 4) {
                        opened.rank_all(i, &mut counts);
                        for c in 0..code_count as u8 {
                            assert_eq!(
                                counts[c as usize] as usize,
                                naive_rank(&data, c, i),
                                "{code_count} codes, len {len}, c={c} i={i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn from_parts_refuses_storage_new_would_not_build() {
        let refused = |result: Result<OccTable, String>, why: &str| {
            assert!(
                matches!(&result, Err(msg) if msg.contains(why)),
                "{why}: {:?}",
                result.map(|_| ())
            );
        };
        // Packed storage for 7 codes: the packed layout holds at most 6.
        let packed = OccTable::new(vec![0u8; 10], 6);
        let StorageDataRef::PackedDna {
            words,
            exc_pos,
            exc_code,
        } = packed.storage_data()
        else {
            panic!("6 codes are packed");
        };
        let as_seven = StorageData::PackedDna {
            words: words.to_vec(),
            exc_pos: exc_pos.to_vec(),
            exc_code: exc_code.to_vec(),
        };
        refused(
            OccTable::from_parts(10, 7, as_seven),
            "at most 6 codes, got 7",
        );
        // Byte storage for 6 codes: `new` packs them, and so every file does.
        let bytes = StorageData::Bytes(SharedBytes::from_vec(vec![5u8; 300]));
        refused(
            OccTable::from_parts(300, 6, bytes),
            "byte storage is for more than 6 codes; 6 codes are packed",
        );
        // A byte at or above the code count, anywhere in the storage.
        for at in [0, 127, 128, 299] {
            let mut data: Vec<u8> = (0..300).map(|i| (i * 7 % 21) as u8).collect();
            data[at] = 0xFF;
            let bytes = StorageData::Bytes(SharedBytes::from_vec(data));
            refused(OccTable::from_parts(300, 21, bytes), "holds code 255");
        }
        // A packed pattern above the code count: pattern 3 with 3 codes.
        let three = OccTable::new(vec![2u8; 40], 3);
        let StorageDataRef::PackedDna { words, .. } = three.storage_data() else {
            panic!("3 codes are packed");
        };
        let mut words = words.to_vec();
        words[1] |= 3 << 6;
        let storage = StorageData::PackedDna {
            words,
            exc_pos: Vec::new(),
            exc_code: Vec::new(),
        };
        refused(OccTable::from_parts(40, 3, storage), "holds code 3");
        assert!(reassembled(&three).is_ok());
    }
}
