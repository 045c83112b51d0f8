//! Hot index swap: epoch-published [`IndexedDatabase`] behind a
//! hand-rolled `ArcSwap`-style slot.
//!
//! The publish side is a `Mutex<Arc<PinnedIndex>>`; the read side pins
//! the current epoch with one short lock + `Arc::clone` per query at
//! admission.  In-flight queries keep their pinned `Arc` and finish on
//! the epoch they started on; the old index deallocates when its last
//! pin releases.  The expensive work of a reload — one
//! [`IndexedDatabase::open`], whose single read pass checks every section
//! and which then checks the FM-index it assembles — happens *before* the
//! publish lock is ever taken, so queries never stall behind a reload.

use crate::Shared;
use alae::search::IndexedDatabase;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One published index epoch.  Queries pin this at admission and run on
/// it to the end, whatever a reload publishes meanwhile.
pub(crate) struct PinnedIndex {
    /// 1 at startup, +1 per successful reload.
    pub(crate) epoch: u64,
    /// The index this epoch serves.
    pub(crate) db: IndexedDatabase,
}

/// The publication slot: readers pin, reloads publish.
pub(crate) struct IndexSlot {
    current: Mutex<Arc<PinnedIndex>>,
}

impl IndexSlot {
    pub(crate) fn new(db: IndexedDatabase) -> Self {
        Self {
            current: Mutex::new(Arc::new(PinnedIndex { epoch: 1, db })),
        }
    }

    /// Pin the current epoch (one short lock + `Arc` clone).
    pub(crate) fn pin(&self) -> Arc<PinnedIndex> {
        Arc::clone(
            &self
                .current
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// Publish `db` as the next epoch and return that epoch.  The old
    /// `Arc` is only released here; it deallocates once the last
    /// in-flight pin drops.
    pub(crate) fn publish(&self, db: IndexedDatabase) -> u64 {
        let mut current = self
            .current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let epoch = current.epoch + 1;
        *current = Arc::new(PinnedIndex { epoch, db });
        epoch
    }

    /// The current epoch without pinning it.
    pub(crate) fn epoch(&self) -> u64 {
        self.current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .epoch
    }
}

/// What a successful hot reload published.
#[derive(Debug, Clone, PartialEq)]
pub struct ReloadSummary {
    /// The epoch now serving queries.
    pub epoch: u64,
    /// Records in the new index.
    pub records: u64,
    /// Concatenated text length of the new index.
    pub text_len: u64,
    /// Wall-clock time from the open to the publish.
    pub took: Duration,
}

/// Open and publish the index at `path`.  On any error the serving epoch
/// is untouched: the open reads and checks the whole file (magic, version,
/// every section checksum, the record table) before it maps or builds
/// anything, checks the FM-index it assembles against itself and the
/// record table, and refuses a torn or mismatched file with a typed error.
pub(crate) fn reload_index(shared: &Shared, path: &Path) -> Result<ReloadSummary, String> {
    let started = Instant::now();
    let db = match IndexedDatabase::open(path) {
        Ok(db) => db,
        Err(err) => {
            shared.metrics.index_reloads_rejected.inc();
            shared.trace.record_event(
                "reload",
                format!("outcome=rejected path={} error=\"{err}\"", path.display()),
            );
            return Err(format!("index open failed: {err}"));
        }
    };
    let (records, text_len) = (db.record_count() as u64, db.text_len() as u64);
    let epoch = shared.index.publish(db);
    let took = started.elapsed();
    shared.metrics.index_epoch.set(epoch as i64);
    shared.metrics.index_reloads_ok.inc();
    shared.trace.record_event(
        "reload",
        format!(
            "outcome=ok epoch={epoch} path={} records={} text_len={} took_us={}",
            path.display(),
            records,
            text_len,
            took.as_micros().min(u128::from(u64::MAX)) as u64,
        ),
    );
    Ok(ReloadSummary {
        epoch,
        records,
        text_len,
        took,
    })
}
