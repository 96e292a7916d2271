//! Size-capped, LRU-first garbage collection and compaction under an
//! advisory lock.
//!
//! The cache is an accelerator, so it must never grow without bound on
//! the machines that benefit from it most (CI runners, the `serve`
//! daemon's host). `gc` brings the directory down to a byte budget by
//! evicting the **least recently used** blobs first. A blob's last use
//! is the newest stamp among its records: the put that wrote it, and a
//! touch record that the first hit on it per [`Cache`] handle appends
//! (later hits on the same handle move only that handle's in-memory
//! recency, which its own `gc` uses). So warm blobs survive and stale
//! ones go.
//!
//! Every pass also compacts: the surviving blobs are rewritten, least
//! recently used first and each stamped with its recency, into a fresh
//! log that is renamed over the old one — dropping the superseded
//! blobs, the touch records and the evicted blobs. A handle still
//! appending to the replaced log sees its link count drop to zero after
//! its next write and writes that record again into the new log, and
//! `gc` carries over whatever reached the old log between its scan and
//! the rename, so a concurrent writer never loses a record.
//!
//! Two cheaper passes run after writes, best-effort and only when the
//! lock is free. A handle opened with a write-time capacity evicts
//! LRU-first down to it by appending one small drop record per evicted
//! blob. And a log whose dead records (touches, drops, superseded blobs)
//! outweigh its live ones is compacted, so the log, and every handle's
//! first scan of it, stays within about twice the live bytes however
//! long the directory is used without an explicit `gc`.
//!
//! Exactly one gc runs at a time per directory: a `gc.lock` file taken
//! with `O_EXCL` (`create_new`) serves as the advisory lock, with a
//! stale-steal path (a lock older than [`LOCK_STALE_SECS`] belongs to a
//! crashed process and is reclaimed). A reader whose blob was evicted
//! sees a clean miss — the same contract as a cold cache.

use crate::error::CacheError;
use crate::segment::{Loc, Store};
use crate::{Cache, CacheKey, Inner};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, SystemTime};

/// Age (seconds) past which a `gc.lock` is considered abandoned by a
/// crashed process and is stolen. A real gc pass takes milliseconds.
pub const LOCK_STALE_SECS: u64 = 300;

/// Age (seconds) past which a `*.tmp.*` file is an abandoned write (the
/// writer crashed between `write` and `rename` of a stats record or an
/// archive) and is swept by gc. Live writers hold their temp for
/// microseconds.
const TEMP_STALE_SECS: u64 = 900;

/// What one `gc` pass did, in the same size definition `cache stats`
/// reports (live blobs only; stats records and locks are not counted
/// and never evicted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcSummary {
    /// Blobs present when the pass started.
    pub examined_blobs: u64,
    /// Their total size in bytes.
    pub examined_bytes: u64,
    /// Blobs evicted (LRU-first) to reach the budget.
    pub evicted_blobs: u64,
    /// Bytes reclaimed by those evictions.
    pub evicted_bytes: u64,
    /// Blobs remaining after the pass.
    pub remaining_blobs: u64,
    /// Bytes remaining after the pass (≤ the budget, unless a single
    /// blob is larger than the budget — blobs are evicted whole). Blobs
    /// other handles wrote during the pass are kept and not counted.
    pub remaining_bytes: u64,
}

/// Holds `gc.lock` for the duration of a pass; removed on drop.
#[derive(Debug)]
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Takes the directory's advisory gc lock with `O_EXCL` semantics.
///
/// A held lock younger than [`LOCK_STALE_SECS`] yields
/// [`CacheError::Busy`]; an older one is stolen (its holder crashed).
fn acquire_lock(dir: &Path) -> Result<LockGuard, CacheError> {
    let path = dir.join("gc.lock");
    let io_err = |op: &str, e: std::io::Error| CacheError::Io {
        op: op.to_owned(),
        path: path.display().to_string(),
        message: e.to_string(),
    };
    std::fs::create_dir_all(dir).map_err(|e| CacheError::Io {
        op: "create cache dir".to_owned(),
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    for attempt in 0..2 {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(_) => return Ok(LockGuard { path }),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let held = std::fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
                    .unwrap_or(Duration::ZERO);
                if attempt == 0 && held.as_secs() >= LOCK_STALE_SECS {
                    // the holder crashed mid-pass; reclaim and retry once
                    std::fs::remove_file(&path).ok();
                    continue;
                }
                return Err(CacheError::Busy {
                    held_secs: held.as_secs(),
                });
            }
            Err(e) => return Err(io_err("create lock", e)),
        }
    }
    unreachable!("the second attempt always returns");
}

impl Cache {
    /// Evicts least-recently-used blobs until the directory's blob bytes
    /// are ≤ `max_bytes`, then compacts the survivors into a fresh log,
    /// under the directory's advisory lock. Also sweeps abandoned temp
    /// files (crashed writers) and loose blobs of the old file-per-blob
    /// layout. Blobs are evicted whole, least recent first (ties broken
    /// by key for determinism); an evicted blob is simply a future miss.
    ///
    /// # Errors
    /// [`CacheError::Disabled`] without a directory, [`CacheError::Busy`]
    /// when another process holds the lock, [`CacheError::Io`] when the
    /// lock cannot be created.
    pub fn gc(&self, max_bytes: u64) -> Result<GcSummary, CacheError> {
        let inner = self.inner().ok_or(CacheError::Disabled)?;
        let _lock = acquire_lock(&inner.dir)?;
        Ok(gc_locked(inner, max_bytes))
    }

    /// Best-effort upkeep after a write: on a handle opened with a
    /// write-time capacity, evicts least-recently-used blobs until the
    /// blob bytes fit it, and compacts a log whose dead records outweigh
    /// its live ones. Skips silently when neither is due or another
    /// process holds the gc lock (that pass does the upkeep).
    pub(crate) fn maintain(&self) {
        let Some(inner) = self.inner() else {
            return;
        };
        let due = |store: &Store| {
            store.bloated() || inner.capacity_bytes.is_some_and(|cap| store.size().1 > cap)
        };
        if !due(&inner.store()) {
            return;
        }
        let Ok(_lock) = acquire_lock(&inner.dir) else {
            return;
        };
        let mut store = inner.store();
        store.refresh(&inner.dir);
        if let Some(cap) = inner.capacity_bytes {
            let live = store.by_recency();
            let victims = lru_victims(&live, store.size().1, cap);
            let evicted = store.evict(&inner.dir, &live[..victims]);
            inner
                .counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        if store.bloated() {
            let live = store.by_recency();
            store.compact(&inner.dir, &live);
        }
    }
}

/// How many of `live` (least recently used first, `total` bytes in all)
/// must go for the rest to fit `budget`.
fn lru_victims(live: &[(CacheKey, Loc)], total: u64, budget: u64) -> usize {
    let mut remaining = total;
    live.iter()
        .take_while(|(_, loc)| {
            let over = remaining > budget;
            remaining -= loc.len();
            over
        })
        .count()
}

/// The gc pass itself; the caller holds the lock.
fn gc_locked(inner: &Inner, max_bytes: u64) -> GcSummary {
    sweep_stale_temps(&inner.dir);
    crate::segment::remove_loose_blobs(&inner.dir);
    let mut store = inner.store();
    store.refresh(&inner.dir);
    let live = store.by_recency();
    let (examined_blobs, examined_bytes) = store.size();
    let victims = lru_victims(&live, examined_bytes, max_bytes);
    let evicted_bytes = live[..victims].iter().map(|(_, loc)| loc.len()).sum();
    let (remaining_blobs, remaining_bytes) = store.compact(&inner.dir, &live[victims..]);
    inner
        .counters
        .evictions
        .fetch_add(victims as u64, Ordering::Relaxed);
    GcSummary {
        examined_blobs,
        examined_bytes,
        evicted_blobs: victims as u64,
        evicted_bytes,
        remaining_blobs,
        remaining_bytes,
    }
}

/// Removes temp files whose writer evidently crashed (older than
/// [`TEMP_STALE_SECS`]). Fresh temps belong to live writers and are left
/// alone.
fn sweep_stale_temps(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let now = SystemTime::now();
    for path in entries.filter_map(|entry| entry.ok().map(|e| e.path())) {
        if crate::classify(&path) != crate::RecordKind::Temp {
            continue;
        }
        let stale = std::fs::metadata(&path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .is_some_and(|age| age.as_secs() >= TEMP_STALE_SECS);
        if stale {
            std::fs::remove_file(&path).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_is_exclusive_and_released_on_drop() {
        let dir = std::env::temp_dir().join(format!("apx_gc_lock_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let guard = acquire_lock(&dir).unwrap();
        match acquire_lock(&dir) {
            Err(CacheError::Busy { held_secs }) => assert!(held_secs < LOCK_STALE_SECS),
            other => panic!("second acquire must be Busy, got {other:?}"),
        }
        drop(guard);
        let again = acquire_lock(&dir);
        assert!(again.is_ok(), "lock must be free after drop");
        drop(again);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_is_stolen() {
        let dir = std::env::temp_dir().join(format!("apx_gc_stale_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let lock = dir.join("gc.lock");
        std::fs::write(&lock, "").unwrap();
        let crashed = SystemTime::now() - Duration::from_secs(LOCK_STALE_SECS + 60);
        let file = std::fs::OpenOptions::new().write(true).open(&lock).unwrap();
        file.set_modified(crashed).unwrap();
        drop(file);
        let guard = acquire_lock(&dir);
        assert!(guard.is_ok(), "a stale lock must be reclaimed: {guard:?}");
        drop(guard);
        std::fs::remove_dir_all(&dir).ok();
    }
}
