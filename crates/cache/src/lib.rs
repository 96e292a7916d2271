//! Content-addressed, on-disk JSON blob cache for characterization
//! results — fleet-grade: portable archives, size-capped eviction, and
//! concurrent-writer safety.
//!
//! PR 2 made every [`OperatorReport`] a **pure function of its inputs**:
//! reports are bit-identical for any thread count under a fixed seed, so
//! an already-characterized operator configuration never needs to be
//! re-swept — it can be looked up by the hash of its inputs. This crate
//! provides that lookup:
//!
//! * [`KeyBuilder`] / [`CacheKey`] — a stable (process-, platform- and
//!   run-independent) 128-bit hash over labelled key material. Callers
//!   feed in everything a result depends on (operator config, seed,
//!   sample counts, cell-library fingerprint, schema version); two runs
//!   that would compute the same result derive the same key.
//! * [`Cache`] — a directory holding one append-only log of records,
//!   `records.seg`, which every handle of every process appends to with
//!   `O_APPEND`, so a run that stores a thousand blobs creates no file
//!   per blob. A record is one framed `write`: a header with the key, a
//!   stamp, the body length and checksums, then the blob's pretty JSON
//!   (see `segment.rs` for the exact layout). Lookups go through an
//!   in-memory index built by streaming the log; bodies stay on disk.
//!   The newest blob of a key is its live blob, and a blob's recency is
//!   the newest stamp of its records: its write, or a touch record the
//!   first hit per handle appends. Dead records (touches, superseded
//!   and evicted blobs) are compacted away once they outweigh the live
//!   ones. Missing directories, unwritable disks and torn or corrupted
//!   records never fail the caller — the worst case is always
//!   "recompute".
//!   [`Cache::read_through`] is the one cached read: it coalesces
//!   identical in-flight reads, so each record is computed once per run.
//! * **Fleet operations** — [`Cache::pack`] exports blobs as one
//!   portable, fingerprint-stamped archive and [`Cache::import`] brings
//!   one in with per-blob verification (see [`mod@archive`]);
//!   [`Cache::gc`] evicts LRU-first down to a byte budget and compacts
//!   the survivors into a fresh log under an advisory lock (see
//!   [`mod@gc`]).
//!
//! Loose `<key>.json` blobs of the earlier file-per-blob layout are
//! never read: a cache directory of that layout goes cold once, and
//! [`Cache::clear`] and [`Cache::gc`] delete its files. Archives carry
//! blobs across the change — their format never depended on the layout.
//!
//! Handles are opened through the [`CacheConfig`] builder:
//!
//! ```no_run
//! use apx_cache::Cache;
//! // explicit directory, 256 MiB write-time cap:
//! let cache = Cache::builder()
//!     .dir("/tmp/apxperf-cache")
//!     .capacity_bytes(256 << 20)
//!     .open();
//! // environment resolution ($APXPERF_CACHE_DIR, XDG, $HOME) instead:
//! let env_cache = Cache::builder().from_env().open();
//! // no cache at all (`--no-cache`):
//! let off = Cache::default();
//! assert!(!off.is_enabled());
//! ```
//!
//! # Example
//!
//! ```
//! use apx_cache::{Cache, KeyBuilder};
//!
//! let dir = std::env::temp_dir().join(format!("apx_cache_doc_{}", std::process::id()));
//! let cache = Cache::builder().dir(&dir).open();
//!
//! let key = KeyBuilder::new("demo-schema/v1")
//!     .push_str("operator", "ACA(16,4)")
//!     .push_u64("seed", 0xDA7E_2017)
//!     .push_u64("samples", 100_000)
//!     .finish();
//!
//! assert_eq!(cache.get::<Vec<u64>>(&key), None); // cold
//! cache.put(&key, &vec![1u64, 2, 3]);
//! assert_eq!(cache.get::<Vec<u64>>(&key), Some(vec![1, 2, 3])); // hit
//! assert_eq!(cache.stats().hits, 1);
//!
//! cache.clear();
//! std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! [`OperatorReport`]: https://docs.rs/apx_core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
mod error;
pub mod gc;
mod segment;

pub use archive::{ArchiveStamp, ImportMode, ImportSummary, PackSummary};
pub use error::CacheError;
pub use gc::GcSummary;

use segment::Store;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// FNV-1a 64-bit offset basis (stream 0).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Offset basis of the second, independent stream — the FNV offset run
/// through a splitmix64 round so the two streams start in unrelated
/// states.
const FNV_OFFSET_B: u64 = 0x9E37_79B9_7F4A_7C15 ^ FNV_OFFSET;

/// A 128-bit content hash identifying one cached result.
///
/// Keys print as 32 lowercase hex digits (the blob file stem). Equality
/// of keys is the cache's notion of "same inputs": [`KeyBuilder`]
/// guarantees the hash is a pure function of the pushed material, stable
/// across processes, platforms and releases of this crate (any change to
/// the hashing scheme must be treated as a cache-schema change).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// The key as 32 lowercase hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// The key whose [`hex`](CacheKey::hex) is `hex` (32 lowercase hex
    /// digits), if any.
    pub(crate) fn from_hex(hex: &str) -> Option<CacheKey> {
        let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
        if hex.len() != 32 || !hex.bytes().all(lower_hex) {
            return None;
        }
        Some(CacheKey {
            hi: u64::from_str_radix(&hex[..16], 16).ok()?,
            lo: u64::from_str_radix(&hex[16..], 16).ok()?,
        })
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Accumulates labelled key material into a [`CacheKey`].
///
/// Each `push_*` call feeds `label = value ;` into two independent
/// FNV-1a streams, so reordered, relabelled or differently-split material
/// produces a different key. Values are encoded as text (decimal for
/// integers, JSON for structured values), which keeps the hash
/// independent of endianness and in-memory layout.
///
/// # Example
/// ```
/// use apx_cache::KeyBuilder;
/// let a = KeyBuilder::new("s/v1").push_u64("seed", 7).finish();
/// let b = KeyBuilder::new("s/v1").push_u64("seed", 8).finish();
/// let c = KeyBuilder::new("s/v2").push_u64("seed", 7).finish();
/// assert_ne!(a, b); // different value
/// assert_ne!(a, c); // different schema
/// assert_eq!(a, KeyBuilder::new("s/v1").push_u64("seed", 7).finish());
/// ```
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    a: u64,
    b: u64,
}

impl KeyBuilder {
    /// Starts a key under a schema tag. The tag names the blob's shape
    /// and semantics; bump it whenever the serialized form (or the
    /// meaning of any keyed field) changes, so stale blobs miss instead
    /// of deserializing into wrong data.
    #[must_use]
    pub fn new(schema: &str) -> Self {
        KeyBuilder {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        }
        .push_str("schema", schema)
    }

    fn push_bytes(mut self, bytes: &[u8]) -> Self {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds one labelled string field.
    #[must_use]
    pub fn push_str(self, label: &str, value: &str) -> Self {
        self.push_bytes(label.as_bytes())
            .push_bytes(b"=")
            .push_bytes(value.as_bytes())
            .push_bytes(b";")
    }

    /// Feeds one labelled integer field (decimal encoding).
    #[must_use]
    pub fn push_u64(self, label: &str, value: u64) -> Self {
        self.push_str(label, &value.to_string())
    }

    /// Feeds one labelled structured field through its canonical compact
    /// JSON encoding.
    #[must_use]
    pub fn push_json<T: Serialize>(self, label: &str, value: &T) -> Self {
        let json = serde_json::to_string(value)
            .expect("serialization to JSON is infallible for key material");
        self.push_str(label, &json)
    }

    /// Finalizes the accumulated material into a [`CacheKey`].
    #[must_use]
    pub fn finish(self) -> CacheKey {
        CacheKey {
            hi: self.a,
            lo: self.b,
        }
    }
}

/// One cache handle's view of its traffic **and** its directory's size.
///
/// `hits`/`misses`/`writes`/`evictions`/`imports` are this handle's
/// in-process counters (shared by clones); `blobs`/`bytes` are measured
/// from the directory's log at the moment [`Cache::stats`] is
/// called, counting each key's live blob once — the same size `gc`
/// budgets against, so `cache stats` and `gc --max-bytes` agree on one
/// definition of size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Blobs found and successfully deserialized.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, unreadable or corrupt).
    pub misses: u64,
    /// Blobs written (touch records are not writes).
    pub writes: u64,
    /// Blobs evicted by this handle's gc passes (explicit `gc` calls and
    /// write-time capacity enforcement).
    pub evictions: u64,
    /// Blobs imported from archives by this handle.
    pub imports: u64,
    /// Keys with a live blob in the directory.
    pub blobs: u64,
    /// The total size of those blobs' bodies in bytes: what the same
    /// blobs took as one `<key>.json` file each.
    pub bytes: u64,
}

#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) writes: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) imports: AtomicU64,
}

#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) dir: PathBuf,
    pub(crate) counters: Counters,
    pub(crate) capacity_bytes: Option<u64>,
    /// The index over the directory's log, and the log's descriptor.
    store: Mutex<Store>,
    /// Keys whose [`Cache::read_through`] is in progress on this handle
    /// or a clone of it.
    claimed: Mutex<HashSet<CacheKey>>,
    /// Signalled whenever a claim is released.
    released: Condvar,
}

/// How [`Cache::read_through`] obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from a blob that was already stored.
    Hit,
    /// Served from the blob an identical in-flight read stored while
    /// this call waited for it.
    Coalesced,
    /// Computed by this call (and stored, when the cache is enabled).
    Computed,
}

/// A claimed key; dropping it releases the key and wakes the waiters,
/// on unwinding too, so a panicking leader never strands them.
struct Claim<'a> {
    inner: &'a Inner,
    key: CacheKey,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        // the table lock is never held across user code, so poisoning
        // cannot leave the set half-updated
        self.inner
            .claimed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        self.inner.released.notify_all();
    }
}

impl Inner {
    /// The store. No user code runs under its lock, and a reader
    /// re-verifies every body it serves, so a poisoned lock leaves at worst
    /// a stale index.
    pub(crate) fn store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims `key`, first waiting until no other read-through holds it.
    /// Returns the claim and whether this call had to wait.
    fn claim(&self, key: CacheKey) -> (Claim<'_>, bool) {
        let mut claimed = self.claimed.lock().unwrap_or_else(PoisonError::into_inner);
        let mut waited = false;
        while !claimed.insert(key) {
            waited = true;
            claimed = self
                .released
                .wait(claimed)
                .unwrap_or_else(PoisonError::into_inner);
        }
        (Claim { inner: self, key }, waited)
    }
}

/// What one file inside a cache directory is.
///
/// The directory holds the record log, run-stats records, the gc lock,
/// in-flight atomic-write temps, and whatever a user drops in by hand.
/// Every operation that enumerates the directory classifies through this
/// enum so each kind is handled by exactly the operations that own it:
/// lookups, `stats`, `pack`, `gc` and `clear` read only
/// the [`RecordKind::Segment`], gc's temp sweep removes only stale
/// [`RecordKind::Temp`]s, and [`RecordKind::Other`] files are never
/// deleted by anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// The append-only log of blob records: `records.seg`.
    Segment,
    /// A loose blob of the old file-per-blob layout:
    /// `<32 lowercase hex>.json`. Never read or written; `clear` and `gc`
    /// delete it.
    Blob,
    /// A persisted last-run stats record: `last-run-stats.*`.
    RunStats,
    /// An advisory lock: `*.lock`.
    Lock,
    /// An in-flight (or abandoned) atomic-write temp: contains `.tmp.`.
    Temp,
    /// Anything else; foreign files are left untouched.
    Other,
}

/// Classifies one path (by file name alone) into a [`RecordKind`].
#[must_use]
pub fn classify(path: &Path) -> RecordKind {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return RecordKind::Other;
    };
    // temps first: a stats record's in-flight temp ("last-run-stats.v2
    // .tmp.<pid>.<seq>") is a temp, not a stats record
    if name.contains(".tmp.") {
        return RecordKind::Temp;
    }
    if name.starts_with("last-run-stats.") {
        return RecordKind::RunStats;
    }
    if name.ends_with(".lock") {
        return RecordKind::Lock;
    }
    if name == segment::LOG {
        return RecordKind::Segment;
    }
    if name
        .strip_suffix(".json")
        .and_then(CacheKey::from_hex)
        .is_some()
    {
        return RecordKind::Blob;
    }
    RecordKind::Other
}

/// Opens a [`Cache`]: where it lives, whether the environment may
/// decide, and how big it may grow. Built by [`Cache::builder`].
///
/// Resolution order in [`CacheConfig::open`]:
/// 1. an explicit [`dir`](CacheConfig::dir) always wins;
/// 2. otherwise, with [`from_env`](CacheConfig::from_env), the
///    directory comes from `$APXPERF_CACHE_DIR`, then
///    `$XDG_CACHE_HOME/apxperf`, then `$HOME/.cache/apxperf`
///    (see [`Cache::default_dir`]);
/// 3. otherwise the handle is disabled (every `get` misses, every
///    `put` is dropped) — the default, and what `--no-cache` maps to.
///
/// A capacity set via [`capacity_bytes`](CacheConfig::capacity_bytes)
/// (or, under `from_env`, the `APXPERF_CACHE_CAPACITY` variable, in
/// bytes) makes every write re-cap the directory LRU-first, so the
/// cache never outgrows its budget between explicit `gc` runs.
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    dir: Option<PathBuf>,
    from_env: bool,
    capacity_bytes: Option<u64>,
}

impl CacheConfig {
    /// Roots the cache at `dir` (created on first write). Overrides
    /// environment resolution.
    #[must_use]
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Lets the environment supply whatever is not set explicitly: the
    /// directory (`$APXPERF_CACHE_DIR` / XDG / `$HOME`) and the
    /// write-time capacity (`$APXPERF_CACHE_CAPACITY`, bytes).
    #[must_use]
    pub fn from_env(mut self) -> Self {
        self.from_env = true;
        self
    }

    /// Caps the directory at `bytes`: a write that takes the blob bytes
    /// over the budget evicts least-recently-used blobs until they fit.
    #[must_use]
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.capacity_bytes = Some(bytes);
        self
    }

    /// Resolves the configuration into a handle. Never fails: an
    /// unresolvable directory yields a disabled cache, which is the
    /// correct degraded mode everywhere this crate is used.
    #[must_use]
    pub fn open(self) -> Cache {
        let dir = self
            .dir
            .or_else(|| self.from_env.then(Cache::default_dir).flatten());
        let capacity_bytes = self.capacity_bytes.or_else(|| {
            self.from_env
                .then(|| {
                    std::env::var("APXPERF_CACHE_CAPACITY")
                        .ok()
                        .and_then(|v| v.trim().parse().ok())
                })
                .flatten()
        });
        match dir {
            Some(dir) => Cache {
                inner: Some(Arc::new(Inner {
                    dir,
                    counters: Counters::default(),
                    capacity_bytes,
                    store: Mutex::default(),
                    claimed: Mutex::default(),
                    released: Condvar::new(),
                })),
            },
            None => Cache { inner: None },
        }
    }
}

/// A content-addressed store of JSON blobs under one directory.
///
/// * **Cheap to clone** — clones share the directory, the index, the
///   log's descriptor and the counters, so a sweep can hand one handle to every
///   parallel task.
/// * **Best-effort** on the hot path — `get`/`put` IO failures (missing
///   directory, full or read-only disk, corrupted blob) are never
///   surfaced as errors; a failed read counts as a miss and a failed
///   write is dropped. The caller's fallback is always "recompute".
///   Fleet operations ([`Cache::pack`], [`Cache::import`],
///   [`Cache::gc`]) move real data and delete files, so they *do*
///   return [`CacheError`]s.
/// * **Self-validating** — every record carries a checksum, so a torn
///   or corrupted blob is a miss, and so is one that no longer
///   deserializes (schema drift that slipped past the key). The next
///   `put` of the key appends a newer blob that replaces it.
/// * **Safe under concurrent writers** — every record is one `O_APPEND`
///   `write` and carries checksums, and gc runs under an advisory lock,
///   so parallel processes over one directory see only whole records.
///
/// The default handle is disabled (no directory); see the
/// [crate docs](crate) and [`Cache::builder`] for opening one.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    inner: Option<Arc<Inner>>,
}

impl Cache {
    /// Starts a [`CacheConfig`] builder; finish with
    /// [`CacheConfig::open`].
    #[must_use]
    pub fn builder() -> CacheConfig {
        CacheConfig::default()
    }

    /// The default on-disk location, in precedence order:
    /// `$APXPERF_CACHE_DIR`, `$XDG_CACHE_HOME/apxperf`,
    /// `$HOME/.cache/apxperf`. `None` when none of the variables is set
    /// (e.g. a bare CI environment), in which case
    /// [`CacheConfig::open`] degrades to a disabled handle.
    #[must_use]
    pub fn default_dir() -> Option<PathBuf> {
        let nonempty = |var: &str| std::env::var_os(var).filter(|v| !v.is_empty());
        if let Some(dir) = nonempty("APXPERF_CACHE_DIR") {
            return Some(PathBuf::from(dir));
        }
        if let Some(base) = nonempty("XDG_CACHE_HOME") {
            return Some(PathBuf::from(base).join("apxperf"));
        }
        nonempty("HOME").map(|home| PathBuf::from(home).join(".cache").join("apxperf"))
    }

    /// Whether lookups can ever hit (i.e. the cache has a directory).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The backing directory (`None` for a disabled cache).
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.inner.as_deref().map(|inner| inner.dir.as_path())
    }

    pub(crate) fn inner(&self) -> Option<&Inner> {
        self.inner.as_deref()
    }

    /// Looks up `key` and deserializes its blob into `T`.
    ///
    /// Absent, unreadable, corrupt and wrong-shaped blobs all return
    /// `None` (and count as misses); a blob that fails its checksum is
    /// dropped from the index, so the next `put` of the key replaces it.
    /// A key this handle has not seen yet makes the index catch up with
    /// the log first, reading only what was appended since the last
    /// read. The first hit per key on a handle appends a small touch
    /// record, the last-use mark [`Cache::gc`]'s LRU order evicts by.
    #[must_use]
    pub fn get<T: Deserialize>(&self, key: &CacheKey) -> Option<T> {
        let inner = self.inner.as_deref()?;
        let found = {
            let mut store = inner.store();
            store.ensure_loaded(&inner.dir);
            store.get(key).or_else(|| {
                store.refresh(&inner.dir);
                store.get(key)
            })
        };
        let parsed = found.as_ref().and_then(|(file, loc)| {
            let body = segment::read_body(file, loc);
            if body.is_none() {
                inner.store().forget(key, loc);
            }
            let text = String::from_utf8(body?).ok()?;
            serde_json::from_str::<T>(&text).ok()
        });
        match parsed {
            Some(value) => {
                if inner.store().touch(&inner.dir, *key) {
                    self.maintain();
                }
                inner.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                inner.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The one cached read behind every content-addressed record: looks
    /// `key()` up, serves the blob when `describes` accepts it, and
    /// otherwise computes, stores and returns a fresh value.
    ///
    /// `describes` is the collision guard: a blob that parses but
    /// describes another input (a hash collision, or a manually copied
    /// file) is recomputed and overwritten instead of served. A disabled
    /// cache computes without deriving the key and never waits.
    ///
    /// Identical reads coalesce. The key is claimed before the lookup,
    /// and a call that finds it claimed by a clone of this handle waits
    /// for the release, then runs its own lookup, which hits on the
    /// blob the leader stored ([`Lookup::Coalesced`]). Every call looks
    /// up exactly once, so misses equal the distinct absent keys and the
    /// counters do not depend on thread timing. If the leader stored
    /// nothing (its `compute` panicked, or the write failed), the waiter
    /// computes instead.
    ///
    /// Lock order: a `compute` may itself read through other keys (a
    /// workload cell reads its operator reports), but a report's
    /// `compute` reads through nothing and no `compute` reads its own
    /// key, so waits form no cycle. Waiters block on a condvar, never on
    /// pool work, and every engine region runs its own threads, so a
    /// leader always has the workers it needs.
    pub fn read_through<T: Serialize + Deserialize>(
        &self,
        key: impl FnOnce() -> CacheKey,
        describes: impl FnOnce(&T) -> bool,
        compute: impl FnOnce() -> T,
    ) -> (T, Lookup) {
        let Some(inner) = self.inner.as_deref() else {
            return (compute(), Lookup::Computed);
        };
        let key = key();
        let (_claim, waited) = inner.claim(key);
        if let Some(value) = self.get::<T>(&key) {
            if describes(&value) {
                let lookup = if waited {
                    Lookup::Coalesced
                } else {
                    Lookup::Hit
                };
                return (value, lookup);
            }
        }
        let value = compute();
        self.put(&key, &value);
        (value, Lookup::Computed)
    }

    /// Writes `body` to `name` inside the cache directory via a
    /// per-call-unique temp file and an atomic rename: a concurrent
    /// reader sees either the old record or the new one, never a torn
    /// write. Returns whether the record landed.
    fn write_file_atomic(&self, name: &str, body: &str) -> bool {
        let Some(inner) = self.inner.as_deref() else {
            return false;
        };
        if std::fs::create_dir_all(&inner.dir).is_err() {
            return false;
        }
        let path = inner.dir.join(name);
        // unique per process AND per call: concurrent same-name writes
        // (other processes sharing the directory persisting their stats)
        // must never share a temp file, or one writer's truncate could tear
        // another's in-flight rename
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = inner
            .dir
            .join(format!("{name}.tmp.{}.{seq}", std::process::id()));
        if std::fs::write(&tmp, body).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            true
        } else {
            std::fs::remove_file(&tmp).ok();
            false
        }
    }

    /// Stores `value` under `key`: its pretty JSON, plus a newline, is
    /// appended to the log as one record. Failures are dropped — the
    /// cache is an accelerator, not a system of record. On a handle
    /// opened with a capacity, a write that takes the directory over it
    /// evicts down to it, LRU-first.
    pub fn put<T: Serialize>(&self, key: &CacheKey, value: &T) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let Ok(json) = serde_json::to_string_pretty(value) else {
            return;
        };
        let landed = {
            let mut store = inner.store();
            store.ensure_loaded(&inner.dir);
            store.append(
                &inner.dir,
                segment::Kind::Put,
                *key,
                (json + "\n").as_bytes(),
            )
        };
        if landed {
            inner.counters.writes.fetch_add(1, Ordering::Relaxed);
            self.maintain();
        }
    }

    /// Number of keys with a live blob (stats records, locks and temps
    /// are not blobs).
    #[must_use]
    pub fn len(&self) -> usize {
        self.measure().0 as usize
    }

    /// Whether the cache holds no blobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deletes every blob — the log, and any loose blob of the old
    /// file-per-blob layout — and returns how many live blobs went.
    /// Stats records, locks, in-flight temps and foreign files stay.
    pub fn clear(&self) -> usize {
        self.inner
            .as_deref()
            .map_or(0, |inner| inner.store().clear(&inner.dir))
    }

    /// File (inside the cache directory) holding the counters of the
    /// most recent run that called [`Cache::persist_stats`]. The
    /// `.v2` suffix versions the record's shape (v2 added eviction /
    /// import / size fields; the vendored serde errors on missing
    /// fields, so old `*.v1` records are simply ignored, never
    /// misparsed), and the `last-run-stats.` prefix is what
    /// [`classify`] keys the [`RecordKind::RunStats`] class on.
    const RUN_STATS_FILE: &'static str = "last-run-stats.v2";

    /// Persists a snapshot of this handle's [`Cache::stats`] as the
    /// directory's "last run" record, so a later process (e.g. `apxperf
    /// cache stats --format json`, or a CI assertion) can read what the
    /// previous run's cache traffic was. Best-effort, and atomic through
    /// a temp file and a rename; a disabled cache ignores the call.
    pub fn persist_stats(&self, stats: &CacheStats) {
        if let Ok(json) = serde_json::to_string_pretty(stats) {
            self.write_file_atomic(Cache::RUN_STATS_FILE, &(json + "\n"));
        }
    }

    /// The counters persisted by the most recent run that called
    /// [`Cache::persist_stats`] on this directory, if any.
    #[must_use]
    pub fn last_run_stats(&self) -> Option<CacheStats> {
        let inner = self.inner.as_deref()?;
        let text = std::fs::read_to_string(inner.dir.join(Cache::RUN_STATS_FILE)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// This handle's counters (shared across clones) plus the
    /// directory's current blob count and byte size, measured with the
    /// same definition [`Cache::gc`] budgets against.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        match self.inner.as_deref() {
            Some(inner) => {
                let (blobs, bytes) = self.measure();
                CacheStats {
                    hits: inner.counters.hits.load(Ordering::Relaxed),
                    misses: inner.counters.misses.load(Ordering::Relaxed),
                    writes: inner.counters.writes.load(Ordering::Relaxed),
                    evictions: inner.counters.evictions.load(Ordering::Relaxed),
                    imports: inner.counters.imports.load(Ordering::Relaxed),
                    blobs,
                    bytes,
                }
            }
            None => CacheStats::default(),
        }
    }

    /// The directory's live blob count and their total body bytes — the
    /// one size definition shared by `stats`, `gc` and the write-time cap.
    fn measure(&self) -> (u64, u64) {
        self.inner.as_deref().map_or((0, 0), |inner| {
            let mut store = inner.store();
            store.refresh(&inner.dir);
            store.size()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::SystemTime;

    static TEST_DIR_ID: AtomicUsize = AtomicUsize::new(0);

    /// A unique, self-cleaning temp directory per test.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> Self {
            let id = TEST_DIR_ID.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("apx_cache_test_{}_{id}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn cache_at(dir: &Path) -> Cache {
        Cache::builder().dir(dir).open()
    }

    fn key(tag: &str) -> CacheKey {
        KeyBuilder::new("test/v1").push_str("tag", tag).finish()
    }

    #[test]
    fn put_then_get_roundtrips() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        let k = key("roundtrip");
        assert_eq!(cache.get::<Vec<u64>>(&k), None);
        cache.put(&k, &vec![1u64, 2, 3]);
        assert_eq!(cache.get::<Vec<u64>>(&k), Some(vec![1, 2, 3]));
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.writes, stats.blobs),
            (1, 1, 1, 1)
        );
        assert!(stats.bytes > 0, "a stored blob has measurable size");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_depend_on_labels_values_and_order() {
        let base = KeyBuilder::new("s").push_str("a", "1").push_str("b", "2");
        let same = KeyBuilder::new("s").push_str("a", "1").push_str("b", "2");
        assert_eq!(base.clone().finish(), same.finish());
        let swapped = KeyBuilder::new("s").push_str("b", "2").push_str("a", "1");
        assert_ne!(base.clone().finish(), swapped.finish());
        let relabelled = KeyBuilder::new("s").push_str("a1", "").push_str("b", "2");
        assert_ne!(base.clone().finish(), relabelled.finish());
        let json = KeyBuilder::new("s").push_json("a", &(1u64, 2u64)).finish();
        assert_ne!(base.finish(), json);
    }

    #[test]
    fn key_hex_is_stable_and_32_digits() {
        let k = KeyBuilder::new("pinned/v1").push_u64("x", 42).finish();
        assert_eq!(k.hex().len(), 32);
        assert_eq!(k.hex(), k.to_string());
        // pinned value: the hash must never change across releases, or
        // every existing cache silently goes cold
        assert_eq!(k, KeyBuilder::new("pinned/v1").push_u64("x", 42).finish());
    }

    /// The record logs of `dir`, by name.
    fn segments(dir: &Path) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| classify(p) == RecordKind::Segment)
            .collect();
        paths.sort();
        paths
    }

    #[test]
    fn a_corrupted_blob_is_a_miss_and_the_next_put_heals_it() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        let k = key("corrupt");
        cache.put(&k, &vec![9u64]);
        let [seg] = segments(&tmp.0).try_into().unwrap();
        // flip the stored 9 inside the body
        let mut bytes = std::fs::read(&seg).unwrap();
        let nine = bytes.iter().rposition(|&b| b == b'9').unwrap();
        bytes[nine] = b'8';
        std::fs::write(&seg, &bytes).unwrap();
        assert_eq!(cache_at(&tmp.0).len(), 0, "a corrupt blob is not counted");
        for handle in [cache_at(&tmp.0), cache] {
            assert_eq!(handle.get::<Vec<u64>>(&k), None, "checksum caught it");
            assert_eq!(handle.stats().misses, 1);
            handle.put(&k, &vec![7u64]);
            assert_eq!(handle.get::<Vec<u64>>(&k), Some(vec![7]));
        }
        assert_eq!(cache_at(&tmp.0).get::<Vec<u64>>(&k), Some(vec![7]));
    }

    #[test]
    fn a_torn_tail_loses_only_the_torn_record_and_the_next_put_heals_it() {
        let tmp = TempDir::new();
        let writer = cache_at(&tmp.0);
        for i in 0..3u64 {
            writer.put(&key(&format!("torn{i}")), &vec![i; 32]);
        }
        let [seg] = segments(&tmp.0).try_into().unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        // cut the last record in the middle of its body
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 40)
            .unwrap();
        // (no hits before the heal: their touch records would grow the
        // log back past the cut)
        let reader = cache_at(&tmp.0);
        assert_eq!(reader.get::<Vec<u64>>(&key("torn2")), None);
        assert_eq!(reader.len(), 2, "the torn record is not counted");
        // the writer's handle still points at the cut record: a miss too
        assert_eq!(writer.get::<Vec<u64>>(&key("torn2")), None);
        // its next put lands after the torn bytes, and every handle finds
        // it past them
        writer.put(&key("torn2"), &vec![2u64; 32]);
        writer.put(&key("torn3"), &vec![3u64; 2]);
        for handle in [&writer, &reader, &cache_at(&tmp.0)] {
            for i in 0..3u64 {
                let want = vec![i; 32];
                assert_eq!(
                    handle.get::<Vec<u64>>(&key(&format!("torn{i}"))),
                    Some(want)
                );
            }
            assert_eq!(handle.get::<Vec<u64>>(&key("torn3")), Some(vec![3; 2]));
            assert_eq!(handle.len(), 4);
        }
    }

    #[test]
    fn wrong_shape_blob_is_a_miss() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        let k = key("shape");
        cache.put(&k, &"a string".to_owned());
        // valid JSON, wrong type for the requested T
        assert_eq!(cache.get::<Vec<u64>>(&k), None);
    }

    #[test]
    fn disabled_cache_never_stores_or_hits() {
        let cache = Cache::default();
        let k = key("disabled");
        cache.put(&k, &vec![1u64]);
        assert_eq!(cache.get::<Vec<u64>>(&k), None);
        assert!(!cache.is_enabled());
        assert_eq!(cache.dir(), None);
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn builder_explicit_dir_beats_env_and_default_is_disabled() {
        let tmp = TempDir::new();
        let explicit = Cache::builder().dir(&tmp.0).from_env().open();
        assert_eq!(explicit.dir(), Some(tmp.0.as_path()));
        assert!(!Cache::builder().open().is_enabled());
    }

    #[test]
    fn clear_removes_all_blobs() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        for i in 0..5u64 {
            cache.put(&key(&format!("blob{i}")), &i);
        }
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.clear(), 5);
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_and_len_touch_only_blob_records() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        cache.put(&key("real"), &1u64);
        cache.persist_stats(&cache.stats());
        // foreign and infrastructure files of every other kind, and a
        // loose blob of the old layout, which is never read:
        std::fs::write(tmp.0.join("gc.lock"), "").unwrap();
        std::fs::write(tmp.0.join(format!("{}.tmp.1.2", key("real"))), "{").unwrap();
        std::fs::write(tmp.0.join("notes.json"), "{}").unwrap(); // not a 32-hex stem
        std::fs::write(tmp.0.join("README"), "hands off").unwrap();
        let loose = tmp.0.join(format!("{}.json", key("loose")));
        std::fs::write(&loose, "1\n").unwrap();
        assert_eq!(cache_at(&tmp.0).get::<u64>(&key("loose")), None);
        assert_eq!(cache.len(), 1, "only the real blob counts");
        assert_eq!(cache.clear(), 1, "only the real blob is counted");
        assert!(segments(&tmp.0).is_empty(), "the log is gone");
        assert!(!loose.exists(), "the old layout's blob is gone");
        // everything else survives, and stats still parse sanely
        assert!(tmp.0.join(Cache::RUN_STATS_FILE).exists());
        assert!(tmp.0.join("gc.lock").exists());
        assert!(tmp.0.join("notes.json").exists());
        assert!(tmp.0.join("README").exists());
        let stats = cache.stats();
        assert_eq!((stats.blobs, stats.bytes), (0, 0));
        assert!(cache.last_run_stats().is_some());
    }

    #[test]
    fn classification_covers_every_record_kind() {
        let class = |name: &str| classify(Path::new(name));
        assert_eq!(class("records.seg"), RecordKind::Segment);
        assert_eq!(class("records.seg.tmp.7.9"), RecordKind::Temp);
        assert_eq!(class("00000000000000ff-7-0.seg"), RecordKind::Other);
        assert_eq!(class(&format!("{}.json", key("x"))), RecordKind::Blob);
        assert_eq!(class("last-run-stats.v2"), RecordKind::RunStats);
        assert_eq!(class("last-run-stats.v1"), RecordKind::RunStats);
        assert_eq!(class("gc.lock"), RecordKind::Lock);
        assert_eq!(class("last-run-stats.v2.tmp.7.9"), RecordKind::Temp);
        assert_eq!(class(&format!("{}.tmp.7.9", key("x"))), RecordKind::Temp);
        assert_eq!(class("notes.json"), RecordKind::Other);
        assert_eq!(class(&format!("{}.JSON", key("x"))), RecordKind::Other);
        let upper = key("x").hex().to_uppercase();
        assert_eq!(class(&format!("{upper}.json")), RecordKind::Other);
    }

    #[test]
    fn run_stats_persist_across_handles_and_never_count_as_blobs() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        assert_eq!(cache.last_run_stats(), None, "nothing persisted yet");
        cache.put(&key("a"), &1u64);
        let _ = cache.get::<u64>(&key("a"));
        let _ = cache.get::<u64>(&key("absent"));
        cache.persist_stats(&cache.stats());
        assert_eq!(cache.len(), 1, "the stats record is not a blob");
        // a fresh handle over the same directory reads the previous run
        let later = cache_at(&tmp.0);
        let last = later.last_run_stats().expect("persisted record");
        assert_eq!((last.hits, last.misses, last.writes), (1, 1, 1));
        assert_eq!(last.blobs, 1, "size was measured at persist time");
        // clearing blobs leaves the record in place; disabled caches
        // neither write nor read one
        cache.clear();
        assert_eq!(later.last_run_stats().map(|s| s.hits), Some(1));
        let off = Cache::default();
        off.persist_stats(&off.stats());
        assert_eq!(off.last_run_stats(), None);
    }

    #[test]
    fn run_stats_survive_concurrent_in_process_persists_and_reads() {
        // runs sharing a directory persist while others read, here from
        // many threads over one shared handle; with atomic renames and
        // call-unique temp files, a reader must always see a complete
        // record — never a torn or vanished file
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        cache.put(&key("warmup"), &0u64);
        let _ = cache.get::<u64>(&key("warmup"));
        cache.persist_stats(&cache.stats());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        cache.persist_stats(&cache.stats());
                    }
                });
            }
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert!(
                            cache.last_run_stats().is_some(),
                            "a concurrent persist tore or removed the record"
                        );
                    }
                });
            }
        });
        // no temp-file droppings survive the storm
        let leftovers: Vec<_> = std::fs::read_dir(&tmp.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
        assert_eq!(cache.last_run_stats().map(|s| s.writes), Some(1));
    }

    #[test]
    fn clones_share_storage_and_counters() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        let clone = cache.clone();
        let k = key("shared");
        clone.put(&k, &vec![5u64]);
        assert_eq!(cache.get::<Vec<u64>>(&k), Some(vec![5]));
        assert_eq!(cache.stats().writes, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn default_dir_honours_env_precedence() {
        // only inspects the pure path computation; the variables
        // themselves are process-global, so don't mutate them here
        if std::env::var_os("APXPERF_CACHE_DIR").is_none()
            && std::env::var_os("XDG_CACHE_HOME").is_none()
        {
            if let Some(dir) = Cache::default_dir() {
                assert!(dir.ends_with(".cache/apxperf"));
            }
        }
    }

    // ---- the coalescing read-through ----

    /// Long enough that every barrier-released peer arrives while the
    /// leader is still computing.
    const SLOW: std::time::Duration = std::time::Duration::from_millis(200);

    #[test]
    fn a_herd_on_one_key_computes_once_and_coalesces_the_rest() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        let computes = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        let lookups: Vec<Lookup> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (value, lookup) = cache.read_through(
                            || key("herd"),
                            |_: &u64| true,
                            || {
                                std::thread::sleep(SLOW);
                                computes.fetch_add(1, Ordering::SeqCst);
                                42u64
                            },
                        );
                        assert_eq!(value, 42);
                        lookup
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        let count = |want| lookups.iter().filter(|&&l| l == want).count();
        assert_eq!(
            (count(Lookup::Computed), count(Lookup::Coalesced)),
            (1, 7),
            "{lookups:?}"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (7, 1, 1));
    }

    #[test]
    fn a_panicking_leader_hands_the_key_to_a_waiter() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        let (claimed_tx, claimed_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                cache.read_through(
                    || key("abort"),
                    |_: &u64| true,
                    || -> u64 {
                        claimed_tx.send(()).unwrap();
                        std::thread::sleep(SLOW);
                        panic!("leader died mid-compute");
                    },
                )
            });
            claimed_rx.recv().unwrap();
            // the leader holds the key: this call waits, finds no blob
            // after the release, and computes instead of hanging
            let (value, lookup) = cache.read_through(|| key("abort"), |_: &u64| true, || 7u64);
            assert_eq!((value, lookup), (7, Lookup::Computed));
            assert!(leader.join().is_err(), "the leader panicked");
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (0, 2, 1));
    }

    #[test]
    fn a_planted_wrong_input_blob_is_healed_once_under_contention() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        // parses as a u64 but describes another input
        cache.put(&key("planted"), &13u64);
        let computes = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    let (value, _) = cache.read_through(
                        || key("planted"),
                        |v: &u64| *v == 42,
                        || {
                            std::thread::sleep(SLOW);
                            computes.fetch_add(1, Ordering::SeqCst);
                            42u64
                        },
                    );
                    assert_eq!(value, 42, "the planted blob is never served");
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "healed exactly once");
        assert_eq!(cache.stats().writes, 2, "the plant plus one heal");
        assert_eq!(cache.get::<u64>(&key("planted")), Some(42));
    }

    #[test]
    fn different_keys_compute_concurrently() {
        // a 2-party rendezvous inside `compute`: it completes only if both
        // computations are in flight at once, and times out (failing
        // instead of hanging) if one key's claim blocked the other
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        let arrived = Mutex::new(0usize);
        let both_in = Condvar::new();
        let rendezvous = || {
            let mut count = arrived.lock().unwrap();
            *count += 1;
            both_in.notify_all();
            let (count, timeout) = both_in
                .wait_timeout_while(count, std::time::Duration::from_secs(10), |c| *c < 2)
                .unwrap();
            assert!(
                !timeout.timed_out(),
                "only {} of 2 computed at once",
                *count
            );
        };
        std::thread::scope(|s| {
            for tag in ["left", "right"] {
                let (cache, rendezvous) = (&cache, &rendezvous);
                s.spawn(move || {
                    let (_, lookup) = cache.read_through(
                        || key(tag),
                        |_: &u64| true,
                        || {
                            rendezvous();
                            1u64
                        },
                    );
                    assert_eq!(lookup, Lookup::Computed);
                });
            }
        });
        assert_eq!(cache.stats().writes, 2);
    }

    #[test]
    fn a_disabled_cache_computes_without_deriving_a_key() {
        let (value, lookup) = Cache::default().read_through(
            || panic!("a disabled cache derived a key"),
            |_: &u64| true,
            || 5u64,
        );
        assert_eq!((value, lookup), (5, Lookup::Computed));
    }

    // ---- fleet operations: gc, capacity, archives ----

    /// Backdates a temp file's mtime past gc's staleness threshold.
    fn backdate(path: &Path, secs_ago: u64) {
        let when = SystemTime::now() - std::time::Duration::from_secs(secs_ago);
        let file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        file.set_modified(when).unwrap();
    }

    #[test]
    fn gc_evicts_lru_first_down_to_the_budget() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        // written oldest first: gc0 is stalest, gc3 freshest
        let keys: Vec<CacheKey> = (0..4u64).map(|i| key(&format!("gc{i}"))).collect();
        for (i, k) in keys.iter().enumerate() {
            cache.put(k, &vec![i as u64; 16]);
        }
        let blob_size = cache.stats().bytes / 4;
        // budget for two and a half blobs (all four are the same size)
        let budget = 2 * blob_size + blob_size / 2;
        let summary = cache.gc(budget).unwrap();
        assert_eq!(summary.examined_blobs, 4);
        assert_eq!(summary.evicted_blobs, 2);
        assert!(summary.remaining_bytes <= budget);
        assert_eq!(summary.remaining_blobs, 2);
        assert_eq!(cache.stats().bytes, summary.remaining_bytes);
        // the two *stalest* went; the two freshest survived, for this
        // handle and for a fresh one
        for handle in [cache_at(&tmp.0), cache.clone()] {
            assert_eq!(handle.get::<Vec<u64>>(&keys[0]), None);
            assert_eq!(handle.get::<Vec<u64>>(&keys[1]), None);
            assert!(handle.get::<Vec<u64>>(&keys[2]).is_some());
            assert!(handle.get::<Vec<u64>>(&keys[3]).is_some());
        }
        assert_eq!(cache.stats().evictions, 2);
        assert!(!tmp.0.join("gc.lock").exists(), "lock released");
        assert_eq!(segments(&tmp.0).len(), 1, "one log, rewritten in place");
    }

    #[test]
    fn a_hit_protects_its_blob_from_gc_in_process_and_across_handles() {
        for across in [false, true] {
            let tmp = TempDir::new();
            let writer = cache_at(&tmp.0);
            let old = key("touched-old");
            let fresh = key("untouched-fresh");
            writer.put(&old, &vec![1u64; 16]);
            writer.put(&fresh, &vec![2u64; 16]);
            let one_blob = writer.stats().bytes / 2;
            // a hit on the older blob makes it the more recent one: through
            // this handle's memory, or through another handle's touch record
            let (reader, collector) = if across {
                (cache_at(&tmp.0), cache_at(&tmp.0))
            } else {
                (writer.clone(), writer.clone())
            };
            assert!(reader.get::<Vec<u64>>(&old).is_some());
            let summary = collector.gc(one_blob + one_blob / 2).unwrap();
            assert_eq!(summary.evicted_blobs, 1);
            let check = cache_at(&tmp.0);
            assert!(
                check.get::<Vec<u64>>(&old).is_some(),
                "the touched blob survives"
            );
            assert_eq!(check.get::<Vec<u64>>(&fresh), None);
        }
    }

    #[test]
    fn a_gc_elsewhere_never_swallows_a_writers_later_records() {
        let tmp = TempDir::new();
        let writer = cache_at(&tmp.0);
        writer.put(&key("before"), &1u64);
        // another handle compacts: the writer's log is replaced
        let summary = cache_at(&tmp.0).gc(u64::MAX).unwrap();
        assert_eq!((summary.evicted_blobs, summary.remaining_blobs), (0, 1));
        // the writer's next record must not vanish with the old log
        writer.put(&key("after"), &2u64);
        assert_eq!(writer.stats().writes, 2);
        let reader = cache_at(&tmp.0);
        assert_eq!(reader.get::<u64>(&key("before")), Some(1));
        assert_eq!(reader.get::<u64>(&key("after")), Some(2));
        // and a gc that the writer runs itself keeps appending after it
        writer.gc(u64::MAX).unwrap();
        writer.put(&key("last"), &3u64);
        assert_eq!(cache_at(&tmp.0).len(), 3);
    }

    #[test]
    fn a_miss_sees_what_other_handles_wrote_since() {
        let tmp = TempDir::new();
        let early = cache_at(&tmp.0);
        assert_eq!(early.get::<u64>(&key("late")), None, "cold");
        let other = cache_at(&tmp.0);
        other.put(&key("late"), &5u64);
        other.put(&key("later"), &6u64);
        assert_eq!(early.get::<u64>(&key("late")), Some(5));
        assert_eq!(early.get::<u64>(&key("later")), Some(6));
        assert_eq!(early.stats().blobs, 2);
    }

    #[test]
    fn a_directory_holds_one_log_however_many_blobs_and_handles() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        for i in 0..50u64 {
            cache.put(&key(&format!("many{i}")), &i);
        }
        cache.persist_stats(&cache.stats());
        assert_eq!(segments(&tmp.0).len(), 1);
        assert_eq!(std::fs::read_dir(&tmp.0).unwrap().count(), 2, "log + stats");
        // other handles' hits append touch records to the same log, and
        // touches are not writes
        for _ in 0..3 {
            let warm = cache_at(&tmp.0);
            for i in 0..50u64 {
                assert_eq!(warm.get::<u64>(&key(&format!("many{i}"))), Some(i));
            }
            let stats = warm.stats();
            assert_eq!((stats.hits, stats.misses, stats.writes), (50, 0, 0));
        }
        assert_eq!(std::fs::read_dir(&tmp.0).unwrap().count(), 2);
    }

    #[test]
    fn dead_records_are_compacted_away_once_they_outweigh_the_live_ones() {
        let tmp = TempDir::new();
        let big = "x".repeat(64 << 10);
        let log = tmp.0.join(segment::LOG);
        let mut longest = 0;
        // every fresh handle supersedes the same two blobs: all but the
        // newest copies are dead weight
        for round in 0..60u64 {
            let handle = cache_at(&tmp.0);
            handle.put(&key("big"), &format!("{big}{round}"));
            handle.put(&key("small"), &round);
            longest = longest.max(std::fs::metadata(&log).unwrap().len());
        }
        let live = cache_at(&tmp.0).stats();
        assert_eq!(live.blobs, 2);
        let record = segment::HEADER_LEN as u64 + live.bytes;
        assert!(
            longest
                <= 2 * 2 * segment::HEADER_LEN as u64
                    + 2 * live.bytes
                    + segment::COMPACT_FLOOR
                    + record,
            "the log reached {longest} bytes for {} live",
            live.bytes
        );
        assert_eq!(
            cache_at(&tmp.0).get::<String>(&key("big")),
            Some(format!("{big}59"))
        );
        assert_eq!(segments(&tmp.0).len(), 1);
        assert!(!tmp.0.join("gc.lock").exists(), "lock released");
    }

    #[test]
    fn write_time_capacity_caps_the_directory() {
        let tmp = TempDir::new();
        let probe = cache_at(&tmp.0);
        probe.put(&key("probe"), &vec![0u64; 16]);
        let blob_size = probe.stats().bytes;
        probe.clear();
        let capped = Cache::builder()
            .dir(&tmp.0)
            .capacity_bytes(3 * blob_size)
            .open();
        for i in 0..10u64 {
            capped.put(&key(&format!("cap{i}")), &vec![i; 16]);
            let bytes = cache_at(&tmp.0).stats().bytes;
            assert!(
                bytes <= 3 * blob_size,
                "put {i}: dir must stay under the cap: {bytes} > {}",
                3 * blob_size
            );
        }
        let stats = capped.stats();
        assert!(stats.evictions >= 7, "evictions counted: {stats:?}");
        assert!(!tmp.0.join("gc.lock").exists(), "lock released");
        // the freshest blob always survives
        assert_eq!(capped.get::<Vec<u64>>(&key("cap9")), Some(vec![9; 16]));
    }

    #[test]
    fn gc_sweeps_stale_temps_but_not_fresh_ones() {
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        cache.put(&key("keep"), &1u64);
        let stale = tmp.0.join(format!("{}.tmp.1.1", key("a")));
        let fresh = tmp.0.join(format!("{}.tmp.1.2", key("b")));
        std::fs::write(&stale, "{").unwrap();
        std::fs::write(&fresh, "{").unwrap();
        backdate(&stale, 100_000);
        cache.gc(u64::MAX).unwrap();
        assert!(!stale.exists(), "abandoned temp swept");
        assert!(fresh.exists(), "live writer's temp untouched");
        assert_eq!(cache.len(), 1, "no blob harmed");
    }

    #[test]
    fn gc_on_disabled_cache_is_a_structured_error() {
        match Cache::default().gc(0) {
            Err(CacheError::Disabled) => {}
            other => panic!("expected Disabled, got {other:?}"),
        }
    }

    fn stamp() -> ArchiveStamp {
        ArchiveStamp {
            schema: "test/v1".to_owned(),
            library: "ab".repeat(16),
        }
    }

    #[test]
    fn pack_then_fetch_restores_byte_identical_blobs() {
        let tmp = TempDir::new();
        let src = cache_at(&tmp.0.join("src"));
        for i in 0..3u64 {
            src.put(&key(&format!("pk{i}")), &vec![i; 8]);
        }
        let archive = tmp.0.join("warm.apxcache");
        let packed = src.pack(&archive, &stamp(), None).unwrap();
        assert_eq!(packed.packed, 3);
        assert!(packed.bytes > 0);
        assert_eq!(packed.missing, 0);

        let dst = cache_at(&tmp.0.join("dst"));
        let imported = dst.import(&archive, &stamp(), ImportMode::Fetch).unwrap();
        assert_eq!(imported.imported, 3);
        assert_eq!(imported.already_present, 0);
        assert_eq!(imported.conflicts, 0);
        assert_eq!(dst.stats().imports, 3);
        // byte-identical restore: the restored directory packs to the
        // same archive
        let repacked = tmp.0.join("again.apxcache");
        dst.pack(&repacked, &stamp(), None).unwrap();
        assert_eq!(
            std::fs::read(&archive).unwrap(),
            std::fs::read(&repacked).unwrap()
        );
        assert_eq!(dst.stats().bytes, src.stats().bytes);
        // re-import is a no-op
        let again = dst.import(&archive, &stamp(), ImportMode::Fetch).unwrap();
        assert_eq!(again.imported, 0);
        assert_eq!(again.already_present, 3);
    }

    #[test]
    fn pack_with_key_filter_selects_and_reports_missing() {
        let tmp = TempDir::new();
        let src = cache_at(&tmp.0.join("src"));
        src.put(&key("want"), &1u64);
        src.put(&key("skip"), &2u64);
        let archive = tmp.0.join("sel.apxcache");
        let wanted = [key("want"), key("absent")];
        let packed = src.pack(&archive, &stamp(), Some(&wanted)).unwrap();
        assert_eq!(packed.packed, 1, "only the selected, present blob");
        assert_eq!(packed.missing, 1, "the absent selection is reported");
        let dst = cache_at(&tmp.0.join("dst"));
        dst.import(&archive, &stamp(), ImportMode::Fetch).unwrap();
        assert!(dst.get::<u64>(&key("want")).is_some());
        assert_eq!(dst.get::<u64>(&key("skip")), None, "unselected not packed");
    }

    #[test]
    fn packing_twice_yields_byte_identical_archives() {
        let tmp = TempDir::new();
        let src = cache_at(&tmp.0.join("src"));
        for i in 0..3u64 {
            src.put(&key(&format!("det{i}")), &vec![i; 4]);
        }
        let a = tmp.0.join("a.apxcache");
        let b = tmp.0.join("b.apxcache");
        src.pack(&a, &stamp(), None).unwrap();
        src.pack(&b, &stamp(), None).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn mismatched_archives_are_rejected_with_structured_errors() {
        let tmp = TempDir::new();
        let src = cache_at(&tmp.0.join("src"));
        src.put(&key("m"), &1u64);
        let archive = tmp.0.join("m.apxcache");
        src.pack(&archive, &stamp(), None).unwrap();

        let dst = cache_at(&tmp.0.join("dst"));
        let other_schema = ArchiveStamp {
            schema: "test/v2".to_owned(),
            ..stamp()
        };
        match dst.import(&archive, &other_schema, ImportMode::Merge) {
            Err(CacheError::SchemaMismatch { archive, local }) => {
                assert_eq!(archive, "test/v1");
                assert_eq!(local, "test/v2");
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        let other_lib = ArchiveStamp {
            library: "cd".repeat(16),
            ..stamp()
        };
        match dst.import(&archive, &other_lib, ImportMode::Fetch) {
            Err(CacheError::LibraryMismatch { .. }) => {}
            other => panic!("expected LibraryMismatch, got {other:?}"),
        }
        assert!(dst.is_empty(), "nothing imported from a rejected archive");

        // not-an-archive file
        let junk = tmp.0.join("junk.apxcache");
        std::fs::write(&junk, "{\"format\": \"something-else\"}").unwrap();
        assert!(matches!(
            dst.import(&junk, &stamp(), ImportMode::Fetch),
            Err(CacheError::CorruptArchive { .. })
        ));
    }

    #[test]
    fn corrupted_archive_blob_rejects_the_whole_import() {
        let tmp = TempDir::new();
        let src = cache_at(&tmp.0.join("src"));
        src.put(&key("c1"), &1u64);
        src.put(&key("c2"), &2u64);
        let archive = tmp.0.join("c.apxcache");
        src.pack(&archive, &stamp(), None).unwrap();
        // flip a byte inside a blob body (the stored value "1" -> "9")
        let text = std::fs::read_to_string(&archive).unwrap();
        let tampered = text.replacen("1\\n", "9\\n", 1);
        assert_ne!(text, tampered, "tamper target must exist");
        std::fs::write(&archive, tampered).unwrap();
        let dst = cache_at(&tmp.0.join("dst"));
        match dst.import(&archive, &stamp(), ImportMode::Fetch) {
            Err(CacheError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        assert!(dst.is_empty(), "validate-then-apply: nothing written");
    }

    #[test]
    fn fetch_refuses_collisions_merge_keeps_local() {
        let tmp = TempDir::new();
        let src = cache_at(&tmp.0.join("src"));
        src.put(&key("x"), &1u64);
        src.put(&key("y"), &2u64);
        let archive = tmp.0.join("x.apxcache");
        src.pack(&archive, &stamp(), None).unwrap();

        // the destination has a *different* value under the same key
        let dst = cache_at(&tmp.0.join("dst"));
        dst.put(&key("x"), &999u64);
        match dst.import(&archive, &stamp(), ImportMode::Fetch) {
            Err(CacheError::Collision { key }) => assert_eq!(key.len(), 32),
            other => panic!("expected Collision, got {other:?}"),
        }
        assert_eq!(dst.len(), 1, "strict fetch wrote nothing");

        let merged = dst.import(&archive, &stamp(), ImportMode::Merge).unwrap();
        assert_eq!(merged.conflicts, 1);
        assert_eq!(merged.imported, 1, "the non-conflicting blob lands");
        assert_eq!(dst.get::<u64>(&key("x")), Some(999), "local side wins");
        assert_eq!(dst.get::<u64>(&key("y")), Some(2));
    }

    #[test]
    fn concurrent_puts_and_gc_never_tear_or_leak() {
        // the in-process half of the concurrent-writer contract: 8
        // threads hammer put/get while gc runs repeatedly; every blob
        // read must parse, no temp survives, hit+miss accounting adds up
        let tmp = TempDir::new();
        let cache = cache_at(&tmp.0);
        std::thread::scope(|s| {
            for t in 0..6 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..40u64 {
                        let k = key(&format!("race{}", (t * 7 + i) % 25));
                        cache.put(&k, &vec![i; 8]);
                        // any Some must be a fully-parsed vector — a torn
                        // blob would deserialize to None and be deleted,
                        // which is legal, but never a panic or bad data
                        if let Some(v) = cache.get::<Vec<u64>>(&k) {
                            assert_eq!(v.len(), 8);
                        }
                    }
                });
            }
            for _ in 0..2 {
                let cache = &cache;
                s.spawn(move || {
                    for _ in 0..10 {
                        match cache.gc(2_000) {
                            Ok(_) | Err(CacheError::Busy { .. }) => {}
                            Err(e) => panic!("gc failed: {e}"),
                        }
                    }
                });
            }
        });
        let leftovers: Vec<_> = std::fs::read_dir(&tmp.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "leaked temps: {leftovers:?}");
        // every surviving blob verifies and parses, through a fresh index
        let fresh = cache_at(&tmp.0);
        for i in 0..25 {
            if let Some(v) = fresh.get::<Vec<u64>>(&key(&format!("race{i}"))) {
                assert_eq!(v.len(), 8);
            }
        }
        assert_eq!(fresh.stats().misses + fresh.stats().hits, 25);
        assert_eq!(fresh.stats().hits, fresh.stats().blobs, "torn blob on disk");
        assert!(!tmp.0.join("gc.lock").exists(), "gc lock released");
    }
}
