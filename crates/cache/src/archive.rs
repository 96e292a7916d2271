//! Portable cache archives: `pack` a set of blobs into one versioned,
//! fingerprint-stamped file; `fetch`/`merge` import one back.
//!
//! A warm cache directory is single-host; a fleet (CI shards, `serve`
//! workers, many users) wants to share its warmth. An archive is the
//! transport: one self-describing JSON file holding
//!
//! * a **stamp** ([`ArchiveStamp`]) of the cache schema versions and
//!   the cell-library fingerprint it was packed under — imports reject
//!   a mismatched stamp with a structured [`CacheError`], because blobs
//!   keyed under another schema or library would never be looked up
//!   (or worse, describe different hardware);
//! * the **blobs** themselves, each as its exact on-disk bytes plus a
//!   per-blob checksum recomputed at import time, so corruption in
//!   transit is caught before anything is written.
//!
//! Imports are **validate-then-apply**: the whole archive is verified
//! (format, stamp, every key, every checksum, every local collision)
//! before the first blob is written, so a bad archive never leaves the
//! cache half-merged. Blobs land as records appended to the directory's
//! log, as [`Cache::put`](crate::Cache::put) writes them,
//! so an import can run concurrently with readers, writers and even a
//! `gc`. The archive format does not depend on the directory layout:
//! archives packed from the old file-per-blob layout import unchanged.

use crate::error::CacheError;
use crate::segment::{self, Kind};
use crate::{Cache, CacheKey, KeyBuilder};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::Path;

/// The archive format tag; the first thing an import checks.
pub const ARCHIVE_FORMAT: &str = "apxperf-cache-archive";

/// The archive format version this build writes and reads.
pub const ARCHIVE_VERSION: u32 = 1;

/// What a cache's contents are keyed under: the schema versions of the
/// blobs and the fingerprint of the cell library they were computed
/// against. Callers build one from their key ingredients (see
/// `apx_core::cache::archive_stamp`); `pack` records it in the archive
/// and `fetch`/`merge` refuse an archive whose stamp differs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchiveStamp {
    /// The cache schema, e.g. `report/v2+app/v2`. Bumping any schema
    /// version moves every blob's content address, so an archive packed
    /// under another schema holds only unreachable blobs.
    pub schema: String,
    /// The cell-library fingerprint (32 hex digits) the blobs were
    /// computed against.
    pub library: String,
}

/// One packed blob: its content address, its exact on-disk bytes, and a
/// checksum over both.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ArchiveBlob {
    /// The blob's cache key (32 lowercase hex digits — the file stem).
    key: String,
    /// Checksum over `key` + `body`, recomputed at import time.
    check: String,
    /// The blob's exact bytes (JSON text); imported verbatim so a
    /// restored blob is byte-identical to the packed one.
    body: String,
}

/// The archive file itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ArchiveFile {
    /// Always [`ARCHIVE_FORMAT`].
    format: String,
    /// Always [`ARCHIVE_VERSION`] (for this build).
    version: u32,
    /// The schema + library stamp the blobs were packed under.
    stamp: ArchiveStamp,
    /// The packed blobs, sorted by key for deterministic output.
    blobs: Vec<ArchiveBlob>,
}

/// What one `pack` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackSummary {
    /// Blobs written into the archive.
    pub packed: u64,
    /// Their total size in bytes (the `bytes` of `cache stats`).
    pub bytes: u64,
    /// Selector keys that had no blob in the cache (only non-zero when
    /// packing with a key filter over a partially warm cache).
    pub missing: u64,
}

/// How an import treats a local blob whose bytes differ from the
/// archived one under the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportMode {
    /// Strict restore (`cache fetch`): a divergent local blob is a
    /// [`CacheError::Collision`] and nothing is imported.
    Fetch,
    /// Union (`cache merge`): the local blob wins, the divergence is
    /// counted in [`ImportSummary::conflicts`].
    Merge,
}

/// What one `fetch`/`merge` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImportSummary {
    /// Blobs newly written into the cache.
    pub imported: u64,
    /// Blobs already present with identical bytes (skipped).
    pub already_present: u64,
    /// Divergent local blobs kept as-is (`merge` only; a `fetch` turns
    /// the first one into a [`CacheError::Collision`]).
    pub conflicts: u64,
    /// Total blob entries in the archive.
    pub total: u64,
}

/// The per-blob checksum: both FNV streams over the key and the exact
/// body bytes. Recomputed on import; a mismatch rejects the archive.
fn blob_check(key: &str, body: &str) -> String {
    KeyBuilder::new("apxperf-archive-blob/v1")
        .push_str("key", key)
        .push_str("body", body)
        .finish()
        .hex()
}

impl Cache {
    /// Packs blobs into a portable archive at `path`, stamped with
    /// `stamp`. With `keys`, only the selected blobs are packed (the
    /// sweep/workload selectors of `apxperf cache pack` resolve to such
    /// a key set); without, every blob in the directory is packed.
    ///
    /// The archive is written atomically (unique temp + rename in the
    /// target directory), and blobs are sorted by key, so packing the
    /// same cache twice yields byte-identical archives.
    ///
    /// # Errors
    /// [`CacheError::Disabled`] on a disabled cache, [`CacheError::Io`]
    /// when the archive cannot be written.
    pub fn pack(
        &self,
        path: &Path,
        stamp: &ArchiveStamp,
        keys: Option<&[CacheKey]>,
    ) -> Result<PackSummary, CacheError> {
        let inner = self.inner().ok_or(CacheError::Disabled)?;
        let filter: Option<BTreeSet<CacheKey>> = keys.map(|keys| keys.iter().copied().collect());
        let live = {
            let mut store = inner.store();
            store.refresh(&inner.dir);
            store.by_recency()
        };
        let mut blobs = Vec::new();
        let mut bytes = 0u64;
        let mut found = 0;
        for (key, _) in live {
            if filter.as_ref().is_some_and(|filter| !filter.contains(&key)) {
                continue;
            }
            found += 1;
            // a blob that fails its checksum is skipped, like a miss
            let Some(body) = self
                .read_live(&key)
                .and_then(|body| String::from_utf8(body).ok())
            else {
                continue;
            };
            bytes += body.len() as u64;
            let key = key.hex();
            blobs.push(ArchiveBlob {
                check: blob_check(&key, &body),
                key,
                body,
            });
        }
        blobs.sort_by(|a, b| a.key.cmp(&b.key));
        let missing = filter.map_or(0, |filter| (filter.len() - found) as u64);
        let archive = ArchiveFile {
            format: ARCHIVE_FORMAT.to_owned(),
            version: ARCHIVE_VERSION,
            stamp: stamp.clone(),
            blobs,
        };
        let json =
            serde_json::to_string_pretty(&archive).expect("archive serialization is infallible");
        let packed = archive.blobs.len() as u64;
        let io_err = |op: &str, e: std::io::Error| CacheError::Io {
            op: op.to_owned(),
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, json + "\n").map_err(|e| io_err("write archive", e))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            io_err("finalize archive", e)
        })?;
        Ok(PackSummary {
            packed,
            bytes,
            missing,
        })
    }

    /// Imports the archive at `path`, verifying it end to end **before**
    /// writing anything: format tag, format version, schema + library
    /// stamp against `local`, every blob key's shape, every blob's
    /// checksum, and — for [`ImportMode::Fetch`] — that no local blob
    /// diverges from its archived twin. Only then are the missing blobs
    /// appended, each as one record, so a concurrent reader, writer or
    /// `gc` never observes a torn blob.
    ///
    /// Every imported blob bumps this handle's `imports` counter. With a
    /// write-time capacity configured, the cache is re-capped after the
    /// import (LRU-first, like any other write).
    ///
    /// # Errors
    /// See [`CacheError`]; a mismatched stamp or corrupt entry rejects
    /// the whole archive — a failed import never leaves a partial merge.
    pub fn import(
        &self,
        path: &Path,
        local: &ArchiveStamp,
        mode: ImportMode,
    ) -> Result<ImportSummary, CacheError> {
        let inner = self.inner().ok_or(CacheError::Disabled)?;
        let text = std::fs::read_to_string(path).map_err(|e| CacheError::Io {
            op: "read archive".to_owned(),
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let archive: ArchiveFile =
            serde_json::from_str(&text).map_err(|e| CacheError::CorruptArchive {
                detail: format!("unparsable archive: {e}"),
            })?;
        if archive.format != ARCHIVE_FORMAT {
            return Err(CacheError::CorruptArchive {
                detail: format!("format tag is `{}`, not `{ARCHIVE_FORMAT}`", archive.format),
            });
        }
        if archive.version != ARCHIVE_VERSION {
            return Err(CacheError::UnsupportedVersion {
                archive: archive.version,
                supported: ARCHIVE_VERSION,
            });
        }
        if archive.stamp.schema != local.schema {
            return Err(CacheError::SchemaMismatch {
                archive: archive.stamp.schema,
                local: local.schema.clone(),
            });
        }
        if archive.stamp.library != local.library {
            return Err(CacheError::LibraryMismatch {
                archive: archive.stamp.library,
                local: local.library.clone(),
            });
        }

        // validation pass: every entry checked before any write
        enum Action {
            Write,
            Skip,
            Conflict,
        }
        inner.store().refresh(&inner.dir);
        let mut plan = Vec::with_capacity(archive.blobs.len());
        for blob in &archive.blobs {
            let Some(key) = CacheKey::from_hex(&blob.key) else {
                return Err(CacheError::CorruptArchive {
                    detail: format!("`{}` is not a valid blob key", blob.key),
                });
            };
            if blob_check(&blob.key, &blob.body) != blob.check {
                return Err(CacheError::ChecksumMismatch {
                    key: blob.key.clone(),
                });
            }
            let action = match self.read_live(&key) {
                Some(existing) if existing == blob.body.as_bytes() => Action::Skip,
                Some(_) => match mode {
                    ImportMode::Fetch => {
                        return Err(CacheError::Collision {
                            key: blob.key.clone(),
                        })
                    }
                    ImportMode::Merge => Action::Conflict,
                },
                None => Action::Write,
            };
            plan.push((key, action));
        }

        // apply pass: one record per new blob, appended to the log
        let mut summary = ImportSummary {
            imported: 0,
            already_present: 0,
            conflicts: 0,
            total: archive.blobs.len() as u64,
        };
        for (blob, (key, action)) in archive.blobs.iter().zip(plan) {
            match action {
                Action::Skip => summary.already_present += 1,
                Action::Conflict => summary.conflicts += 1,
                Action::Write => {
                    if !inner
                        .store()
                        .append(&inner.dir, Kind::Put, key, blob.body.as_bytes())
                    {
                        return Err(CacheError::Io {
                            op: "write blob".to_owned(),
                            path: inner.dir.display().to_string(),
                            message: "the record log could not be created or appended to"
                                .to_owned(),
                        });
                    }
                    summary.imported += 1;
                    inner
                        .counters
                        .imports
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        self.maintain();
        Ok(summary)
    }

    /// The verified body of `key`'s live blob, if any.
    fn read_live(&self, key: &CacheKey) -> Option<Vec<u8>> {
        let inner = self.inner()?;
        let (file, loc) = inner.store().get(key)?;
        segment::read_body(&file, &loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksums_cover_key_and_body() {
        let base = blob_check("aa", "{}");
        assert_eq!(base, blob_check("aa", "{}"));
        assert_ne!(base, blob_check("ab", "{}"));
        assert_ne!(base, blob_check("aa", "{} "));
        assert_eq!(base.len(), 32);
    }

    #[test]
    fn key_shape_is_enforced() {
        let hex = "0123456789abcdef".repeat(2);
        assert_eq!(CacheKey::from_hex(&hex).map(|k| k.hex()), Some(hex.clone()));
        assert!(CacheKey::from_hex("short").is_none());
        let upper = "0123456789ABCDEF".repeat(2);
        assert!(CacheKey::from_hex(&upper).is_none(), "uppercase");
        let non_hex = "0123456789abcdeg".repeat(2);
        assert!(CacheKey::from_hex(&non_hex).is_none(), "non-hex");
        assert!(
            CacheKey::from_hex(&format!("+{}", &hex[1..])).is_none(),
            "sign"
        );
    }
}
