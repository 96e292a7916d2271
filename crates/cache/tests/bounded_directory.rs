//! A cache directory used by many short-lived processes stays bounded:
//! however many handles write or hit, it holds one record log and one
//! stats record, and a long-lived handle (a `serve` daemon's) holds one
//! descriptor, not one per writer it has seen.
//!
//! This is the only test in its binary, so no other test opens or closes
//! descriptors while it counts them.

use apx_cache::{Cache, CacheKey, KeyBuilder};
use std::path::PathBuf;

fn key(i: u64) -> CacheKey {
    KeyBuilder::new("bounded/v1").push_u64("i", i).finish()
}

/// This process's open descriptors, where the platform lists them.
fn open_descriptors() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd").ok().map(Iterator::count)
}

#[test]
fn hundreds_of_handles_leave_one_log_and_hold_no_descriptors() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("apx_cache_bounded_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let server = Cache::builder().dir(&dir).open();
    server.put(&key(1), &1u64);
    let before = open_descriptors();
    for i in 2..=300u64 {
        // one short-lived "process" per round: odd rounds write a new
        // blob, even rounds hit the previous one
        let handle = Cache::builder().dir(&dir).open();
        let newest = if i % 2 == 1 {
            handle.put(&key(i), &i);
            i
        } else {
            assert_eq!(handle.get::<u64>(&key(i - 1)), Some(i - 1));
            i - 1
        };
        handle.persist_stats(&handle.stats());
        drop(handle);
        // the long-lived handle sees every record as it lands
        assert_eq!(server.get::<u64>(&key(newest)), Some(newest));
    }
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(files.len(), 2, "one log and one stats record: {files:?}");
    assert_eq!(server.stats().blobs, 150);
    if let (Some(before), Some(after)) = (before, open_descriptors()) {
        assert!(
            after <= before,
            "descriptors grew from {before} to {after} over 299 handles"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
