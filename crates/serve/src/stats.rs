//! The `/stats` counters: lock-free atomics bumped by the request
//! handlers, snapshotted into one JSON object on demand. Every
//! `GET /report` request ends up as **exactly one** of `hits` (warm
//! cache), `misses` (this request computed) or `coalesced` (this request
//! waited on an identical in-flight read — another request's or a job's —
//! and was served the blob it stored) — the invariant the
//! thundering-herd tests assert.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic service counters (plus the in-flight gauge).
#[derive(Debug, Default)]
pub struct ServeStats {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    inflight: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Report requests answered from the warm cache.
    pub hits: u64,
    /// Report requests that computed (cold cache, nothing in flight).
    pub misses: u64,
    /// Report requests that waited on an identical in-flight read (a
    /// `/report` request or a job) and were served the blob it stored.
    pub coalesced: u64,
    /// Requests turned away with 503 (job queue full).
    pub rejected: u64,
    /// Report requests being answered right now (computing, waiting or
    /// reading); `/stats` adds the running jobs.
    pub inflight: u64,
}

impl ServeStats {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        ServeStats::default()
    }

    /// One warm-cache report response.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One computed (cold) report response.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// One request served by another request's computation.
    pub fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// One 503 rejection.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one report request as being answered; the guard un-marks
    /// it.
    pub fn begin_inflight(&self) -> InflightGuard<'_> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        InflightGuard { stats: self }
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }
}

/// RAII decrement of the in-flight gauge — panic-safe, so a failed
/// computation can never leak a permanently "busy" gauge.
#[derive(Debug)]
pub struct InflightGuard<'a> {
    stats: &'a ServeStats,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.stats.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_classify_each_request_exactly_once() {
        let stats = ServeStats::new();
        stats.record_miss();
        stats.record_coalesced();
        stats.record_coalesced();
        stats.record_hit();
        stats.record_rejected();
        let snap = stats.snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.coalesced, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.inflight, 0);
    }

    #[test]
    fn the_inflight_gauge_is_panic_safe() {
        let stats = ServeStats::new();
        {
            let _guard = stats.begin_inflight();
            assert_eq!(stats.snapshot().inflight, 1);
        }
        assert_eq!(stats.snapshot().inflight, 0);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = stats.begin_inflight();
            panic!("boom");
        }));
        assert_eq!(stats.snapshot().inflight, 0, "guard ran on unwind");
    }
}
