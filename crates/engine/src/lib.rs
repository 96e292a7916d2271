//! The APXPERF-RS execution engine: batched, multi-threaded runs of the
//! characterization hot loops with **thread-count-independent results**.
//!
//! The paper's flow pushes >10⁷ random vectors per operator through the
//! functional and gate-level models on a cluster; this crate provides the
//! workstation equivalent. Three pieces cooperate:
//!
//! * [`Engine`] — a fork-join handle: each parallel map runs on the
//!   calling thread plus scoped helper threads, all claiming task indices
//!   from one shared counter. The worker count comes from the
//!   `APXPERF_THREADS` environment variable (falling back to the
//!   machine's available parallelism) or an explicit [`Engine::new`].
//! * [`plan_shards`] — splits a sample count into fixed-size shards. The
//!   plan depends **only on the total count**, never on the thread count.
//! * [`shard_seed`] — derives one independent RNG stream per
//!   (master seed, loop id, shard index) triple.
//!
//! Together these give the determinism guarantee the reports rely on:
//! every shard always processes the same samples with the same RNG
//! stream, and partial results are merged in shard order on the caller's
//! thread — so the output is **bit-identical for any thread count**, only
//! the wall-clock changes.
//!
//! # Example
//!
//! ```
//! use apx_engine::{plan_shards, shard_seed, Engine};
//!
//! let engine = Engine::new(4);
//! let shards = plan_shards(100_000);
//! let partials = engine.map_indexed(shards.len(), |i| {
//!     let shard = shards[i];
//!     let _stream = shard_seed(0xDA7E, 1, shard.index as u64);
//!     shard.len as u64 // stand-in for real per-shard work
//! });
//! // results arrive in shard order regardless of scheduling
//! assert_eq!(partials.iter().sum::<u64>(), 100_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable selecting the worker count for
/// [`Engine::from_env`] (and everything built on it, including the repro
/// binaries). Unset or unparsable values fall back to the machine's
/// available parallelism; `1` forces serial execution.
pub const THREADS_ENV: &str = "APXPERF_THREADS";

/// Samples per shard of the characterization loops. A fixed constant —
/// never derived from the thread count — so the shard plan, and with it
/// every per-shard RNG stream, is identical no matter how many workers
/// execute it. 8192 samples amortize task overhead thoroughly while
/// keeping >10 shards for the smallest default loop.
pub const SHARD_SAMPLES: usize = 8192;

/// The most workers an [`Engine`] runs: well above the core counts the
/// sweeps can use, and well below the counts at which spawning fails.
/// [`Engine::new`] clamps to it, [`default_threads`] ignores an
/// `APXPERF_THREADS` above it, and the CLI rejects a larger `--threads`.
pub const MAX_THREADS: usize = 1024;

/// Reads the `APXPERF_THREADS` override, falling back to the machine's
/// available parallelism. Always in `1..=MAX_THREADS`; an override
/// outside that range is ignored like an unparsable one.
///
/// The machine's parallelism is queried once per process: the query
/// reads the scheduler affinity and cgroup quota files, which costs
/// tens of µs, and every `Characterizer::new` lands here.
#[must_use]
pub fn default_threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| (1..=MAX_THREADS).contains(n))
        .unwrap_or_else(|| {
            *MACHINE.get_or_init(|| {
                std::thread::available_parallelism()
                    .map_or(1, NonZeroUsize::get)
                    .min(MAX_THREADS)
            })
        })
}

/// One contiguous chunk of a sharded loop (see [`plan_shards`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard index, `0..num_shards`; also the per-shard RNG stream index.
    pub index: usize,
    /// First sample of the shard.
    pub start: usize,
    /// Number of samples in the shard.
    pub len: usize,
}

/// Splits `total` samples into [`SHARD_SAMPLES`]-sized shards (the last
/// shard takes the remainder). `total == 0` yields no shards.
///
/// The plan is a pure function of `total`: thread counts and scheduling
/// never influence it — that invariance is what makes sharded
/// reports bit-identical across machines.
#[must_use]
pub fn plan_shards(total: usize) -> Vec<Shard> {
    plan_shards_sized(total, SHARD_SAMPLES)
}

/// [`plan_shards`] with an explicit shard size (power-estimation loops
/// use smaller shards because each vector is far more expensive than an
/// error sample).
///
/// # Panics
/// Panics if `shard_samples` is 0.
#[must_use]
pub fn plan_shards_sized(total: usize, shard_samples: usize) -> Vec<Shard> {
    assert!(shard_samples > 0, "shard size must be positive");
    let mut shards = Vec::with_capacity(total.div_ceil(shard_samples));
    let mut start = 0;
    while start < total {
        let len = (total - start).min(shard_samples);
        shards.push(Shard {
            index: shards.len(),
            start,
            len,
        });
        start += len;
    }
    shards
}

/// Number of independent lane sub-streams a bitsliced 64-way simulation
/// shard carries: one per bit of a `u64` net word. Like
/// [`SHARD_SAMPLES`], this is part of the deterministic stream
/// decomposition — never derived from the thread count or batch width.
pub const SIM_LANES: usize = 64;

/// Splits the `total` samples of one shard across `lanes` lane
/// sub-streams: lane `l` carries `total / lanes` samples plus one of the
/// first `total % lanes` remainders, so lane lengths are non-increasing
/// and differ by at most one.
///
/// The decomposition is a pure function of `total` — thread counts and
/// batch widths never influence it — which is what lets a bitsliced
/// kernel and a per-lane scalar reference process the *same* sub-streams
/// and produce bit-identical results.
///
/// # Example
/// ```
/// let lens = apx_engine::plan_lanes(10, apx_engine::SIM_LANES);
/// assert_eq!(lens.iter().sum::<usize>(), 10);
/// assert_eq!(lens[0], 1);
/// assert_eq!(lens[10], 0);
/// ```
///
/// # Panics
/// Panics if `lanes` is 0.
#[must_use]
pub fn plan_lanes(total: usize, lanes: usize) -> Vec<usize> {
    assert!(lanes > 0, "lane count must be positive");
    let base = total / lanes;
    let rem = total % lanes;
    (0..lanes).map(|l| base + usize::from(l < rem)).collect()
}

/// Version counter of the sharding/seed-derivation scheme. Bump it
/// whenever [`SHARD_SAMPLES`], [`shard_seed`]'s mixing constants or the
/// shard-plan layout change: results would still be internally
/// consistent, but no longer comparable sample-for-sample with runs of
/// the previous scheme.
const SHARDING_VERSION: u64 = 1;

/// A stable fingerprint of the sharded-execution scheme, mixed into
/// content-addressed cache keys (see `apx_cache`): a cached report is
/// only valid for the exact shard plan and per-shard seed streams that
/// produced it, so any change to [`SHARD_SAMPLES`] or the private
/// `SHARDING_VERSION` counter silently invalidates every stale blob.
#[must_use]
pub fn sharding_fingerprint() -> u64 {
    shard_seed(SHARD_SAMPLES as u64, 0x5_4A8D, SHARDING_VERSION)
}

/// Derives the RNG seed of one shard stream: a splitmix64-style mix of
/// the master seed, a loop identifier (so the error, verification and
/// power loops draw from unrelated streams even under the same master
/// seed) and the shard index.
#[must_use]
pub fn shard_seed(master: u64, stream: u64, shard: u64) -> u64 {
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(shard.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The execution engine: a cheap, cloneable handle that runs indexed
/// parallel maps as fork-joins over scoped threads.
#[derive(Debug, Clone)]
pub struct Engine {
    threads: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::from_env()
    }
}

impl Engine {
    /// Creates an engine with an explicit worker count (clamped to
    /// `1..=`[`MAX_THREADS`]).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Engine {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// Creates an engine honouring `APXPERF_THREADS` (see
    /// [`default_threads`]).
    #[must_use]
    pub fn from_env() -> Self {
        Engine::new(default_threads())
    }

    /// A serial engine: one worker. Used inside already-parallel regions
    /// (e.g. each task of a config-level sweep) to avoid oversubscribing
    /// the machine with nested fork-joins.
    #[must_use]
    pub fn single_threaded() -> Self {
        Engine::new(1)
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(0), f(1), …, f(count - 1)` and returns the results
    /// **in index order**, however the tasks were scheduled. This is the
    /// only primitive the sharded loops need: per-shard work runs
    /// concurrently, and the caller folds the ordered partials serially so
    /// floating-point merges are reproducible.
    ///
    /// The calling thread works beside `min(threads, count) - 1` scoped
    /// helper threads; every worker claims the next unclaimed index until
    /// none is left, so a helper that fails to spawn only leaves its
    /// share to the others.
    ///
    /// # Example
    /// ```
    /// use apx_engine::Engine;
    ///
    /// let squares = Engine::new(4).map_indexed(5, |i| i * i);
    /// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
    /// // same result on any engine — scheduling never leaks into output
    /// assert_eq!(squares, Engine::single_threaded().map_indexed(5, |i| i * i));
    /// ```
    ///
    /// # Panics
    /// Propagates panics from `f`: a panicking task stops further indices
    /// from being claimed, and once every worker has returned the first
    /// panic resumes with its own payload — so `map_indexed` panics
    /// rather than deadlocks or returns partial results.
    pub fn map_indexed<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(count);
        if workers <= 1 {
            return (0..count).map(f).collect();
        }
        // Relaxed: the counter only hands out indices; results and the
        // panic payload reach the caller through the joins.
        let next = AtomicUsize::new(0);
        let first_panic = Mutex::new(None);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return done;
                }
                match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(value) => done.push((i, value)),
                    Err(payload) => {
                        next.store(count, Ordering::Relaxed);
                        first_panic
                            .lock()
                            .expect("nothing panics while holding the slot")
                            .get_or_insert(payload);
                        return done;
                    }
                }
            }
        };
        let parts = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..workers)
                .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, work).ok())
                .collect();
            let mut parts = vec![work()];
            parts.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().expect("tasks catch their own panics")),
            );
            parts
        });
        if let Some(payload) = first_panic
            .into_inner()
            .expect("nothing panics while holding the slot")
        {
            panic::resume_unwind(payload);
        }
        let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
        for (i, value) in parts.into_iter().flatten() {
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every index was claimed and completed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_is_thread_independent_and_covers_everything() {
        for total in [0usize, 1, 100, SHARD_SAMPLES, SHARD_SAMPLES + 1, 100_000] {
            let shards = plan_shards(total);
            let covered: usize = shards.iter().map(|s| s.len).sum();
            assert_eq!(covered, total);
            for (k, s) in shards.iter().enumerate() {
                assert_eq!(s.index, k);
                assert!(s.len > 0 && s.len <= SHARD_SAMPLES);
            }
            for pair in shards.windows(2) {
                assert_eq!(pair[0].start + pair[0].len, pair[1].start);
            }
        }
    }

    #[test]
    fn lane_plan_covers_everything_and_is_non_increasing() {
        for total in [0usize, 1, 63, 64, 65, 100, 256, 257] {
            let lens = plan_lanes(total, SIM_LANES);
            assert_eq!(lens.len(), SIM_LANES);
            assert_eq!(lens.iter().sum::<usize>(), total);
            for pair in lens.windows(2) {
                assert!(pair[0] >= pair[1]);
                assert!(pair[0] - pair[1] <= 1);
            }
        }
        assert_eq!(plan_lanes(7, 3), vec![3, 2, 2]);
    }

    #[test]
    fn shard_seeds_are_distinct_across_streams_and_shards() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..4 {
            for shard in 0..64 {
                assert!(seen.insert(shard_seed(0xDA7E_2017, stream, shard)));
            }
        }
        // and reproducible
        assert_eq!(shard_seed(1, 2, 3), shard_seed(1, 2, 3));
    }

    /// The worker counts the fork-join contract is checked at.
    const THREAD_COUNTS: [usize; 4] = [1, 2, 8, MAX_THREADS];

    #[test]
    fn map_indexed_preserves_order_for_any_thread_count() {
        for threads in THREAD_COUNTS {
            let engine = Engine::new(threads);
            assert_eq!(engine.threads(), threads);
            for count in [2usize, 3, 64, 257] {
                let expected: Vec<usize> = (0..count).map(|i| i * i).collect();
                assert_eq!(
                    engine.map_indexed(count, |i| i * i),
                    expected,
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        for threads in THREAD_COUNTS {
            let engine = Engine::new(threads);
            assert_eq!(engine.map_indexed(0, |i| i), Vec::<usize>::new());
            assert_eq!(engine.map_indexed(1, |i| i + 7), vec![7]);
        }
    }

    #[test]
    fn map_indexed_panics_cleanly_instead_of_hanging() {
        // ...with the panicking task's own payload, at any thread count
        for threads in THREAD_COUNTS {
            let engine = Engine::new(threads);
            for count in [16, 64] {
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.map_indexed(count, |i| {
                        assert!(i != 13, "shard {i} failed");
                        i
                    })
                }))
                .expect_err("a panicking task must fail the map");
                let message = payload
                    .downcast_ref::<String>()
                    .expect("a formatted panic message");
                assert_eq!(
                    message, "shard 13 failed",
                    "{threads} threads, {count} tasks"
                );
            }
        }
    }

    #[test]
    fn map_indexed_never_runs_on_more_threads_than_workers_or_tasks() {
        for threads in THREAD_COUNTS {
            for count in [1usize, 3, 16] {
                let seen = Mutex::new(std::collections::HashSet::new());
                Engine::new(threads).map_indexed(count, |_| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    // The bound holds under any interleaving; the pause
                    // only gives surplus workers a chance to break it.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
                let used = seen.into_inner().unwrap().len();
                assert!(
                    (1..=threads.min(count)).contains(&used),
                    "{threads} threads, {count} tasks: {used} distinct threads"
                );
            }
        }
    }

    #[test]
    fn nested_map_indexed_completes() {
        for threads in THREAD_COUNTS {
            let engine = Engine::new(threads);
            let sums = engine.map_indexed(4, |i| {
                engine.map_indexed(4, |j| 4 * i + j).iter().sum::<usize>()
            });
            assert_eq!(sums, vec![6, 22, 38, 54], "{threads} threads");
        }
    }

    #[test]
    fn default_threads_is_within_the_ceiling() {
        assert!((1..=MAX_THREADS).contains(&default_threads()));
    }

    #[test]
    fn explicit_worker_counts_are_clamped_to_the_ceiling() {
        assert_eq!(Engine::new(0).threads(), 1);
        assert_eq!(Engine::new(MAX_THREADS).threads(), MAX_THREADS);
        assert_eq!(Engine::new(100_000).threads(), MAX_THREADS);
    }
}
