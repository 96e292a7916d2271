//! Content-addressed caching of [`OperatorReport`](crate::OperatorReport)s.
//!
//! A characterization report is a pure function of its inputs (the PR 2
//! determinism guarantee: bit-identical for any thread count under a
//! fixed seed), so it can be keyed by a stable hash of everything that
//! feeds it:
//!
//! * the [`OperatorConfig`] under test,
//! * the full [`CharacterizerSettings`] (seed, error samples, verify
//!   samples, exhaustive-verification bound, power vectors),
//! * a fingerprint of the cell [`Library`] (every cell spec, the
//!   wire-load model and the operating point),
//! * the engine's sharding fingerprint
//!   ([`apx_engine::sharding_fingerprint`] — the shard plan and seed
//!   streams are part of the sampled sequence),
//! * and [`REPORT_SCHEMA_VERSION`], bumped whenever the serialized
//!   report shape changes.
//!
//! Change any of these and the key changes, so stale blobs miss instead
//! of resurfacing: cache invalidation is automatic and needs no
//! versioned directories or manual flushes. The thread count is the one
//! knob deliberately **excluded** — it never changes a report, so a
//! sweep on 8 threads hits blobs written by a single-threaded run.
//!
//! # Example
//!
//! ```
//! use apx_cache::Cache;
//! use apx_cells::Library;
//! use apx_core::{Characterizer, CharacterizerSettings};
//! use apx_operators::OperatorConfig;
//!
//! let dir = std::env::temp_dir().join(format!("apx_core_doc_{}", std::process::id()));
//! let cache = Cache::builder().dir(&dir).open();
//! let lib = Library::fdsoi28();
//! let settings = CharacterizerSettings {
//!     error_samples: 2_000,
//!     verify_samples: 100,
//!     exhaustive_up_to_bits: 8,
//!     power_vectors: 30,
//!     seed: 7,
//! };
//! let config = OperatorConfig::AddTrunc { n: 16, q: 12 };
//!
//! let mut chz = Characterizer::new(&lib)
//!     .with_settings(settings)
//!     .with_cache(cache.clone());
//! let cold = chz.characterize(&config); // computes, then stores
//! let warm = chz.characterize(&config); // pure lookup
//! assert_eq!(cold, warm); // bit-identical, floats included
//! assert_eq!(cache.stats().hits, 1);
//!
//! cache.clear();
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::characterizer::CharacterizerSettings;
use apx_apps::Workload;
use apx_cache::{ArchiveStamp, CacheKey, KeyBuilder};
use apx_cells::Library;
use apx_operators::{OpClass, OperatorConfig, SiteMap};
use std::sync::{Mutex, PoisonError};

/// Version of the cached-report schema. Bump on any change to the
/// serialized [`OperatorReport`] shape *or* to the semantics of a keyed
/// field, so every stale blob misses instead of deserializing into wrong
/// or differently-meaning data.
///
/// [`OperatorReport`]: crate::OperatorReport
///
/// v1 → v2: the power estimator's canonical vector-stream decomposition
/// changed (64 bitsliced lane sub-streams per shard, each with its own
/// warm-up — see `apx_netlist::power`), which legitimately shifts
/// absolute transition totals; v1 blobs must miss, not resurface numbers
/// from the retired stream definition.
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// The last library [`library_fingerprint`] hashed, with its key. Shared
/// by every thread, since `serve` answers each request on a fresh one.
static LAST_LIBRARY: Mutex<Option<(Library, CacheKey)>> = Mutex::new(None);

/// Stable fingerprint of a cell library: a content hash over its
/// canonical JSON serialization, covering every cell spec, the wire-load
/// model and the operating point. Editing any delay/energy/area number,
/// retargeting the node or scaling the supply changes the fingerprint —
/// and with it every report cache key derived from the library.
///
/// Serializing the library costs far more than the rest of a key, so
/// the last library and its fingerprint are remembered process-wide and
/// reused for a library that is [bitwise equal](Library::bitwise_eq).
#[must_use]
pub fn library_fingerprint(lib: &Library) -> CacheKey {
    let mut last = LAST_LIBRARY.lock().unwrap_or_else(PoisonError::into_inner);
    match &*last {
        Some((known, key)) if known.bitwise_eq(lib) => *key,
        _ => {
            let key = KeyBuilder::new("apxperf-library/v1")
                .push_json("library", lib)
                .finish();
            *last = Some((lib.clone(), key));
            key
        }
    }
}

/// The content-addressed key of one characterization report: a stable
/// hash of everything [`Characterizer::characterize`] depends on. See
/// the [module docs](self) for the exact ingredient list.
///
/// [`Characterizer::characterize`]: crate::Characterizer::characterize
#[must_use]
pub fn report_cache_key(
    lib: &Library,
    settings: &CharacterizerSettings,
    config: &OperatorConfig,
) -> CacheKey {
    KeyBuilder::new("apxperf-operator-report")
        .push_u64("report_schema", u64::from(REPORT_SCHEMA_VERSION))
        .push_str("library", &library_fingerprint(lib).hex())
        .push_u64("sharding", apx_engine::sharding_fingerprint())
        .push_json("settings", settings)
        .push_json("config", config)
        .finish()
}

/// Version of the cached app-sweep-cell schema
/// ([`WorkloadCell`](crate::appenergy::WorkloadCell)). Bump on any change
/// to the serialized cell shape or the semantics of a keyed field.
///
/// v1 → v2: app-sweep cells embed per-operator energy numbers, which
/// inherit the power estimator's new lane sub-stream semantics (see
/// [`REPORT_SCHEMA_VERSION`] v2).
pub const APP_SWEEP_SCHEMA_VERSION: u32 = 2;

/// The content-addressed key of one application-sweep cell — a
/// (workload × operator-config) pair under fixed characterizer settings.
/// Same recipe as [`report_cache_key`], extended with the workload's own
/// content fingerprint (name, algorithm version, every constructor
/// parameter — see [`Workload::fingerprint`]) and the fixture seed, so
/// app sweeps are content-addressed exactly like characterization
/// reports: change the workload, its parameters, the seed or anything a
/// report depends on, and the cell misses instead of resurfacing stale.
#[must_use]
pub fn workload_cell_key(
    lib: &Library,
    settings: &CharacterizerSettings,
    workload: &dyn Workload,
    workload_seed: u64,
    config: &OperatorConfig,
) -> CacheKey {
    KeyBuilder::new("apxperf-workload-cell")
        .push_u64("app_schema", u64::from(APP_SWEEP_SCHEMA_VERSION))
        .push_u64("report_schema", u64::from(REPORT_SCHEMA_VERSION))
        .push_str("library", &library_fingerprint(lib).hex())
        .push_u64("sharding", apx_engine::sharding_fingerprint())
        .push_json("settings", settings)
        .push_str("workload", &workload.fingerprint())
        .push_u64("workload_seed", workload_seed)
        .push_json("config", config)
        .finish()
}

/// The content-addressed key of one heterogeneous-assignment cell
/// ([`HeteroCell`](crate::tune::HeteroCell)) — a workload run with a
/// per-site [`SiteMap`] substituted in. Same recipe as
/// [`workload_cell_key`], with the whole assignment (site order
/// included) keyed in place of the single uniform config, so every
/// candidate the `tune` search evaluates is content-addressed and a
/// warm rerun of the same search is pure cache hits.
#[must_use]
pub fn hetero_cell_key(
    lib: &Library,
    settings: &CharacterizerSettings,
    workload: &dyn Workload,
    workload_seed: u64,
    assignment: &SiteMap,
) -> CacheKey {
    KeyBuilder::new("apxperf-hetero-cell")
        .push_u64("app_schema", u64::from(APP_SWEEP_SCHEMA_VERSION))
        .push_u64("report_schema", u64::from(REPORT_SCHEMA_VERSION))
        .push_str("library", &library_fingerprint(lib).hex())
        .push_u64("sharding", apx_engine::sharding_fingerprint())
        .push_json("settings", settings)
        .push_str("workload", &workload.fingerprint())
        .push_u64("workload_seed", workload_seed)
        .push_json("assignment", assignment)
        .finish()
}

/// The compatibility stamp of every cache archive this build packs or
/// imports: the report/app-sweep schema versions (which move every blob's
/// content address when bumped) plus the cell-library fingerprint the
/// blobs were computed against. [`Cache::import`](apx_cache::Cache)
/// rejects an archive whose stamp differs — its blobs would either never
/// be looked up (schema drift) or describe different hardware (library
/// drift).
#[must_use]
pub fn archive_stamp(lib: &Library) -> ArchiveStamp {
    ArchiveStamp {
        schema: format!("report/v{REPORT_SCHEMA_VERSION}+app/v{APP_SWEEP_SCHEMA_VERSION}"),
        library: library_fingerprint(lib).hex(),
    }
}

/// Every cache key a sweep over `configs` can read or write — the
/// selector `apxperf cache pack --family .. [--workload ..]` resolves to.
///
/// Per configuration that is: its own report key, its sized partner
/// operator's report key (the §IV energy models characterize both — see
/// [`crate::appenergy::partner_multiplier`] /
/// [`crate::appenergy::partner_adder`]), and, when a workload is
/// selected, the (workload × config) cell key. Keys are deduplicated
/// (many configs share one partner) and sorted, so the closure — and any
/// archive packed from it — is deterministic.
#[must_use]
pub fn sweep_key_closure(
    lib: &Library,
    settings: &CharacterizerSettings,
    configs: &[OperatorConfig],
    workload: Option<(&dyn Workload, u64)>,
) -> Vec<CacheKey> {
    let mut keys = std::collections::BTreeSet::new();
    for config in configs {
        keys.insert(report_cache_key(lib, settings, config));
        let partner = match config.op_class() {
            OpClass::Adder => crate::appenergy::partner_multiplier(config),
            OpClass::Multiplier => crate::appenergy::partner_adder(config),
        };
        keys.insert(report_cache_key(lib, settings, &partner));
        if let Some((workload, seed)) = workload {
            keys.insert(workload_cell_key(lib, settings, workload, seed, config));
        }
    }
    keys.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Characterizer;
    use apx_cache::{Cache, Lookup};
    use apx_cells::OperatingPoint;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static TEST_DIR_ID: AtomicUsize = AtomicUsize::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> Self {
            let id = TEST_DIR_ID.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("apx_core_cache_test_{}_{id}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn quick_settings() -> CharacterizerSettings {
        CharacterizerSettings {
            error_samples: 5_000,
            verify_samples: 200,
            exhaustive_up_to_bits: 8,
            power_vectors: 50,
            seed: 41,
        }
    }

    #[test]
    fn hit_returns_bit_identical_report() {
        let tmp = TempDir::new();
        let cache = Cache::builder().dir(&tmp.0).open();
        let lib = Library::fdsoi28();
        let config = OperatorConfig::Aca { n: 16, p: 6 };
        let mut chz = Characterizer::new(&lib)
            .with_settings(quick_settings())
            .with_cache(cache.clone());
        let cold = chz.characterize(&config);
        assert_eq!(cache.stats().writes, 1);
        let warm = chz.characterize(&config);
        // PartialEq on OperatorReport compares every float bit-for-bit
        // (incl. the -inf-capable mse_db and all positional BER vectors)
        assert_eq!(cold, warm);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn mismatched_inputs_miss() {
        let tmp = TempDir::new();
        let cache = Cache::builder().dir(&tmp.0).open();
        let lib = Library::fdsoi28();
        let config = OperatorConfig::AddTrunc { n: 16, q: 10 };
        let settings = quick_settings();
        Characterizer::new(&lib)
            .with_settings(settings)
            .with_cache(cache.clone())
            .characterize(&config);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (0, 1, 1));

        // different seed → miss (second write)
        let mut reseeded = settings;
        reseeded.seed ^= 1;
        Characterizer::new(&lib)
            .with_settings(reseeded)
            .with_cache(cache.clone())
            .characterize(&config);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().writes, 2);

        // different sample count → miss
        let mut resampled = settings;
        resampled.error_samples += 1;
        Characterizer::new(&lib)
            .with_settings(resampled)
            .with_cache(cache.clone())
            .characterize(&config);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().writes, 3);

        // different library (fingerprint) → miss
        let other_node = Library::generic45();
        Characterizer::new(&other_node)
            .with_settings(settings)
            .with_cache(cache.clone())
            .characterize(&config);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().writes, 4);

        // and the original inputs still hit their original blob
        Characterizer::new(&lib)
            .with_settings(settings)
            .with_cache(cache.clone())
            .characterize(&config);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn pre_schema_bump_blobs_are_clean_misses() {
        // A warm cache dir full of blobs written under the previous
        // REPORT_SCHEMA_VERSION must behave like a cold cache: the old
        // blobs sit under different content addresses, so the new run
        // records a plain miss (never a hit, never a collision/heal) and
        // recomputes under its own key.
        let tmp = TempDir::new();
        let cache = Cache::builder().dir(&tmp.0).open();
        let lib = Library::fdsoi28();
        let config = OperatorConfig::Aca { n: 16, p: 6 };
        let settings = quick_settings();
        let mut chz = Characterizer::new(&lib)
            .with_settings(settings)
            .with_cache(cache.clone());
        let report = chz.characterize(&config);

        // Re-derive this report's key under the retired v1 schema tag —
        // the recipe below must stay in sync with `report_cache_key` —
        // and plant a well-formed report blob there, simulating a cache
        // dir left over from before the bump.
        let old_key = KeyBuilder::new("apxperf-operator-report")
            .push_u64("report_schema", u64::from(REPORT_SCHEMA_VERSION - 1))
            .push_str("library", &library_fingerprint(&lib).hex())
            .push_u64("sharding", apx_engine::sharding_fingerprint())
            .push_json("settings", &settings)
            .push_json("config", &config)
            .finish();
        let new_key = report_cache_key(&lib, &settings, &config);
        assert_ne!(old_key, new_key, "schema bump must move the address");
        let warm = TempDir::new();
        Cache::builder().dir(&warm.0).open().put(&old_key, &report);

        // Fresh session over the warm dir: the v1 blob is invisible.
        let cache2 = Cache::builder().dir(&warm.0).open();
        let mut chz2 = Characterizer::new(&lib)
            .with_settings(settings)
            .with_cache(cache2.clone());
        let recomputed = chz2.characterize(&config);
        assert_eq!(recomputed, report);
        let stats = cache2.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (0, 1, 1));
    }

    #[test]
    fn corrupted_blob_falls_back_to_recompute() {
        let tmp = TempDir::new();
        let cache = Cache::builder().dir(&tmp.0).open();
        let lib = Library::fdsoi28();
        let config = OperatorConfig::EtaIi { n: 16, x: 4 };
        let settings = quick_settings();
        let mut chz = Characterizer::new(&lib)
            .with_settings(settings)
            .with_cache(cache.clone());
        let cold = chz.characterize(&config);

        // a newer blob under the report's key that is not a report
        let key = report_cache_key(&lib, &settings, &config);
        cache.put(&key, &"definitely not a report");

        let recomputed = chz.characterize(&config);
        assert_eq!(recomputed, cold, "recompute must reproduce the report");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(
            cache.stats().writes,
            3,
            "the cold blob, the plant, the heal"
        );
        // and now it hits again
        assert_eq!(chz.characterize(&config), cold);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn key_ignores_thread_count() {
        // the key has no engine/thread ingredient: a report cached on one
        // thread is served to a 4-thread run (determinism makes it valid)
        let tmp = TempDir::new();
        let cache = Cache::builder().dir(&tmp.0).open();
        let lib = Library::fdsoi28();
        let config = OperatorConfig::RcaApx {
            n: 16,
            m: 6,
            fa_type: apx_operators::FaType::Two,
        };
        let serial = Characterizer::new(&lib)
            .with_settings(quick_settings())
            .with_engine(apx_engine::Engine::new(1))
            .with_cache(cache.clone())
            .characterize(&config);
        let threaded = Characterizer::new(&lib)
            .with_settings(quick_settings())
            .with_engine(apx_engine::Engine::new(4))
            .with_cache(cache.clone())
            .characterize(&config);
        assert_eq!(serial, threaded);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn library_fingerprint_sees_every_knob() {
        let base = library_fingerprint(&Library::fdsoi28());
        assert_eq!(base, library_fingerprint(&Library::fdsoi28()));
        assert_ne!(base, library_fingerprint(&Library::generic45()));
        let scaled = Library::fdsoi28().with_operating_point(OperatingPoint {
            vdd_v: 0.8,
            freq_mhz: 100.0,
        });
        assert_ne!(base, library_fingerprint(&scaled));
    }

    #[test]
    fn remembered_fingerprint_tells_signed_zeros_apart() {
        // `-0.0 == 0.0`, but the two serialize differently, so the
        // remembered fingerprint of one must not answer for the other
        let at = |vdd_v: f64| {
            Library::fdsoi28().with_operating_point(OperatingPoint {
                vdd_v,
                freq_mhz: 100.0,
            })
        };
        let (pos, neg) = (at(0.0), at(-0.0));
        assert_ne!(
            serde_json::to_string(&pos).unwrap(),
            serde_json::to_string(&neg).unwrap()
        );
        assert_ne!(library_fingerprint(&pos), library_fingerprint(&neg));
        assert_ne!(library_fingerprint(&neg), library_fingerprint(&pos));
    }

    #[test]
    fn cached_sweep_matches_uncached_sweep() {
        let tmp = TempDir::new();
        let cache = Cache::builder().dir(&tmp.0).open();
        let lib = Library::fdsoi28();
        let configs = [
            OperatorConfig::AddTrunc { n: 16, q: 10 },
            OperatorConfig::Aca { n: 16, p: 4 },
        ];
        let settings = quick_settings();
        let engine = apx_engine::Engine::new(2);
        let uncached = crate::sweeps::characterize_all_cached(
            &lib,
            settings,
            &configs,
            &engine,
            &Cache::default(),
        );
        let cold =
            crate::sweeps::characterize_all_cached(&lib, settings, &configs, &engine, &cache);
        let warm =
            crate::sweeps::characterize_all_cached(&lib, settings, &configs, &engine, &cache);
        assert_eq!(uncached, cold);
        assert_eq!(cold, warm);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().writes, 2);
    }

    #[test]
    fn hetero_cell_key_sees_the_whole_assignment() {
        let lib = Library::fdsoi28();
        let settings = quick_settings();
        let workload = apx_apps::fft::FftWorkload::default();
        let sites = workload.sites();
        let config = OperatorConfig::AddTrunc { n: 16, q: 10 };
        let uniform = SiteMap::uniform(sites, config);
        let mut tweaked = uniform.clone();
        tweaked.set(sites[0].tag, OperatorConfig::AddTrunc { n: 16, q: 11 });
        let base = hetero_cell_key(&lib, &settings, &workload, 7, &uniform);
        assert_eq!(
            base,
            hetero_cell_key(&lib, &settings, &workload, 7, &uniform),
            "the key is stable"
        );
        assert_ne!(
            base,
            hetero_cell_key(&lib, &settings, &workload, 7, &tweaked),
            "every per-site config is keyed"
        );
        assert_ne!(
            base,
            hetero_cell_key(&lib, &settings, &workload, 8, &uniform),
            "the seed is keyed"
        );
        assert_ne!(
            base,
            workload_cell_key(&lib, &settings, &workload, 7, &config),
            "hetero cells never collide with uniform workload cells"
        );
    }

    #[test]
    fn collision_guard_rejects_wrong_config_blob() {
        // a blob that parses as a report but describes another operator
        // (hash collision, or a manually copied file) must not be served
        let tmp = TempDir::new();
        let cache = Cache::builder().dir(&tmp.0).open();
        let lib = Library::fdsoi28();
        let settings = quick_settings();
        let a = OperatorConfig::AddTrunc { n: 16, q: 10 };
        let b = OperatorConfig::AddTrunc { n: 16, q: 11 };
        let report_b = Characterizer::new(&lib)
            .with_settings(settings)
            .characterize(&b);
        // plant b's report under a's key
        cache.put(&report_cache_key(&lib, &settings, &a), &report_b);
        let report_a = Characterizer::new(&lib)
            .with_settings(settings)
            .with_cache(cache.clone())
            .characterize(&a);
        assert_eq!(report_a.config, a, "planted blob must be rejected");

        // the same guard protects workload cells: plant b's cell under
        // a's cell key, then sweep a twice
        let engine = apx_engine::Engine::new(1);
        let workload = apx_apps::fir::FirWorkload::default();
        let cell_b = crate::appenergy::sweep_workload(&workload, 7, &lib, settings, &[b], &engine);
        cache.put(
            &workload_cell_key(&lib, &settings, &workload, 7, &a),
            &cell_b[0],
        );
        let sweep_a = || {
            crate::appenergy::sweep_workload_cached(
                &workload,
                7,
                &lib,
                settings,
                &[a],
                &engine,
                &cache,
            )
        };
        let cold = sweep_a();
        assert_eq!(cold[0].config, a, "planted cell must be rejected");
        let before = cache.stats();
        assert_eq!(sweep_a(), cold);
        let after = cache.stats();
        assert_eq!(
            (after.hits, after.misses, after.writes),
            (before.hits + 1, before.misses, before.writes),
            "the healed cell is a pure hit"
        );

        // … and the served report path, whose lookup feeds `/stats`
        let c = OperatorConfig::AddTrunc { n: 16, q: 12 };
        cache.put(&report_cache_key(&lib, &settings, &c), &report_b);
        let (report_c, lookup) = crate::query::cached_report(&lib, settings, &c, &engine, &cache);
        assert_eq!(lookup, Lookup::Computed, "a rejected blob is not a hit");
        assert_eq!(report_c.config, c, "planted report must be rejected");
        let (again, lookup) = crate::query::cached_report(&lib, settings, &c, &engine, &cache);
        assert_eq!(lookup, Lookup::Hit);
        assert_eq!(again, report_c);
    }

    #[test]
    fn archive_stamp_tracks_schema_and_library() {
        let stamp = archive_stamp(&Library::fdsoi28());
        assert_eq!(
            stamp.schema,
            format!("report/v{REPORT_SCHEMA_VERSION}+app/v{APP_SWEEP_SCHEMA_VERSION}")
        );
        assert_eq!(
            stamp.library,
            library_fingerprint(&Library::fdsoi28()).hex()
        );
        assert_ne!(
            stamp,
            archive_stamp(&Library::generic45()),
            "library drift moves the stamp"
        );
    }

    #[test]
    fn sweep_key_closure_covers_reports_partners_and_cells() {
        let lib = Library::fdsoi28();
        let settings = quick_settings();
        let adder = OperatorConfig::AddTrunc { n: 16, q: 10 };
        let mult = OperatorConfig::MulTrunc { n: 8, q: 8 };
        let keys = sweep_key_closure(&lib, &settings, &[adder, mult], None);
        // each config's own report key is in the closure …
        assert!(keys.contains(&report_cache_key(&lib, &settings, &adder)));
        assert!(keys.contains(&report_cache_key(&lib, &settings, &mult)));
        // … and so is each partner's
        let partner_m = crate::appenergy::partner_multiplier(&adder);
        let partner_a = crate::appenergy::partner_adder(&mult);
        assert!(keys.contains(&report_cache_key(&lib, &settings, &partner_m)));
        assert!(keys.contains(&report_cache_key(&lib, &settings, &partner_a)));
        assert_eq!(keys.len(), 4, "deduplicated and nothing else");
        // sorted → deterministic
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // a workload widens the closure by one cell key per config
        let workload = apx_apps::fft::FftWorkload::default();
        let with_cells = sweep_key_closure(&lib, &settings, &[adder, mult], Some((&workload, 7)));
        assert_eq!(with_cells.len(), 6);
        assert!(with_cells.contains(&workload_cell_key(&lib, &settings, &workload, 7, &adder)));
    }
}
