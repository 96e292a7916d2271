//! A sweep and a `tune` search build their workload's fixture (seeded
//! input plus exact reference) once, and a warm sweep never builds it.

use apx_apps::{Prepared, Workload};
use apx_cache::Cache;
use apx_cells::Library;
use apx_core::appenergy::{sweep_workload, sweep_workload_cached};
use apx_core::tune::tune;
use apx_core::CharacterizerSettings;
use apx_engine::Engine;
use apx_operators::{FaType, OperatorConfig, SiteSpec};
use std::sync::atomic::{AtomicUsize, Ordering};

/// FIR, counting how often its fixture is built.
#[derive(Debug, Default)]
struct CountingWorkload {
    inner: apx_apps::fir::FirWorkload,
    builds: AtomicUsize,
}

impl CountingWorkload {
    fn builds(&self) -> usize {
        self.builds.load(Ordering::SeqCst)
    }
}

impl Workload for CountingWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn default_seed(&self) -> u64 {
        self.inner.default_seed()
    }
    fn fingerprint(&self) -> String {
        format!("{}+counting", self.inner.fingerprint())
    }
    fn sites(&self) -> &'static [SiteSpec] {
        self.inner.sites()
    }
    fn prepare(&self, seed: u64) -> Prepared<'_> {
        self.builds.fetch_add(1, Ordering::SeqCst);
        self.inner.prepare(seed)
    }
}

const SETTINGS: CharacterizerSettings = CharacterizerSettings {
    error_samples: 1_000,
    verify_samples: 100,
    exhaustive_up_to_bits: 8,
    power_vectors: 50,
    seed: 35,
};

const CONFIGS: [OperatorConfig; 4] = [
    OperatorConfig::AddTrunc { n: 16, q: 10 },
    OperatorConfig::EtaIv { n: 16, x: 4 },
    OperatorConfig::RcaApx {
        n: 16,
        m: 6,
        fa_type: FaType::Three,
    },
    OperatorConfig::MulTrunc { n: 16, q: 12 },
];

#[test]
fn a_cold_sweep_builds_its_fixture_once_for_any_thread_count() {
    let lib = Library::fdsoi28();
    for threads in [1, 4] {
        let workload = CountingWorkload::default();
        let _ = sweep_workload(
            &workload,
            7,
            &lib,
            SETTINGS,
            &CONFIGS,
            &Engine::new(threads),
        );
        assert_eq!(workload.builds(), 1, "threads={threads}");
    }
}

#[test]
fn a_warm_sweep_builds_no_fixture() {
    let dir = std::env::temp_dir().join(format!("apx_fixture_sharing_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = Cache::builder().dir(&dir).open();
    let lib = Library::fdsoi28();
    let engine = Engine::new(4);
    let workload = CountingWorkload::default();
    let cold = sweep_workload_cached(&workload, 7, &lib, SETTINGS, &CONFIGS, &engine, &cache);
    assert_eq!(workload.builds(), 1, "cold sweep");
    let warm = sweep_workload_cached(&workload, 7, &lib, SETTINGS, &CONFIGS, &engine, &cache);
    assert_eq!(workload.builds(), 1, "warm sweep");
    assert_eq!(cold, warm);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cold_search_builds_its_fixture_once() {
    let workload = CountingWorkload::default();
    let candidates = [
        OperatorConfig::AddExact { n: 16 },
        OperatorConfig::AddTrunc { n: 16, q: 12 },
        OperatorConfig::AddTrunc { n: 16, q: 10 },
    ];
    let outcome = tune(
        &workload,
        7,
        &Library::fdsoi28(),
        SETTINGS,
        ">=30dB".parse().unwrap(),
        &candidates,
        &Engine::new(4),
        &Cache::default(),
    )
    .expect("tune succeeds");
    assert!(outcome.stats.cells_evaluated >= 3);
    assert_eq!(workload.builds(), 1);
}
