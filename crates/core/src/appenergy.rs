//! Application-level energy model — eq. (1) of the paper with
//! *partner-operator sizing*, the mechanism behind the "hidden cost":
//!
//! `E_app = Σ PDP_add + Σ PDP_mul`
//!
//! When the adder under test is a carefully sized fixed-point operator
//! keeping `q` bits, every exact multiplier downstream shrinks to `q×q`
//! ("the exact multipliers used alongside the modified adders are
//! optimally sized according to the adder bit-width"). An approximate
//! adder keeps the full 16-bit interface, so its partner multiplier stays
//! full width — that overhead is what Tables III–VI expose.

use crate::characterizer::{Characterizer, CharacterizerSettings};
use apx_apps::{OperatorCtx, Prepared, Workload, WorkloadRun};
use apx_cache::Cache;
use apx_cells::Library;
use apx_engine::Engine;
use apx_operators::{OpClass, OpCounts, OperatorConfig, ADDER_WIDTHS, MULTIPLIER_WIDTHS};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Per-operation energies (PDP, in pJ) of an adder/multiplier pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppEnergyModel {
    /// Energy per addition in pJ.
    pub adder_pdp_pj: f64,
    /// Energy per multiplication in pJ.
    pub mult_pdp_pj: f64,
}

impl AppEnergyModel {
    /// Total energy of an operation mix, in pJ (eq. (1)).
    #[must_use]
    pub fn energy_pj(&self, counts: OpCounts) -> f64 {
        counts.adds as f64 * self.adder_pdp_pj + counts.muls as f64 * self.mult_pdp_pj
    }
}

/// The minimal exact multiplier that partners a given adder
/// configuration: sized to the adder's live output width for fixed-point
/// sizing, full width for approximate adders (their interface never
/// shrinks). The width is clamped into [`MULTIPLIER_WIDTHS`], so every
/// adder the sweeps emit (including the width-scaling family, which spans
/// all of [`ADDER_WIDTHS`]) gets a buildable, printable partner.
///
/// # Panics
/// Panics if `adder` is not an adder configuration.
#[must_use]
pub fn partner_multiplier(adder: &OperatorConfig) -> OperatorConfig {
    assert_eq!(adder.op_class(), OpClass::Adder, "adder expected");
    let width = match *adder {
        OperatorConfig::AddTrunc { q, .. } | OperatorConfig::AddRound { q, .. } => q,
        OperatorConfig::AddSized { w, .. } => w,
        _ => adder.input_bits(),
    };
    let n = width.clamp(*MULTIPLIER_WIDTHS.start(), *MULTIPLIER_WIDTHS.end());
    OperatorConfig::MulTrunc { n, q: n }
}

/// The minimal exact adder that partners a given multiplier
/// configuration: sized to the multiplier's output width, clamped into
/// [`ADDER_WIDTHS`].
///
/// # Panics
/// Panics if `mult` is not a multiplier configuration.
#[must_use]
pub fn partner_adder(mult: &OperatorConfig) -> OperatorConfig {
    assert_eq!(mult.op_class(), OpClass::Multiplier, "multiplier expected");
    let width = match *mult {
        OperatorConfig::MulTrunc { q, .. } | OperatorConfig::MulRound { q, .. } => q,
        OperatorConfig::MulSized { w, .. } => 2 * w,
        _ => mult.input_bits(),
    };
    let n = width.clamp(*ADDER_WIDTHS.start(), *ADDER_WIDTHS.end());
    OperatorConfig::AddExact { n }
}

/// Builds the energy model for any **operator under test**: its own PDP
/// plus its sized partner's PDP — the [`partner_multiplier`] of an adder
/// (Tables III/V, Figs. 5/6), the [`partner_adder`] of a multiplier
/// (Tables IV/VI, Table II). The operator is characterized first, then
/// its partner.
pub fn model_for(chz: &mut Characterizer<'_>, config: &OperatorConfig) -> AppEnergyModel {
    let own_pdp_pj = chz.characterize(config).hw.pdp_pj;
    match config.op_class() {
        OpClass::Adder => AppEnergyModel {
            adder_pdp_pj: own_pdp_pj,
            mult_pdp_pj: chz.characterize(&partner_multiplier(config)).hw.pdp_pj,
        },
        OpClass::Multiplier => AppEnergyModel {
            adder_pdp_pj: chz.characterize(&partner_adder(config)).hw.pdp_pj,
            mult_pdp_pj: own_pdp_pj,
        },
    }
}

/// The fixture of one sweep, built by the first cell that needs it while
/// the other cells wait. The build reads nothing through the cache, so a
/// cell that waits here while holding its cell key's claim cannot close a
/// cycle: the lock order of [`Cache::read_through`] still holds.
pub(crate) fn shared_fixture<'a, 'w>(
    fixture: &'a OnceLock<Prepared<'w>>,
    workload: &'w dyn Workload,
    seed: u64,
) -> &'a Prepared<'w> {
    fixture.get_or_init(|| workload.prepare(seed))
}

/// One cell of an application sweep: the operator configuration under
/// test, its partner-sized energy model (eq. (1)), and the scored
/// workload run. Serializable so whole cells are content-addressable —
/// see [`crate::cache::workload_cell_key`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCell {
    /// The configuration under test.
    pub config: OperatorConfig,
    /// Its application energy model (operator + sized partner).
    pub model: AppEnergyModel,
    /// The scored workload run with this configuration substituted in.
    pub run: WorkloadRun,
}

/// The single application-sweep driver behind every figure/table case
/// study and `apxperf app`: runs `workload` once per configuration —
/// an adder config degrades the additions, a multiplier config the
/// multiplications, the partner operator is sized by the paper's rule —
/// and characterizes each (workload × config) cell in parallel on
/// `engine`, returning cells in input order.
///
/// Every cell is a pure function of `(workload fingerprint, seed,
/// library, settings, config)`: the workload generates its inputs from
/// `seed` alone, so the output is bit-identical for any thread count.
/// The seeded input and exact reference ([`Workload::prepare`]) are
/// built once per call, by the first cell that misses, and every cell
/// runs on that one fixture; a warm sweep never builds it.
#[must_use]
pub fn sweep_workload(
    workload: &dyn Workload,
    seed: u64,
    lib: &Library,
    settings: CharacterizerSettings,
    configs: &[OperatorConfig],
    engine: &Engine,
) -> Vec<WorkloadCell> {
    sweep_workload_cached(
        workload,
        seed,
        lib,
        settings,
        configs,
        engine,
        &Cache::default(),
    )
}

/// [`sweep_workload`] backed by the content-addressed cache: a cell that
/// was already swept (same workload fingerprint, seed, settings, library
/// and config) costs one blob lookup instead of two characterizations
/// plus an application run — app sweeps warm up exactly like
/// characterization sweeps. On a miss the inner characterizations still
/// go through the report cache, so even a cold app sweep reuses operator
/// reports cached by earlier figure runs.
#[must_use]
pub fn sweep_workload_cached(
    workload: &dyn Workload,
    seed: u64,
    lib: &Library,
    settings: CharacterizerSettings,
    configs: &[OperatorConfig],
    engine: &Engine,
    cache: &Cache,
) -> Vec<WorkloadCell> {
    let inner = crate::sweeps::inner_engine(engine, configs.len());
    let fixture = OnceLock::new();
    engine.map_indexed(configs.len(), |i| {
        let config = configs[i];
        cache
            .read_through(
                || crate::cache::workload_cell_key(lib, &settings, workload, seed, &config),
                |cell: &WorkloadCell| cell.config == config,
                || {
                    let mut chz = Characterizer::new(lib)
                        .with_settings(settings)
                        .with_engine(inner.clone())
                        .with_cache(cache.clone());
                    let model = model_for(&mut chz, &config);
                    let mut ctx = OperatorCtx::for_config(&config);
                    let run = shared_fixture(&fixture, workload, seed)(&mut ctx);
                    WorkloadCell { config, model, run }
                },
            )
            .0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CharacterizerSettings;
    use apx_cells::Library;
    use apx_operators::FaType;

    #[test]
    fn partner_multiplier_shrinks_with_fixed_point_sizing() {
        let sized = partner_multiplier(&OperatorConfig::AddTrunc { n: 16, q: 10 });
        assert_eq!(sized, OperatorConfig::MulTrunc { n: 10, q: 10 });
        let full = partner_multiplier(&OperatorConfig::Aca { n: 16, p: 12 });
        assert_eq!(full, OperatorConfig::MulTrunc { n: 16, q: 16 });
    }

    #[test]
    fn partner_adder_follows_multiplier_output() {
        assert_eq!(
            partner_adder(&OperatorConfig::MulTrunc { n: 16, q: 16 }),
            OperatorConfig::AddExact { n: 16 }
        );
        assert_eq!(
            partner_adder(&OperatorConfig::MulTrunc { n: 16, q: 4 }),
            OperatorConfig::AddExact { n: 4 }
        );
        assert_eq!(
            partner_adder(&OperatorConfig::Aam { n: 16 }),
            OperatorConfig::AddExact { n: 16 }
        );
    }

    #[test]
    fn sized_fixed_point_data_path_costs_less() {
        // The paper's core mechanism: at equal op counts, the truncated
        // adder's data-path (small partner multiplier) must be several
        // times cheaper than the approximate adder's (full multiplier).
        let lib = Library::fdsoi28();
        let mut chz = Characterizer::new(&lib).with_settings(CharacterizerSettings {
            error_samples: 1_000,
            verify_samples: 200,
            exhaustive_up_to_bits: 12,
            power_vectors: 300,
            seed: 5,
        });
        let sized = model_for(&mut chz, &OperatorConfig::AddTrunc { n: 16, q: 10 });
        let approx = model_for(
            &mut chz,
            &OperatorConfig::RcaApx {
                n: 16,
                m: 6,
                fa_type: FaType::Three,
            },
        );
        let counts = OpCounts { adds: 14, muls: 16 }; // one HEVC 2-pass pixel
        let e_sized = sized.energy_pj(counts);
        let e_approx = approx.energy_pj(counts);
        assert!(
            e_approx > 2.0 * e_sized,
            "approx {e_approx} pJ should dwarf sized {e_sized} pJ"
        );
    }

    #[test]
    #[should_panic(expected = "adder expected")]
    fn wrong_class_is_rejected() {
        let _ = partner_multiplier(&OperatorConfig::Aam { n: 16 });
    }

    #[test]
    fn workload_sweep_matches_the_manual_loop_for_any_thread_count() {
        let lib = Library::fdsoi28();
        let settings = CharacterizerSettings {
            error_samples: 1_000,
            verify_samples: 100,
            exhaustive_up_to_bits: 8,
            power_vectors: 50,
            seed: 33,
        };
        // the sweep shares one fixture between its cells; the manual loop
        // builds one per cell
        let workloads: [&dyn Workload; 3] = [
            &apx_apps::fft::FftWorkload::default(),
            &apx_apps::hevc::McWorkload::new(16),
            &apx_apps::jpeg::JpegWorkload::new(16, 90),
        ];
        let configs = [
            OperatorConfig::AddTrunc { n: 16, q: 10 },
            OperatorConfig::MulTrunc { n: 16, q: 16 },
        ];
        let mut serial = Characterizer::new(&lib)
            .with_settings(settings)
            .with_engine(Engine::single_threaded());
        for workload in workloads {
            // the manual path: dispatch the model by class, substitute the
            // config into the context, run, score
            let expected: Vec<WorkloadCell> = configs
                .iter()
                .map(|config| {
                    let model = model_for(&mut serial, config);
                    let mut ctx = OperatorCtx::for_config(config);
                    let run = workload.run(0xF17, &mut ctx);
                    WorkloadCell {
                        config: *config,
                        model,
                        run,
                    }
                })
                .collect();
            for threads in [1, 4] {
                let cells = sweep_workload(
                    workload,
                    0xF17,
                    &lib,
                    settings,
                    &configs,
                    &Engine::new(threads),
                );
                assert_eq!(cells, expected, "{} threads={threads}", workload.name());
            }
        }
    }

    #[test]
    fn cached_workload_sweep_is_bit_identical_and_pure_hits_when_warm() {
        let dir = std::env::temp_dir().join(format!("apx_appsweep_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = Cache::builder().dir(&dir).open();
        let lib = Library::fdsoi28();
        let settings = CharacterizerSettings {
            error_samples: 1_000,
            verify_samples: 100,
            exhaustive_up_to_bits: 8,
            power_vectors: 50,
            seed: 34,
        };
        let workload = apx_apps::fir::FirWorkload::default();
        // the exact adder scores +inf dB SNR: non-finite scores must
        // survive the cache blob bit-for-bit (QualityScore serializes
        // its IEEE-754 bits, not a JSON float)
        let configs = [
            OperatorConfig::AddTrunc { n: 16, q: 11 },
            OperatorConfig::EtaIv { n: 16, x: 4 },
            OperatorConfig::AddExact { n: 16 },
        ];
        let engine = Engine::new(2);
        let uncached = sweep_workload(&workload, 7, &lib, settings, &configs, &engine);
        let cold = sweep_workload_cached(&workload, 7, &lib, settings, &configs, &engine, &cache);
        let hits_before = cache.stats().hits;
        let warm = sweep_workload_cached(&workload, 7, &lib, settings, &configs, &engine, &cache);
        assert_eq!(uncached, cold, "cache must be transparent");
        assert_eq!(cold, warm, "hit must be bit-identical");
        assert_eq!(
            warm[2].run.score.value(),
            f64::INFINITY,
            "+inf score must round-trip the blob store"
        );
        assert_eq!(
            cache.stats().hits - hits_before,
            configs.len() as u64,
            "warm sweep must be pure cell hits"
        );
        // a different seed, and a different workload instance, both miss
        let reseeded =
            sweep_workload_cached(&workload, 8, &lib, settings, &configs, &engine, &cache);
        assert_ne!(
            cold, reseeded,
            "seed is part of the cell key and the inputs"
        );
        let other = apx_apps::sobel::SobelWorkload::new(16);
        let key_a = crate::cache::workload_cell_key(&lib, &settings, &workload, 7, &configs[0]);
        let key_b = crate::cache::workload_cell_key(&lib, &settings, &other, 7, &configs[0]);
        assert_ne!(key_a, key_b, "workload fingerprint must be keyed");
        std::fs::remove_dir_all(&dir).ok();
    }
}
