//! The traced replay of the pipeline: the same steps as
//! `Characterizer::characterize`, `characterize_all_cached` and
//! `sweep_workload_cached`, rebuilt from each layer's public functions
//! so that every call into a layer sits inside its own span.
//!
//! The replay must compute byte-identical results to the code it
//! mirrors; the workloads check that (report digests, cache blobs and
//! CLI stdout), so a drift between this file and the pipeline shows up
//! as a failed check rather than as silently wrong layer numbers.

use crate::trace::{self, span};
use apx_apps::{OperatorCtx, Workload};
use apx_cache::Cache;
use apx_cells::Library;
use apx_core::appenergy::{partner_adder, partner_multiplier, AppEnergyModel, WorkloadCell};
use apx_core::cache::{report_cache_key, workload_cell_key};
use apx_core::{Characterizer, CharacterizerSettings, ErrorSummary, OperatorReport};
use apx_engine::Engine;
use apx_netlist::power::{self, PowerSettings};
use apx_netlist::{sta, verify, HwReport};
use apx_operators::{ApxOperator, OpClass, OperatorConfig};

/// The engine split `apx_core` uses inside config-level parallel
/// sweeps: serial tasks when configs saturate the pool, otherwise the
/// leftover workers go to each task's sharded loops.
#[must_use]
pub fn inner_engine(engine: &Engine, jobs: usize) -> Engine {
    let threads = engine.threads();
    if jobs == 0 || jobs >= threads {
        Engine::single_threaded()
    } else {
        Engine::new(threads.div_ceil(jobs))
    }
}

/// Builds the functional model of `config` (`operators.build`).
fn build(config: &OperatorConfig) -> Box<dyn ApxOperator> {
    let _span = span("operators.build");
    config.build()
}

/// Builds the gate-level netlist of `op` (`operators.build`).
fn netlist(op: &dyn ApxOperator) -> apx_netlist::Netlist {
    let _span = span("operators.build");
    op.netlist()
}

/// The verification step of `Characterizer::characterize`: exhaustive
/// up to the settings' operand width, random vectors beyond it.
fn verified(op: &dyn ApxOperator, settings: &CharacterizerSettings, engine: &Engine) -> bool {
    let nl = netlist(op);
    let total_bits = 2 * op.input_bits();
    let mut span = span("netlist.verify");
    let result = if total_bits <= settings.exhaustive_up_to_bits {
        span.work(1u64 << total_bits);
        verify::verify_exhaustive2_batch_with(&nl, engine, |a, b, out| op.eval_batch(a, b, out))
    } else {
        span.work(settings.verify_samples as u64);
        verify::verify_random2_batch_with(
            &nl,
            settings.verify_samples,
            settings.seed,
            engine,
            |a, b, out| op.eval_batch(a, b, out),
        )
    };
    result.is_ok()
}

/// The hardware step: `HwAnalyzer::analyze` with the characterizer's
/// power seed, split into its STA and power calls.
fn hardware(
    op: &dyn ApxOperator,
    lib: &Library,
    settings: &CharacterizerSettings,
    engine: &Engine,
) -> HwReport {
    let nl = netlist(op);
    let area_um2: f64 = nl.gates().iter().map(|g| lib.spec(g.kind).area_um2).sum();
    let timing = {
        let mut span = span("netlist.sta");
        span.work(1);
        sta::analyze(&nl, lib)
    };
    let pwr = {
        let mut span = span("netlist.power");
        span.work(settings.power_vectors as u64);
        power::estimate_with(
            &nl,
            lib,
            PowerSettings {
                vectors: settings.power_vectors,
                seed: settings.seed ^ 0xCAFE,
            },
            engine,
        )
    };
    let stats = nl.stats();
    HwReport {
        name: nl.name().to_owned(),
        area_um2,
        delay_ns: timing.critical_path_ns,
        power_mw: pwr.total_power_mw(),
        leakage_uw: pwr.leakage_uw,
        energy_per_op_pj: pwr.energy_per_op_pj,
        pdp_pj: pwr.total_power_mw() * timing.critical_path_ns,
        num_gates: stats.num_gates,
        num_nets: stats.num_nets,
        transitions_per_op: pwr.transitions_per_op,
    }
}

/// `Characterizer::characterize` on `chz`'s settings and engine, with
/// the cache lookup and write-back when `cache` is enabled
/// (`core.characterize`, whose self time is report assembly).
pub fn report(
    lib: &Library,
    chz: &Characterizer<'_>,
    config: &OperatorConfig,
    cache: &Cache,
) -> OperatorReport {
    let mut report_span = span("core.characterize");
    let settings = chz.settings();
    let key = cache
        .is_enabled()
        .then(|| report_cache_key(lib, &settings, config));
    if let Some(key) = &key {
        if let Some(hit) = cache_get::<OperatorReport>(cache, key) {
            if hit.config == *config {
                return hit;
            }
        }
    }
    let op = build(config);
    let verified = verified(op.as_ref(), &settings, chz.engine());
    let error = {
        let mut span = span("operators.error");
        span.work(settings.error_samples as u64);
        chz.error_stats(op.as_ref())
    };
    let hw = hardware(op.as_ref(), lib, &settings, chz.engine());
    let report = OperatorReport {
        config: *config,
        name: op.name(),
        verified,
        error: ErrorSummary::from_stats(&error, op.ref_bits()),
        hw,
    };
    if let Some(key) = &key {
        cache_put(cache, key, &report);
    }
    report_span.work(1);
    report
}

/// `Cache::get` (`cache.get`).
pub fn cache_get<T: serde::Deserialize>(cache: &Cache, key: &apx_cache::CacheKey) -> Option<T> {
    let _span = span("cache.get");
    cache.get(key)
}

/// `Cache::put` (`cache.put`).
pub fn cache_put<T: serde::Serialize>(cache: &Cache, key: &apx_cache::CacheKey, value: &T) {
    let _span = span("cache.put");
    cache.put(key, value);
}

fn characterizer<'a>(
    lib: &'a Library,
    settings: CharacterizerSettings,
    engine: &Engine,
) -> Characterizer<'a> {
    Characterizer::new(lib)
        .with_settings(settings)
        .with_engine(engine.clone())
}

/// `apx_core::sweeps::characterize_all_cached`, traced.
#[must_use]
pub fn characterize_all(
    lib: &Library,
    settings: CharacterizerSettings,
    configs: &[OperatorConfig],
    engine: &Engine,
    cache: &Cache,
) -> Vec<OperatorReport> {
    let inner = inner_engine(engine, configs.len());
    let parent = trace::current();
    engine.map_indexed(configs.len(), |i| {
        trace::within(parent, || {
            report(
                lib,
                &characterizer(lib, settings, &inner),
                &configs[i],
                cache,
            )
        })
    })
}

/// `apx_core::appenergy::model_for`, traced (`core.model_for`): the
/// operator's own PDP plus its sized partner's.
fn model_for(
    lib: &Library,
    chz: &Characterizer<'_>,
    config: &OperatorConfig,
    cache: &Cache,
) -> AppEnergyModel {
    let _span = span("core.model_for");
    let pdp = |c: &OperatorConfig| report(lib, chz, c, cache).hw.pdp_pj;
    match config.op_class() {
        OpClass::Adder => AppEnergyModel {
            adder_pdp_pj: pdp(config),
            mult_pdp_pj: pdp(&partner_multiplier(config)),
        },
        OpClass::Multiplier => AppEnergyModel {
            mult_pdp_pj: pdp(config),
            adder_pdp_pj: pdp(&partner_adder(config)),
        },
    }
}

/// `apx_core::appenergy::sweep_workload_cached`, traced: one
/// `core.appenergy` span per cell, with the workload run in
/// `apps.<workload>`.
#[must_use]
pub fn sweep_workload(
    workload: &dyn Workload,
    seed: u64,
    lib: &Library,
    settings: CharacterizerSettings,
    configs: &[OperatorConfig],
    engine: &Engine,
    cache: &Cache,
) -> Vec<WorkloadCell> {
    let inner = inner_engine(engine, configs.len());
    let parent = trace::current();
    let app_span = format!("apps.{}", workload.name());
    engine.map_indexed(configs.len(), |i| {
        trace::within(parent, || {
            let mut cell_span = span("core.appenergy");
            let config = configs[i];
            let key = workload_cell_key(lib, &settings, workload, seed, &config);
            if let Some(cell) = cache_get::<WorkloadCell>(cache, &key) {
                if cell.config == config {
                    return cell;
                }
            }
            let chz = characterizer(lib, settings, &inner);
            let model = model_for(lib, &chz, &config, cache);
            let mut ctx = OperatorCtx::for_config(&config);
            let run = {
                let mut span = span(&app_span);
                let run = workload.run(seed, &mut ctx);
                span.work(run.counts.adds + run.counts.muls);
                run
            };
            let cell = WorkloadCell { config, model, run };
            cache_put(cache, &key, &cell);
            cell_span.work(1);
            cell
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_core::query::QueryParams;

    fn tiny() -> CharacterizerSettings {
        QueryParams {
            samples: 500,
            vectors: 20,
            ..QueryParams::default()
        }
        .settings()
    }

    #[test]
    fn traced_report_is_identical_to_the_characterizer() {
        let lib = Library::fdsoi28();
        let engine = Engine::new(2);
        let chz = characterizer(&lib, tiny(), &engine);
        for spec in ["ADDt(16,10)", "ACA(16,4)", "ADD(4)", "ABM(16)"] {
            let config: OperatorConfig = spec.parse().unwrap();
            let expected = chz.clone().characterize(&config);
            assert_eq!(
                report(&lib, &chz, &config, &Cache::default()),
                expected,
                "{spec}"
            );
        }
    }

    #[test]
    fn traced_sweep_is_identical_to_the_core_sweep() {
        let lib = Library::fdsoi28();
        let engine = Engine::new(2);
        let workload = apx_apps::fft::FftWorkload::default();
        let configs: Vec<OperatorConfig> = ["ADDt(16,10)", "MULt(16,16)"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let expected =
            apx_core::appenergy::sweep_workload(&workload, 3, &lib, tiny(), &configs, &engine);
        let cells = sweep_workload(
            &workload,
            3,
            &lib,
            tiny(),
            &configs,
            &engine,
            &Cache::default(),
        );
        assert_eq!(cells, expected);
    }
}
