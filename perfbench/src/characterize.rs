//! `characterize`: one closed-loop caller runs
//! `Characterizer::characterize`, cache disabled, over a fixed config
//! mix at the CLI preset. Operator kernels, netlist verify/STA/power and
//! report assembly do all the work; apps, cache and serve sit idle.
//!
//! A pass characterizes every config once under one master seed; pass
//! `p` uses `sub_seed(seed, p)`, so the config mix stays fixed while the
//! RNG streams vary.

use crate::layers::{self, LayerInputs};
use crate::{least_disturbed, mirror, sub_seed, sys, timed_setups, trace};
use crate::{Digest, EndToEnd, RunConfig, RunResult, Scale, Tally};
use apx_cache::Cache;
use apx_cells::Library;
use apx_core::query::QueryParams;
use apx_core::{sweeps, Characterizer, CharacterizerSettings, OperatorReport};
use apx_engine::Engine;
use apx_operators::OperatorConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The config mix: every config of the `all`, `sized` and `widths`
/// families (182 at full scale, duplicates kept), or every 25th of them
/// at tiny scale.
#[must_use]
pub fn configs(scale: Scale) -> Vec<OperatorConfig> {
    let mut configs = Vec::new();
    for name in ["all", "sized", "widths"] {
        let family = sweeps::find_family(name).expect("registered family");
        configs.extend((family.configs)());
    }
    match scale {
        Scale::Full => configs,
        Scale::Tiny => configs.into_iter().step_by(25).collect(),
    }
}

/// The query parameters a workload runs at: the CLI defaults, or a
/// small sample budget at tiny scale.
#[must_use]
pub fn params(scale: Scale) -> QueryParams {
    match scale {
        Scale::Full => QueryParams::default(),
        Scale::Tiny => QueryParams {
            samples: 500,
            vectors: 20,
            ..QueryParams::default()
        },
    }
}

/// The output check: the netlist matched the functional model and every
/// hardware number is finite.
#[must_use]
pub fn check_report(report: &OperatorReport) -> bool {
    let hw = &report.hw;
    report.verified
        && [
            hw.area_um2,
            hw.delay_ns,
            hw.power_mw,
            hw.leakage_uw,
            hw.energy_per_op_pj,
            hw.pdp_pj,
            hw.transitions_per_op,
        ]
        .iter()
        .all(|v| v.is_finite())
}

/// One pass over the config mix.
#[derive(Debug)]
pub struct Pass {
    /// Wall-clock of the pass, seconds.
    pub wall_s: f64,
    /// CPU seconds the pass used.
    pub cpu_s: f64,
    /// Per-report latency, seconds.
    pub latencies: Vec<f64>,
    /// Per-report outcomes.
    pub tally: Tally,
    /// Digest of every report's JSON bytes, in config order.
    pub digest: Digest,
}

/// Characterizes every config once with `settings` on `engine`. The
/// traced pass goes through [`mirror::report`] with one request span per
/// report; the untraced one calls `Characterizer::characterize`.
#[must_use]
pub fn pass(
    lib: &Library,
    configs: &[OperatorConfig],
    settings: CharacterizerSettings,
    engine: &Engine,
    traced: bool,
) -> Pass {
    let mut chz = Characterizer::new(lib)
        .with_settings(settings)
        .with_engine(engine.clone());
    let mut out = Pass {
        wall_s: 0.0,
        cpu_s: 0.0,
        latencies: Vec::with_capacity(configs.len()),
        tally: Tally::default(),
        digest: Digest::default(),
    };
    let started = Instant::now();
    let cpu = sys::cpu_seconds_total();
    for (i, config) in configs.iter().enumerate() {
        let request = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| {
            if traced {
                let _span = trace::request_span("bench.request", i as u64 + 1);
                mirror::report(lib, &chz, config, &Cache::default())
            } else {
                chz.characterize(config)
            }
        }));
        out.latencies.push(request.elapsed().as_secs_f64());
        let ok = match report.map(|r| (check_report(&r), r.to_json())) {
            Ok((checked, Ok(json))) => {
                out.digest.update(json.as_bytes());
                checked
            }
            _ => false,
        };
        out.tally.record(ok);
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.cpu_s = sys::cpu_seconds_total() - cpu;
    out
}

/// Set-up: the cell library, the engine, the config mix, and a warm-up
/// report for every 23rd config of the mix — the first touch of each
/// operator family's kernels and of the engine's workers.
fn setup(scale: Scale, threads: usize) -> (Library, Engine, Vec<OperatorConfig>) {
    let lib = Library::fdsoi28();
    let engine = Engine::new(threads);
    let configs = configs(scale);
    let mut chz = Characterizer::new(&lib)
        .with_settings(params(scale).settings())
        .with_engine(engine.clone());
    for config in configs.iter().step_by(23) {
        assert!(chz.characterize(config).verified, "{config} must verify");
    }
    (lib, engine, configs)
}

/// Runs the workload.
#[must_use]
pub fn run(config: &RunConfig) -> RunResult {
    let (setup_s, (lib, engine, configs)) =
        timed_setups(5, 1.5, || setup(config.scale, config.threads), drop);
    let base = params(config.scale).settings();
    let settings = |p: usize| CharacterizerSettings {
        seed: sub_seed(config.seed, p as u64),
        ..base
    };
    let mut result = RunResult::default();
    let started = Instant::now();
    let steal = sys::steal_seconds();
    let mut passes = Vec::new();
    if config.trace {
        // pairs: the untraced pass, then the traced replay of the same
        // seed, whose report bytes must match
        let (mut untraced_wall, mut traced_wall, mut cpu) = (0.0, 0.0, 0.0);
        while config.keep_going(started, passes.len()) {
            let p = passes.len();
            let cpu_before = sys::cpu_seconds_total();
            let plain = pass(&lib, &configs, settings(p), &engine, false);
            cpu += sys::cpu_seconds_total() - cpu_before;
            trace::set_enabled(true);
            let traced = {
                let _root = trace::span("bench.run");
                pass(&lib, &configs, settings(p), &engine, true)
            };
            trace::set_enabled(false);
            if traced.digest.hex() != plain.digest.hex() {
                result.fail_check(format!("pass {p}: traced replay digest differs"));
            }
            untraced_wall += plain.wall_s;
            traced_wall += traced.wall_s;
            passes.push(plain);
            passes.push(traced);
        }
        let spans = trace::take();
        print!("{}", layers::where_the_time_goes(&spans));
        let inputs = LayerInputs {
            threads: engine.threads(),
            utilization: cpu / (untraced_wall * engine.threads() as f64),
            overhead_ratio: traced_wall / untraced_wall,
            ..LayerInputs::default()
        };
        layers::record(&mut result, &spans, &inputs);
    } else {
        while config.keep_going(started, passes.len()) {
            passes.push(pass(&lib, &configs, settings(passes.len()), &engine, false));
        }
    }
    let mut all = Digest::default();
    for p in &passes {
        result.tally.merge(p.tally);
        all.update(p.digest.hex().as_bytes());
    }
    println!(
        "characterize digest: pass0 {} all {} ({} passes x {} configs)",
        passes[0].digest.hex(),
        all.hex(),
        passes.len(),
        configs.len()
    );
    if !config.trace {
        let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies.clone()).collect();
        result.end_to_end(&EndToEnd {
            setup_s,
            wall_s: least_disturbed(
                &passes
                    .iter()
                    .map(|p| p.latencies.clone())
                    .collect::<Vec<_>>(),
            ),
            unit_cpu_s: passes.iter().map(|p| p.cpu_s).collect(),
            unit_wall_s: passes.iter().map(|p| p.wall_s).collect(),
            requests: latencies.len(),
            latencies,
            peak_rss_mb: sys::peak_rss_mb(),
            steal_s: sys::steal_seconds() - steal,
            vcpus: config.threads,
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_mix_has_182_configs() {
        assert_eq!(configs(Scale::Full).len(), 182);
    }

    #[test]
    fn digest_is_identical_at_one_and_all_engine_threads() {
        let lib = Library::fdsoi28();
        let configs = configs(Scale::Tiny);
        let settings = params(Scale::Tiny).settings();
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
        let one = pass(&lib, &configs, settings, &Engine::new(1), false);
        let many = pass(&lib, &configs, settings, &Engine::new(threads), false);
        assert_eq!(one.digest.hex(), many.digest.hex());
        assert_eq!(one.tally.failed, 0);
    }

    #[test]
    fn a_tampered_report_fails_its_check() {
        let lib = Library::fdsoi28();
        let mut report = Characterizer::new(&lib)
            .with_settings(params(Scale::Tiny).settings())
            .characterize(&OperatorConfig::AddExact { n: 8 });
        assert!(check_report(&report));
        let mut tally = Tally::default();
        tally.record(check_report(&report));
        report.hw.power_mw = f64::NAN;
        tally.record(check_report(&report));
        report.hw.power_mw = 1.0;
        report.verified = false;
        tally.record(check_report(&report));
        assert_eq!(tally.ok_ratio(), 1.0 / 3.0);
    }
}
