//! The engineering subcommands: substrate ablations and the timed
//! bench-baseline sweep CI uses to record the performance trajectory.

use super::report_cache_use;
use crate::args::Args;
use apx_cells::Library;
use apx_core::output::{fmt, render};
use apx_core::{sweeps, Cache, Characterizer};
use apx_netlist::power::{self, PowerSettings};
use apx_netlist::{verify, HwAnalyzer};
use apx_operators::{Aam, ApxOperator, OperatorConfig};
use serde::Serialize;
use std::time::Instant;

/// `apxperf ablations` — the design-choice studies: AAM accumulation
/// structure, ABM sign correction, rounding vs truncation, and
/// technology-node independence.
pub(super) fn ablations(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let lib = Library::fdsoi28();
    let mut chz = Characterizer::new(&lib)
        .with_settings(args.params.settings())
        .with_engine(args.engine())
        .with_cache(cache.clone());

    println!("ABLATION 1: AAM accumulation structure");
    let analyzer = HwAnalyzer::new(&lib);
    let array = analyzer.analyze(&Aam::new(16)?.netlist());
    let tree = analyzer.analyze(&Aam::new(16)?.with_tree_compression().netlist());
    print!(
        "{}",
        render(
            args.format,
            &["structure", "area_um2", "delay_ns", "power_mW", "PDP_pJ"],
            &[
                vec![
                    "ripple array".into(),
                    fmt(array.area_um2, 1),
                    fmt(array.delay_ns, 3),
                    fmt(array.power_mw, 4),
                    fmt(array.pdp_pj, 4),
                ],
                vec![
                    "wallace tree".into(),
                    fmt(tree.area_um2, 1),
                    fmt(tree.delay_ns, 3),
                    fmt(tree.power_mw, 4),
                    fmt(tree.pdp_pj, 4),
                ],
            ],
        )
    );

    println!();
    println!("ABLATION 2: ABM sign correction");
    let good = chz.characterize(&OperatorConfig::Abm { n: 16 });
    let bad = chz.characterize(&OperatorConfig::AbmUncorrected { n: 16 });
    print!(
        "{}",
        render(
            args.format,
            &["variant", "MSE_dB", "BER", "area_um2", "PDP_pJ"],
            &[
                vec![
                    good.name.clone(),
                    fmt(good.error.mse_db, 2),
                    fmt(good.error.ber, 3),
                    fmt(good.hw.area_um2, 1),
                    fmt(good.hw.pdp_pj, 4),
                ],
                vec![
                    bad.name.clone(),
                    fmt(bad.error.mse_db, 2),
                    fmt(bad.error.ber, 3),
                    fmt(bad.hw.area_um2, 1),
                    fmt(bad.hw.pdp_pj, 4),
                ],
            ],
        )
    );

    println!();
    println!("ABLATION 3: rounding vs truncation (ADDx(16,10))");
    let tr = chz.characterize(&OperatorConfig::AddTrunc { n: 16, q: 10 });
    let ro = chz.characterize(&OperatorConfig::AddRound { n: 16, q: 10 });
    print!(
        "{}",
        render(
            args.format,
            &["variant", "MSE_dB", "bias", "area_um2", "PDP_pJ"],
            &[
                vec![
                    tr.name.clone(),
                    fmt(tr.error.mse_db, 2),
                    fmt(tr.error.mean_error, 2),
                    fmt(tr.hw.area_um2, 1),
                    fmt(tr.hw.pdp_pj, 4),
                ],
                vec![
                    ro.name.clone(),
                    fmt(ro.error.mse_db, 2),
                    fmt(ro.error.mean_error, 2),
                    fmt(ro.hw.area_um2, 1),
                    fmt(ro.hw.pdp_pj, 4),
                ],
            ],
        )
    );

    println!();
    println!("ABLATION 4: node independence (ADDt(16,10) vs RCAApx(16,6,3))");
    // At operator level neither side dominates outright (the paper's own
    // observation); what must hold on BOTH nodes is the same qualitative
    // picture: FxP far more accurate, the wire-type RCAApx cheaper, and
    // the MSE gap orders of magnitude wide.
    let mut orderings = Vec::new();
    for lib in [Library::fdsoi28(), Library::generic45()] {
        let mut chz = Characterizer::new(&lib)
            .with_settings(args.params.settings())
            .with_engine(args.engine())
            .with_cache(cache.clone());
        let fxp = chz.characterize(&OperatorConfig::AddTrunc { n: 16, q: 10 });
        let apx = chz.characterize(&OperatorConfig::RcaApx {
            n: 16,
            m: 6,
            fa_type: apx_operators::FaType::Three,
        });
        let ordering = (
            fxp.error.mse_db < apx.error.mse_db,
            fxp.hw.pdp_pj > apx.hw.pdp_pj,
        );
        println!(
            "  {}: FxP MSE {} dB / {} pJ vs RCAApx {} dB / {} pJ",
            lib.name(),
            fmt(fxp.error.mse_db, 1),
            fmt(fxp.hw.pdp_pj, 4),
            fmt(apx.error.mse_db, 1),
            fmt(apx.hw.pdp_pj, 4),
        );
        orderings.push(ordering);
    }
    let consistent = orderings.windows(2).all(|w| w[0] == w[1]);
    println!("  qualitative orderings identical across nodes: {consistent}");
    report_cache_use(&cache);
    Ok(())
}

/// One timed stage of the baseline run.
#[derive(Debug, Serialize)]
struct StageRecord {
    stage: String,
    samples: u64,
    seconds: f64,
    samples_per_sec: f64,
}

/// The whole `BENCH_baseline.json` document.
#[derive(Debug, Serialize)]
struct Baseline {
    schema: String,
    threads: usize,
    error_samples: usize,
    power_vectors: usize,
    seed: u64,
    stages: Vec<StageRecord>,
    total_seconds: f64,
}

fn record(stages: &mut Vec<StageRecord>, stage: &str, samples: u64, start: Instant) {
    let seconds = start.elapsed().as_secs_f64();
    stages.push(StageRecord {
        stage: stage.to_owned(),
        samples,
        seconds,
        samples_per_sec: samples as f64 / seconds.max(1e-9),
    });
}

/// `apxperf bench-baseline` — a reduced-sample characterization sweep
/// that times every pipeline stage and emits `BENCH_baseline.json`
/// (samples/sec per stage), so CI can record the performance trajectory
/// PR over PR — and fail the `perf-gate` job when a stage regresses.
/// Always runs **uncached** — it measures compute, not lookup.
pub(super) fn bench_baseline(args: &Args) -> Result<(), String> {
    let lib = Library::fdsoi28();
    // reduced-sample defaults (this is a trend recorder, not a repro
    // run) — applied only when the flag was not explicitly passed, so
    // a deliberate `--samples 100000` is honoured
    let mut settings = args.params.settings();
    if !args.was_set("samples") {
        settings.error_samples = 20_000;
    }
    if !args.was_set("vectors") {
        settings.power_vectors = 300;
    }
    let engine = args.engine();
    let mut stages = Vec::new();
    let run_start = Instant::now();

    // 1a/1b. error sampling, split by operator class so the perf gate
    // sees adder-path and multiplier-path throughput separately (ABM's
    // closed form costs several times MULt's native product, so a
    // multiplier regression would hide in a pooled stage)
    let adder_configs = [
        OperatorConfig::AddTrunc { n: 16, q: 10 },
        OperatorConfig::Aca { n: 16, p: 8 },
        OperatorConfig::EtaIv { n: 16, x: 4 },
        OperatorConfig::RcaApx {
            n: 16,
            m: 6,
            fa_type: apx_operators::FaType::Three,
        },
    ];
    let mult_configs = [
        OperatorConfig::MulTrunc { n: 16, q: 16 },
        OperatorConfig::Abm { n: 16 },
    ];
    let chz = Characterizer::new(&lib)
        .with_settings(settings)
        .with_engine(engine.clone());
    for (stage, configs) in [
        ("error_sampling_adders", &adder_configs[..]),
        ("error_sampling_multipliers", &mult_configs[..]),
    ] {
        let ops: Vec<Box<dyn ApxOperator>> = configs.iter().map(OperatorConfig::build).collect();
        let start = Instant::now();
        let mut drawn = 0u64;
        for op in &ops {
            drawn += chz.error_stats(op.as_ref()).samples();
        }
        record(&mut stages, stage, drawn, start);
    }

    // 2. random equivalence verification on a 16-bit ACA netlist, with
    // the batched expected side the characterizer itself uses
    let op = OperatorConfig::Aca { n: 16, p: 8 }.build();
    let nl = op.netlist();
    let verify_samples = 10 * settings.error_samples / 4;
    let start = Instant::now();
    verify::verify_random2_batch_with(&nl, verify_samples, settings.seed, &engine, |a, b, out| {
        op.eval_batch(a, b, out);
    })
    .map_err(|e| format!("ACA netlist must match its functional model: {e:?}"))?;
    record(&mut stages, "verification", verify_samples as u64, start);

    // 3. event-driven power vectors on the same netlist
    let start = Instant::now();
    let report = power::estimate_with(
        &nl,
        &lib,
        PowerSettings {
            vectors: settings.power_vectors,
            seed: settings.seed,
        },
        &engine,
    );
    if report.dynamic_power_mw <= 0.0 {
        return Err("power estimation produced no dynamic power".to_owned());
    }
    record(
        &mut stages,
        "power_vectors",
        settings.power_vectors as u64,
        start,
    );

    // 4. the reduced-sample Figs. 3/4 sweep, end to end
    let configs = sweeps::all_adders_16bit();
    let start = Instant::now();
    let reports =
        sweeps::characterize_all_cached(&lib, settings, &configs, &engine, &Cache::default());
    let swept: u64 = reports.iter().map(|r| r.error.samples).sum();
    record(&mut stages, "fig34_adder_sweep", swept, start);
    if !reports.iter().all(|r| r.verified) {
        return Err("a sweep operator failed verification".to_owned());
    }

    let baseline = Baseline {
        schema: "apxperf-bench-baseline/v2".to_owned(),
        threads: engine.threads(),
        error_samples: settings.error_samples,
        power_vectors: settings.power_vectors,
        seed: settings.seed,
        stages,
        total_seconds: run_start.elapsed().as_secs_f64(),
    };

    println!(
        "BENCH baseline: {} threads, {} error samples, {} power vectors",
        baseline.threads, baseline.error_samples, baseline.power_vectors
    );
    let rows: Vec<Vec<String>> = baseline
        .stages
        .iter()
        .map(|s| {
            vec![
                s.stage.clone(),
                s.samples.to_string(),
                fmt(s.seconds, 3),
                fmt(s.samples_per_sec, 0),
            ]
        })
        .collect();
    print!(
        "{}",
        render(
            args.format,
            &["stage", "samples", "seconds", "samples_per_sec"],
            &rows,
        )
    );

    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&args.out, json + "\n")
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;
    println!();
    println!("wrote {}", args.out);
    Ok(())
}
