//! The table subcommands: the paper's operator table (Table I) and the
//! application case studies (Tables II–VI).

use super::{report_cache_use, reports_for, workload_cells};
use crate::args::Args;
use apx_apps::hevc::ops_per_fractional_pixel;
use apx_apps::OpCounts;
use apx_core::output::{fmt, render};
use apx_core::sweeps;
use apx_operators::{FaType, OperatorConfig};

/// `apxperf table1` — direct comparison of the 16-bit fixed-width
/// multipliers: MULt(16,16) vs AAM(16) vs ABM(16) (+ ABMu(16), the
/// uncorrected pruned-Booth instance matching the paper's catastrophic
/// ABM MSE).
pub(super) fn table1(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let configs = sweeps::multipliers_16bit();
    let reports = reports_for(args, &cache, &configs);
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt(r.hw.power_mw, 4),
                fmt(r.hw.delay_ns, 2),
                fmt(r.hw.pdp_pj, 3),
                fmt(r.hw.area_um2, 1),
                fmt(r.error.mse_db, 2),
                fmt(r.error.ber * 100.0, 1),
                r.verified.to_string(),
            ]
        })
        .collect();
    println!("TABLE I: 16-bit fixed-width multipliers");
    print!(
        "{}",
        render(
            args.format,
            &["operator", "power_mW", "delay_ns", "PDP_pJ", "area_um2", "MSE_dB", "BER_%", "ok"],
            &rows,
        )
    );
    println!();
    println!("paper:   MULt 0.273/0.91/0.249/805/-89.1/23.4  AAM 0.359/1.23/0.442/665/-87.9/27.7  ABM 0.446/0.57/0.446/879/-9.63/27.9");
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf table2` — FFT-32 accuracy and energy with 16-bit fixed-width
/// multipliers (exact adders sized alongside). A thin alias over the
/// `fft` workload of the registry.
pub(super) fn table2(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let configs = sweeps::multipliers_16bit();
    let (_, cells) = workload_cells(args, &cache, "fft", &configs)?;
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.config.to_string(),
                fmt(cell.run.score.value(), 2),
                fmt(cell.model.mult_pdp_pj, 3),
                fmt(cell.model.energy_pj(cell.run.counts), 2),
            ]
        })
        .collect();
    println!("TABLE II: FFT-32 with 16-bit fixed-width multipliers (exact adders)");
    print!(
        "{}",
        render(
            args.format,
            &["operator", "PSNR_dB", "PDP_mul_pJ", "E_fft_pJ"],
            &rows,
        )
    );
    println!();
    println!("paper: MULt 53.88 dB / 0.249 pJ   AAM 59.66 / 0.442   ABM -18.14 / 0.446");
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf table3` — HEVC motion-compensation filter with 16-bit adders
/// at the paper's operating points; energy per fractionally interpolated
/// pixel, partner multiplier sized to the adder width.
pub(super) fn table3(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let configs = [
        OperatorConfig::AddTrunc { n: 16, q: 10 },
        OperatorConfig::Aca { n: 16, p: 12 },
        OperatorConfig::EtaIv { n: 16, x: 4 },
        OperatorConfig::RcaApx {
            n: 16,
            m: 6,
            fa_type: FaType::Three,
        },
    ];
    let per_pixel = ops_per_fractional_pixel();
    let (_, cells) = workload_cells(args, &cache, "hevc", &configs)?;
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.config.to_string(),
                fmt(cell.run.score.value() * 100.0, 2),
                fmt(cell.model.adder_pdp_pj, 4),
                fmt(cell.model.mult_pdp_pj, 4),
                fmt(cell.model.energy_pj(per_pixel), 3),
            ]
        })
        .collect();
    println!("TABLE III: HEVC MC filter, 16-bit adders (energy per fractional pixel)");
    print!(
        "{}",
        render(
            args.format,
            &["operator", "MSSIM_%", "E_add_pJ", "E_mul_pJ", "total_pJ"],
            &rows,
        )
    );
    println!();
    println!("paper: ADDt(16,10) 99.29/1.39e-2/4.39e-2/0.898  ACA 96.45/.../2.49e-1/4.20  ETAIV 98.02/...  RCAApx 99.67/.../4.12");
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf table4` — HEVC motion compensation with 16-bit fixed-width
/// multipliers (exact adders sized to the multiplier output).
pub(super) fn table4(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let per_pixel = ops_per_fractional_pixel();
    let configs = sweeps::multipliers_16bit();
    let (_, cells) = workload_cells(args, &cache, "hevc", &configs)?;
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.config.to_string(),
                fmt(cell.run.score.value() * 100.0, 3),
                fmt(cell.model.mult_pdp_pj, 4),
                fmt(cell.model.adder_pdp_pj, 4),
                fmt(cell.model.energy_pj(per_pixel), 3),
            ]
        })
        .collect();
    println!("TABLE IV: HEVC MC filter, 16-bit multipliers (energy per fractional pixel)");
    print!(
        "{}",
        render(
            args.format,
            &["operator", "MSSIM_%", "E_mul_pJ", "E_add_pJ", "total_pJ"],
            &rows,
        )
    );
    println!();
    println!(
        "paper: MULt 99.918/2.49e-1/1.83e-2/3.77  AAM 99.909/4.42e-1/6.48  ABM 99.907/2.54e-1/3.85"
    );
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf table5` — K-means clustering success and distance-computation
/// energy with 16-bit adders at the paper's two accuracy levels. A thin
/// alias over the `kmeans` workload of the registry (which averages the
/// `--sets` fixed-seed data sets internally).
pub(super) fn table5(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let configs = [
        OperatorConfig::AddTrunc { n: 16, q: 11 },
        OperatorConfig::Aca { n: 16, p: 12 },
        OperatorConfig::EtaIv { n: 16, x: 4 },
        OperatorConfig::RcaApx {
            n: 16,
            m: 6,
            fa_type: FaType::Three,
        },
        OperatorConfig::AddTrunc { n: 16, q: 8 },
        OperatorConfig::Aca { n: 16, p: 8 },
        OperatorConfig::EtaIv { n: 16, x: 2 },
        OperatorConfig::RcaApx {
            n: 16,
            m: 10,
            fa_type: FaType::One,
        },
    ];
    let per_distance = OpCounts { adds: 3, muls: 2 };
    let (_, cells) = workload_cells(args, &cache, "kmeans", &configs)?;
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.config.to_string(),
                fmt(cell.run.score.value() * 100.0, 2),
                fmt(cell.model.adder_pdp_pj, 4),
                fmt(cell.model.mult_pdp_pj, 4),
                fmt(cell.model.energy_pj(per_distance), 4),
            ]
        })
        .collect();
    println!("TABLE V: K-means, 16-bit adders (energy per distance computation)");
    print!(
        "{}",
        render(
            args.format,
            &["operator", "success_%", "E_add_pJ", "E_mul_pJ", "total_pJ"],
            &rows,
        )
    );
    println!();
    println!("paper: ADDt(16,11) 99.14/2.03e-1  ACA(16,12) 99.10/5.13e-1  ETAIV(16,4) 99.43/5.11e-1  RCAApx(16,6,3) 99.67/5.08e-1");
    println!("       ADDt(16,8)  86.00/6.06e-2  ACA(16,8)  86.06/5.08e-1  ETAIV(16,2) 63.25/5.05e-1  RCAApx(16,10,1) 87.29/5.11e-1");
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf table6` — K-means with 16-bit multipliers, including the
/// heavily pruned MULt(16,4) that matches the paper's ABM collapse.
pub(super) fn table6(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let configs = [
        OperatorConfig::MulTrunc { n: 16, q: 16 },
        OperatorConfig::Aam { n: 16 },
        OperatorConfig::Abm { n: 16 },
        OperatorConfig::AbmUncorrected { n: 16 },
        OperatorConfig::MulTrunc { n: 16, q: 4 },
    ];
    let per_distance = OpCounts { adds: 3, muls: 2 };
    let (_, cells) = workload_cells(args, &cache, "kmeans", &configs)?;
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.config.to_string(),
                fmt(cell.run.score.value() * 100.0, 2),
                fmt(cell.model.mult_pdp_pj, 4),
                fmt(cell.model.adder_pdp_pj, 4),
                fmt(cell.model.energy_pj(per_distance), 4),
            ]
        })
        .collect();
    println!("TABLE VI: K-means, 16-bit multipliers (energy per distance computation)");
    print!(
        "{}",
        render(
            args.format,
            &["operator", "success_%", "E_mul_pJ", "E_add_pJ", "total_pJ"],
            &rows,
        )
    );
    println!();
    println!("paper: MULt(16,16) 99.84/5.15e-1  AAM 99.43/9.02e-1  ABM 10.27/5.27e-1  MULt(16,4) 10.87/4.09e-1");
    report_cache_use(&cache);
    Ok(())
}
