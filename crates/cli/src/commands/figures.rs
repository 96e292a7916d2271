//! The figure subcommands: the §IV adder trade-off sweeps (Figs. 3/4)
//! and the FFT/JPEG application studies (Figs. 5/6).

use super::{report_cache_use, reports_for, workload_cells};
use crate::args::Args;
use apx_core::output::{family, fmt, render};
use apx_core::sweeps;

/// `apxperf fig3` — MSE vs power / delay / PDP / area for every 16-bit
/// adder. Expected shape (paper §IV): fixed-point operators dominate on
/// power and area at equal MSE except at very low accuracy.
pub(super) fn fig3(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let configs = sweeps::all_adders_16bit();
    let reports = reports_for(args, &cache, &configs);
    let rows: Vec<Vec<String>> = configs
        .iter()
        .zip(&reports)
        .map(|(config, r)| {
            vec![
                r.name.clone(),
                family(config).to_owned(),
                fmt(r.error.mse_db, 2),
                fmt(r.hw.power_mw, 5),
                fmt(r.hw.delay_ns, 3),
                fmt(r.hw.pdp_pj * 1e3, 3),
                fmt(r.hw.area_um2, 1),
                r.verified.to_string(),
            ]
        })
        .collect();
    println!("FIG3: 16-bit adders, MSE (dB, full-scale) vs hardware cost");
    print!(
        "{}",
        render(
            args.format,
            &["operator", "family", "MSE_dB", "power_mW", "delay_ns", "PDP_fJ", "area_um2", "ok"],
            &rows,
        )
    );
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf fig4` — BER vs hardware cost for the same adders as Fig. 3.
/// On BER the picture flips: approximate adders beat truncated/rounded
/// fixed point, whose dropped output bits flip ~50 % of the time each.
pub(super) fn fig4(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let configs = sweeps::all_adders_16bit();
    let reports = reports_for(args, &cache, &configs);
    let rows: Vec<Vec<String>> = configs
        .iter()
        .zip(&reports)
        .map(|(config, r)| {
            vec![
                r.name.clone(),
                family(config).to_owned(),
                fmt(r.error.ber, 4),
                fmt(r.hw.power_mw, 5),
                fmt(r.hw.delay_ns, 3),
                fmt(r.hw.pdp_pj * 1e3, 3),
                fmt(r.hw.area_um2, 1),
            ]
        })
        .collect();
    println!("FIG4: 16-bit adders, BER vs hardware cost");
    print!(
        "{}",
        render(
            args.format,
            &["operator", "family", "BER", "power_mW", "delay_ns", "PDP_fJ", "area_um2"],
            &rows,
        )
    );
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf fig5` — FFT-32 energy (eq. (1)) vs output PSNR with 16-bit
/// adders; exact multipliers are sized to the adder width (the
/// partner-operator rule). A thin alias over the `fft` workload of the
/// registry — the default output is byte-identical to the pre-registry
/// implementation (pinned by `tests/cli_golden.rs`).
pub(super) fn fig5(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let configs = sweeps::all_adders_16bit();
    let (_, cells) = workload_cells(args, &cache, "fft", &configs)?;
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.config.to_string(),
                family(&cell.config).to_owned(),
                fmt(cell.run.score.value(), 2),
                fmt(cell.model.energy_pj(cell.run.counts), 3),
                fmt(cell.model.adder_pdp_pj * 1e3, 3),
                fmt(cell.model.mult_pdp_pj * 1e3, 3),
            ]
        })
        .collect();
    println!("FIG5: FFT-32 PSNR vs total PDP (pJ), partner multipliers sized to the adder");
    print!(
        "{}",
        render(
            args.format,
            &["operator", "family", "PSNR_dB", "E_fft_pJ", "E_add_fJ", "E_mul_fJ"],
            &rows,
        )
    );
    report_cache_use(&cache);
    Ok(())
}

/// `apxperf fig6` — energy of the DCT in JPEG encoding vs output MSSIM
/// with 16-bit adders (quality-90 encoding, synthetic photographic
/// image). A thin alias over the `jpeg` workload of the registry; the
/// stream length rides on the workload's `stream_bytes` aux output.
pub(super) fn fig6(args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let size = args.size;
    let configs = sweeps::all_adders_16bit();
    let (_, cells) = workload_cells(args, &cache, "jpeg", &configs)?;
    // per-block energy keeps numbers readable
    let blocks = (size / 8) * (size / 8);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.config.to_string(),
                family(&cell.config).to_owned(),
                fmt(cell.run.score.value(), 4),
                fmt(cell.model.energy_pj(cell.run.counts) / blocks as f64, 3),
                (cell.run.aux("stream_bytes").unwrap_or(0.0) as u64).to_string(),
            ]
        })
        .collect();
    println!("FIG6: JPEG (q=90, {size}x{size}) MSSIM vs DCT energy per 8x8 block (pJ)");
    print!(
        "{}",
        render(
            args.format,
            &["operator", "family", "MSSIM", "E_dct_pJ/blk", "stream_B"],
            &rows,
        )
    );
    report_cache_use(&cache);
    Ok(())
}
