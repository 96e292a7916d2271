//! The paper's ten exhibits — Figs. 3–6 and Tables I–VI — as data. Each
//! exhibit is one [`Command`] whose [`Exhibit`] names the swept configs,
//! where the rows come from (operator reports, or the cells of a
//! registered workload), the columns, the title and the paper's reference
//! line; [`render`] prints any of them. The application exhibits (Fig. 5
//! onwards, Tables II–VI) are thin aliases over the workload registry,
//! pinned byte for byte by `tests/cli_golden.rs`.

use super::{report_cache_use, workload_cells, Command, Run, SWEEP_FLAGS};
use crate::args::Args;
use apx_apps::hevc::ops_per_fractional_pixel;
use apx_apps::OpCounts;
use apx_cells::Library;
use apx_core::appenergy::WorkloadCell;
use apx_core::output::{family, fmt};
use apx_core::{output, sweeps, OperatorReport};
use apx_operators::{FaType, OperatorConfig};

/// Sweep flags plus the workload-size knob (image-based applications).
const SIZED_FLAGS: &[&str] = &[
    "samples",
    "vectors",
    "seed",
    "threads",
    "size",
    "cache-dir",
    "no-cache",
    "format",
];

/// Sweep flags plus the K-means workload knobs.
const KMEANS_FLAGS: &[&str] = &[
    "samples",
    "vectors",
    "seed",
    "threads",
    "sets",
    "points",
    "cache-dir",
    "no-cache",
    "format",
];

/// One table column: its header and how a row renders into it.
type Column<T> = (&'static str, fn(&T, &Args) -> String);

/// One figure or table of the paper.
pub struct Exhibit {
    /// Title line; `{size}` expands to `--size`.
    title: &'static str,
    /// The swept operator configurations, one row each.
    configs: fn() -> Vec<OperatorConfig>,
    /// Where the rows come from, with their columns.
    rows: Rows,
    /// The paper's reference numbers, printed under the table.
    paper: &'static [&'static str],
}

/// An exhibit's row source.
enum Rows {
    /// One characterization report per config.
    Reports(&'static [Column<OperatorReport>]),
    /// One cell of the named workload per config.
    Cells(&'static str, &'static [Column<WorkloadCell>]),
}

/// Renders one exhibit: sweep its configs through the caller's cache,
/// print the title, the table and the paper lines, then the cache use.
pub(super) fn render(exhibit: &Exhibit, args: &Args) -> Result<(), String> {
    let cache = args.cache();
    let configs = (exhibit.configs)();
    let (headers, rows) = match exhibit.rows {
        Rows::Reports(columns) => {
            let reports = sweeps::characterize_all_cached(
                &Library::fdsoi28(),
                args.params.settings(),
                &configs,
                &args.engine(),
                &cache,
            );
            table(columns, &reports, args)
        }
        Rows::Cells(workload, columns) => {
            let (_, cells) = workload_cells(args, &cache, workload, &configs)?;
            table(columns, &cells, args)
        }
    };
    println!(
        "{}",
        exhibit
            .title
            .replace("{size}", &args.params.size.to_string())
    );
    print!("{}", output::render(args.format, &headers, &rows));
    if !exhibit.paper.is_empty() {
        println!();
    }
    for line in exhibit.paper {
        println!("{line}");
    }
    report_cache_use(&cache);
    Ok(())
}

/// The headers of `columns` and one rendered row per item.
fn table<T>(
    columns: &[Column<T>],
    items: &[T],
    args: &Args,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = columns.iter().map(|(header, _)| *header).collect();
    let rows = items
        .iter()
        .map(|item| columns.iter().map(|(_, cell)| cell(item, args)).collect())
        .collect();
    (headers, rows)
}

/// Energy per K-means distance computation (3 adds, 2 muls).
const PER_DISTANCE: OpCounts = OpCounts { adds: 3, muls: 2 };

/// `apxperf fig3` — MSE vs power / delay / PDP / area for every 16-bit
/// adder. Expected shape (paper §IV): fixed-point operators dominate on
/// power and area at equal MSE except at very low accuracy.
pub(super) const FIG3: Command = Command {
    name: "fig3",
    summary: "Fig. 3 — 16-bit adder MSE (dB) vs. hardware cost",
    positional: "",
    flags: SWEEP_FLAGS,
    run: Run::Exhibit(&Exhibit {
        title: "FIG3: 16-bit adders, MSE (dB, full-scale) vs hardware cost",
        configs: sweeps::all_adders_16bit,
        rows: Rows::Reports(&[
            ("operator", |r, _| r.name.clone()),
            ("family", |r, _| family(&r.config).to_owned()),
            ("MSE_dB", |r, _| fmt(r.error.mse_db, 2)),
            ("power_mW", |r, _| fmt(r.hw.power_mw, 5)),
            ("delay_ns", |r, _| fmt(r.hw.delay_ns, 3)),
            ("PDP_fJ", |r, _| fmt(r.hw.pdp_pj * 1e3, 3)),
            ("area_um2", |r, _| fmt(r.hw.area_um2, 1)),
            ("ok", |r, _| r.verified.to_string()),
        ]),
        paper: &[],
    }),
};

/// `apxperf fig4` — BER vs hardware cost for the same adders as Fig. 3.
/// On BER the picture flips: approximate adders beat truncated/rounded
/// fixed point, whose dropped output bits flip ~50 % of the time each.
pub(super) const FIG4: Command = Command {
    name: "fig4",
    summary: "Fig. 4 — 16-bit adder BER vs. hardware cost",
    positional: "",
    flags: SWEEP_FLAGS,
    run: Run::Exhibit(&Exhibit {
        title: "FIG4: 16-bit adders, BER vs hardware cost",
        configs: sweeps::all_adders_16bit,
        rows: Rows::Reports(&[
            ("operator", |r, _| r.name.clone()),
            ("family", |r, _| family(&r.config).to_owned()),
            ("BER", |r, _| fmt(r.error.ber, 4)),
            ("power_mW", |r, _| fmt(r.hw.power_mw, 5)),
            ("delay_ns", |r, _| fmt(r.hw.delay_ns, 3)),
            ("PDP_fJ", |r, _| fmt(r.hw.pdp_pj * 1e3, 3)),
            ("area_um2", |r, _| fmt(r.hw.area_um2, 1)),
        ]),
        paper: &[],
    }),
};

/// `apxperf fig5` — FFT-32 energy (eq. (1)) vs output PSNR with 16-bit
/// adders; exact multipliers are sized to the adder width (the
/// partner-operator rule).
pub(super) const FIG5: Command = Command {
    name: "fig5",
    summary: "Fig. 5 — FFT-32 PSNR vs. adder energy (sized partners)",
    positional: "",
    flags: SWEEP_FLAGS,
    run: Run::Exhibit(&Exhibit {
        title: "FIG5: FFT-32 PSNR vs total PDP (pJ), partner multipliers sized to the adder",
        configs: sweeps::all_adders_16bit,
        rows: Rows::Cells(
            "fft",
            &[
                ("operator", |c, _| c.config.to_string()),
                ("family", |c, _| family(&c.config).to_owned()),
                ("PSNR_dB", |c, _| fmt(c.run.score.value(), 2)),
                ("E_fft_pJ", |c, _| fmt(c.model.energy_pj(c.run.counts), 3)),
                ("E_add_fJ", |c, _| fmt(c.model.adder_pdp_pj * 1e3, 3)),
                ("E_mul_fJ", |c, _| fmt(c.model.mult_pdp_pj * 1e3, 3)),
            ],
        ),
        paper: &[],
    }),
};

/// `apxperf fig6` — energy of the DCT in JPEG encoding vs output MSSIM
/// with 16-bit adders (quality-90 encoding, synthetic photographic
/// image). Energy is per 8×8 block to keep the numbers readable; the
/// stream length rides on the workload's `stream_bytes` aux output.
pub(super) const FIG6: Command = Command {
    name: "fig6",
    summary: "Fig. 6 — JPEG MSSIM vs. DCT energy per block",
    positional: "",
    flags: SIZED_FLAGS,
    run: Run::Exhibit(&Exhibit {
        title: "FIG6: JPEG (q=90, {size}x{size}) MSSIM vs DCT energy per 8x8 block (pJ)",
        configs: sweeps::all_adders_16bit,
        rows: Rows::Cells(
            "jpeg",
            &[
                ("operator", |c, _| c.config.to_string()),
                ("family", |c, _| family(&c.config).to_owned()),
                ("MSSIM", |c, _| fmt(c.run.score.value(), 4)),
                ("E_dct_pJ/blk", |c, args| {
                    let blocks = (args.params.size / 8) * (args.params.size / 8);
                    fmt(c.model.energy_pj(c.run.counts) / blocks as f64, 3)
                }),
                ("stream_B", |c, _| {
                    (c.run.aux("stream_bytes").unwrap_or(0.0) as u64).to_string()
                }),
            ],
        ),
        paper: &[],
    }),
};

/// `apxperf table1` — direct comparison of the 16-bit fixed-width
/// multipliers: MULt(16,16) vs AAM(16) vs ABM(16) (+ ABMu(16), the
/// uncorrected pruned-Booth instance matching the paper's catastrophic
/// ABM MSE).
pub(super) const TABLE1: Command = Command {
    name: "table1",
    summary: "Table I — 16-bit fixed-width multipliers",
    positional: "",
    flags: SWEEP_FLAGS,
    run: Run::Exhibit(&Exhibit {
        title: "TABLE I: 16-bit fixed-width multipliers",
        configs: sweeps::multipliers_16bit,
        rows: Rows::Reports(&[
            ("operator", |r, _| r.name.clone()),
            ("power_mW", |r, _| fmt(r.hw.power_mw, 4)),
            ("delay_ns", |r, _| fmt(r.hw.delay_ns, 2)),
            ("PDP_pJ", |r, _| fmt(r.hw.pdp_pj, 3)),
            ("area_um2", |r, _| fmt(r.hw.area_um2, 1)),
            ("MSE_dB", |r, _| fmt(r.error.mse_db, 2)),
            ("BER_%", |r, _| fmt(r.error.ber * 100.0, 1)),
            ("ok", |r, _| r.verified.to_string()),
        ]),
        paper: &["paper:   MULt 0.273/0.91/0.249/805/-89.1/23.4  AAM 0.359/1.23/0.442/665/-87.9/27.7  ABM 0.446/0.57/0.446/879/-9.63/27.9"],
    }),
};

/// `apxperf table2` — FFT-32 accuracy and energy with 16-bit fixed-width
/// multipliers (exact adders sized alongside).
pub(super) const TABLE2: Command = Command {
    name: "table2",
    summary: "Table II — FFT-32 with 16-bit multipliers",
    positional: "",
    flags: SWEEP_FLAGS,
    run: Run::Exhibit(&Exhibit {
        title: "TABLE II: FFT-32 with 16-bit fixed-width multipliers (exact adders)",
        configs: sweeps::multipliers_16bit,
        rows: Rows::Cells(
            "fft",
            &[
                ("operator", |c, _| c.config.to_string()),
                ("PSNR_dB", |c, _| fmt(c.run.score.value(), 2)),
                ("PDP_mul_pJ", |c, _| fmt(c.model.mult_pdp_pj, 3)),
                ("E_fft_pJ", |c, _| fmt(c.model.energy_pj(c.run.counts), 2)),
            ],
        ),
        paper: &["paper: MULt 53.88 dB / 0.249 pJ   AAM 59.66 / 0.442   ABM -18.14 / 0.446"],
    }),
};

/// `apxperf table3` — HEVC motion-compensation filter with 16-bit adders
/// at the paper's operating points; energy per fractionally interpolated
/// pixel, partner multiplier sized to the adder width.
pub(super) const TABLE3: Command = Command {
    name: "table3",
    summary: "Table III — HEVC MC filter with 16-bit adders",
    positional: "",
    flags: SIZED_FLAGS,
    run: Run::Exhibit(&Exhibit {
        title: "TABLE III: HEVC MC filter, 16-bit adders (energy per fractional pixel)",
        configs: || {
            vec![
                OperatorConfig::AddTrunc { n: 16, q: 10 },
                OperatorConfig::Aca { n: 16, p: 12 },
                OperatorConfig::EtaIv { n: 16, x: 4 },
                OperatorConfig::RcaApx {
                    n: 16,
                    m: 6,
                    fa_type: FaType::Three,
                },
            ]
        },
        rows: Rows::Cells(
            "hevc",
            &[
                ("operator", |c, _| c.config.to_string()),
                ("MSSIM_%", |c, _| fmt(c.run.score.value() * 100.0, 2)),
                ("E_add_pJ", |c, _| fmt(c.model.adder_pdp_pj, 4)),
                ("E_mul_pJ", |c, _| fmt(c.model.mult_pdp_pj, 4)),
                ("total_pJ", |c, _| {
                    fmt(c.model.energy_pj(ops_per_fractional_pixel()), 3)
                }),
            ],
        ),
        paper: &["paper: ADDt(16,10) 99.29/1.39e-2/4.39e-2/0.898  ACA 96.45/.../2.49e-1/4.20  ETAIV 98.02/...  RCAApx 99.67/.../4.12"],
    }),
};

/// `apxperf table4` — HEVC motion compensation with 16-bit fixed-width
/// multipliers (exact adders sized to the multiplier output).
pub(super) const TABLE4: Command = Command {
    name: "table4",
    summary: "Table IV — HEVC MC filter with 16-bit multipliers",
    positional: "",
    flags: SIZED_FLAGS,
    run: Run::Exhibit(&Exhibit {
        title: "TABLE IV: HEVC MC filter, 16-bit multipliers (energy per fractional pixel)",
        configs: sweeps::multipliers_16bit,
        rows: Rows::Cells(
            "hevc",
            &[
                ("operator", |c, _| c.config.to_string()),
                ("MSSIM_%", |c, _| fmt(c.run.score.value() * 100.0, 3)),
                ("E_mul_pJ", |c, _| fmt(c.model.mult_pdp_pj, 4)),
                ("E_add_pJ", |c, _| fmt(c.model.adder_pdp_pj, 4)),
                ("total_pJ", |c, _| {
                    fmt(c.model.energy_pj(ops_per_fractional_pixel()), 3)
                }),
            ],
        ),
        paper: &[
            "paper: MULt 99.918/2.49e-1/1.83e-2/3.77  AAM 99.909/4.42e-1/6.48  ABM 99.907/2.54e-1/3.85",
        ],
    }),
};

/// `apxperf table5` — K-means clustering success and distance-computation
/// energy with 16-bit adders at the paper's two accuracy levels (the
/// `kmeans` workload averages the `--sets` fixed-seed data sets).
pub(super) const TABLE5: Command = Command {
    name: "table5",
    summary: "Table V — K-means with 16-bit adders",
    positional: "",
    flags: KMEANS_FLAGS,
    run: Run::Exhibit(&Exhibit {
        title: "TABLE V: K-means, 16-bit adders (energy per distance computation)",
        configs: || {
            vec![
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
            ]
        },
        rows: Rows::Cells(
            "kmeans",
            &[
                ("operator", |c, _| c.config.to_string()),
                ("success_%", |c, _| fmt(c.run.score.value() * 100.0, 2)),
                ("E_add_pJ", |c, _| fmt(c.model.adder_pdp_pj, 4)),
                ("E_mul_pJ", |c, _| fmt(c.model.mult_pdp_pj, 4)),
                ("total_pJ", |c, _| fmt(c.model.energy_pj(PER_DISTANCE), 4)),
            ],
        ),
        paper: &[
            "paper: ADDt(16,11) 99.14/2.03e-1  ACA(16,12) 99.10/5.13e-1  ETAIV(16,4) 99.43/5.11e-1  RCAApx(16,6,3) 99.67/5.08e-1",
            "       ADDt(16,8)  86.00/6.06e-2  ACA(16,8)  86.06/5.08e-1  ETAIV(16,2) 63.25/5.05e-1  RCAApx(16,10,1) 87.29/5.11e-1",
        ],
    }),
};

/// `apxperf table6` — K-means with 16-bit multipliers, including the
/// heavily pruned MULt(16,4) that matches the paper's ABM collapse.
pub(super) const TABLE6: Command = Command {
    name: "table6",
    summary: "Table VI — K-means with 16-bit multipliers",
    positional: "",
    flags: KMEANS_FLAGS,
    run: Run::Exhibit(&Exhibit {
        title: "TABLE VI: K-means, 16-bit multipliers (energy per distance computation)",
        configs: || {
            vec![
                OperatorConfig::MulTrunc { n: 16, q: 16 },
                OperatorConfig::Aam { n: 16 },
                OperatorConfig::Abm { n: 16 },
                OperatorConfig::AbmUncorrected { n: 16 },
                OperatorConfig::MulTrunc { n: 16, q: 4 },
            ]
        },
        rows: Rows::Cells(
            "kmeans",
            &[
                ("operator", |c, _| c.config.to_string()),
                ("success_%", |c, _| fmt(c.run.score.value() * 100.0, 2)),
                ("E_mul_pJ", |c, _| fmt(c.model.mult_pdp_pj, 4)),
                ("E_add_pJ", |c, _| fmt(c.model.adder_pdp_pj, 4)),
                ("total_pJ", |c, _| fmt(c.model.energy_pj(PER_DISTANCE), 4)),
            ],
        ),
        paper: &["paper: MULt(16,16) 99.84/5.15e-1  AAM 99.43/9.02e-1  ABM 10.27/5.27e-1  MULt(16,4) 10.87/4.09e-1"],
    }),
};
