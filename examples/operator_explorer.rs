//! Operator explorer: sweeps every 16-bit adder of the paper, prints the
//! MSE-vs-PDP Pareto front for the fixed-point and approximate families
//! separately, and shows the detailed metric suite (positional BER,
//! acceptance probability, error PDF) for one operator of each family.
//!
//! Run with: `cargo run --release --example operator_explorer`

use apxperf::prelude::*;

fn main() {
    let lib = Library::fdsoi28();
    let mut chz = Characterizer::new(&lib).with_settings(CharacterizerSettings {
        error_samples: 50_000,
        power_vectors: 600,
        ..CharacterizerSettings::default()
    });

    let mut fxp = Vec::new();
    let mut apx = Vec::new();
    for config in sweeps::all_adders_16bit() {
        let report = chz.characterize(&config);
        if config.is_fixed_point() {
            fxp.push(report);
        } else {
            apx.push(report);
        }
    }
    println!("fixed-point MSE/PDP Pareto front:");
    for r in mse_pdp_front(&fxp, chz.engine()) {
        println!(
            "  {:<14} {:>8.1} dB  {:>8.5} pJ",
            r.name, r.error.mse_db, r.hw.pdp_pj
        );
    }
    println!("approximate MSE/PDP Pareto front:");
    for r in mse_pdp_front(&apx, chz.engine()) {
        println!(
            "  {:<16} {:>8.1} dB  {:>8.5} pJ",
            r.name, r.error.mse_db, r.hw.pdp_pj
        );
    }

    // detailed metric suite for one operator of each family
    for config in [
        OperatorConfig::AddTrunc { n: 16, q: 12 },
        OperatorConfig::Aca { n: 16, p: 6 },
    ] {
        let op = config.build();
        let stats = chz.error_stats(op.as_ref());
        println!("\n{} details:", op.name());
        println!(
            "  bias {:.3}, MAE {:.3}, error rate {:.4}",
            stats.mean_error(),
            stats.mae(),
            stats.error_rate()
        );
        let pber: Vec<String> = (0..16)
            .map(|k| format!("{:.2}", stats.positional_ber(k)))
            .collect();
        println!("  positional BER (LSB..MSB): {}", pber.join(" "));
        let ap: Vec<String> = (0..8)
            .map(|k| format!("{:.3}", stats.acceptance_probability_pow2(k)))
            .collect();
        println!("  AP at MAA=2^k, k=0..7:     {}", ap.join(" "));
    }
}

/// The reports on one family's MSE/PDP Pareto front ([`pareto::analyze`]
/// over [`pareto::report_sample`]), sorted by MSE. Exact ties share the
/// front.
fn mse_pdp_front<'a>(reports: &'a [OperatorReport], engine: &Engine) -> Vec<&'a OperatorReport> {
    let samples: Vec<_> = reports.iter().map(pareto::report_sample).collect();
    let verdicts = pareto::analyze(&samples, &vec![false; samples.len()], engine);
    let mut front: Vec<&OperatorReport> = reports
        .iter()
        .zip(&verdicts)
        .filter(|(_, verdict)| verdict.on_front)
        .map(|(report, _)| report)
        .collect();
    front.sort_by(|a, b| a.error.mse_db.total_cmp(&b.error.mse_db));
    front
}
