//! The paper's qualitative conclusions, encoded as tests. These are the
//! "shape" checks of the reproduction: who wins, in which metric, and by
//! roughly what kind of margin.

use apxperf::operators::{FaType, OperatorCtx};
use apxperf::prelude::*;

fn quick_chz(lib: &Library) -> Characterizer<'_> {
    Characterizer::new(lib).with_settings(CharacterizerSettings {
        error_samples: 30_000,
        verify_samples: 300,
        exhaustive_up_to_bits: 12,
        power_vectors: 400,
        seed: 99,
    })
}

/// §IV, Fig. 3: for the MSE metric, fixed-point sizing dominates the
/// approximate adders on power at comparable accuracy.
#[test]
fn fig3_shape_fxp_dominates_mse_vs_power() {
    let lib = Library::fdsoi28();
    let mut chz = quick_chz(&lib);
    // a mid-accuracy FxP point
    let fxp = chz.characterize(&OperatorConfig::AddTrunc { n: 16, q: 12 });
    // approximate adders at comparable power budgets
    for approx in [
        OperatorConfig::EtaIv { n: 16, x: 4 },
        OperatorConfig::RcaApx {
            n: 16,
            m: 8,
            fa_type: FaType::Two,
        },
    ] {
        let a = chz.characterize(&approx);
        assert!(
            fxp.error.mse_db < a.error.mse_db && fxp.hw.power_mw < a.hw.power_mw,
            "{}: FxP ({:.1} dB, {:.4} mW) must dominate ({:.1} dB, {:.4} mW)",
            a.name,
            fxp.error.mse_db,
            fxp.hw.power_mw,
            a.error.mse_db,
            a.hw.power_mw
        );
    }
}

/// §IV, Fig. 4: on BER the approximate adders win — truncation forces
/// dropped bits to zero (~50 % flips each).
#[test]
fn fig4_shape_approx_wins_ber() {
    let lib = Library::fdsoi28();
    let mut chz = quick_chz(&lib);
    let fxp = chz.characterize(&OperatorConfig::AddTrunc { n: 16, q: 8 });
    let aca = chz.characterize(&OperatorConfig::Aca { n: 16, p: 8 });
    assert!(
        aca.error.ber < fxp.error.ber / 10.0,
        "ACA BER {} must be far below truncated BER {}",
        aca.error.ber,
        fxp.error.ber
    );
}

/// §IV, Table I: MULt is the most accurate fixed-width multiplier; the
/// uncorrected pruned Booth is catastrophically MSE-inaccurate while its
/// BER stays in the same ballpark as the others.
#[test]
fn table1_shape_multiplier_accuracy_ordering() {
    let lib = Library::fdsoi28();
    let mut chz = quick_chz(&lib);
    let mult = chz.characterize(&OperatorConfig::MulTrunc { n: 16, q: 16 });
    let aam = chz.characterize(&OperatorConfig::Aam { n: 16 });
    let abmu = chz.characterize(&OperatorConfig::AbmUncorrected { n: 16 });
    assert!(mult.error.mse_db <= aam.error.mse_db, "MULt most accurate");
    assert!(
        abmu.error.mse_db > mult.error.mse_db + 60.0,
        "uncorrected ABM ~7 orders worse: {} vs {}",
        abmu.error.mse_db,
        mult.error.mse_db
    );
    assert!(aam.hw.area_um2 < mult.hw.area_um2, "AAM is smaller");
}

/// §V: the partner-multiplier mechanism — an approximate adder keeps a
/// full-width data-path, a sized adder shrinks it several-fold.
#[test]
fn tables_3_to_6_shape_hidden_cost_of_full_width_datapath() {
    let lib = Library::fdsoi28();
    let mut chz = quick_chz(&lib);
    let sized = appenergy::model_for(&mut chz, &OperatorConfig::AddTrunc { n: 16, q: 10 });
    let approx = appenergy::model_for(&mut chz, &OperatorConfig::Aca { n: 16, p: 12 });
    assert!(
        approx.mult_pdp_pj > 3.0 * sized.mult_pdp_pj,
        "full-width partner multiplier ({} pJ) must dwarf the sized one ({} pJ)",
        approx.mult_pdp_pj,
        sized.mult_pdp_pj
    );
}

/// §V-D, Table VI: the broken ABM collapses K-means to near the
/// MULt(16,4) level while AAM stays at MULt-level accuracy.
#[test]
fn table6_shape_abm_collapse() {
    let fixture = KmeansFixture::synthetic(10, 300, 5);
    let run = |config: OperatorConfig| {
        let mut ctx = OperatorCtx::for_config(&config);
        fixture.run(&mut ctx).score.value()
    };
    let mult = run(OperatorConfig::MulTrunc { n: 16, q: 16 });
    let aam = run(OperatorConfig::Aam { n: 16 });
    let abmu = run(OperatorConfig::AbmUncorrected { n: 16 });
    let tiny = run(OperatorConfig::MulTrunc { n: 16, q: 4 });
    assert!(mult > 0.95 && aam > 0.95, "MULt {mult}, AAM {aam}");
    assert!(abmu < 0.5, "ABMu collapses: {abmu}");
    assert!(tiny < 0.5, "MULt(16,4) collapses too: {tiny}");
}

/// §V-A, Fig. 5: at the application level, fixed-point sizing beats every
/// approximate adder: for a similar PSNR the sized data-path needs less
/// energy.
#[test]
fn fig5_shape_fxp_dominates_fft_energy() {
    let lib = Library::fdsoi28();
    let mut chz = quick_chz(&lib);
    let fixture = FftFixture::radix2_32(17);

    let run = |chz: &mut Characterizer<'_>, config: OperatorConfig| {
        let model = appenergy::model_for(chz, &config);
        let mut ctx = OperatorCtx::for_config(&config);
        let result = fixture.run(&mut ctx);
        (result.score.value(), model.energy_pj(result.counts))
    };
    let (psnr_fxp, e_fxp) = run(&mut chz, OperatorConfig::AddTrunc { n: 16, q: 12 });
    let (psnr_apx, e_apx) = run(&mut chz, OperatorConfig::EtaIv { n: 16, x: 4 });
    // the sized version reaches at least comparable quality for much less
    assert!(
        psnr_fxp > 25.0,
        "sized adder keeps the FFT usable: {psnr_fxp}"
    );
    assert!(
        e_apx > 2.0 * e_fxp,
        "approximate data-path energy {e_apx} must dwarf sized {e_fxp} (PSNR {psnr_apx} vs {psnr_fxp})"
    );
}
