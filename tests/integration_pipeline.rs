//! End-to-end integration: every crate of the workspace participates —
//! fixture → operators → netlist/cells → metrics → apps → core.

use apxperf::operators::OperatorCtx;
use apxperf::prelude::*;

#[test]
fn full_characterization_pipeline_runs_and_fuses() {
    let lib = Library::fdsoi28();
    let mut chz = Characterizer::new(&lib).with_settings(CharacterizerSettings {
        error_samples: 10_000,
        verify_samples: 500,
        exhaustive_up_to_bits: 16,
        power_vectors: 200,
        seed: 1,
    });
    let report = chz.characterize(&OperatorConfig::EtaIv { n: 16, x: 4 });
    assert!(report.verified, "netlist must match the functional model");
    assert!(report.error.error_rate > 0.0 && report.error.error_rate < 1.0);
    assert!(report.hw.area_um2 > 0.0 && report.hw.delay_ns > 0.0);
    // JSON round-trip through serde (floats compared with tolerance:
    // serde_json's shortest-representation printing can drop an ulp)
    let json = report.to_json().unwrap();
    let back: OperatorReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.config, report.config);
    assert_eq!(back.name, report.name);
    assert_eq!(back.verified, report.verified);
    assert!((back.error.mse - report.error.mse).abs() < 1e-9);
    assert!((back.hw.pdp_pj - report.hw.pdp_pj).abs() < 1e-12);
}

#[test]
fn application_energy_pipeline_composes() {
    let lib = Library::fdsoi28();
    let mut chz = Characterizer::new(&lib).with_settings(CharacterizerSettings {
        error_samples: 2_000,
        verify_samples: 200,
        exhaustive_up_to_bits: 12,
        power_vectors: 150,
        seed: 2,
    });
    let config = OperatorConfig::AddTrunc { n: 16, q: 12 };
    let model = appenergy::model_for(&mut chz, &config);
    let fixture = FftFixture::radix2_32(3);
    let mut ctx = OperatorCtx::for_config(&config);
    let result = fixture.run(&mut ctx);
    let energy = model.energy_pj(result.counts);
    assert!(energy > 0.0);
    assert!(
        result.score.value() > 20.0,
        "12 kept bits keeps the FFT usable"
    );
}

#[test]
fn all_sweep_operators_verify_against_their_netlists() {
    // the Verification box of APXPERF over the §IV sweep, at reduced width
    let lib = Library::fdsoi28();
    let mut chz = Characterizer::new(&lib).with_settings(CharacterizerSettings {
        error_samples: 500,
        verify_samples: 800,
        exhaustive_up_to_bits: 16,
        power_vectors: 50,
        seed: 4,
    });
    for config in apxperf::core::sweeps::all_adders_16bit()
        .into_iter()
        .step_by(7)
        .chain(apxperf::core::sweeps::multipliers_16bit())
    {
        let report = chz.characterize(&config);
        assert!(report.verified, "{} failed verification", report.name);
    }
}

#[test]
fn pgm_and_json_artifacts_are_writable() {
    let img = apxperf::fixture::image::synthetic_photo(32, 32, 7);
    let pgm = img.to_pgm();
    assert!(pgm.len() > 32 * 32);
    let cloud = apxperf::fixture::clusters::gaussian_clusters(3, 10, 500.0, 1);
    let json = serde_json::to_string(&cloud).unwrap();
    assert!(json.contains("points"));
}
