//! CI smoke test: the core APXPERF equivalence claim.
//!
//! `Characterizer::characterize` cross-verifies each operator's
//! gate-level netlist against its bit-accurate functional model (the
//! paper's "Verification" box, standing in for the original C-vs-VHDL
//! equivalence check). This test pins that property for one carefully
//! sized fixed-point config and one approximate config, with settings
//! small enough to run in seconds.

use apxperf::prelude::*;

fn smoke_characterizer(lib: &Library) -> Characterizer<'_> {
    Characterizer::new(lib).with_settings(CharacterizerSettings {
        error_samples: 2_000,
        verify_samples: 400,
        exhaustive_up_to_bits: 12,
        power_vectors: 100,
        seed: 0xC1,
    })
}

#[test]
fn fxp_operator_cross_verifies_and_reports() {
    let lib = Library::fdsoi28();
    let mut chz = smoke_characterizer(&lib);
    let report = chz.characterize(&OperatorConfig::AddTrunc { n: 16, q: 12 });
    assert!(
        report.verified,
        "FxP netlist must be equivalent to the functional model"
    );
    // Truncation drops 4 LSBs: error is bounded, biased positive, nonzero.
    assert!(report.error.error_rate > 0.0);
    assert!(report.error.mean_error > 0.0, "truncation bias is positive");
    assert!(report.hw.area_um2 > 0.0 && report.hw.power_mw > 0.0);
}

#[test]
fn approximate_operator_cross_verifies_and_reports() {
    let lib = Library::fdsoi28();
    let mut chz = smoke_characterizer(&lib);
    let report = chz.characterize(&OperatorConfig::Aca { n: 16, p: 4 });
    assert!(
        report.verified,
        "approximate netlist must be equivalent to its own functional model"
    );
    // Approximate ≠ broken: the functional model departs from the exact
    // reference, but the netlist matches the functional model exactly.
    assert!(report.error.error_rate > 0.0);
    assert!(report.hw.area_um2 > 0.0 && report.hw.power_mw > 0.0);
}

/// Every config of every family at widths `n <= 6`, each parameter over
/// `0..=2n+1`: past every bound the constructors state.
fn small_parameter_grid() -> Vec<OperatorConfig> {
    use apxperf::operators::{FaType, QuantMode};
    let mut grid = Vec::new();
    for n in 0..=6 {
        grid.extend([
            OperatorConfig::AddExact { n },
            OperatorConfig::MulExact { n },
            OperatorConfig::MulBooth { n },
            OperatorConfig::Aam { n },
            OperatorConfig::Abm { n },
            OperatorConfig::AbmUncorrected { n },
        ]);
        for k in 0..=2 * n + 1 {
            grid.extend([
                OperatorConfig::AddTrunc { n, q: k },
                OperatorConfig::AddRound { n, q: k },
                OperatorConfig::Aca { n, p: k },
                OperatorConfig::EtaIv { n, x: k },
                OperatorConfig::EtaIi { n, x: k },
                OperatorConfig::MulTrunc { n, q: k },
                OperatorConfig::MulRound { n, q: k },
            ]);
            for fa_type in [FaType::One, FaType::Two, FaType::Three] {
                grid.push(OperatorConfig::RcaApx { n, m: k, fa_type });
            }
            for mode in [QuantMode::Trunc, QuantMode::Round] {
                grid.push(OperatorConfig::AddSized { n, w: k, mode });
                grid.push(OperatorConfig::MulSized { n, w: k, mode });
            }
        }
    }
    grid
}

#[test]
fn validate_admits_only_configs_whose_netlist_matches_the_model() {
    // The hand-picked netlist tests check chosen parameters; this one
    // follows whatever the constructors admit, so a widened bound that
    // lets a broken config through fails here.
    use apxperf::engine::Engine;
    use apxperf::netlist::verify::verify_exhaustive2_batch_with;
    let engine = Engine::new(2);
    let mut admitted = 0;
    for config in small_parameter_grid() {
        if config.validate().is_err() {
            continue;
        }
        admitted += 1;
        let op = config.build();
        verify_exhaustive2_batch_with(&op.netlist(), &engine, |a, b, out| {
            op.eval_batch(a, b, out);
        })
        .unwrap_or_else(|e| panic!("{config}: {e}"));
    }
    assert_eq!(admitted, 300, "configs admitted on the grid");
}
