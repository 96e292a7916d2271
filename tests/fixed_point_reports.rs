//! Bit-identity pins: one digest over the full `OperatorReport::to_json`
//! (name, verdict, every error metric, netlist statistics, timing, power
//! and transitions) of each config in a grid.
//!
//! The fixed-point grid reaches what no sweep covers: `ADD(n,n)` at every
//! width, `ADDt`/`ADDr` down to one kept bit, and every `MULr` output
//! width. The second grid holds every legal block size of `ETAII`/`ETAIV`
//! and every even width of the three Booth multipliers. Operator types
//! may be merged, renamed or re-parameterized freely as long as these
//! digests hold; a change meant to move results must bump the report
//! fingerprint instead of editing the constants.

use apxperf::engine::Engine;
use apxperf::operators::QuantMode;
use apxperf::prelude::*;

/// FNV-1a, 64 bit: a stable digest that needs no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every fixed-point notation over the widths named in the module docs.
fn fixed_point_grid() -> Vec<OperatorConfig> {
    let mut grid = Vec::new();
    for n in 2..=32 {
        grid.push(OperatorConfig::AddExact { n });
    }
    for n in [8, 16] {
        for q in 1..n {
            grid.push(OperatorConfig::AddTrunc { n, q });
            grid.push(OperatorConfig::AddRound { n, q });
        }
        for w in 2..=n {
            grid.push(OperatorConfig::AddSized {
                n,
                w,
                mode: QuantMode::Trunc,
            });
        }
        for w in 2..n {
            grid.push(OperatorConfig::AddSized {
                n,
                w,
                mode: QuantMode::Round,
            });
        }
    }
    for n in 2..=16 {
        grid.push(OperatorConfig::MulExact { n });
    }
    let n = 8;
    for q in 1..2 * n {
        grid.push(OperatorConfig::MulTrunc { n, q });
        grid.push(OperatorConfig::MulRound { n, q });
    }
    for w in 2..=n {
        grid.push(OperatorConfig::MulSized {
            n,
            w,
            mode: QuantMode::Trunc,
        });
    }
    for w in 2..n {
        grid.push(OperatorConfig::MulSized {
            n,
            w,
            mode: QuantMode::Round,
        });
    }
    grid
}

/// `ETAII`/`ETAIV` at every block size dividing `n`, and `MULbooth`,
/// `ABM` and `ABMu` at every even width up to 16.
fn eta_and_booth_grid() -> Vec<OperatorConfig> {
    let mut grid = Vec::new();
    for n in [8, 9, 12, 16] {
        for x in (1..=n).filter(|x| n % x == 0) {
            grid.push(OperatorConfig::EtaIi { n, x });
            grid.push(OperatorConfig::EtaIv { n, x });
        }
    }
    for n in (4..=16).step_by(2) {
        grid.push(OperatorConfig::MulBooth { n });
        grid.push(OperatorConfig::Abm { n });
        grid.push(OperatorConfig::AbmUncorrected { n });
    }
    grid
}

/// The digest of every report in `grid`, one JSON line per config.
fn report_digest(grid: Vec<OperatorConfig>) -> u64 {
    let lib = Library::fdsoi28();
    let mut chz = Characterizer::new(&lib)
        .with_engine(Engine::single_threaded())
        .with_settings(CharacterizerSettings {
            error_samples: 2_000,
            verify_samples: 64,
            exhaustive_up_to_bits: 10,
            power_vectors: 32,
            seed: 0xF1CE,
        });
    let mut text = String::new();
    for config in grid {
        let report = chz.characterize(&config);
        assert!(report.verified, "{} failed verification", report.name);
        text.push_str(&report.to_json().expect("serializable"));
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

#[test]
fn fixed_point_report_bytes_are_pinned() {
    assert_eq!(report_digest(fixed_point_grid()), 0x117093f59fea37fc);
}

#[test]
fn eta_and_booth_report_bytes_are_pinned() {
    assert_eq!(report_digest(eta_and_booth_grid()), 0xa6e5c6cdb5428394);
}
