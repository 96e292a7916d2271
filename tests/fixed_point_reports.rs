//! Bit-identity pin for every fixed-point notation: one digest over the
//! full `OperatorReport::to_json` (name, verdict, every error metric,
//! netlist statistics, timing, power and transitions) of each config.
//!
//! The grid reaches what no sweep covers: `ADD(n,n)` at every width,
//! `ADDt`/`ADDr` down to one kept bit, and every `MULr` output width.
//! Operator types may be merged, renamed or re-parameterized freely as
//! long as this digest holds; a change meant to move results must bump
//! the report fingerprint instead of editing the constant.

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

#[test]
fn fixed_point_report_bytes_are_pinned() {
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
    for config in fixed_point_grid() {
        let report = chz.characterize(&config);
        assert!(report.verified, "{} failed verification", report.name);
        text.push_str(&report.to_json().expect("serializable"));
        text.push('\n');
    }
    assert_eq!(fnv1a(text.as_bytes()), 0x117093f59fea37fc);
}
