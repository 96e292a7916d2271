//! Quickstart: characterize one sized fixed-point adder and one
//! approximate adder, compare them, and run both through the FFT
//! application — the whole APXPERF loop in ~40 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use apxperf::prelude::*;

fn main() {
    let lib = Library::fdsoi28();
    let mut chz = Characterizer::new(&lib);

    // 1. Operator-level characterization (error + hardware, verified).
    let sized = chz.characterize(&OperatorConfig::AddTrunc { n: 16, q: 10 });
    let approx = chz.characterize(&OperatorConfig::Aca { n: 16, p: 12 });
    println!("{}", OperatorReport::csv_header());
    println!("{}", sized.to_csv_row());
    println!("{}", approx.to_csv_row());

    // 2. Application-level comparison: FFT-32 PSNR and data-path energy,
    //    with the partner multiplier sized per operator (eq. (1)).
    let fixture = FftFixture::radix2_32(7);
    for config in [
        OperatorConfig::AddTrunc { n: 16, q: 10 },
        OperatorConfig::Aca { n: 16, p: 12 },
    ] {
        let model = appenergy::model_for(&mut chz, &config);
        let mut ctx = apxperf::operators::OperatorCtx::for_config(&config);
        let result = fixture.run(&mut ctx);
        println!(
            "{}: PSNR {:.1} dB, FFT energy {:.3} pJ",
            config,
            result.score.value(),
            model.energy_pj(result.counts)
        );
    }
}
