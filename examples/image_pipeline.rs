//! Image pipeline study: encodes the synthetic test image with the JPEG
//! encoder under several arithmetic regimes, reports MSSIM + stream size,
//! then runs the HEVC motion-compensation filter on the same image, and
//! writes the decoded images as PGM files for visual inspection into
//! `apxperf_image_pipeline/` under the system temp directory (created if
//! missing), so the example runs from any working directory.
//!
//! Run with: `cargo run --release --example image_pipeline`

use apxperf::operators::{FaType, OperatorCtx};
use apxperf::prelude::*;

fn main() {
    let jpeg = JpegFixture::synthetic(128, 90, 11);
    let contexts = [
        ("exact", None),
        (
            "ADDt(16,12)",
            Some(OperatorConfig::AddTrunc { n: 16, q: 12 }),
        ),
        ("ADDt(16,8)", Some(OperatorConfig::AddTrunc { n: 16, q: 8 })),
        (
            "RCAApx(16,4,3)",
            Some(OperatorConfig::RcaApx {
                n: 16,
                m: 4,
                fa_type: FaType::Three,
            }),
        ),
    ];
    let out_dir = std::env::temp_dir().join("apxperf_image_pipeline");
    std::fs::create_dir_all(&out_dir).expect("create PGM output directory");
    println!("JPEG q90, 128x128 synthetic photo:");
    for (name, config) in contexts {
        let mut ctx = match config {
            Some(c) => OperatorCtx::for_config(&c),
            None => OperatorCtx::exact(),
        };
        let (result, score) = jpeg.run(&mut ctx);
        let path = out_dir.join(format!("jpeg_{}.pgm", name.replace(['(', ')', ','], "_")));
        std::fs::write(&path, result.decoded.to_pgm()).expect("write PGM");
        println!(
            "  {name:<16} MSSIM {:.4}  stream {} B  -> {}",
            score.value(),
            result.bytes.len(),
            path.display()
        );
    }

    let mc = McFixture::synthetic(128, 12);
    println!("\nHEVC quarter-pel motion compensation, 128x128:");
    for (name, config) in [
        ("exact", None),
        (
            "ADDt(16,10)",
            Some(OperatorConfig::AddTrunc { n: 16, q: 10 }),
        ),
        ("ETAIV(16,4)", Some(OperatorConfig::EtaIv { n: 16, x: 4 })),
    ] {
        let mut ctx = match config {
            Some(c) => OperatorCtx::for_config(&c),
            None => OperatorCtx::exact(),
        };
        let (result, score) = mc.run(&mut ctx);
        println!(
            "  {name:<12} MSSIM {:.4}  ({} adds, {} muls)",
            score.value(),
            result.counts.adds,
            result.counts.muls
        );
    }
}
