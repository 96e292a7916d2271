//! K-means case study: reproduces the §V-D experiment interactively —
//! sweeps the truncated-adder width and shows where clustering collapses,
//! then demonstrates the ABM failure mode on the same data.
//!
//! Run with: `cargo run --release --example kmeans_study`

use apxperf::operators::OperatorCtx;
use apxperf::prelude::*;

fn main() {
    // one data set of 10 clusters × 500 points
    let workload = KmeansWorkload::new(1, 500);
    let kmeans = workload.prepare(42);
    let exact = kmeans(&mut OperatorCtx::exact());
    println!(
        "exact baseline: {:.2}% success ({} distance ops)",
        exact.score.value() * 100.0,
        exact.counts.total()
    );

    println!("\ntruncated-adder width sweep:");
    for q in (4..=15).rev() {
        let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q });
        let r = kmeans(&mut ctx);
        let bar = "#".repeat((r.score.value() * 40.0) as usize);
        println!("  ADDt(16,{q:>2}): {:>6.2}% {bar}", r.score.value() * 100.0);
    }

    println!("\nmultiplier substitution:");
    for config in [
        OperatorConfig::MulTrunc { n: 16, q: 16 },
        OperatorConfig::Aam { n: 16 },
        OperatorConfig::Abm { n: 16 },
        OperatorConfig::AbmUncorrected { n: 16 },
        OperatorConfig::MulTrunc { n: 16, q: 4 },
    ] {
        let mut ctx = OperatorCtx::for_config(&config);
        let r = kmeans(&mut ctx);
        println!(
            "  {:<12} {:>6.2}%",
            config.to_string(),
            r.score.value() * 100.0
        );
    }
}
