//! Ablation micro-benchmarks: the cost of the design alternatives (array
//! vs tree compression, corrected vs uncorrected ABM) measured at the
//! substrate level.

use apx_cells::Library;
use apx_netlist::HwAnalyzer;
use apx_operators::{Aam, ApxOperator, OperatorConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let lib = Library::fdsoi28();
    let analyzer = HwAnalyzer::new(&lib);

    c.bench_function("analyze_aam_array", |b| {
        let nl = Aam::new(16).unwrap().netlist();
        b.iter(|| black_box(analyzer.analyze(&nl)))
    });
    c.bench_function("analyze_aam_tree", |b| {
        let nl = Aam::new(16).unwrap().with_tree_compression().netlist();
        b.iter(|| black_box(analyzer.analyze(&nl)))
    });

    c.bench_function("abm_eval_corrected", |b| {
        let op = OperatorConfig::Abm { n: 16 }.build();
        let mut x = 7u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(op.eval_u((x >> 16) & 0xFFFF, (x >> 32) & 0xFFFF))
        })
    });
    c.bench_function("abm_eval_uncorrected", |b| {
        let op = OperatorConfig::AbmUncorrected { n: 16 }.build();
        let mut x = 7u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(op.eval_u((x >> 16) & 0xFFFF, (x >> 32) & 0xFFFF))
        })
    });
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
