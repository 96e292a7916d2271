//! Application-kernel throughput through exact and approximate contexts.

use apx_apps::fft::FftWorkload;
use apx_apps::jpeg::dct8x8_fixed;
use apx_apps::kmeans::KmeansWorkload;
use apx_apps::{OperatorCtx, Workload};
use apx_operators::OperatorConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_apps(c: &mut Criterion) {
    let fft_workload = FftWorkload::default();
    let fft = fft_workload.prepare(1);
    c.bench_function("fft32_exact", |b| {
        let mut ctx = OperatorCtx::exact();
        b.iter(|| black_box(fft(&mut ctx)))
    });
    c.bench_function("fft32_trunc_adder", |b| {
        let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q: 10 });
        b.iter(|| black_box(fft(&mut ctx)))
    });

    c.bench_function("dct8x8_exact", |b| {
        let mut ctx = OperatorCtx::exact();
        let block = [[37i64; 8]; 8];
        b.iter(|| black_box(dct8x8_fixed(&block, &mut ctx)))
    });

    // one set of 10 clusters × 50 points, 10 Lloyd iterations
    let kmeans_workload = KmeansWorkload::new(1, 50);
    let kmeans = kmeans_workload.prepare(3);
    c.bench_function("kmeans_500pts_exact", |b| {
        let mut ctx = OperatorCtx::exact();
        b.iter(|| black_box(kmeans(&mut ctx)))
    });
}

criterion_group!(benches, bench_apps);
criterion_main!(benches);
