//! Application-kernel throughput through exact and approximate contexts.

use apx_apps::fft::FftFixture;
use apx_apps::jpeg::dct8x8_fixed;
use apx_apps::kmeans::KmeansFixture;
use apx_apps::OperatorCtx;
use apx_operators::OperatorConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_apps(c: &mut Criterion) {
    let fft = FftFixture::radix2_32(1);
    c.bench_function("fft32_exact", |b| {
        let mut ctx = OperatorCtx::exact();
        b.iter(|| black_box(fft.run(&mut ctx)))
    });
    c.bench_function("fft32_trunc_adder", |b| {
        let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q: 10 });
        b.iter(|| black_box(fft.run(&mut ctx)))
    });

    c.bench_function("dct8x8_exact", |b| {
        let mut ctx = OperatorCtx::exact();
        let block = [[37i64; 8]; 8];
        b.iter(|| black_box(dct8x8_fixed(&block, &mut ctx)))
    });

    let kmeans = KmeansFixture::synthetic(10, 50, 3).with_iterations(3);
    c.bench_function("kmeans_500pts_exact", |b| {
        b.iter(|| black_box(kmeans.run_exact()))
    });
}

criterion_group!(benches, bench_apps);
criterion_main!(benches);
