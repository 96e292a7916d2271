//! Functional-model throughput of every operator family (the hot path of
//! error characterization).

use apx_operators::{ApxOperator, FaType, OperatorConfig};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_eval(c: &mut Criterion) {
    let ops: Vec<(&str, Box<dyn ApxOperator>)> = vec![
        ("add_exact_16", OperatorConfig::AddExact { n: 16 }.build()),
        (
            "add_trunc_16_10",
            OperatorConfig::AddTrunc { n: 16, q: 10 }.build(),
        ),
        ("aca_16_4", OperatorConfig::Aca { n: 16, p: 4 }.build()),
        ("etaiv_16_4", OperatorConfig::EtaIv { n: 16, x: 4 }.build()),
        (
            "rcaapx_16_6_3",
            OperatorConfig::RcaApx {
                n: 16,
                m: 6,
                fa_type: FaType::Three,
            }
            .build(),
        ),
        (
            "mul_trunc_16_16",
            OperatorConfig::MulTrunc { n: 16, q: 16 }.build(),
        ),
        ("aam_16", OperatorConfig::Aam { n: 16 }.build()),
        ("abm_16", OperatorConfig::Abm { n: 16 }.build()),
    ];
    let mut group = c.benchmark_group("eval_u");
    for (name, op) in &ops {
        group.bench_function(name, |b| {
            let mut x = 0x12345u64;
            b.iter(|| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = (x >> 16) & 0xFFFF;
                let bb = (x >> 32) & 0xFFFF;
                black_box(op.eval_u(a, bb))
            })
        });
    }
    group.finish();
}

/// Batched-model throughput: one `eval_batch` call per iteration over a
/// 4096-sample batch (the engine's default in-shard width), next to a
/// scalar `eval_u` loop over the same batch. Divide the reported time by
/// 4096 for per-sample cost; the ratio of the two entries is the speedup
/// of the batch kernel over the per-sample scalar path.
fn bench_eval_batch(c: &mut Criterion) {
    const BATCH: usize = 4096;
    let ops: Vec<(&str, Box<dyn ApxOperator>)> = vec![
        ("aca_16_4", OperatorConfig::Aca { n: 16, p: 4 }.build()),
        ("etaii_16_4", OperatorConfig::EtaIi { n: 16, x: 4 }.build()),
        ("etaiv_16_4", OperatorConfig::EtaIv { n: 16, x: 4 }.build()),
        (
            "rcaapx_16_6_3",
            OperatorConfig::RcaApx {
                n: 16,
                m: 6,
                fa_type: FaType::Three,
            }
            .build(),
        ),
        (
            "add_sized_16_10",
            OperatorConfig::AddSized {
                n: 16,
                w: 10,
                mode: apx_operators::QuantMode::Round,
            }
            .build(),
        ),
        (
            "mul_trunc_16_16",
            OperatorConfig::MulTrunc { n: 16, q: 16 }.build(),
        ),
        ("mul_exact_16", OperatorConfig::MulExact { n: 16 }.build()),
        ("booth_16", OperatorConfig::MulBooth { n: 16 }.build()),
        ("aam_16", OperatorConfig::Aam { n: 16 }.build()),
        ("abm_16", OperatorConfig::Abm { n: 16 }.build()),
        (
            "mul_sized_16_10",
            OperatorConfig::MulSized {
                n: 16,
                w: 10,
                mode: apx_operators::QuantMode::Trunc,
            }
            .build(),
        ),
    ];
    let batches: Vec<(Vec<u64>, Vec<u64>)> = ops
        .iter()
        .map(|(_, op)| {
            let mask = apx_operators::mask_u(op.input_bits());
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = move || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x
            };
            let a = (0..BATCH).map(|_| next() & mask).collect();
            let b = (0..BATCH).map(|_| next() & mask).collect();
            (a, b)
        })
        .collect();
    let mut out = vec![0u64; BATCH];
    let mut group = c.benchmark_group("eval_batch_4096");
    for ((name, op), (a, bv)) in ops.iter().zip(&batches) {
        group.bench_function(name, |b| {
            b.iter(|| {
                op.eval_batch(black_box(a), black_box(bv), &mut out);
                black_box(out[BATCH - 1])
            })
        });
    }
    group.finish();
    let mut group = c.benchmark_group("eval_u_loop_4096");
    for ((name, op), (a, bv)) in ops.iter().zip(&batches) {
        group.bench_function(name, |b| {
            b.iter(|| {
                for ((&x, &y), o) in black_box(a).iter().zip(black_box(bv)).zip(&mut out) {
                    *o = op.eval_u(x, y);
                }
                black_box(out[BATCH - 1])
            })
        });
    }
    group.finish();
}

fn bench_netlist_generation(c: &mut Criterion) {
    c.bench_function("netlist_gen_mult16", |b| {
        let op = OperatorConfig::MulTrunc { n: 16, q: 16 }.build();
        b.iter_batched(|| (), |()| black_box(op.netlist()), BatchSize::SmallInput)
    });
}

criterion_group!(
    benches,
    bench_eval,
    bench_eval_batch,
    bench_netlist_generation
);
criterion_main!(benches);
