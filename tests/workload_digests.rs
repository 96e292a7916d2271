//! Bit-identity pins for the application layer: every `WorkloadRun`
//! of the K-means, HEVC and JPEG workloads, and the per-site ledger its
//! context leaves behind (first-recorded order included), digested over
//! every configuration of the `all` and `sized` families plus one
//! heterogeneous `SiteMap` per workload (the `tune` path).
//!
//! A second set of digests runs the benchmark's sizes (64-pixel images,
//! one K-means set of 200 points per cluster) over a handful of configs:
//! K-means configs that reach a fixed point before the last iteration and
//! ones that never do, and HEVC frames of 16 motion blocks with mixed
//! phases.
//!
//! The tiny digests were captured from the scalar (one operation per
//! call) workload loops, the benchmark-size ones from the per-pixel HEVC
//! filter, the per-term JPEG inverse DCT and the full K-means loop. Any rewrite of a workload's arithmetic, such as
//! slicing it into batched context calls, must reproduce them exactly;
//! a change that is meant to move results must bump the workload
//! fingerprint instead of editing these constants.

use apxperf::apps::workload::{find, WorkloadParams};
use apxperf::core::sweeps::find_family;
use apxperf::operators::{FaType, OperatorConfig, OperatorCtx, SiteMap};
use std::fmt::Write as _;

/// The `tests/workloads.rs` tiny parameters: 16-pixel images, one
/// K-means set of 20 points per cluster.
fn tiny_params() -> WorkloadParams {
    WorkloadParams {
        size: 16,
        sets: 1,
        points: 20,
    }
}

/// The benchmark's parameters: 64-pixel images (16 HEVC motion blocks),
/// one K-means set of 200 points per cluster.
fn bench_params() -> WorkloadParams {
    WorkloadParams {
        size: 64,
        sets: 1,
        points: 200,
    }
}

/// FNV-1a, 64 bit: a stable digest that needs no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per run: the context's routing, the score (value and bit
/// pattern), the op counts, the aux outputs and the site ledger in
/// first-recorded order.
fn describe(
    label: &str,
    workload: &str,
    params: &WorkloadParams,
    ctx: &mut OperatorCtx,
    text: &mut String,
) {
    let workload = (find(workload).expect("registered").build)(params).expect("valid");
    let run = workload.run(workload.default_seed(), ctx);
    let _ = write!(
        text,
        "{label}|{:?}|{:016x}|{}+{}",
        run.score,
        run.score.value().to_bits(),
        run.counts.adds,
        run.counts.muls
    );
    for (name, value) in &run.aux {
        let _ = write!(text, "|{name}={:016x}", value.to_bits());
    }
    for (site, counts) in ctx.site_counts().iter() {
        let _ = write!(text, "|{site}:{}+{}", counts.adds, counts.muls);
    }
    text.push('\n');
}

/// Digest of `workload` under every `all` + `sized` configuration and
/// the heterogeneous `hetero` map.
fn workload_digest(workload: &str, hetero: &SiteMap) -> u64 {
    let mut text = String::new();
    for family in ["all", "sized"] {
        for config in (find_family(family).expect("registered").configs)() {
            let mut ctx = OperatorCtx::for_config(&config);
            let label = format!("{config:?}");
            describe(&label, workload, &tiny_params(), &mut ctx, &mut text);
        }
    }
    let mut ctx = OperatorCtx::new(hetero);
    describe("hetero", workload, &tiny_params(), &mut ctx, &mut text);
    fnv1a(text.as_bytes())
}

/// Configs of the benchmark-size digest. At 200 points, K-means under
/// the first four settles before its tenth iteration; under the last
/// three it never does.
const BENCH_CONFIGS: &[&str] = &[
    "ADDt(16,11)",
    "MULt(16,16)",
    "ADDst(16,5)",
    "RCAApx(16,6,3)",
    "ACA(16,8)",
    "ETAIV(16,2)",
    "ABMu(16)",
];

/// Digest of `workload` at the benchmark's sizes under every
/// [`BENCH_CONFIGS`] entry and the heterogeneous `hetero` map.
fn bench_digest(workload: &str, hetero: &SiteMap) -> u64 {
    let mut text = String::new();
    for notation in BENCH_CONFIGS {
        let config: OperatorConfig = notation.parse().expect("paper notation");
        let mut ctx = OperatorCtx::for_config(&config);
        describe(notation, workload, &bench_params(), &mut ctx, &mut text);
    }
    let mut ctx = OperatorCtx::new(hetero);
    describe("hetero", workload, &bench_params(), &mut ctx, &mut text);
    fnv1a(text.as_bytes())
}

fn site_map(entries: &[(&str, OperatorConfig)]) -> SiteMap {
    let mut map = SiteMap::new();
    for &(site, config) in entries {
        map.set(site, config);
    }
    map
}

#[test]
fn kmeans_runs_and_ledgers_are_pinned() {
    let hetero = site_map(&[
        ("kmeans.dist_diff", OperatorConfig::Aca { n: 16, p: 6 }),
        ("kmeans.dist_acc", OperatorConfig::Aam { n: 16 }),
    ]);
    assert_eq!(workload_digest("kmeans", &hetero), 0x5262583283473531);
}

#[test]
fn hevc_runs_and_ledgers_are_pinned() {
    let hetero = site_map(&[
        ("hevc.mc_h", OperatorConfig::MulTrunc { n: 16, q: 14 }),
        ("hevc.mc_v", OperatorConfig::EtaIv { n: 16, x: 4 }),
    ]);
    assert_eq!(workload_digest("hevc", &hetero), 0xb3eb5e6d006759e9);
}

#[test]
fn jpeg_runs_and_ledgers_are_pinned() {
    let hetero = site_map(&[
        ("jpeg.dct_row", OperatorConfig::Abm { n: 16 }),
        (
            "jpeg.dct_col",
            OperatorConfig::RcaApx {
                n: 16,
                m: 8,
                fa_type: FaType::Two,
            },
        ),
    ]);
    assert_eq!(workload_digest("jpeg", &hetero), 0x23191fa82b43015e);
}

#[test]
fn benchmark_size_runs_and_ledgers_are_pinned() {
    let kmeans = site_map(&[
        ("kmeans.dist_diff", OperatorConfig::AddRound { n: 16, q: 6 }),
        ("kmeans.dist_acc", OperatorConfig::MulTrunc { n: 16, q: 16 }),
    ]);
    let hevc = site_map(&[
        ("hevc.mc_h", OperatorConfig::Aca { n: 16, p: 8 }),
        ("hevc.mc_v", OperatorConfig::MulTrunc { n: 16, q: 12 }),
    ]);
    let jpeg = site_map(&[
        ("jpeg.dct_row", OperatorConfig::AddTrunc { n: 16, q: 11 }),
        ("jpeg.dct_col", OperatorConfig::AbmUncorrected { n: 16 }),
    ]);
    let digests = [
        bench_digest("kmeans", &kmeans),
        bench_digest("hevc", &hevc),
        bench_digest("jpeg", &jpeg),
    ];
    assert_eq!(
        digests,
        [0x29e119be6e64a26e, 0xc2c9d1411a6d3772, 0x1316ee40277382d9],
        "{digests:#018x?}"
    );
}
