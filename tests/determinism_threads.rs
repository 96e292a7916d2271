//! Determinism regression: the sharded, multi-threaded characterization
//! engine must produce **bit-identical** `OperatorReport`s for any thread
//! count under the same seed.
//!
//! This is the contract that makes `APXPERF_THREADS` a pure wall-clock
//! knob: the shard plan depends only on the sample counts, every shard
//! draws from its own seed-derived RNG stream, and partials merge in
//! shard order. If any loop ever consumed a thread-shared stream again,
//! these comparisons (including every floating-point metric and the
//! PSD/PDF-bearing `ErrorStats` path) would diverge.

use apxperf::prelude::*;

fn settings() -> CharacterizerSettings {
    CharacterizerSettings {
        // > 2 shards of the error loop, with a ragged tail
        error_samples: 20_000,
        verify_samples: 1_500,
        exhaustive_up_to_bits: 12,
        power_vectors: 600, // > 2 power shards, ragged tail
        seed: 0xDA7E_2017,
    }
}

fn report_for(config: &OperatorConfig, threads: usize) -> OperatorReport {
    let lib = Library::fdsoi28();
    Characterizer::new(&lib)
        .with_settings(settings())
        .with_engine(Engine::new(threads))
        .characterize(config)
}

fn assert_thread_invariant(config: OperatorConfig) {
    let baseline = report_for(&config, 1);
    assert!(baseline.verified, "{config} must verify");
    for threads in [2, 8] {
        let report = report_for(&config, threads);
        assert_eq!(
            report, baseline,
            "{config}: report differs between 1 and {threads} threads"
        );
    }
}

#[test]
fn fxp_report_is_bit_identical_across_thread_counts() {
    // carefully sized fixed-point config (Figs. 3/4 family)
    assert_thread_invariant(OperatorConfig::AddTrunc { n: 16, q: 10 });
}

#[test]
fn approximate_report_is_bit_identical_across_thread_counts() {
    // approximate config: a speculative adder's word-level closed form
    assert_thread_invariant(OperatorConfig::Aca { n: 16, p: 8 });
}

#[test]
fn full_error_stats_are_bit_identical_across_thread_counts() {
    // beyond the scalar summary: the PSD capture and PDF bins also merge
    // in shard order, so the non-scalar metrics must agree too
    let lib = Library::fdsoi28();
    let op = OperatorConfig::RcaApx {
        n: 16,
        m: 6,
        fa_type: apxperf::operators::FaType::Three,
    }
    .build();
    let stats_for = |threads: usize| {
        Characterizer::new(&lib)
            .with_settings(settings())
            .with_engine(Engine::new(threads))
            .error_stats(op.as_ref())
    };
    let base = stats_for(1);
    for threads in [2, 8] {
        let stats = stats_for(threads);
        assert_eq!(stats.samples(), base.samples());
        assert_eq!(stats.mse().to_bits(), base.mse().to_bits());
        assert_eq!(stats.ber().to_bits(), base.ber().to_bits());
        assert_eq!(stats.pdf(), base.pdf());
        assert_eq!(stats.psd(), base.psd());
    }
}
