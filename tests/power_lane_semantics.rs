//! Property-based pin of the 64-lane levelized power kernel against the
//! scalar lane-semantics reference.
//!
//! The contract under test is the strongest one the power kernel makes:
//! per-gate transition counts from the levelized 64-lane simulator are
//! **bit-identical** to a scalar one-lane-at-a-time event-driven
//! simulation of the same canonical vector-stream decomposition — across
//! operator structure (ripple carry chains, carry speculation, carry-save
//! arrays, Booth recoding and pruning, input-sized arrays), operand
//! width, ragged vector counts that straddle the 64-lane and 256-vector
//! shard boundaries, and any thread count.

use apxperf::cells::Library;
use apxperf::core::sweeps;
use apxperf::engine::Engine;
use apxperf::netlist::power::{transition_counts_reference, transition_counts_with, PowerSettings};
use apxperf::netlist::sta::quantize_delays;
use apxperf::operators::{FaType, OperatorConfig, QuantMode};
use proptest::prelude::*;

/// Netlist structures spanning the accumulation styles of the operator
/// library: ripple (exact RCA and approximate-cell RCA), carry
/// speculation (ACA, ETAIV), carry-save arrays (AAM, truncated and
/// input-sized array multipliers), and Booth recoding, exact and pruned
/// with or without sign correction. Booth and sized netlists are the
/// costliest under power simulation. Widths stay modest because the
/// scalar reference really does simulate the 64 lane sub-streams one at
/// a time.
fn arb_structure() -> impl Strategy<Value = OperatorConfig> {
    prop_oneof![
        (4u32..=24).prop_map(|n| OperatorConfig::AddExact { n }),
        (4u32..=24)
            .prop_flat_map(|n| (Just(n), 0..=n, 0usize..3))
            .prop_map(|(n, m, t)| OperatorConfig::RcaApx {
                n,
                m,
                fa_type: [FaType::One, FaType::Two, FaType::Three][t],
            }),
        (4u32..=16)
            .prop_flat_map(|n| (Just(n), 1..=n))
            .prop_map(|(n, p)| OperatorConfig::Aca { n, p }),
        (2u32..=4, 2u32..=4).prop_map(|(blocks, x)| OperatorConfig::EtaIv { n: blocks * x, x }),
        (4u32..=10).prop_map(|n| OperatorConfig::Aam { n }),
        (4u32..=10)
            .prop_flat_map(|n| (Just(n), 1..=2 * n))
            .prop_map(|(n, q)| OperatorConfig::MulTrunc { n, q }),
        (4u32..=8)
            .prop_flat_map(|n| (Just(n), 2..n, any::<bool>()))
            .prop_map(|(n, w, round)| OperatorConfig::MulSized {
                n,
                w,
                mode: if round {
                    QuantMode::Round
                } else {
                    QuantMode::Trunc
                },
            }),
        (2u32..=4).prop_map(|k| OperatorConfig::MulBooth { n: 2 * k }),
        (2u32..=4).prop_map(|k| OperatorConfig::Abm { n: 2 * k }),
        (2u32..=4).prop_map(|k| OperatorConfig::AbmUncorrected { n: 2 * k }),
    ]
}

/// Vector counts hugging the interesting boundaries: fewer than one per
/// lane, exactly the lane count, ragged mid-shard, one full shard, and
/// multi-shard with a ragged tail.
fn arb_vectors() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=70,
        Just(64usize),
        Just(256usize),
        Just(257usize),
        200usize..=600,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bitsliced_matches_scalar_reference_per_gate(
        config in arb_structure(),
        vectors in arb_vectors(),
        seed in any::<u64>(),
    ) {
        let nl = config.build().netlist();
        let lib = Library::fdsoi28();
        let settings = PowerSettings { vectors, seed };
        let reference = transition_counts_reference(&nl, &lib, settings);
        for threads in [1usize, 2, 8] {
            let bitsliced =
                transition_counts_with(&nl, &lib, settings, &Engine::new(threads));
            prop_assert_eq!(
                &bitsliced,
                &reference,
                "{:?}: {} vectors, {} threads",
                config,
                vectors,
                threads
            );
        }
    }
}

/// The levelized kernel settles a step in one pass only because no gate
/// reacts at the instant its input changes: every valid output pin of a
/// gate with inputs must be at least one tick late. `quantize_delays`
/// rounds each delay to ≥ 1 ps and divides by their GCD, so this holds
/// by construction — pinned here on every netlist the sweeps build.
#[test]
fn every_swept_gate_output_is_at_least_one_tick_late() {
    let lib = Library::fdsoi28();
    for family in sweeps::FAMILIES {
        for config in (family.configs)() {
            let nl = config.build().netlist();
            let delays = quantize_delays(&nl, &lib);
            for (gi, (gate, ticks)) in nl.gates().iter().zip(&delays.ticks).enumerate() {
                if gate.inputs().next().is_none() {
                    continue;
                }
                for (o, out) in gate.outs.iter().enumerate() {
                    assert!(
                        !out.is_valid() || ticks[o] >= 1,
                        "{}: {config:?} gate {gi} output {o} has {} ticks",
                        family.name,
                        ticks[o]
                    );
                }
            }
        }
    }
}
