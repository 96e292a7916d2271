//! Property-based tests over the cross-crate invariants.

use apxperf::core::sweeps::find_family;
use apxperf::metrics::{ErrorStats, QualityBudget};
use apxperf::operators::{
    centered_diff, mask_u, sext, to_u, FaType, OperatorConfig, OperatorCtx, QuantMode, SiteMap,
};
use proptest::prelude::*;

fn arb_adder_config() -> impl Strategy<Value = OperatorConfig> {
    prop_oneof![
        (2u32..=10).prop_map(|n| OperatorConfig::AddExact { n }),
        (2u32..=10)
            .prop_flat_map(|n| (Just(n), 1..=n))
            .prop_map(|(n, q)| { OperatorConfig::AddTrunc { n, q } }),
        (3u32..=10)
            .prop_flat_map(|n| (Just(n), 1..n))
            .prop_map(|(n, q)| { OperatorConfig::AddRound { n, q } }),
        (2u32..=10)
            .prop_flat_map(|n| (Just(n), 1..=n))
            .prop_map(|(n, p)| { OperatorConfig::Aca { n, p } }),
        (2u32..=10)
            .prop_flat_map(|n| {
                let divisors: Vec<u32> = (1..=n).filter(|x| n % x == 0).collect();
                (Just(n), proptest::sample::select(divisors))
            })
            .prop_map(|(n, x)| OperatorConfig::EtaIv { n, x }),
        (2u32..=10)
            .prop_flat_map(|n| {
                let divisors: Vec<u32> = (1..=n).filter(|x| n % x == 0).collect();
                (Just(n), proptest::sample::select(divisors))
            })
            .prop_map(|(n, x)| OperatorConfig::EtaIi { n, x }),
        (2u32..=10)
            .prop_flat_map(|n| (Just(n), 0..=n, 0usize..3))
            .prop_map(|(n, m, t)| OperatorConfig::RcaApx {
                n,
                m,
                fa_type: [FaType::One, FaType::Two, FaType::Three][t],
            }),
    ]
}

fn arb_mult_config() -> impl Strategy<Value = OperatorConfig> {
    prop_oneof![
        (2u32..=8).prop_map(|n| OperatorConfig::MulExact { n }),
        (2u32..=8)
            .prop_flat_map(|n| (Just(n), 1..=2 * n))
            .prop_map(|(n, q)| { OperatorConfig::MulTrunc { n, q } }),
        (2u32..=8)
            .prop_flat_map(|n| (Just(n), 1..2 * n))
            .prop_map(|(n, q)| { OperatorConfig::MulRound { n, q } }),
        (2u32..=4).prop_map(|k| OperatorConfig::MulBooth { n: 2 * k }),
        (4u32..=8).prop_map(|n| OperatorConfig::Aam { n }),
        (2u32..=4).prop_map(|k| OperatorConfig::Abm { n: 2 * k }),
        (2u32..=4).prop_map(|k| OperatorConfig::AbmUncorrected { n: 2 * k }),
    ]
}

fn arb_quant_mode() -> impl Strategy<Value = QuantMode> {
    proptest::sample::select(vec![QuantMode::Trunc, QuantMode::Round])
}

fn arb_sized_config() -> impl Strategy<Value = OperatorConfig> {
    prop_oneof![
        (3u32..=12, arb_quant_mode())
            .prop_flat_map(|(n, mode)| (Just(n), 2..n, Just(mode)))
            .prop_map(|(n, w, mode)| OperatorConfig::AddSized { n, w, mode }),
        (3u32..=10, arb_quant_mode())
            .prop_flat_map(|(n, mode)| (Just(n), 2..n, Just(mode)))
            .prop_map(|(n, w, mode)| OperatorConfig::MulSized { n, w, mode }),
    ]
}

/// Full-width corner configurations — every family at the widest operand
/// it accepts (adders n = 32, multipliers n = 24, Booth up to 24) — so
/// the closed forms are exercised at their word-width extremes, not only
/// mid-range.
fn arb_extreme_config() -> impl Strategy<Value = OperatorConfig> {
    prop_oneof![
        Just(OperatorConfig::AddExact { n: 32 }),
        (1u32..=32).prop_map(|q| OperatorConfig::AddTrunc { n: 32, q }),
        (1u32..32).prop_map(|q| OperatorConfig::AddRound { n: 32, q }),
        (1u32..=32).prop_map(|p| OperatorConfig::Aca { n: 32, p }),
        proptest::sample::select(vec![1u32, 2, 4, 8, 16, 32])
            .prop_map(|x| OperatorConfig::EtaIv { n: 32, x }),
        proptest::sample::select(vec![1u32, 2, 4, 8, 16, 32])
            .prop_map(|x| OperatorConfig::EtaIi { n: 32, x }),
        (0u32..=32, 0usize..3).prop_map(|(m, t)| OperatorConfig::RcaApx {
            n: 32,
            m,
            fa_type: [FaType::One, FaType::Two, FaType::Three][t],
        }),
        Just(OperatorConfig::MulExact { n: 24 }),
        (1u32..=48).prop_map(|q| OperatorConfig::MulTrunc { n: 24, q }),
        (1u32..48).prop_map(|q| OperatorConfig::MulRound { n: 24, q }),
        proptest::sample::select(vec![16u32, 20, 24]).prop_map(|n| OperatorConfig::MulBooth { n }),
        proptest::sample::select(vec![16u32, 20, 24]).prop_map(|n| OperatorConfig::Aam { n }),
        proptest::sample::select(vec![16u32, 20, 24]).prop_map(|n| OperatorConfig::Abm { n }),
        proptest::sample::select(vec![16u32, 20, 24])
            .prop_map(|n| OperatorConfig::AbmUncorrected { n }),
        (2u32..32, arb_quant_mode()).prop_map(|(w, mode)| OperatorConfig::AddSized {
            n: 32,
            w,
            mode
        }),
        (2u32..24, arb_quant_mode()).prop_map(|(w, mode)| OperatorConfig::MulSized {
            n: 24,
            w,
            mode
        }),
    ]
}

/// Deterministic operand batch of `len` lanes, masked to the operand
/// width (ragged lengths included).
fn batch_operands(seed: u64, len: usize, mask: u64) -> (Vec<u64>, Vec<u64>) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let a = (0..len).map(|_| next() & mask).collect();
    let b = (0..len).map(|_| next() & mask).collect();
    (a, b)
}

/// Every accessor of an accumulator, floats as bit patterns:
/// `(samples, min, max, scalar metrics, pdf, psd)`.
type StatsBits = (u64, i64, i64, Vec<u64>, Vec<u64>, Vec<u64>);

fn stats_bits(s: &ErrorStats, bits: u32) -> StatsBits {
    let to_bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
    let mut scalars = vec![
        s.mean_error(),
        s.mse(),
        s.mse_db(),
        s.mae(),
        s.relative_error(),
        s.error_rate(),
        s.ber(),
    ];
    scalars.extend((0..bits).map(|k| s.positional_ber(k)));
    scalars.extend((0..=bits + 1).map(|k| s.acceptance_probability_pow2(k)));
    (
        s.samples(),
        s.min_error(),
        s.max_error(),
        to_bits(scalars),
        to_bits(s.pdf()),
        to_bits(s.psd()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every operator's aligned output stays within the reference width,
    /// and exact operators have zero error.
    #[test]
    fn aligned_output_in_range(config in arb_adder_config(), a in any::<u64>(), b in any::<u64>()) {
        let op = config.build();
        let mask = mask_u(op.input_bits());
        let (a, b) = (a & mask, b & mask);
        let aligned = op.aligned_u(a, b);
        prop_assert!(aligned <= mask_u(op.ref_bits()));
        if matches!(config, OperatorConfig::AddExact { .. }) {
            prop_assert_eq!(aligned, op.reference_u(a, b));
        }
    }

    /// Truncation error is non-negative and bounded by the dropped bits
    /// (for q >= 2 the bound stays below half the reference range, so the
    /// centered difference cannot wrap).
    #[test]
    fn trunc_error_bounds(n in 3u32..=12, qd in 1u32..=6, a in any::<u64>(), b in any::<u64>()) {
        let q = n.saturating_sub(qd).max(2);
        let op = OperatorConfig::AddTrunc { n, q }.build();
        let mask = mask_u(n);
        let (a, b) = (a & mask, b & mask);
        let e = centered_diff(op.reference_u(a, b), op.aligned_u(a, b), n);
        let s = n - q;
        prop_assert!(e >= 0);
        prop_assert!(e <= 2 * ((1i64 << s) - 1));
    }

    /// Multiplier models agree with native signed multiplication when
    /// they are exact, and all netlists match their functional models.
    #[test]
    fn mult_netlist_equivalence(config in arb_mult_config(), a in any::<u64>(), b in any::<u64>()) {
        let op = config.build();
        let mask = mask_u(op.input_bits());
        let (a, b) = (a & mask, b & mask);
        if matches!(config, OperatorConfig::MulExact { .. } | OperatorConfig::MulBooth { .. }) {
            let n = op.input_bits();
            let expected = to_u(sext(a, n).wrapping_mul(sext(b, n)), 2 * n);
            prop_assert_eq!(op.eval_u(a, b), expected);
        }
        // single-point netlist equivalence (cheap, covers the whole family
        // over many cases)
        let nl = op.netlist();
        let mut sim = apxperf::netlist::Sim64::new(&nl);
        sim.set_bus_lanes("a", &[a]);
        sim.set_bus_lanes("b", &[b]);
        sim.run();
        prop_assert_eq!(sim.read_bus_lanes("y", 1)[0], op.eval_u(a, b));
    }

    /// Batched evaluation is extensionally equal to the scalar model for
    /// every operator config family — including the multipliers, the
    /// sized variants and the full-width corner configs — the contract
    /// that lets `eval_batch` and its aligned and reference twins stand
    /// in for per-sample loops in the characterization engine. `len` runs
    /// over ragged lengths as well as exact 64-lane multiples.
    #[test]
    fn eval_batch_matches_scalar_eval(
        config in prop_oneof![
            arb_adder_config(),
            arb_mult_config(),
            arb_sized_config(),
            arb_extreme_config(),
        ],
        seed in any::<u64>(),
        len in 1usize..200,
    ) {
        let op = config.build();
        let mask = mask_u(op.input_bits());
        let (a, b) = batch_operands(seed, len, mask);
        let mut raw = vec![0u64; len];
        let mut aligned = vec![0u64; len];
        let mut reference = vec![0u64; len];
        op.eval_batch(&a, &b, &mut raw);
        op.aligned_batch(&a, &b, &mut aligned);
        op.reference_batch(&a, &b, &mut reference);
        for i in 0..len {
            prop_assert_eq!(raw[i], op.eval_u(a[i], b[i]), "{} raw lane {}", op.name(), i);
            prop_assert_eq!(aligned[i], op.aligned_u(a[i], b[i]), "{} aligned lane {}", op.name(), i);
            prop_assert_eq!(reference[i], op.reference_u(a[i], b[i]), "{} ref lane {}", op.name(), i);
        }
    }

    /// centered_diff is a metric-compatible signed distance.
    #[test]
    fn centered_diff_properties(bits in 2u32..=32, x in any::<u64>(), y in any::<u64>()) {
        let m = mask_u(bits);
        let (x, y) = (x & m, y & m);
        let d = centered_diff(x, y, bits);
        // antisymmetric except at the antipodal point, where the distance
        // is exactly half the range and the sign is a convention
        if d.unsigned_abs() != 1u64 << (bits - 1) {
            prop_assert_eq!(d, -centered_diff(y, x, bits));
        }
        prop_assert!(d.unsigned_abs() <= 1u64 << (bits - 1));
        // adding the diff back recovers x (mod 2^bits)
        prop_assert_eq!(y.wrapping_add(d as u64) & m, x);
    }

    /// Batched error accumulation is the per-pair accumulation: one
    /// `record_batch` over the whole stream, `record_batch` over random
    /// split points (empty and ragged 64-sample blocks included) and one
    /// `record` per pair agree on every accessor bit for bit, and the
    /// per-position bit-flip counts match a naive per-bit count.
    #[test]
    fn record_batch_matches_per_pair_record(
        bits in 1u32..=63,
        len in 0usize..=200,
        seed in any::<u64>(),
        split_seed in any::<u64>(),
    ) {
        let mask = mask_u(bits);
        let (refs, approx) = batch_operands(seed, len, mask);
        // about one pair in four exact, so e = 0 occurs at every width
        let outs: Vec<u64> = refs
            .iter()
            .zip(&approx)
            .map(|(&r, &o)| if o % 4 == 0 { r } else { o })
            .collect();

        let mut whole = ErrorStats::new(bits, bits);
        whole.record_batch(&refs, &outs);

        let (cuts, _) = batch_operands(split_seed, 6, u64::MAX);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| (c % (len as u64 + 1)) as usize).collect();
        cuts.push(len);
        cuts.sort_unstable();
        let mut split = ErrorStats::new(bits, bits);
        let mut start = 0;
        for end in cuts {
            split.record_batch(&refs[start..end], &outs[start..end]);
            start = end;
        }

        let mut pairwise = ErrorStats::new(bits, bits);
        for (&r, &o) in refs.iter().zip(&outs) {
            pairwise.record(r, o);
        }

        let expected = stats_bits(&pairwise, bits);
        prop_assert_eq!(stats_bits(&whole, bits), expected.clone(), "whole batch, {} bits", bits);
        prop_assert_eq!(stats_bits(&split, bits), expected, "split batches, {} bits", bits);
        for k in 0..bits {
            let flips = refs.iter().zip(&outs).filter(|&(&r, &o)| (r ^ o) >> k & 1 == 1).count();
            let counted = (whole.positional_ber(k) * len as f64).round() as usize;
            prop_assert_eq!(counted, flips, "bit {} of {}", k, bits);
        }
    }

    /// MSSIM of an image with itself is 1; with an inverted copy it is low.
    #[test]
    fn mssim_extremes(seed in 0u64..50) {
        let img = apxperf::fixture::image::synthetic_photo(32, 32, seed);
        let same = apxperf::metrics::mssim(img.pixels(), img.pixels(), 32, 32);
        prop_assert!((same - 1.0).abs() < 1e-12);
        let inverted: Vec<u8> = img.pixels().iter().map(|&p| 255 - p).collect();
        let opposite = apxperf::metrics::mssim(img.pixels(), &inverted, 32, 32);
        prop_assert!(opposite < same);
    }
}

/// Slice lengths of the slice ≡ scalar property: empty, one lane, both
/// sides of one 64-lane chunk, and many chunks with a ragged tail.
const SLICE_LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 1000];

/// Sites the slice ≡ scalar property rotates its operations over.
const SLICE_SITES: [&str; 3] = ["w.alpha", "w.beta", "w.gamma"];

/// Signed operands of every magnitude: in and far outside the n-bit
/// operand range, the i64 extremes included.
fn signed_operands(seed: u64, len: usize) -> (Vec<i64>, Vec<i64>) {
    let (a, b) = batch_operands(seed, len, u64::MAX);
    let spread = |v: &u64| match v % 16 {
        0 => i64::MIN,
        1 => i64::MAX,
        k => (*v as i64) >> (k * 4 - 8),
    };
    (
        a.iter().map(spread).collect(),
        b.iter().map(spread).collect(),
    )
}

/// Drives `slice` through `add_n_at`/`sub_n_at`/`mul_n_at` and `scalar`
/// through `add_at`/`sub_at`/`mul_at` on the same operands and sites:
/// every lane and the resulting site ledgers (order included) must
/// agree.
fn assert_slices_match_scalar(
    label: &str,
    slice: &mut OperatorCtx,
    scalar: &mut OperatorCtx,
    seed: u64,
) {
    type SliceOp = fn(&mut OperatorCtx, &'static str, &[i64], &[i64], &mut [i64]);
    type ScalarOp = fn(&mut OperatorCtx, &'static str, i64, i64) -> i64;
    let ops: [(&str, SliceOp, ScalarOp); 3] = [
        ("add", OperatorCtx::add_n_at, OperatorCtx::add_at),
        ("sub", OperatorCtx::sub_n_at, OperatorCtx::sub_at),
        ("mul", OperatorCtx::mul_n_at, OperatorCtx::mul_at),
    ];
    for (k, &len) in SLICE_LENGTHS.iter().enumerate() {
        let (a, b) = signed_operands(seed.wrapping_add(k as u64), len);
        let mut out = vec![0i64; len];
        for (j, (name, slice_op, scalar_op)) in ops.iter().enumerate() {
            let site = SLICE_SITES[(j + k) % SLICE_SITES.len()];
            slice_op(slice, site, &a, &b, &mut out);
            for i in 0..len {
                let want = scalar_op(scalar, site, a[i], b[i]);
                prop_assert_eq!(
                    out[i],
                    want,
                    "{} {} len {} lane {}: {} {}",
                    label,
                    name,
                    len,
                    i,
                    a[i],
                    b[i]
                );
            }
        }
    }
    prop_assert_eq!(
        slice.site_counts(),
        scalar.site_counts(),
        "{} ledger",
        label
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The slice forms of `OperatorCtx` return, lane for lane, what the
    /// scalar calls return and leave the same site ledger, for every
    /// config of the `all`, `sized` and `widths` families and for a
    /// mixed `SiteMap` — the contract that lets workloads slice their
    /// loops without moving a result or an energy figure.
    #[test]
    fn slice_forms_match_scalar_calls(seed in any::<u64>()) {
        for family in ["all", "sized", "widths"] {
            let family = find_family(family).expect("registered family");
            for config in (family.configs)() {
                let label = format!("{config:?}");
                let mut slice = OperatorCtx::for_config(&config);
                let mut scalar = OperatorCtx::for_config(&config);
                assert_slices_match_scalar(&label, &mut slice, &mut scalar, seed);
            }
        }
        let mut map = SiteMap::new();
        map.set(SLICE_SITES[0], OperatorConfig::Aca { n: 16, p: 4 });
        map.set(SLICE_SITES[1], OperatorConfig::Aam { n: 16 });
        map.set(SLICE_SITES[2], OperatorConfig::EtaIi { n: 12, x: 3 });
        assert_slices_match_scalar("mixed map", &mut OperatorCtx::new(&map), &mut OperatorCtx::new(&map), seed);
        // unmapped sites stay exact and still slice
        assert_slices_match_scalar("exact", &mut OperatorCtx::exact(), &mut OperatorCtx::exact(), seed);
    }
}

/// A 0-length slice records nothing, exactly like a loop of zero scalar
/// calls: the site does not enter the ledger, so it cannot take an
/// earlier place in the first-recorded order than the scalar loop gives
/// it.
#[test]
fn empty_slices_record_no_site() {
    let mut ctx = OperatorCtx::for_config(&OperatorConfig::Aam { n: 16 });
    ctx.add_n_at("w.alpha", &[], &[], &mut []);
    ctx.sub_n_at("w.alpha", &[], &[], &mut []);
    ctx.mul_n_at("w.alpha", &[], &[], &mut []);
    assert!(ctx.site_counts().is_empty());
    ctx.mul_n_at("w.beta", &[3], &[4], &mut [0]);
    ctx.add_n_at("w.alpha", &[], &[], &mut []);
    let sites = ctx.site_counts();
    let order: Vec<&str> = sites.iter().map(|(site, _)| site).collect();
    assert_eq!(order, ["w.beta"]);
}

/// Budget-shaped text: the characters of a budget's number, a few
/// multi-byte ones, and any scalar value.
fn budget_text(seed: u64, len: usize) -> String {
    const ALPHABET: [char; 20] = [
        '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', '.', 'e', '-', ' ', 'd', 'B', '%', 'é',
        '€', '😀',
    ];
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let draw = (state >> 33) as u32;
            match draw % 8 {
                0 => char::from_u32(draw >> 3).unwrap_or('\u{fffd}'),
                _ => ALPHABET[(draw >> 3) as usize % ALPHABET.len()],
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_096))]

    /// A quality budget arrives from the command line: any text either
    /// parses or is rejected with a message, never a panic, and a parsed
    /// budget prints back to itself.
    #[test]
    fn quality_budget_parse_never_panics(
        seed in any::<u64>(),
        len in 0usize..8,
        op in 0usize..3,
        unit in 0usize..7,
    ) {
        const OPS: [&str; 3] = [">=", "<=", "="];
        const UNITS: [&str; 7] = ["dB", "Db", "DB", "db", "%", "", "€"];
        let text = format!("{}{}{}", OPS[op], budget_text(seed, len), UNITS[unit]);
        if let Ok(budget) = text.parse::<QualityBudget>() {
            prop_assert_eq!(budget.to_string().parse::<QualityBudget>(), Ok(budget), "{:?}", text);
        }
    }
}
