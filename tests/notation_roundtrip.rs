//! `FromStr` ∘ `Display` must be the identity on every operator
//! configuration the sweeps (and their partner-sizing rules) emit —
//! paper notation is the interchange format of `apxperf report`, the
//! cache keys and the CSV exports, so notation drift would silently
//! detach printed names from parseable ones.

use apxperf::core::appenergy::{partner_adder, partner_multiplier};
use apxperf::core::sweeps;
use apxperf::operators::{OpClass, OperatorConfig};
use proptest::prelude::*;

/// Every configuration any registered sweep emits, plus the partner
/// operators the application energy model sizes alongside them.
fn all_emitted_configs() -> Vec<OperatorConfig> {
    let mut configs: Vec<OperatorConfig> = Vec::new();
    for family in sweeps::FAMILIES {
        configs.extend((family.configs)());
    }
    // the partner-sizing rules emit configs of their own (eq. (1))
    for config in configs.clone() {
        match config.op_class() {
            OpClass::Adder => configs.push(partner_multiplier(&config)),
            OpClass::Multiplier => configs.push(partner_adder(&config)),
        }
    }
    configs
}

#[test]
fn paper_notation_round_trips_for_every_swept_config() {
    let configs = all_emitted_configs();
    assert!(configs.len() > 150, "sweep inventory shrank unexpectedly");
    for config in configs {
        let printed = config.to_string();
        let parsed: OperatorConfig = printed
            .parse()
            .unwrap_or_else(|e| panic!("`{printed}` printed but does not parse: {e}"));
        assert_eq!(parsed, config, "round-trip drift on `{printed}`");
        // and printing the parse reproduces the exact notation
        assert_eq!(parsed.to_string(), printed);
    }
}

#[test]
fn notation_is_case_insensitive_but_unambiguous() {
    for config in all_emitted_configs() {
        let printed = config.to_string();
        let lowered = printed.to_lowercase();
        assert_eq!(
            lowered.parse::<OperatorConfig>(),
            Ok(config),
            "lowercased `{lowered}` must parse to the same config"
        );
    }
}

/// Every family head `FromStr` knows, in lower case.
const HEADS: [&str; 18] = [
    "add", "addt", "addr", "aca", "etaiv", "etaii", "rcaapx", "mul", "mult", "mulr", "mulbooth",
    "addst", "addsr", "mulst", "mulsr", "aam", "abm", "abmu",
];

/// The one property of the notation boundary: parsing never panics, and
/// whatever parses builds and prints back to itself.
fn parse_is_total_and_sound(text: &str) {
    if let Ok(config) = text.parse::<OperatorConfig>() {
        let printed = config.to_string(); // `Display` builds the operator
        assert_eq!(printed.parse::<OperatorConfig>(), Ok(config), "`{text}`");
    }
}

/// A parameter: any `u32`, an extreme, or a small width most bounds admit.
fn parameter() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        proptest::sample::select(vec![0, 1, 2, 1 << 31, u32::MAX]),
        0u32..=48,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_096))]

    #[test]
    fn notation_parse_never_panics_and_every_parse_round_trips(
        head in 0..HEADS.len(),
        case in any::<u64>(),
        count in 0usize..=4,
        params in (parameter(), parameter(), parameter(), parameter()),
    ) {
        let head: String = HEADS[head]
            .chars()
            .enumerate()
            .map(|(i, c)| if case >> i & 1 == 1 { c.to_ascii_uppercase() } else { c })
            .collect();
        let params = [params.0, params.1, params.2, params.3];
        let list: Vec<String> = params[..count].iter().map(u32::to_string).collect();
        parse_is_total_and_sound(&format!("{head}({})", list.join(",")));
    }

    #[test]
    fn arbitrary_text_never_panics_the_parser(seed in any::<u64>(), len in 0usize..24) {
        // characters from the notation's alphabet, mixed with any scalar
        const ALPHABET: &[u8] = b"(),0123456789 ADDtrsMULBbothACETVIRpxm";
        let mut state = seed;
        let text: String = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let draw = (state >> 33) as u32;
                match draw % 4 {
                    0 => char::from_u32(draw >> 2).unwrap_or('\u{fffd}'),
                    _ => ALPHABET[(draw >> 2) as usize % ALPHABET.len()] as char,
                }
            })
            .collect();
        parse_is_total_and_sound(&text);
    }
}
