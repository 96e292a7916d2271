//! Property-based tests of the Pareto core (`apx_core::pareto`): the
//! computed front is actually non-dominated, every dropped candidate is
//! dominated by a front member, and verdicts are bit-identical across
//! thread counts.

use apxperf::core::pareto::{analyze, dominates, ParetoSample};
use apxperf::engine::Engine;
use proptest::prelude::*;

/// Derives a candidate set from a seed, on a deliberately coarse grid
/// (small integer-derived coordinates) so duplicates, ties on one axis
/// and dense dominance chains all occur often — the regimes where
/// strict-dominance semantics matter.
fn samples_from(seed: u64, len: usize) -> Vec<ParetoSample> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| ParetoSample {
            quality: ((next() % 50) as f64) / 4.0,
            energy: ((next() % 50) as f64) / 4.0,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Soundness: no candidate on the front is strictly dominated by any
    /// other candidate, and every front verdict carries no dominator.
    #[test]
    fn front_members_are_non_dominated(seed in any::<u64>(), len in 1usize..60) {
        let samples = samples_from(seed, len);
        let preferred = vec![false; samples.len()];
        let verdicts = analyze(&samples, &preferred, &Engine::single_threaded());
        for (i, v) in verdicts.iter().enumerate() {
            if v.on_front {
                prop_assert_eq!(v.dominated_by, None);
                for (j, &other) in samples.iter().enumerate() {
                    prop_assert!(
                        j == i || !dominates(other, samples[i]),
                        "front member {} is dominated by {}", i, j
                    );
                }
            }
        }
    }

    /// Completeness: every dropped candidate names a dominator that (a)
    /// actually dominates it and (b) is itself on the front — so the
    /// front alone explains every exclusion.
    #[test]
    fn dropped_candidates_are_dominated_by_front_members(seed in any::<u64>(), len in 1usize..60) {
        let samples = samples_from(seed, len);
        let preferred: Vec<bool> = (0..samples.len()).map(|i| i % 2 == 0).collect();
        let verdicts = analyze(&samples, &preferred, &Engine::single_threaded());
        for (i, v) in verdicts.iter().enumerate() {
            if !v.on_front {
                let j = v.dominated_by.expect("dropped candidates name a dominator");
                prop_assert!(dominates(samples[j], samples[i]), "{} does not dominate {}", j, i);
                prop_assert!(verdicts[j].on_front, "dominator {} of {} is not on the front", j, i);
                // and the preference rule: a preferred dominator is named
                // whenever any preferred front member dominates
                let preferred_dominates = samples.iter().enumerate().any(|(k, &s)| {
                    preferred[k] && verdicts[k].on_front && dominates(s, samples[i])
                });
                if preferred_dominates {
                    prop_assert!(preferred[j], "{}: non-preferred dominator {} chosen", i, j);
                }
            }
        }
    }

    /// Determinism: front membership and dominator choices are
    /// bit-identical for any engine thread count.
    #[test]
    fn verdicts_are_identical_across_thread_counts(seed in any::<u64>(), len in 1usize..60) {
        let samples = samples_from(seed, len);
        let preferred: Vec<bool> = (0..samples.len()).map(|i| i % 3 == 0).collect();
        let serial = analyze(&samples, &preferred, &Engine::single_threaded());
        for threads in [2usize, 4] {
            let parallel = analyze(&samples, &preferred, &Engine::new(threads));
            prop_assert_eq!(&parallel, &serial, "threads={}", threads);
        }
    }
}
