//! Property tests over the `Workload` registry: every registered
//! workload must be a pure function of its seed (bit-identical scores
//! for any engine thread count), and exact arithmetic must never lose
//! to an approximate context.

use apxperf::apps::workload::{WorkloadParams, WORKLOADS};
use apxperf::cells::Library;
use apxperf::core::appenergy::sweep_workload;
use apxperf::core::CharacterizerSettings;
use apxperf::engine::Engine;
use apxperf::metrics::QualityScore;
use apxperf::operators::{FaType, OperatorConfig, OperatorCtx};
use proptest::prelude::*;

/// Small parameters so every workload runs in milliseconds: 16-pixel
/// images, one K-means set of 20 points per cluster.
fn tiny_params() -> WorkloadParams {
    WorkloadParams {
        size: 16,
        sets: 1,
        points: 20,
    }
}

/// Reduced characterization preset for the sweep-level properties.
fn tiny_settings(seed: u64) -> CharacterizerSettings {
    CharacterizerSettings {
        error_samples: 500,
        verify_samples: 50,
        exhaustive_up_to_bits: 6,
        power_vectors: 20,
        seed,
    }
}

/// A representative operator mix: gentle and harsh, adders and
/// multipliers, spanning every context slot the workloads exercise.
const CONFIGS: &[OperatorConfig] = &[
    OperatorConfig::AddTrunc { n: 16, q: 12 },
    OperatorConfig::AddTrunc { n: 16, q: 8 },
    OperatorConfig::Aca { n: 16, p: 8 },
    OperatorConfig::EtaIv { n: 16, x: 4 },
    OperatorConfig::RcaApx {
        n: 16,
        m: 6,
        fa_type: FaType::Three,
    },
    OperatorConfig::MulTrunc { n: 16, q: 16 },
    OperatorConfig::Aam { n: 16 },
    OperatorConfig::AbmUncorrected { n: 16 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole determinism contract: a (workload × config) sweep
    /// cell carries the same bit-exact `QualityScore` (and model) no
    /// matter how many engine workers computed it.
    #[test]
    fn sweep_cells_are_bit_identical_across_thread_counts(
        workload_idx in 0usize..WORKLOADS.len(),
        config_idx in 0usize..CONFIGS.len(),
        seed in 0u64..4,
    ) {
        let workload = (WORKLOADS[workload_idx].build)(&tiny_params()).expect("tiny params are valid");
        let lib = Library::fdsoi28();
        let configs = [CONFIGS[config_idx]];
        let serial = sweep_workload(
            workload.as_ref(), seed, &lib, tiny_settings(9), &configs, &Engine::new(1));
        let threaded = sweep_workload(
            workload.as_ref(), seed, &lib, tiny_settings(9), &configs, &Engine::new(3));
        prop_assert_eq!(&serial, &threaded, "{}", workload.fingerprint());
        prop_assert_eq!(
            serial[0].run.score.value().to_bits(),
            threaded[0].run.score.value().to_bits(),
            "score must be bit-identical, not just approximately equal"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exact arithmetic never loses to an approximate context. For the
    /// exact-reference metrics (PSNR/SNR/MSSIM) this is structural —
    /// the exact run scores ∞ dB / 1.0. K-means is scored against the
    /// ground truth instead, where a boundary point can flip either way
    /// under approximation, so exact must stay within one-point luck
    /// (2 % of the 200-point tiny fixture) of any approximate run.
    #[test]
    fn exact_context_scores_best_or_equal(
        workload_idx in 0usize..WORKLOADS.len(),
        config_idx in 0usize..CONFIGS.len(),
        seed in 0u64..8,
    ) {
        let workload = (WORKLOADS[workload_idx].build)(&tiny_params()).expect("tiny params are valid");
        let mut exact_ctx = OperatorCtx::exact();
        let exact = workload.run(seed, &mut exact_ctx).score;
        let mut approx_ctx = OperatorCtx::for_config(&CONFIGS[config_idx]);
        let approx = workload.run(seed, &mut approx_ctx).score;
        match (exact, approx) {
            (QualityScore::SuccessRate(e), QualityScore::SuccessRate(a)) => {
                prop_assert!(
                    e + 0.02 >= a,
                    "{}: exact {e} far below approx {a}",
                    workload.fingerprint()
                );
            }
            _ => prop_assert!(
                exact >= approx,
                "{}: exact {:?} lost to approx {:?}",
                workload.fingerprint(),
                exact,
                approx
            ),
        }
    }

    /// Same seed, same workload, fresh contexts: bit-identical runs —
    /// the purity guarantee the content-addressed app-sweep cache rests
    /// on.
    #[test]
    fn runs_are_pure_functions_of_the_seed(
        workload_idx in 0usize..WORKLOADS.len(),
        config_idx in 0usize..CONFIGS.len(),
        seed in 0u64..8,
    ) {
        let workload = (WORKLOADS[workload_idx].build)(&tiny_params()).expect("tiny params are valid");
        let mut a = OperatorCtx::for_config(&CONFIGS[config_idx]);
        let mut b = OperatorCtx::for_config(&CONFIGS[config_idx]);
        let run_a = workload.run(seed, &mut a);
        let run_b = workload.run(seed, &mut b);
        prop_assert_eq!(&run_a, &run_b, "{}", workload.fingerprint());
        prop_assert_eq!(
            run_a.score.value().to_bits(),
            run_b.score.value().to_bits()
        );
    }
}
