//! The §IV parameter sweeps ("all approximate operators … tested with all
//! possible combinations of parameters") and the parallel sweep driver.

use crate::characterizer::{Characterizer, CharacterizerSettings};
use crate::report::OperatorReport;
use apx_cache::Cache;
use apx_cells::Library;
use apx_engine::Engine;
use apx_operators::{FaType, OperatorConfig, QuantMode};

/// Splits an engine's workers across `jobs` parallel tasks: when there
/// are at least as many jobs as workers, each task runs serially inside
/// (config-level parallelism saturates the pool); with fewer jobs the
/// leftover workers are pushed down into each task's sharded loops.
/// Either way the reports are bit-identical — this only balances load.
pub(crate) fn inner_engine(engine: &Engine, jobs: usize) -> Engine {
    let threads = engine.threads();
    if jobs == 0 || jobs >= threads {
        Engine::single_threaded()
    } else {
        Engine::new(threads.div_ceil(jobs))
    }
}

/// Characterizes every configuration in parallel across operator configs
/// (the §IV sweep driver): each config gets its own [`Characterizer`]
/// with the same settings and the shared report cache, and the reports
/// come back in input order. Pass `&Cache::default()` for an uncached
/// sweep.
///
/// The per-config work is seeded only by `settings.seed` and sharded by
/// fixed plans, so the output is bit-identical to a serial
/// `for config in configs { chz.characterize(config) }` loop for any
/// engine, with or without the cache — see [`crate::cache`].
#[must_use]
pub fn characterize_all_cached(
    lib: &Library,
    settings: CharacterizerSettings,
    configs: &[OperatorConfig],
    engine: &Engine,
    cache: &Cache,
) -> Vec<OperatorReport> {
    let inner = inner_engine(engine, configs.len());
    engine.map_indexed(configs.len(), |i| {
        Characterizer::new(lib)
            .with_settings(settings)
            .with_engine(inner.clone())
            .with_cache(cache.clone())
            .characterize(&configs[i])
    })
}

/// One named operator family — the registry mirror of the workload
/// registry in `apx_apps`, so `apxperf sweep --family`, `apxperf app`
/// and `apxperf list` are all driven by the same table.
pub struct SweepFamily {
    /// Family name as typed on the command line.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Produces the family's configurations, in sweep order.
    pub configs: fn() -> Vec<OperatorConfig>,
}

/// Every registered operator family, in `apxperf list` order.
pub const FAMILIES: &[SweepFamily] = &[
    SweepFamily {
        name: "adders",
        summary: "all 16-bit fixed-point and approximate adders of Figs. 3-6",
        configs: all_adders_16bit,
    },
    SweepFamily {
        name: "multipliers",
        summary: "the 16-bit fixed-width multiplier set of Table I",
        configs: multipliers_16bit,
    },
    SweepFamily {
        name: "widths",
        summary: "exact adders from 2 to 32 bits (scaling ablations)",
        configs: exact_adder_width_sweep,
    },
    SweepFamily {
        name: "points",
        summary: "the named adder operating points of Tables III/V",
        configs: table_adder_points,
    },
    SweepFamily {
        name: "sized",
        summary: "the 16-bit Sized data-sizing baseline (ADDst/ADDsr + MULst/MULsr)",
        configs: sized_baseline_16bit,
    },
    SweepFamily {
        name: "all",
        summary: "adders and multipliers combined",
        configs: || {
            let mut all = all_adders_16bit();
            all.extend(multipliers_16bit());
            all
        },
    },
];

/// Looks an operator family up by registry name.
#[must_use]
pub fn find_family(name: &str) -> Option<&'static SweepFamily> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// The 16-bit fixed-point adder family of Figs. 3/4: truncated and
/// rounded outputs from 15 down to 2 bits.
#[must_use]
pub fn fxp_adders_16bit() -> Vec<OperatorConfig> {
    let mut configs = vec![OperatorConfig::AddExact { n: 16 }];
    for q in 2..=15 {
        configs.push(OperatorConfig::AddTrunc { n: 16, q });
        configs.push(OperatorConfig::AddRound { n: 16, q });
    }
    configs
}

/// The 16-bit approximate adder family of Figs. 3/4: every parameter the
/// operators accept.
#[must_use]
pub fn approximate_adders_16bit() -> Vec<OperatorConfig> {
    let mut configs = Vec::new();
    for p in 1..=15 {
        configs.push(OperatorConfig::Aca { n: 16, p });
    }
    for x in [1, 2, 4, 8] {
        configs.push(OperatorConfig::EtaIv { n: 16, x });
        configs.push(OperatorConfig::EtaIi { n: 16, x });
    }
    for fa_type in [FaType::One, FaType::Two, FaType::Three] {
        for m in 1..=15 {
            configs.push(OperatorConfig::RcaApx { n: 16, m, fa_type });
        }
    }
    configs
}

/// Everything plotted in Figs. 3/4.
#[must_use]
pub fn all_adders_16bit() -> Vec<OperatorConfig> {
    let mut configs = fxp_adders_16bit();
    configs.extend(approximate_adders_16bit());
    configs
}

/// The Table I multiplier set: fixed-width truncated reference plus the
/// approximate multipliers (the sign-correct ABM and the paper-shape
/// uncorrected instance).
#[must_use]
pub fn multipliers_16bit() -> Vec<OperatorConfig> {
    vec![
        OperatorConfig::MulTrunc { n: 16, q: 16 },
        OperatorConfig::Aam { n: 16 },
        OperatorConfig::Abm { n: 16 },
        OperatorConfig::AbmUncorrected { n: 16 },
    ]
}

/// The 16-bit sized-exact **adder** baseline: the exact adder plus both
/// quantization modes at every useful effective width. These are the
/// data-sizing points the Pareto overlay holds approximate adders
/// against.
#[must_use]
pub fn sized_adders_16bit() -> Vec<OperatorConfig> {
    let mut configs = vec![OperatorConfig::AddExact { n: 16 }];
    for w in 4..=15 {
        configs.push(OperatorConfig::AddSized {
            n: 16,
            w,
            mode: QuantMode::Trunc,
        });
        configs.push(OperatorConfig::AddSized {
            n: 16,
            w,
            mode: QuantMode::Round,
        });
    }
    configs
}

/// The 16-bit sized-exact **multiplier** baseline: the exact multiplier
/// plus both quantization modes at every useful effective width. Unlike
/// `MULt`, every point here shrinks the whole partial-product array.
#[must_use]
pub fn sized_multipliers_16bit() -> Vec<OperatorConfig> {
    let mut configs = vec![OperatorConfig::MulExact { n: 16 }];
    for w in 4..=15 {
        configs.push(OperatorConfig::MulSized {
            n: 16,
            w,
            mode: QuantMode::Trunc,
        });
        configs.push(OperatorConfig::MulSized {
            n: 16,
            w,
            mode: QuantMode::Round,
        });
    }
    configs
}

/// The full 16-bit Sized baseline family (adders and multipliers).
#[must_use]
pub fn sized_baseline_16bit() -> Vec<OperatorConfig> {
    let mut configs = sized_adders_16bit();
    configs.extend(sized_multipliers_16bit());
    configs
}

/// The width sweep of §IV ("number of bits varying from 2 to 32") for
/// exact adders — used by scaling ablations.
#[must_use]
pub fn exact_adder_width_sweep() -> Vec<OperatorConfig> {
    (2..=32).map(|n| OperatorConfig::AddExact { n }).collect()
}

/// The named adder operating points of Tables III and V.
#[must_use]
pub fn table_adder_points() -> Vec<OperatorConfig> {
    vec![
        OperatorConfig::AddTrunc { n: 16, q: 10 },
        OperatorConfig::AddTrunc { n: 16, q: 11 },
        OperatorConfig::AddTrunc { n: 16, q: 8 },
        OperatorConfig::Aca { n: 16, p: 12 },
        OperatorConfig::Aca { n: 16, p: 8 },
        OperatorConfig::EtaIv { n: 16, x: 4 },
        OperatorConfig::EtaIv { n: 16, x: 2 },
        OperatorConfig::RcaApx {
            n: 16,
            m: 6,
            fa_type: FaType::Three,
        },
        OperatorConfig::RcaApx {
            n: 16,
            m: 10,
            fa_type: FaType::One,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_sweep_covers_both_families() {
        let all = all_adders_16bit();
        assert!(all.len() > 70, "got {}", all.len());
        let fxp = all.iter().filter(|c| c.is_fixed_point()).count();
        let approx = all.len() - fxp;
        assert!(fxp >= 29);
        assert!(approx >= 60);
    }

    #[test]
    fn every_sweep_config_builds() {
        for config in all_adders_16bit()
            .into_iter()
            .chain(multipliers_16bit())
            .chain(exact_adder_width_sweep())
            .chain(table_adder_points())
            .chain(sized_baseline_16bit())
        {
            let op = config.build();
            assert!(!op.name().is_empty());
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_characterization() {
        let lib = Library::fdsoi28();
        let settings = CharacterizerSettings {
            error_samples: 3_000,
            verify_samples: 200,
            exhaustive_up_to_bits: 8,
            power_vectors: 60,
            seed: 11,
        };
        let configs = [
            OperatorConfig::AddTrunc { n: 16, q: 10 },
            OperatorConfig::Aca { n: 16, p: 4 },
            OperatorConfig::EtaIi { n: 16, x: 4 },
        ];
        let mut serial = Characterizer::new(&lib)
            .with_settings(settings)
            .with_engine(Engine::single_threaded());
        let expected: Vec<_> = configs.iter().map(|c| serial.characterize(c)).collect();
        for threads in [1, 4] {
            let reports = characterize_all_cached(
                &lib,
                settings,
                &configs,
                &Engine::new(threads),
                &Cache::default(),
            );
            assert_eq!(reports, expected, "threads={threads}");
        }
    }

    #[test]
    fn family_registry_is_unique_findable_and_buildable() {
        for family in FAMILIES {
            assert!(find_family(family.name).is_some(), "{}", family.name);
            assert!(!family.summary.is_empty(), "{}", family.name);
            for config in (family.configs)() {
                assert!(config.validate().is_ok(), "{}: {config:?}", family.name);
            }
        }
        let mut names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FAMILIES.len(), "duplicate family name");
        assert!(find_family("frobnicators").is_none());
    }

    #[test]
    fn sweeps_have_no_duplicates() {
        let mut all = all_adders_16bit();
        let before = all.len();
        all.sort_by_key(|c| format!("{c:?}"));
        all.dedup();
        assert_eq!(all.len(), before);
    }
}
