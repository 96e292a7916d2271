//! The per-operator characterization pipeline.

use crate::report::{ErrorSummary, OperatorReport};
use apx_cache::Cache;
use apx_cells::Library;
use apx_engine::{plan_shards, shard_seed, Engine};
use apx_metrics::ErrorStats;
use apx_netlist::power::PowerSettings;
use apx_netlist::{verify, HwAnalyzer, HwReport, Netlist};
use apx_operators::{mask_u, ApxOperator, OperatorConfig};
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Stream id mixed into [`shard_seed`] for the error-sampling draws.
const STREAM_ERROR: u64 = 0xE55_0E57;

/// Operand pairs per in-shard `eval_batch` call. A shard draws its
/// operands in sequence however they are grouped, so the width moves
/// only the wall-clock, never a reported bit.
const EVAL_BATCH: usize = 4096;

/// Tunables of the characterization pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CharacterizerSettings {
    /// Random samples for the error characterization (the paper uses >10⁷
    /// on a cluster; 10⁵–10⁶ converges for every scalar metric here and
    /// repro binaries expose a knob).
    pub error_samples: usize,
    /// Random vectors for equivalence checking when the operand space is
    /// too wide for an exhaustive sweep.
    pub verify_samples: usize,
    /// Input width (in total operand bits) up to which verification is
    /// exhaustive.
    pub exhaustive_up_to_bits: u32,
    /// Gate-level vectors for power estimation.
    pub power_vectors: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for CharacterizerSettings {
    fn default() -> Self {
        CharacterizerSettings {
            error_samples: 100_000,
            verify_samples: 4_000,
            exhaustive_up_to_bits: 20,
            power_vectors: 1_500,
            seed: 0xDA7E_2017,
        }
    }
}

/// Runs the full APXPERF pipeline for operator configurations against one
/// technology library.
///
/// All three loops — error sampling, equivalence verification and power
/// vectors — are sharded into fixed-size chunks with per-chunk RNG
/// streams derived from the master seed, executed on the attached
/// [`Engine`] and merged in shard order. Reports are therefore
/// **bit-identical for any thread count**; `APXPERF_THREADS` (or
/// [`Characterizer::with_engine`]) only changes the wall-clock.
///
/// See the crate-level docs for the pipeline diagram and an example.
#[derive(Debug, Clone)]
pub struct Characterizer<'a> {
    lib: &'a Library,
    settings: CharacterizerSettings,
    engine: Engine,
    cache: Cache,
}

impl<'a> Characterizer<'a> {
    /// Creates a characterizer with default settings on the environment's
    /// engine (`APXPERF_THREADS`, defaulting to the machine parallelism).
    /// Caching starts disabled; attach a store with
    /// [`Characterizer::with_cache`].
    #[must_use]
    pub fn new(lib: &'a Library) -> Self {
        Characterizer {
            lib,
            settings: CharacterizerSettings::default(),
            engine: Engine::from_env(),
            cache: Cache::default(),
        }
    }

    /// Replaces the settings.
    #[must_use]
    pub fn with_settings(mut self, settings: CharacterizerSettings) -> Self {
        self.settings = settings;
        self
    }

    /// Replaces the execution engine (thread count). Does not affect any
    /// reported number — only how fast it is produced.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a content-addressed report cache (see [`crate::cache`]):
    /// [`Characterizer::characterize`] then serves an already-keyed
    /// report from disk instead of re-running the sweep, and stores every
    /// freshly computed one. Determinism makes this transparent — a hit
    /// is bit-identical to the recompute it replaces.
    #[must_use]
    pub fn with_cache(mut self, cache: Cache) -> Self {
        self.cache = cache;
        self
    }

    /// The active settings.
    #[must_use]
    pub fn settings(&self) -> CharacterizerSettings {
        self.settings
    }

    /// The attached engine.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Characterizes one operator: cross-verification, functional error
    /// metrics, hardware metrics, fused into an [`OperatorReport`].
    ///
    /// With a cache attached ([`Characterizer::with_cache`]), the report
    /// is first looked up under [`crate::cache::report_cache_key`]; a hit
    /// skips all three sweeps and is bit-identical to the recompute it
    /// replaces. A fresh result is stored before being returned.
    pub fn characterize(&mut self, config: &OperatorConfig) -> OperatorReport {
        self.cache
            .read_through(
                || crate::cache::report_cache_key(self.lib, &self.settings, config),
                |report: &OperatorReport| report.config == *config,
                || self.characterize_uncached(config, config.build().as_ref()),
            )
            .0
    }

    /// [`Characterizer::characterize`] without the cache lookup: always
    /// runs the full pipeline on `op`, the operator `config` builds.
    fn characterize_uncached(
        &self,
        config: &OperatorConfig,
        op: &dyn ApxOperator,
    ) -> OperatorReport {
        let nl = op.netlist();
        let verified = self.verify(op, &nl);
        let error = self.error_stats(op);
        let hw = self.hardware(&nl);
        OperatorReport {
            config: *config,
            name: op.name(),
            verified,
            error: ErrorSummary::from_stats(&error, op.ref_bits()),
            hw,
        }
    }

    /// The verification box: netlist `nl` of `op` vs its functional model.
    fn verify(&self, op: &dyn ApxOperator, nl: &Netlist) -> bool {
        let total_bits = 2 * op.input_bits();
        let result = if total_bits <= self.settings.exhaustive_up_to_bits {
            verify::verify_exhaustive2_batch_with(nl, &self.engine, |a, b, out| {
                op.eval_batch(a, b, out);
            })
        } else {
            verify::verify_random2_batch_with(
                nl,
                self.settings.verify_samples,
                self.settings.seed,
                &self.engine,
                |a, b, out| op.eval_batch(a, b, out),
            )
        };
        result.is_ok()
    }

    /// One shard of the error characterization: its own RNG stream, its
    /// own accumulator, batched through [`ApxOperator::reference_batch`] /
    /// [`ApxOperator::aligned_batch`] into [`ErrorStats::record_batch`].
    fn error_stats_shard(&self, op: &dyn ApxOperator, index: usize, samples: usize) -> ErrorStats {
        let mut stats = ErrorStats::new(op.ref_bits(), op.fullscale_bits());
        let mask = mask_u(op.input_bits());
        let mut rng = rand::rngs::StdRng::seed_from_u64(shard_seed(
            self.settings.seed ^ 0x5EED,
            STREAM_ERROR,
            index as u64,
        ));
        let mut av = vec![0u64; EVAL_BATCH];
        let mut bv = vec![0u64; EVAL_BATCH];
        let mut refs = vec![0u64; EVAL_BATCH];
        let mut outs = vec![0u64; EVAL_BATCH];
        let mut remaining = samples;
        while remaining > 0 {
            let len = remaining.min(EVAL_BATCH);
            for (a, b) in av[..len].iter_mut().zip(&mut bv[..len]) {
                *a = rng.random::<u64>() & mask;
                *b = rng.random::<u64>() & mask;
            }
            op.reference_batch(&av[..len], &bv[..len], &mut refs[..len]);
            op.aligned_batch(&av[..len], &bv[..len], &mut outs[..len]);
            stats.record_batch(&refs[..len], &outs[..len]);
            remaining -= len;
        }
        stats
    }

    /// Functional error characterization over uniform random operands.
    ///
    /// Exposed publicly (in addition to [`Characterizer::characterize`])
    /// so callers can access non-scalar metrics (PDF, PSD, AP curves).
    /// Sharded: per-shard accumulators are merged in shard order (the
    /// paper's "Data Fusion"), so the result never depends on the thread
    /// count.
    pub fn error_stats(&self, op: &dyn ApxOperator) -> ErrorStats {
        let shards = plan_shards(self.settings.error_samples);
        let partials = self.engine.map_indexed(shards.len(), |i| {
            self.error_stats_shard(op, i, shards[i].len)
        });
        let mut stats = ErrorStats::new(op.ref_bits(), op.fullscale_bits());
        for partial in &partials {
            stats.merge(partial);
        }
        stats
    }

    /// Hardware characterization of an operator netlist.
    fn hardware(&self, nl: &Netlist) -> HwReport {
        HwAnalyzer::new(self.lib)
            .with_settings(PowerSettings {
                vectors: self.settings.power_vectors,
                seed: self.settings.seed ^ 0xCAFE,
            })
            .with_engine(self.engine.clone())
            .analyze(nl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_operators::{FaType, OpClass};

    fn quick(lib: &Library) -> Characterizer<'_> {
        Characterizer::new(lib).with_settings(CharacterizerSettings {
            error_samples: 20_000,
            verify_samples: 500,
            exhaustive_up_to_bits: 16,
            power_vectors: 200,
            seed: 3,
        })
    }

    #[test]
    fn exact_adder_characterizes_clean() {
        let lib = Library::fdsoi28();
        let report = quick(&lib).characterize(&OperatorConfig::AddExact { n: 8 });
        assert!(report.verified);
        assert_eq!(report.error.error_rate, 0.0);
        assert_eq!(report.error.mse_db, f64::NEG_INFINITY);
        assert!(report.hw.area_um2 > 0.0);
    }

    #[test]
    fn truncated_adder_mse_matches_theory() {
        // ADDt(16,12): each operand loses 4 bits; e = (a mod 16)+(b mod 16),
        // E[e²] = 2·Var(U(0..15)) + (2·7.5)² ≈ 267.5
        let lib = Library::fdsoi28();
        let report = quick(&lib).characterize(&OperatorConfig::AddTrunc { n: 16, q: 12 });
        assert!(report.verified);
        assert!(
            (report.error.mse - 267.5).abs() < 15.0,
            "measured {}",
            report.error.mse
        );
    }

    #[test]
    fn reports_are_deterministic_given_settings() {
        let lib = Library::fdsoi28();
        let a = quick(&lib).characterize(&OperatorConfig::Aca { n: 8, p: 3 });
        let b = quick(&lib).characterize(&OperatorConfig::Aca { n: 8, p: 3 });
        assert_eq!(a, b);
    }

    #[test]
    fn report_serializes_to_json_and_csv() {
        let lib = Library::fdsoi28();
        let report = quick(&lib).characterize(&OperatorConfig::RcaApx {
            n: 8,
            m: 4,
            fa_type: FaType::Two,
        });
        let json = report.to_json().unwrap();
        assert!(json.contains("RCAApx(8,4,2)"));
        let row = report.to_csv_row();
        // the name is quoted (it contains commas); 10 data commas follow it
        let after_name = row.rsplit('"').next().unwrap();
        assert_eq!(after_name.matches(',').count(), 10);
        assert!(row.starts_with("\"RCAApx(8,4,2)\""));
    }

    #[test]
    fn fixed_point_dominates_on_mse_at_similar_power() {
        // the §IV headline at small scale: a truncated adder reaches far
        // better MSE than a wire-type RCAApx of comparable cost
        let lib = Library::fdsoi28();
        let mut chz = quick(&lib);
        let trunc = chz.characterize(&OperatorConfig::AddTrunc { n: 16, q: 12 });
        let rca = chz.characterize(&OperatorConfig::RcaApx {
            n: 16,
            m: 8,
            fa_type: FaType::Three,
        });
        assert!(trunc.error.mse_db < rca.error.mse_db - 10.0);
    }

    /// A real operator whose functional model is wrong whenever the low
    /// byte of `a` is `0x5A` — one operand pair in 256.
    struct Corrupted(Box<dyn ApxOperator>);

    impl ApxOperator for Corrupted {
        fn name(&self) -> String {
            self.0.name()
        }
        fn op_class(&self) -> OpClass {
            self.0.op_class()
        }
        fn input_bits(&self) -> u32 {
            self.0.input_bits()
        }
        fn output_bits(&self) -> u32 {
            self.0.output_bits()
        }
        fn eval_u(&self, a: u64, b: u64) -> u64 {
            self.0.eval_u(a, b) ^ u64::from(a & 0xFF == 0x5A)
        }
        fn netlist(&self) -> Netlist {
            self.0.netlist()
        }
    }

    #[test]
    fn a_model_netlist_mismatch_reaches_the_report() {
        let lib = Library::fdsoi28();
        let chz = quick(&lib).with_settings(CharacterizerSettings {
            verify_samples: 2_000,
            ..quick(&lib).settings()
        });
        // ADD(8) takes the exhaustive path, ADD(16) the random one
        for n in [8, 16] {
            let config = OperatorConfig::AddExact { n };
            let clean = chz.characterize_uncached(&config, config.build().as_ref());
            assert!(clean.verified, "n={n}");
            let report = chz.characterize_uncached(&config, &Corrupted(config.build()));
            assert!(!report.verified, "n={n}");
        }
    }

    #[test]
    fn thread_count_never_changes_a_report() {
        let lib = Library::fdsoi28();
        let config = OperatorConfig::EtaIv { n: 16, x: 4 };
        let baseline = quick(&lib)
            .with_engine(Engine::new(1))
            .characterize(&config);
        for threads in [2, 8] {
            let report = quick(&lib)
                .with_engine(Engine::new(threads))
                .characterize(&config);
            assert_eq!(report, baseline, "threads={threads}");
        }
    }
}
