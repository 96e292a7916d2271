//! The `Workload` subsystem: every application case study behind one
//! trait and one registry.
//!
//! A [`Workload`] is a deterministic, seeded application run through a
//! swappable [`OperatorCtx`], scored against its own exact-arithmetic
//! reference with the unified [`QualityScore`]. The registry
//! ([`WORKLOADS`]) makes workloads addressable by name, exactly like the
//! operator families of the characterization sweeps — new case studies
//! are one trait impl plus one registry entry, and they inherit the
//! engine-parallel, cache-aware sweep driver of `apx_core::appenergy`
//! and the `apxperf app <name>` CLI for free.

use crate::{OpCounts, OperatorCtx};
use apx_fixture::image::MIN_EDGE;
use apx_metrics::QualityScore;
use apx_operators::SiteSpec;
use serde::{Deserialize, Serialize};

/// Tuning knobs shared by workload constructors — the CLI flags map onto
/// this one struct so every registry entry builds from the same input.
/// Workloads read only the fields that apply to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadParams {
    /// Image edge length (JPEG/HEVC/Sobel).
    pub size: usize,
    /// Number of data sets (K-means).
    pub sets: usize,
    /// Points per cluster (K-means).
    pub points: usize,
}

impl Default for WorkloadParams {
    /// The defaults of the former standalone binaries (128-pixel images,
    /// 5 K-means sets of 500 points per cluster).
    fn default() -> Self {
        WorkloadParams {
            size: 128,
            sets: 5,
            points: 500,
        }
    }
}

/// One scored workload run: the unified quality score against the
/// exact-arithmetic reference, the operations executed through the
/// context, and optional workload-specific side channels (e.g. the JPEG
/// stream length). Serializable, so application sweeps are cacheable
/// exactly like characterization reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRun {
    /// Quality against the exact-arithmetic reference run.
    pub score: QualityScore,
    /// Operations executed through the context over the whole run.
    pub counts: OpCounts,
    /// Named auxiliary outputs (workload-specific, may be empty).
    pub aux: Vec<(String, f64)>,
}

impl WorkloadRun {
    /// Looks up an auxiliary output by name.
    #[must_use]
    pub fn aux(&self, name: &str) -> Option<f64> {
        self.aux
            .iter()
            .find(|(key, _)| key == name)
            .map(|&(_, value)| value)
    }
}

/// A workload's seeded input and exact-arithmetic reference, built once
/// by [`Workload::prepare`]: calling it runs the application through a
/// context and scores it against that reference. It is shared by
/// reference across engine threads, so every cell of a sweep runs the
/// same fixture.
pub type Prepared<'a> = Box<dyn Fn(&mut OperatorCtx) -> WorkloadRun + Send + Sync + 'a>;

/// One application case study: deterministic seeded input generation
/// together with the exact-arithmetic reference ([`Workload::prepare`]),
/// and runs of that fixture through any [`OperatorCtx`], each scored by
/// a unified [`QualityScore`] against the reference.
///
/// Implementations must be pure functions of `(self, seed)` up to the
/// supplied context: the same seed must generate bit-identical inputs
/// and references on every call, which is what makes application sweeps
/// engine-parallel and content-addressable, and what lets a sweep build
/// the fixture once and run every cell on it.
pub trait Workload: std::fmt::Debug + Send + Sync {
    /// Registry name (`apxperf app <name>`).
    fn name(&self) -> &'static str;

    /// The fixture seed the paper-table CLI aliases use by default —
    /// kept per workload so historical outputs stay comparable run over
    /// run and PR over PR.
    fn default_seed(&self) -> u64;

    /// Stable content fingerprint of this workload instance: name, an
    /// algorithm version (bump on any change that alters results), and
    /// every constructor parameter. Part of the app-sweep cache key, so
    /// stale cells miss instead of resurfacing.
    fn fingerprint(&self) -> String;

    /// The call-sites this workload's arithmetic is tagged with — the
    /// assignment targets of the heterogeneous `tune` search. Every
    /// call in [`Workload::run`] must use one of these tags.
    fn sites(&self) -> &'static [SiteSpec];

    /// Generates the seeded input and computes its exact-arithmetic
    /// reference, ready to run through any number of contexts.
    fn prepare(&self, seed: u64) -> Prepared<'_>;

    /// Generates the seeded input, runs the application through `ctx`
    /// and scores it against the exact-arithmetic reference: one
    /// [`Workload::prepare`] and one run of its fixture.
    fn run(&self, seed: u64, ctx: &mut OperatorCtx) -> WorkloadRun {
        self.prepare(seed)(ctx)
    }
}

/// One registry entry: the addressable name, a one-line description (for
/// `apxperf list` and the README table) and the fallible constructor
/// from shared [`WorkloadParams`] — parameters arrive from the command
/// line, so constraint violations come back as user-facing errors, never
/// panics.
pub struct WorkloadEntry {
    /// Registry name, as typed on the command line.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Builds the workload instance from the shared parameters, or
    /// explains which parameter violates the workload's constraints.
    pub build: fn(&WorkloadParams) -> Result<Box<dyn Workload>, String>,
}

/// Every registered workload, in `apxperf list` order.
pub const WORKLOADS: &[WorkloadEntry] = &[
    WorkloadEntry {
        name: "fft",
        summary: "32-point fixed-point FFT scored by output PSNR (Fig. 5, Table II)",
        build: |_| Ok(Box::new(crate::fft::FftWorkload::default())),
    },
    WorkloadEntry {
        name: "jpeg",
        summary: "JPEG encoder (q=90) scored by decoded-image MSSIM (Fig. 6)",
        build: |p| {
            if p.size == 0 || p.size % 8 != 0 {
                return Err(format!(
                    "jpeg: --size must be a positive multiple of 8, got {}",
                    p.size
                ));
            }
            check_frame("jpeg", p.size)?;
            Ok(Box::new(crate::jpeg::JpegWorkload::new(p.size, 90)))
        },
    },
    WorkloadEntry {
        name: "hevc",
        summary: "HEVC fractional motion compensation scored by MSSIM (Tables III/IV)",
        build: |p| {
            if p.size == 0 || p.size % 16 != 0 {
                return Err(format!(
                    "hevc: --size must be a positive multiple of 16, got {}",
                    p.size
                ));
            }
            check_frame("hevc", p.size)?;
            Ok(Box::new(crate::hevc::McWorkload::new(p.size)))
        },
    },
    WorkloadEntry {
        name: "kmeans",
        summary: "K-means clustering scored by classification success (Tables V/VI)",
        build: |p| {
            if p.sets == 0 || p.points == 0 {
                return Err(format!(
                    "kmeans: --sets and --points must be positive, got {} and {}",
                    p.sets, p.points
                ));
            }
            Ok(Box::new(crate::kmeans::KmeansWorkload::new(
                p.sets, p.points,
            )))
        },
    },
    WorkloadEntry {
        name: "fir",
        summary: "31-tap low-pass FIR filter scored by output SNR",
        build: |_| Ok(Box::new(crate::fir::FirWorkload::default())),
    },
    WorkloadEntry {
        name: "sobel",
        summary: "2-D Sobel edge detection scored by edge-map MSSIM",
        build: |p| {
            if p.size < 8 {
                return Err(format!(
                    "sobel: --size must be at least the 8-pixel SSIM window, got {}",
                    p.size
                ));
            }
            check_frame("sobel", p.size)?;
            Ok(Box::new(crate::sobel::SobelWorkload::new(p.size)))
        },
    },
];

/// Checks that a `size × size` synthetic frame can be generated: at
/// least [`MIN_EDGE`] pixels a side, and few enough pixels that a buffer
/// of up to 64 bytes per pixel stays addressable (beyond that, buffer
/// lengths wrap or overflow instead of failing cleanly).
fn check_frame(workload: &str, size: usize) -> Result<(), String> {
    if size < MIN_EDGE {
        return Err(format!(
            "{workload}: --size must be at least {MIN_EDGE}, the smallest synthetic frame, got {size}"
        ));
    }
    if size
        .checked_mul(size)
        .is_none_or(|pixels| pixels > isize::MAX as usize / 64)
    {
        return Err(format!(
            "{workload}: --size {size} is too large: a {size}x{size} frame cannot be addressed"
        ));
    }
    Ok(())
}

/// Looks a workload up by registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static WorkloadEntry> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for entry in WORKLOADS {
            assert!(!entry.summary.is_empty(), "{}", entry.name);
            let found = find(entry.name).expect("registered name must resolve");
            assert_eq!(found.name, entry.name);
        }
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len(), "duplicate registry name");
    }

    #[test]
    fn built_workloads_report_their_registry_name() {
        let params = WorkloadParams {
            size: 16,
            sets: 1,
            points: 20,
        };
        for entry in WORKLOADS {
            let workload = (entry.build)(&params).expect(entry.name);
            assert_eq!(workload.name(), entry.name);
            assert!(
                workload.fingerprint().starts_with(entry.name),
                "{}: fingerprint should lead with the name: {}",
                entry.name,
                workload.fingerprint()
            );
        }
    }

    #[test]
    fn every_workload_scores_exact_arithmetic_as_undegraded_or_best() {
        let params = WorkloadParams {
            size: 16,
            sets: 1,
            points: 20,
        };
        for entry in WORKLOADS {
            let workload = (entry.build)(&params).expect(entry.name);
            let mut ctx = OperatorCtx::exact();
            let run = workload.run(workload.default_seed(), &mut ctx);
            match run.score {
                // K-means scores against the ground-truth labels, not the
                // exact run itself — exact recovers nearly all of them
                QualityScore::SuccessRate(v) => {
                    assert!(v > 0.9, "{}: exact success {v}", entry.name);
                }
                // every exact-reference metric is perfectly undegraded
                _ => assert!(
                    run.score.degradation() <= 1e-9,
                    "{}: exact run must be undegraded, got {:?}",
                    entry.name,
                    run.score
                ),
            }
            assert!(run.counts.total() > 0, "{}: no ops counted", entry.name);
        }
    }

    #[test]
    fn runs_are_bit_identical_for_a_fixed_seed() {
        for entry in WORKLOADS {
            let workload = (entry.build)(&WorkloadParams {
                size: 16,
                sets: 1,
                points: 20,
            })
            .expect(entry.name);
            let mut a = OperatorCtx::exact();
            let mut b = OperatorCtx::exact();
            assert_eq!(
                workload.run(7, &mut a),
                workload.run(7, &mut b),
                "{}",
                entry.name
            );
        }
    }

    #[test]
    fn constructors_reject_invalid_parameters_with_messages_not_panics() {
        let bad_size = WorkloadParams {
            size: 100, // not a multiple of 16
            sets: 1,
            points: 20,
        };
        let err = (find("hevc").unwrap().build)(&bad_size).unwrap_err();
        assert!(err.contains("multiple of 16"), "{err}");
        let err = (find("jpeg").unwrap().build)(&WorkloadParams {
            size: 30,
            sets: 1,
            points: 20,
        })
        .unwrap_err();
        assert!(err.contains("multiple of 8"), "{err}");
        let err = (find("kmeans").unwrap().build)(&WorkloadParams {
            size: 16,
            sets: 0,
            points: 20,
        })
        .unwrap_err();
        assert!(err.contains("--sets"), "{err}");
        let err = (find("sobel").unwrap().build)(&WorkloadParams {
            size: 4,
            sets: 1,
            points: 20,
        })
        .unwrap_err();
        assert!(err.contains("SSIM window"), "{err}");
        // sizes the constraints above accept but no synthetic frame can
        // take: under its 16-pixel minimum, or too many pixels to address
        for (name, size) in [
            ("jpeg", 8),
            ("sobel", 8),
            ("sobel", 12),
            ("jpeg", 3_037_000_504),
            ("jpeg", 1 << 32),
            ("hevc", 1 << 32),
            ("sobel", 1 << 32),
        ] {
            let err = (find(name).unwrap().build)(&WorkloadParams {
                size,
                sets: 1,
                points: 20,
            })
            .unwrap_err();
            assert!(err.contains("--size"), "{name} {size}: {err}");
        }
    }

    #[test]
    fn every_workload_declares_sites_matching_its_recorded_traffic() {
        let params = WorkloadParams {
            size: 16,
            sets: 1,
            points: 20,
        };
        for entry in WORKLOADS {
            let workload = (entry.build)(&params).expect(entry.name);
            let sites = workload.sites();
            assert!(!sites.is_empty(), "{}: no sites declared", entry.name);
            for spec in sites {
                assert!(
                    spec.tag.starts_with(&format!("{}.", entry.name)),
                    "{}: site tag `{}` must follow <workload>.<kernel>",
                    entry.name,
                    spec.tag
                );
                assert!(!spec.summary.is_empty(), "{}: {}", entry.name, spec.tag);
            }
            // run exact and reconcile the ledger with the declared sites
            let mut ctx = OperatorCtx::exact();
            let run = workload.run(workload.default_seed(), &mut ctx);
            let recorded = ctx.site_counts();
            assert_eq!(
                recorded.total(),
                run.counts,
                "{}: per-site ledger must cover every counted op",
                entry.name
            );
            for (site, counts) in recorded.iter() {
                let spec = sites
                    .iter()
                    .find(|s| s.tag == site)
                    .unwrap_or_else(|| panic!("{}: undeclared site `{site}`", entry.name));
                assert!(
                    counts.adds == 0 || spec.ops.uses_add(),
                    "{}: adds at mul-only site `{site}`",
                    entry.name
                );
                assert!(
                    counts.muls == 0 || spec.ops.uses_mul(),
                    "{}: muls at add-only site `{site}`",
                    entry.name
                );
            }
        }
    }

    #[test]
    fn aux_lookup_finds_named_outputs() {
        let run = WorkloadRun {
            score: QualityScore::Mssim(1.0),
            counts: OpCounts::default(),
            aux: vec![("stream_bytes".to_owned(), 42.0)],
        };
        assert_eq!(run.aux("stream_bytes"), Some(42.0));
        assert_eq!(run.aux("missing"), None);
    }
}
