//! APXPERF-RS core — the design-exploration framework of the paper
//! (Fig. 2): given an operator description, produce **both** a functional
//! error characterization and a hardware characterization under identical
//! operating conditions, after cross-verifying the two models of the
//! operator against each other.
//!
//! The pipeline mirrors the paper's block diagram:
//!
//! ```text
//!  OperatorConfig ──► netlist ──► RTL "synthesis" (structural) ─► STA / area
//!        │               │                │
//!        │               └── gate-level event sim ──► power estimation
//!        │
//!        ├──► functional model ──► error-metric extraction (random inputs)
//!        │
//!        └──► Verification: netlist ≡ functional model (exhaustive/random)
//!                     │
//!                     ▼
//!                Data fusion ──► OperatorReport (JSON/CSV)
//! ```
//!
//! On top of the per-operator flow, [`sweeps`] enumerates the paper's §IV
//! parameter grids (addressable by name through [`sweeps::FAMILIES`]) and
//! [`appenergy`] implements the application-level energy model of eq. (1),
//! including the *partner-operator sizing* that produces the paper's
//! headline result (sized fixed-point operators shrink the whole
//! data-path; approximate operators don't). The application case studies
//! themselves are `apx_apps` [`Workload`](apx_apps::Workload)s;
//! [`appenergy::sweep_workload`] runs any of them over any configuration
//! list — engine-parallel across (workload × config) cells and cacheable
//! per cell ([`cache::workload_cell_key`]). On top of the sweeps,
//! [`pareto`] computes strict-dominance quality–energy fronts, overlaying
//! the `Sized` data-sizing baseline against the approximate families —
//! the paper's headline comparison ([`pareto::workload_pareto`]). And
//! [`tune`] searches *heterogeneous* per-call-site assignments: the
//! minimum-energy [`SiteMap`](apx_operators::SiteMap) meeting a parsed
//! quality budget, seeded at the best uniform candidate
//! ([`tune::tune`]).
//!
//! Every sampling loop is sharded and runs on an [`Engine`](apx_engine::Engine)
//! (`APXPERF_THREADS`); per-shard RNG streams are derived from the master
//! seed and partials merge in shard order, so reports are bit-identical
//! for any thread count. [`sweeps::characterize_all_cached`] and
//! [`appenergy::sweep_workload_cached`] additionally parallelize across
//! operator configurations.
//!
//! Because reports are pure functions of their inputs, they are also
//! **cacheable**: attach an `apx_cache` store with
//! [`Characterizer::with_cache`] (or the `_cached` sweep drivers) and an
//! already-characterized configuration costs a content-addressed blob
//! lookup instead of a sweep — see the [`cache`] module for the key
//! ingredients and invalidation rules.
//!
//! # Example
//!
//! ```
//! use apx_core::{Characterizer, CharacterizerSettings};
//! use apx_cells::Library;
//! use apx_operators::OperatorConfig;
//!
//! let lib = Library::fdsoi28();
//! let mut chz = Characterizer::new(&lib).with_settings(CharacterizerSettings {
//!     error_samples: 20_000,
//!     ..CharacterizerSettings::default()
//! });
//! let report = chz.characterize(&OperatorConfig::Aca { n: 8, p: 2 });
//! assert!(report.verified);
//! assert!(report.error.error_rate > 0.0); // approximate
//! assert!(report.hw.delay_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appenergy;
pub mod cache;
mod characterizer;
pub mod output;
pub mod pareto;
pub mod query;
mod report;
pub mod sweeps;
pub mod tune;

pub use characterizer::{Characterizer, CharacterizerSettings};
pub use report::{ErrorSummary, OperatorReport};
