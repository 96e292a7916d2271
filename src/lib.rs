//! APXPERF-RS facade crate.
//!
//! Re-exports the whole workspace behind a single dependency, so that the
//! examples and integration tests in the repository root (and downstream
//! users who want everything) can write `use apxperf::prelude::*;`.
//!
//! The workspace reproduces **"The Hidden Cost of Functional Approximation
//! Against Careful Data Sizing – A Case Study"** (Barrois, Sentieys,
//! Ménard — DATE 2017). See the README's "Architecture and data flow"
//! section for the system inventory and `tests/paper_claims.rs` for the
//! paper-vs-measured record.
//!
//! # Quickstart
//!
//! ```
//! use apxperf::prelude::*;
//!
//! // Characterize one approximate adder against the exact reference.
//! let lib = Library::fdsoi28();
//! let mut chz = Characterizer::new(&lib);
//! let report = chz.characterize(&OperatorConfig::AddTrunc { n: 16, q: 12 });
//! assert!(report.error.mse_db < -40.0);
//! assert!(report.hw.area_um2 > 0.0);
//! ```

pub use apx_apps as apps;
pub use apx_cache as cache;
pub use apx_cells as cells;
pub use apx_core as core;
pub use apx_engine as engine;
pub use apx_fixture as fixture;
pub use apx_metrics as metrics;
pub use apx_netlist as netlist;
pub use apx_operators as operators;

/// Convenience prelude bringing the commonly used types into scope.
///
/// A case study runs one way: build its [`Workload`](apx_apps::Workload)
/// (e.g. [`FftWorkload`](apx_apps::fft::FftWorkload)), call
/// [`Workload::prepare`](apx_apps::Workload::prepare) with a seed for the
/// seeded input and its exact reference, and call the result with an
/// [`OperatorCtx`](apx_apps::OperatorCtx) per arithmetic variant.
pub mod prelude {
    pub use apx_apps::{
        fft::FftWorkload, hevc::McWorkload, jpeg::JpegWorkload, kmeans::KmeansWorkload, OpCounts,
        OperatorCtx, Workload, WorkloadRun,
    };
    pub use apx_cache::{Cache, CacheKey, CacheStats, KeyBuilder};
    pub use apx_cells::{CellKind, CellSpec, Library, OperatingPoint};
    pub use apx_core::{
        appenergy, pareto, sweeps, Characterizer, CharacterizerSettings, OperatorReport,
    };
    pub use apx_engine::Engine;
    pub use apx_fixture::{clusters, image, signal};
    pub use apx_metrics::{mssim, psnr_db, ErrorStats, QualityScore};
    pub use apx_netlist::{HwAnalyzer, HwReport, Netlist, NetlistBuilder};
    pub use apx_operators::{ApxOperator, OperatorConfig};
}
