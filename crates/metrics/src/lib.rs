//! Error and quality metrics — the measurement half of APXPERF (§III of
//! the paper).
//!
//! * [`ErrorStats`] — the full operator-level metric suite: MSE (and its
//!   dB normalization), BER and per-position BER, mean error (bias), MAE,
//!   relative error, min/max error, error rate, a log₂ error-magnitude
//!   PDF, power-of-two acceptance probabilities (AP vs. MAA), and an error
//!   capture buffer from which the error PSD is computed.
//! * [`QualityScore`] — the unified application-quality score every
//!   workload reports, with constructors for each metric below (the one
//!   scoring entry point of the workload layer) and a kind-free
//!   exact-relative [`QualityScore::degradation`] accessor.
//! * [`QualityBudget`] — a parsed bound on a quality score (`>=30dB`,
//!   `<=1dB`, `>=95%`), with unit/metric checking — the constraint side
//!   of the `apxperf tune` search.
//! * [`psnr_db`] / [`snr_db`] — output quality for the FFT and FIR
//!   experiments (Fig. 5).
//! * [`mssim`] — Mean Structural Similarity (Wang et al., 2004) for the
//!   JPEG and HEVC experiments (Fig. 6, Tables III/IV).
//! * [`success_rate`] — classification success for the K-means
//!   experiment (Tables V/VI).
//! * [`spectrum`] — a small f64 radix-2 FFT used for the PSD metric.
//!
//! # Example
//!
//! ```
//! use apx_metrics::ErrorStats;
//! use apx_operators::OperatorConfig;
//!
//! let op = OperatorConfig::AddTrunc { n: 16, q: 12 }.build();
//! let mut stats = ErrorStats::new(op.ref_bits(), op.fullscale_bits());
//! for a in (0..1u64 << 16).step_by(257) {
//!     for b in (0..1u64 << 16).step_by(509) {
//!         stats.record(op.reference_u(a, b), op.aligned_u(a, b));
//!     }
//! }
//! assert!(stats.mse_db() < -40.0);
//! assert!(stats.mean_error() > 0.0); // truncation bias
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod error;
mod mssim;
mod signal;
pub mod spectrum;

pub use budget::QualityBudget;
pub use error::{ErrorStats, PSD_CAPTURE_LEN};
pub use mssim::{mssim, mssim_with_window, SSIM_C1, SSIM_C2};
pub use signal::{psnr_db, psnr_db_from_mse, snr_db, success_rate, QualityScore};
