//! Application case studies of the paper (§V), written once against
//! [`OperatorCtx`] so that exact, carefully-sized fixed-point, and
//! approximate arithmetic can be swapped in without touching the
//! algorithms:
//!
//! * [`fft`] — 32-point radix-2 fixed-point FFT on 16-bit data (Fig. 5,
//!   Table II), scored by output PSNR.
//! * [`jpeg`] — JPEG encoder whose 8×8 DCT runs through the context
//!   (Fig. 6), scored by MSSIM of the decoded images; includes a real
//!   entropy-coding back end (zigzag, RLE, canonical Huffman) with a
//!   lossless round-trip decoder.
//! * [`hevc`] — HEVC fractional-position motion-compensation filtering
//!   with the standard 8-tap luma interpolation filters (Tables III/IV),
//!   scored by MSSIM.
//! * [`kmeans`] — K-means clustering whose distance computation runs
//!   through the context (Tables V/VI), scored by classification success
//!   rate.
//! * [`fir`] — 31-tap low-pass FIR filtering, scored by output SNR.
//! * [`sobel`] — 2-D Sobel edge detection, scored by edge-map MSSIM.
//!
//! All of them sit behind the [`workload`] subsystem: one [`Workload`]
//! trait (a deterministic seeded fixture with its exact reference, runs
//! of it through any context, a unified [`QualityScore`]) and one
//! registry addressable by name — a new
//! case study is one trait impl plus one registry entry, and the
//! engine-parallel, cache-aware sweep driver in `apx_core::appenergy`
//! plus the `apxperf app <name>` CLI come for free.
//!
//! The arithmetic-context machinery itself lives in [`apx_operators`] and
//! is re-exported here for convenience.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fft;
pub mod fir;
pub mod hevc;
pub mod jpeg;
pub mod kmeans;
pub mod sobel;
pub mod workload;

pub use apx_metrics::QualityScore;
pub use apx_operators::{OpCounts, OperatorCtx, SiteCounts, SiteMap, SiteOps, SiteSpec};
pub use workload::{Prepared, Workload, WorkloadEntry, WorkloadParams, WorkloadRun, WORKLOADS};
