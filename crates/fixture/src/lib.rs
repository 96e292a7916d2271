//! Deterministic synthetic workloads for the application experiments.
//!
//! The paper evaluates on assets we cannot redistribute (the Lena image,
//! HEVC test sequences) or that are inherently random (K-means point
//! clouds, FFT input signals). This crate generates seeded substitutes
//! with the statistics that matter for each experiment:
//!
//! * [`image::synthetic_photo`] — a natural-statistics grayscale image
//!   (smooth shading, hard edges, texture) for the JPEG/DCT and HEVC
//!   experiments. MSSIM comparisons are exact-vs-approx on the *same*
//!   image, so any photographic-statistics input exercises the identical
//!   code path (see the README's "Architecture and data flow" section).
//! * [`clusters::gaussian_clusters`] — "5 sets of 5·10³ points generated
//!   around 10 random points with a Gaussian distribution" (§V-D).
//! * [`signal::random_q15`] / [`signal::tone_mix_q15`] — FFT input
//!   vectors in Q15.
//! * [`motion::MotionField`] — quarter-pel motion vectors for the HEVC
//!   motion-compensation experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clusters;
pub mod image;
pub mod motion;
pub mod signal;

pub(crate) fn box_muller(rng: &mut impl rand::RngExt) -> f64 {
    use std::f64::consts::PI;
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
}
