//! 2-D Sobel edge detection through swappable arithmetic — the second
//! workload added purely via the [`Workload`]
//! abstraction.
//!
//! The classic 3×3 Sobel gradient pair over a seeded synthetic photo:
//! every kernel multiply and accumulate runs through the
//! [`OperatorCtx`], the gradient magnitude is the L1 approximation
//! `|gx| + |gy|` (its final addition also through the context), and the
//! resulting edge map is scored by MSSIM against the exact-arithmetic
//! edge map.

use crate::workload::{Prepared, Workload, WorkloadRun};
use crate::OperatorCtx;
use apx_fixture::image::Image;
use apx_metrics::QualityScore;
use apx_operators::{SiteOps, SiteSpec};

/// The horizontal Sobel kernel (`gx`); `gy` is its transpose.
pub const SOBEL_X: [[i64; 3]; 3] = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]];

/// Call-site tag of the gradient kernel convolutions.
pub const SITE_GRAD: &str = "sobel.grad";

/// Call-site tag of the L1 magnitude combine.
pub const SITE_MAG: &str = "sobel.mag";

/// Declared call-sites of the Sobel workload.
pub const SITES: &[SiteSpec] = &[
    SiteSpec {
        tag: SITE_GRAD,
        ops: SiteOps::AddMul,
        summary: "3x3 gradient kernel taps and accumulation (gx and gy)",
    },
    SiteSpec {
        tag: SITE_MAG,
        ops: SiteOps::Add,
        summary: "L1 magnitude |gx| + |gy| per interior pixel",
    },
];

/// Operand pre-scaling for the kernel taps: |tap| ≤ 2 scaled to ≤ 8192,
/// so a fixed-width (16-of-32) multiplier keeps the product information
/// (the same trick as the HEVC interpolation filter). The tap scale is
/// shifted back out right after each multiply; exact contexts are
/// bit-identical to the unscaled computation.
const TAP_SCALE: u32 = 12;
/// Operand pre-scaling for the 8-bit samples: ≤ 255 scaled to ≤ 4080.
/// This scale is **kept through the accumulation** (careful data sizing:
/// partial sums then span up to ±32 640, filling the 16-bit data-path
/// instead of idling in its bottom bits) and shifted out only for the
/// final 8-bit magnitude.
const SAMPLE_SCALE: u32 = 4;

/// One 3×3 kernel application through the context: multiplies by the
/// nonzero taps and accumulates in the sample-scaled domain (zero taps
/// cost nothing in hardware). The returned gradient carries
/// [`SAMPLE_SCALE`].
fn convolve3(window: &[[i64; 3]; 3], kernel: &[[i64; 3]; 3], ctx: &mut OperatorCtx) -> i64 {
    let mut acc: Option<i64> = None;
    for (wrow, krow) in window.iter().zip(kernel) {
        for (&s, &t) in wrow.iter().zip(krow) {
            if t == 0 {
                continue;
            }
            let p = ctx.mul_at(SITE_GRAD, t << TAP_SCALE, s << SAMPLE_SCALE) >> TAP_SCALE;
            acc = Some(match acc {
                None => p,
                Some(a) => ctx.add_at(SITE_GRAD, a, p),
            });
        }
    }
    acc.unwrap_or(0)
}

/// Sobel edge map of `image` through `ctx`: per interior pixel the L1
/// gradient magnitude `min(|gx| + |gy|, 255)`; the one-pixel border is
/// left at zero in test and reference alike.
pub fn sobel_edges(image: &Image, ctx: &mut OperatorCtx) -> Image {
    let (width, height) = (image.width(), image.height());
    let mut pixels = vec![0u8; width * height];
    let kernel_y = transpose(&SOBEL_X);
    for y in 1..height.saturating_sub(1) {
        for x in 1..width.saturating_sub(1) {
            let mut window = [[0i64; 3]; 3];
            for (r, row) in window.iter_mut().enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = i64::from(image.pixel(x + c - 1, y + r - 1));
                }
            }
            let gx = convolve3(&window, &SOBEL_X, ctx);
            let gy = convolve3(&window, &kernel_y, ctx);
            // combine in the scaled domain (|gx|+|gy| ≤ 2·16 320, still
            // inside 16 bits), unscale only for the stored 8-bit pixel
            let magnitude = ctx.add_at(SITE_MAG, gx.abs(), gy.abs()) >> SAMPLE_SCALE;
            pixels[y * width + x] = magnitude.clamp(0, 255) as u8;
        }
    }
    Image::from_pixels(width, height, pixels)
}

fn transpose(kernel: &[[i64; 3]; 3]) -> [[i64; 3]; 3] {
    let mut out = [[0i64; 3]; 3];
    for r in 0..3 {
        for c in 0..3 {
            out[r][c] = kernel[c][r];
        }
    }
    out
}

/// The registered Sobel workload: edge detection over a `size × size`
/// seeded synthetic photo, scored by MSSIM of the edge map against the
/// exact-arithmetic run.
#[derive(Debug, Clone, Copy)]
pub struct SobelWorkload {
    size: usize,
}

impl SobelWorkload {
    /// Workload over a `size × size` image (at least the 8-pixel SSIM
    /// window).
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size >= 8, "size must be at least the SSIM window (8)");
        SobelWorkload { size }
    }
}

impl Workload for SobelWorkload {
    fn name(&self) -> &'static str {
        "sobel"
    }

    fn default_seed(&self) -> u64 {
        0x50B
    }

    fn fingerprint(&self) -> String {
        format!("sobel/v1:size={}", self.size)
    }

    fn sites(&self) -> &'static [SiteSpec] {
        SITES
    }

    fn prepare(&self, seed: u64) -> Prepared<'_> {
        let size = self.size;
        let image = apx_fixture::image::synthetic_photo(size, size, seed);
        let reference = sobel_edges(&image, &mut OperatorCtx::exact());
        Box::new(move |ctx| {
            ctx.reset_counts();
            let edges = sobel_edges(&image, ctx);
            WorkloadRun {
                score: QualityScore::mssim(reference.pixels(), edges.pixels(), size, size),
                counts: ctx.counts(),
                aux: Vec::new(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_operators::{FaType, OperatorConfig, OperatorCtx};

    #[test]
    fn flat_image_has_no_edges() {
        let image = Image::from_pixels(16, 16, vec![128u8; 256]);
        let mut ctx = OperatorCtx::exact();
        let edges = sobel_edges(&image, &mut ctx);
        assert!(edges.pixels().iter().all(|&p| p == 0));
    }

    #[test]
    fn vertical_step_lights_up_the_boundary_column() {
        let mut pixels = vec![0u8; 16 * 16];
        for y in 0..16 {
            for x in 8..16 {
                pixels[y * 16 + x] = 200;
            }
        }
        let image = Image::from_pixels(16, 16, pixels);
        let mut ctx = OperatorCtx::exact();
        let edges = sobel_edges(&image, &mut ctx);
        // the two columns straddling the step carry the full response
        assert_eq!(edges.pixel(7, 8), 255);
        assert_eq!(edges.pixel(8, 8), 255);
        // far from the step: flat, no response
        assert_eq!(edges.pixel(3, 8), 0);
        assert_eq!(edges.pixel(13, 8), 0);
    }

    #[test]
    fn kernel_ops_are_counted_per_interior_pixel() {
        let image = apx_fixture::image::synthetic_photo(16, 16, 1);
        let mut ctx = OperatorCtx::exact();
        let _ = sobel_edges(&image, &mut ctx);
        let interior = 14u64 * 14;
        // per pixel: 2 kernels × (6 muls + 5 adds) + 1 magnitude add
        assert_eq!(ctx.counts().muls, interior * 12);
        assert_eq!(ctx.counts().adds, interior * 11);
    }

    #[test]
    fn exact_workload_run_scores_perfect_mssim() {
        let workload = SobelWorkload::new(32);
        let mut ctx = OperatorCtx::exact();
        let run = workload.run(9, &mut ctx);
        assert!((run.score.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn harsh_approximation_degrades_the_edge_map() {
        let workload = SobelWorkload::new(32);
        let mut gentle = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q: 14 });
        let mut harsh = OperatorCtx::for_config(&OperatorConfig::RcaApx {
            n: 16,
            m: 2,
            fa_type: FaType::Three,
        });
        let good = workload.run(9, &mut gentle).score;
        let bad = workload.run(9, &mut harsh).score;
        assert!(good > bad, "gentle {good} must beat harsh {bad}");
    }
}
