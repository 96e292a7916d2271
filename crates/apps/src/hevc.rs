//! HEVC fractional-position motion compensation (§V-C, Tables III/IV).
//!
//! Implements the standard HEVC luma interpolation: the three 8-tap
//! quarter/half/three-quarter-pel filters of the specification, applied
//! separably (horizontal pass then vertical pass) over a frame under a
//! block-wise motion field. Every multiply-accumulate runs through the
//! [`OperatorCtx`]; a prediction built with exact arithmetic is the
//! MSSIM reference.

use crate::workload::{Prepared, Workload, WorkloadRun};
use crate::{OpCounts, OperatorCtx};
use apx_fixture::image::Image;
use apx_fixture::motion::MotionField;
use apx_metrics::QualityScore;
use apx_operators::{SiteOps, SiteSpec};

/// Call-site tag of the horizontal interpolation pass.
pub const SITE_MC_H: &str = "hevc.mc_h";

/// Call-site tag of the vertical interpolation pass.
pub const SITE_MC_V: &str = "hevc.mc_v";

/// Declared call-sites of the HEVC motion-compensation workload.
pub const SITES: &[SiteSpec] = &[
    SiteSpec {
        tag: SITE_MC_H,
        ops: SiteOps::AddMul,
        summary: "horizontal 8-tap luma interpolation pass",
    },
    SiteSpec {
        tag: SITE_MC_V,
        ops: SiteOps::AddMul,
        summary: "vertical 8-tap luma interpolation pass",
    },
];

/// The HEVC luma interpolation filters indexed by fractional phase
/// (0 = integer, 1 = quarter, 2 = half, 3 = three-quarter).
/// Coefficients sum to 64 (6-bit normalization).
pub const LUMA_FILTERS: [[i64; 8]; 4] = [
    [0, 0, 0, 64, 0, 0, 0, 0],
    [-1, 4, -10, 58, 17, -5, 1, 0],
    [-1, 4, -11, 40, 40, -11, 4, -1],
    [0, 1, -5, 17, 58, -10, 4, -1],
];

/// Normalization shift after each filter pass.
const FILTER_SHIFT: u32 = 6;

/// Operands are pre-scaled so their product occupies the upper half of
/// the 32-bit range: a fixed-width (16-of-32) multiplier then loses at
/// most ~2 units of the t·s term. Exact contexts are bit-identical to the
/// unscaled computation.
const TAP_SCALE: u32 = 8; // taps ≤ 64  → ≤ 16384

/// Scales a filter input into the 16-bit operand range, returning it with
/// the shift that undoes both scales: first-pass samples (≤ 255) scale
/// up, while the second pass sees first-pass outputs up to ~2^14, so
/// those saturate instead.
fn scaled_sample(s: i64) -> (i64, u32) {
    const SAMPLE_SCALE: u32 = 7;
    if s.abs() <= 255 {
        (s << SAMPLE_SCALE, TAP_SCALE + SAMPLE_SCALE)
    } else {
        (s.clamp(-32_767, 32_767), TAP_SCALE)
    }
}

/// One interpolation pass through the context, with per-lane scratch
/// reused across calls.
#[derive(Debug, Default)]
struct Interpolator {
    taps: Vec<i64>,
    samples: Vec<i64>,
    products: Vec<i64>,
    acc: Vec<i64>,
    partial: Vec<i64>,
}

impl Interpolator {
    /// Interpolates every window of `windows` at fractional `phase`,
    /// writing one output per window. Phase 0 is the window's center
    /// sample and costs no operation. Otherwise each nonzero tap of the
    /// phase's filter is one multiply slice and (after the first) one
    /// accumulate slice over all windows; zero taps cost nothing in
    /// hardware and are skipped, matching real decoders.
    fn apply(
        &mut self,
        windows: &[[i64; 8]],
        phase: usize,
        site: &'static str,
        ctx: &mut OperatorCtx,
        out: &mut [i64],
    ) {
        if phase == 0 {
            for (o, window) in out.iter_mut().zip(windows) {
                *o = window[3];
            }
            return;
        }
        let n = windows.len();
        let mut first = true;
        for (k, &t) in LUMA_FILTERS[phase].iter().enumerate() {
            if t == 0 {
                continue;
            }
            self.taps.clear();
            self.taps.resize(n, t << TAP_SCALE);
            self.samples.clear();
            self.samples
                .extend(windows.iter().map(|window| scaled_sample(window[k]).0));
            self.products.resize(n, 0);
            ctx.mul_n_at(site, &self.taps, &self.samples, &mut self.products);
            for (p, window) in self.products.iter_mut().zip(windows) {
                *p >>= scaled_sample(window[k]).1;
            }
            if first {
                std::mem::swap(&mut self.acc, &mut self.products);
                first = false;
            } else {
                std::mem::swap(&mut self.acc, &mut self.partial);
                self.acc.resize(n, 0);
                ctx.add_n_at(site, &self.partial, &self.products, &mut self.acc);
            }
        }
        // rounding offset then normalize (shifts are wiring, not operators)
        for (o, &acc) in out.iter_mut().zip(&self.acc) {
            *o = (acc + (1 << (FILTER_SHIFT - 1))) >> FILTER_SHIFT;
        }
    }
}

/// Operations of `windows` interpolation windows at fractional `phase`:
/// the phase's nonzero taps in multiplies and one fewer in additions per
/// window, none at phase 0 (what [`Interpolator::apply`] records).
fn window_ops(phase: usize, windows: usize) -> OpCounts {
    if phase == 0 {
        return OpCounts::default();
    }
    let taps = LUMA_FILTERS[phase].iter().filter(|&&t| t != 0).count() as u64;
    let windows = windows as u64;
    OpCounts {
        adds: (taps - 1) * windows,
        muls: taps * windows,
    }
}

/// Result of one motion-compensation run.
#[derive(Debug, Clone)]
pub struct McResult {
    /// The predicted frame.
    pub predicted: Image,
    /// Operations executed through the context.
    pub counts: OpCounts,
}

/// The paper's HEVC workload: a synthetic frame and a quarter-pel motion
/// field, with the exact-arithmetic prediction as MSSIM reference.
#[derive(Debug, Clone)]
pub struct McFixture {
    frame: Image,
    motion: MotionField,
    reference: Image,
}

impl McFixture {
    /// Builds a `size × size` fixture with 16-pixel blocks.
    ///
    /// # Panics
    /// Panics if `size` is not a positive multiple of 16.
    #[must_use]
    pub fn synthetic(size: usize, seed: u64) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(16),
            "size must be a multiple of 16"
        );
        let frame = apx_fixture::image::synthetic_photo(size, size, seed);
        let motion = apx_fixture::motion::motion_field(size, size, 16, seed.wrapping_add(1));
        let mut exact = OperatorCtx::exact();
        let reference = motion_compensate(&frame, &motion, &mut exact).predicted;
        McFixture {
            frame,
            motion,
            reference,
        }
    }

    /// The source frame.
    #[must_use]
    pub fn frame(&self) -> &Image {
        &self.frame
    }

    /// Runs motion compensation through `ctx`; returns the result and the
    /// MSSIM against the exact-arithmetic prediction.
    pub fn run(&self, ctx: &mut OperatorCtx) -> (McResult, QualityScore) {
        ctx.reset_counts();
        let result = motion_compensate(&self.frame, &self.motion, ctx);
        let score = QualityScore::mssim(
            self.reference.pixels(),
            result.predicted.pixels(),
            self.frame.width(),
            self.frame.height(),
        );
        (result, score)
    }
}

/// The registered HEVC motion-compensation workload: a seeded synthetic
/// frame under a quarter-pel motion field, scored by MSSIM against the
/// exact-arithmetic prediction.
#[derive(Debug, Clone, Copy)]
pub struct McWorkload {
    size: usize,
}

impl McWorkload {
    /// Workload over a `size × size` frame (positive multiple of 16).
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(16),
            "size must be a multiple of 16"
        );
        McWorkload { size }
    }
}

impl Workload for McWorkload {
    fn name(&self) -> &'static str {
        "hevc"
    }

    /// Legacy fixture seed of the `table3`/`table4` binaries.
    fn default_seed(&self) -> u64 {
        0xEC
    }

    fn fingerprint(&self) -> String {
        format!("hevc/v1:size={}", self.size)
    }

    fn sites(&self) -> &'static [SiteSpec] {
        SITES
    }

    fn prepare(&self, seed: u64) -> Prepared<'_> {
        let fixture = McFixture::synthetic(self.size, seed);
        Box::new(move |ctx| {
            let (result, score) = fixture.run(ctx);
            WorkloadRun {
                score,
                counts: result.counts,
                aux: Vec::new(),
            }
        })
    }
}

/// The pixel span of motion block `i` of `count` along an axis of `len`
/// pixels: the last block extends to the frame edge (the clamp of
/// [`MotionField::vector_at`]).
fn block_span(i: usize, count: usize, block_size: usize, len: usize) -> std::ops::Range<usize> {
    let start = (i * block_size).min(len);
    let end = if i + 1 == count {
        len
    } else {
        ((i + 1) * block_size).min(len)
    };
    start..end
}

/// Predicts a frame by fractional motion compensation: for every pixel,
/// samples the reference at `(x + dx/4, y + dy/4)` with the separable
/// 8-tap interpolation (horizontal, then vertical).
///
/// Pixels run one motion block at a time, in block raster order. A block
/// shares one vector, so each filter tap is one slice over the block. The
/// per-pixel hardware filters each pixel's 8 source rows horizontally,
/// so pixels of a column repeat each other's work; as every operator model
/// is a pure function of its operands, a `w × h` block instead filters
/// each of the `h + 7` source rows it reads once, and the vertical pass
/// gathers each pixel's 8 rows from those shared results. The ledger is
/// charged the `8·w·h − (h + 7)·w` windows this skips, so it still counts
/// what the hardware runs. The first block to use a site holds the first
/// pixel, in pixel raster order, to use it, and each block filters
/// horizontally before vertically, so the site ledger records the sites
/// in the order of a pixel-by-pixel raster scan.
pub fn motion_compensate(frame: &Image, motion: &MotionField, ctx: &mut OperatorCtx) -> McResult {
    let (width, height) = (frame.width(), frame.height());
    let mut pixels = vec![0u8; width * height];
    let mut interpolator = Interpolator::default();
    let (mut windows, mut inter, mut values) = (Vec::new(), Vec::new(), Vec::new());
    for block_y in 0..motion.blocks_y {
        let ys = block_span(block_y, motion.blocks_y, motion.block_size, height);
        for block_x in 0..motion.blocks_x {
            let xs = block_span(block_x, motion.blocks_x, motion.block_size, width);
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            let (w, h) = (xs.len(), ys.len());
            let (dx, dy) = motion.vector_at(xs.start, ys.start);
            let (ix, fx) = (dx.div_euclid(4) as isize, dx.rem_euclid(4) as usize);
            let (iy, fy) = (dy.div_euclid(4) as isize, dy.rem_euclid(4) as usize);
            // horizontal pass: one window per column of each source row
            windows.clear();
            for r in 0..h + 7 {
                let by = (ys.start + r) as isize + iy - 3;
                for x in xs.clone() {
                    let bx = x as isize + ix;
                    windows.push(std::array::from_fn(|c| {
                        i64::from(frame.pixel_clamped(bx + c as isize - 3, by))
                    }));
                }
            }
            inter.resize(windows.len(), 0);
            interpolator.apply(&windows, fx, SITE_MC_H, ctx, &mut inter);
            ctx.charge(SITE_MC_H, window_ops(fx, 8 * w * h - (h + 7) * w));
            // vertical pass over each pixel's 8 shared intermediate rows
            windows.clear();
            for ly in 0..h {
                for lx in 0..w {
                    windows.push(std::array::from_fn(|r| inter[(ly + r) * w + lx]));
                }
            }
            values.resize(windows.len(), 0);
            interpolator.apply(&windows, fy, SITE_MC_V, ctx, &mut values);
            let mut value = values.iter();
            for y in ys.clone() {
                for x in xs.clone() {
                    let v = *value.next().expect("one value per pixel");
                    pixels[y * width + x] = v.clamp(0, 255) as u8;
                }
            }
        }
    }
    McResult {
        predicted: Image::from_pixels(width, height, pixels),
        counts: ctx.counts(),
    }
}

/// Operation counts of one fractionally-interpolated output pixel
/// (both phases fractional): used by the energy model of `apx-core`
/// (`16 − #zero-taps` multiplies and the matching adds per 2-pass pixel).
#[must_use]
pub fn ops_per_fractional_pixel() -> OpCounts {
    let mut ctx = OperatorCtx::exact();
    let mut interpolator = Interpolator::default();
    let mut out = [0i64; 8];
    // horizontal: 8 intermediate rows with a quarter-pel filter
    interpolator.apply(&[[0; 8]; 8], 1, SITE_MC_H, &mut ctx, &mut out);
    // vertical: one half-pel filter
    interpolator.apply(&[[0; 8]], 2, SITE_MC_V, &mut ctx, &mut out[..1]);
    ctx.counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_operators::{FaType, OperatorConfig, OperatorCtx};

    #[test]
    fn filters_are_normalized() {
        for taps in &LUMA_FILTERS {
            assert_eq!(taps.iter().sum::<i64>(), 64);
        }
    }

    #[test]
    fn integer_motion_is_a_pure_shift() {
        let frame = apx_fixture::image::synthetic_photo(32, 32, 9);
        let motion = MotionField {
            blocks_x: 2,
            blocks_y: 2,
            block_size: 16,
            vectors: vec![(8, 4); 4], // +2 px right, +1 px down, no fraction
        };
        let mut ctx = OperatorCtx::exact();
        let result = motion_compensate(&frame, &motion, &mut ctx);
        assert_eq!(result.counts.muls, 0, "integer phases use no filter");
        // interior pixels are plain copies
        assert_eq!(result.predicted.pixel(10, 10), frame.pixel(12, 11),);
    }

    #[test]
    fn half_pel_on_constant_area_preserves_value() {
        let frame = Image::from_pixels(32, 32, vec![77u8; 32 * 32]);
        let motion = MotionField {
            blocks_x: 2,
            blocks_y: 2,
            block_size: 16,
            vectors: vec![(2, 2); 4], // half-pel both axes
        };
        let mut ctx = OperatorCtx::exact();
        let result = motion_compensate(&frame, &motion, &mut ctx);
        // normalized filters reproduce constants exactly
        assert!(result.predicted.pixels().iter().all(|&p| p == 77));
        assert!(result.counts.muls > 0);
    }

    #[test]
    fn sites_are_recorded_in_raster_order_of_first_use() {
        // The first fractional block filters only vertically, a later one
        // only horizontally: the ledger must list mc_v before mc_h, as a
        // pixel-by-pixel raster scan records them (tune caches the order).
        let frame = apx_fixture::image::synthetic_photo(48, 32, 5);
        let motion = MotionField {
            blocks_x: 3,
            blocks_y: 2,
            block_size: 16,
            vectors: vec![(4, 0), (0, 2), (1, 0), (3, 3), (0, 0), (2, 1)],
        };
        let mut ctx = OperatorCtx::exact();
        motion_compensate(&frame, &motion, &mut ctx);
        let sites = ctx.site_counts();
        let order: Vec<&str> = sites.iter().map(|(site, _)| site).collect();
        assert_eq!(order, [SITE_MC_V, SITE_MC_H]);
        // 16 pixel rows per block: V-only (8 taps), H-only (7 taps × 8
        // rows), both (7 × 8 + 7), integer, both (8 × 8 + 7)
        let v = 16 * 16 * (8 + 7 + 7);
        let h = 16 * 16 * (7 * 8 + 7 * 8 + 8 * 8);
        assert_eq!(sites.get(SITE_MC_V).muls, v);
        assert_eq!(sites.get(SITE_MC_H).muls, h);
    }

    /// Nonzero taps of the filter at `phase` (none at the integer phase).
    fn taps(phase: i32) -> u64 {
        match phase {
            0 => 0,
            p => LUMA_FILTERS[p as usize].iter().filter(|&&t| t != 0).count() as u64,
        }
    }

    /// One pixel of the prediction the per-pixel way, in plain integers:
    /// 8 horizontally filtered source rows, then the vertical filter.
    fn predicted_pixel(frame: &Image, motion: &MotionField, x: usize, y: usize) -> u8 {
        let (dx, dy) = motion.vector_at(x, y);
        let filter = |phase: i32, samples: [i64; 8]| match phase {
            0 => samples[3],
            p => {
                let sum: i64 = (LUMA_FILTERS[p as usize].iter().zip(samples))
                    .map(|(t, s)| t * s)
                    .sum();
                (sum + 32) >> FILTER_SHIFT
            }
        };
        let bx = x as isize + dx.div_euclid(4) as isize;
        let by = y as isize + dy.div_euclid(4) as isize;
        let rows = std::array::from_fn(|r| {
            let row = std::array::from_fn(|c| {
                i64::from(frame.pixel_clamped(bx + c as isize - 3, by + r as isize - 3))
            });
            filter(dx.rem_euclid(4), row)
        });
        filter(dy.rem_euclid(4), rows).clamp(0, 255) as u8
    }

    #[test]
    fn ragged_blocks_are_predicted_and_charged_per_pixel() {
        // the last block row runs to the frame edge: 24 pixel rows, not 16
        let frame = apx_fixture::image::synthetic_photo(48, 40, 8);
        let motion = MotionField {
            blocks_x: 3,
            blocks_y: 2,
            block_size: 16,
            vectors: vec![(5, -3), (0, 2), (-7, 0), (2, 1), (4, 4), (-1, -6)],
        };
        let mut ctx = OperatorCtx::exact();
        let result = motion_compensate(&frame, &motion, &mut ctx);
        let (mut h, mut v) = (OpCounts::default(), OpCounts::default());
        for (i, &(dx, dy)) in motion.vectors.iter().enumerate() {
            let (w, rows) = (16, if i < 3 { 16 } else { 24 });
            let (tx, ty) = (taps(dx.rem_euclid(4)), taps(dy.rem_euclid(4)));
            h.muls += 8 * w * rows * tx;
            h.adds += 8 * w * rows * tx.saturating_sub(1);
            v.muls += w * rows * ty;
            v.adds += w * rows * ty.saturating_sub(1);
        }
        let sites = ctx.site_counts();
        let order: Vec<&str> = sites.iter().map(|(site, _)| site).collect();
        assert_eq!(order, [SITE_MC_H, SITE_MC_V]);
        assert_eq!(sites.get(SITE_MC_H), h);
        assert_eq!(sites.get(SITE_MC_V), v);
        for y in 0..40 {
            for x in 0..48 {
                let expected = predicted_pixel(&frame, &motion, x, y);
                assert_eq!(result.predicted.pixel(x, y), expected, "({x},{y})");
            }
        }
    }

    #[test]
    fn exact_context_scores_perfect_mssim() {
        let fixture = McFixture::synthetic(32, 4);
        let mut ctx = OperatorCtx::exact();
        let (_, score) = fixture.run(&mut ctx);
        assert!((score.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sized_adders_track_the_paper_quality_band() {
        // Table III: ADDt(16,10) reaches MSSIM ≈ 0.99 on the MC filter.
        let fixture = McFixture::synthetic(64, 4);
        let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q: 10 });
        let (_, score) = fixture.run(&mut ctx);
        assert!(score.value() > 0.9, "ADDt(16,10) MSSIM {score}");
        // and a brutally approximate adder scores worse
        let mut harsh = OperatorCtx::for_config(&OperatorConfig::RcaApx {
            n: 16,
            m: 1,
            fa_type: FaType::Three,
        });
        let (_, bad) = fixture.run(&mut harsh);
        assert!(bad < score, "harsh {bad} must be below sized {score}");
        assert!(bad.degradation() > score.degradation());
    }

    #[test]
    fn per_pixel_op_budget_matches_the_energy_model() {
        let ops = ops_per_fractional_pixel();
        // quarter-pel filter: 7 nonzero taps -> 7 muls + 6 adds per row;
        // half-pel: 8 taps -> 8 muls + 7 adds.
        assert_eq!(ops.muls, 8 * 7 + 8);
        assert_eq!(ops.adds, 8 * 6 + 7);
    }
}
