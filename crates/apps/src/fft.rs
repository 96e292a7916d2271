//! Fixed-point radix-2 FFT (§V-A, Fig. 5, Table II).
//!
//! A decimation-in-time FFT on 16-bit complex data with Q15 twiddle
//! factors. Every addition and multiplication of the butterflies goes
//! through the [`OperatorCtx`]; a `>>1` block-floating scale per stage
//! keeps the data inside 16 bits (standard fixed-point FFT practice, and
//! the reason the paper can run it on 16-bit operators).

use crate::workload::{Prepared, Workload, WorkloadRun};
use crate::{OpCounts, OperatorCtx};
use apx_fixture::signal;
use apx_metrics::QualityScore;
use apx_operators::{SiteOps, SiteSpec};

/// Q15 fractional bits of the twiddle factors.
const TWIDDLE_FRAC: u32 = 15;

/// Call-site tag of the complex twiddle product.
pub const SITE_TWIDDLE: &str = "fft.twiddle";

/// Call-site tag of the butterfly combine with per-stage scaling.
pub const SITE_BUTTERFLY: &str = "fft.butterfly";

/// Declared call-sites of the FFT workload.
pub const SITES: &[SiteSpec] = &[
    SiteSpec {
        tag: SITE_TWIDDLE,
        ops: SiteOps::AddMul,
        summary: "complex twiddle product (4 muls + 2 combining adds per butterfly)",
    },
    SiteSpec {
        tag: SITE_BUTTERFLY,
        ops: SiteOps::Add,
        summary: "butterfly add/sub with per-stage >>1 scaling (4 adds per butterfly)",
    },
];

/// Precomputed Q15 twiddle table for an `n`-point FFT (`w_k = e^{-2πik/n}`,
/// `k < n/2`).
fn twiddles_q15(n: usize) -> Vec<(i64, i64)> {
    (0..n / 2)
        .map(|k| {
            let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            (
                // clamp to the signed Q15 range: cos(0)·2^15 = 32768 would
                // overflow a 16-bit operand and flip sign
                ((ang.cos() * f64::from(1 << TWIDDLE_FRAC)).round() as i64).clamp(-32_767, 32_767),
                ((ang.sin() * f64::from(1 << TWIDDLE_FRAC)).round() as i64).clamp(-32_767, 32_767),
            )
        })
        .collect()
}

/// In-place fixed-point radix-2 DIT FFT through an [`OperatorCtx`].
///
/// Data is complex Q15 (`re`/`im`), length a power of two. Each stage
/// halves the data (block floating point), so an `n`-point transform
/// scales the result by `1/n` relative to the textbook DFT.
///
/// # Panics
/// Panics if lengths differ or are not a power of two.
pub fn fft_fixed(re: &mut [i64], im: &mut [i64], ctx: &mut OperatorCtx) {
    let n = re.len();
    assert_eq!(n, im.len(), "mismatched component lengths");
    assert!(
        n.is_power_of_two() && n >= 2,
        "length must be a power of two"
    );
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let tw = twiddles_q15(n);
    let mut len = 2;
    while len <= n {
        let step = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let i = start + k;
                let j = i + len / 2;
                let (wr, wi) = tw[k * step];
                // t = w * x[j]   (4 mults + 2 adds, schoolbook)
                let prod_rr = ctx.mul_at(SITE_TWIDDLE, wr, re[j]) >> TWIDDLE_FRAC;
                let prod_ii = ctx.mul_at(SITE_TWIDDLE, wi, im[j]) >> TWIDDLE_FRAC;
                let prod_ri = ctx.mul_at(SITE_TWIDDLE, wr, im[j]) >> TWIDDLE_FRAC;
                let prod_ir = ctx.mul_at(SITE_TWIDDLE, wi, re[j]) >> TWIDDLE_FRAC;
                let tr = ctx.sub_at(SITE_TWIDDLE, prod_rr, prod_ii);
                let ti = ctx.add_at(SITE_TWIDDLE, prod_ri, prod_ir);
                // butterfly with per-stage >>1 scaling (4 adds)
                let (ur, ui) = (re[i], im[i]);
                re[i] = ctx.add_at(SITE_BUTTERFLY, ur, tr) >> 1;
                im[i] = ctx.add_at(SITE_BUTTERFLY, ui, ti) >> 1;
                re[j] = ctx.sub_at(SITE_BUTTERFLY, ur, tr) >> 1;
                im[j] = ctx.sub_at(SITE_BUTTERFLY, ui, ti) >> 1;
            }
        }
        len <<= 1;
    }
}

/// Result of one FFT run.
#[derive(Debug, Clone, PartialEq)]
pub struct FftResult {
    /// Real output.
    pub re: Vec<i64>,
    /// Imaginary output.
    pub im: Vec<i64>,
    /// PSNR against the exact-arithmetic fixed-point reference.
    pub score: QualityScore,
    /// Operations executed through the context.
    pub counts: OpCounts,
}

/// The paper's FFT workload: a 32-point transform on 16-bit random data,
/// with the exact-context output as the accuracy reference.
#[derive(Debug, Clone)]
pub struct FftFixture {
    input_re: Vec<i64>,
    input_im: Vec<i64>,
    ref_re: Vec<i64>,
    ref_im: Vec<i64>,
}

impl FftFixture {
    /// 32-point FFT fixture on a seeded uniform random Q15 signal
    /// (amplitude 1/4 full scale, the usual headroom choice).
    #[must_use]
    pub fn radix2_32(seed: u64) -> Self {
        FftFixture::new(32, seed)
    }

    /// Fixture with an arbitrary power-of-two size.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two ≥ 2.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "n must be a power of two");
        let (input_re, input_im) = signal::random_q15(n, 8_191, seed);
        let mut ref_re = input_re.clone();
        let mut ref_im = input_im.clone();
        let mut exact = OperatorCtx::exact();
        fft_fixed(&mut ref_re, &mut ref_im, &mut exact);
        FftFixture {
            input_re,
            input_im,
            ref_re,
            ref_im,
        }
    }

    /// Transform length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.input_re.len()
    }

    /// Whether the fixture is empty (never true; included for API
    /// completeness alongside [`FftFixture::len`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.input_re.is_empty()
    }

    /// Runs the FFT through `ctx`, scoring against the exact reference.
    pub fn run(&self, ctx: &mut OperatorCtx) -> FftResult {
        ctx.reset_counts();
        let mut re = self.input_re.clone();
        let mut im = self.input_im.clone();
        fft_fixed(&mut re, &mut im, ctx);
        let reference: Vec<i64> = self.ref_re.iter().chain(&self.ref_im).copied().collect();
        let test: Vec<i64> = re.iter().chain(&im).copied().collect();
        let score = QualityScore::psnr(&reference, &test);
        FftResult {
            re,
            im,
            score,
            counts: ctx.counts(),
        }
    }
}

/// The registered FFT workload: an `n`-point transform (default the
/// paper's 32) on a seeded random Q15 signal, scored by output PSNR.
#[derive(Debug, Clone, Copy)]
pub struct FftWorkload {
    len: usize,
}

impl FftWorkload {
    /// Workload with an explicit transform length (power of two ≥ 2).
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len.is_power_of_two() && len >= 2, "power-of-two length");
        FftWorkload { len }
    }
}

impl Default for FftWorkload {
    /// The paper's 32-point configuration.
    fn default() -> Self {
        FftWorkload::new(32)
    }
}

impl Workload for FftWorkload {
    fn name(&self) -> &'static str {
        "fft"
    }

    /// Legacy fixture seed of the `fig5`/`table2` binaries.
    fn default_seed(&self) -> u64 {
        0xF17
    }

    fn fingerprint(&self) -> String {
        format!("fft/v1:len={}", self.len)
    }

    fn sites(&self) -> &'static [SiteSpec] {
        SITES
    }

    fn prepare(&self, seed: u64) -> Prepared<'_> {
        let fixture = FftFixture::new(self.len, seed);
        Box::new(move |ctx| {
            let result = fixture.run(ctx);
            WorkloadRun {
                score: result.score,
                counts: result.counts,
                aux: Vec::new(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_operators::OperatorConfig;
    use apx_operators::OperatorCtx;

    #[test]
    fn exact_run_scores_infinite_psnr() {
        let fixture = FftFixture::radix2_32(1);
        let mut ctx = OperatorCtx::exact();
        let result = fixture.run(&mut ctx);
        assert_eq!(result.score, QualityScore::PsnrDb(f64::INFINITY));
    }

    #[test]
    fn op_counts_match_the_radix2_structure() {
        // n/2·log2(n) butterflies, each 4 muls and 6 adds.
        let fixture = FftFixture::radix2_32(1);
        let mut ctx = OperatorCtx::exact();
        let result = fixture.run(&mut ctx);
        let butterflies = 32 / 2 * 5;
        assert_eq!(result.counts.muls, 4 * butterflies);
        assert_eq!(result.counts.adds, 6 * butterflies);
    }

    #[test]
    fn fixed_point_fft_matches_float_reference_shape() {
        // Transform a pure tone: the energy must land in the right bin.
        let n = 32;
        let (re, im) = apx_fixture::signal::tone_mix_q15(n, &[(4.0, 8_000)]);
        let mut fre = re.clone();
        let mut fim = im.clone();
        let mut ctx = OperatorCtx::exact();
        fft_fixed(&mut fre, &mut fim, &mut ctx);
        let mag: Vec<f64> = fre
            .iter()
            .zip(&fim)
            .map(|(&r, &i)| ((r * r + i * i) as f64).sqrt())
            .collect();
        let peak = mag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(peak == 4 || peak == n - 4, "tone bin, got {peak}");
    }

    #[test]
    fn truncated_adders_degrade_psnr_monotonically() {
        let fixture = FftFixture::radix2_32(3);
        let psnr_of = |q: u32| {
            let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q });
            fixture.run(&mut ctx).score.value()
        };
        let (hi, mid, lo) = (psnr_of(15), psnr_of(11), psnr_of(7));
        assert!(hi > mid && mid > lo, "psnr {hi} > {mid} > {lo} expected");
        assert!(hi > 40.0, "near-exact sizing must score high: {hi}");
    }

    #[test]
    fn approximate_adder_also_degrades_output() {
        let fixture = FftFixture::radix2_32(3);
        let mut ctx = OperatorCtx::for_config(&OperatorConfig::RcaApx {
            n: 16,
            m: 4,
            fa_type: apx_operators::FaType::Three,
        });
        let result = fixture.run(&mut ctx);
        assert!(result.score.value() < 40.0);
    }
}
