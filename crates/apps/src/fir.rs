//! FIR low-pass filtering through swappable arithmetic — the first
//! workload added purely via the [`Workload`]
//! abstraction (one trait impl, one registry entry, no bespoke wiring).
//!
//! A 31-tap Hamming-windowed sinc low-pass filter over a seeded random
//! Q15 signal. Every multiply-accumulate of the convolution runs through
//! the [`OperatorCtx`]; the exact-arithmetic output is the reference and
//! the score is the output **SNR** (signal power over error power — the
//! natural metric for a filter, where PSNR's peak normalization would
//! flatter quiet signals).

use crate::workload::{Prepared, Workload, WorkloadRun};
use crate::OperatorCtx;
use apx_fixture::signal;
use apx_metrics::QualityScore;
use apx_operators::{SiteOps, SiteSpec};

/// Q15 fractional bits of the filter taps.
const TAP_FRAC: u32 = 15;

/// Call-site tag of the multiply-accumulate kernel.
pub const SITE_MAC: &str = "fir.mac";

/// Declared call-sites of the FIR workload.
pub const SITES: &[SiteSpec] = &[SiteSpec {
    tag: SITE_MAC,
    ops: SiteOps::AddMul,
    summary: "tap product and running accumulate of the convolution",
}];

/// Hamming-windowed sinc low-pass taps in Q15 (`cutoff` in cycles per
/// sample, `0 < cutoff < 0.5`), normalized to unit DC gain before
/// quantization.
///
/// # Panics
/// Panics if `taps` is even or below 3 (a 1-tap "filter" has no window
/// to compute), or `cutoff` is out of range.
#[must_use]
pub fn lowpass_taps_q15(taps: usize, cutoff: f64) -> Vec<i64> {
    assert!(taps % 2 == 1 && taps >= 3, "odd tap count >= 3 required");
    assert!(cutoff > 0.0 && cutoff < 0.5, "cutoff out of (0, 0.5)");
    let mid = (taps / 2) as f64;
    let ideal: Vec<f64> = (0..taps)
        .map(|i| {
            let t = i as f64 - mid;
            let sinc = if t == 0.0 {
                2.0 * cutoff
            } else {
                (std::f64::consts::TAU * cutoff * t).sin() / (std::f64::consts::PI * t)
            };
            let window = 0.54 - 0.46 * (std::f64::consts::TAU * i as f64 / (taps - 1) as f64).cos();
            sinc * window
        })
        .collect();
    let gain: f64 = ideal.iter().sum();
    ideal
        .iter()
        .map(|&h| ((h / gain) * f64::from(1 << TAP_FRAC)).round() as i64)
        .collect()
}

/// Convolves `input` with `taps` through `ctx` (zero-padded edges): one
/// multiply per tap and one accumulate per partial product, products
/// rescaled out of Q15 by wiring shifts.
pub fn fir_filter(input: &[i64], taps: &[i64], ctx: &mut OperatorCtx) -> Vec<i64> {
    let half = (taps.len() / 2) as isize;
    (0..input.len() as isize)
        .map(|i| {
            let mut acc: Option<i64> = None;
            for (k, &t) in taps.iter().enumerate() {
                let j = i + k as isize - half;
                if j < 0 || j >= input.len() as isize || t == 0 {
                    continue;
                }
                let p = ctx.mul_at(SITE_MAC, t, input[j as usize]) >> TAP_FRAC;
                acc = Some(match acc {
                    None => p,
                    Some(a) => ctx.add_at(SITE_MAC, a, p),
                });
            }
            acc.unwrap_or(0)
        })
        .collect()
}

/// The registered FIR workload: a fixed 31-tap low-pass filter (cutoff
/// 0.2 cycles/sample) over a seeded 512-sample random Q15 signal, scored
/// by output SNR against the exact-arithmetic filtering.
#[derive(Debug, Clone, Copy)]
pub struct FirWorkload {
    taps: usize,
    len: usize,
}

impl FirWorkload {
    /// Workload with an explicit odd tap count and signal length.
    ///
    /// # Panics
    /// Panics if `taps` is even or below 3, or `len` is zero.
    #[must_use]
    pub fn new(taps: usize, len: usize) -> Self {
        assert!(taps % 2 == 1 && taps >= 3, "odd tap count >= 3 required");
        assert!(len > 0, "empty signal");
        FirWorkload { taps, len }
    }
}

impl Default for FirWorkload {
    /// The registered configuration: 31 taps over 512 samples.
    fn default() -> Self {
        FirWorkload::new(31, 512)
    }
}

/// Pass-band cutoff of the registered low-pass, in cycles per sample.
const CUTOFF: f64 = 0.2;

impl Workload for FirWorkload {
    fn name(&self) -> &'static str {
        "fir"
    }

    fn default_seed(&self) -> u64 {
        0xF1C
    }

    fn fingerprint(&self) -> String {
        format!("fir/v1:taps={},len={},cutoff={CUTOFF}", self.taps, self.len)
    }

    fn sites(&self) -> &'static [SiteSpec] {
        SITES
    }

    fn prepare(&self, seed: u64) -> Prepared<'_> {
        let (input, _) = signal::random_q15(self.len, 8_191, seed);
        let taps = lowpass_taps_q15(self.taps, CUTOFF);
        let reference = fir_filter(&input, &taps, &mut OperatorCtx::exact());
        Box::new(move |ctx| {
            ctx.reset_counts();
            let output = fir_filter(&input, &taps, ctx);
            WorkloadRun {
                score: QualityScore::snr(&reference, &output),
                counts: ctx.counts(),
                aux: Vec::new(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_operators::{OperatorConfig, OperatorCtx};

    #[test]
    fn taps_are_unit_gain_lowpass() {
        let taps = lowpass_taps_q15(31, 0.2);
        assert_eq!(taps.len(), 31);
        // DC gain ≈ 1.0 in Q15 after normalization (quantization slack)
        let dc: i64 = taps.iter().sum();
        assert!((dc - (1 << TAP_FRAC)).abs() <= 31, "DC gain {dc}");
        // symmetric (linear phase)
        for k in 0..taps.len() / 2 {
            assert_eq!(taps[k], taps[taps.len() - 1 - k]);
        }
    }

    #[test]
    fn dc_signal_passes_through() {
        let taps = lowpass_taps_q15(31, 0.2);
        let input = vec![8_000i64; 128];
        let mut ctx = OperatorCtx::exact();
        let out = fir_filter(&input, &taps, &mut ctx);
        // away from the zero-padded edges the DC level is preserved
        for &v in &out[31..out.len() - 31] {
            assert!((v - 8_000).abs() <= 40, "DC drifted to {v}");
        }
    }

    #[test]
    fn lowpass_attenuates_a_stop_band_tone() {
        let taps = lowpass_taps_q15(63, 0.1);
        let n = 256;
        let (pass, _) = signal::tone_mix_q15(n, &[(8.0, 10_000)]); // 8/256 ≈ 0.03
        let (stop, _) = signal::tone_mix_q15(n, &[(110.0, 10_000)]); // 110/256 ≈ 0.43
        let mut ctx = OperatorCtx::exact();
        let power = |x: &[i64]| x.iter().map(|&v| (v as f64).powi(2)).sum::<f64>();
        let passed = power(&fir_filter(&pass, &taps, &mut ctx));
        let stopped = power(&fir_filter(&stop, &taps, &mut ctx));
        assert!(
            passed > 100.0 * stopped,
            "pass {passed:.0} vs stop {stopped:.0}"
        );
    }

    #[test]
    fn exact_run_scores_infinite_snr_and_counts_macs() {
        let workload = FirWorkload::default();
        let mut ctx = OperatorCtx::exact();
        let run = workload.run(3, &mut ctx);
        assert_eq!(run.score, QualityScore::SnrDb(f64::INFINITY));
        // interior samples: 31 muls and 30 adds each; edges fewer
        assert!(run.counts.muls > run.counts.adds);
        assert!(run.counts.muls <= 31 * 512);
    }

    #[test]
    fn approximation_degrades_snr_monotonically() {
        let workload = FirWorkload::default();
        let snr_of = |q: u32| {
            let mut ctx = OperatorCtx::for_config(&OperatorConfig::AddTrunc { n: 16, q });
            workload.run(3, &mut ctx).score.value()
        };
        let (hi, lo) = (snr_of(14), snr_of(6));
        assert!(hi > lo, "SNR {hi} must beat {lo}");
        assert!(hi > 30.0, "near-exact sizing keeps SNR high: {hi}");
    }
}
