//! The operator-level error-metric accumulator.

use apx_netlist::transpose64;
use apx_operators::{centered_diff, sext};
use serde::{Deserialize, Serialize};

/// Number of error samples captured for PSD estimation.
pub const PSD_CAPTURE_LEN: usize = 4096;

/// Online accumulator of every §III error metric over a stream of
/// `(reference, approximate)` output pairs.
///
/// The error is the centered modular difference `e = x − x̂` (see
/// [`apx_operators::centered_diff`]); bit metrics compare the two output
/// patterns positionally over the full reference width, which is how the
/// paper penalizes truncated operators whose dropped LSBs are implicitly
/// forced to zero.
///
/// [`ErrorStats::record_batch`] is the one accumulation body, and
/// [`ErrorStats::record`] is its one-pair form. Recording a stream in
/// batches of any sizes yields the same state, bit for bit, as recording
/// it pair by pair: every floating-point sum is taken in sample order,
/// and only the integer bit-flip counts are gathered per 64-sample block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorStats {
    ref_bits: u32,
    fullscale_bits: u32,
    samples: u64,
    sum_e: i128,
    sum_e2: f64,
    sum_abs_e: u128,
    sum_rel: f64,
    rel_samples: u64,
    min_e: i64,
    max_e: i64,
    nonzero: u64,
    bit_flips: Vec<u64>,
    /// `magnitude_bins[k]` counts samples with `2^(k-1) <= |e| < 2^k`
    /// (`k = 0` counts exact results).
    magnitude_bins: Vec<u64>,
    psd_capture: Vec<f64>,
}

impl ErrorStats {
    /// Creates an accumulator for outputs of `ref_bits` width with the
    /// MSE-normalization full scale `2^fullscale_bits`.
    ///
    /// # Panics
    /// Panics unless `1 <= ref_bits <= 63`.
    #[must_use]
    pub fn new(ref_bits: u32, fullscale_bits: u32) -> Self {
        assert!((1..=63).contains(&ref_bits), "ref_bits out of range");
        ErrorStats {
            ref_bits,
            fullscale_bits,
            samples: 0,
            sum_e: 0,
            sum_e2: 0.0,
            sum_abs_e: 0,
            sum_rel: 0.0,
            rel_samples: 0,
            min_e: i64::MAX,
            max_e: i64::MIN,
            nonzero: 0,
            bit_flips: vec![0; ref_bits as usize],
            magnitude_bins: vec![0; ref_bits as usize + 2],
            psd_capture: Vec::new(),
        }
    }

    /// Records one `(reference, approximate)` output pair (both already
    /// aligned to the reference scale).
    pub fn record(&mut self, reference: u64, approx: u64) {
        self.record_batch(&[reference], &[approx]);
    }

    /// Records the pairs `(refs[i], outs[i])` in index order (both already
    /// aligned to the reference scale).
    ///
    /// Every accumulator except the bit flips advances one sample at a
    /// time in index order, so the floating-point sums, min/max, the
    /// magnitude bins and the PSD capture come out the same however a
    /// stream is split into batches. Bit flips are integer counts taken
    /// per 64-sample block: the block's `reference ^ approx` words are
    /// transposed so that row `k` holds bit `k` of every sample, and the
    /// row's popcount is added to position `k` (bits at or above the
    /// reference width are ignored).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn record_batch(&mut self, refs: &[u64], outs: &[u64]) {
        assert_eq!(refs.len(), outs.len(), "reference/output length mismatch");
        let bits = self.ref_bits;
        let mut sum_e = self.sum_e;
        let mut sum_e2 = self.sum_e2;
        let mut sum_abs_e = self.sum_abs_e;
        let mut sum_rel = self.sum_rel;
        let mut rel_samples = self.rel_samples;
        let mut min_e = self.min_e;
        let mut max_e = self.max_e;
        let mut nonzero = self.nonzero;
        let bins = &mut self.magnitude_bins[..];
        let last_bin = bins.len() - 1;
        let capture = &mut self.psd_capture;
        let mut block = [0u64; 64];
        for (ref_block, out_block) in refs.chunks(64).zip(outs.chunks(64)) {
            for ((&r, &o), xor) in ref_block.iter().zip(out_block).zip(&mut block) {
                let e = centered_diff(r, o, bits);
                sum_e += i128::from(e);
                sum_e2 += (e as f64) * (e as f64);
                sum_abs_e += u128::from(e.unsigned_abs());
                min_e = min_e.min(e);
                max_e = max_e.max(e);
                nonzero += u64::from(e != 0);
                // relative error (skip zero references, as APXPERF does)
                let signed_ref = sext(r, bits);
                if signed_ref != 0 {
                    sum_rel += (e as f64 / signed_ref as f64).abs();
                    rel_samples += 1;
                }
                // leading_zeros(0) = 64 puts e = 0 in bin 0
                let bin = (64 - e.unsigned_abs().leading_zeros()) as usize;
                bins[bin.min(last_bin)] += 1;
                if capture.len() < PSD_CAPTURE_LEN {
                    capture.push(e as f64);
                }
                *xor = r ^ o;
            }
            block[ref_block.len()..].fill(0);
            transpose64(&mut block);
            for (flips, row) in self.bit_flips.iter_mut().zip(&block) {
                *flips += u64::from(row.count_ones());
            }
        }
        self.samples += refs.len() as u64;
        self.sum_e = sum_e;
        self.sum_e2 = sum_e2;
        self.sum_abs_e = sum_abs_e;
        self.sum_rel = sum_rel;
        self.rel_samples = rel_samples;
        self.min_e = min_e;
        self.max_e = max_e;
        self.nonzero = nonzero;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean error (bias) `µe = E[e]` in reference LSBs.
    #[must_use]
    pub fn mean_error(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum_e as f64 / self.samples as f64
    }

    /// Mean square error `E[e²]` in squared reference LSBs.
    #[must_use]
    pub fn mse(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum_e2 / self.samples as f64
    }

    /// MSE in dB relative to the full scale:
    /// `10·log10(E[e²] / 2^(2·fullscale_bits))`.
    ///
    /// Exact operators (MSE = 0) report −∞ as `f64::NEG_INFINITY`.
    #[must_use]
    pub fn mse_db(&self) -> f64 {
        let mse = self.mse();
        if mse == 0.0 {
            return f64::NEG_INFINITY;
        }
        10.0 * mse.log10() - 20.0 * f64::from(self.fullscale_bits) * 2.0f64.log10()
    }

    /// Mean absolute error `E[|e|]`.
    #[must_use]
    pub fn mae(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum_abs_e as f64 / self.samples as f64
    }

    /// Mean absolute relative error `E[|e / x|]` over nonzero references.
    #[must_use]
    pub fn relative_error(&self) -> f64 {
        if self.rel_samples == 0 {
            return 0.0;
        }
        self.sum_rel / self.rel_samples as f64
    }

    /// Smallest observed error (`min e`).
    #[must_use]
    pub fn min_error(&self) -> i64 {
        if self.samples == 0 {
            0
        } else {
            self.min_e
        }
    }

    /// Largest observed error (`max e`).
    #[must_use]
    pub fn max_error(&self) -> i64 {
        if self.samples == 0 {
            0
        } else {
            self.max_e
        }
    }

    /// Error rate `P[x ≠ x̂]`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.nonzero as f64 / self.samples as f64
    }

    /// Bit error rate: mean fraction of flipped bits over the reference
    /// width.
    #[must_use]
    pub fn ber(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let flips: u64 = self.bit_flips.iter().sum();
        flips as f64 / (self.samples as f64 * f64::from(self.ref_bits))
    }

    /// Positional BER `E[x_k ⊕ x̂_k]` for bit `k`.
    ///
    /// # Panics
    /// Panics if `k >= ref_bits`.
    #[must_use]
    pub fn positional_ber(&self, k: u32) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.bit_flips[k as usize] as f64 / self.samples as f64
    }

    /// Acceptance probability `P[|e| < 2^k]` — the AP-vs-MAA metric for
    /// power-of-two Minimum Acceptable Accuracy thresholds.
    #[must_use]
    pub fn acceptance_probability_pow2(&self, k: u32) -> f64 {
        if self.samples == 0 {
            return 1.0;
        }
        let upto = (k as usize + 1).min(self.magnitude_bins.len());
        let accepted: u64 = self.magnitude_bins[..upto].iter().sum();
        accepted as f64 / self.samples as f64
    }

    /// The log₂-binned PDF of `|e|`: `pdf()[0]` is the probability of an
    /// exact result, `pdf()[k]` of `2^(k-1) <= |e| < 2^k`.
    #[must_use]
    pub fn pdf(&self) -> Vec<f64> {
        if self.samples == 0 {
            return vec![0.0; self.magnitude_bins.len()];
        }
        self.magnitude_bins
            .iter()
            .map(|&c| c as f64 / self.samples as f64)
            .collect()
    }

    /// Power spectral density of the captured error sequence: the
    /// periodogram of the largest power-of-two prefix of the first
    /// [`PSD_CAPTURE_LEN`] errors. Returns the one-sided spectrum (half as
    /// many bins as samples used); empty if fewer than 8 samples were
    /// recorded.
    #[must_use]
    pub fn psd(&self) -> Vec<f64> {
        if self.psd_capture.len() < 8 {
            return Vec::new();
        }
        crate::spectrum::periodogram(&self.psd_capture)
    }

    /// Merges another accumulator (same widths) into this one — the "Data
    /// Fusion" step when characterization is sharded.
    ///
    /// # Panics
    /// Panics if widths differ.
    pub fn merge(&mut self, other: &ErrorStats) {
        assert_eq!(self.ref_bits, other.ref_bits, "width mismatch");
        assert_eq!(self.fullscale_bits, other.fullscale_bits);
        self.samples += other.samples;
        self.sum_e += other.sum_e;
        self.sum_e2 += other.sum_e2;
        self.sum_abs_e += other.sum_abs_e;
        self.sum_rel += other.sum_rel;
        self.rel_samples += other.rel_samples;
        self.min_e = self.min_e.min(other.min_e);
        self.max_e = self.max_e.max(other.max_e);
        self.nonzero += other.nonzero;
        for (a, b) in self.bit_flips.iter_mut().zip(&other.bit_flips) {
            *a += b;
        }
        for (a, b) in self.magnitude_bins.iter_mut().zip(&other.magnitude_bins) {
            *a += b;
        }
        for &e in &other.psd_capture {
            if self.psd_capture.len() < PSD_CAPTURE_LEN {
                self.psd_capture.push(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_stream_has_all_zero_metrics() {
        let mut s = ErrorStats::new(16, 15);
        for v in 0..1000u64 {
            s.record(v, v);
        }
        assert_eq!(s.mse(), 0.0);
        assert_eq!(s.mse_db(), f64::NEG_INFINITY);
        assert_eq!(s.ber(), 0.0);
        assert_eq!(s.error_rate(), 0.0);
        assert_eq!(s.mean_error(), 0.0);
        assert_eq!(s.acceptance_probability_pow2(0), 1.0);
    }

    #[test]
    fn constant_error_of_one_lsb() {
        let mut s = ErrorStats::new(16, 15);
        for v in 0..1024u64 {
            s.record(v + 1, v);
        }
        assert!((s.mse() - 1.0).abs() < 1e-12);
        assert!((s.mean_error() - 1.0).abs() < 1e-12);
        assert!((s.mae() - 1.0).abs() < 1e-12);
        assert_eq!(s.error_rate(), 1.0);
        assert_eq!(s.min_error(), 1);
        assert_eq!(s.max_error(), 1);
        // MSE_dB = 10*log10(1 / 2^30) = -90.3 dB
        assert!((s.mse_db() + 90.3).abs() < 0.1, "{}", s.mse_db());
    }

    #[test]
    fn ber_counts_forced_zero_bits() {
        // emulate a truncated operator: low 8 of 16 bits zeroed
        let mut s = ErrorStats::new(16, 15);
        let mut x = 0x9E3779B9u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = (x >> 20) & 0xFFFF;
            s.record(r, r & 0xFF00);
        }
        // each low bit flips with probability ~1/2 -> BER ~ 8*0.5/16 = 0.25
        assert!((s.ber() - 0.25).abs() < 0.02, "ber={}", s.ber());
        assert!(s.positional_ber(0) > 0.45);
        assert!(s.positional_ber(15) < 0.05);
    }

    #[test]
    fn acceptance_probability_is_monotone_in_the_threshold() {
        let mut s = ErrorStats::new(16, 15);
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let r = x & 0xFFFF;
            let e = (x >> 48) & 0x3F; // errors up to 63 LSBs
            s.record(r, r.wrapping_sub(e) & 0xFFFF);
        }
        let mut last = 0.0;
        for k in 0..10 {
            let ap = s.acceptance_probability_pow2(k);
            assert!(ap >= last, "AP must grow with MAA");
            last = ap;
        }
        assert!((s.acceptance_probability_pow2(16) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_pass() {
        let mut all = ErrorStats::new(12, 11);
        let mut a = ErrorStats::new(12, 11);
        let mut b = ErrorStats::new(12, 11);
        for v in 0..2000u64 {
            let r = (v * 37) & 0xFFF;
            let apx = (r.wrapping_sub(v % 5)) & 0xFFF;
            all.record(r, apx);
            if v % 2 == 0 {
                a.record(r, apx);
            } else {
                b.record(r, apx);
            }
        }
        a.merge(&b);
        assert_eq!(a.samples(), all.samples());
        assert!((a.mse() - all.mse()).abs() < 1e-9);
        assert!((a.ber() - all.ber()).abs() < 1e-12);
        assert_eq!(a.min_error(), all.min_error());
    }

    #[test]
    fn pdf_sums_to_one() {
        let mut s = ErrorStats::new(16, 15);
        for v in 0..5000u64 {
            s.record(v & 0xFFFF, (v.wrapping_add(v % 17)) & 0xFFFF);
        }
        let total: f64 = s.pdf().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn psd_uses_the_whole_power_of_two_capture() {
        let mut s = ErrorStats::new(16, 15);
        for v in 0..8u64 {
            s.record(v, 0);
        }
        assert_eq!(s.psd().len(), 4);
        for v in 0..PSD_CAPTURE_LEN as u64 {
            s.record(v & 0xFFFF, 0);
        }
        assert_eq!(s.psd().len(), PSD_CAPTURE_LEN / 2);
    }

    #[test]
    fn psd_of_white_error_is_flat_ish() {
        let mut s = ErrorStats::new(16, 15);
        let mut x = 777u64;
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (x >> 16) & 0xFFFF;
            let e = (x >> 40) & 0x7;
            s.record(r, r.wrapping_sub(e) & 0xFFFF);
        }
        let psd = s.psd();
        assert!(!psd.is_empty());
        // flatness away from DC (the truncation-style bias lands in bin 0):
        // no AC bin should dominate white-ish noise by a huge factor
        let ac = &psd[1..];
        let mean = ac.iter().sum::<f64>() / ac.len() as f64;
        let max = ac.iter().copied().fold(0.0f64, f64::max);
        assert!(max < 100.0 * mean, "PSD should not have huge AC peaks");
    }
}
