//! Double-precision radix-2 FFT and periodogram.
//!
//! Small and allocation-light; it computes the error power spectral
//! density metric. The fixed-point FFT application is not scored against
//! it: that workload scores against its own run in the exact context.

use std::f64::consts::PI;

/// In-place radix-2 decimation-in-time FFT of a complex signal.
///
/// `re`/`im` hold the real and imaginary parts; the length must be a
/// power of two.
///
/// # Panics
/// Panics if the lengths differ or are not a power of two.
pub fn fft_complex(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    assert_eq!(n, im.len(), "mismatched component lengths");
    assert!(n.is_power_of_two(), "length must be a power of two");
    if n <= 1 {
        return;
    }
    // bit-reversal permutation
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let i = start + k;
                let j = i + len / 2;
                let tr = re[j] * cr - im[j] * ci;
                let ti = re[j] * ci + im[j] * cr;
                re[j] = re[i] - tr;
                im[j] = im[i] - ti;
                re[i] += tr;
                im[i] += ti;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
        }
        len <<= 1;
    }
}

/// One-sided periodogram (power per frequency bin) of a real signal whose
/// length is truncated to the largest power of two.
///
/// # Example
/// ```
/// // a pure tone concentrates its power in one bin
/// let signal: Vec<f64> = (0..256)
///     .map(|t| (2.0 * std::f64::consts::PI * 32.0 * t as f64 / 256.0).sin())
///     .collect();
/// let psd = apx_metrics::spectrum::periodogram(&signal);
/// let peak = psd
///     .iter()
///     .enumerate()
///     .max_by(|a, b| a.1.total_cmp(b.1))
///     .unwrap()
///     .0;
/// assert_eq!(peak, 32);
/// ```
#[must_use]
pub fn periodogram(signal: &[f64]) -> Vec<f64> {
    if signal.is_empty() {
        return Vec::new();
    }
    let n = if signal.len().is_power_of_two() {
        signal.len()
    } else {
        signal.len().next_power_of_two() / 2
    };
    let mut re: Vec<f64> = signal[..n].to_vec();
    let mut im = vec![0.0; n];
    fft_complex(&mut re, &mut im);
    (0..n / 2)
        .map(|k| (re[k] * re[k] + im[k] * im[k]) / n as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut re = vec![0.0; 16];
        let mut im = vec![0.0; 16];
        re[0] = 1.0;
        fft_complex(&mut re, &mut im);
        for k in 0..16 {
            assert!((re[k] - 1.0).abs() < 1e-12);
            assert!(im[k].abs() < 1e-12);
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 32;
        let signal: Vec<f64> = (0..n).map(|t| ((t * t) % 7) as f64 - 3.0).collect();
        let mut re = signal.clone();
        let mut im = vec![0.0; n];
        fft_complex(&mut re, &mut im);
        for k in 0..n {
            let (mut dr, mut di) = (0.0, 0.0);
            for (t, &x) in signal.iter().enumerate() {
                let ang = -2.0 * PI * (k * t) as f64 / n as f64;
                dr += x * ang.cos();
                di += x * ang.sin();
            }
            assert!((re[k] - dr).abs() < 1e-9, "k={k}");
            assert!((im[k] - di).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let n = 128;
        let signal: Vec<f64> = (0..n).map(|t| ((t * 31) % 17) as f64 - 8.0).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let mut re = signal.clone();
        let mut im = vec![0.0; n];
        fft_complex(&mut re, &mut im);
        let freq_energy: f64 =
            re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }
}
