//! Bit-manipulation helpers shared by the operator models.

use std::ops::RangeInclusive;

/// Operand widths `n` every adder family accepts.
pub const ADDER_WIDTHS: RangeInclusive<u32> = 2..=32;

/// Operand widths `n` every array multiplier accepts. AAM and the Booth
/// multipliers start at 4 bits but end at the same width.
pub const MULTIPLIER_WIDTHS: RangeInclusive<u32> = 2..=24;

/// `Ok` when `ok` holds, else `Err(message())`: the shape of every
/// constructor's parameter check.
pub(crate) fn require(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

/// Checks an adder's operand width against [`ADDER_WIDTHS`].
pub(crate) fn check_adder_width(n: u32) -> Result<(), String> {
    require(ADDER_WIDTHS.contains(&n), || {
        format!("adder width n={n} out of range {ADDER_WIDTHS:?}")
    })
}

/// Checks a multiplier's operand width against [`MULTIPLIER_WIDTHS`].
pub(crate) fn check_multiplier_width(n: u32) -> Result<(), String> {
    require(MULTIPLIER_WIDTHS.contains(&n), || {
        format!("multiplier width n={n} out of range {MULTIPLIER_WIDTHS:?}")
    })
}

/// Mask with the low `bits` bits set. `bits` may be 0..=64.
///
/// # Example
/// ```
/// assert_eq!(apx_operators::mask_u(4), 0xF);
/// assert_eq!(apx_operators::mask_u(0), 0);
/// ```
#[must_use]
#[inline]
pub fn mask_u(bits: u32) -> u64 {
    if bits >= 64 {
        !0
    } else {
        (1u64 << bits) - 1
    }
}

/// Sign-extends the low `bits` bits of `v` into an `i64`.
///
/// # Example
/// ```
/// assert_eq!(apx_operators::sext(0xF, 4), -1);
/// assert_eq!(apx_operators::sext(0x7, 4), 7);
/// ```
///
/// # Panics
/// Panics if `bits` is 0 or greater than 64.
#[must_use]
#[inline]
pub fn sext(v: u64, bits: u32) -> i64 {
    assert!((1..=64).contains(&bits), "bits out of range");
    let shift = 64 - bits;
    ((v << shift) as i64) >> shift
}

/// Converts a signed value to its `bits`-bit two's-complement pattern.
///
/// # Example
/// ```
/// assert_eq!(apx_operators::to_u(-1, 4), 0xF);
/// ```
#[must_use]
#[inline]
pub fn to_u(v: i64, bits: u32) -> u64 {
    (v as u64) & mask_u(bits)
}

/// Bit `i` of `v` as 0/1.
#[must_use]
#[inline]
pub(crate) fn bit(v: u64, i: u32) -> u64 {
    (v >> i) & 1
}

/// The signed product `sext(a)·sext(b)` of two `n`-bit patterns, mod
/// `2^{2n}` — the closed form every exact `n×n` multiplier grid sums to.
#[inline]
pub(crate) fn signed_product(a: u64, b: u64, n: u32) -> u64 {
    to_u(sext(a, n).wrapping_mul(sext(b, n)), 2 * n)
}

/// Signed difference between two `bits`-bit patterns, interpreted as the
/// nearest distance on the mod-2^bits circle:
/// `((reference - approx + 2^(bits-1)) mod 2^bits) - 2^(bits-1)`.
///
/// This is the error `e = x - x̂` of the paper, robust to the modular
/// wrap-around that both the reference and the approximate data-path share.
///
/// # Example
/// ```
/// // 0x0 vs 0xF at 4 bits: distance is +1, not -15.
/// assert_eq!(apx_operators::centered_diff(0x0, 0xF, 4), 1);
/// ```
///
/// # Panics
/// Panics if `bits` is 0 or greater than 63.
#[must_use]
#[inline]
pub fn centered_diff(reference: u64, approx: u64, bits: u32) -> i64 {
    assert!((1..=63).contains(&bits), "bits out of range");
    let m = mask_u(bits);
    let half = 1u64 << (bits - 1);
    let d = (reference.wrapping_sub(approx).wrapping_add(half)) & m;
    d as i64 - half as i64
}

/// Test-only cross-verification of `op.netlist()` against the per-lane
/// [`ApxOperator::eval_u`](crate::ApxOperator::eval_u): over every
/// operand pair up to the 24-bit exhaustive limit, else on 2 000 random
/// vectors.
///
/// # Panics
/// Panics with the counterexample when the two models disagree.
#[cfg(test)]
pub(crate) fn cross_verify(op: &dyn crate::ApxOperator) {
    use apx_netlist::verify::{verify_exhaustive2_batch_with, verify_random2_batch_with};
    let nl = op.netlist();
    let engine = apx_engine::Engine::single_threaded();
    let f = |av: &[u64], bv: &[u64], out: &mut [u64]| {
        for ((&a, &b), o) in av.iter().zip(bv).zip(out.iter_mut()) {
            *o = op.eval_u(a, b);
        }
    };
    let result = if 2 * op.input_bits() <= 24 {
        verify_exhaustive2_batch_with(&nl, &engine, f)
    } else {
        verify_random2_batch_with(&nl, 2_000, 17, &engine, f)
    };
    if let Err(e) = result {
        panic!("{}: {e}", op.name());
    }
}

/// Test-only operand pairs for checking a closed form against its
/// grid walk at width `n` without enumerating every pair: every pair of
/// the corner operands `0, 1, mask, mask>>1, (mask>>1)+1`, then `random`
/// pairs drawn by a splitmix64 stream from `seed`.
#[cfg(test)]
pub(crate) fn test_operands(n: u32, random: usize, seed: u64) -> Vec<(u64, u64)> {
    let m = mask_u(n);
    let corners = [0, 1, m, m >> 1, (m >> 1) + 1];
    let mut pairs: Vec<(u64, u64)> = corners
        .iter()
        .flat_map(|&a| corners.iter().map(move |&b| (a, b)))
        .collect();
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & m
    };
    pairs.extend((0..random).map(|_| (next(), next())));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sext_roundtrips_with_to_u() {
        for bits in [1u32, 4, 8, 16, 32] {
            let lo = if bits == 1 { -1 } else { -(1i64 << (bits - 1)) };
            let hi = if bits == 1 {
                0
            } else {
                (1i64 << (bits - 1)) - 1
            };
            for v in [lo, -1, 0, 1, hi] {
                let v = v.clamp(lo, hi);
                assert_eq!(sext(to_u(v, bits), bits), v, "bits={bits} v={v}");
            }
        }
    }

    #[test]
    fn centered_diff_is_antisymmetric_and_small() {
        for bits in [4u32, 8, 16] {
            let m = mask_u(bits);
            for (r, a) in [(0u64, 1u64), (1, 0), (m, 0), (0, m), (m / 2, m / 2 + 3)] {
                let d = centered_diff(r & m, a & m, bits);
                assert_eq!(d, -centered_diff(a & m, r & m, bits));
                assert!(d.unsigned_abs() <= 1 << (bits - 1));
            }
        }
    }

    #[test]
    fn centered_diff_matches_plain_subtraction_when_no_wrap() {
        assert_eq!(centered_diff(100, 90, 16), 10);
        assert_eq!(centered_diff(90, 100, 16), -10);
    }
}
