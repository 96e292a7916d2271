//! Lane transposition: moving up to 64 operand values into per-bit lane
//! words and back — the packing under the [`crate::Sim64`] gate
//! simulator's bus I/O, its only user. [`transpose64`] is also public on
//! its own: the error accumulator counts bit flips through it.
//!
//! Both directions run through one in-place log-step 64×64 bit-matrix
//! transpose ([`transpose64`]; Warren, *Hacker's Delight*, §7-3): six
//! rounds of masked block swaps instead of one shift per bit and lane.

/// Transposes the 64×64 bit matrix `m` in place: afterwards bit `c` of
/// `m[r]` is what bit `r` of `m[c]` was.
///
/// # Example
/// ```
/// let mut m = [0u64; 64];
/// m[0] = 0b110; // row 0 has columns 1 and 2 set
/// apx_netlist::transpose64(&mut m);
/// assert_eq!((m[0], m[1], m[2]), (0, 1, 1));
/// ```
pub fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        // swap the upper-right j×j block of every 2j×2j tile with its
        // lower-left block
        for k in (0..64).step_by(2 * j) {
            for i in k..k + j {
                let t = ((m[i] >> j) ^ m[i + j]) & mask;
                m[i] ^= t << j;
                m[i + j] ^= t;
            }
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Packs up to 64 operand values into per-bit lane words: afterwards
/// `words[bit]` has lane `l` set iff bit `bit` of `values[l]` is set.
/// Bits at or above `width` and lanes past `values.len()` are zero.
///
/// # Panics
/// Panics if more than 64 values are supplied or `width > 64`.
pub(crate) fn pack_lanes(values: &[u64], width: u32, words: &mut [u64; 64]) {
    assert!(
        values.len() <= 64 && width <= 64,
        "at most 64 lanes and bits"
    );
    let mask = if width == 64 { !0 } else { (1u64 << width) - 1 };
    for (word, &v) in words.iter_mut().zip(values) {
        *word = v & mask;
    }
    words[values.len()..].fill(0);
    transpose64(words);
}

/// Inverse of [`pack_lanes`]: unpacks the per-bit lane words
/// `words[..width]` into `out.len()` values, reusing `words` as scratch.
/// Words at or above `width` are ignored, whatever they hold.
///
/// # Panics
/// Panics if more than 64 values are requested or `width > 64`.
pub(crate) fn unpack_lanes(words: &mut [u64; 64], width: u32, out: &mut [u64]) {
    assert!(out.len() <= 64 && width <= 64, "at most 64 lanes and bits");
    words[width as usize..].fill(0);
    transpose64(words);
    out.copy_from_slice(&words[..out.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition of [`pack_lanes`].
    fn pack_reference(values: &[u64], width: u32) -> Vec<u64> {
        (0..64)
            .map(|bit| {
                let mut word = 0;
                if bit < width {
                    for (lane, &v) in values.iter().enumerate() {
                        word |= ((v >> bit) & 1) << lane;
                    }
                }
                word
            })
            .collect()
    }

    /// The bit-at-a-time definition of [`unpack_lanes`].
    fn unpack_reference(words: &[u64; 64], width: u32, lanes: usize) -> Vec<u64> {
        (0..lanes)
            .map(|lane| (0..width as usize).fold(0, |v, bit| v | ((words[bit] >> lane) & 1) << bit))
            .collect()
    }

    /// A deterministic pseudo-random stream (splitmix64).
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn transpose_is_an_involution_matching_the_definition() {
        let mut next = stream(1);
        let m: [u64; 64] = std::array::from_fn(|_| next());
        let mut t = m;
        transpose64(&mut t);
        for (r, &row) in t.iter().enumerate() {
            for (c, &col) in m.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> r) & 1, "r={r} c={c}");
            }
        }
        transpose64(&mut t);
        assert_eq!(t, m);
    }

    #[test]
    fn pack_and_unpack_match_the_bit_at_a_time_definition() {
        let mut next = stream(7);
        for width in [1u32, 2, 15, 16, 17, 32, 63, 64] {
            for lanes in [0usize, 1, 63, 64] {
                // full 64-bit values: bits above `width` must be masked
                let values: Vec<u64> = (0..lanes).map(|_| next()).collect();
                let mut words = [next(); 64]; // stale content is overwritten
                pack_lanes(&values, width, &mut words);
                assert_eq!(
                    words[..],
                    pack_reference(&values, width)[..],
                    "pack w={width}"
                );

                // garbage above `width` must be ignored
                let mut kernel_out: [u64; 64] = std::array::from_fn(|_| next());
                let want = unpack_reference(&kernel_out, width, lanes);
                let mut out = vec![u64::MAX; lanes];
                unpack_lanes(&mut kernel_out, width, &mut out);
                assert_eq!(out, want, "unpack w={width} lanes={lanes}");

                // round trip of in-range values
                let mask = if width == 64 { !0 } else { (1u64 << width) - 1 };
                let mut back = vec![0; lanes];
                unpack_lanes(&mut words, width, &mut back);
                let masked: Vec<u64> = values.iter().map(|v| v & mask).collect();
                assert_eq!(back, masked, "round trip w={width} lanes={lanes}");
            }
        }
    }
}
