//! Fixed-point 8×8 DCT-II (the JPEG encoder core) and the exact inverse
//! used by the decode path.

use crate::OperatorCtx;
use std::sync::LazyLock;

/// Call-site tag of the row pass of the 2-D DCT.
pub const SITE_DCT_ROW: &str = "jpeg.dct_row";

/// Call-site tag of the column pass of the 2-D DCT.
pub const SITE_DCT_COL: &str = "jpeg.dct_col";

/// Fractional bits of the Q-format DCT coefficient table.
pub const DCT_FRAC: u32 = 13;

/// Guard bits kept on the accumulator: products are rescaled to Q3 before
/// accumulation (fits the 16-bit data-path) and the final sum drops the
/// guard, keeping the truncation bias under one output LSB — the scaling
/// a careful fixed-point designer applies.
pub const DCT_GUARD: u32 = 3;

/// Q13 coefficients of the orthonormal 8-point DCT-II:
/// `C[u][x] = α(u)·cos((2x+1)uπ/16) / 2` with `α(0)=1/√2`, `α(u>0)=1`
/// (the 1/2 folds the √(2/N) normalization).
#[must_use]
pub fn dct8_coeffs_q13() -> [[i64; 8]; 8] {
    let mut c = [[0i64; 8]; 8];
    for (u, row) in c.iter_mut().enumerate() {
        for (x, v) in row.iter_mut().enumerate() {
            let alpha = if u == 0 { (1.0f64 / 2.0).sqrt() } else { 1.0 };
            let angle = (2.0 * x as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0;
            *v = (alpha * angle.cos() / 2.0 * f64::from(1 << DCT_FRAC)).round() as i64;
        }
    }
    c
}

/// One 8-point DCT pass over all 8 lines of a block, through the context
/// at the call-site `site` (row or column pass): `out[line][u]` is
/// output `u` of `lines[line]`. Lane `8·line + u` of each slice computes
/// one output, so every tap step is one 64-lane slice and each output
/// sees the 1-D DCT's op sequence: `mul` at `x = 0`, then `(mul, add)`
/// for `x = 1..7`. Each product is rescaled to Q(guard) before
/// accumulation so that every addition fits the 16-bit data-path, and
/// the guard bits are dropped at the end.
fn dct8_pass(
    lines: &[[i64; 8]; 8],
    coeffs: &[[i64; 8]; 8],
    site: &'static str,
    ctx: &mut OperatorCtx,
) -> [[i64; 8]; 8] {
    let mut coeff = [0i64; 64];
    let mut sample = [0i64; 64];
    let mut product = [0i64; 64];
    let mut acc = [0i64; 64];
    for x in 0..8 {
        for (lane, (c, s)) in coeff.iter_mut().zip(&mut sample).enumerate() {
            *c = coeffs[lane % 8][x];
            *s = lines[lane / 8][x];
        }
        ctx.mul_n_at(site, &coeff, &sample, &mut product);
        for p in &mut product {
            *p >>= DCT_FRAC - DCT_GUARD;
        }
        if x == 0 {
            acc = product;
        } else {
            let partial = acc;
            ctx.add_n_at(site, &partial, &product, &mut acc);
        }
    }
    let mut out = [[0i64; 8]; 8];
    for (lane, &v) in acc.iter().enumerate() {
        out[lane / 8][lane % 8] = v >> DCT_GUARD;
    }
    out
}

fn transpose8(m: &[[i64; 8]; 8]) -> [[i64; 8]; 8] {
    std::array::from_fn(|r| std::array::from_fn(|c| m[c][r]))
}

/// Two-dimensional 8×8 DCT (rows then columns), through the context.
pub fn dct8x8_fixed(block: &[[i64; 8]; 8], ctx: &mut OperatorCtx) -> [[i64; 8]; 8] {
    // built once per process: the table is 64 `cos` and 64 `round`
    static COEFFS: LazyLock<[[i64; 8]; 8]> = LazyLock::new(dct8_coeffs_q13);
    let rows = dct8_pass(block, &COEFFS, SITE_DCT_ROW, ctx);
    let cols = dct8_pass(&transpose8(&rows), &COEFFS, SITE_DCT_COL, ctx);
    transpose8(&cols)
}

/// Exact double-precision 8×8 inverse DCT for the decode/score path
/// (the decoder is not under test; the paper modifies only the encoder's
/// DCT operators).
#[must_use]
pub fn idct8x8_f64(block: &[[f64; 8]; 8]) -> [[f64; 8]; 8] {
    // cos((2i + 1)·k·π/16), the same 64 cosines for rows and columns
    let cos: [[f64; 8]; 8] = std::array::from_fn(|i| {
        std::array::from_fn(|k| {
            ((2.0 * i as f64 + 1.0) * k as f64 * std::f64::consts::PI / 16.0).cos()
        })
    });
    let alpha = |k: usize| if k == 0 { (0.5f64).sqrt() } else { 1.0 };
    let mut out = [[0.0f64; 8]; 8];
    for (out_row, cos_y) in out.iter_mut().zip(&cos) {
        for (px, cos_x) in out_row.iter_mut().zip(&cos) {
            let mut acc = 0.0;
            for (u, row) in block.iter().enumerate() {
                for (v, &coef) in row.iter().enumerate() {
                    acc += alpha(u) * alpha(v) / 4.0 * coef * cos_y[u] * cos_x[v];
                }
            }
            *px = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_of_flat_block_is_the_scaled_mean() {
        let block = [[100i64; 8]; 8];
        let mut ctx = OperatorCtx::exact();
        let out = dct8x8_fixed(&block, &mut ctx);
        // orthonormal 2-D DCT of a flat block: DC = 8 * value (α0² · 64/8)
        assert!((out[0][0] - 800).abs() <= 25, "DC={}", out[0][0]);
        // all AC terms near zero
        for (u, row) in out.iter().enumerate() {
            for (v, &coef) in row.iter().enumerate() {
                if u != 0 || v != 0 {
                    assert!(coef.abs() <= 4, "AC[{u}][{v}]={coef}");
                }
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // math-style [u][v][y][x] indexing
    fn fixed_dct_tracks_the_float_dct() {
        // pseudo-random block
        let mut block = [[0i64; 8]; 8];
        for (r, row) in block.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (((r * 37 + c * 101 + 13) % 255) as i64) - 128;
            }
        }
        let mut ctx = OperatorCtx::exact();
        let fixed = dct8x8_fixed(&block, &mut ctx);
        // float reference
        let mut float_in = [[0.0f64; 8]; 8];
        for r in 0..8 {
            for c in 0..8 {
                float_in[r][c] = block[r][c] as f64;
            }
        }
        // forward float DCT by transposed inverse relation: do it directly
        let mut float_out = [[0.0f64; 8]; 8];
        for u in 0..8 {
            for v in 0..8 {
                let mut acc = 0.0;
                for y in 0..8 {
                    for x in 0..8 {
                        let au = if u == 0 { (0.5f64).sqrt() } else { 1.0 };
                        let av = if v == 0 { (0.5f64).sqrt() } else { 1.0 };
                        acc += au * av / 4.0
                            * float_in[y][x]
                            * ((2.0 * y as f64 + 1.0) * u as f64 * std::f64::consts::PI / 16.0)
                                .cos()
                            * ((2.0 * x as f64 + 1.0) * v as f64 * std::f64::consts::PI / 16.0)
                                .cos();
                    }
                }
                float_out[u][v] = acc;
            }
        }
        for u in 0..8 {
            for v in 0..8 {
                assert!(
                    (fixed[u][v] as f64 - float_out[u][v]).abs() < 12.0,
                    "coef[{u}][{v}]: fixed {} vs float {:.2}",
                    fixed[u][v],
                    float_out[u][v]
                );
            }
        }
    }

    #[test]
    fn idct_inverts_the_float_dct_roundtrip() {
        let mut block = [[0i64; 8]; 8];
        for (r, row) in block.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (((r * 53 + c * 29) % 200) as i64) - 100;
            }
        }
        let mut ctx = OperatorCtx::exact();
        let coeffs = dct8x8_fixed(&block, &mut ctx);
        let mut as_float = [[0.0f64; 8]; 8];
        for r in 0..8 {
            for c in 0..8 {
                as_float[r][c] = coeffs[r][c] as f64;
            }
        }
        let back = idct8x8_f64(&as_float);
        for r in 0..8 {
            for c in 0..8 {
                assert!(
                    (back[r][c] - block[r][c] as f64).abs() < 12.0,
                    "pixel[{r}][{c}]: {} vs {}",
                    back[r][c],
                    block[r][c]
                );
            }
        }
    }
}
