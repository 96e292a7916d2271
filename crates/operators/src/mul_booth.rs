//! Radix-4 modified-Booth multipliers: the exact reference and the pruned
//! fixed-width ABM of Juang & Hsiao (IEEE TCAS-II, 2005), plus the
//! uncorrected variant that reproduces the catastrophic instance measured
//! in the paper (Table I: MSE ≈ −10 dB).
//!
//! # Construction
//!
//! Operand `b` is recoded into `n/2` radix-4 digits `d_k ∈ {-2,-1,0,1,2}`
//! (`x1` = select `±a`, `x2` = select `±2a`, `neg` = negative digit). Each
//! row contributes, at weight `4^k`:
//!
//! * `n+1` pattern bits `pp_t = ((x1·a_t) | (x2·a_{t-1})) ⊕ neg`,
//! * a `+neg` correction at the row LSB (two's-complement of the row),
//! * sign extension folded into a single inverted sign bit `!pp_n` at
//!   column `2k+n+1` plus a precomputed constant vector (the standard
//!   "E-bit" simplification, exact mod `2^{2n}`).
//!
//! [`BoothMul::abm`] prunes every grid entry below column `n` and
//! compensates with the column-`n-1` pattern bits (OR-paired into column
//! `n` — the "compensation circuit using the most significant bits of the
//! dropped part" of the paper). [`BoothMul::abm_uncorrected`]
//! additionally drops the sign-extension bits *and* the constant vector
//! together with the pruned half — the sign handling of negative rows
//! then breaks, producing full-scale, operand-dependent errors. This is
//! our attribution of the paper's measured ABM behaviour (7 orders of
//! magnitude MSE degradation, K-means success collapsing to ~10 %);
//! `tests/paper_claims.rs` pins both
//! (`table1_shape_multiplier_accuracy_ordering`,
//! `table6_shape_abm_collapse`).
//!
//! The functional models are word-level closed forms: the exact variant
//! is the signed product, and the pruned variants decode every digit at
//! once and add one kept row per digit. Tests pin them against a walk
//! over the grid above, one pattern bit at a time.

use crate::traits::{ApxOperator, OpClass};
use crate::util::{bit, mask_u, require, signed_product, MULTIPLIER_WIDTHS};
use apx_netlist::{NetId, Netlist, NetlistBuilder};
use std::collections::HashMap;

/// Checks the operand width of every Booth multiplier: radix-4 recoding
/// takes `b` two bits per digit, so `n` is even.
fn check_booth_width(n: u32) -> Result<(), String> {
    let widths = 4..=*MULTIPLIER_WIDTHS.end();
    require(widths.contains(&n) && n.is_multiple_of(2), || {
        format!("Booth width n={n} must be even, in {widths:?}")
    })
}

/// The constant vector absorbing all rows' sign extensions, mod `2^{2n}`.
fn booth_const(n: u32) -> u64 {
    let m = mask_u(2 * n);
    let mut c = 0u64;
    for k in 0..n / 2 {
        let pos = 2 * k + n + 1;
        c = c.wrapping_sub(1u64 << pos) & m;
    }
    c
}

/// Which parts of the Booth grid an instance keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BoothPruning {
    /// Grid entries below this column are dropped (0 = keep everything).
    min_col: u32,
    /// Keep the inverted-sign bits and the constant vector.
    sign_correction: bool,
}

/// Shared netlist generator for all Booth variants.
fn booth_netlist(name: String, n: u32, pruning: BoothPruning) -> Netlist {
    let nu = n as usize;
    let mut b = NetlistBuilder::new(name);
    let av = b.input_bus("a", nu);
    let bv = b.input_bus("b", nu);

    // Per-row encoder nets.
    let mut enc = Vec::new();
    for k in 0..(n / 2) as usize {
        let b_hi = bv[2 * k + 1];
        let b_mid = bv[2 * k];
        let (x1, x2);
        if k == 0 {
            x1 = b_mid;
            let hx = b.xor(b_hi, b_mid);
            let nx1 = b.not(x1);
            x2 = b.and(nx1, hx);
        } else {
            let b_lo = bv[2 * k - 1];
            x1 = b.xor(b_mid, b_lo);
            let hx = b.xor(b_hi, b_mid);
            let nx1 = b.not(x1);
            x2 = b.and(nx1, hx);
        }
        enc.push((x1, x2, b_hi));
    }

    // Lazily build pattern-bit nets.
    let mut cache: HashMap<(u32, u32), NetId> = HashMap::new();
    let mut pattern = |b: &mut NetlistBuilder, k: u32, t: u32| -> NetId {
        if let Some(&net) = cache.get(&(k, t)) {
            return net;
        }
        let (x1, x2, neg) = enc[k as usize];
        let a_t = if t < n {
            av[t as usize]
        } else {
            av[(n - 1) as usize]
        };
        let e = if t == 0 {
            b.and(x1, a_t)
        } else {
            let e1 = b.and(x1, a_t);
            let e2 = b.and(x2, av[(t - 1) as usize]);
            b.or(e1, e2)
        };
        let pp = b.xor(e, neg);
        cache.insert((k, t), pp);
        pp
    };

    let total_cols = (2 * n) as usize;
    let base = pruning.min_col as usize;
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); total_cols - base];
    for k in 0..n / 2 {
        let (_, _, neg) = enc[k as usize];
        for t in 0..=n {
            let col = 2 * k + t;
            if col >= pruning.min_col && col < 2 * n {
                let pp = pattern(&mut b, k, t);
                columns[(col - pruning.min_col) as usize].push(pp);
            }
        }
        let neg_col = 2 * k;
        if neg_col >= pruning.min_col {
            columns[(neg_col - pruning.min_col) as usize].push(neg);
        }
        if pruning.sign_correction {
            let sign_col = 2 * k + n + 1;
            if sign_col >= pruning.min_col && sign_col < 2 * n {
                let s = pattern(&mut b, k, n);
                let inv = b.not(s);
                columns[(sign_col - pruning.min_col) as usize].push(inv);
            }
        }
    }
    if pruning.sign_correction {
        let c = booth_const(n);
        let one = b.tie1();
        for col in pruning.min_col..2 * n {
            if bit(c, col) == 1 {
                columns[(col - pruning.min_col) as usize].push(one);
            }
        }
    }
    // a pruned grid OR-pairs the column `min_col - 1` pattern bits into
    // `min_col` (diagonal compensation)
    if pruning.min_col > 0 {
        let comp_col = pruning.min_col - 1;
        let mut diag = Vec::new();
        for k in 0..n / 2 {
            if comp_col >= 2 * k && comp_col - 2 * k <= n {
                diag.push(pattern(&mut b, k, comp_col - 2 * k));
            }
        }
        for pair in diag.chunks(2) {
            let comp = if pair.len() == 2 {
                b.or(pair[0], pair[1])
            } else {
                pair[0]
            };
            columns[0].push(comp);
        }
    }

    let width = total_cols - base;
    let out = b.compress_columns(columns, width);
    b.output_bus("y", &out);
    let mut nl = b.finish();
    nl.prune_dead_gates();
    nl
}

/// The radix-4 modified-Booth multipliers: the exact `MULbooth(n,2n)`,
/// and the fixed-width pruned `ABM(n)` and `ABMu(n)` built on it.
///
/// * [`BoothMul::exact`] — the full `n×n → 2n` grid: the substrate of
///   ABM, and a second exact multiplier architecture for
///   architecture-level ablations against the exact array multiplier
///   `MUL(n,2n)` ([`crate::FixedWidthMul`]).
/// * [`BoothMul::abm`] — Approximate Booth Multiplier, Juang & Hsiao
///   2005: the grid pruned below column `n`, **with** correct sign
///   handling in the kept half and diagonal compensation. This is the
///   faithful implementation; its accuracy is close to [`crate::Aam`].
/// * [`BoothMul::abm_uncorrected`] — pruning also removes the
///   sign-extension bits and constant vector. Negative Booth rows are
///   then summed as if they were positive magnitude patterns, which
///   corrupts the most significant output bits in an operand-dependent
///   way. Used as the paper-shape instance of ABM (Table I reports
///   MSE ≈ −10 dB and K-means success ≈ 10 % for its ABM — 7 orders of
///   magnitude worse than fixed point, which no sign-correct pruning can
///   produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoothMul {
    n: u32,
    pruning: BoothPruning,
}

impl BoothMul {
    /// Creates the exact `MULbooth(n,2n)`.
    pub fn exact(n: u32) -> Result<Self, String> {
        Self::new(n, 0, true)
    }

    /// Creates `ABM(n)`.
    pub fn abm(n: u32) -> Result<Self, String> {
        Self::new(n, n, true)
    }

    /// Creates `ABMu(n)`.
    pub fn abm_uncorrected(n: u32) -> Result<Self, String> {
        Self::new(n, n, false)
    }

    /// The arguments after `n` are the fields of [`BoothPruning`].
    fn new(n: u32, min_col: u32, sign_correction: bool) -> Result<Self, String> {
        check_booth_width(n)?;
        let pruning = BoothPruning {
            min_col,
            sign_correction,
        };
        Ok(BoothMul { n, pruning })
    }
}

impl ApxOperator for BoothMul {
    fn name(&self) -> String {
        let n = self.n;
        match (self.pruning.min_col, self.pruning.sign_correction) {
            (0, _) => format!("MULbooth({n},{})", 2 * n),
            (_, true) => format!("ABM({n})"),
            (_, false) => format!("ABMu({n})"),
        }
    }
    fn op_class(&self) -> OpClass {
        OpClass::Multiplier
    }
    fn input_bits(&self) -> u32 {
        self.n
    }
    fn output_bits(&self) -> u32 {
        2 * self.n - self.pruning.min_col
    }
    fn output_shift(&self) -> u32 {
        self.pruning.min_col
    }
    fn eval_u(&self, a: u64, b: u64) -> u64 {
        let n = self.n;
        if self.pruning.min_col == 0 {
            // The unpruned Booth grid the netlist instantiates sums to the
            // signed product mod 2^{2n} (pinned by
            // `exact_booth_equals_the_signed_product`), so the model is the
            // closed form rather than a walk over the Booth rows.
            return signed_product(a, b, n);
        }
        // The pruned grid keeps only columns >= n, read at output scale.
        // Every digit's encoder at once: digit k's signals sit at bit 2k.
        let m = mask_u(n);
        let (a, b) = (a & m, b & m);
        let even = 0x5555_5555_5555_5555 & m;
        let (lo, mid, hi) = ((b << 1) & even, b & even, (b >> 1) & even);
        let x1 = mid ^ lo;
        let x2 = !x1 & (hi ^ mid) & even;
        // row k: the n+1 pattern bits over the sign-extended `a`, of which
        // columns >= n are the row shifted down by n-2k (every +neg
        // correction sits at column 2k < n, so it is pruned)
        let row_mask = mask_u(n + 1);
        let a_ext = a | bit(a, n - 1) << n;
        let mut total = 0u64;
        for k in 0..n / 2 {
            let select = |w: u64| 0u64.wrapping_sub(bit(w, 2 * k));
            let row = ((select(x1) & a_ext) | (select(x2) & a_ext << 1)) ^ select(hi);
            total += (row & row_mask) >> (n - 2 * k);
        }
        if self.pruning.sign_correction {
            // the inverted row sign bits !s_k at column 2k+n+1 plus the
            // constant vector -Σ 2^{2k+n+1} sum to -Σ s_k 2^{2k+1} at
            // output scale
            let sign_a = 0u64.wrapping_sub(bit(a, n - 1));
            let signs = (((x1 | x2) & sign_a) ^ hi) & even;
            total = total.wrapping_sub(signs << 1);
        }
        // diagonal compensation: the column n-1 pattern bit of every row as
        // one word (row k at bit 2k), OR-ed in adjacent row pairs (2j, 2j+1)
        let rev = a.reverse_bits() >> (64 - n);
        let diag = (((x1 & rev) | (x2 & rev >> 1)) ^ hi) & even;
        let comp = (diag | diag >> 2) & 0x1111_1111_1111_1111;
        total = total.wrapping_add(u64::from(comp.count_ones()));
        total & m
    }
    fn netlist(&self) -> Netlist {
        booth_netlist(self.name(), self.n, self.pruning)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{cross_verify, sext, test_operands};

    /// Booth encoder signals for digit `k` of operand `b`: `(x1, x2, neg)`.
    fn booth_enc(b: u64, k: u32, n: u32) -> (u64, u64, u64) {
        debug_assert!(2 * k + 1 < n);
        let b_hi = bit(b, 2 * k + 1);
        let b_mid = bit(b, 2 * k);
        let b_lo = if k == 0 { 0 } else { bit(b, 2 * k - 1) };
        let x1 = b_mid ^ b_lo;
        let x2 = (1 ^ x1) & (b_hi ^ b_mid);
        (x1, x2, b_hi)
    }

    /// Pattern bit `t ∈ 0..=n` of Booth row `k` (before weighting).
    fn booth_pp(a: u64, n: u32, x1: u64, x2: u64, neg: u64, t: u32) -> u64 {
        let a_t = if t < n { bit(a, t) } else { bit(a, n - 1) };
        let a_shift = if t > 0 { bit(a, t - 1) } else { 0 };
        ((x1 & a_t) | (x2 & a_shift)) ^ neg
    }

    /// Sums the Booth grid as the netlist builds it, one pattern bit at a
    /// time, keeping what `pruning` keeps.
    fn booth_eval(n: u32, a: u64, b: u64, pruning: BoothPruning) -> u128 {
        let mut total = 0u128;
        for k in 0..n / 2 {
            let (x1, x2, neg) = booth_enc(b, k, n);
            for t in 0..=n {
                let col = 2 * k + t;
                let pp = booth_pp(a, n, x1, x2, neg, t);
                if col >= pruning.min_col {
                    total += u128::from(pp) << col;
                }
            }
            let neg_col = 2 * k;
            if neg_col >= pruning.min_col {
                total += u128::from(neg) << neg_col;
            }
            if pruning.sign_correction {
                let sign_col = 2 * k + n + 1;
                if sign_col >= pruning.min_col && sign_col < 2 * n {
                    let s = booth_pp(a, n, x1, x2, neg, n);
                    total += u128::from(1 ^ s) << sign_col;
                }
            }
        }
        if pruning.sign_correction {
            let c = booth_const(n);
            let kept_const = if pruning.min_col == 0 {
                c
            } else {
                c & !mask_u(pruning.min_col)
            };
            total += u128::from(kept_const);
        }
        if pruning.min_col > 0 {
            let comp_col = pruning.min_col - 1;
            let mut diag = Vec::new();
            for k in 0..n / 2 {
                if comp_col >= 2 * k && comp_col - 2 * k <= n {
                    let (x1, x2, neg) = booth_enc(b, k, n);
                    diag.push(booth_pp(a, n, x1, x2, neg, comp_col - 2 * k));
                }
            }
            for pair in diag.chunks(2) {
                let or = pair.iter().copied().fold(0, |acc, v| acc | v);
                total += u128::from(or) << pruning.min_col;
            }
        }
        total
    }

    #[test]
    fn booth_digits_recompose_the_operand() {
        for n in [4u32, 6, 8] {
            for b in 0..1u64 << n {
                let mut acc: i64 = 0;
                for k in 0..n / 2 {
                    let (x1, x2, neg) = booth_enc(b, k, n);
                    let mag = (x1 + 2 * x2) as i64;
                    let d = if neg == 1 { -mag } else { mag };
                    acc += d << (2 * k);
                }
                assert_eq!(acc, sext(b, n), "n={n} b={b:#x}");
            }
        }
    }

    #[test]
    fn exact_booth_equals_the_signed_product() {
        let pruning = BoothPruning {
            min_col: 0,
            sign_correction: true,
        };
        for n in [4u32, 6, 8] {
            for a in 0..1u64 << n {
                for b in 0..1u64 << n {
                    let got = (booth_eval(n, a, b, pruning) as u64) & mask_u(2 * n);
                    assert_eq!(got, signed_product(a, b, n), "n={n} a={a:#x} b={b:#x}");
                }
            }
        }
    }

    #[test]
    fn booth_netlist_matches_model() {
        for n in [4u32, 6, 16] {
            cross_verify(&BoothMul::exact(n).unwrap());
        }
        for n in [4u32, 6, 8, 10, 16, 24] {
            cross_verify(&BoothMul::abm(n).unwrap());
        }
        for n in [4u32, 8, 10, 16, 24] {
            cross_verify(&BoothMul::abm_uncorrected(n).unwrap());
        }
    }

    /// The pruned variants' output from the grid walk.
    fn pruned_grid_walk(op: &BoothMul, a: u64, b: u64) -> u64 {
        let n = op.n;
        ((booth_eval(n, a, b, op.pruning) >> n) as u64) & mask_u(n)
    }

    #[test]
    fn pruned_closed_forms_match_the_grid_walk_exhaustively() {
        for n in [4u32, 6, 8] {
            for op in [
                BoothMul::abm(n).unwrap(),
                BoothMul::abm_uncorrected(n).unwrap(),
            ] {
                for a in 0..1u64 << n {
                    for b in 0..1u64 << n {
                        let want = pruned_grid_walk(&op, a, b);
                        assert_eq!(op.eval_u(a, b), want, "{} a={a:#x} b={b:#x}", op.name());
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_closed_forms_match_the_grid_walk_at_every_width() {
        for n in (4u32..=*MULTIPLIER_WIDTHS.end()).step_by(2) {
            for op in [
                BoothMul::abm(n).unwrap(),
                BoothMul::abm_uncorrected(n).unwrap(),
            ] {
                for (a, b) in test_operands(n, 2_000, 0xB0 + u64::from(n)) {
                    let want = pruned_grid_walk(&op, a, b);
                    assert_eq!(op.eval_u(a, b), want, "{} a={a:#x} b={b:#x}", op.name());
                }
            }
        }
    }

    #[test]
    fn corrected_abm_tracks_the_product() {
        let op = BoothMul::abm(8).unwrap();
        let mut worst = 0i64;
        for a in 0..256u64 {
            for b in 0..256u64 {
                let e = crate::centered_diff(op.reference_u(a, b), op.aligned_u(a, b), 16);
                worst = worst.max(e.abs() / 256);
            }
        }
        assert!(worst <= 10, "corrected ABM within ~10 output LSBs: {worst}");
    }

    #[test]
    fn uncorrected_abm_is_catastrophically_worse() {
        // The whole point of the variant: orders of magnitude more MSE.
        let good = BoothMul::abm(8).unwrap();
        let bad = BoothMul::abm_uncorrected(8).unwrap();
        let (mut se_good, mut se_bad) = (0i128, 0i128);
        for a in 0..256u64 {
            for b in 0..256u64 {
                let r = good.reference_u(a, b);
                let eg = i128::from(crate::centered_diff(r, good.aligned_u(a, b), 16));
                let eb = i128::from(crate::centered_diff(r, bad.aligned_u(a, b), 16));
                se_good += eg * eg;
                se_bad += eb * eb;
            }
        }
        assert!(
            se_bad > 100 * se_good,
            "uncorrected ({se_bad}) must dwarf corrected ({se_good})"
        );
    }

    #[test]
    fn abm_is_shallower_than_the_array_multiplier() {
        // Table I: ABM is 37% faster than MULt(16,16); at least verify the
        // pruned Booth tree has fewer gates on the critical path by
        // comparing gate counts as a structural proxy.
        let abm = BoothMul::abm(16).unwrap().netlist().stats().num_gates;
        let full = crate::FixedWidthMul::new(16, 16, crate::QuantMode::Trunc)
            .unwrap()
            .netlist()
            .stats()
            .num_gates;
        assert!(abm < full, "ABM {abm} gates !< MULt {full} gates");
    }
}
