//! The fixed-point adder and the `Sized` operator family: **exact**
//! adders and multipliers evaluated at a reduced effective bit-width —
//! the paper's careful data-sizing baseline.
//!
//! A sized operator keeps the full `n`-bit operand interface but
//! quantizes both inputs down to `w` effective bits (dropping the `n-w`
//! LSBs by truncation or round-to-nearest, selectable via [`QuantMode`])
//! and then applies a plain **exact** `w`-bit operator:
//!
//! * [`SizedAdd`] — a `w`-bit ripple-carry adder behind the quantizers,
//!   the only fixed-point adder. It prints as `ADD(n,n)` (the exact
//!   adder, `w == n`), `ADDt(n,q)`/`ADDr(n,q)` (the paper's truncated
//!   and rounded adders, `q == w`) or `ADDst(n,w)`/`ADDsr(n,w)` (the
//!   sized family of the Pareto overlay), depending on the
//!   [`OperatorConfig`](crate::OperatorConfig) it was built from; the
//!   hardware and the model are the same for all three.
//! * [`SizedMul`] — `MULst(n,w)` / `MULsr(n,w)`: a `w×w → 2w`
//!   Baugh-Wooley array multiplier behind the quantizers. Unlike
//!   [`FixedWidthMul`](crate::FixedWidthMul) (which computes the full
//!   `n×n` array and drops *output* bits), the sized multiplier's
//!   hardware actually shrinks quadratically with `w` — the data-path
//!   saving the paper credits to careful sizing.
//!
//! The only error source is input quantization; the arithmetic itself
//! never fails. This is precisely the baseline the paper holds the
//! functional-approximation operators against.

use crate::mul_array::{build_columns, bw_terms};
use crate::traits::{ApxOperator, OpClass};
use crate::util::{
    bit, check_adder_width, check_multiplier_width, mask_u, require, signed_product,
};
use apx_netlist::{NetId, Netlist, NetlistBuilder};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a fixed-point operator drops the bits it does not keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantMode {
    /// Plain truncation: `x -> x >> s`. Biased but free.
    Trunc,
    /// Round to nearest: `x -> (x >> s) + x_{s-1}`. Centers the
    /// quantization error for one extra carry input per operand.
    Round,
}

impl QuantMode {
    /// Notation letter: `t` for truncation, `r` for rounding.
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            QuantMode::Trunc => 't',
            QuantMode::Round => 'r',
        }
    }

    /// The rounding increment `2^(s-1)` of a value about to lose its `s`
    /// low bits: `(x + half) >> s` rounds to nearest, and truncation
    /// adds 0. Rounding needs `s >= 1`.
    #[inline]
    pub(crate) fn half(self, s: u32) -> u64 {
        (u64::from(self == QuantMode::Round) << s) >> 1
    }
}

/// Checks `lo <= kept <= top`, or `kept < top` when rounding: with no
/// dropped bit there is nothing to round. The error is the range as the
/// messages print it (`1..=16`, `1..16`).
fn check_kept(kept: u32, lo: u32, top: u32, mode: QuantMode) -> Result<(), String> {
    let (fits, closed) = match mode {
        QuantMode::Trunc => (kept <= top, "="),
        QuantMode::Round => (kept < top, ""),
    };
    require(lo <= kept && fits, || format!("{lo}..{closed}{top}"))
}

/// Checks the `q` output bits kept out of `top` by `ADDt`, `ADDr`, `MULt`
/// and `MULr`.
pub(crate) fn check_kept_bits(q: u32, top: u32, mode: QuantMode) -> Result<(), String> {
    check_kept(q, 1, top, mode).map_err(|range| format!("kept bits q={q} out of range {range}"))
}

/// Checks the effective width `w` of a sized operator over `n`-bit
/// operands.
fn check_effective_width(n: u32, w: u32, mode: QuantMode) -> Result<(), String> {
    check_kept(w, 2, n, mode)
        .map_err(|range| format!("effective width w={w} out of range {range} for mode `{mode}`"))
}

impl fmt::Display for QuantMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// The paper notation a fixed-point operator prints. Only
/// [`OperatorConfig::build`](crate::OperatorConfig::build) picks it; the
/// hardware and the functional model never depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Notation {
    /// `ADD(n,n)` / `MUL(n,2n)`: the exact operator.
    Exact,
    /// `ADDt`/`ADDr`/`MULt`/`MULr`: `q` kept bits.
    Kept,
    /// `ADDst`/`ADDsr`: the sized family.
    Sized,
}

/// Quantizes the signed `n`-bit pattern `x` down to `w` effective bits.
/// Truncation keeps the top `w` bits; rounding adds the first dropped
/// bit back in, saturating at the positive maximum (a wrap would flip
/// the operand's sign). For `w == n` (truncation only) this is the
/// identity.
#[inline]
fn quantize(x: u64, n: u32, w: u32, mode: QuantMode) -> u64 {
    let s = n - w;
    let q = (x >> s) & mask_u(w);
    match mode {
        QuantMode::Trunc => q,
        QuantMode::Round => {
            if q == mask_u(w) >> 1 {
                q // +max rounds to itself instead of wrapping to -max
            } else {
                q.wrapping_add(bit(x, s - 1)) & mask_u(w)
            }
        }
    }
}

/// Builds the quantized-operand nets for a sized multiplier netlist: the
/// top `w` input bits, incremented by the first dropped bit when
/// rounding, with the increment saturated at the positive maximum (the
/// convention of [`quantize`]).
fn quantized_bus(b: &mut NetlistBuilder, bus: &[NetId], s: usize, mode: QuantMode) -> Vec<NetId> {
    match mode {
        QuantMode::Trunc => bus[s..].to_vec(),
        QuantMode::Round => {
            let w = bus.len() - s;
            let (rounded, _carry) = b.increment_row(&bus[s..], bus[s - 1]);
            // overflow happens exactly on the +max pattern 0111…1 with a
            // set round bit; saturate by forcing the result back to +max
            let mut ov = bus[s - 1];
            for &kept in &bus[s..bus.len() - 1] {
                ov = b.and(ov, kept);
            }
            let nsign = b.not(bus[bus.len() - 1]);
            ov = b.and(ov, nsign);
            let mut out = Vec::with_capacity(w);
            for (i, &r) in rounded.iter().enumerate() {
                if i < w - 1 {
                    out.push(b.or(r, ov)); // low bits of +max are all 1
                } else {
                    let nov = b.not(ov);
                    out.push(b.and(r, nov)); // sign bit of +max is 0
                }
            }
            out
        }
    }
}

/// Fixed-point adder: both `n`-bit operands are quantized to `w` bits
/// and added by an exact `w`-bit ripple-carry adder, whose `w`-bit
/// (wrapping) sum is the output. Rounding folds each operand's round bit
/// into the adder's carry-in and an increment row, so the rounded
/// operands wrap modulo `2^w` like the sum itself.
///
/// This is the paper's careful-data-sizing baseline: accuracy falls with
/// `w`, but so do area, power **and the width of everything downstream**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizedAdd {
    n: u32,
    w: u32,
    mode: QuantMode,
    notation: Notation,
}

impl SizedAdd {
    /// Creates the sized adder `ADDst(n,w)` / `ADDsr(n,w)` over `n`-bit
    /// operands at `w` effective bits.
    pub fn new(n: u32, w: u32, mode: QuantMode) -> Result<Self, String> {
        Self::with_notation(n, w, mode, Notation::Sized)
    }

    /// [`SizedAdd::new`] printing as `notation`. `ADDt`/`ADDr` keep down
    /// to `w == 1` bit, the sized family down to 2.
    pub(crate) fn with_notation(
        n: u32,
        w: u32,
        mode: QuantMode,
        notation: Notation,
    ) -> Result<Self, String> {
        check_adder_width(n)?;
        match notation {
            Notation::Sized => check_effective_width(n, w, mode)?,
            Notation::Exact | Notation::Kept => check_kept_bits(w, n, mode)?,
        }
        Ok(SizedAdd {
            n,
            w,
            mode,
            notation,
        })
    }
}

impl ApxOperator for SizedAdd {
    fn name(&self) -> String {
        let (n, w, mode) = (self.n, self.w, self.mode);
        match self.notation {
            Notation::Exact => format!("ADD({n},{n})"),
            Notation::Kept => format!("ADD{mode}({n},{w})"),
            Notation::Sized => format!("ADDs{mode}({n},{w})"),
        }
    }
    fn op_class(&self) -> OpClass {
        OpClass::Adder
    }
    fn input_bits(&self) -> u32 {
        self.n
    }
    fn output_bits(&self) -> u32 {
        self.w
    }
    fn output_shift(&self) -> u32 {
        self.n - self.w
    }
    fn eval_u(&self, a: u64, b: u64) -> u64 {
        let s = self.n - self.w;
        let half = self.mode.half(s);
        (a.wrapping_add(half) >> s).wrapping_add(b.wrapping_add(half) >> s) & mask_u(self.w)
    }
    fn netlist(&self) -> Netlist {
        let s = (self.n - self.w) as usize;
        let mut b = NetlistBuilder::new(self.name());
        let av = b.input_bus("a", self.n as usize);
        let bv = b.input_bus("b", self.n as usize);
        let sum = match self.mode {
            QuantMode::Trunc => {
                let zero = b.tie0();
                let (sum, _cout) = b.ripple_adder(&av[s..], &bv[s..], zero);
                sum
            }
            QuantMode::Round => {
                // w-bit adder with cin = a's round bit, then an increment
                // row folding in b's round bit
                let (sum, _cout) = b.ripple_adder(&av[s..], &bv[s..], av[s - 1]);
                let (rounded, _c2) = b.increment_row(&sum, bv[s - 1]);
                rounded
            }
        };
        b.output_bus("y", &sum);
        let mut nl = b.finish();
        nl.prune_dead_gates();
        nl
    }
}

/// Sized exact multiplier `MULst(n,w)` / `MULsr(n,w)`: both `n`-bit
/// operands are quantized to `w` bits and multiplied by an exact
/// `w×w → 2w` Baugh-Wooley array. The multiplier hardware shrinks
/// quadratically with `w` — the data-path saving behind the paper's
/// headline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizedMul {
    n: u32,
    w: u32,
    mode: QuantMode,
}

impl SizedMul {
    /// Creates a sized multiplier over `n`-bit operands at `w` effective
    /// bits.
    pub fn new(n: u32, w: u32, mode: QuantMode) -> Result<Self, String> {
        check_multiplier_width(n)?;
        check_effective_width(n, w, mode)?;
        Ok(SizedMul { n, w, mode })
    }
}

impl ApxOperator for SizedMul {
    fn name(&self) -> String {
        format!("MULs{}({},{})", self.mode, self.n, self.w)
    }
    fn op_class(&self) -> OpClass {
        OpClass::Multiplier
    }
    fn input_bits(&self) -> u32 {
        self.n
    }
    fn output_bits(&self) -> u32 {
        2 * self.w
    }
    fn output_shift(&self) -> u32 {
        2 * (self.n - self.w)
    }
    fn eval_u(&self, a: u64, b: u64) -> u64 {
        // The signed product of the quantized operands — extensionally
        // equal to summing the w-bit Baugh-Wooley grid the netlist
        // instantiates (pinned by the cross-verification tests).
        let qa = quantize(a, self.n, self.w, self.mode);
        let qb = quantize(b, self.n, self.w, self.mode);
        signed_product(qa, qb, self.w)
    }
    fn netlist(&self) -> Netlist {
        let s = (self.n - self.w) as usize;
        let w = self.w as usize;
        let mut b = NetlistBuilder::new(self.name());
        let av = b.input_bus("a", self.n as usize);
        let bv = b.input_bus("b", self.n as usize);
        let qa = quantized_bus(&mut b, &av, s, self.mode);
        let qb = quantized_bus(&mut b, &bv, s, self.mode);
        let columns = build_columns(&mut b, &bw_terms(self.w), &qa, &qb, |_| true);
        let out = b.compress_columns(columns, 2 * w);
        b.output_bus("y", &out);
        let mut nl = b.finish();
        nl.prune_dead_gates();
        nl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::cross_verify;
    use crate::{FixedWidthMul, OperatorConfig};

    #[test]
    fn adder_netlist_matches_model() {
        // every notation the adder prints, ADDt/ADDr down to one kept bit
        let mut configs: Vec<OperatorConfig> = Vec::new();
        for n in [2, 4, 8] {
            configs.push(OperatorConfig::AddExact { n });
        }
        for (n, q) in [(8, 1), (8, 2), (8, 5), (8, 8), (10, 3)] {
            configs.push(OperatorConfig::AddTrunc { n, q });
        }
        for (n, q) in [(8, 1), (8, 2), (8, 5), (8, 7), (10, 6)] {
            configs.push(OperatorConfig::AddRound { n, q });
        }
        for mode in [QuantMode::Trunc, QuantMode::Round] {
            for (n, w) in [(8, 2), (8, 5), (8, 7), (10, 4)] {
                configs.push(OperatorConfig::AddSized { n, w, mode });
            }
        }
        configs.push(OperatorConfig::AddSized {
            n: 8,
            w: 8,
            mode: QuantMode::Trunc,
        });
        for config in configs {
            cross_verify(&*config.build());
        }
    }

    #[test]
    fn sized_multiplier_netlist_matches_model() {
        for mode in [QuantMode::Trunc, QuantMode::Round] {
            for (n, w) in [(4, 2), (5, 3), (6, 4), (6, 5)] {
                cross_verify(&SizedMul::new(n, w, mode).unwrap());
            }
        }
        cross_verify(&SizedMul::new(5, 5, QuantMode::Trunc).unwrap());
        cross_verify(&SizedMul::new(16, 10, QuantMode::Round).unwrap());
    }

    #[test]
    fn trunc_error_is_bounded_and_positive() {
        let op = OperatorConfig::AddTrunc { n: 12, q: 8 }.build();
        let s = 4u32;
        for (a, b) in [(0u64, 0u64), (0xFFF, 0xFFF), (0xABC, 0x123), (0x00F, 0x0F0)] {
            let e = crate::centered_diff(op.reference_u(a, b), op.aligned_u(a, b), 12);
            assert!(e >= 0, "truncation never overshoots");
            assert!(e <= 2 * ((1 << s) - 1), "bounded by dropped input bits");
        }
    }

    #[test]
    fn full_width_sized_operators_are_exact() {
        let add = SizedAdd::new(8, 8, QuantMode::Trunc).unwrap();
        let mul = SizedMul::new(4, 4, QuantMode::Trunc).unwrap();
        for a in 0..256u64 {
            for b in 0..256u64 {
                assert_eq!(add.eval_u(a, b), add.reference_u(a, b));
            }
        }
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(mul.aligned_u(a, b), mul.reference_u(a, b));
            }
        }
    }

    #[test]
    fn rounding_beats_truncation_on_mse() {
        // exhaustively, for every operator that rounds or truncates
        for (tr, ro) in [
            (
                OperatorConfig::AddTrunc { n: 8, q: 5 },
                OperatorConfig::AddRound { n: 8, q: 5 },
            ),
            (
                OperatorConfig::MulSized {
                    n: 6,
                    w: 4,
                    mode: QuantMode::Trunc,
                },
                OperatorConfig::MulSized {
                    n: 6,
                    w: 4,
                    mode: QuantMode::Round,
                },
            ),
            (
                OperatorConfig::MulTrunc { n: 6, q: 6 },
                OperatorConfig::MulRound { n: 6, q: 6 },
            ),
        ] {
            let (tr, ro) = (tr.build(), ro.build());
            let bits = tr.ref_bits();
            let (mut se_t, mut se_r) = (0i128, 0i128);
            let m = mask_u(tr.input_bits());
            for a in 0..=m {
                for b in 0..=m {
                    let r = tr.reference_u(a, b);
                    let et = i128::from(crate::centered_diff(r, tr.aligned_u(a, b), bits));
                    let er = i128::from(crate::centered_diff(r, ro.aligned_u(a, b), bits));
                    se_t += et * et;
                    se_r += er * er;
                }
            }
            assert!(se_r < se_t, "{}: round {se_r} !< trunc {se_t}", tr.name());
        }
    }

    #[test]
    fn sized_multiplier_hardware_shrinks_with_w() {
        // the whole point of the family: the sized multiplier's array is
        // w×w, not n×n — gates must fall sharply with w, and below the
        // full-interface fixed-width multiplier of the same n
        let full = FixedWidthMul::new(16, 16, QuantMode::Trunc)
            .unwrap()
            .netlist()
            .stats()
            .num_gates;
        let w12 = SizedMul::new(16, 12, QuantMode::Trunc)
            .unwrap()
            .netlist()
            .stats()
            .num_gates;
        let w8 = SizedMul::new(16, 8, QuantMode::Trunc)
            .unwrap()
            .netlist()
            .stats()
            .num_gates;
        assert!(w12 < full, "MULst(16,12) {w12} !< MULt(16,16) {full}");
        assert!(w8 < w12, "MULst(16,8) {w8} !< MULst(16,12) {w12}");
    }

    #[test]
    fn sized_batch_matches_scalar_exhaustively() {
        let ops: Vec<Box<dyn ApxOperator>> = vec![
            Box::new(SizedAdd::new(8, 3, QuantMode::Trunc).unwrap()),
            Box::new(SizedAdd::new(8, 5, QuantMode::Round).unwrap()),
            Box::new(SizedAdd::new(8, 8, QuantMode::Trunc).unwrap()),
            Box::new(SizedMul::new(8, 5, QuantMode::Trunc).unwrap()),
            Box::new(SizedMul::new(8, 6, QuantMode::Round).unwrap()),
        ];
        for op in ops {
            let mut batch_a = Vec::new();
            let mut batch_b = Vec::new();
            let mut out = vec![0u64; 256];
            for a in 0..256u64 {
                batch_a.clear();
                batch_b.clear();
                for b in 0..256u64 {
                    batch_a.push(a);
                    batch_b.push(b);
                }
                op.eval_batch(&batch_a, &batch_b, &mut out);
                for (b, &got) in out.iter().enumerate() {
                    assert_eq!(got, op.eval_u(a, b as u64), "{} a={a} b={b}", op.name());
                }
            }
        }
    }

    #[test]
    fn aligned_batch_applies_shift_and_mask() {
        let op = OperatorConfig::AddTrunc { n: 12, q: 8 }.build();
        let a: Vec<u64> = (0..100u64).map(|i| (i * 41) & 0xFFF).collect();
        let b: Vec<u64> = (0..100u64).map(|i| (i * 173) & 0xFFF).collect();
        let mut out = vec![0u64; 100];
        op.aligned_batch(&a, &b, &mut out);
        for i in 0..100 {
            assert_eq!(out[i], op.aligned_u(a[i], b[i]));
        }
    }

    #[test]
    fn paper_notation_names() {
        assert_eq!(
            SizedAdd::new(16, 10, QuantMode::Trunc).unwrap().name(),
            "ADDst(16,10)"
        );
        assert_eq!(
            SizedAdd::new(16, 10, QuantMode::Round).unwrap().name(),
            "ADDsr(16,10)"
        );
        assert_eq!(
            SizedMul::new(16, 10, QuantMode::Trunc).unwrap().name(),
            "MULst(16,10)"
        );
        assert_eq!(
            SizedMul::new(16, 10, QuantMode::Round).unwrap().name(),
            "MULsr(16,10)"
        );
    }
}
