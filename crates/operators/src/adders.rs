//! The approximate adders of the paper. The exact and carefully sized
//! fixed-point adders (`ADD`, `ADDt`, `ADDr`: §II-A, the "careful data
//! sizing" side) are all [`SizedAdd`](crate::SizedAdd).
//!
//! * [`Aca`] — Almost Correct Adder (Verma, Brisk, Ienne — DATE'08):
//!   every sum bit `i` is computed from an accurate addition of the bits
//!   `i-P..=i` only (speculative carry of length `P`).
//! * [`Eta`] — Error-Tolerant Adders type II (Zhu et al., ISIC'09) and
//!   type IV (Zhu, Goh, Wang, Yeo — ISOCC'10): the adder is split in
//!   `N/X` blocks of `X` bits; each block takes a carry-in speculated
//!   from the previous block (ETAII) or the previous **two** (ETAIV).
//! * [`RcaApx`] — approximate ripple-carry adder (Gupta et al., IMPACT,
//!   ISLPED'11): the `n-m` LSB positions use approximate full-adder cells
//!   of a chosen [`FaType`]; the `m` MSBs use accurate full adders.
//!
//! Every functional model is a word-level closed form of a few native
//! additions and masks. The speculative adders rest on one identity: a
//! carry speculated over a window equals the exact carry of `a + b`
//! unless every bit of the window propagates. Their independent check is
//! netlist cross-verification over every parameter of each family.

use crate::traits::{ApxOperator, OpClass};
use crate::util::{bit, check_adder_width, mask_u, require};
use apx_cells::CellKind;
use apx_netlist::{NetId, Netlist, NetlistBuilder};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Almost Correct Adder `ACA(n, p)` — Verma et al., DATE 2008.
///
/// Sum bit `i` is produced by an exact addition of the operand bits
/// `max(0, i-p)..=i` with a zero carry-in: the carry chain is speculated
/// over at most `p` positions. Errors are rare ("fail rare") but can have
/// a large amplitude when a long real carry is cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aca {
    n: u32,
    p: u32,
}

impl Aca {
    /// Creates `ACA(n, p)` with speculative carry length `p` (`p == n`
    /// degenerates to the exact adder).
    pub fn new(n: u32, p: u32) -> Result<Self, String> {
        check_adder_width(n)?;
        require((1..=n).contains(&p), || {
            format!("speculation window p={p} out of range 1..={n}")
        })?;
        Ok(Aca { n, p })
    }
}

impl ApxOperator for Aca {
    fn name(&self) -> String {
        format!("ACA({},{})", self.n, self.p)
    }
    fn op_class(&self) -> OpClass {
        OpClass::Adder
    }
    fn input_bits(&self) -> u32 {
        self.n
    }
    fn output_bits(&self) -> u32 {
        self.n
    }
    fn eval_u(&self, a: u64, b: u64) -> u64 {
        // Bit `i` misses its exact carry `c[i]` only when the whole window
        // `i-p..i` propagates (a generate in the window would have set the
        // speculated carry itself). `run` marks the ends of such windows;
        // zeros shifted in from below keep windows truncated at bit 0 exact.
        let (t, c) = carries(a, b);
        let mut run = t;
        let mut len = 1;
        while len < self.p {
            let step = len.min(self.p - len);
            run &= run << step;
            len += step;
        }
        (t ^ (c & !(run << 1))) & mask_u(self.n)
    }
    fn netlist(&self) -> Netlist {
        let n = self.n as usize;
        let p = self.p as usize;
        let mut b = NetlistBuilder::new(self.name());
        let av = b.input_bus("a", n);
        let bv = b.input_bus("b", n);
        // shared propagate/generate per bit position
        let ps: Vec<_> = (0..n).map(|i| b.xor(av[i], bv[i])).collect();
        let gs: Vec<_> = (0..n).map(|i| b.and(av[i], bv[i])).collect();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(p);
            if i == lo {
                out.push(ps[i]); // no carry window: sum = a ^ b
                continue;
            }
            let carry = speculative_carry(&mut b, &ps, &gs, lo, i);
            out.push(b.xor(ps[i], carry));
        }
        b.output_bus("y", &out);
        let mut nl = b.finish();
        nl.prune_dead_gates();
        nl
    }
}

/// The propagate word `a ^ b` and the exact carry into every bit of
/// `a + b`.
#[inline]
fn carries(a: u64, b: u64) -> (u64, u64) {
    let t = a ^ b;
    (t, (a + b) ^ t)
}

/// The carry out of bits `lo..hi` of a speculative chain with carry-in 0,
/// built on the per-bit propagate `ps` and generate `gs` nets: `gs[lo]`,
/// then one AOI21 + INV link `c' = (p & c) | g` per further bit.
fn speculative_carry(
    b: &mut NetlistBuilder,
    ps: &[NetId],
    gs: &[NetId],
    lo: usize,
    hi: usize,
) -> NetId {
    let mut carry = gs[lo];
    for j in lo + 1..hi {
        let ninv = b.gate1(CellKind::Aoi21, &[ps[j], carry, gs[j]]);
        carry = b.not(ninv);
    }
    carry
}

/// Error-Tolerant Adders `ETAII(n, x)` — Zhu et al., ISIC 2009 — and
/// `ETAIV(n, x)` — Zhu, Goh, Wang, Yeo, ISOCC 2010.
///
/// The operands are split into `n/x` blocks of `x` bits. Block `k`
/// computes an exact `x`-bit sum whose carry-in is speculated from an
/// exact addition of the `blocks` blocks below it (carry-in 0): one for
/// ETAII, two for ETAIV. ETAIV thus trades the full carry chain for a
/// chain of at most `2x` positions, and ETAII halves that window
/// (cheaper, less accurate). `x == n` degenerates to the exact adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eta {
    n: u32,
    x: u32,
    blocks: u32,
    /// Bit `k·x` of every `x`-bit block of the `n`-bit word.
    lows: u64,
}

impl Eta {
    /// Creates `ETAII(n, x)` with block size `x`.
    pub fn ii(n: u32, x: u32) -> Result<Self, String> {
        Self::new(n, x, 1)
    }

    /// Creates `ETAIV(n, x)` with block size `x`.
    pub fn iv(n: u32, x: u32) -> Result<Self, String> {
        Self::new(n, x, 2)
    }

    fn new(n: u32, x: u32, blocks: u32) -> Result<Self, String> {
        check_adder_width(n)?;
        require(x >= 1 && n.is_multiple_of(x), || {
            format!("block size x={x} must divide n={n}")
        })?;
        let lows = (0..n / x).fold(0, |lows, k| lows | 1 << (k * x));
        Ok(Eta { n, x, blocks, lows })
    }
}

impl ApxOperator for Eta {
    fn name(&self) -> String {
        let kind = if self.blocks == 2 { "IV" } else { "II" };
        format!("ETA{kind}({},{})", self.n, self.x)
    }
    fn op_class(&self) -> OpClass {
        OpClass::Adder
    }
    fn input_bits(&self) -> u32 {
        self.n
    }
    fn output_bits(&self) -> u32 {
        self.n
    }
    fn eval_u(&self, a: u64, b: u64) -> u64 {
        // Each block's carry-in is the exact carry unless the `blocks`
        // blocks below it all propagate; the blocks then add as one SWAR
        // word whose carries never cross a block's top bit.
        let mask = mask_u(self.n);
        let tops = self.lows << (self.x - 1);
        let below_top = mask & !tops;
        let (t, c) = carries(a, b);
        let full = ((t & below_top) + self.lows) & t & tops;
        let cut = if self.blocks == 2 {
            (full << 1) & (full << (self.x + 1))
        } else {
            full << 1
        };
        let cin = c & !cut & self.lows & !1;
        (((a & below_top) + (b & below_top) + cin) ^ (t & tops)) & mask
    }
    fn netlist(&self) -> Netlist {
        let n = self.n as usize;
        let x = self.x as usize;
        let window = (self.blocks * self.x) as usize;
        let mut b = NetlistBuilder::new(self.name());
        let av = b.input_bus("a", n);
        let bv = b.input_bus("b", n);
        let ps: Vec<_> = (0..n).map(|i| b.xor(av[i], bv[i])).collect();
        let gs: Vec<_> = (0..n).map(|i| b.and(av[i], bv[i])).collect();
        let zero = b.tie0();
        let mut out = Vec::with_capacity(n);
        for blo in (0..n).step_by(x) {
            let cin = if blo == 0 {
                zero
            } else {
                speculative_carry(&mut b, &ps, &gs, blo.saturating_sub(window), blo)
            };
            let (sum, _cout) = b.ripple_adder(&av[blo..blo + x], &bv[blo..blo + x], cin);
            out.extend(sum);
        }
        b.output_bus("y", &out);
        let mut nl = b.finish();
        nl.prune_dead_gates();
        nl
    }
}

/// The three approximate full-adder flavours of `RCAApx`, sorted by
/// decreasing accuracy as in the paper (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaType {
    /// IMPACT approximation 1: exact carry, sum wrong on 2 of 8 input rows
    /// (`011`, `100`).
    One,
    /// IMPACT approximation 2: exact carry, `sum = !cout`
    /// (wrong on `000`, `111`).
    Two,
    /// Wire-only cell: `sum = b`, `cout = a`. Zero transistors, worst
    /// accuracy.
    Three,
}

impl FaType {
    /// Applies the approximate truth table to 64 independent cells at
    /// once, one per bit position; returns the `(sum, cout)` words.
    #[inline]
    #[must_use]
    pub fn apply64(self, a: u64, b: u64, c: u64) -> (u64, u64) {
        let maj = (a & b) | (a & c) | (b & c);
        match self {
            FaType::One => ((!a & (b | c)) | (a & b & c), maj),
            FaType::Two => (!maj, maj),
            FaType::Three => (b, a),
        }
    }
}

impl fmt::Display for FaType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digit = match self {
            FaType::One => '1',
            FaType::Two => '2',
            FaType::Three => '3',
        };
        write!(f, "{digit}")
    }
}

/// Approximate ripple-carry adder `RCAApx(n, m, type)` — Gupta et al.,
/// ISLPED 2011 (IMPACT).
///
/// The `n-m` least-significant positions use approximate full-adder cells
/// of the given [`FaType`]; the top `m` positions are exact full adders
/// fed by the (approximate) carry of the LSB part. Quantization never
/// happens — all `n` output bits are produced, which is precisely the
/// "hidden cost" the paper measures at application level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RcaApx {
    n: u32,
    m: u32,
    fa_type: FaType,
}

impl RcaApx {
    /// Creates `RCAApx(n, m, fa_type)` with `m` accurate MSBs.
    pub fn new(n: u32, m: u32, fa_type: FaType) -> Result<Self, String> {
        check_adder_width(n)?;
        require(m <= n, || {
            format!("accurate MSBs m={m} out of range 0..={n}")
        })?;
        Ok(RcaApx { n, m, fa_type })
    }
}

impl ApxOperator for RcaApx {
    fn name(&self) -> String {
        format!("RCAApx({},{},{})", self.n, self.m, self.fa_type)
    }
    fn op_class(&self) -> OpClass {
        OpClass::Adder
    }
    fn input_bits(&self) -> u32 {
        self.n
    }
    fn output_bits(&self) -> u32 {
        self.n
    }
    fn eval_u(&self, a: u64, b: u64) -> u64 {
        let na = self.n - self.m; // approximate LSB count
        let low = mask_u(na);
        // Types 1 and 2 keep the exact (majority) carry, so the top `m`
        // bits are the exact sum and each low cell sees its exact carry-in.
        // Type 3 wires `a[na-1]` into the exact part as its carry-in.
        let top = match self.fa_type {
            FaType::Three if na > 0 => ((a >> na) + (b >> na) + bit(a, na - 1)) << na,
            _ => a + b,
        };
        let (_, c) = carries(a, b);
        let (cells, _) = self.fa_type.apply64(a, b, c);
        ((top & !low) | (cells & low)) & mask_u(self.n)
    }
    fn netlist(&self) -> Netlist {
        let n = self.n as usize;
        let na = (self.n - self.m) as usize;
        let mut b = NetlistBuilder::new(self.name());
        let av = b.input_bus("a", n);
        let bv = b.input_bus("b", n);
        let mut carry = b.tie0();
        let mut out = Vec::with_capacity(n);
        for i in 0..na {
            match self.fa_type {
                FaType::One => {
                    let (s, c) = b.gate2(CellKind::FaX1, &[av[i], bv[i], carry]);
                    out.push(s);
                    carry = c;
                }
                FaType::Two => {
                    let (s, c) = b.gate2(CellKind::FaX2, &[av[i], bv[i], carry]);
                    out.push(s);
                    carry = c;
                }
                FaType::Three => {
                    // wires only: sum = b, carry = a
                    out.push(bv[i]);
                    carry = av[i];
                }
            }
        }
        for i in na..n {
            let (s, c) = b.full_adder(av[i], bv[i], carry);
            out.push(s);
            carry = c;
        }
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

    /// The widths the closed forms are checked at against their netlists:
    /// exhaustively at 8 bits, on random vectors at 16 and 32.
    const NETLIST_WIDTHS: [u32; 3] = [8, 16, 32];

    #[test]
    fn aca_netlist_matches_model() {
        for n in NETLIST_WIDTHS {
            for p in 1..=n {
                cross_verify(&Aca::new(n, p).unwrap());
            }
        }
        cross_verify(&Aca::new(10, 3).unwrap());
    }

    #[test]
    fn eta_netlist_matches_model() {
        for eta in [Eta::ii, Eta::iv] {
            for n in NETLIST_WIDTHS {
                for x in (1..=n).filter(|x| n.is_multiple_of(*x)) {
                    cross_verify(&eta(n, x).unwrap());
                }
            }
            cross_verify(&eta(9, 3).unwrap());
        }
    }

    #[test]
    fn etaiv_is_at_least_as_accurate_as_etaii() {
        // ETAIV's two-block speculation window subsumes ETAII's one-block
        // window, so its error rate cannot be worse.
        for x in [1u32, 2, 4] {
            let ii = Eta::ii(8, x).unwrap();
            let iv = Eta::iv(8, x).unwrap();
            let (mut e2, mut e4) = (0u64, 0u64);
            for a in 0..256u64 {
                for b in 0..256u64 {
                    let r = ii.reference_u(a, b);
                    e2 += u64::from(ii.eval_u(a, b) != r);
                    e4 += u64::from(iv.eval_u(a, b) != r);
                }
            }
            assert!(e4 <= e2, "x={x}: ETAIV errors {e4} !<= ETAII errors {e2}");
        }
    }

    #[test]
    fn rcaapx_netlist_matches_model() {
        for t in [FaType::One, FaType::Two, FaType::Three] {
            for n in NETLIST_WIDTHS {
                for m in 0..=n {
                    cross_verify(&RcaApx::new(n, m, t).unwrap());
                }
            }
        }
    }

    #[test]
    fn aca_with_full_window_is_exact() {
        let op = Aca::new(8, 8).unwrap();
        for a in 0..256u64 {
            for b in 0..256u64 {
                assert_eq!(op.eval_u(a, b), op.reference_u(a, b));
            }
        }
    }

    #[test]
    fn etaiv_single_block_is_exact() {
        let op = Eta::iv(8, 8).unwrap();
        for a in (0..256u64).step_by(3) {
            for b in (0..256u64).step_by(7) {
                assert_eq!(op.eval_u(a, b), op.reference_u(a, b));
            }
        }
    }

    #[test]
    fn rcaapx_all_accurate_is_exact() {
        let op = RcaApx::new(8, 8, FaType::Three).unwrap();
        for a in (0..256u64).step_by(5) {
            for b in (0..256u64).step_by(3) {
                assert_eq!(op.eval_u(a, b), op.reference_u(a, b));
            }
        }
    }

    #[test]
    fn error_rate_ordering_of_fa_types() {
        // Exhaustive over 8-bit operands with m = 4 accurate MSBs: type 1
        // must err less often than type 3 (ordering per the paper).
        let count_errors = |t: FaType| {
            let op = RcaApx::new(8, 4, t).unwrap();
            let mut wrong = 0u64;
            for a in 0..256u64 {
                for b in 0..256u64 {
                    if op.eval_u(a, b) != op.reference_u(a, b) {
                        wrong += 1;
                    }
                }
            }
            wrong
        };
        let (e1, e2, e3) = (
            count_errors(FaType::One),
            count_errors(FaType::Two),
            count_errors(FaType::Three),
        );
        // Types 1 and 2 each flip two symmetric truth-table rows (±1), so
        // under uniform inputs their aggregate error statistics coincide;
        // type 3 (wire-only) errs far more often. The trade-off that
        // justifies the type ordering is hardware cost (type 3 is free,
        // type 2 cheaper than type 1), checked in the netlist test below.
        assert_eq!(e1, e2, "types 1 and 2 have symmetric error tables");
        assert!(
            e1 < e3,
            "type1 ({e1}) must err less often than type3 ({e3})"
        );
    }

    #[test]
    fn aca_speculation_failures_are_rare_but_large() {
        // "fail rare / fail moderate" classification of §II-B.
        let op = Aca::new(16, 4).unwrap();
        let mut wrong = 0u64;
        let mut max_abs = 0i64;
        let mut x = 0x1234_5678_u64;
        let mut next = || {
            // xorshift for a cheap deterministic stream
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 0xFFFF
        };
        let total = 20_000;
        for _ in 0..total {
            let (a, b) = (next(), next());
            let e = crate::centered_diff(op.reference_u(a, b), op.aligned_u(a, b), 16);
            if e != 0 {
                wrong += 1;
                max_abs = max_abs.max(e.abs());
            }
        }
        let rate = wrong as f64 / total as f64;
        assert!(rate < 0.5, "errors should be the minority: {rate}");
        assert!(rate > 0.001, "but they must exist: {rate}");
        assert!(max_abs >= 1 << 4, "speculation failures are high-amplitude");
    }

    #[test]
    fn paper_notation_names() {
        assert_eq!(Aca::new(16, 12).unwrap().name(), "ACA(16,12)");
        assert_eq!(Eta::ii(16, 4).unwrap().name(), "ETAII(16,4)");
        assert_eq!(Eta::iv(16, 4).unwrap().name(), "ETAIV(16,4)");
        assert_eq!(
            RcaApx::new(16, 6, FaType::Three).unwrap().name(),
            "RCAApx(16,6,3)"
        );
    }
}
