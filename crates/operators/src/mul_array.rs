//! Array (Baugh-Wooley) multipliers: the fixed-width multiplier
//! [`FixedWidthMul`] (exact `MUL`, truncated `MULt` and rounded `MULr`
//! in one type) and the AAM approximate array multiplier of Van et al.
//!
//! All array multipliers here share one source of truth for the partial-
//! product grid: [`bw_terms`] places every Baugh-Wooley term (AND, NAND or
//! constant 1) at its column, and every **netlist generator** instantiates
//! those terms. The **functional models** are word-level closed forms:
//! the fixed-width multiplier is the signed product the full grid sums
//! to (mod `2^{2n}`, pinned by `bw_grid_sums_to_the_signed_product`), and
//! AAM is that product minus the pruned triangle plus its compensation.
//! Tests pin AAM's closed form against a walk over the kept grid terms;
//! netlist cross-verification pins the compression.
//!
//! Baugh-Wooley (modified form), for `n`-bit two's-complement operands:
//!
//! ```text
//! a·b ≡  Σ_{i,j<n-1} aᵢbⱼ 2^{i+j}
//!      + Σ_{j<n-1} !(a_{n-1}bⱼ) 2^{n-1+j}  + Σ_{i<n-1} !(aᵢb_{n-1}) 2^{n-1+i}
//!      + a_{n-1}b_{n-1} 2^{2n-2} + 2^{2n-1} + 2^n        (mod 2^{2n})
//! ```

use crate::sized::{check_kept_bits, Notation, QuantMode};
use crate::traits::{ApxOperator, OpClass};
use crate::util::{
    bit, check_multiplier_width, mask_u, require, sext, signed_product, to_u, MULTIPLIER_WIDTHS,
};
use apx_netlist::{NetId, Netlist, NetlistBuilder};

/// One Baugh-Wooley partial-product term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BwTerm {
    /// `a_i & b_j`
    And(u32, u32),
    /// `!(a_i & b_j)`
    Nand(u32, u32),
    /// Constant 1.
    One,
}

impl BwTerm {
    pub(crate) fn net(self, b: &mut NetlistBuilder, av: &[NetId], bv: &[NetId]) -> NetId {
        match self {
            BwTerm::And(i, j) => b.and(av[i as usize], bv[j as usize]),
            BwTerm::Nand(i, j) => b.nand(av[i as usize], bv[j as usize]),
            BwTerm::One => b.tie1(),
        }
    }
}

/// The complete modified-Baugh-Wooley term grid for an `n×n` signed
/// multiplier: `terms[c]` holds the terms of weight `2^c`, `c < 2n`.
pub(crate) fn bw_terms(n: u32) -> Vec<Vec<BwTerm>> {
    let mut cols = vec![Vec::new(); (2 * n) as usize];
    for i in 0..n {
        for j in 0..n {
            let sign_i = i == n - 1;
            let sign_j = j == n - 1;
            let term = if sign_i ^ sign_j {
                BwTerm::Nand(i, j)
            } else {
                BwTerm::And(i, j)
            };
            cols[(i + j) as usize].push(term);
        }
    }
    cols[n as usize].push(BwTerm::One);
    cols[(2 * n - 1) as usize].push(BwTerm::One);
    cols
}

/// Builds the nets of the kept columns for a netlist.
pub(crate) fn build_columns(
    b: &mut NetlistBuilder,
    cols: &[Vec<BwTerm>],
    av: &[NetId],
    bv: &[NetId],
    keep: impl Fn(u32) -> bool,
) -> Vec<Vec<NetId>> {
    cols.iter()
        .enumerate()
        .map(|(c, col)| {
            if keep(c as u32) {
                col.iter().map(|t| t.net(b, av, bv)).collect()
            } else {
                Vec::new()
            }
        })
        .collect()
}

/// Fixed-width array multiplier: the exact `n×n → 2n` two's-complement
/// product (modified Baugh-Wooley grid + Wallace-style compression), of
/// which only the `q` most-significant bits are kept (post-quantization
/// — the whole carry structure is retained, which is why it is the most
/// accurate fixed-width choice). Rounding injects the constant
/// `2^(2n-q-1)` into the compression grid, centering the quantization
/// error at zero for one extra compressor input.
///
/// It prints as `MUL(n,2n)` (the exact multiplier, `q == 2n`, the
/// accuracy reference for all multiplier comparisons) or
/// `MULt(n,q)`/`MULr(n,q)`, depending on the
/// [`OperatorConfig`](crate::OperatorConfig) it was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedWidthMul {
    n: u32,
    q: u32,
    mode: QuantMode,
    notation: Notation,
}

impl FixedWidthMul {
    /// Creates `MULt(n, q)` / `MULr(n, q)`.
    pub fn new(n: u32, q: u32, mode: QuantMode) -> Result<Self, String> {
        Self::with_notation(n, q, mode, Notation::Kept)
    }

    /// [`FixedWidthMul::new`] printing as `notation`.
    pub(crate) fn with_notation(
        n: u32,
        q: u32,
        mode: QuantMode,
        notation: Notation,
    ) -> Result<Self, String> {
        // the width check comes first: it keeps `2 * n` from overflowing
        check_multiplier_width(n)?;
        check_kept_bits(q, 2 * n, mode)?;
        Ok(FixedWidthMul {
            n,
            q,
            mode,
            notation,
        })
    }
}

impl ApxOperator for FixedWidthMul {
    fn name(&self) -> String {
        let (n, q, mode) = (self.n, self.q, self.mode);
        match self.notation {
            Notation::Exact => format!("MUL({n},{q})"),
            Notation::Kept | Notation::Sized => format!("MUL{mode}({n},{q})"),
        }
    }
    fn op_class(&self) -> OpClass {
        OpClass::Multiplier
    }
    fn input_bits(&self) -> u32 {
        self.n
    }
    fn output_bits(&self) -> u32 {
        self.q
    }
    fn output_shift(&self) -> u32 {
        2 * self.n - self.q
    }
    fn eval_u(&self, a: u64, b: u64) -> u64 {
        // The Baugh-Wooley grid the netlist instantiates sums to the
        // signed product mod 2^{2n} (pinned by
        // `bw_grid_sums_to_the_signed_product`), so the model is the
        // closed form rather than an O(n²) term walk: the product plus
        // the rounding constant, mod 2^{2n}, then the q MSBs
        let shift = 2 * self.n - self.q;
        let full = sext(a, self.n) * sext(b, self.n) + self.mode.half(shift) as i64;
        to_u(full, 2 * self.n) >> shift
    }
    fn netlist(&self) -> Netlist {
        let n = self.n as usize;
        let shift = 2 * n - self.q as usize;
        let mut b = NetlistBuilder::new(self.name());
        let av = b.input_bus("a", n);
        let bv = b.input_bus("b", n);
        let cols = bw_terms(self.n);
        let mut columns = build_columns(&mut b, &cols, &av, &bv, |_| true);
        if self.mode == QuantMode::Round {
            let one = b.tie1();
            columns[shift - 1].push(one);
        }
        let out = b.compress_columns(columns, 2 * n);
        b.output_bus("y", &out[shift..]);
        let mut nl = b.finish();
        nl.prune_dead_gates();
        nl
    }
}

/// Approximate Array Multiplier `AAM(n)` — Van, Wang, Feng (IEEE TCAS-II,
/// 2000): a fixed-width (`n`-bit output) array multiplier whose
/// partial-product cells **below the main diagonal are pruned** and
/// replaced by a compensation network built from the diagonal partial
/// products (a row of OR gates feeding the first kept column — the
/// "simple series of AND and OR gates along the diagonal" of the paper).
///
/// Compared with `MULt(n, n)` ([`FixedWidthMul`]), AAM removes roughly
/// half of the array (area win) at the price of a statistical rather than
/// exact carry into the kept half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aam {
    n: u32,
    tree_compression: bool,
}

impl Aam {
    /// Creates `AAM(n)` with the faithful ripple-array accumulation
    /// structure (Van's design is an array multiplier; its longer, glitchy
    /// carry-save rows are why the paper measures it slower and hungrier
    /// than the synthesized `MULt`).
    pub fn new(n: u32) -> Result<Self, String> {
        let widths = 4..=*MULTIPLIER_WIDTHS.end();
        require(widths.contains(&n), || {
            format!("AAM width n={n} out of range {widths:?}")
        })?;
        Ok(Aam {
            n,
            tree_compression: false,
        })
    }

    /// Ablation variant: same pruning/compensation but with balanced
    /// Wallace-tree accumulation, isolating how much of AAM's cost is the
    /// array structure rather than the approximation.
    #[must_use]
    pub fn with_tree_compression(mut self) -> Self {
        self.tree_compression = true;
        self
    }
}

impl ApxOperator for Aam {
    fn name(&self) -> String {
        if self.tree_compression {
            format!("AAMtree({})", self.n)
        } else {
            format!("AAM({})", self.n)
        }
    }
    fn op_class(&self) -> OpClass {
        OpClass::Multiplier
    }
    fn input_bits(&self) -> u32 {
        self.n
    }
    fn output_bits(&self) -> u32 {
        self.n
    }
    fn output_shift(&self) -> u32 {
        self.n
    }
    fn eval_u(&self, a: u64, b: u64) -> u64 {
        let n = self.n;
        let m = mask_u(n);
        let (a, b) = (a & m, b & m);
        // The full grid sums to the signed product, so the kept columns
        // (>= n) sum to it minus the pruned triangle below column n: the
        // AND terms a_i·b_j with i, j < n-1 and i+j < n, one masked row
        // per a_i, and the two NAND terms of column n-1. The difference is
        // a multiple of 2^n, so only the triangle's carry into column n
        // reaches the output
        let b_low = b & mask_u(n - 1);
        let mut low = 0;
        for i in 0..n - 1 {
            low += bit(a, i) * ((b_low << i) & m);
        }
        low += (2 - bit(a, n - 1) * bit(b, 0) - bit(a, 0) * bit(b, n - 1)) << (n - 1);
        let kept = signed_product(a, b, n).wrapping_sub(low) & mask_u(2 * n);
        // compensation: the column n-1 terms a_i·b_{n-1-i} (NAND at both
        // ends) as one word, OR-ed in adjacent pairs (2k, 2k+1)
        let diag = (a & (b.reverse_bits() >> (64 - n))) ^ (1 | 1 << (n - 1));
        let comp = ((diag | diag >> 1) & 0x5555_5555_5555_5555).count_ones();
        ((kept >> n) + u64::from(comp)) & m
    }
    fn netlist(&self) -> Netlist {
        let n = self.n as usize;
        let mut b = NetlistBuilder::new(self.name());
        let av = b.input_bus("a", n);
        let bv = b.input_bus("b", n);
        let cols = bw_terms(self.n);
        // kept columns re-based at weight n (the output scale)
        let mut columns: Vec<Vec<NetId>> = (0..n).map(|_| Vec::new()).collect();
        for c in n..2 * n {
            for term in &cols[c] {
                let net = term.net(&mut b, &av, &bv);
                columns[c - n].push(net);
            }
        }
        // compensation: the diagonal (column n-1) terms in ascending i
        // order, OR-ed in adjacent pairs, into col 0
        let diag_nets: Vec<NetId> = cols[n - 1]
            .iter()
            .map(|t| t.net(&mut b, &av, &bv))
            .collect();
        for pair in diag_nets.chunks(2) {
            let comp = if pair.len() == 2 {
                b.or(pair[0], pair[1])
            } else {
                pair[0]
            };
            columns[0].push(comp);
        }
        let out = if self.tree_compression {
            b.compress_columns(columns, n)
        } else {
            b.compress_columns_array(columns, n)
        };
        b.output_bus("y", &out);
        let mut nl = b.finish();
        nl.prune_dead_gates();
        nl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{cross_verify, test_operands};
    use crate::OperatorConfig;

    impl BwTerm {
        fn value(self, a: u64, b: u64) -> u64 {
            match self {
                BwTerm::And(i, j) => bit(a, i) & bit(b, j),
                BwTerm::Nand(i, j) => 1 ^ (bit(a, i) & bit(b, j)),
                BwTerm::One => 1,
            }
        }
    }

    /// Sums the term grid functionally (columns filtered by `keep`).
    fn sum_terms(cols: &[Vec<BwTerm>], a: u64, b: u64, keep: impl Fn(u32) -> bool) -> u128 {
        let mut total = 0u128;
        for (c, col) in cols.iter().enumerate() {
            if keep(c as u32) {
                for term in col {
                    total += u128::from(term.value(a, b)) << c;
                }
            }
        }
        total
    }

    /// AAM as its netlist builds it, one grid term at a time: the kept
    /// columns >= n, plus the column n-1 terms OR-ed in adjacent pairs
    /// at weight n.
    fn aam_grid_walk(n: u32, a: u64, b: u64) -> u64 {
        let cols = bw_terms(n);
        let mut total = sum_terms(&cols, a, b, |c| c >= n);
        let diag: Vec<u64> = cols[(n - 1) as usize]
            .iter()
            .map(|t| t.value(a, b))
            .collect();
        for pair in diag.chunks(2) {
            total += u128::from(pair.iter().fold(0, |acc, v| acc | v)) << n;
        }
        ((total >> n) as u64) & mask_u(n)
    }

    #[test]
    fn bw_grid_sums_to_the_signed_product() {
        for n in [2u32, 3, 4, 5, 6] {
            let cols = bw_terms(n);
            for a in 0..1u64 << n {
                for b in 0..1u64 << n {
                    let got = (sum_terms(&cols, a, b, |_| true) as u64) & mask_u(2 * n);
                    assert_eq!(got, signed_product(a, b, n), "n={n} a={a:#x} b={b:#x}");
                }
            }
        }
    }

    #[test]
    fn fixed_width_multiplier_netlist_matches_model() {
        let mut configs: Vec<OperatorConfig> = Vec::new();
        for n in [3u32, 4, 6, 16] {
            configs.push(OperatorConfig::MulExact { n });
        }
        for (n, q) in [(4u32, 4u32), (4, 8), (6, 6), (6, 3)] {
            configs.push(OperatorConfig::MulTrunc { n, q });
        }
        for (n, q) in [(4u32, 4u32), (6, 6), (6, 9)] {
            configs.push(OperatorConfig::MulRound { n, q });
        }
        for config in configs {
            cross_verify(&*config.build());
        }
    }

    #[test]
    fn aam_power_activity_statistically_matches_the_pre_bitslice_estimator() {
        // Statistical-equivalence guard for the power schema bump on a
        // deep, glitchy array structure (the RCA-side guard lives in
        // apx_netlist::power). The pinned number was captured from the
        // retired serial-chain estimator at exactly these settings; the
        // lane sub-stream semantics may shift it only by sampling noise.
        use apx_netlist::power::{estimate, PowerSettings};
        let report = estimate(
            &Aam::new(16).unwrap().netlist(),
            &apx_cells::Library::fdsoi28(),
            PowerSettings {
                vectors: 4_000,
                seed: 0xA9CE55,
            },
        );
        let got = report.transitions_per_op;
        assert!(
            (got - 173.40275).abs() / 173.40275 < 0.05,
            "AAM(16) transitions_per_op {got} vs pre-bitslice 173.40275"
        );
    }

    #[test]
    fn aam_netlist_matches_model() {
        for n in [4u32, 5, 6, 7, 9] {
            cross_verify(&Aam::new(n).unwrap());
        }
        cross_verify(&Aam::new(16).unwrap());
        cross_verify(&Aam::new(24).unwrap());
    }

    #[test]
    fn aam_closed_form_matches_the_grid_walk_exhaustively() {
        for n in 4u32..=8 {
            let op = Aam::new(n).unwrap();
            for a in 0..1u64 << n {
                for b in 0..1u64 << n {
                    assert_eq!(
                        op.eval_u(a, b),
                        aam_grid_walk(n, a, b),
                        "n={n} a={a:#x} b={b:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn aam_closed_form_matches_the_grid_walk_at_every_width() {
        for n in 4u32..=*MULTIPLIER_WIDTHS.end() {
            let op = Aam::new(n).unwrap();
            for (a, b) in test_operands(n, 2_000, 0xAA + u64::from(n)) {
                assert_eq!(
                    op.eval_u(a, b),
                    aam_grid_walk(n, a, b),
                    "n={n} a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn trunc_error_is_the_dropped_fraction() {
        let op = FixedWidthMul::new(8, 8, QuantMode::Trunc).unwrap();
        for (a, b) in [(0x7Fu64, 0x7Fu64), (0x80, 0x80), (0xAB, 0x34), (0x01, 0xFF)] {
            let e = crate::centered_diff(op.reference_u(a, b), op.aligned_u(a, b), 16);
            assert!((0..256).contains(&e), "e={e}");
        }
    }

    #[test]
    fn aam_tracks_the_exact_fixed_width_product() {
        // Exhaustive 8-bit: AAM output must stay within a few output LSBs
        // of the truncated exact product (Table I: AAM ~1 dB worse).
        let aam = Aam::new(8).unwrap();
        let mut worst = 0i64;
        for a in 0..256u64 {
            for b in 0..256u64 {
                let e = crate::centered_diff(aam.reference_u(a, b), aam.aligned_u(a, b), 16);
                // e is at product scale; output LSB is 2^8
                worst = worst.max(e.abs() / 256);
            }
        }
        assert!(worst <= 8, "AAM should stay within ~8 output LSBs: {worst}");
    }

    #[test]
    fn aam_is_smaller_than_the_exact_fixed_width_multiplier() {
        let full = FixedWidthMul::new(16, 16, QuantMode::Trunc)
            .unwrap()
            .netlist()
            .stats()
            .num_gates;
        let aam = Aam::new(16).unwrap().netlist().stats().num_gates;
        assert!(
            aam < full,
            "AAM ({aam} gates) must be smaller than MULt ({full} gates)"
        );
    }
}
