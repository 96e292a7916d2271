//! The operator abstraction shared by fixed-point and approximate
//! arithmetic units.

use crate::util::{mask_u, sext, to_u};
use apx_netlist::Netlist;
use serde::{Deserialize, Serialize};

/// Whether an operator is an adder or a multiplier — this determines the
/// exact reference and the full-scale normalization of error metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Two-operand adder: reference is the mod-2ⁿ sum (the paper uses the
    /// N-bit output of the accurate adder as reference).
    Adder,
    /// Two-operand signed multiplier: reference is the full 2N-bit
    /// two's-complement product.
    Multiplier,
}

/// A two-operand arithmetic operator with a bit-accurate functional model
/// and a structural hardware model.
///
/// Implementors are the concrete operator types of this crate
/// ([`crate::SizedAdd`], [`crate::Aca`], [`crate::Aam`], …). The
/// characterization framework treats them uniformly through this trait.
///
/// # Example
/// ```
/// use apx_operators::{Aca, ApxOperator};
/// let aca = Aca::new(8, 3).unwrap();
/// // speculative carry may fail: compare against the exact sum
/// let wrong = (0..=255u64)
///     .flat_map(|a| (0..=255u64).map(move |b| (a, b)))
///     .filter(|&(a, b)| aca.aligned_u(a, b) != aca.reference_u(a, b))
///     .count();
/// assert!(wrong > 0); // it is approximate...
/// assert!(wrong < 65536 / 4); // ...but mostly correct
/// ```
pub trait ApxOperator: Send + Sync {
    /// Short unique name, e.g. `"ADDt(16,12)"`, matching the paper's
    /// notation where one exists.
    fn name(&self) -> String;

    /// Adder or multiplier.
    fn op_class(&self) -> OpClass;

    /// Width `n` of each input operand in bits.
    fn input_bits(&self) -> u32;

    /// Width of the raw operator output in bits.
    fn output_bits(&self) -> u32;

    /// Left shift aligning the raw output to the reference scale.
    fn output_shift(&self) -> u32 {
        0
    }

    /// Width of the exact reference output
    /// (`n` for adders, `2n` for multipliers).
    fn ref_bits(&self) -> u32 {
        match self.op_class() {
            OpClass::Adder => self.input_bits(),
            OpClass::Multiplier => 2 * self.input_bits(),
        }
    }

    /// Full-scale exponent used for MSE normalization: errors are measured
    /// relative to `2^fullscale_bits` (the Q-format full scale: `n-1` for
    /// adders, `2n-2` for multipliers).
    fn fullscale_bits(&self) -> u32 {
        match self.op_class() {
            OpClass::Adder => self.input_bits() - 1,
            OpClass::Multiplier => 2 * self.input_bits() - 2,
        }
    }

    /// Raw output of the operator for masked unsigned operand patterns.
    fn eval_u(&self, a: u64, b: u64) -> u64;

    /// Batched form of [`ApxOperator::eval_u`]: `out[i] = eval_u(a[i],
    /// b[i])`.
    ///
    /// The scalar loop, monomorphized per operator: every operator's
    /// scalar model is a word-level closed form (native adds, products
    /// and shifts, plus the pruned multipliers' triangle and compensation
    /// words), so a loop over it is the batch kernel.
    ///
    /// # Panics
    /// Panics unless `a`, `b` and `out` have equal lengths.
    fn eval_batch(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert!(
            a.len() == b.len() && a.len() == out.len(),
            "batch length mismatch"
        );
        for ((&ai, &bi), o) in a.iter().zip(b).zip(out.iter_mut()) {
            *o = self.eval_u(ai, bi);
        }
    }

    /// Batched form of [`ApxOperator::reference_u`].
    ///
    /// # Panics
    /// Panics unless `a`, `b` and `out` have equal lengths.
    fn reference_batch(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert!(
            a.len() == b.len() && a.len() == out.len(),
            "batch length mismatch"
        );
        for ((&ai, &bi), o) in a.iter().zip(b).zip(out.iter_mut()) {
            *o = self.reference_u(ai, bi);
        }
    }

    /// Batched form of [`ApxOperator::aligned_u`]:
    /// [`ApxOperator::eval_batch`], then the alignment shift and mask.
    ///
    /// # Panics
    /// Panics unless `a`, `b` and `out` have equal lengths.
    fn aligned_batch(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        self.eval_batch(a, b, out);
        let shift = self.output_shift();
        let mask = mask_u(self.ref_bits());
        for o in out.iter_mut() {
            *o = (*o << shift) & mask;
        }
    }

    /// Exact reference output at [`ApxOperator::ref_bits`] width.
    fn reference_u(&self, a: u64, b: u64) -> u64 {
        let n = self.input_bits();
        match self.op_class() {
            OpClass::Adder => a.wrapping_add(b) & mask_u(n),
            OpClass::Multiplier => {
                let p = sext(a, n).wrapping_mul(sext(b, n));
                to_u(p, self.ref_bits())
            }
        }
    }

    /// Raw output aligned to the reference scale
    /// (`eval_u << output_shift`, masked to `ref_bits`).
    fn aligned_u(&self, a: u64, b: u64) -> u64 {
        (self.eval_u(a, b) << self.output_shift()) & mask_u(self.ref_bits())
    }

    /// Structural gate-level netlist with input buses `a`, `b` (each
    /// [`ApxOperator::input_bits`] wide) and output bus `y`
    /// ([`ApxOperator::output_bits`] wide).
    fn netlist(&self) -> Netlist;

    /// Signed evaluation convenience: interprets operands as signed,
    /// applies the operator and sign-extends the aligned result.
    fn eval_signed(&self, a: i64, b: i64) -> i64 {
        let n = self.input_bits();
        let aligned = self.aligned_u(to_u(a, n), to_u(b, n));
        sext(aligned, self.ref_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperatorConfig;

    #[test]
    fn reference_of_adder_wraps_mod_2n() {
        let op = OperatorConfig::AddExact { n: 8 }.build();
        assert_eq!(op.reference_u(0xFF, 0x01), 0x00);
        assert_eq!(op.reference_u(0x7F, 0x01), 0x80);
    }

    #[test]
    fn reference_of_multiplier_is_signed() {
        let op = OperatorConfig::MulExact { n: 4 }.build();
        // -1 * -1 = 1
        assert_eq!(op.reference_u(0xF, 0xF), 1);
        // -8 * 7 = -56 -> two's complement at 8 bits
        assert_eq!(op.reference_u(0x8, 0x7), to_u(-56, 8));
    }

    #[test]
    fn eval_signed_matches_reference_for_exact_ops() {
        let add = OperatorConfig::AddExact { n: 16 }.build();
        assert_eq!(add.eval_signed(100, -300), -200);
        let mul = OperatorConfig::MulExact { n: 16 }.build();
        assert_eq!(mul.eval_signed(-1234, 567), -1234 * 567);
    }
}
