//! Incremental construction of well-formed netlists.

use crate::ir::{Gate, NetId, Netlist};
use apx_cells::CellKind;

/// Builds a [`Netlist`] gate by gate, guaranteeing the IR invariants
/// (single driver per net, topological gate order).
///
/// The arithmetic-oriented helpers ([`NetlistBuilder::full_adder`],
/// [`NetlistBuilder::ripple_adder`], [`NetlistBuilder::compress_columns`],
/// …) cover the recurring structures of the operator generators.
///
/// # Example
/// ```
/// use apx_netlist::NetlistBuilder;
/// let mut b = NetlistBuilder::new("maj3");
/// let x = b.input_bus("x", 3);
/// let (_, maj) = b.full_adder(x[0], x[1], x[2]);
/// b.output_bus("maj", &[maj]);
/// let nl = b.finish();
/// assert_eq!(nl.gates().len(), 1);
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    num_nets: u32,
    gates: Vec<Gate>,
    inputs: Vec<(String, Vec<NetId>)>,
    outputs: Vec<(String, Vec<NetId>)>,
    tie0: Option<NetId>,
    tie1: Option<NetId>,
}

impl NetlistBuilder {
    /// Starts a new netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            num_nets: 0,
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            tie0: None,
            tie1: None,
        }
    }

    fn fresh_net(&mut self) -> NetId {
        let id = NetId(self.num_nets);
        self.num_nets += 1;
        id
    }

    /// Declares a primary input bus of `width` bits (LSB first).
    ///
    /// # Panics
    /// Panics if a bus with the same name already exists.
    pub fn input_bus(&mut self, name: impl Into<String>, width: usize) -> Vec<NetId> {
        let name = name.into();
        assert!(
            self.inputs.iter().all(|(n, _)| *n != name),
            "duplicate input bus {name}"
        );
        let bus: Vec<NetId> = (0..width).map(|_| self.fresh_net()).collect();
        self.inputs.push((name, bus.clone()));
        bus
    }

    /// Declares a primary output bus referencing existing nets (LSB first).
    ///
    /// # Panics
    /// Panics if a bus with the same name already exists or a net is invalid.
    pub fn output_bus(&mut self, name: impl Into<String>, bits: &[NetId]) {
        let name = name.into();
        assert!(
            self.outputs.iter().all(|(n, _)| *n != name),
            "duplicate output bus {name}"
        );
        assert!(bits.iter().all(|n| n.is_valid() && n.0 < self.num_nets));
        self.outputs.push((name, bits.to_vec()));
    }

    /// Instantiates a single-output gate and returns its output net.
    ///
    /// # Panics
    /// Panics if `ins` does not match the cell's arity, the cell has two
    /// outputs, or an input net does not exist yet.
    pub fn gate1(&mut self, kind: CellKind, ins: &[NetId]) -> NetId {
        assert_eq!(kind.num_outputs(), 1, "{kind} has two outputs, use gate2");
        assert_eq!(ins.len(), kind.num_inputs(), "{kind} arity mismatch");
        assert!(ins.iter().all(|n| n.is_valid() && n.0 < self.num_nets));
        let out = self.fresh_net();
        let mut pins = [NetId::INVALID; 3];
        pins[..ins.len()].copy_from_slice(ins);
        self.gates.push(Gate {
            kind,
            ins: pins,
            outs: [out, NetId::INVALID],
        });
        out
    }

    /// Instantiates a two-output gate (`Ha`/`Fa`), returning `(out0, out1)`.
    ///
    /// # Panics
    /// Panics on arity mismatch as for [`NetlistBuilder::gate1`].
    pub fn gate2(&mut self, kind: CellKind, ins: &[NetId]) -> (NetId, NetId) {
        assert_eq!(kind.num_outputs(), 2, "{kind} has one output, use gate1");
        assert_eq!(ins.len(), kind.num_inputs(), "{kind} arity mismatch");
        assert!(ins.iter().all(|n| n.is_valid() && n.0 < self.num_nets));
        let o0 = self.fresh_net();
        let o1 = self.fresh_net();
        let mut pins = [NetId::INVALID; 3];
        pins[..ins.len()].copy_from_slice(ins);
        self.gates.push(Gate {
            kind,
            ins: pins,
            outs: [o0, o1],
        });
        (o0, o1)
    }

    /// Constant-0 net (tie cell, shared across the design).
    pub fn tie0(&mut self) -> NetId {
        if let Some(n) = self.tie0 {
            return n;
        }
        let n = self.gate1(CellKind::Tie0, &[]);
        self.tie0 = Some(n);
        n
    }

    /// Constant-1 net (tie cell, shared across the design).
    pub fn tie1(&mut self) -> NetId {
        if let Some(n) = self.tie1 {
            return n;
        }
        let n = self.gate1(CellKind::Tie1, &[]);
        self.tie1 = Some(n);
        n
    }

    /// `!a`
    pub fn not(&mut self, a: NetId) -> NetId {
        self.gate1(CellKind::Inv, &[a])
    }

    /// `a & b`
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate1(CellKind::And2, &[a, b])
    }

    /// `a | b`
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate1(CellKind::Or2, &[a, b])
    }

    /// `a ^ b`
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate1(CellKind::Xor2, &[a, b])
    }

    /// `!(a & b)`
    pub fn nand(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate1(CellKind::Nand2, &[a, b])
    }

    /// Half adder: returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: NetId, b: NetId) -> (NetId, NetId) {
        self.gate2(CellKind::Ha, &[a, b])
    }

    /// Full adder: returns `(sum, cout)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        self.gate2(CellKind::Fa, &[a, b, cin])
    }

    /// `width`-bit ripple-carry adder over two equal-width buses.
    /// Returns `(sum_bits, cout)`.
    ///
    /// # Panics
    /// Panics if the buses differ in width or are empty.
    pub fn ripple_adder(&mut self, a: &[NetId], b: &[NetId], cin: NetId) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len(), "operand width mismatch");
        assert!(!a.is_empty(), "zero-width adder");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&ai, &bi) in a.iter().zip(b) {
            let (s, c) = self.full_adder(ai, bi, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Ripple chain that adds a single bit `inc` into bus `a` (an
    /// increment-by-0/1 row built from half adders). Returns
    /// `(sum_bits, carry_out)`.
    pub fn increment_row(&mut self, a: &[NetId], inc: NetId) -> (Vec<NetId>, NetId) {
        let mut carry = inc;
        let mut sum = Vec::with_capacity(a.len());
        for &ai in a {
            let (s, c) = self.half_adder(ai, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Reduces a column-indexed bag of partial-product bits to a single
    /// binary number using a greedy Wallace-style FA/HA compressor followed
    /// by a ripple carry-propagate stage.
    ///
    /// `columns[w]` holds the bits of weight `2^w`. Returns `width` result
    /// bits (LSB first); any carry beyond `width` is discarded (modular
    /// arithmetic, as in real fixed-width datapaths).
    pub fn compress_columns(&mut self, mut columns: Vec<Vec<NetId>>, width: usize) -> Vec<NetId> {
        columns.resize_with(width.max(columns.len()), Vec::new);
        // Phase 1: reduce every column to at most 2 bits. Bits are consumed
        // FIFO (earliest-produced first), so reduction forms a balanced
        // Wallace-style tree of logarithmic depth rather than a serial
        // chain — this is what keeps multiplier critical paths near the
        // paper's ~0.9 ns anchor.
        let mut w = 0;
        while w < columns.len() {
            let mut cursor = 0;
            while columns[w].len() - cursor > 2 {
                let a = columns[w][cursor];
                let b = columns[w][cursor + 1];
                let c = columns[w][cursor + 2];
                cursor += 3;
                let (s, cout) = self.full_adder(a, b, c);
                columns[w].push(s);
                if w + 1 < width {
                    if w + 1 >= columns.len() {
                        columns.resize_with(w + 2, Vec::new);
                    }
                    columns[w + 1].push(cout);
                }
            }
            columns[w].drain(..cursor);
            w += 1;
        }
        // Phase 2: carry-propagate the (≤2)-bit columns with a ripple chain.
        self.final_carry_propagate(columns, width)
    }

    /// Ripple carry-propagate over columns that phase 1 reduced to ≤2 bits.
    fn final_carry_propagate(&mut self, columns: Vec<Vec<NetId>>, width: usize) -> Vec<NetId> {
        let zero = self.tie0();
        let mut result = Vec::with_capacity(width);
        let mut carry = zero;
        for w in 0..width {
            let col = if w < columns.len() {
                columns[w].as_slice()
            } else {
                &[]
            };
            match col.len() {
                0 => {
                    // only the carry
                    result.push(carry);
                    carry = zero;
                }
                1 => {
                    let (s, c) = self.half_adder(col[0], carry);
                    result.push(s);
                    carry = c;
                }
                2 => {
                    let (s, c) = self.full_adder(col[0], col[1], carry);
                    result.push(s);
                    carry = c;
                }
                _ => unreachable!("phase 1 leaves at most 2 bits per column"),
            }
        }
        result
    }

    /// Array-style (carry-save row) variant of
    /// [`NetlistBuilder::compress_columns`]: at most **one** full adder per
    /// column per stage, modelling the classic ripple array multiplier
    /// structure (as in Van's AAM) instead of a balanced Wallace tree.
    /// Same function, longer critical path, more glitch activity — exactly
    /// the structural difference the paper's Table I reflects between the
    /// synthesized `MULt` and the RTL array of `AAM`.
    pub fn compress_columns_array(
        &mut self,
        mut columns: Vec<Vec<NetId>>,
        width: usize,
    ) -> Vec<NetId> {
        columns.resize_with(width.max(columns.len()), Vec::new);
        loop {
            let mut progressed = false;
            let mut carries: Vec<Vec<NetId>> = vec![Vec::new(); columns.len() + 1];
            for w in 0..columns.len() {
                if columns[w].len() >= 3 {
                    let a = columns[w].remove(0);
                    let b = columns[w].remove(0);
                    let c = columns[w].remove(0);
                    let (s, cout) = self.full_adder(a, b, c);
                    columns[w].push(s);
                    if w + 1 < width {
                        carries[w + 1].push(cout);
                    }
                    progressed = true;
                }
            }
            for (w, mut cs) in carries.into_iter().enumerate() {
                if w < columns.len() {
                    columns[w].append(&mut cs);
                }
            }
            if !progressed {
                break;
            }
        }
        // final carry-propagate stage shared with the tree variant
        self.final_carry_propagate(columns, width)
    }

    /// Finalizes the netlist.
    ///
    /// # Panics
    /// Panics if no output bus was declared.
    #[must_use]
    pub fn finish(self) -> Netlist {
        assert!(!self.outputs.is_empty(), "netlist without outputs");
        Netlist {
            name: self.name,
            num_nets: self.num_nets,
            gates: self.gates,
            inputs: self.inputs,
            outputs: self.outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{batched, verify_exhaustive2_batch_with};
    use apx_engine::Engine;

    /// Exhaustively checks a two-bus netlist against `f(a, b)`.
    fn assert_exact(nl: &Netlist, f: impl Fn(u64, u64) -> u64 + Sync) {
        verify_exhaustive2_batch_with(nl, &Engine::single_threaded(), batched(f))
            .unwrap_or_else(|e| panic!("{}: {e}", nl.name()));
    }

    #[test]
    fn ripple_adder_is_exact() {
        for width in 1..=6usize {
            let mut b = NetlistBuilder::new(format!("rca{width}"));
            let a = b.input_bus("a", width);
            let y = b.input_bus("b", width);
            let zero = b.tie0();
            let (sum, cout) = b.ripple_adder(&a, &y, zero);
            let mut out = sum;
            out.push(cout);
            b.output_bus("y", &out);
            let nl = b.finish();
            let mask = (1u64 << (width + 1)) - 1;
            assert_exact(&nl, |x, y| (x + y) & mask);
        }
    }

    #[test]
    fn compressor_sums_arbitrary_columns() {
        // columns encode 3*1 + 2*2 + 1*4 = 3 + 4 + 4: verify against a
        // closure that recomputes the column sum from the inputs.
        let mut b = NetlistBuilder::new("columns");
        let lo = b.input_bus("a", 3);
        let hi = b.input_bus("b", 3);
        let columns = vec![vec![lo[0], lo[1], lo[2]], vec![hi[0], hi[1]], vec![hi[2]]];
        let out = b.compress_columns(columns, 4);
        b.output_bus("y", &out);
        let nl = b.finish();
        assert_exact(&nl, |lo, hi| {
            let v = lo | hi << 3;
            let bit = |i: usize| (v >> i) & 1;
            (bit(0) + bit(1) + bit(2) + 2 * (bit(3) + bit(4)) + 4 * bit(5)) & 0xF
        });
    }

    #[test]
    fn increment_row_adds_one_bit() {
        let mut b = NetlistBuilder::new("inc");
        let a = b.input_bus("a", 4);
        let inc = b.input_bus("inc", 1);
        let (sum, cout) = b.increment_row(&a, inc[0]);
        let mut out = sum;
        out.push(cout);
        b.output_bus("y", &out);
        let nl = b.finish();
        assert_exact(&nl, |a, inc| (a + inc) & 0x1F);
    }

    #[test]
    #[should_panic(expected = "duplicate input bus")]
    fn duplicate_bus_name_panics() {
        let mut b = NetlistBuilder::new("dup");
        let _ = b.input_bus("a", 1);
        let _ = b.input_bus("a", 1);
    }

    #[test]
    fn tie_cells_are_shared() {
        let mut b = NetlistBuilder::new("tie");
        let t0 = b.tie0();
        let t0b = b.tie0();
        assert_eq!(t0, t0b);
        let x = b.input_bus("a", 1);
        let y = b.or(x[0], t0);
        b.output_bus("y", &[y]);
        assert_eq!(b.finish().stats().cell_histogram[&CellKind::Tie0], 1);
    }
}
