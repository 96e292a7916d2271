//! Zero-delay, 64-way bit-parallel logic simulation.
//!
//! Each net carries a 64-bit word: lane `l` of every net belongs to test
//! vector `l`, so one sweep over the gate list evaluates 64 input vectors
//! at once. This is the fast path used for functional verification and for
//! the high-sample-count error characterization (the paper runs >10⁷
//! random inputs through the C models; we get the same throughput via lane
//! parallelism).

use crate::ir::{NetId, Netlist};
use crate::lanes::{pack_lanes, unpack_lanes};

/// Packs up to 64 operand values into per-bit lane words, clearing and
/// filling `words` without allocating when its capacity already
/// suffices: `words[bit]` has lane `l` set iff bit `bit` of `values[l]`
/// is set.
///
/// # Panics
/// Panics if more than 64 values are supplied or `width > 64`.
fn pack_operand_into(width: usize, values: &[u64], words: &mut Vec<u64>) {
    assert!(width <= 64, "at most 64 bits");
    let mut block = [0u64; 64];
    pack_lanes(values, width as u32, &mut block);
    words.clear();
    words.extend_from_slice(&block[..width]);
}

/// 64-way bit-parallel zero-delay simulator over one [`Netlist`].
///
/// The simulator owns its net-value storage and an internal pack scratch
/// buffer, so one instance can be reused across any number of batches
/// without allocating — reuse it in loops rather than constructing a new
/// one per batch.
///
/// # Example
/// ```
/// use apx_netlist::{NetlistBuilder, Sim64};
/// let mut b = NetlistBuilder::new("and");
/// let a = b.input_bus("a", 1);
/// let c = b.input_bus("b", 1);
/// let y = b.and(a[0], c[0]);
/// b.output_bus("y", &[y]);
/// let nl = b.finish();
///
/// let mut sim = Sim64::new(&nl);
/// sim.set_bus_lanes("a", &[0, 1, 0, 1]);
/// sim.set_bus_lanes("b", &[0, 0, 1, 1]);
/// sim.run();
/// assert_eq!(sim.read_bus_lanes("y", 4), vec![0, 0, 0, 1]);
/// ```
#[derive(Debug)]
pub struct Sim64<'a> {
    nl: &'a Netlist,
    values: Vec<u64>,
    pack_buf: Vec<u64>,
}

impl<'a> Sim64<'a> {
    /// Creates a simulator with all nets at 0.
    #[must_use]
    pub fn new(nl: &'a Netlist) -> Self {
        Sim64 {
            nl,
            values: vec![0; nl.num_nets()],
            pack_buf: Vec::new(),
        }
    }

    /// Loads up to 64 operand values into the named input bus.
    ///
    /// # Panics
    /// Panics if the bus does not exist.
    pub fn set_bus_lanes(&mut self, bus: &str, values: &[u64]) {
        let nets = self
            .nl
            .input_bus(bus)
            .unwrap_or_else(|| panic!("no input bus {bus}"));
        self.set_bus_lanes_at(nets, values);
    }

    /// Pre-resolved form of [`Sim64::set_bus_lanes`]: takes the bus's net
    /// slice (from [`Netlist::input_bus`]) directly. Hot loops that sweep
    /// thousands of 64-lane windows over the same netlist resolve each
    /// bus name once up front instead of once per window.
    ///
    /// # Panics
    /// Panics if more than 64 values are supplied.
    pub fn set_bus_lanes_at(&mut self, nets: &[NetId], values: &[u64]) {
        let mut words = std::mem::take(&mut self.pack_buf);
        pack_operand_into(nets.len(), values, &mut words);
        for (net, word) in nets.iter().zip(&words) {
            self.values[net.index()] = *word;
        }
        self.pack_buf = words;
    }

    /// Evaluates all gates in topological order.
    pub fn run(&mut self) {
        for gate in self.nl.gates() {
            let read = |slot: NetId, values: &[u64]| {
                if slot.is_valid() {
                    values[slot.index()]
                } else {
                    0
                }
            };
            let ins = [
                read(gate.ins[0], &self.values),
                read(gate.ins[1], &self.values),
                read(gate.ins[2], &self.values),
            ];
            let (o0, o1) = gate.kind.eval64(ins);
            if gate.outs[0].is_valid() {
                self.values[gate.outs[0].index()] = o0;
            }
            if gate.outs[1].is_valid() {
                self.values[gate.outs[1].index()] = o1;
            }
        }
    }

    /// Reads `lanes` values back from the named output bus
    /// (valid after [`Sim64::run`]).
    ///
    /// # Panics
    /// Panics if the bus does not exist.
    #[must_use]
    pub fn read_bus_lanes(&self, bus: &str, lanes: usize) -> Vec<u64> {
        let nets = self
            .nl
            .output_bus(bus)
            .unwrap_or_else(|| panic!("no output bus {bus}"));
        let mut values = Vec::new();
        self.read_bus_lanes_at_into(nets, lanes, &mut values);
        values
    }

    /// Pre-resolved, buffer-reusing form of [`Sim64::read_bus_lanes`]:
    /// takes the bus's net slice (from [`Netlist::output_bus`]) directly
    /// (see [`Sim64::set_bus_lanes_at`]) and unpacks the net words
    /// straight into `values`.
    ///
    /// # Panics
    /// Panics if more than 64 lanes are requested or the bus is wider
    /// than 64 bits.
    pub fn read_bus_lanes_at_into(&self, nets: &[NetId], lanes: usize, values: &mut Vec<u64>) {
        assert!(lanes <= 64 && nets.len() <= 64, "at most 64 lanes and bits");
        let mut words = [0u64; 64];
        for (word, net) in words.iter_mut().zip(nets) {
            *word = self.values[net.index()];
        }
        values.clear();
        values.resize(lanes, 0);
        unpack_lanes(&mut words, nets.len() as u32, values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    #[test]
    fn bus_lanes_round_trip_and_buffers_are_reused_clean() {
        // a wire netlist: the output bus is the input bus itself
        let mut b = NetlistBuilder::new("wire");
        let a = b.input_bus("a", 16);
        b.output_bus("y", &a);
        let nl = b.finish();
        let mut sim = Sim64::new(&nl);
        let values: Vec<u64> = (0..64).map(|i| (i * 2654435761u64) & 0xFFFF).collect();
        sim.set_bus_lanes("a", &values);
        sim.run();
        assert_eq!(sim.read_bus_lanes("y", 64), values);
        // stale buffer content must be cleared, not merged
        let mut back = vec![7u64; 99];
        sim.read_bus_lanes_at_into(nl.output_bus("y").unwrap(), 40, &mut back);
        assert_eq!(back, values[..40]);
        let mut words = vec![0xFFFF_FFFF; 3];
        pack_operand_into(8, &[0b01, 0b10, 0b11], &mut words);
        assert_eq!(words, [0b101, 0b110, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn single_lane_matches_scalar_logic() {
        let mut b = NetlistBuilder::new("fa1");
        let a = b.input_bus("a", 1);
        let c = b.input_bus("b", 1);
        let d = b.input_bus("cin", 1);
        let (s, co) = b.full_adder(a[0], c[0], d[0]);
        b.output_bus("sum", &[s]);
        b.output_bus("cout", &[co]);
        let nl = b.finish();
        let mut sim = Sim64::new(&nl);
        for bits in 0u64..8 {
            sim.set_bus_lanes("a", &[bits & 1]);
            sim.set_bus_lanes("b", &[(bits >> 1) & 1]);
            sim.set_bus_lanes("cin", &[(bits >> 2) & 1]);
            sim.run();
            let total = (bits & 1) + ((bits >> 1) & 1) + ((bits >> 2) & 1);
            assert_eq!(sim.read_bus_lanes("sum", 1)[0], total & 1);
            assert_eq!(sim.read_bus_lanes("cout", 1)[0], total >> 1);
        }
    }

    #[test]
    fn simulator_reuse_across_batches_is_clean() {
        // a reused simulator must not leak lane state between batches
        let mut b = NetlistBuilder::new("rca");
        let a = b.input_bus("a", 4);
        let c = b.input_bus("b", 4);
        let zero = b.tie0();
        let (sum, _) = b.ripple_adder(&a, &c, zero);
        b.output_bus("y", &sum);
        let nl = b.finish();
        let mut sim = Sim64::new(&nl);
        // full 64-lane batch, then a short 3-lane batch
        let full: Vec<u64> = (0..64u64).map(|i| i % 16).collect();
        sim.set_bus_lanes("a", &full);
        sim.set_bus_lanes("b", &full);
        sim.run();
        sim.set_bus_lanes("a", &[1, 2, 3]);
        sim.set_bus_lanes("b", &[4, 5, 6]);
        sim.run();
        assert_eq!(sim.read_bus_lanes("y", 3), vec![5, 7, 9]);
    }
}
