//! Load-aware static timing analysis.
//!
//! Computes per-net arrival times over the topologically ordered gate list
//! using the cell library's per-arc intrinsic delays plus a linear
//! load-dependent term (fanout input capacitance + wire capacitance).
//! This plays the role of the timing report from RTL synthesis in the
//! original APXPERF flow.

use crate::ir::Netlist;
use apx_cells::Library;

/// Result of a static timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Worst arrival time over all primary outputs, in ns.
    pub critical_path_ns: f64,
    /// Arrival time per net, in ns (primary inputs arrive at 0).
    pub arrival_ns: Vec<f64>,
}

/// Capacitive load per net in fF: sum of fanout pin capacitances plus wire
/// capacitance per fanout endpoint. Primary outputs count as one endpoint.
#[must_use]
pub fn net_loads_ff(nl: &Netlist, lib: &Library) -> Vec<f64> {
    let wire = lib.wire_cap_ff_per_fanout();
    let mut load = vec![0.0f64; nl.num_nets()];
    for gate in nl.gates() {
        let cap = lib.spec(gate.kind).input_cap_ff;
        for input in gate.inputs() {
            load[input.index()] += cap + wire;
        }
    }
    for (_, bus) in nl.outputs() {
        for net in bus {
            load[net.index()] += wire;
        }
    }
    load
}

/// Runs static timing analysis over `nl` with library `lib`.
///
/// # Example
/// ```
/// use apx_netlist::{sta, NetlistBuilder};
/// use apx_cells::Library;
/// let mut b = NetlistBuilder::new("chain");
/// let a = b.input_bus("a", 2);
/// let x = b.xor(a[0], a[1]);
/// let y = b.xor(x, a[0]);
/// b.output_bus("y", &[y]);
/// let nl = b.finish();
/// let t = sta::analyze(&nl, &Library::fdsoi28());
/// assert!(t.critical_path_ns > 0.0);
/// ```
#[must_use]
pub fn analyze(nl: &Netlist, lib: &Library) -> TimingReport {
    let loads = net_loads_ff(nl, lib);
    let mut arrival = vec![0.0f64; nl.num_nets()];
    for gate in nl.gates() {
        let spec = lib.spec(gate.kind);
        for (o, &out) in gate.outs.iter().enumerate() {
            if !out.is_valid() {
                continue;
            }
            let load_term = spec.drive_ps_per_ff * loads[out.index()];
            let mut at = 0.0f64;
            if gate.kind.num_inputs() == 0 {
                // tie cells arrive immediately
            } else {
                for (i, &input) in gate.ins.iter().enumerate() {
                    if !input.is_valid() {
                        continue;
                    }
                    let cand = arrival[input.index()] + (spec.delay_ps(i, o) + load_term) / 1000.0;
                    at = at.max(cand);
                }
            }
            arrival[out.index()] = at;
        }
    }
    let mut critical = 0.0f64;
    for (_, bus) in nl.outputs() {
        for net in bus {
            critical = critical.max(arrival[net.index()]);
        }
    }
    TimingReport {
        critical_path_ns: critical,
        arrival_ns: arrival,
    }
}

/// Per-output-pin propagation delay of each gate in ps (worst input arc
/// plus load term), used by the power simulators.
#[must_use]
pub(crate) fn gate_output_delays_ps(nl: &Netlist, lib: &Library) -> Vec<[u64; 2]> {
    let loads = net_loads_ff(nl, lib);
    nl.gates()
        .iter()
        .map(|gate| {
            let spec = lib.spec(gate.kind);
            let mut delays = [0u64; 2];
            for (o, &out) in gate.outs.iter().enumerate() {
                if !out.is_valid() {
                    continue;
                }
                let load_term = spec.drive_ps_per_ff * loads[out.index()];
                let worst = (0..gate.kind.num_inputs())
                    .map(|i| spec.delay_ps(i, o))
                    .fold(0.0f64, f64::max);
                delays[o] = (worst + load_term).round().max(1.0) as u64;
            }
            delays
        })
        .collect()
}

/// Per-gate propagation delays quantized onto the event simulator's tick
/// grid (see [`quantize_delays`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayTicks {
    /// Per-gate, per-output-pin propagation delay in ticks. Unused pins
    /// hold 0; every used pin is ≥ 1 tick.
    pub ticks: Vec<[u64; 2]>,
    /// Physical duration of one tick in ps — the GCD of every used
    /// per-pin delay, so the quantization is exact: `ticks × tick_ps`
    /// reproduces the ps delays bit for bit and relative event order is
    /// untouched.
    pub tick_ps: u64,
    /// Largest per-pin delay in ticks: how far past an input change the
    /// resulting output change can land. The scalar power reference sizes
    /// its timing wheel on it (every pending event lies within
    /// `max_ticks` of the current simulation time).
    pub max_ticks: u64,
}

/// Quantizes the per-output-pin propagation delays of every gate onto
/// the coarsest exact tick grid.
///
/// The power simulators time every transition in these ticks. Dividing
/// all ps delays by their GCD is a *lossless* requantization — change
/// times scale uniformly, so coincidence (which changes land at the same
/// instant, and so merge into one evaluation) and ordering are identical
/// to simulating in raw ps — while keeping the numbers small (and the
/// scalar reference's timing wheel short).
///
/// # Example
/// ```
/// use apx_netlist::{sta, NetlistBuilder};
/// use apx_cells::Library;
/// let mut b = NetlistBuilder::new("x");
/// let a = b.input_bus("a", 2);
/// let y = b.xor(a[0], a[1]);
/// b.output_bus("y", &[y]);
/// let q = sta::quantize_delays(&b.finish(), &Library::fdsoi28());
/// assert!(q.tick_ps >= 1 && q.max_ticks >= 1);
/// ```
#[must_use]
pub fn quantize_delays(nl: &Netlist, lib: &Library) -> DelayTicks {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    let ps = gate_output_delays_ps(nl, lib);
    let mut tick_ps = 0u64;
    for (gate, delays) in nl.gates().iter().zip(&ps) {
        for (o, &out) in gate.outs.iter().enumerate() {
            if out.is_valid() {
                tick_ps = gcd(tick_ps, delays[o]);
            }
        }
    }
    let tick_ps = tick_ps.max(1);
    let mut max_ticks = 0u64;
    let ticks = nl
        .gates()
        .iter()
        .zip(&ps)
        .map(|(gate, delays)| {
            let mut t = [0u64; 2];
            for (o, &out) in gate.outs.iter().enumerate() {
                if out.is_valid() {
                    t[o] = delays[o] / tick_ps;
                    // the levelized power pass relies on it: no gate
                    // reacts at the instant its input changes
                    debug_assert!(t[o] >= 1, "a used pin is under one tick");
                    max_ticks = max_ticks.max(t[o]);
                }
            }
            t
        })
        .collect();
    DelayTicks {
        ticks,
        tick_ps,
        max_ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn rca(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("rca");
        let a = b.input_bus("a", width);
        let y = b.input_bus("b", width);
        let zero = b.tie0();
        let (sum, cout) = b.ripple_adder(&a, &y, zero);
        b.output_bus("sum", &sum);
        b.output_bus("cout", &[cout]);
        b.finish()
    }

    #[test]
    fn ripple_delay_grows_linearly_with_width() {
        let lib = Library::fdsoi28();
        let d4 = analyze(&rca(4), &lib).critical_path_ns;
        let d8 = analyze(&rca(8), &lib).critical_path_ns;
        let d16 = analyze(&rca(16), &lib).critical_path_ns;
        assert!(d8 > d4 && d16 > d8);
        // per-stage increments should be roughly constant (ripple chain)
        let inc1 = d8 - d4;
        let inc2 = d16 - d8;
        assert!((inc2 - 2.0 * inc1).abs() < 0.35 * inc2.max(inc1));
    }

    #[test]
    fn sixteen_bit_adder_lands_near_the_paper_anchor() {
        // Paper Fig. 3b: 16-bit fixed-point adders around 0.35-0.5 ns.
        let lib = Library::fdsoi28();
        let d = analyze(&rca(16), &lib).critical_path_ns;
        assert!((0.25..0.7).contains(&d), "16-bit RCA delay {d} ns");
    }

    #[test]
    fn arrival_is_monotone_along_the_carry_chain() {
        let lib = Library::fdsoi28();
        let nl = rca(8);
        let report = analyze(&nl, &lib);
        let sums = nl.output_bus("sum").unwrap();
        for w in sums.windows(2) {
            assert!(report.arrival_ns[w[1].index()] >= report.arrival_ns[w[0].index()]);
        }
    }

    #[test]
    fn quantized_delays_reproduce_the_ps_delays_exactly() {
        let lib = Library::fdsoi28();
        let nl = rca(8);
        let ps = gate_output_delays_ps(&nl, &lib);
        let q = quantize_delays(&nl, &lib);
        assert_eq!(q.ticks.len(), ps.len());
        let mut seen_max = 0;
        for (gate, (ticks, ps)) in nl.gates().iter().zip(q.ticks.iter().zip(&ps)) {
            for (o, &out) in gate.outs.iter().enumerate() {
                if out.is_valid() {
                    assert_eq!(ticks[o] * q.tick_ps, ps[o], "lossless requantization");
                    assert!(ticks[o] >= 1);
                    seen_max = seen_max.max(ticks[o]);
                } else {
                    assert_eq!(ticks[o], 0);
                }
            }
        }
        assert_eq!(q.max_ticks, seen_max);
    }

    #[test]
    fn loads_include_wire_and_pin_caps() {
        let lib = Library::fdsoi28();
        let mut b = NetlistBuilder::new("fanout");
        let a = b.input_bus("a", 1);
        let x1 = b.not(a[0]);
        let x2 = b.not(a[0]);
        b.output_bus("y", &[x1, x2]);
        let nl = b.finish();
        let loads = net_loads_ff(&nl, &lib);
        let pin = lib.spec(apx_cells::CellKind::Inv).input_cap_ff;
        let wire = lib.wire_cap_ff_per_fanout();
        assert!((loads[0] - 2.0 * (pin + wire)).abs() < 1e-9);
    }
}
