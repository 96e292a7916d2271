//! One-call hardware characterization: area + timing + power.

use crate::ir::Netlist;
use crate::power::{self, PowerSettings};
use crate::sta;
use apx_cells::Library;
use apx_engine::Engine;
use serde::{Deserialize, Serialize};

/// Hardware characterization of one operator netlist — the per-operator
/// output of the "RTL Synthesis / Gate-Level Sim. / Power Estimation"
/// column of the APXPERF flow (Fig. 2 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HwReport {
    /// Design name (from the netlist).
    pub name: String,
    /// Total cell area in µm².
    pub area_um2: f64,
    /// Critical-path delay in ns.
    pub delay_ns: f64,
    /// Total power (dynamic + leakage) in mW at the operating point.
    pub power_mw: f64,
    /// Leakage component in µW.
    pub leakage_uw: f64,
    /// Mean switching energy per operation in pJ.
    pub energy_per_op_pj: f64,
    /// Power-delay product in pJ (`power_mw × delay_ns`), the paper's
    /// energy figure of merit.
    pub pdp_pj: f64,
    /// Gate instance count.
    pub num_gates: usize,
    /// Net count.
    pub num_nets: usize,
    /// Mean gate-output transitions per operation (glitches included).
    pub transitions_per_op: f64,
}

/// Couples a [`Library`] with [`PowerSettings`] and characterizes
/// netlists.
///
/// # Example
/// ```
/// use apx_netlist::{HwAnalyzer, NetlistBuilder};
/// use apx_cells::Library;
/// let mut b = NetlistBuilder::new("inc2");
/// let a = b.input_bus("a", 2);
/// let one = b.tie1();
/// let (s, c) = b.increment_row(&a, one);
/// let mut out = s;
/// out.push(c);
/// b.output_bus("y", &out);
/// let lib = Library::fdsoi28();
/// let report = HwAnalyzer::new(&lib).analyze(&b.finish());
/// assert_eq!(report.num_gates, 3); // tie + 2 half adders
/// ```
#[derive(Debug, Clone)]
pub struct HwAnalyzer<'a> {
    lib: &'a Library,
    settings: PowerSettings,
    engine: Engine,
}

impl<'a> HwAnalyzer<'a> {
    /// Creates an analyzer with default settings, running serially.
    #[must_use]
    pub fn new(lib: &'a Library) -> Self {
        HwAnalyzer {
            lib,
            settings: PowerSettings::default(),
            engine: Engine::single_threaded(),
        }
    }

    /// Replaces the power-estimation settings.
    #[must_use]
    pub fn with_settings(mut self, settings: PowerSettings) -> Self {
        self.settings = settings;
        self
    }

    /// Runs the power-vector shards on `engine`. Reports are bit-identical
    /// for any worker count (see [`power::estimate_with`]); only the
    /// wall-clock changes.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Characterizes a netlist: area roll-up, STA, event-driven power.
    #[must_use]
    pub fn analyze(&self, nl: &Netlist) -> HwReport {
        let area_um2: f64 = nl
            .gates()
            .iter()
            .map(|g| self.lib.spec(g.kind).area_um2)
            .sum();
        let timing = sta::analyze(nl, self.lib);
        let pwr = power::estimate_with(nl, self.lib, self.settings, &self.engine);
        let stats = nl.stats();
        HwReport {
            name: nl.name().to_owned(),
            area_um2,
            delay_ns: timing.critical_path_ns,
            power_mw: pwr.total_power_mw(),
            leakage_uw: pwr.leakage_uw,
            energy_per_op_pj: pwr.energy_per_op_pj,
            pdp_pj: pwr.total_power_mw() * timing.critical_path_ns,
            num_gates: stats.num_gates,
            num_nets: stats.num_nets,
            transitions_per_op: pwr.transitions_per_op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn rca(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new(format!("rca{width}"));
        let a = b.input_bus("a", width);
        let y = b.input_bus("b", width);
        let zero = b.tie0();
        let (sum, cout) = b.ripple_adder(&a, &y, zero);
        b.output_bus("sum", &sum);
        b.output_bus("cout", &[cout]);
        b.finish()
    }

    #[test]
    fn pdp_is_power_times_delay() {
        let lib = Library::fdsoi28();
        let report = HwAnalyzer::new(&lib)
            .with_settings(PowerSettings {
                vectors: 200,
                seed: 1,
            })
            .analyze(&rca(8));
        assert!((report.pdp_pj - report.power_mw * report.delay_ns).abs() < 1e-12);
    }

    #[test]
    fn paper_anchor_16bit_adder() {
        // Fig. 3: 16-bit fixed-point adders sit around 0.01-0.05 mW,
        // 0.3-0.5 ns, with PDP in the 10⁻²-pJ decade.
        let lib = Library::fdsoi28();
        let report = HwAnalyzer::new(&lib).analyze(&rca(16));
        assert!(
            (0.005..0.10).contains(&report.power_mw),
            "power {}",
            report.power_mw
        );
        assert!(
            (0.25..0.7).contains(&report.delay_ns),
            "delay {}",
            report.delay_ns
        );
        assert!(
            (0.002..0.05).contains(&report.pdp_pj),
            "pdp {}",
            report.pdp_pj
        );
    }

    #[test]
    fn area_is_sum_of_cells() {
        let lib = Library::fdsoi28();
        let nl = rca(4);
        let report = HwAnalyzer::new(&lib).analyze(&nl);
        let expected: f64 = nl.gates().iter().map(|g| lib.spec(g.kind).area_um2).sum();
        assert!((report.area_um2 - expected).abs() < 1e-9);
    }
}
