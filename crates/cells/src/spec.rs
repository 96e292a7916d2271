//! Physical characteristics of a standard cell.

use serde::{Deserialize, Serialize};

/// Physical model of one standard cell: area, timing arcs, capacitance,
/// switching energy and leakage.
///
/// Delay of a path through the cell is
/// `delay_ps(input, output) + drive_ps_per_ff * load_ff`, where the load is
/// the sum of the input capacitances of the fanout cells plus wire
/// capacitance (see [`crate::Library::wire_cap_ff_per_fanout`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Cell area in µm².
    pub area_um2: f64,
    /// Input pin capacitance in fF (identical for all pins of the cell).
    pub input_cap_ff: f64,
    /// Intrinsic delay arcs in ps: `arcs_ps[input][output]`.
    ///
    /// Only the entries corresponding to real pins are meaningful; the rest
    /// are zero. For single-output cells only column 0 is used.
    pub arcs_ps: [[f64; 2]; 3],
    /// Load-dependent delay slope in ps per fF of output load.
    pub drive_ps_per_ff: f64,
    /// Energy dissipated per output transition, in fJ (at the library's
    /// nominal supply voltage).
    pub energy_fj: f64,
    /// Static leakage power in nW.
    pub leakage_nw: f64,
}

impl CellSpec {
    /// Intrinsic delay from `input` pin to `output` pin, in picoseconds.
    ///
    /// # Panics
    /// Panics if `input >= 3` or `output >= 2`.
    #[must_use]
    pub fn delay_ps(&self, input: usize, output: usize) -> f64 {
        self.arcs_ps[input][output]
    }

    /// Convenience constructor for a cell whose arcs are all identical.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // one scalar per physical quantity
    pub(crate) fn uniform(
        area_um2: f64,
        input_cap_ff: f64,
        delay_ps: f64,
        drive_ps_per_ff: f64,
        energy_fj: f64,
        leakage_nw: f64,
        num_inputs: usize,
        num_outputs: usize,
    ) -> Self {
        let mut arcs_ps = [[0.0; 2]; 3];
        for (i, row) in arcs_ps.iter_mut().enumerate().take(num_inputs.max(1)) {
            for (o, arc) in row.iter_mut().enumerate().take(num_outputs) {
                let _ = (i, o);
                *arc = delay_ps;
            }
        }
        CellSpec {
            area_um2,
            input_cap_ff,
            arcs_ps,
            drive_ps_per_ff,
            energy_fj,
            leakage_nw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fills_only_requested_arcs() {
        let spec = CellSpec::uniform(1.0, 1.0, 10.0, 2.0, 1.0, 1.0, 2, 1);
        assert_eq!(spec.delay_ps(0, 0), 10.0);
        assert_eq!(spec.delay_ps(1, 0), 10.0);
        assert_eq!(spec.delay_ps(2, 0), 0.0);
        assert_eq!(spec.delay_ps(0, 1), 0.0);
    }
}
