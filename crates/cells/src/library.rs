//! Technology libraries (presets) and operating conditions.

use crate::{CellKind, CellSpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Supply voltage and clock frequency at which power is reported.
///
/// The paper reports all power numbers at 100 MHz; that is the default here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Supply voltage in volts. Switching energy scales with `(vdd/nominal)²`.
    pub vdd_v: f64,
    /// Clock frequency in MHz used to convert energy/op into power.
    pub freq_mhz: f64,
}

impl Default for OperatingPoint {
    fn default() -> Self {
        OperatingPoint {
            vdd_v: 1.0,
            freq_mhz: 100.0,
        }
    }
}

/// A standard-cell technology library: a [`CellSpec`] for every
/// [`CellKind`], a wire-load model and an [`OperatingPoint`].
///
/// Two presets are provided: [`Library::fdsoi28`] (the default, standing in
/// for the paper's 28nm FDSOI library) and [`Library::generic45`] (a slower,
/// larger node used as a sanity cross-check — all conclusions must be
/// node-independent).
///
/// # Example
/// ```
/// use apx_cells::Library;
/// let lib = Library::fdsoi28();
/// assert_eq!(lib.operating_point().freq_mhz, 100.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Library {
    name: String,
    cells: BTreeMap<CellKind, CellSpec>,
    /// Extra wire capacitance per fanout endpoint, in fF.
    wire_cap_ff_per_fanout: f64,
    op: OperatingPoint,
}

impl Library {
    /// The 28nm-FDSOI-class preset used by all paper reproductions.
    ///
    /// Calibration anchors: a 16-bit ripple-carry adder comes out near
    /// 50 µm² / 0.45 ns, a 16×16 two's-complement array multiplier near
    /// 0.8–1.0 · 10³ µm² / 0.9 ns, matching Table I of the paper within
    /// small factors.
    #[must_use]
    pub fn fdsoi28() -> Self {
        let mut cells = BTreeMap::new();
        let mut put = |kind: CellKind, spec: CellSpec| {
            cells.insert(kind, spec);
        };
        put(
            CellKind::Tie0,
            CellSpec::uniform(0.21, 0.0, 0.0, 0.0, 0.0, 0.3, 0, 1),
        );
        put(
            CellKind::Tie1,
            CellSpec::uniform(0.21, 0.0, 0.0, 0.0, 0.0, 0.3, 0, 1),
        );
        put(
            CellKind::Buf,
            CellSpec::uniform(0.62, 1.0, 14.0, 1.8, 0.70, 1.5, 1, 1),
        );
        put(
            CellKind::Inv,
            CellSpec::uniform(0.42, 0.9, 8.0, 2.5, 0.45, 1.2, 1, 1),
        );
        put(
            CellKind::And2,
            CellSpec::uniform(0.83, 1.0, 16.0, 2.0, 0.90, 2.0, 2, 1),
        );
        put(
            CellKind::And3,
            CellSpec::uniform(1.04, 1.1, 18.0, 2.2, 1.10, 2.6, 3, 1),
        );
        put(
            CellKind::Or2,
            CellSpec::uniform(0.83, 1.0, 17.0, 2.1, 0.90, 2.1, 2, 1),
        );
        put(
            CellKind::Or3,
            CellSpec::uniform(1.04, 1.1, 19.0, 2.3, 1.10, 2.7, 3, 1),
        );
        put(
            CellKind::Nand2,
            CellSpec::uniform(0.62, 1.0, 10.0, 2.8, 0.70, 1.6, 2, 1),
        );
        put(
            CellKind::Nand3,
            CellSpec::uniform(0.83, 1.1, 13.0, 3.2, 0.95, 2.2, 3, 1),
        );
        put(
            CellKind::Nor2,
            CellSpec::uniform(0.62, 1.0, 11.0, 3.0, 0.70, 1.7, 2, 1),
        );
        put(
            CellKind::Nor3,
            CellSpec::uniform(0.83, 1.1, 15.0, 3.6, 0.95, 2.4, 3, 1),
        );
        put(
            CellKind::Xor2,
            CellSpec::uniform(1.46, 1.6, 22.0, 3.5, 1.90, 3.5, 2, 1),
        );
        put(
            CellKind::Xnor2,
            CellSpec::uniform(1.46, 1.6, 22.0, 3.5, 1.90, 3.5, 2, 1),
        );
        put(CellKind::Mux2, {
            let mut spec = CellSpec::uniform(1.25, 1.2, 18.0, 3.0, 1.50, 3.0, 3, 1);
            // select pin is the slow arc
            spec.arcs_ps[2][0] = 21.0;
            spec
        });
        put(
            CellKind::Aoi21,
            CellSpec::uniform(0.83, 1.0, 13.0, 3.1, 0.85, 2.0, 3, 1),
        );
        put(
            CellKind::Oai21,
            CellSpec::uniform(0.83, 1.0, 13.0, 3.1, 0.85, 2.0, 3, 1),
        );
        put(CellKind::Ha, {
            let mut spec = CellSpec::uniform(1.90, 1.5, 24.0, 3.0, 2.20, 4.0, 2, 2);
            spec.arcs_ps[0][1] = 16.0; // a -> carry
            spec.arcs_ps[1][1] = 16.0; // b -> carry
            spec
        });
        put(CellKind::Fa, {
            let mut spec = CellSpec::uniform(3.10, 1.7, 45.0, 3.0, 3.40, 6.5, 3, 2);
            spec.arcs_ps[0][1] = 35.0; // a -> cout
            spec.arcs_ps[1][1] = 35.0; // b -> cout
            spec.arcs_ps[2][0] = 30.0; // cin -> sum
            spec.arcs_ps[2][1] = 20.0; // cin -> cout (ripple-critical arc)
            spec
        });
        put(CellKind::FaX1, {
            // ~16 transistors vs 24 for the mirror adder: smaller, faster,
            // lower energy (IMPACT approximation 1).
            let mut spec = CellSpec::uniform(2.10, 1.5, 38.0, 3.0, 2.55, 4.6, 3, 2);
            spec.arcs_ps[0][1] = 30.0;
            spec.arcs_ps[1][1] = 30.0;
            spec.arcs_ps[2][0] = 26.0;
            spec.arcs_ps[2][1] = 17.0;
            spec
        });
        put(CellKind::FaX2, {
            // ~14 transistors: sum is just the inverted carry (IMPACT
            // approximation 2).
            let mut spec = CellSpec::uniform(1.75, 1.4, 34.0, 3.0, 2.10, 3.9, 3, 2);
            spec.arcs_ps[0][1] = 28.0;
            spec.arcs_ps[1][1] = 28.0;
            spec.arcs_ps[2][0] = 24.0;
            spec.arcs_ps[2][1] = 16.0;
            spec
        });
        Library {
            name: "fdsoi28".to_owned(),
            cells,
            wire_cap_ff_per_fanout: 0.4,
            op: OperatingPoint::default(),
        }
    }

    /// A generic 45nm-class preset: ~2.2× area, ~2.5× delay, ~4× energy of
    /// [`Library::fdsoi28`]. Used to check that the paper's conclusions are
    /// insensitive to the technology node.
    #[must_use]
    pub fn generic45() -> Self {
        let base = Library::fdsoi28();
        let cells = base
            .cells
            .into_iter()
            .map(|(kind, mut spec)| {
                spec.area_um2 *= 2.2;
                for row in &mut spec.arcs_ps {
                    for arc in row.iter_mut() {
                        *arc *= 2.5;
                    }
                }
                spec.input_cap_ff *= 1.6;
                spec.drive_ps_per_ff *= 1.4;
                spec.energy_fj *= 4.0;
                spec.leakage_nw *= 0.6;
                (kind, spec)
            })
            .collect();
        Library {
            name: "generic45".to_owned(),
            cells,
            wire_cap_ff_per_fanout: 0.7,
            op: OperatingPoint::default(),
        }
    }

    /// Library name (e.g. `"fdsoi28"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical spec of a cell kind.
    ///
    /// # Panics
    /// Panics if the library is missing the cell, which cannot happen for
    /// the built-in presets (checked by tests over [`crate::ALL_CELL_KINDS`]).
    #[must_use]
    pub fn spec(&self, kind: CellKind) -> &CellSpec {
        self.cells
            .get(&kind)
            .unwrap_or_else(|| panic!("library {} has no spec for {kind}", self.name))
    }

    /// Wire capacitance added per fanout endpoint, in fF.
    #[must_use]
    pub fn wire_cap_ff_per_fanout(&self) -> f64 {
        self.wire_cap_ff_per_fanout
    }

    /// The operating point at which power is reported.
    #[must_use]
    pub fn operating_point(&self) -> OperatingPoint {
        self.op
    }

    /// Whether the two libraries agree field for field, floats compared
    /// by bit pattern (so `-0.0` differs from `0.0`, unlike `==`). Equal
    /// libraries therefore serialize identically.
    #[must_use]
    pub fn bitwise_eq(&self, other: &Library) -> bool {
        self.name == other.name
            && self.cells.keys().eq(other.cells.keys())
            && self.float_bits() == other.float_bits()
    }

    /// The bit pattern of every float in the library.
    fn float_bits(&self) -> Vec<u64> {
        // exhaustive destructuring: a new field fails to compile here
        // until it is covered
        let Library {
            name: _,
            cells,
            wire_cap_ff_per_fanout,
            op: OperatingPoint { vdd_v, freq_mhz },
        } = self;
        let mut floats = vec![wire_cap_ff_per_fanout, vdd_v, freq_mhz];
        for spec in cells.values() {
            let CellSpec {
                area_um2,
                input_cap_ff,
                arcs_ps,
                drive_ps_per_ff,
                energy_fj,
                leakage_nw,
            } = spec;
            floats.extend([
                area_um2,
                input_cap_ff,
                drive_ps_per_ff,
                energy_fj,
                leakage_nw,
            ]);
            floats.extend(arcs_ps.iter().flatten());
        }
        floats.into_iter().map(|x| x.to_bits()).collect()
    }

    /// Returns a copy of this library at a different operating point.
    /// Switching energy scales with `(vdd / 1.0 V)²`.
    #[must_use]
    pub fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        let scale = (op.vdd_v / self.op.vdd_v).powi(2);
        for spec in self.cells.values_mut() {
            spec.energy_fj *= scale;
        }
        self.op = op;
        self
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::fdsoi28()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_CELL_KINDS;

    #[test]
    fn default_is_fdsoi28() {
        assert_eq!(Library::default().name(), "fdsoi28");
    }

    #[test]
    fn voltage_scaling_scales_energy_quadratically() {
        let lib = Library::fdsoi28();
        let e0 = lib.spec(CellKind::Fa).energy_fj;
        let lowered = lib.with_operating_point(OperatingPoint {
            vdd_v: 0.5,
            freq_mhz: 100.0,
        });
        let e1 = lowered.spec(CellKind::Fa).energy_fj;
        assert!((e1 - e0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn all_kinds_present() {
        let lib = Library::fdsoi28();
        for &kind in ALL_CELL_KINDS {
            let _ = lib.spec(kind);
        }
    }
}
