//! Gate-level netlist substrate for APXPERF-RS.
//!
//! This crate replaces the proprietary EDA flow of the original APXPERF
//! framework (Design Compiler → Modelsim → PrimeTime) with an open,
//! self-contained pipeline over the same conceptual steps:
//!
//! 1. **Structure** — [`NetlistBuilder`] constructs a gate-level [`Netlist`]
//!    from [`apx_cells::CellKind`] instances (the "RTL synthesis" output;
//!    our operator generators emit the structural netlists directly).
//! 2. **Verification** — [`verify`] checks a netlist bit-for-bit against a
//!    functional closure, exhaustively for narrow operators and on random
//!    vectors for wide ones (the paper's "Verification" box that
//!    cross-checks the VHDL and C models).
//! 3. **Timing & area** — [`sta`] performs a load-aware static timing
//!    analysis; area is rolled up from the cell library.
//! 4. **Power** — [`power`] runs a transport-delay gate-level
//!    simulation on random vectors and counts every transition,
//!    glitches included, converting activity into dynamic power at the
//!    library's operating point (the "Gate-Level Sim. + Power Estimation"
//!    boxes).
//!
//! [`HwAnalyzer`] bundles steps 3–4 into one call producing a [`HwReport`].
//!
//! # Example
//!
//! ```
//! use apx_cells::Library;
//! use apx_engine::Engine;
//! use apx_netlist::verify::verify_exhaustive2_batch_with;
//! use apx_netlist::{HwAnalyzer, NetlistBuilder};
//!
//! // A 4-bit ripple-carry adder.
//! let mut b = NetlistBuilder::new("rca4");
//! let a = b.input_bus("a", 4);
//! let y = b.input_bus("b", 4);
//! let mut carry = b.tie0();
//! let mut sum = Vec::new();
//! for i in 0..4 {
//!     let (s, c) = b.full_adder(a[i], y[i], carry);
//!     sum.push(s);
//!     carry = c;
//! }
//! b.output_bus("sum", &sum);
//! b.output_bus("cout", &[carry]);
//! let nl = b.finish();
//!
//! // Verify against integer addition (a whole batch of expected
//! // outputs at a time), then characterize.
//! verify_exhaustive2_batch_with(&nl, &Engine::single_threaded(), |a, b, out| {
//!     for ((&a, &b), o) in a.iter().zip(b).zip(out.iter_mut()) {
//!         *o = (a + b) & 0x1F;
//!     }
//! })
//! .unwrap();
//! let lib = Library::fdsoi28();
//! let report = HwAnalyzer::new(&lib).analyze(&nl);
//! assert!(report.area_um2 > 10.0 && report.delay_ns > 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod builder;
mod ir;
mod lanes;
pub mod power;
mod sim;
pub mod sta;
pub mod verify;

pub use analyzer::{HwAnalyzer, HwReport};
pub use builder::NetlistBuilder;
pub use ir::{Gate, NetId, Netlist, NetlistStats};
pub use lanes::transpose64;
pub use sim::Sim64;
