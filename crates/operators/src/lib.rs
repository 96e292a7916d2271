//! Functional and hardware models of every operator compared in the paper.
//!
//! Two families are implemented, mirroring §II of Barrois et al. (DATE 2017):
//!
//! * **Fixed-point (FxP) operators** — accurate adders/multipliers whose
//!   data bit-width is *carefully sized*: one adder, [`SizedAdd`]
//!   (`ADD`, `ADDt`, `ADDr`, `ADDst`, `ADDsr`), the fixed-width array
//!   multiplier [`FixedWidthMul`] (`MUL`, `MULt`, `MULr`), the sized
//!   multiplier [`SizedMul`] (`MULst`, `MULsr`) and the exact Booth
//!   multiplier [`BoothMul::exact`] (`MULbooth`).
//!   Their only error source is quantization (truncation/rounding of
//!   dropped LSBs, see [`QuantMode`]).
//! * **Approximate operators** — structurally simplified hardware:
//!   the adders [`Aca`] (Almost Correct Adder, Verma et al.), [`Eta`]
//!   (Error-Tolerant Adders II and IV, Zhu et al.: `ETAII`, `ETAIV`),
//!   [`RcaApx`] (approximate ripple-carry adder with IMPACT-style
//!   approximate full-adder cells, Gupta et al.), and the multipliers
//!   [`Aam`] (fixed-width array multiplier with diagonal compensation,
//!   Van et al.) and [`BoothMul::abm`] (`ABM`, pruned modified-Booth
//!   multiplier, Juang & Hsiao; plus [`BoothMul::abm_uncorrected`],
//!   `ABMu`, the variant reproducing the catastrophic instance measured
//!   in the paper).
//!
//! Every operator exposes **both** a bit-accurate functional model
//! ([`ApxOperator::eval_u`]) and a structural gate-level netlist
//! ([`ApxOperator::netlist`]); the two are cross-verified by the
//! framework, exactly like the C vs. VHDL equivalence check of APXPERF.
//!
//! # Parameter bounds
//!
//! Each operator's constructor (`Aca::new`, `SizedAdd::new`, …) is the
//! one statement of its family's parameter bounds: it returns `Err` with
//! a message naming the violated bound. [`OperatorConfig::validate`] runs
//! that constructor and drops the operator, so it accepts exactly what
//! [`OperatorConfig::build`] builds. The operand widths shared by a
//! whole class are [`ADDER_WIDTHS`] and [`MULTIPLIER_WIDTHS`].
//!
//! # Conventions
//!
//! Operands are `n`-bit two's-complement values carried in the low bits of
//! `u64`. Adders are bit-level sign-agnostic (mod-2ⁿ); multipliers are
//! signed (Baugh-Wooley / modified-Booth). The raw operator output is
//! [`ApxOperator::output_bits`] wide and must be left-shifted by
//! [`ApxOperator::output_shift`] to sit at the scale of the exact
//! reference, which is [`ApxOperator::ref_bits`] wide.
//!
//! # Example
//!
//! ```
//! use apx_operators::OperatorConfig;
//!
//! // 16-bit operands, 12-bit output
//! let op = OperatorConfig::AddTrunc { n: 16, q: 12 }.build();
//! assert_eq!(op.name(), "ADDt(16,12)");
//! let (a, b) = (0x1234, 0x0FF7);
//! let approx = op.aligned_u(a, b);
//! let exact = op.reference_u(a, b);
//! assert_eq!(exact, 0x222B);
//! assert_eq!(approx, 0x2220); // 4 LSBs truncated away
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adders;
mod config;
mod context;
mod mul_array;
mod mul_booth;
mod sized;
mod traits;
pub(crate) mod util;

pub use adders::{Aca, Eta, FaType, RcaApx};
pub use config::{OperatorConfig, ParseConfigError};
pub use context::{OpCounts, OperatorCtx, SiteCounts, SiteMap, SiteOps, SiteSpec};
pub use mul_array::{Aam, FixedWidthMul};
pub use mul_booth::BoothMul;
pub use sized::{QuantMode, SizedAdd, SizedMul};
pub use traits::{ApxOperator, OpClass};
pub use util::{centered_diff, mask_u, sext, to_u, ADDER_WIDTHS, MULTIPLIER_WIDTHS};
