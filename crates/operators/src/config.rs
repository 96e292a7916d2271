//! Serializable operator configurations — the sweep currency of the
//! framework (the paper sweeps "all possible combinations of parameters",
//! §IV).

use crate::adders::{Aca, Eta, FaType, RcaApx};
use crate::mul_array::{Aam, FixedWidthMul};
use crate::mul_booth::BoothMul;
use crate::sized::{Notation, QuantMode, SizedAdd, SizedMul};
use crate::traits::{ApxOperator, OpClass};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A value-level description of one operator instance.
///
/// `OperatorConfig` is what sweeps enumerate, what reports record, and what
/// [`OperatorConfig::build`] turns into a live [`ApxOperator`].
///
/// # Example
/// ```
/// use apx_operators::OperatorConfig;
/// let op = OperatorConfig::Aca { n: 16, p: 4 }.build();
/// assert_eq!(op.name(), "ACA(16,4)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperatorConfig {
    /// Exact `n`-bit adder.
    AddExact {
        /// Operand width.
        n: u32,
    },
    /// Truncated fixed-point adder (`q` output bits kept).
    AddTrunc {
        /// Operand width.
        n: u32,
        /// Kept output bits.
        q: u32,
    },
    /// Rounded fixed-point adder (`q` output bits kept).
    AddRound {
        /// Operand width.
        n: u32,
        /// Kept output bits.
        q: u32,
    },
    /// Almost Correct Adder with carry speculation length `p`.
    Aca {
        /// Operand width.
        n: u32,
        /// Carry speculation window.
        p: u32,
    },
    /// Error-Tolerant Adder IV with block size `x`.
    EtaIv {
        /// Operand width.
        n: u32,
        /// Block size (divides `n`).
        x: u32,
    },
    /// Error-Tolerant Adder II (one-block speculation, ETAIV's
    /// predecessor).
    EtaIi {
        /// Operand width.
        n: u32,
        /// Block size (divides `n`).
        x: u32,
    },
    /// IMPACT approximate ripple-carry adder with `m` accurate MSBs.
    RcaApx {
        /// Operand width.
        n: u32,
        /// Accurate MSB count.
        m: u32,
        /// Approximate full-adder flavour.
        fa_type: FaType,
    },
    /// Exact `n×n → 2n` array multiplier.
    MulExact {
        /// Operand width.
        n: u32,
    },
    /// Truncated fixed-width multiplier (`q` of `2n` bits kept).
    MulTrunc {
        /// Operand width.
        n: u32,
        /// Kept output bits.
        q: u32,
    },
    /// Rounded fixed-width multiplier.
    MulRound {
        /// Operand width.
        n: u32,
        /// Kept output bits.
        q: u32,
    },
    /// Exact radix-4 modified-Booth multiplier.
    MulBooth {
        /// Operand width (even).
        n: u32,
    },
    /// Van-style approximate array multiplier (fixed width `n`).
    Aam {
        /// Operand width.
        n: u32,
    },
    /// Juang-style pruned Booth multiplier (sign-correct).
    Abm {
        /// Operand width (even).
        n: u32,
    },
    /// Pruned Booth multiplier without sign correction (paper-shape ABM).
    AbmUncorrected {
        /// Operand width (even).
        n: u32,
    },
    /// Sized exact adder: inputs quantized to `w` effective bits
    /// (truncation or round-to-nearest), then an exact `w`-bit addition —
    /// the data-sizing baseline family.
    AddSized {
        /// Interface operand width.
        n: u32,
        /// Effective operand width after input quantization.
        w: u32,
        /// Input quantization mode.
        mode: QuantMode,
    },
    /// Sized exact multiplier: inputs quantized to `w` effective bits,
    /// then an exact `w×w → 2w` multiplication (the array itself
    /// shrinks, unlike the output-truncated `MULt`).
    MulSized {
        /// Interface operand width.
        n: u32,
        /// Effective operand width after input quantization.
        w: u32,
        /// Input quantization mode.
        mode: QuantMode,
    },
}

impl OperatorConfig {
    /// Instantiates the operator.
    ///
    /// # Panics
    /// Panics with the message of [`OperatorConfig::validate`] if the
    /// parameters are out of range for the operator family.
    #[must_use]
    pub fn build(&self) -> Box<dyn ApxOperator> {
        self.try_build().unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// The operator, or the bound its constructor found violated.
    fn try_build(&self) -> Result<Box<dyn ApxOperator>, String> {
        use QuantMode::{Round, Trunc};
        let add = SizedAdd::with_notation;
        let mul = FixedWidthMul::with_notation;
        Ok(match *self {
            OperatorConfig::AddExact { n } => Box::new(add(n, n, Trunc, Notation::Exact)?),
            OperatorConfig::AddTrunc { n, q } => Box::new(add(n, q, Trunc, Notation::Kept)?),
            OperatorConfig::AddRound { n, q } => Box::new(add(n, q, Round, Notation::Kept)?),
            OperatorConfig::Aca { n, p } => Box::new(Aca::new(n, p)?),
            OperatorConfig::EtaIv { n, x } => Box::new(Eta::iv(n, x)?),
            OperatorConfig::EtaIi { n, x } => Box::new(Eta::ii(n, x)?),
            OperatorConfig::RcaApx { n, m, fa_type } => Box::new(RcaApx::new(n, m, fa_type)?),
            // saturating: an `n` too wide to double fails the width check
            OperatorConfig::MulExact { n } => {
                Box::new(mul(n, n.saturating_mul(2), Trunc, Notation::Exact)?)
            }
            OperatorConfig::MulTrunc { n, q } => Box::new(mul(n, q, Trunc, Notation::Kept)?),
            OperatorConfig::MulRound { n, q } => Box::new(mul(n, q, Round, Notation::Kept)?),
            OperatorConfig::MulBooth { n } => Box::new(BoothMul::exact(n)?),
            OperatorConfig::Aam { n } => Box::new(Aam::new(n)?),
            OperatorConfig::Abm { n } => Box::new(BoothMul::abm(n)?),
            OperatorConfig::AbmUncorrected { n } => Box::new(BoothMul::abm_uncorrected(n)?),
            OperatorConfig::AddSized { n, w, mode } => Box::new(SizedAdd::new(n, w, mode)?),
            OperatorConfig::MulSized { n, w, mode } => Box::new(SizedMul::new(n, w, mode)?),
        })
    }

    /// Adder or multiplier (without building the operator).
    #[must_use]
    pub fn op_class(&self) -> OpClass {
        match self {
            OperatorConfig::AddExact { .. }
            | OperatorConfig::AddTrunc { .. }
            | OperatorConfig::AddRound { .. }
            | OperatorConfig::Aca { .. }
            | OperatorConfig::EtaIv { .. }
            | OperatorConfig::EtaIi { .. }
            | OperatorConfig::RcaApx { .. }
            | OperatorConfig::AddSized { .. } => OpClass::Adder,
            _ => OpClass::Multiplier,
        }
    }

    /// Whether this is a carefully-sized fixed-point operator (the
    /// truncation/rounding family) as opposed to a functional
    /// approximation.
    #[must_use]
    pub fn is_fixed_point(&self) -> bool {
        matches!(
            self,
            OperatorConfig::AddExact { .. }
                | OperatorConfig::AddTrunc { .. }
                | OperatorConfig::AddRound { .. }
                | OperatorConfig::MulExact { .. }
                | OperatorConfig::MulTrunc { .. }
                | OperatorConfig::MulRound { .. }
                | OperatorConfig::MulBooth { .. }
                | OperatorConfig::AddSized { .. }
                | OperatorConfig::MulSized { .. }
        )
    }

    /// Checks the parameters by running the operator's constructor, the
    /// one place each family states its bounds, so `validate` accepts
    /// exactly what [`OperatorConfig::build`] builds. `build` panics on a
    /// violation, `validate` reports it: the right form for input that
    /// arrives from outside (CLI arguments, HTTP queries, config files).
    ///
    /// # Errors
    /// A human-readable description of the violated bound.
    pub fn validate(&self) -> Result<(), String> {
        self.try_build().map(drop)
    }

    /// Operand width `n`.
    #[must_use]
    pub fn input_bits(&self) -> u32 {
        match *self {
            OperatorConfig::AddExact { n }
            | OperatorConfig::AddTrunc { n, .. }
            | OperatorConfig::AddRound { n, .. }
            | OperatorConfig::Aca { n, .. }
            | OperatorConfig::EtaIv { n, .. }
            | OperatorConfig::EtaIi { n, .. }
            | OperatorConfig::RcaApx { n, .. }
            | OperatorConfig::MulExact { n }
            | OperatorConfig::MulTrunc { n, .. }
            | OperatorConfig::MulRound { n, .. }
            | OperatorConfig::MulBooth { n }
            | OperatorConfig::Aam { n }
            | OperatorConfig::Abm { n }
            | OperatorConfig::AbmUncorrected { n }
            | OperatorConfig::AddSized { n, .. }
            | OperatorConfig::MulSized { n, .. } => n,
        }
    }
}

impl fmt::Display for OperatorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.build().name())
    }
}

/// Error returned by the [`OperatorConfig`] `FromStr` impl: the input
/// does not name an operator in the paper notation, or its parameters
/// violate a bound of the family's constructor (the message of
/// [`OperatorConfig::validate`], prefixed with the input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError(String);

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseConfigError {}

impl std::str::FromStr for OperatorConfig {
    type Err = ParseConfigError;

    /// Parses the paper notation emitted by [`OperatorConfig`]'s
    /// `Display` impl (round-trip guaranteed), with two conveniences:
    /// family names are case-insensitive, and the redundant output width
    /// of `ADD(n,n)` / `MUL(n,2n)` / `MULbooth(n,2n)` may be omitted
    /// (`ADD(16)`, `MUL(16)`).
    ///
    /// # Example
    /// ```
    /// use apx_operators::OperatorConfig;
    /// let config: OperatorConfig = "ADDt(16,10)".parse().unwrap();
    /// assert_eq!(config, OperatorConfig::AddTrunc { n: 16, q: 10 });
    /// assert_eq!(config.to_string().parse::<OperatorConfig>(), Ok(config));
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || {
            ParseConfigError(format!(
                "invalid operator `{s}` — expected paper notation like \
                 ADDt(16,10), ADDst(16,10), ACA(16,4), ETAIV(16,4), \
                 RCAApx(16,6,3), MULt(16,16), MULsr(16,10), AAM(16), ABM(16)"
            ))
        };
        let text = s.trim();
        let (head, rest) = text.split_once('(').ok_or_else(err)?;
        let body = rest.strip_suffix(')').ok_or_else(err)?;
        let params: Vec<u32> = body
            .split(',')
            .map(|p| p.trim().parse::<u32>())
            .collect::<Result<_, _>>()
            .map_err(|_| err())?;
        let one = || -> Result<u32, ParseConfigError> {
            match params[..] {
                [n] => Ok(n),
                _ => Err(err()),
            }
        };
        let two = || -> Result<(u32, u32), ParseConfigError> {
            match params[..] {
                [a, b] => Ok((a, b)),
                _ => Err(err()),
            }
        };
        let config = match head.trim().to_ascii_lowercase().as_str() {
            "add" => {
                // ADD(n) or the printed ADD(n,n)
                match params[..] {
                    [n] => Ok(OperatorConfig::AddExact { n }),
                    [n, q] if n == q => Ok(OperatorConfig::AddExact { n }),
                    _ => Err(err()),
                }
            }
            "addt" => two().map(|(n, q)| OperatorConfig::AddTrunc { n, q }),
            "addr" => two().map(|(n, q)| OperatorConfig::AddRound { n, q }),
            "aca" => two().map(|(n, p)| OperatorConfig::Aca { n, p }),
            "etaiv" => two().map(|(n, x)| OperatorConfig::EtaIv { n, x }),
            "etaii" => two().map(|(n, x)| OperatorConfig::EtaIi { n, x }),
            "rcaapx" => match params[..] {
                [n, m, fa] => {
                    let fa_type = match fa {
                        1 => FaType::One,
                        2 => FaType::Two,
                        3 => FaType::Three,
                        _ => return Err(err()),
                    };
                    Ok(OperatorConfig::RcaApx { n, m, fa_type })
                }
                _ => Err(err()),
            },
            "mul" => match params[..] {
                [n] => Ok(OperatorConfig::MulExact { n }),
                [n, w] if n.checked_mul(2) == Some(w) => Ok(OperatorConfig::MulExact { n }),
                _ => Err(err()),
            },
            "mult" => two().map(|(n, q)| OperatorConfig::MulTrunc { n, q }),
            "mulr" => two().map(|(n, q)| OperatorConfig::MulRound { n, q }),
            "mulbooth" => match params[..] {
                [n] => Ok(OperatorConfig::MulBooth { n }),
                [n, w] if n.checked_mul(2) == Some(w) => Ok(OperatorConfig::MulBooth { n }),
                _ => Err(err()),
            },
            "addst" => two().map(|(n, w)| OperatorConfig::AddSized {
                n,
                w,
                mode: QuantMode::Trunc,
            }),
            "addsr" => two().map(|(n, w)| OperatorConfig::AddSized {
                n,
                w,
                mode: QuantMode::Round,
            }),
            "mulst" => two().map(|(n, w)| OperatorConfig::MulSized {
                n,
                w,
                mode: QuantMode::Trunc,
            }),
            "mulsr" => two().map(|(n, w)| OperatorConfig::MulSized {
                n,
                w,
                mode: QuantMode::Round,
            }),
            "aam" => one().map(|n| OperatorConfig::Aam { n }),
            "abm" => one().map(|n| OperatorConfig::Abm { n }),
            "abmu" => one().map(|n| OperatorConfig::AbmUncorrected { n }),
            _ => Err(err()),
        }?;
        // syntax is fine — now reject parameters the constructor rejects
        config
            .validate()
            .map_err(|reason| ParseConfigError(format!("invalid operator `{s}`: {reason}")))?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_roundtrips_names() {
        let configs = [
            (OperatorConfig::AddExact { n: 16 }, "ADD(16,16)"),
            (OperatorConfig::AddTrunc { n: 16, q: 10 }, "ADDt(16,10)"),
            (OperatorConfig::AddRound { n: 16, q: 1 }, "ADDr(16,1)"),
            (OperatorConfig::Aca { n: 16, p: 12 }, "ACA(16,12)"),
            (OperatorConfig::EtaIv { n: 16, x: 4 }, "ETAIV(16,4)"),
            (
                OperatorConfig::RcaApx {
                    n: 16,
                    m: 6,
                    fa_type: FaType::Three,
                },
                "RCAApx(16,6,3)",
            ),
            (OperatorConfig::MulExact { n: 16 }, "MUL(16,32)"),
            (OperatorConfig::MulTrunc { n: 16, q: 16 }, "MULt(16,16)"),
            (OperatorConfig::MulRound { n: 16, q: 12 }, "MULr(16,12)"),
            (
                OperatorConfig::AddSized {
                    n: 16,
                    w: 10,
                    mode: QuantMode::Trunc,
                },
                "ADDst(16,10)",
            ),
            (
                OperatorConfig::MulSized {
                    n: 16,
                    w: 10,
                    mode: QuantMode::Round,
                },
                "MULsr(16,10)",
            ),
            (OperatorConfig::Aam { n: 16 }, "AAM(16)"),
            (OperatorConfig::Abm { n: 16 }, "ABM(16)"),
            (OperatorConfig::AbmUncorrected { n: 16 }, "ABMu(16)"),
        ];
        for (config, name) in configs {
            assert_eq!(config.to_string(), name);
        }
    }

    #[test]
    fn class_partitioning_is_consistent_with_built_operator() {
        let configs = [
            OperatorConfig::AddExact { n: 8 },
            OperatorConfig::Aca { n: 8, p: 2 },
            OperatorConfig::MulExact { n: 8 },
            OperatorConfig::Abm { n: 8 },
        ];
        for config in configs {
            assert_eq!(config.op_class(), config.build().op_class());
            assert_eq!(config.input_bits(), config.build().input_bits());
        }
    }

    #[test]
    fn from_str_roundtrips_every_sweep_config() {
        let all = [
            OperatorConfig::AddExact { n: 16 },
            OperatorConfig::AddTrunc { n: 16, q: 10 },
            OperatorConfig::AddRound { n: 16, q: 10 },
            OperatorConfig::Aca { n: 16, p: 4 },
            OperatorConfig::EtaIv { n: 16, x: 4 },
            OperatorConfig::EtaIi { n: 16, x: 2 },
            OperatorConfig::RcaApx {
                n: 16,
                m: 6,
                fa_type: FaType::Three,
            },
            OperatorConfig::MulExact { n: 16 },
            OperatorConfig::MulTrunc { n: 16, q: 16 },
            OperatorConfig::MulRound { n: 16, q: 12 },
            OperatorConfig::MulBooth { n: 16 },
            OperatorConfig::Aam { n: 16 },
            OperatorConfig::Abm { n: 16 },
            OperatorConfig::AbmUncorrected { n: 16 },
            OperatorConfig::AddSized {
                n: 16,
                w: 10,
                mode: QuantMode::Trunc,
            },
            OperatorConfig::AddSized {
                n: 16,
                w: 10,
                mode: QuantMode::Round,
            },
            OperatorConfig::MulSized {
                n: 16,
                w: 10,
                mode: QuantMode::Trunc,
            },
            OperatorConfig::MulSized {
                n: 16,
                w: 10,
                mode: QuantMode::Round,
            },
        ];
        for config in all {
            let printed = config.to_string();
            assert_eq!(printed.parse::<OperatorConfig>(), Ok(config), "{printed}");
        }
    }

    #[test]
    fn from_str_accepts_shorthand_and_rejects_garbage() {
        assert_eq!(
            "ADD(16)".parse::<OperatorConfig>(),
            Ok(OperatorConfig::AddExact { n: 16 })
        );
        assert_eq!(
            "mul(8)".parse::<OperatorConfig>(),
            Ok(OperatorConfig::MulExact { n: 8 })
        );
        assert_eq!(
            " aca( 16 , 4 ) ".parse::<OperatorConfig>(),
            Ok(OperatorConfig::Aca { n: 16, p: 4 })
        );
        for bad in [
            "",
            "ACA",
            "ACA()",
            "ACA(16)",
            "ACA(16,4,1)",
            "RCAApx(16,6,4)",
            "ADD(16,12)",
            "NOPE(1)",
            "ACA(16,x)",
            // syntactically fine, parameters out of range: must be a
            // parse error, never a later build() panic
            "ACA(64,4)",
            "ADDt(16,99)",
            "ADDr(16,16)",
            "ETAIV(16,3)",
            "MULt(30,4)",
            "ABM(15)",
            "AAM(2)",
            "ADDst(16,1)",
            "ADDsr(16,16)",
            "MULst(16,17)",
            "MULsr(30,4)",
            // `2n` overflows u32: a parse error, never an arithmetic panic
            "MUL(2147483648,0)",
            "MULbooth(2147483648,0)",
        ] {
            assert!(bad.parse::<OperatorConfig>().is_err(), "{bad:?}");
        }
        let err = "ACA(64,4)".parse::<OperatorConfig>().unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn validate_agrees_with_the_constructors() {
        // sweep a parameter grid well past every bound: validate() must
        // accept exactly the configs build() constructs without panicking
        let mut grid: Vec<OperatorConfig> = Vec::new();
        for n in 0..=40 {
            grid.push(OperatorConfig::AddExact { n });
            grid.push(OperatorConfig::MulExact { n });
            grid.push(OperatorConfig::MulBooth { n });
            grid.push(OperatorConfig::Aam { n });
            grid.push(OperatorConfig::Abm { n });
            grid.push(OperatorConfig::AbmUncorrected { n });
            for k in 0..=40 {
                grid.push(OperatorConfig::AddTrunc { n, q: k });
                grid.push(OperatorConfig::AddRound { n, q: k });
                grid.push(OperatorConfig::Aca { n, p: k });
                grid.push(OperatorConfig::EtaIv { n, x: k });
                grid.push(OperatorConfig::EtaIi { n, x: k });
                grid.push(OperatorConfig::MulTrunc { n, q: k });
                grid.push(OperatorConfig::MulRound { n, q: k });
                grid.push(OperatorConfig::RcaApx {
                    n,
                    m: k,
                    fa_type: FaType::Two,
                });
                for mode in [QuantMode::Trunc, QuantMode::Round] {
                    grid.push(OperatorConfig::AddSized { n, w: k, mode });
                    grid.push(OperatorConfig::MulSized { n, w: k, mode });
                }
            }
        }
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for config in &grid {
            let builds = std::panic::catch_unwind(|| {
                let _ = config.build();
            })
            .is_ok();
            assert_eq!(
                config.validate().is_ok(),
                builds,
                "validate/build disagree on {config:?}"
            );
        }
        std::panic::set_hook(quiet);
    }

    #[test]
    fn validate_error_messages_are_pinned() {
        // The CLI and `serve` print these messages verbatim, so one FNV-1a
        // digest over every rejection on the grid of
        // `validate_agrees_with_the_constructors` pins the error text
        // wherever the bounds are stated.
        let mut grid: Vec<OperatorConfig> = Vec::new();
        for n in 0..=40 {
            grid.push(OperatorConfig::AddExact { n });
            grid.push(OperatorConfig::MulExact { n });
            grid.push(OperatorConfig::MulBooth { n });
            grid.push(OperatorConfig::Aam { n });
            grid.push(OperatorConfig::Abm { n });
            grid.push(OperatorConfig::AbmUncorrected { n });
            for k in 0..=40 {
                grid.push(OperatorConfig::AddTrunc { n, q: k });
                grid.push(OperatorConfig::AddRound { n, q: k });
                grid.push(OperatorConfig::Aca { n, p: k });
                grid.push(OperatorConfig::EtaIv { n, x: k });
                grid.push(OperatorConfig::EtaIi { n, x: k });
                grid.push(OperatorConfig::MulTrunc { n, q: k });
                grid.push(OperatorConfig::MulRound { n, q: k });
                grid.push(OperatorConfig::RcaApx {
                    n,
                    m: k,
                    fa_type: FaType::Two,
                });
                for mode in [QuantMode::Trunc, QuantMode::Round] {
                    grid.push(OperatorConfig::AddSized { n, w: k, mode });
                    grid.push(OperatorConfig::MulSized { n, w: k, mode });
                }
            }
        }
        let (mut digest, mut rejected) = (0xcbf2_9ce4_8422_2325_u64, 0);
        for config in &grid {
            if let Err(message) = config.validate() {
                rejected += 1;
                for byte in message.bytes().chain([b'\n']) {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(rejected, 15_339, "rejections");
        assert_eq!(digest, 0x16ad_2ee2_531d_093c, "error message digest");
    }

    #[test]
    fn serde_roundtrip() {
        let config = OperatorConfig::RcaApx {
            n: 16,
            m: 6,
            fa_type: FaType::Two,
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: OperatorConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
    }
}
