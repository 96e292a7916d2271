//! Fused characterization reports.

use apx_metrics::ErrorStats;
use apx_netlist::HwReport;
use apx_operators::OperatorConfig;
use serde::{Deserialize, Serialize};

/// Flattened error metrics of one operator (the scalar columns of the
/// paper's result files).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorSummary {
    /// Samples used.
    pub samples: u64,
    /// MSE in dB relative to full scale (−∞ encoded as `None` in JSON).
    pub mse_db: f64,
    /// Raw MSE in squared reference LSBs.
    pub mse: f64,
    /// Bit error rate over the reference width.
    pub ber: f64,
    /// Mean error (bias).
    pub mean_error: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Mean absolute relative error.
    pub relative_error: f64,
    /// Error rate `P[x ≠ x̂]`.
    pub error_rate: f64,
    /// Smallest observed error.
    pub min_error: i64,
    /// Largest observed error.
    pub max_error: i64,
    /// Positional BER per output bit (LSB first).
    pub positional_ber: Vec<f64>,
    /// Acceptance probability at power-of-two MAA thresholds `2^k`,
    /// `k = 0..=8`.
    pub acceptance_pow2: Vec<f64>,
}

impl ErrorSummary {
    /// Builds the summary from a full accumulator.
    #[must_use]
    pub fn from_stats(stats: &ErrorStats, ref_bits: u32) -> Self {
        ErrorSummary {
            samples: stats.samples(),
            mse_db: stats.mse_db(),
            mse: stats.mse(),
            ber: stats.ber(),
            mean_error: stats.mean_error(),
            mae: stats.mae(),
            relative_error: stats.relative_error(),
            error_rate: stats.error_rate(),
            min_error: stats.min_error(),
            max_error: stats.max_error(),
            positional_ber: (0..ref_bits).map(|k| stats.positional_ber(k)).collect(),
            acceptance_pow2: (0..=8)
                .map(|k| stats.acceptance_probability_pow2(k))
                .collect(),
        }
    }
}

/// The fused per-operator record: configuration, functional error
/// characterization, hardware characterization, and the verification
/// verdict (the paper stores the analogous record as a MAT file).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorReport {
    /// The operator configuration.
    pub config: OperatorConfig,
    /// Paper-notation operator name.
    pub name: String,
    /// Whether the netlist matched the functional model.
    pub verified: bool,
    /// Functional error characterization.
    pub error: ErrorSummary,
    /// Hardware characterization.
    pub hw: HwReport,
}

impl OperatorReport {
    /// CSV header matching [`OperatorReport::to_csv_row`].
    #[must_use]
    pub fn csv_header() -> String {
        "name,verified,mse_db,ber,mae,bias,error_rate,area_um2,delay_ns,power_mw,pdp_pj".to_owned()
    }

    /// One CSV row of the headline columns.
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        format!(
            "\"{}\",{},{:.3},{:.6},{:.4},{:.4},{:.6},{:.2},{:.4},{:.5},{:.6}",
            self.name,
            self.verified,
            self.error.mse_db,
            self.error.ber,
            self.error.mae,
            self.error.mean_error,
            self.error.error_rate,
            self.hw.area_um2,
            self.hw.delay_ns,
            self.hw.power_mw,
            self.hw.pdp_pj,
        )
    }

    /// Serializes the full report to pretty JSON.
    ///
    /// # Errors
    /// Propagates `serde_json` failures (effectively unreachable for this
    /// data model).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_row_has_as_many_fields_as_the_header() {
        let header_fields = OperatorReport::csv_header().split(',').count();
        assert_eq!(header_fields, 11);
    }
}
