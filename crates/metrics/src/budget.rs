//! Quality budgets: the constraint side of the `tune` search.
//!
//! A [`QualityBudget`] is a parsed bound on a [`QualityScore`], written
//! the way a designer states a spec: `>=30dB` (an absolute floor on a
//! PSNR/SNR score), `<=1dB` (a loss allowance against the exact
//! reference), `>=95%` (a floor on a ratio metric like MSSIM or the
//! K-means success rate), `<=2%` (a loss allowance on a ratio metric).
//! Units are checked against the score's metric kind, so a dB budget on
//! a success-rate workload is a user-facing error, not a silent
//! mis-comparison.

use crate::QualityScore;
use std::fmt;
use std::str::FromStr;

/// A parsed bound on application quality, with explicit units.
///
/// The two dB forms apply to the logarithmic metrics (PSNR/SNR); the two
/// percent forms to the ratio metrics (MSSIM, success rate). Loss
/// budgets (`<=`) are relative to the exact reference, which has zero
/// loss by construction and therefore meets every loss budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityBudget {
    /// `>=X dB`: the score itself must reach at least `X` dB.
    MinDb(f64),
    /// `<=X dB`: approximation noise may inflate the output power by at
    /// most `X` dB, i.e. the noise-to-signal ratio
    /// [`QualityScore::degradation`] stays within `10^(X/10) − 1`.
    MaxLossDb(f64),
    /// `>=X %`: the ratio score must reach at least `X` percent.
    MinPercent(f64),
    /// `<=X %`: the ratio score may fall at most `X` percent short of
    /// the perfect 100 %.
    MaxLossPercent(f64),
}

impl QualityBudget {
    /// Whether `score` meets the budget, or an explanation of the
    /// unit/metric mismatch (e.g. a dB bound on a success-rate
    /// workload).
    pub fn admits(&self, score: &QualityScore) -> Result<bool, String> {
        let db_value = match score {
            QualityScore::PsnrDb(v) | QualityScore::SnrDb(v) => Some(*v),
            _ => None,
        };
        let ratio_value = match score {
            QualityScore::Mssim(v) | QualityScore::SuccessRate(v) => Some(*v),
            _ => None,
        };
        match self {
            QualityBudget::MinDb(floor) => db_value
                .map(|v| v >= *floor)
                .ok_or_else(|| self.mismatch(score)),
            QualityBudget::MaxLossDb(loss) => db_value
                .map(|_| score.degradation() <= 10f64.powf(loss / 10.0) - 1.0)
                .ok_or_else(|| self.mismatch(score)),
            QualityBudget::MinPercent(floor) => ratio_value
                .map(|v| v * 100.0 >= *floor)
                .ok_or_else(|| self.mismatch(score)),
            QualityBudget::MaxLossPercent(loss) => ratio_value
                .map(|v| (1.0 - v) * 100.0 <= *loss)
                .ok_or_else(|| self.mismatch(score)),
        }
    }

    /// Whether the budget is stated in dB (as opposed to percent).
    #[must_use]
    pub fn is_db(&self) -> bool {
        matches!(self, QualityBudget::MinDb(_) | QualityBudget::MaxLossDb(_))
    }

    fn mismatch(&self, score: &QualityScore) -> String {
        let unit = if self.is_db() { "dB" } else { "%" };
        format!(
            "budget `{self}` is in {unit} but the workload scores {}; \
             use a {} budget instead",
            score.metric(),
            if self.is_db() { "%" } else { "dB" }
        )
    }
}

impl fmt::Display for QualityBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QualityBudget::MinDb(v) => write!(f, ">={v}dB"),
            QualityBudget::MaxLossDb(v) => write!(f, "<={v}dB"),
            QualityBudget::MinPercent(v) => write!(f, ">={v}%"),
            QualityBudget::MaxLossPercent(v) => write!(f, "<={v}%"),
        }
    }
}

impl FromStr for QualityBudget {
    type Err = String;

    /// Parses `<=`/`>=` + number + `dB`/`%` (case-insensitive unit,
    /// whitespace tolerated around the number).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let text = s.trim();
        let err = || {
            format!(
                "invalid quality budget `{s}`: expected <= or >= followed by \
                 a number and a dB or % unit, e.g. `>=30dB`, `<=1dB`, `>=95%`"
            )
        };
        let (lower_is_loss, rest) = if let Some(rest) = text.strip_prefix("<=") {
            (true, rest)
        } else if let Some(rest) = text.strip_prefix(">=") {
            (false, rest)
        } else {
            return Err(err());
        };
        let rest = rest.trim();
        // `split_at_checked` is `None` when the last two bytes split a
        // character
        let (number, is_db) = match rest.split_at_checked(rest.len().saturating_sub(2)) {
            Some((number, unit)) if unit.eq_ignore_ascii_case("db") => (number, true),
            _ => (rest.strip_suffix('%').ok_or_else(err)?, false),
        };
        let value: f64 = number.trim().parse().map_err(|_| err())?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!(
                "invalid quality budget `{s}`: the bound must be a finite \
                 non-negative number"
            ));
        }
        if !is_db && value > 100.0 {
            return Err(format!(
                "invalid quality budget `{s}`: a percent bound cannot exceed 100"
            ));
        }
        Ok(match (lower_is_loss, is_db) {
            (false, true) => QualityBudget::MinDb(value),
            (true, true) => QualityBudget::MaxLossDb(value),
            (false, false) => QualityBudget::MinPercent(value),
            (true, false) => QualityBudget::MaxLossPercent(value),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_four_forms_and_round_trips_through_display() {
        for (text, expected) in [
            (">=30dB", QualityBudget::MinDb(30.0)),
            ("<=1dB", QualityBudget::MaxLossDb(1.0)),
            (">=95%", QualityBudget::MinPercent(95.0)),
            ("<=2.5%", QualityBudget::MaxLossPercent(2.5)),
        ] {
            let parsed: QualityBudget = text.parse().expect(text);
            assert_eq!(parsed, expected, "{text}");
            let display = parsed.to_string();
            assert_eq!(display, text, "display form");
            let reparsed: QualityBudget = display.parse().expect("round-trip");
            assert_eq!(reparsed, parsed, "{text}: FromStr/Display round-trip");
        }
        // unit spelling is case-insensitive and whitespace is tolerated
        for text in [" >= 30 db ", ">=30DB", ">=30Db"] {
            assert_eq!(
                text.parse::<QualityBudget>(),
                Ok(QualityBudget::MinDb(30.0)),
                "{text:?}"
            );
        }
    }

    #[test]
    fn rejects_malformed_budgets_with_messages() {
        for bad in ["30dB", ">=dB", ">=30", "<=1 parsec", ">=-3dB", ">=120%", ""] {
            let err = bad.parse::<QualityBudget>().unwrap_err();
            assert!(err.contains("budget"), "{bad}: {err}");
        }
    }

    #[test]
    fn db_floor_admits_db_scores_only() {
        let budget = QualityBudget::MinDb(30.0);
        assert_eq!(budget.admits(&QualityScore::PsnrDb(35.0)), Ok(true));
        assert_eq!(budget.admits(&QualityScore::SnrDb(29.9)), Ok(false));
        assert_eq!(
            budget.admits(&QualityScore::PsnrDb(f64::INFINITY)),
            Ok(true),
            "the exact run meets every floor"
        );
        let err = budget.admits(&QualityScore::SuccessRate(0.99)).unwrap_err();
        assert!(err.contains("success"), "{err}");
        assert!(err.contains("%"), "{err}");
    }

    #[test]
    fn db_loss_budget_bounds_the_degradation() {
        let budget = QualityBudget::MaxLossDb(1.0);
        // 1 dB of output-power inflation ↔ degradation 10^0.1 − 1 ≈ 0.259,
        // i.e. a score of −10·log10(0.259) ≈ 5.9 dB still passes
        assert_eq!(budget.admits(&QualityScore::SnrDb(6.0)), Ok(true));
        assert_eq!(budget.admits(&QualityScore::SnrDb(5.0)), Ok(false));
        assert_eq!(
            budget.admits(&QualityScore::SnrDb(f64::INFINITY)),
            Ok(true),
            "exact arithmetic has zero loss"
        );
        assert!(budget.admits(&QualityScore::Mssim(0.99)).is_err());
    }

    #[test]
    fn percent_budgets_bound_ratio_scores() {
        assert_eq!(
            QualityBudget::MinPercent(95.0).admits(&QualityScore::SuccessRate(0.96)),
            Ok(true)
        );
        assert_eq!(
            QualityBudget::MinPercent(95.0).admits(&QualityScore::Mssim(0.90)),
            Ok(false)
        );
        assert_eq!(
            QualityBudget::MaxLossPercent(2.0).admits(&QualityScore::Mssim(0.985)),
            Ok(true)
        );
        assert_eq!(
            QualityBudget::MaxLossPercent(2.0).admits(&QualityScore::Mssim(0.97)),
            Ok(false)
        );
        assert!(QualityBudget::MinPercent(95.0)
            .admits(&QualityScore::PsnrDb(40.0))
            .unwrap_err()
            .contains("dB"));
    }
}
