//! Precision-safety analysis of an execution plan.
//!
//! A narrow precision is only sound when its depth-derived worst-case
//! error estimate ([`precision_tolerance`]) fits inside the campaign's
//! integrity budget; a plan whose *estimate* already exceeds the budget
//! quarantines every batch it runs, which is a configuration defect, not
//! bad luck.
//!
//! Like every other pass, this one consumes a plain-data facts snapshot
//! ([`PrecisionFacts`]) so tests can seed defective plans the real
//! executor would never build.

use crate::diag::Diagnostics;
use bqsim_ell::{precision_tolerance, Precision};

/// A snapshot of the precision-relevant shape of an execution plan.
#[derive(Debug, Clone)]
pub struct PrecisionFacts {
    /// The precision the plan executes amplitudes at.
    pub precision: Precision,
    /// Fused-gate depth of the compiled circuit (the error estimator's
    /// input).
    pub depth: usize,
    /// The integrity budget the plan's campaign will enforce (maximum
    /// norm drift), if one is configured.
    pub budget: Option<f64>,
}

impl PrecisionFacts {
    /// The facts of the real executor's plan.
    pub fn from_plan(precision: Precision, depth: usize, budget: Option<f64>) -> PrecisionFacts {
        PrecisionFacts {
            precision,
            depth,
            budget,
        }
    }

    /// The depth-derived worst-case norm-drift estimate for this plan —
    /// the same curve the auto-tuner uses as its probe validity gate.
    pub fn estimated_drift(&self) -> f64 {
        precision_tolerance(self.depth, self.precision)
    }
}

/// Verifies the precision obligations of a plan (pass name `precision`).
///
/// Errors:
/// * `tolerance` — a narrow precision whose depth-derived error estimate
///   exceeds the integrity budget (the campaign would quarantine every
///   batch; run `f64`, or loosen the budget).
///
/// Warnings:
/// * an `f64` plan whose budget is tighter than `f64` round-off (the
///   budget, not the precision, is the defect).
pub fn check_precision_safety(facts: &PrecisionFacts) -> Diagnostics {
    let mut diags = Diagnostics::new();

    if let Some(budget) = facts.budget {
        let est = facts.estimated_drift();
        if est > budget {
            if facts.precision == Precision::F64 {
                diags.warning(
                    "precision",
                    format!("depth {}", facts.depth),
                    format!(
                        "integrity budget {budget:.3e} is tighter than f64 \
                         round-off ({est:.3e} at this depth); expect \
                         spurious quarantines"
                    ),
                );
            } else {
                diags.error(
                    "precision",
                    format!("depth {}", facts.depth),
                    format!(
                        "tolerance violated: precision {} has estimated \
                         drift {est:.3e} at depth {} but the integrity \
                         budget is {budget:.3e} — every batch would \
                         quarantine (and be retried at f64); run f64, or \
                         loosen the budget",
                        facts.precision.token(),
                        facts.depth
                    ),
                );
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_plans_are_clean_at_every_precision() {
        for precision in [Precision::F64, Precision::F32] {
            let facts = PrecisionFacts::from_plan(precision, 20, Some(1e-3));
            let diags = check_precision_safety(&facts);
            assert!(
                diags.is_clean(),
                "{precision:?} plan should be clean:\n{diags}"
            );
        }
    }

    #[test]
    fn narrow_precision_over_budget_is_a_tolerance_error() {
        let facts = PrecisionFacts::from_plan(Precision::F32, 50, Some(1e-12));
        let diags = check_precision_safety(&facts);
        assert_eq!(diags.error_count(), 1);
        assert!(
            diags.iter().next().unwrap().message.contains("tolerance"),
            "{diags}"
        );
        // The same budget at f64 is merely a warning about the budget.
        let f64_facts = PrecisionFacts::from_plan(Precision::F64, 50, Some(1e-18));
        let diags = check_precision_safety(&f64_facts);
        assert_eq!(diags.error_count(), 0);
        assert_eq!(diags.warning_count(), 1);
    }
}
