//! Per-run statistics: completeness and probe accounting.

use crate::model::Chronon;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Outcome of one CEI at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CeiOutcome {
    /// At least `required` EIs were captured (every EI, under the paper's
    /// AND semantics).
    Captured {
        /// Chronon of the probe that crossed the `required` threshold.
        at: Chronon,
    },
    /// Fewer than `required` EIs could still be captured — the CEI became
    /// doomed at the given chronon.
    Failed {
        /// Chronon of the expiry that made `required` captures unreachable.
        at: Chronon,
    },
    /// The epoch ended before the CEI resolved. The engine records this
    /// for CEIs that are never released to the proxy (their EIs never
    /// enter the probe pool, so no expiry ever dooms them) — e.g. a
    /// release at or beyond epoch end.
    Pending,
    /// The CEI was cancelled mid-run through the engine's mutation API
    /// before it resolved. Cancelled CEIs count in the size histogram's
    /// totals but in neither the captured nor the failed tallies.
    Cancelled {
        /// Chronon at which the cancellation was drained.
        at: Chronon,
    },
}

impl CeiOutcome {
    /// `true` for [`CeiOutcome::Captured`].
    pub fn is_captured(self) -> bool {
        matches!(self, CeiOutcome::Captured { .. })
    }

    /// The chronon the CEI resolved at; `None` while pending.
    pub(crate) fn at(self) -> Option<Chronon> {
        match self {
            CeiOutcome::Captured { at }
            | CeiOutcome::Failed { at }
            | CeiOutcome::Cancelled { at } => Some(at),
            CeiOutcome::Pending => None,
        }
    }
}

/// Aggregate statistics of one monitoring run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunStats {
    /// Total CEIs in the instance (the denominator of Eq. 1).
    pub n_ceis: u64,
    /// CEIs fully captured.
    pub ceis_captured: u64,
    /// CEIs that failed (an EI expired uncaptured).
    pub ceis_failed: u64,
    /// Total EIs across all CEIs.
    pub n_eis: u64,
    /// EIs captured (including EIs of CEIs that eventually failed).
    pub eis_captured: u64,
    /// Probes issued.
    pub probes_used: u64,
    /// Budget units spent (equals `probes_used` under the paper's uniform
    /// probe costs; can exceed it under the §III varying-costs extension).
    pub budget_spent: u64,
    /// Budget units the budget allowed over the epoch.
    pub probes_available: u64,
    /// Captured / total CEI counts keyed by CEI size (`|η|`), for the
    /// per-rank breakdowns of Figures 10 and 15.
    pub by_size: BTreeMap<u16, SizeBucket>,
    /// Sum of CEI utility weights (the denominator of weighted gained
    /// completeness — the §VII profile-utility extension). Equals `n_ceis`
    /// on unit-weight instances.
    pub weight_total: f64,
    /// Sum of utility weights of captured CEIs.
    pub weight_captured: f64,
    /// Probe attempts rejected by the fault model (always 0 on the
    /// unfaulted `run` / `run_observed` paths).
    #[serde(default)]
    pub probes_failed: u64,
    /// Budget units charged to failed probes (counted in the per-chronon
    /// spend but not in [`budget_spent`](Self::budget_spent), which tracks
    /// successful probes only).
    #[serde(default)]
    pub budget_lost: u64,
    /// CEIs shed by graceful degradation: their remaining uncaptured
    /// windows fell entirely within committed resource outages. Shed CEIs
    /// are also counted in [`ceis_failed`](Self::ceis_failed).
    #[serde(default)]
    pub ceis_shed: u64,
    /// CEIs cancelled mid-run through the mutation API. Cancelled CEIs are
    /// counted in neither [`ceis_captured`](Self::ceis_captured) nor
    /// [`ceis_failed`](Self::ceis_failed) (always 0 on mutation-free runs).
    #[serde(default)]
    pub ceis_cancelled: u64,
}

/// Captured / total counts for CEIs of one size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SizeBucket {
    /// CEIs of this size that were captured.
    pub captured: u64,
    /// All CEIs of this size.
    pub total: u64,
}

impl RunStats {
    /// Gained completeness (Eq. 1): captured CEIs over all CEIs.
    /// `0.0` for an empty instance.
    pub fn completeness(&self) -> f64 {
        if self.n_ceis == 0 {
            0.0
        } else {
            self.ceis_captured as f64 / self.n_ceis as f64
        }
    }

    /// EI-level completeness: the "worst case upper bound" normalizer of
    /// Figure 10 measures completeness in captured single EIs (as if
    /// `rank(P) = 1`).
    pub fn ei_completeness(&self) -> f64 {
        if self.n_eis == 0 {
            0.0
        } else {
            self.eis_captured as f64 / self.n_eis as f64
        }
    }

    /// Fraction of the probing budget actually spent (in budget units).
    pub fn budget_utilization(&self) -> f64 {
        if self.probes_available == 0 {
            0.0
        } else {
            self.budget_spent as f64 / self.probes_available as f64
        }
    }

    /// Completeness restricted to CEIs of the given size; `None` if the run
    /// had none of that size.
    pub fn completeness_for_size(&self, size: u16) -> Option<f64> {
        self.by_size
            .get(&size)
            .filter(|b| b.total > 0)
            .map(|b| b.captured as f64 / b.total as f64)
    }

    /// Weighted gained completeness: utility of captured CEIs over total
    /// utility (the §VII extension). Equals [`completeness`](Self::completeness)
    /// on unit-weight instances. `0.0` for an empty instance.
    pub fn weighted_completeness(&self) -> f64 {
        if self.weight_total == 0.0 {
            0.0
        } else {
            self.weight_captured / self.weight_total
        }
    }

    /// Records a CEI outcome into the size histogram and counters, with the
    /// CEI's utility weight.
    pub fn record_outcome(&mut self, size: u16, weight: f64, outcome: CeiOutcome) {
        let bucket = self.by_size.entry(size).or_default();
        bucket.total += 1;
        self.weight_total += weight;
        match outcome {
            CeiOutcome::Captured { .. } => {
                self.ceis_captured += 1;
                self.weight_captured += weight;
                bucket.captured += 1;
            }
            CeiOutcome::Failed { .. } => self.ceis_failed += 1,
            CeiOutcome::Pending => {}
            CeiOutcome::Cancelled { .. } => self.ceis_cancelled += 1,
        }
    }

    /// Records a CEI's outcome (size and weight taken from the CEI).
    pub fn record_outcome_of(&mut self, cei: &crate::model::Cei, outcome: CeiOutcome) {
        self.record_outcome(cei.size() as u16, f64::from(cei.weight), outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completeness_ratios() {
        let stats = RunStats {
            n_ceis: 4,
            ceis_captured: 1,
            n_eis: 10,
            eis_captured: 6,
            probes_used: 5,
            budget_spent: 5,
            probes_available: 20,
            ..Default::default()
        };
        assert!((stats.completeness() - 0.25).abs() < 1e-12);
        assert!((stats.ei_completeness() - 0.6).abs() < 1e-12);
        assert!((stats.budget_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_run_yields_zero_ratios() {
        let stats = RunStats::default();
        assert_eq!(stats.completeness(), 0.0);
        assert_eq!(stats.ei_completeness(), 0.0);
        assert_eq!(stats.budget_utilization(), 0.0);
    }

    #[test]
    fn record_outcome_builds_size_histogram() {
        let mut stats = RunStats::default();
        stats.record_outcome(2, 1.0, CeiOutcome::Captured { at: 5 });
        stats.record_outcome(2, 1.0, CeiOutcome::Failed { at: 3 });
        stats.record_outcome(3, 2.5, CeiOutcome::Captured { at: 9 });
        assert_eq!(stats.ceis_captured, 2);
        assert_eq!(stats.ceis_failed, 1);
        assert_eq!(stats.completeness_for_size(2), Some(0.5));
        assert_eq!(stats.completeness_for_size(3), Some(1.0));
        assert_eq!(stats.completeness_for_size(7), None);
        // Weighted: captured 1.0 + 2.5 of total 4.5.
        assert!((stats.weighted_completeness() - 3.5 / 4.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_completeness_of_empty_is_zero() {
        assert_eq!(RunStats::default().weighted_completeness(), 0.0);
    }

    #[test]
    fn outcome_predicates() {
        assert!(CeiOutcome::Captured { at: 0 }.is_captured());
        assert!(!CeiOutcome::Failed { at: 0 }.is_captured());
        assert!(!CeiOutcome::Pending.is_captured());
        assert!(!CeiOutcome::Cancelled { at: 0 }.is_captured());
    }

    #[test]
    fn cancelled_counts_in_totals_but_not_captured_or_failed() {
        let mut stats = RunStats::default();
        stats.record_outcome(2, 1.0, CeiOutcome::Cancelled { at: 4 });
        stats.record_outcome(2, 1.0, CeiOutcome::Captured { at: 5 });
        assert_eq!(stats.ceis_cancelled, 1);
        assert_eq!(stats.ceis_captured, 1);
        assert_eq!(stats.ceis_failed, 0);
        assert_eq!(stats.completeness_for_size(2), Some(0.5));
    }
}
