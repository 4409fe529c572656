//! Capture indicators and gained completeness (Section III-B/C, Eq. 1).

use super::{Cei, Chronon, Ei, Instance, Schedule};
use crate::stats::{CeiOutcome, RunStats};

/// The paper's indicator `X(I, S)`: `true` iff schedule `S` probes `r(I)`
/// at some chronon inside the window of `I`.
pub fn ei_captured(ei: Ei, schedule: &Schedule) -> bool {
    ei_capture_chronon(ei, schedule).is_some()
}

/// The chronon at which schedule `S` captures `I`: the earliest probe of
/// `r(I)` inside the window, or `None` if the window is never probed. This
/// is when the online engine marks the EI captured — the first probe that
/// lands in an open window.
pub fn ei_capture_chronon(ei: Ei, schedule: &Schedule) -> Option<Chronon> {
    (ei.start..=ei.end).find(|&t| schedule.is_probed(ei.resource, t))
}

/// The paper's indicator `X(η, S) = Π_{I ∈ η} X(I, S)` generalized to
/// threshold semantics: a CEI is captured iff at least `required` of its
/// EIs are. For plain AND CEIs (`required == |η|`, every Section III–V
/// construct) this is exactly the paper's conjunction.
pub fn cei_captured(cei: &Cei, schedule: &Schedule) -> bool {
    let mut captured = 0u16;
    for &ei in &cei.eis {
        if ei_captured(ei, schedule) {
            captured += 1;
            if captured >= cei.required {
                return true;
            }
        }
    }
    false
}

/// Gained completeness (Eq. 1): the fraction of CEIs over all profiles that
/// schedule `S` captures,
/// `GC(P, T, S) = Σ_p Σ_{η ∈ p} X(η, S) / Σ_p |p|`.
///
/// Returns `0.0` for an instance without CEIs.
pub fn gained_completeness(instance: &Instance, schedule: &Schedule) -> f64 {
    if instance.ceis.is_empty() {
        return 0.0;
    }
    let captured = instance
        .ceis
        .iter()
        .filter(|c| cei_captured(c, schedule))
        .count();
    captured as f64 / instance.ceis.len() as f64
}

/// Evaluates an arbitrary schedule against an instance, producing
/// [`RunStats`](crate::stats::RunStats) comparable to what the online engine
/// reports. Used to score offline schedules and to validate noisy
/// predictions against ground truth.
///
/// CEI-level counts agree exactly with the engine's. The EI-level count is
/// the raw indicator `Σ X(I, S)` and can exceed the engine's `eis_captured`,
/// because the engine stops crediting EIs of CEIs that already failed
/// (probes landing in such windows are coincidental under AND semantics).
///
/// Outcome chronons match the engine's bookkeeping on clean runs:
/// `Captured { at }` is the chronon of the probe that crossed the
/// `required` threshold (the `required`-th smallest per-EI capture
/// chronon), and `Failed { at }` is the doom chronon — the deadline whose
/// passing made `required` captures unreachable.
pub fn evaluate_schedule(instance: &Instance, schedule: &Schedule) -> RunStats {
    let mut stats = RunStats {
        n_ceis: instance.ceis.len() as u64,
        n_eis: instance.total_eis() as u64,
        probes_used: schedule.total_probes(),
        budget_spent: schedule
            .iter()
            .map(|(_, r)| u64::from(instance.costs.of(r)))
            .sum(),
        probes_available: instance.budget.total_over(instance.epoch.len()),
        ..Default::default()
    };
    for cei in &instance.ceis {
        let (outcome, captured_eis) = cei_outcome(cei, schedule);
        stats.eis_captured += captured_eis;
        stats.record_outcome_of(cei, outcome);
    }
    stats
}

/// Per-CEI outcomes of an arbitrary schedule, parallel to `instance.ceis`
/// — the same shape as [`RunResult::outcomes`](crate::engine::RunResult),
/// with the chronon semantics documented on [`evaluate_schedule`].
pub fn evaluate_outcomes(instance: &Instance, schedule: &Schedule) -> Vec<CeiOutcome> {
    instance
        .ceis
        .iter()
        .map(|cei| cei_outcome(cei, schedule).0)
        .collect()
}

/// One CEI's outcome under `schedule`, plus its raw captured-EI count.
fn cei_outcome(cei: &Cei, schedule: &Schedule) -> (CeiOutcome, u64) {
    let mut capture_times: Vec<Chronon> = Vec::new();
    let mut open_deadlines: Vec<Chronon> = Vec::new();
    for &ei in &cei.eis {
        match ei_capture_chronon(ei, schedule) {
            Some(t) => capture_times.push(t),
            None => open_deadlines.push(ei.end),
        }
    }
    let required = usize::from(cei.required);
    let captured_eis = capture_times.len() as u64;
    let outcome = if capture_times.len() >= required {
        // The threshold is crossed by the probe that lands the
        // `required`-th capture in chronon order.
        capture_times.sort_unstable();
        CeiOutcome::Captured {
            at: capture_times[required - 1],
        }
    } else {
        // Uncaptured windows close in deadline order; the CEI is doomed
        // once more than `size - required` of them have closed.
        // (`required ∈ [1, size]` and fewer than `required` captures
        // leave at least `size - required + 1` open deadlines, so the
        // index is in bounds.)
        open_deadlines.sort_unstable();
        CeiOutcome::Failed {
            at: open_deadlines[cei.size() - required],
        }
    };
    (outcome, captured_eis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Budget, CeiId, Epoch, InstanceBuilder, ProfileId, ResourceId};

    fn ei(r: u32, s: u32, e: u32) -> Ei {
        Ei::new(ResourceId(r), s, e)
    }

    #[test]
    fn ei_capture_requires_probe_inside_window() {
        let mut s = Schedule::new(2, Epoch::new(10));
        s.probe(ResourceId(0), 5);
        assert!(ei_captured(ei(0, 3, 5), &s));
        assert!(ei_captured(ei(0, 5, 9), &s));
        assert!(!ei_captured(ei(0, 6, 9), &s));
        assert!(!ei_captured(ei(1, 3, 7), &s));
    }

    #[test]
    fn cei_capture_is_conjunctive() {
        let cei = Cei::new(CeiId(0), ProfileId(0), vec![ei(0, 0, 2), ei(1, 1, 3)]);
        let mut s = Schedule::new(2, Epoch::new(5));
        s.probe(ResourceId(0), 1);
        assert!(!cei_captured(&cei, &s));
        s.probe(ResourceId(1), 3);
        assert!(cei_captured(&cei, &s));
    }

    #[test]
    fn completeness_counts_fraction_of_ceis() {
        let mut b = InstanceBuilder::new(2, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 1)]);
        b.cei(p, &[(1, 2, 3)]);
        b.cei(p, &[(0, 4, 5), (1, 4, 5)]);
        let inst = b.build();

        let mut s = Schedule::new(2, Epoch::new(6));
        s.probe(ResourceId(0), 0); // captures the first CEI
        s.probe(ResourceId(0), 4); // half of the third CEI
        assert!((gained_completeness(&inst, &s) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn completeness_of_empty_instance_is_zero() {
        let b = InstanceBuilder::new(1, 1, Budget::Uniform(1));
        let inst = b.build();
        let s = Schedule::new(1, Epoch::new(1));
        assert_eq!(gained_completeness(&inst, &s), 0.0);
    }

    #[test]
    fn evaluate_schedule_matches_indicator_functions() {
        let mut b = InstanceBuilder::new(2, 6, Budget::Uniform(2));
        let p = b.profile();
        b.cei(p, &[(0, 0, 1), (1, 0, 1)]);
        b.cei(p, &[(0, 3, 5)]);
        let inst = b.build();

        let mut s = Schedule::new(2, Epoch::new(6));
        s.probe(ResourceId(0), 0);
        s.probe(ResourceId(1), 1);
        let stats = evaluate_schedule(&inst, &s);
        assert_eq!(stats.ceis_captured, 1);
        assert_eq!(stats.eis_captured, 2);
        assert_eq!(stats.probes_used, 2);
        assert_eq!(stats.n_ceis, 2);
        assert!((stats.completeness() - 0.5).abs() < 1e-12);
        let total: u64 = stats.by_size.values().map(|b| b.total).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn threshold_cei_captured_by_subset() {
        let cei = Cei::new(CeiId(0), ProfileId(0), vec![ei(0, 0, 2), ei(1, 1, 3)]).with_required(1);
        let mut s = Schedule::new(2, Epoch::new(5));
        s.probe(ResourceId(0), 1);
        assert!(cei_captured(&cei, &s));
    }

    #[test]
    fn capture_chronon_is_earliest_probe_in_window() {
        let mut s = Schedule::new(1, Epoch::new(10));
        s.probe(ResourceId(0), 2);
        s.probe(ResourceId(0), 5);
        assert_eq!(ei_capture_chronon(ei(0, 1, 6), &s), Some(2));
        assert_eq!(ei_capture_chronon(ei(0, 4, 6), &s), Some(5));
        assert_eq!(ei_capture_chronon(ei(0, 7, 9), &s), None);
    }

    #[test]
    fn captured_outcome_uses_threshold_crossing_probe() {
        // Both EIs end at 8, but the probes land at 2 and 5 — the AND
        // threshold is crossed by the *later* probe, not the window ends.
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(2));
        let p = b.profile();
        b.cei(p, &[(0, 1, 8), (1, 1, 8)]);
        let inst = b.build();
        let mut s = Schedule::new(2, Epoch::new(10));
        s.probe(ResourceId(0), 2);
        s.probe(ResourceId(1), 5);
        let stats = evaluate_schedule(&inst, &s);
        assert_eq!(stats.ceis_captured, 1);
        assert_eq!(
            evaluate_outcomes(&inst, &s),
            vec![CeiOutcome::Captured { at: 5 }]
        );
    }

    #[test]
    fn failed_outcome_skips_captured_earliest_deadline() {
        // The earliest-deadline EI (end 2) *is* captured; the CEI is
        // doomed only when the second window closes uncaptured at 6.
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2), (1, 3, 6)]);
        let inst = b.build();
        let mut s = Schedule::new(2, Epoch::new(10));
        s.probe(ResourceId(0), 1);
        let stats = evaluate_schedule(&inst, &s);
        assert_eq!(stats.ceis_captured, 0);
        assert_eq!(
            evaluate_outcomes(&inst, &s),
            vec![CeiOutcome::Failed { at: 6 }]
        );
    }

    #[test]
    fn threshold_failure_dooms_at_unreachability_not_first_expiry() {
        // 2-of-3 with no probes at all: after the first deadline (2) one
        // can still capture 2 of the remaining windows; the threshold
        // becomes unreachable when the second window closes at 4.
        let mut b = InstanceBuilder::new(3, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei_threshold(p, 2, &[(0, 0, 2), (1, 0, 4), (2, 0, 6)]);
        let inst = b.build();
        let s = Schedule::new(3, Epoch::new(10));
        assert_eq!(
            evaluate_outcomes(&inst, &s),
            vec![CeiOutcome::Failed { at: 4 }]
        );
    }
}
