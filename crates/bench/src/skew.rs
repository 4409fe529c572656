//! Policy degradation under skewed workloads — the Skewed workloads entry
//! of the suite.
//!
//! Not a paper artifact: the ICDE 2009 evaluation drives homogeneous
//! Poisson updates and varies only the placement exponent α (Figure 14).
//! This experiment uses the declarative [`WorkloadSpec`] to measure two
//! orthogonal skew axes on the same seeded instances:
//!
//! * **Temporal burstiness** (headline, gated): the diurnal duty cycle
//!   shrinks at a *fixed epoch mean*, so the same update volume bunches
//!   into ever-narrower on-phases. Candidate EIs collide on the per-chronon
//!   budget and gained completeness falls monotonically down the ladder,
//!   for every policy in both preemption modes — the degradation table the
//!   bench test gates. A Pareto heavy-tail row rides along for context
//!   (not gated: renewal burstiness is not nested in the duty cycle).
//! * **Placement skew** (reported): uniform, Zipf, latest-skewed, hot-set,
//!   and hot-key profile-class placement. Placement skew concentrates
//!   probes and typically *raises* completeness (cf. Figure 14), so this
//!   table carries deterministic counters instead of a monotonicity gate.

use crate::Scale;
use webmon_sim::skew::{burst_ladder, pareto_cell, placement_grid};
use webmon_sim::{Experiment, PolicySpec, Table};
use webmon_workload::{EiLength, RankSpec, WorkloadSpec};

/// Master seed of the skew experiment.
pub const SEED: u64 = 0x5EEB;

/// Expected updates per resource per epoch (the Table-I baseline λ).
pub const RATE_PER_EPOCH: f64 = 20.0;

/// The base declarative spec of the experiment: Table-I-shaped profiles
/// over a Zipf(0.3) placement, Poisson updates (the ladders swap the
/// relevant axis in).
pub fn spec(scale: Scale) -> WorkloadSpec {
    let (resources, profiles, horizon) = match scale {
        Scale::Quick => (60, 16, 200),
        Scale::Paper => (200, 50, 1000),
    };
    let mut s = WorkloadSpec::paper_baseline();
    s.resources = resources;
    s.profiles = profiles;
    s.horizon = horizon;
    s.budget = 1;
    s.rank = RankSpec::UpTo { k: 5, beta: 0.0 };
    s.length = EiLength::Overwrite { max_len: Some(10) };
    s.repetitions = scale.repetitions();
    s.seed = SEED;
    s
}

/// Diurnal period at this scale — a few full cycles per epoch.
pub fn period(scale: Scale) -> u32 {
    match scale {
        Scale::Quick => 50,
        Scale::Paper => 250,
    }
}

/// Runs the skew experiment: the gated temporal-burstiness degradation
/// table over the full preemption grid, then the placement-skew table with
/// deterministic counters.
pub fn run(scale: Scale) -> Vec<Table> {
    let base = spec(scale);
    let grid = PolicySpec::preemption_grid();

    // Table 1 — completeness vs. temporal burstiness (the gated ladder,
    // plus a heavy-tail Pareto row for context).
    let mut ladder = burst_ladder(RATE_PER_EPOCH, period(scale));
    ladder.push(pareto_cell(RATE_PER_EPOCH, 1.15));
    let mut headers: Vec<String> = vec!["update model".into()];
    headers.extend(grid.iter().map(|s| s.label()));
    let mut burst = Table::with_headers(
        "Skew — completeness vs. temporal burstiness (fixed epoch mean)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for cell in &ladder {
        let exp = Experiment::materialize_spec(&base.with_updates(cell.model))
            .unwrap_or_else(|e| panic!("burst cell {}: {e}", cell.label));
        let roster = exp.run_roster(&grid);
        let vals: Vec<f64> = roster.iter().map(|a| a.completeness.mean).collect();
        burst.push_numeric_row(cell.label.to_string(), &vals, 4);
    }

    // Table 2 — placement skew with deterministic counters. MRSF(P) is the
    // probe policy (the paper's strongest rank-level policy).
    let probe = [PolicySpec::p(webmon_sim::PolicyKind::Mrsf)];
    let mut placement = Table::with_headers(
        "Skew — placement distributions (MRSF(P))",
        &[
            "placement",
            "completeness",
            "EI completeness",
            "CEIs",
            "EIs",
            "probes",
            "EIs captured",
        ],
    );
    for cell in placement_grid(base.resources) {
        let mut s = base.with_placement(cell.placement);
        s.hot = cell.hot;
        let exp = Experiment::materialize_spec(&s)
            .unwrap_or_else(|e| panic!("placement cell {}: {e}", cell.label));
        let agg = &exp.run_roster(&probe)[0];
        let (ceis, eis) = exp.mean_sizes();
        placement.push_numeric_row(
            cell.label.to_string(),
            &[
                agg.completeness.mean,
                agg.ei_completeness.mean,
                ceis,
                eis,
                agg.metrics.probes_issued as f64,
                agg.metrics.eis_captured as f64,
            ],
            4,
        );
    }

    vec![burst, placement]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_ladder_degrades_every_policy_monotonically() {
        let tables = run(Scale::Quick);
        let burst = &tables[0];
        // 4 gated ladder rows + the ungated Pareto row.
        assert_eq!(burst.rows.len(), 5);
        for col in 1..burst.rows[0].len() {
            let vals: Vec<f64> = burst.rows[..4]
                .iter()
                .map(|r| r[col].parse().unwrap())
                .collect();
            for w in vals.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-9,
                    "column {col} not non-increasing down the duty ladder: {vals:?}"
                );
            }
        }
    }

    #[test]
    fn placement_rows_cover_the_grid_and_report_activity() {
        let tables = run(Scale::Quick);
        let placement = &tables[1];
        assert_eq!(placement.rows.len(), 6);
        for row in &placement.rows {
            let completeness: f64 = row[1].parse().unwrap();
            let probes: f64 = row[5].parse().unwrap();
            assert!(
                completeness > 0.0 && completeness <= 1.0,
                "degenerate completeness: {row:?}"
            );
            assert!(probes > 0.0, "no probes issued: {row:?}");
        }
    }

    #[test]
    fn tables_are_deterministic_across_reruns() {
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.rows, tb.rows);
        }
    }
}
