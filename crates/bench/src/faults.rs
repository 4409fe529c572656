//! Robustness under fault injection — gained completeness vs. failure rate,
//! plus retry/outage behavior, for the paper roster in both preemption
//! modes.
//!
//! Not a paper artifact: the ICDE 2009 evaluation assumes every probe
//! succeeds. This experiment measures how gracefully each policy degrades
//! when probes fail (i.i.d. losses) or whole resources go dark (bursty
//! Gilbert–Elliott outages), with failed probes still charged to the
//! per-chronon budget. The shipped i.i.d. model draws failure sets nested
//! in the rate for a fixed seed, so each column is non-increasing down the
//! sweep.

use crate::Scale;
use webmon_core::fault::{Backoff, FaultConfig};
use webmon_sim::{CellSpec, Experiment, ExperimentConfig, FaultSpec, PolicySpec, Table, TraceSpec};
use webmon_workload::{EiLength, RankSpec, WorkloadConfig};

/// Master fault seed of the robustness experiment.
pub const FAULT_SEED: u64 = 0xFA17;

/// Configuration of the robustness experiment.
pub fn config(scale: Scale) -> ExperimentConfig {
    let (n_resources, n_profiles, horizon) = match scale {
        Scale::Quick => (60, 16, 200),
        Scale::Paper => (200, 50, 1000),
    };
    ExperimentConfig {
        n_resources,
        horizon,
        budget: 1,
        workload: WorkloadConfig {
            n_profiles,
            rank: RankSpec::UpTo { k: 5, beta: 0.0 },
            resource_alpha: 0.3,
            length: EiLength::Overwrite { max_len: Some(10) },
            distinct_resources: true,
            max_ceis: None,
            no_intra_resource_overlap: false,
        },
        trace: TraceSpec::Poisson { lambda: 20.0 },
        noise: None,
        repetitions: scale.repetitions(),
        seed: 0xFA0B,
    }
}

/// Failure rates swept at this scale.
pub fn rates(scale: Scale) -> &'static [f64] {
    match scale {
        Scale::Quick => &[0.0, 0.3, 0.7],
        Scale::Paper => &[0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9],
    }
}

/// Runs the robustness experiment: an i.i.d. failure-rate sweep over both
/// preemption modes, then a retry-strategy and bursty-outage comparison at
/// one fixed loss level.
pub fn run(scale: Scale) -> Vec<Table> {
    let exp = Experiment::materialize(config(scale));
    let grid = PolicySpec::preemption_grid();

    // Table 1 — completeness vs. i.i.d. failure rate, charged failures,
    // immediate retry (the headline degradation curve, P & NP).
    let mut headers: Vec<String> = vec!["failure rate".into()];
    headers.extend(grid.iter().map(|s| s.label()));
    let mut sweep = Table::with_headers(
        "Robustness — completeness vs. i.i.d. probe-failure rate (charged failures)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for (rate, roster) in
        exp.robustness_sweep(&grid, rates(scale), FAULT_SEED, FaultConfig::default())
    {
        let vals: Vec<f64> = roster.iter().map(|a| a.completeness.mean).collect();
        sweep.push_numeric_row(format!("{rate:.2}"), &vals, 4);
    }

    // Table 2 — retry strategies and outage models at one loss level:
    // how much completeness each recovery discipline buys back, and what
    // bursty outages cost in shed CEIs.
    let mid_rate = 0.3;
    let scenarios: Vec<(&str, FaultSpec)> = vec![
        ("iid, immediate retry", FaultSpec::iid(mid_rate, FAULT_SEED)),
        (
            "iid, backoff(1,8)",
            FaultSpec::iid(mid_rate, FAULT_SEED)
                .with_config(FaultConfig::default().with_backoff(Backoff::new(1, 8))),
        ),
        (
            "iid, retry quota 1",
            FaultSpec::iid(mid_rate, FAULT_SEED)
                .with_config(FaultConfig::default().with_retry_quota(1)),
        ),
        (
            "burst(0.10,0.40), backoff(1,8)",
            FaultSpec::burst(0.10, 0.40, FAULT_SEED)
                .with_config(FaultConfig::default().with_backoff(Backoff::new(1, 8))),
        ),
        // Rate limits commit their whole window as a down horizon, so this
        // is the scenario that exercises graceful shedding (`CeiShed`).
        (
            "ratelimit(6,1)",
            FaultSpec {
                kind: webmon_sim::FaultKind::RateLimit {
                    window: 6,
                    max_per_window: 1,
                },
                seed: FAULT_SEED,
                config: FaultConfig::default(),
            },
        ),
    ];
    let probe_spec = PolicySpec::p(webmon_sim::PolicyKind::Mrsf);
    let mut detail = Table::with_headers(
        "Robustness — recovery disciplines at 30% loss (MRSF(P))",
        &[
            "scenario",
            "completeness",
            "failed",
            "retried",
            "budget lost",
            "outages",
            "CEIs shed",
        ],
    );
    for (label, spec) in scenarios {
        let agg = exp.run_cell(CellSpec {
            faults: Some(spec),
            ..CellSpec::new(probe_spec)
        });
        detail.push_numeric_row(
            label.to_string(),
            &[
                agg.completeness.mean,
                agg.metrics.probes_failed as f64,
                agg.metrics.probes_retried as f64,
                agg.metrics.budget_lost as f64,
                agg.metrics.resource_outages as f64,
                agg.metrics.ceis_shed as f64,
            ],
            4,
        );
    }

    vec![sweep, detail]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_cover_every_rate_and_degrade() {
        let tables = run(Scale::Quick);
        let sweep = &tables[0];
        assert_eq!(sweep.rows.len(), rates(Scale::Quick).len());
        // Each policy column is non-increasing in the failure rate.
        for col in 1..sweep.rows[0].len() {
            let vals: Vec<f64> = sweep.rows.iter().map(|r| r[col].parse().unwrap()).collect();
            for w in vals.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-9,
                    "column {col} not non-increasing: {vals:?}"
                );
            }
        }
    }

    #[test]
    fn detail_rows_report_fault_activity() {
        let tables = run(Scale::Quick);
        let detail = &tables[1];
        assert_eq!(detail.rows.len(), 5);
        // The i.i.d. scenarios lose probes; the bursty one blocks them
        // during announced outages instead, so only outages are asserted.
        for row in &detail.rows[..3] {
            let failed: f64 = row[2].parse().unwrap();
            assert!(failed > 0.0, "30% loss must fail some probes: {row:?}");
        }
        // The bursty scenario announces outages.
        let outages: f64 = detail.rows[3][5].parse().unwrap();
        assert!(outages > 0.0, "bursty scenario announced no outages");
    }
}
