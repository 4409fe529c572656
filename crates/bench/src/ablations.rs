//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! 1. MRSF paper formula (`rank(p) − captured`) vs exact residual
//!    (`|η| − captured`) — differs only on mixed-rank profiles.
//! 2. M-EDF future-EI weighting: full length `|I'|` (paper figures) vs
//!    absolute deadline `T_f + 1` (literal "T = 0" reading).
//! 3. Intra-resource probe sharing (`R_ids`) on vs off.
//! 4. Offline Local-Ratio: pure scheme vs maximality completion vs
//!    opportunistic leftover-budget spending.
//! 5. Candidate selection: the reference linear scan vs the default
//!    incremental selector (for MRSF, a persistent queue kept across
//!    chronons).

use crate::Scale;
use webmon_core::engine::{EngineConfig, OnlineEngine};
use webmon_core::offline::LocalRatioConfig;
use webmon_core::policy::Mrsf;
use webmon_sim::parallel::{par_map, serial};
use webmon_sim::{Experiment, ExperimentConfig, PolicyKind, PolicySpec, Summary, Table, TraceSpec};
use webmon_workload::{EiLength, RankSpec, WorkloadConfig};

/// Mixed-rank workload where the MRSF variants can disagree.
fn mixed_rank_config(scale: Scale) -> ExperimentConfig {
    let (n_resources, n_profiles) = match scale {
        Scale::Quick => (150, 40),
        Scale::Paper => (1000, 100),
    };
    ExperimentConfig {
        n_resources,
        horizon: 1000,
        budget: 1,
        workload: WorkloadConfig {
            n_profiles,
            // β > 0: profiles mix CEI sizes below their rank.
            rank: RankSpec::UpTo { k: 5, beta: 1.0 },
            resource_alpha: 0.3,
            length: EiLength::Overwrite { max_len: Some(10) },
            distinct_resources: true,
            max_ceis: None,
            no_intra_resource_overlap: false,
        },
        trace: TraceSpec::Poisson { lambda: 20.0 },
        noise: None,
        repetitions: scale.repetitions(),
        seed: 0xAB1A,
    }
}

/// Workload with heavy intra-resource overlap (popular-resource skew) where
/// probe sharing matters.
fn overlap_config(scale: Scale) -> ExperimentConfig {
    let mut cfg = mixed_rank_config(scale);
    cfg.workload.resource_alpha = 1.37;
    cfg.seed = 0xAB1B;
    cfg
}

/// Unit-width workload for the Local-Ratio ablation.
fn unit_config(scale: Scale) -> ExperimentConfig {
    let mut cfg = mixed_rank_config(scale);
    cfg.workload.length = EiLength::Window(0);
    cfg.seed = 0xAB1C;
    cfg
}

/// Runs all five ablations.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut out = Vec::new();

    // 1 & 2: policy-variant ablations share a workload.
    let exp = Experiment::materialize(mixed_rank_config(scale));
    let mut t = Table::with_headers(
        "Ablation — policy variants on a mixed-rank workload (β=1, C=1)",
        &["policy", "completeness", "µs/EI"],
    );
    for kind in [
        PolicyKind::Mrsf,
        PolicyKind::MrsfExact,
        PolicyKind::MEdf,
        PolicyKind::MEdfAbs,
    ] {
        let agg = exp.run_spec(PolicySpec::p(kind));
        t.push_numeric_row(
            agg.label.clone(),
            &[agg.completeness.mean, agg.micros_per_ei.mean],
            4,
        );
    }
    out.push(t);

    // 3: probe sharing on/off (manual engine runs on shared workloads,
    // repetitions in parallel).
    let exp = Experiment::materialize(overlap_config(scale));
    let pairs = par_map(exp.workloads().iter().collect(), |_, w| {
        let on = OnlineEngine::run(&w.instance, &Mrsf, EngineConfig::preemptive());
        let off = OnlineEngine::run(
            &w.instance,
            &Mrsf,
            EngineConfig::preemptive().without_probe_sharing(),
        );
        (on.stats.completeness(), off.stats.completeness())
    });
    let (shared, unshared): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
    let mut t = Table::with_headers(
        "Ablation — intra-resource probe sharing (R_ids), MRSF(P), α=1.37",
        &["variant", "completeness"],
    );
    t.push_numeric_row(
        "sharing on (paper)",
        &[Summary::from_samples(&shared).mean],
        4,
    );
    t.push_numeric_row("sharing off", &[Summary::from_samples(&unshared).mean], 4);
    out.push(t);

    // 4: Local-Ratio extensions — pure scheme vs maximality completion vs
    // opportunistic leftover spending.
    let exp = Experiment::materialize(unit_config(scale));
    let pure = exp.run_local_ratio(LocalRatioConfig::paper());
    let completed = exp.run_local_ratio(LocalRatioConfig::default());
    let opp = exp.run_local_ratio(LocalRatioConfig {
        opportunistic: true,
        ..Default::default()
    });
    let mut t = Table::with_headers(
        "Ablation — offline Local-Ratio extensions (w=0)",
        &["variant", "completeness", "µs/EI"],
    );
    t.push_numeric_row(
        "pure scheme (paper baseline)",
        &[pure.completeness.mean, pure.micros_per_ei.mean],
        4,
    );
    t.push_numeric_row(
        "+ maximality completion",
        &[completed.completeness.mean, completed.micros_per_ei.mean],
        4,
    );
    t.push_numeric_row(
        "+ completion + opportunistic",
        &[opp.completeness.mean, opp.micros_per_ei.mean],
        4,
    );
    out.push(t);

    // 5: candidate selection — reference scan vs the default incremental
    // selector. Pinned to one worker: the µs/EI column is a wall-clock
    // comparison.
    let t = serial(|| {
        let exp = Experiment::materialize(selection_config(scale));
        let mut t = Table::with_headers(
            "Ablation — candidate selection: reference scan vs incremental, MRSF(P)",
            &["strategy", "completeness", "µs/EI"],
        );
        for (label, cfg) in [
            (
                "linear scan (reference)",
                EngineConfig::preemptive().with_scan(),
            ),
            ("incremental (default)", EngineConfig::preemptive()),
        ] {
            let mut completeness = Vec::new();
            let mut micros = Vec::new();
            for w in exp.workloads() {
                let start = std::time::Instant::now();
                let run = OnlineEngine::run(&w.instance, &Mrsf, cfg);
                let elapsed = start.elapsed();
                completeness.push(run.stats.completeness());
                micros.push(elapsed.as_secs_f64() * 1e6 / w.n_eis().max(1) as f64);
            }
            t.push_numeric_row(
                label,
                &[
                    Summary::from_samples(&completeness).mean,
                    Summary::from_samples(&micros).mean,
                ],
                4,
            );
        }
        t
    });
    out.push(t);

    out
}

/// A large workload where selection cost dominates (many live candidates
/// per chronon).
fn selection_config(scale: Scale) -> ExperimentConfig {
    let mut cfg = mixed_rank_config(scale);
    cfg.workload.n_profiles = match scale {
        Scale::Quick => 60,
        Scale::Paper => 400,
    };
    cfg.budget = 4;
    cfg.repetitions = scale.repetitions().min(3);
    cfg.seed = 0xAB1D;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_produces_four_tables() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].rows.len(), 4);
        assert_eq!(tables[1].rows.len(), 2);
        assert_eq!(tables[2].rows.len(), 3);
        assert_eq!(tables[3].rows.len(), 2);
    }

    #[test]
    fn selection_strategies_agree_on_completeness() {
        let tables = run(Scale::Quick);
        let scan: f64 = tables[3].rows[0][1].parse().unwrap();
        let incremental: f64 = tables[3].rows[1][1].parse().unwrap();
        assert!(
            (scan - incremental).abs() < 1e-9,
            "scan {scan} vs incremental {incremental}"
        );
    }

    #[test]
    fn probe_sharing_never_hurts() {
        let tables = run(Scale::Quick);
        let on: f64 = tables[1].rows[0][1].parse().unwrap();
        let off: f64 = tables[1].rows[1][1].parse().unwrap();
        assert!(on >= off, "sharing on ({on}) should dominate off ({off})");
    }

    #[test]
    fn local_ratio_extensions_never_hurt() {
        let tables = run(Scale::Quick);
        let pure: f64 = tables[2].rows[0][1].parse().unwrap();
        let completed: f64 = tables[2].rows[1][1].parse().unwrap();
        let opp: f64 = tables[2].rows[2][1].parse().unwrap();
        assert!(
            completed >= pure,
            "completion ({completed}) should dominate pure ({pure})"
        );
        assert!(
            opp >= completed,
            "opportunistic ({opp}) should dominate completion ({completed})"
        );
    }
}
