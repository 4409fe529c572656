//! Golden determinism tests for the parallel execution layer: running an
//! experiment on a worker pool must be **bit-identical** to running it
//! inline on one thread — parallelism may only change wall-clock time, so
//! the timing fields (`runtime`, `micros_per_ei`) are the only ones
//! excluded from comparison.
//!
//! The serial baseline uses [`webmon_sim::parallel::serial`] (a thread-local
//! pin) rather than the global jobs setting, so these tests cannot race
//! with each other or with anything else in the process.

use webmon_core::engine::{EngineConfig, OnlineEngine};
use webmon_core::offline::LocalRatioConfig;
use webmon_core::policy::Mrsf;
use webmon_sim::parallel::{par_map_with, serial};
use webmon_sim::{Experiment, ExperimentConfig, PolicyKind, PolicySpec, TraceSpec};
use webmon_workload::{EiLength, RankSpec, WorkloadConfig};

/// A contended mid-size workload — large enough that repetitions genuinely
/// interleave on the pool, small enough for the test suite.
fn config() -> ExperimentConfig {
    ExperimentConfig {
        n_resources: 60,
        horizon: 300,
        budget: 2,
        workload: WorkloadConfig {
            n_profiles: 25,
            rank: RankSpec::UpTo { k: 4, beta: 0.5 },
            resource_alpha: 0.3,
            length: EiLength::Window(4),
            distinct_resources: true,
            max_ceis: Some(800),
            no_intra_resource_overlap: false,
        },
        trace: TraceSpec::Poisson { lambda: 6.0 },
        noise: None,
        repetitions: 6,
        seed: 0xDE7E,
    }
}

/// Every paper policy in both modes, plus the stateful `Random` policy —
/// the case that would expose order-dependent RNG draws under parallelism.
fn specs() -> Vec<PolicySpec> {
    let mut specs = PolicySpec::preemption_grid();
    specs.push(PolicySpec::p(PolicyKind::Wic));
    specs.push(PolicySpec::p(PolicyKind::Random));
    specs.push(PolicySpec::np(PolicyKind::Random));
    specs
}

#[test]
fn parallel_experiment_matches_serial_bit_for_bit() {
    // Serial baseline: everything inline on this thread (jobs = 1).
    let baseline = serial(|| {
        let exp = Experiment::materialize(config());
        let aggs: Vec<_> = specs().into_iter().map(|s| exp.run_spec(s)).collect();
        let bounds = exp.ei_upper_bounds();
        (exp, aggs, bounds)
    });

    // Parallel run on the default worker pool (the machine's cores).
    let exp = Experiment::materialize(config());
    assert_eq!(
        exp.workloads().len(),
        baseline.0.workloads().len(),
        "materialize must produce the same repetition count"
    );
    for (a, b) in exp.workloads().iter().zip(baseline.0.workloads()) {
        assert_eq!(a.instance, b.instance, "materialized instances diverged");
    }

    for (spec, base) in specs().into_iter().zip(&baseline.1) {
        let par = exp.run_spec(spec);
        assert_eq!(par.label, base.label);
        assert_eq!(
            par.repetitions.len(),
            base.repetitions.len(),
            "{}: repetition count diverged",
            par.label
        );
        for (p, b) in par.repetitions.iter().zip(&base.repetitions) {
            // Everything except wall-clock timing must match exactly.
            assert_eq!(
                p.stats, b.stats,
                "{}: per-repetition stats diverged",
                par.label
            );
            assert_eq!(
                p.metrics, b.metrics,
                "{}: per-repetition metrics diverged",
                par.label
            );
            assert_eq!(p.n_eis, b.n_eis);
        }
        assert_eq!(
            par.metrics, base.metrics,
            "{}: merged metrics diverged",
            par.label
        );
        // Aggregates derived from the stats must therefore match too.
        assert_eq!(par.completeness.mean, base.completeness.mean);
        assert_eq!(par.completeness.std, base.completeness.std);
        assert_eq!(par.ei_completeness.mean, base.ei_completeness.mean);
        assert_eq!(par.budget_utilization.mean, base.budget_utilization.mean);
        let par_sizes: Vec<_> = par.by_size.iter().map(|(&s, v)| (s, v.mean)).collect();
        let base_sizes: Vec<_> = base.by_size.iter().map(|(&s, v)| (s, v.mean)).collect();
        assert_eq!(
            par_sizes, base_sizes,
            "{}: by-size breakdown diverged",
            par.label
        );
    }

    assert_eq!(exp.ei_upper_bounds(), baseline.2, "upper bounds diverged");
}

#[test]
fn parallel_local_ratio_matches_serial() {
    // Unit-width EIs keep the Prop. 5 expansion trivial.
    let mut cfg = config();
    cfg.workload.length = EiLength::Window(0);
    cfg.budget = 1;

    let base = serial(|| {
        Experiment::materialize(cfg.clone()).run_local_ratio(LocalRatioConfig::default())
    });
    let par = Experiment::materialize(cfg).run_local_ratio(LocalRatioConfig::default());
    for (p, b) in par.repetitions.iter().zip(&base.repetitions) {
        assert_eq!(p.stats, b.stats, "Local-Ratio repetition stats diverged");
    }
    assert_eq!(par.completeness.mean, base.completeness.mean);
}

#[test]
fn incremental_and_scan_runs_are_identical_under_the_pool() {
    // Drive raw engine runs (both selection strategies, both modes) through
    // an explicit 4-worker pool and compare against a sequential map.
    let exp = serial(|| Experiment::materialize(config()));
    for engine_cfg in [
        EngineConfig::preemptive(),
        EngineConfig::non_preemptive(),
        EngineConfig::preemptive().with_scan(),
        EngineConfig::non_preemptive().with_scan(),
    ] {
        let sequential: Vec<_> = exp
            .workloads()
            .iter()
            .map(|w| {
                let run = OnlineEngine::run(&w.instance, &Mrsf, engine_cfg);
                (run.schedule, run.stats, run.outcomes)
            })
            .collect();
        let pooled = par_map_with(4, exp.workloads().iter().collect(), |_, w| {
            let run = OnlineEngine::run(&w.instance, &Mrsf, engine_cfg);
            (run.schedule, run.stats, run.outcomes)
        });
        assert_eq!(sequential, pooled, "{}", engine_cfg.label());
    }
}
