//! Bit-identity of the default `Incremental` selector with the `Scan`
//! reference.
//!
//! `Incremental` (the default) selects through a per-phase heap on
//! engine-owned storage, and state-keyed policies (MRSF) through a
//! persistent queue kept across chronons. Both must be *observationally
//! invisible*: over the whole conformance corpus, in every policy × mode
//! cell, `Incremental` must reproduce the `Scan` reference **bit for bit**
//! — the schedule, the `RunStats`/outcomes, the merged `RunMetrics`, and
//! the raw JSONL trace bytes. Selection-step counts are per-selector
//! telemetry (`RunResult::selection_steps`) outside that contract.
//!
//! The identity is also pinned under fault injection (charged failures
//! with and without backoff), under profile churn, on an instance two
//! orders of magnitude above corpus size, and under parallel execution
//! (jobs 1 vs 4).

use webmon_core::engine::{
    EngineConfig, MutationQueue, OnlineEngine, ScriptedMutations, SelectionStrategy,
};
use webmon_core::fault::{Backoff, FaultConfig, IidFaults, NoFaults};
use webmon_core::model::{Budget, Chronon, Instance, InstanceBuilder};
use webmon_core::obs::{JsonlTraceObserver, MetricsObserver, RunMetrics, Tee};
use webmon_core::policy::{MEdf, Mrsf, MrsfExact, Policy, SEdf, UtilityWeighted, Wic};
use webmon_core::RunResult;
use webmon_sim::parallel::par_map_with;
use webmon_streams::SimRng;
use webmon_testkit::corpus::{conformance_cases, small_instance, CorpusRng};
use webmon_workload::churn::overlay;
use webmon_workload::ChurnConfig;

/// The four paper policies of the identity grid.
fn policies() -> [(&'static str, Box<dyn Policy>); 4] {
    [
        ("S-EDF", Box::new(SEdf)),
        ("MRSF", Box::new(Mrsf)),
        ("M-EDF", Box::new(MEdf)),
        ("W-IC", Box::new(Wic::paper())),
    ]
}

/// Both execution modes with the given selection strategy.
fn configs(strategy: SelectionStrategy) -> [EngineConfig; 2] {
    [
        EngineConfig::preemptive().with_selection(strategy),
        EngineConfig::non_preemptive().with_selection(strategy),
    ]
}

/// One fully observed run: result + merged metrics + raw JSONL trace bytes.
fn observed(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
) -> (RunResult, RunMetrics, Vec<u8>) {
    let mut metrics = MetricsObserver::new();
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let result = {
        let mut tee = Tee(&mut metrics, &mut trace);
        OnlineEngine::run_observed(instance, policy, config, &mut tee)
    };
    assert_eq!(trace.write_errors(), 0);
    let bytes = trace.finish().expect("Vec<u8> sink cannot fail");
    (result, metrics.finish(), bytes)
}

/// Same, through the fault-injected entry point.
fn observed_faulted(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
    rate: f64,
    seed: u64,
    fault_config: FaultConfig,
) -> (RunResult, RunMetrics, Vec<u8>) {
    let mut metrics = MetricsObserver::new();
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let mut model = IidFaults::new(rate, seed);
    let result = {
        let mut tee = Tee(&mut metrics, &mut trace);
        OnlineEngine::run_driven(
            instance,
            policy,
            config,
            &mut model,
            fault_config,
            &mut ScriptedMutations::default(),
            &mut tee,
        )
    };
    assert_eq!(trace.write_errors(), 0);
    let bytes = trace.finish().expect("Vec<u8> sink cannot fail");
    (result, metrics.finish(), bytes)
}

fn assert_identical(
    label: &str,
    a: &(RunResult, RunMetrics, Vec<u8>),
    b: &(RunResult, RunMetrics, Vec<u8>),
) {
    assert_eq!(a.0.schedule, b.0.schedule, "{label}: schedule");
    assert_eq!(a.0.stats, b.0.stats, "{label}: stats");
    assert_eq!(a.0.outcomes, b.0.outcomes, "{label}: outcomes");
    assert_eq!(a.1, b.1, "{label}: RunMetrics");
    assert_eq!(a.2, b.2, "{label}: JSONL trace bytes");
}

/// The `Scan` grid: the paper policies plus every state-keyed variant, so
/// both `Incremental` data structures (per-phase reseed and the persistent
/// keyed queue) face the reference.
fn scan_grid() -> Vec<(&'static str, Box<dyn Policy>)> {
    let mut grid: Vec<(&'static str, Box<dyn Policy>)> = policies().into_iter().collect();
    grid.push(("MRSF-Exact", Box::new(MrsfExact)));
    grid.push(("U-MRSF", Box::new(UtilityWeighted::new(Mrsf, "U-MRSF"))));
    grid
}

/// The `Scan` reference and `Incremental` agree bit for bit: schedule,
/// stats, outcomes, `RunMetrics`, and JSONL trace bytes.
#[test]
fn incremental_matches_scan_semantics_on_the_corpus() {
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, false);
        for (name, policy) in &scan_grid() {
            for (scan, incr) in configs(SelectionStrategy::Scan)
                .into_iter()
                .zip(configs(SelectionStrategy::Incremental))
            {
                let a = observed(&instance, policy.as_ref(), scan);
                let b = observed(&instance, policy.as_ref(), incr);
                assert_identical(&format!("seed {seed}: {name} {}", scan.label()), &a, &b);
            }
        }
    }
}

/// The `Scan` identity under charged iid faults, with and without
/// backoff. Without backoff a failed probe's entry goes back into the
/// selector and can be selected again in the same chronon; with backoff,
/// entries on backed-off resources are skipped for the chronon and must be
/// selectable again once the backoff ends.
#[test]
fn incremental_matches_scan_under_faults_with_backoff() {
    let fault_configs = [
        ("charged", FaultConfig::charged()),
        (
            "backoff",
            FaultConfig::charged().with_backoff(Backoff::new(1, 8)),
        ),
    ];
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, false);
        for (name, policy) in &scan_grid() {
            for (scan, incr) in configs(SelectionStrategy::Scan)
                .into_iter()
                .zip(configs(SelectionStrategy::Incremental))
            {
                for (faults, fault_config) in fault_configs {
                    let run = |config| {
                        observed_faulted(
                            &instance,
                            policy.as_ref(),
                            config,
                            0.3,
                            seed,
                            fault_config,
                        )
                    };
                    assert_identical(
                        &format!("seed {seed}: {name} {} rate 0.3 {faults}", scan.label()),
                        &run(scan),
                        &run(incr),
                    );
                }
            }
        }
    }
}

/// The `Scan` identity under profile churn: registrations bring open
/// windows into the pool mid-run, and cancellations kill queued entries.
#[test]
fn incremental_matches_scan_under_churn() {
    let churn = ChurnConfig::new(0.5, 0.4)
        .with_alpha(0.8)
        .with_reconfigurations(1);
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, true);
        let mutations = overlay(&instance, &churn, &SimRng::new(seed));
        for (name, policy) in &scan_grid() {
            for (scan, incr) in configs(SelectionStrategy::Scan)
                .into_iter()
                .zip(configs(SelectionStrategy::Incremental))
            {
                assert_identical(
                    &format!("seed {seed}: {name} {} churned", scan.label()),
                    &observed_churned(&instance, policy.as_ref(), scan, &mutations),
                    &observed_churned(&instance, policy.as_ref(), incr, &mutations),
                );
            }
        }
    }
}

/// Digest of one strategy's output over a slice of the corpus, computed on
/// a worker pool: per-case trace bytes, metrics, and selection-step
/// telemetry, in case order.
fn corpus_digest(
    strategy: SelectionStrategy,
    jobs: usize,
    cases: u64,
) -> Vec<(Vec<u8>, String, u64)> {
    par_map_with(jobs, (0..cases).collect(), |_, seed| {
        let instance = small_instance(seed, false);
        let mut bytes = Vec::new();
        let mut summary = String::new();
        let mut steps = 0;
        for (name, policy) in &policies() {
            for config in configs(strategy) {
                let (result, metrics, trace) = observed(&instance, policy.as_ref(), config);
                bytes.extend_from_slice(&trace);
                steps += result.selection_steps;
                summary.push_str(&format!(
                    "{name}/{}: probes {} captured {} pool-max {}\n",
                    config.label(),
                    metrics.probes_issued,
                    result.stats.ceis_captured,
                    metrics.candidate_set.max,
                ));
            }
        }
        (bytes, summary, steps)
    })
}

/// The determinism contract extends to the incremental path: the whole
/// corpus digest (trace bytes, metric counters, and selection steps) is
/// identical on 1 worker and on 4, and the semantic digest is identical
/// between `Scan` and `Incremental` — selection steps are per-selector
/// telemetry.
#[test]
fn corpus_digest_is_jobs_invariant_and_strategy_invariant() {
    let cases = conformance_cases().min(60);
    let incr_1 = corpus_digest(SelectionStrategy::Incremental, 1, cases);
    let incr_4 = corpus_digest(SelectionStrategy::Incremental, 4, cases);
    assert_eq!(incr_1, incr_4, "jobs 1 vs jobs 4 digests differ");
    let scan_1 = corpus_digest(SelectionStrategy::Scan, 1, cases);
    let semantic = |digest: &[(Vec<u8>, String, u64)]| -> Vec<(Vec<u8>, String)> {
        digest
            .iter()
            .map(|(b, s, _)| (b.clone(), s.clone()))
            .collect()
    };
    assert_eq!(
        semantic(&incr_1),
        semantic(&scan_1),
        "Incremental vs Scan digests differ"
    );
}

/// Same, through the mutation-drain entry point with a churn overlay.
fn observed_churned(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
    mutations: &MutationQueue,
) -> (RunResult, RunMetrics, Vec<u8>) {
    let mut metrics = MetricsObserver::new();
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let result = {
        let mut tee = Tee(&mut metrics, &mut trace);
        OnlineEngine::run_driven(
            instance,
            policy,
            config,
            &mut NoFaults,
            FaultConfig::default(),
            &mut ScriptedMutations::compile(mutations, instance.epoch.len(), instance.ceis.len()),
            &mut tee,
        )
    };
    assert_eq!(trace.write_errors(), 0);
    let bytes = trace.finish().expect("Vec<u8> sink cannot fail");
    (result, metrics.finish(), bytes)
}

/// A deterministic instance two orders of magnitude above corpus size
/// (> 4096 EIs over 48 resources).
fn large_instance(seed: u64) -> Instance {
    let n_resources = 48u32;
    let horizon: Chronon = 80;
    let mut rng = CorpusRng::new(seed);
    let mut b = InstanceBuilder::new(n_resources, horizon, Budget::Uniform(3));
    let p = b.profile();
    for _ in 0..2600 {
        let n_eis = rng.range(1, 3);
        let eis: Vec<(u32, Chronon, Chronon)> = (0..n_eis)
            .map(|_| {
                let r = rng.below(u64::from(n_resources)) as u32;
                let start = rng.below(u64::from(horizon)) as Chronon;
                let end = (start + rng.below(6) as Chronon).min(horizon - 1);
                (r, start, end)
            })
            .collect();
        b.cei(p, &eis);
    }
    b.build()
}

/// The identity holds far above corpus size: an instance with thousands
/// of EIs spread over 48 resources, for MRSF (the persistent keyed queue)
/// and W-IC (the per-phase reseeded heap), reproduces the `Scan` trace
/// byte for byte.
#[test]
fn incremental_matches_scan_on_a_large_instance() {
    let instance = large_instance(0x5AAD);
    assert!(
        instance.total_eis() > 4096,
        "fixture too small: {} EIs",
        instance.total_eis()
    );
    for policy in [&Mrsf as &dyn Policy, &Wic::paper()] {
        for (scan, incr) in configs(SelectionStrategy::Scan)
            .into_iter()
            .zip(configs(SelectionStrategy::Incremental))
        {
            assert_identical(
                &format!("{} {}", policy.name(), scan.label()),
                &observed(&instance, policy, scan),
                &observed(&instance, policy, incr),
            );
        }
    }
}
