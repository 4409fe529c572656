//! Bit-identity of the incremental selection path.
//!
//! The PR-5 engine refactor replaced the per-phase `BinaryHeap` +
//! `HashMap<u32, Vec<PoolEntry>>` rebuilds of the `LazyHeap` selector with
//! the engine-owned incremental candidate index
//! ([`SelectionStrategy::Incremental`], the default), and state-keyed
//! policies (MRSF) now select through a persistent queue kept across
//! chronons. The optimizations must be *observationally invisible*: over
//! the whole conformance corpus, in every policy × mode cell,
//! `Incremental` must reproduce both the pre-refactor `LazyHeap` output
//! and the `Scan` reference **bit for bit** — the schedule, the
//! `RunStats`/outcomes, the merged `RunMetrics`, and the raw JSONL trace
//! bytes. Selection-step counts are per-strategy telemetry
//! (`RunResult::selection_steps`) outside that contract.
//!
//! The identity is also pinned under parallel execution (jobs 1 vs 4) and
//! under fault injection at a nonzero failure rate, so neither the worker
//! pool nor the fault paths can reorder the incremental bookkeeping.
//!
//! The PR-7 sharded engine extends the same contract to intra-cell
//! parallelism: `shards = N` must be bit-identical to `shards = 1` —
//! schedule, stats, outcomes, `RunMetrics`, and JSONL trace bytes — for
//! every shard count in the suite grid, across policies × P/NP × selection
//! strategies, with and without fault injection and profile churn, and on
//! an instance large enough to force the threaded shard dispatch path.

use webmon_core::engine::{EngineConfig, MutationQueue, OnlineEngine, SelectionStrategy};
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
) -> (RunResult, RunMetrics, Vec<u8>) {
    observed_faulted_with(instance, policy, config, rate, seed, FaultConfig::charged())
}

/// Same, under an explicit fault configuration.
fn observed_faulted_with(
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
        OnlineEngine::run_faulted(instance, policy, config, &mut model, fault_config, &mut tee)
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

/// Tentpole identity: `Incremental` vs the pre-refactor `LazyHeap` over the
/// full corpus, 4 policies × P/NP — schedule, stats, outcomes, metrics, and
/// trace bytes all byte-identical.
#[test]
fn incremental_is_bit_identical_to_lazy_heap_on_the_corpus() {
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, false);
        for (name, policy) in &policies() {
            for (lazy, incr) in configs(SelectionStrategy::LazyHeap)
                .into_iter()
                .zip(configs(SelectionStrategy::Incremental))
            {
                let a = observed(&instance, policy.as_ref(), lazy);
                let b = observed(&instance, policy.as_ref(), incr);
                assert_identical(&format!("seed {seed}: {name} {}", lazy.label()), &a, &b);
            }
        }
    }
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

/// The `Scan` identity under charged iid faults with backoff: failed
/// probes are pushed back, and entries on backed-off resources are skipped
/// for the chronon and must be selectable again once the backoff ends.
#[test]
fn incremental_matches_scan_under_faults_with_backoff() {
    let fault_config = FaultConfig::charged().with_backoff(Backoff::new(1, 8));
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, false);
        for (name, policy) in &scan_grid() {
            for (scan, incr) in configs(SelectionStrategy::Scan)
                .into_iter()
                .zip(configs(SelectionStrategy::Incremental))
            {
                let run = |config| {
                    observed_faulted_with(
                        &instance,
                        policy.as_ref(),
                        config,
                        0.3,
                        seed,
                        fault_config,
                    )
                };
                assert_identical(
                    &format!("seed {seed}: {name} {} rate 0.3 backoff", scan.label()),
                    &run(scan),
                    &run(incr),
                );
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

/// The identity survives fault injection at a nonzero rate: failed probes,
/// retries, outages, and shedding all drive the incremental index through
/// its removal paths, and the output must still match `LazyHeap` bit for
/// bit.
#[test]
fn incremental_matches_lazy_heap_under_faults() {
    let cases = conformance_cases().min(120);
    for seed in 0..cases {
        let instance = small_instance(seed, false);
        for (name, policy) in &policies() {
            for (lazy, incr) in configs(SelectionStrategy::LazyHeap)
                .into_iter()
                .zip(configs(SelectionStrategy::Incremental))
            {
                let a = observed_faulted(&instance, policy.as_ref(), lazy, 0.3, seed);
                let b = observed_faulted(&instance, policy.as_ref(), incr, 0.3, seed);
                assert_identical(
                    &format!("seed {seed}: {name} {} rate 0.3", lazy.label()),
                    &a,
                    &b,
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

/// The PR-1 determinism contract extends to the incremental path: the whole
/// corpus digest (trace bytes, metric counters, and selection steps) is
/// identical on 1 worker and on 4, and the semantic digest is identical
/// between `LazyHeap` and `Incremental` — selection steps are per-strategy
/// telemetry.
#[test]
fn corpus_digest_is_jobs_invariant_and_strategy_invariant() {
    let cases = conformance_cases().min(60);
    let incr_1 = corpus_digest(SelectionStrategy::Incremental, 1, cases);
    let incr_4 = corpus_digest(SelectionStrategy::Incremental, 4, cases);
    assert_eq!(incr_1, incr_4, "jobs 1 vs jobs 4 digests differ");
    let lazy_1 = corpus_digest(SelectionStrategy::LazyHeap, 1, cases);
    let semantic = |digest: &[(Vec<u8>, String, u64)]| -> Vec<(Vec<u8>, String)> {
        digest
            .iter()
            .map(|(b, s, _)| (b.clone(), s.clone()))
            .collect()
    };
    assert_eq!(
        semantic(&incr_1),
        semantic(&lazy_1),
        "Incremental vs LazyHeap digests differ"
    );
}

// ---------------------------------------------------------------------------
// Sharded vs serial identity (PR-7).
// ---------------------------------------------------------------------------

/// Shard counts exercised against the `shards = 1` baseline. The corpus
/// instances have 1–3 resources, so 2 lands on a real partition, while 4
/// and 7 also pin the `shards > |R|` clamp (a requested count above the
/// resource count resolves to one shard per resource).
const SHARD_COUNTS: [u32; 3] = [2, 4, 7];

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
        OnlineEngine::run_mutated(
            instance,
            policy,
            config,
            &mut NoFaults,
            FaultConfig::default(),
            mutations,
            &mut tee,
        )
    };
    assert_eq!(trace.write_errors(), 0);
    let bytes = trace.finish().expect("Vec<u8> sink cannot fail");
    (result, metrics.finish(), bytes)
}

/// Tentpole identity: every sharded run reproduces the serial run bit for
/// bit over the full corpus — 4 policies × P/NP × shards {2, 4, 7}, on the
/// default `Incremental` strategy. Schedule, stats, outcomes, `RunMetrics`,
/// and raw JSONL trace bytes must all match.
#[test]
fn sharded_is_bit_identical_to_serial_on_the_corpus() {
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, false);
        for (name, policy) in &policies() {
            for config in configs(SelectionStrategy::Incremental) {
                let serial = observed(&instance, policy.as_ref(), config.with_shards(1));
                for shards in SHARD_COUNTS {
                    let sharded = observed(&instance, policy.as_ref(), config.with_shards(shards));
                    assert_identical(
                        &format!("seed {seed}: {name} {} shards {shards}", config.label()),
                        &serial,
                        &sharded,
                    );
                }
            }
        }
    }
}

/// The shard identity is strategy-independent: `Scan`, `LazyHeap`, and
/// `Incremental` each reproduce their own serial output bit for bit under
/// sharding (each strategy is compared against itself, so the selection-step
/// accounting differences between strategies never enter the comparison).
#[test]
fn sharded_identity_holds_for_every_selection_strategy() {
    let cases = conformance_cases().min(120);
    for seed in 0..cases {
        let instance = small_instance(seed, false);
        for strategy in [
            SelectionStrategy::Scan,
            SelectionStrategy::LazyHeap,
            SelectionStrategy::Incremental,
        ] {
            for config in configs(strategy) {
                let serial = observed(&instance, &Mrsf, config.with_shards(1));
                for shards in SHARD_COUNTS {
                    let sharded = observed(&instance, &Mrsf, config.with_shards(shards));
                    assert_identical(
                        &format!(
                            "seed {seed}: {strategy:?} {} shards {shards}",
                            config.label()
                        ),
                        &serial,
                        &sharded,
                    );
                }
            }
        }
    }
}

/// Sharding composes with fault injection: failed probes, retries, and
/// shedding drive the per-shard indices through their removal paths, and
/// the faulted sharded run still matches the faulted serial run bit for
/// bit.
#[test]
fn sharded_identity_survives_fault_injection() {
    let cases = conformance_cases().min(120);
    for seed in 0..cases {
        let instance = small_instance(seed, false);
        for (name, policy) in &policies() {
            for config in configs(SelectionStrategy::Incremental) {
                let serial =
                    observed_faulted(&instance, policy.as_ref(), config.with_shards(1), 0.3, seed);
                for shards in [2, 7] {
                    let sharded = observed_faulted(
                        &instance,
                        policy.as_ref(),
                        config.with_shards(shards),
                        0.3,
                        seed,
                    );
                    assert_identical(
                        &format!(
                            "seed {seed}: {name} {} shards {shards} rate 0.3",
                            config.label()
                        ),
                        &serial,
                        &sharded,
                    );
                }
            }
        }
    }
}

/// Sharding composes with profile churn: mid-run registrations insert into
/// the owning shard's index, cancellations route per-EI, and the churned
/// sharded run matches the churned serial run bit for bit.
#[test]
fn sharded_identity_survives_profile_churn() {
    let cases = conformance_cases().min(120);
    let churn = ChurnConfig::new(0.5, 0.4)
        .with_alpha(0.8)
        .with_reconfigurations(1);
    for seed in 0..cases {
        let instance = small_instance(seed, true);
        let mutations = overlay(&instance, &churn, &SimRng::new(seed));
        for (name, policy) in &policies() {
            for config in configs(SelectionStrategy::Incremental) {
                let serial = observed_churned(
                    &instance,
                    policy.as_ref(),
                    config.with_shards(1),
                    &mutations,
                );
                for shards in [2, 7] {
                    let sharded = observed_churned(
                        &instance,
                        policy.as_ref(),
                        config.with_shards(shards),
                        &mutations,
                    );
                    assert_identical(
                        &format!(
                            "seed {seed}: {name} {} shards {shards} churned",
                            config.label()
                        ),
                        &serial,
                        &sharded,
                    );
                }
            }
        }
    }
}

/// A deterministic instance big enough (> 4096 EIs) that multi-shard runs
/// take the *threaded* shard dispatch path rather than the inline loop.
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

/// The identity holds on the threaded dispatch path: an instance with
/// thousands of EIs spread over 48 resources, where `shards > 1` actually
/// fans the per-chronon maintenance and scoring out on the scoped-thread
/// pool, still reproduces the serial trace byte for byte.
#[test]
fn sharded_identity_holds_on_the_threaded_dispatch_path() {
    let instance = large_instance(0x5AAD);
    assert!(
        instance.total_eis() > 4096,
        "fixture too small to force threaded dispatch: {} EIs",
        instance.total_eis()
    );
    for policy in [&Mrsf as &dyn Policy, &Wic::paper()] {
        for config in configs(SelectionStrategy::Incremental) {
            let serial = observed(&instance, policy, config.with_shards(1));
            for shards in SHARD_COUNTS {
                let sharded = observed(&instance, policy, config.with_shards(shards));
                assert_identical(
                    &format!("{} {} shards {shards}", policy.name(), config.label()),
                    &serial,
                    &sharded,
                );
            }
        }
    }
}
