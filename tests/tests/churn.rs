//! Profile-churn conformance: the dynamic-registration path of the engine
//! checked from three directions —
//!
//! 1. **Zero-churn identity**: an empty (or quiescent) mutation queue is
//!    bit-identical to the mutation-free engine path, for every paper
//!    policy in both execution modes, and independent of the simulation
//!    worker count.
//! 2. **Churned corpus conformance**: every fixed-corpus instance rerun
//!    under a seeded churn overlay passes the churn-aware
//!    [`InvariantObserver`](webmon_core::check::InvariantObserver) with a
//!    clean report, and resolves every CEI.
//! 3. **Churned trace replay**: the persisted JSONL trace of a churned run
//!    is deterministic byte for byte and replays to the live metrics.

use webmon_core::engine::{EngineConfig, MutationQueue, OnlineEngine, ScriptedMutations};
use webmon_core::fault::{FaultConfig, NoFaults};
use webmon_core::model::Budget;
use webmon_core::obs::{replay_metrics, JsonlTraceObserver, MetricsObserver, Tee};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf, Wic};
use webmon_core::stats::CeiOutcome;
use webmon_sim::parallel::serial;
use webmon_sim::{CellSpec, ChurnSpec, Experiment, ExperimentConfig, PolicySpec, TraceSpec};
use webmon_streams::SimRng;
use webmon_testkit::checks::{conformant_churned_run, conformant_run};
use webmon_testkit::corpus::{conformance_cases, small_instance};
use webmon_workload::churn::overlay;
use webmon_workload::{ChurnConfig, EiLength, RankSpec, WorkloadConfig};

/// The seeded overlay used by the corpus sweep: high enough rates that the
/// fixed corpus exercises registration, cancellation, and reconfiguration.
fn corpus_overlay(seed: u64, instance: &webmon_core::model::Instance) -> MutationQueue {
    let config = ChurnConfig::new(0.5, 0.4)
        .with_alpha(0.8)
        .with_reconfigurations(1);
    overlay(instance, &config, &SimRng::new(seed))
}

/// An empty mutation queue must leave the engine on the exact static path:
/// schedule, stats, and outcomes bit-identical to `run_observed`, for every
/// paper policy in both modes across the fixed corpus.
#[test]
fn empty_queue_is_bit_identical_to_the_static_engine() {
    let empty = MutationQueue::new();
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, true);
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let stat = conformant_run(&instance, policy, config);
                let churned = conformant_churned_run(&instance, policy, config, &empty);
                assert_eq!(stat.schedule, churned.schedule, "seed {seed}");
                assert_eq!(stat.stats, churned.stats, "seed {seed}");
                assert_eq!(stat.outcomes, churned.outcomes, "seed {seed}");
            }
        }
    }
}

fn experiment_config() -> ExperimentConfig {
    ExperimentConfig {
        n_resources: 40,
        horizon: 200,
        budget: 2,
        workload: WorkloadConfig {
            n_profiles: 20,
            rank: RankSpec::UpTo { k: 3, beta: 0.5 },
            resource_alpha: 0.3,
            length: EiLength::Window(4),
            distinct_resources: true,
            max_ceis: Some(400),
            no_intra_resource_overlap: false,
        },
        trace: TraceSpec::Poisson { lambda: 4.0 },
        noise: None,
        repetitions: 4,
        seed: 0xC4A2,
    }
}

/// A quiescent churn spec (both rates zero) run through the full simulation
/// driver reproduces the static experiment bit for bit — serially and on
/// the parallel worker pool, for every policy in both modes.
#[test]
fn quiescent_churn_matches_static_across_worker_counts() {
    let quiescent = |policy| CellSpec {
        churn: Some(ChurnSpec::new(0.0, 0.0, 7)),
        ..CellSpec::new(policy)
    };
    let baseline = serial(|| {
        let exp = Experiment::materialize(experiment_config());
        let aggs: Vec<_> = PolicySpec::preemption_grid()
            .into_iter()
            .map(|s| exp.run_spec(s))
            .collect();
        (exp, aggs)
    });

    // Serial churned run, then the same on the default worker pool.
    let churned_serial = serial(|| {
        let exp = Experiment::materialize(experiment_config());
        PolicySpec::preemption_grid()
            .into_iter()
            .map(|s| exp.run_cell(quiescent(s)))
            .collect::<Vec<_>>()
    });
    let exp = Experiment::materialize(experiment_config());
    let churned_parallel: Vec<_> = PolicySpec::preemption_grid()
        .into_iter()
        .map(|s| exp.run_cell(quiescent(s)))
        .collect();

    for (base, churned) in baseline
        .1
        .iter()
        .zip(churned_serial.iter().zip(&churned_parallel))
    {
        for variant in [churned.0, churned.1] {
            assert_eq!(base.label, variant.label);
            assert_eq!(base.repetitions.len(), variant.repetitions.len());
            for (b, c) in base.repetitions.iter().zip(&variant.repetitions) {
                assert_eq!(b.stats, c.stats, "{}: stats diverged", base.label);
                assert_eq!(b.metrics, c.metrics, "{}: metrics diverged", base.label);
            }
        }
    }
}

/// Churned corpus conformance: every corpus instance under the seeded
/// overlay passes the churn-aware checker cleanly, and every CEI resolves
/// to captured, failed, or cancelled. The overlay coverage itself is
/// asserted in aggregate so the sweep cannot go quietly quiescent.
#[test]
fn churned_corpus_runs_are_clean_and_fully_resolved() {
    let mut registered = 0usize;
    let mut cancelled = 0u64;
    let mut reconfigured = 0usize;
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, true);
        let mutations = corpus_overlay(seed, &instance);
        for (t, m) in mutations.entries() {
            match m {
                webmon_core::engine::Mutation::Register { .. } => registered += 1,
                webmon_core::engine::Mutation::SetBudget { .. } => reconfigured += 1,
                webmon_core::engine::Mutation::Cancel { .. } => {
                    assert!(*t < instance.epoch.len(), "seed {seed}: out-of-epoch entry");
                }
            }
        }
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let run = conformant_churned_run(&instance, policy, config, &mutations);
                assert_eq!(
                    run.stats.ceis_captured + run.stats.ceis_failed + run.stats.ceis_cancelled,
                    run.stats.n_ceis,
                    "seed {seed}: {} under {} left a CEI unresolved",
                    policy.name(),
                    config.label()
                );
                assert!(
                    run.outcomes.iter().all(|o| *o != CeiOutcome::Pending),
                    "seed {seed}: pending outcome after the epoch"
                );
                cancelled += run.stats.ceis_cancelled;
            }
        }
    }
    assert!(registered > 0, "corpus overlay never registered a CEI");
    assert!(cancelled > 0, "corpus sweep never cancelled a live CEI");
    assert!(reconfigured > 0, "corpus overlay never reconfigured budget");
}

/// Mid-run budget reconfiguration through the real drain path: the checker
/// accepts the announced trajectory and the schedule respects the mutated
/// budget from the chronon after the drain.
#[test]
fn reconfigured_budget_is_respected_from_the_next_chronon() {
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, true);
        let horizon = instance.epoch.len();
        if horizon < 3 {
            continue;
        }
        let at = horizon / 2;
        let mut mutations = MutationQueue::new();
        mutations.set_budget(at, 1);
        let run = conformant_churned_run(&instance, &Mrsf, EngineConfig::preemptive(), &mutations);
        // Effective from `at + 1`: no later chronon may exceed one probe.
        for t in (at + 1)..horizon {
            assert!(
                run.schedule.probes_at(t).len() <= 1,
                "seed {seed}: {} probes at chronon {t} after SetBudget(1)",
                run.schedule.probes_at(t).len()
            );
        }
        assert!(run.schedule.is_feasible(&Budget::PerChronon(
            (0..horizon)
                .map(|t| if t > at { 1 } else { instance.budget.at(t) })
                .collect()
        )));
    }
}

/// Mid-run Register and Cancel mutations drained in the same chronon: a
/// CEI registered at chronon 5 on resources 6–7 and a CEI cancelled at 5
/// whose second window only opens at 8, so it cannot resolve before the
/// cancellation. Every conformant run ends with exactly that cancellation.
#[test]
fn midrun_register_and_cancel_resolve_as_scripted() {
    let mut b = webmon_core::model::InstanceBuilder::new(8, 16, Budget::Uniform(2));
    let p = b.profile();
    b.cei(p, &[(0, 0, 6)]);
    b.cei(p, &[(3, 0, 14)]);
    b.cei(p, &[(4, 2, 12), (5, 8, 12)]); // cancelled mid-run
    b.cei_released(p, 5, &[(6, 5, 12), (7, 6, 13)]); // registered mid-run
    let inst = b.build();

    let mut mutations = MutationQueue::new();
    mutations.register(5, inst.ceis[3].id);
    mutations.cancel(5, inst.ceis[2].id);
    mutations.set_budget(8, 1);

    for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let label = format!("{} {}", policy.name(), config.label());
            let run = conformant_churned_run(&inst, policy, config, &mutations);
            assert_eq!(run.stats.ceis_cancelled, 1, "{label}: cancel");
            assert_eq!(run.outcomes[2], CeiOutcome::Cancelled { at: 5 }, "{label}");
        }
    }
}

/// Churned trace replay: the JSONL trace of a churned run is deterministic
/// byte for byte across reruns, and folding it through the pure
/// re-derivation reproduces the live `RunMetrics` exactly.
#[test]
fn churned_trace_replays_byte_for_byte() {
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, true);
        let mutations = corpus_overlay(seed, &instance);
        let mut traces = Vec::new();
        for _ in 0..2 {
            let mut tee = Tee(MetricsObserver::new(), JsonlTraceObserver::new(Vec::new()));
            OnlineEngine::run_driven(
                &instance,
                &Mrsf,
                EngineConfig::preemptive(),
                &mut NoFaults,
                FaultConfig::default(),
                &mut ScriptedMutations::compile(
                    &mutations,
                    instance.epoch.len(),
                    instance.ceis.len(),
                ),
                &mut tee,
            );
            let Tee(metrics, trace) = tee;
            let live = metrics.finish();
            let bytes = trace.finish().expect("Vec<u8> sink cannot fail");
            let text = String::from_utf8(bytes).expect("trace is UTF-8");
            let replayed = replay_metrics(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: churned trace failed to replay: {e}"));
            assert_eq!(live, replayed, "seed {seed}: replayed metrics diverged");
            traces.push(text);
        }
        assert_eq!(
            traces[0], traces[1],
            "seed {seed}: churned trace is not deterministic"
        );
    }
}
