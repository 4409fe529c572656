//! Cross-crate invariant bundles shared by the property, regression, and
//! conformance suites.
//!
//! Every bundle drives the engine through
//! [`webmon_core::check::InvariantObserver`] as well as
//! the post-hoc re-evaluation checks, so each property case doubles as a
//! live conformance case.

use webmon_core::check::InvariantObserver;
use webmon_core::engine::{
    EngineConfig, MutationQueue, OnlineEngine, RunResult, ScriptedMutations,
};
use webmon_core::fault::{FaultConfig, FaultModel, NoFaults};
use webmon_core::model::{evaluate_schedule, Instance};
use webmon_core::policy::{MEdf, Mrsf, MrsfExact, Policy, SEdf, UtilityWeighted, Wic};

/// Runs `policy` under `config` with the invariant checker attached and
/// panics (with the violation report) on any divergence. Returns the run.
pub fn conformant_run(instance: &Instance, policy: &dyn Policy, config: EngineConfig) -> RunResult {
    let mut checker = InvariantObserver::new(instance, config);
    let run = OnlineEngine::run_observed(instance, policy, config, &mut checker);
    let report = checker.finish_with(&run);
    assert!(
        report.is_clean(),
        "{} under {}: {report}",
        policy.name(),
        config.label()
    );
    run
}

/// The fault-injected twin of [`conformant_run`]: drives the engine through
/// `faults` with a fault-aware invariant checker attached and panics on any
/// violation. Returns the run.
pub fn conformant_faulted_run<F: FaultModel>(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
    faults: &mut F,
    fault_config: FaultConfig,
) -> RunResult {
    let mut checker = InvariantObserver::new(instance, config).with_faults(fault_config);
    let run = OnlineEngine::run_driven(
        instance,
        policy,
        config,
        faults,
        fault_config,
        &mut ScriptedMutations::default(),
        &mut checker,
    );
    let report = checker.finish_with(&run);
    assert!(
        report.is_clean(),
        "{} under {} (faulted): {report}",
        policy.name(),
        config.label()
    );
    run
}

/// The churned twin of [`conformant_run`]: drains `mutations` through
/// [`OnlineEngine::run_driven`] with a churn-aware invariant checker
/// attached and panics on any violation. Returns the run.
pub fn conformant_churned_run(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
    mutations: &MutationQueue,
) -> RunResult {
    let mut checker = InvariantObserver::new(instance, config).with_mutations(mutations);
    let run = OnlineEngine::run_driven(
        instance,
        policy,
        config,
        &mut NoFaults,
        FaultConfig::default(),
        &mut ScriptedMutations::compile(mutations, instance.epoch.len(), instance.ceis.len()),
        &mut checker,
    );
    let report = checker.finish_with(&run);
    assert!(
        report.is_clean(),
        "{} under {} (churned): {report}",
        policy.name(),
        config.label()
    );
    run
}

/// The core-engine invariants (originally `properties.rs::engine_invariants`):
/// feasible schedules, complete resolution, agreement with a from-scratch
/// re-evaluation — plus a clean invariant-checker report — for every paper
/// policy in both execution modes.
pub fn assert_engine_invariants(instance: &Instance) {
    for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let run = conformant_run(instance, policy, config);
            assert!(run.schedule.is_feasible(&instance.budget));
            assert_eq!(
                run.stats.ceis_captured + run.stats.ceis_failed,
                run.stats.n_ceis
            );
            let reeval = evaluate_schedule(instance, &run.schedule);
            assert_eq!(run.stats.ceis_captured, reeval.ceis_captured);
            // Raw indicator counts EIs of failed CEIs too.
            assert!(run.stats.eis_captured <= reeval.eis_captured);
        }
    }
}

/// The extension-engine invariants (originally
/// `extension_properties.rs::engine_invariants_under_extensions`): the same
/// bundle under threshold semantics, utility weights, and probe costs.
pub fn assert_extension_invariants(instance: &Instance) {
    let u_mrsf = UtilityWeighted::new(Mrsf, "U-MRSF");
    for policy in [&SEdf as &dyn Policy, &Mrsf, &MrsfExact, &MEdf, &u_mrsf] {
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let run = conformant_run(instance, policy, config);
            assert!(run.schedule.is_feasible(&instance.budget) || !instance.costs.is_uniform());
            assert_eq!(
                run.stats.ceis_captured + run.stats.ceis_failed,
                run.stats.n_ceis
            );
            let reeval = evaluate_schedule(instance, &run.schedule);
            assert_eq!(run.stats.ceis_captured, reeval.ceis_captured);
            assert!(run.stats.weight_captured <= run.stats.weight_total + 1e-9);
            assert!(run.stats.weighted_completeness() - 1.0 < 1e-9);
        }
    }
}
