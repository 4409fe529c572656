//! Property-based tests for the §III/§VII extension semantics: thresholds,
//! utility weights, and probe costs must preserve the engine's invariants
//! and stay dominated by the exact optimum.
//!
//! Generators and the spec→instance builder live in
//! `webmon_testkit::strategies` (shared with `regressions.rs`, which pins
//! this file's shrunk counterexamples deterministically).

use proptest::prelude::*;
use webmon_core::engine::{EngineConfig, OnlineEngine};
use webmon_core::model::evaluate_schedule;
use webmon_core::offline::{optimal_schedule, SearchLimits};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf};
use webmon_testkit::checks::assert_extension_invariants;
use webmon_testkit::strategies::{extension_cei_strategy, extension_instance};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Threshold + weighted instances uphold the core engine invariants —
    /// including a clean conformance-checker report per run.
    #[test]
    fn engine_invariants_under_extensions(
        specs in prop::collection::vec(extension_cei_strategy(), 1..=8),
        budget in 0..=2u32,
        costs in any::<bool>(),
    ) {
        let instance = extension_instance(&specs, budget, costs);
        assert_extension_invariants(&instance);
    }

    /// Incremental-vs-scan equivalence holds under the extension semantics
    /// too.
    #[test]
    fn incremental_equals_scan_under_extensions(
        specs in prop::collection::vec(extension_cei_strategy(), 1..=8),
        costs in any::<bool>(),
    ) {
        let instance = extension_instance(&specs, 2, costs);
        for policy in [&Mrsf as &dyn Policy, &MEdf] {
            let scan = OnlineEngine::run(
                &instance,
                policy,
                EngineConfig::preemptive().with_scan(),
            );
            let incremental = OnlineEngine::run(&instance, policy, EngineConfig::preemptive());
            prop_assert_eq!(&scan.schedule, &incremental.schedule);
            prop_assert_eq!(scan.stats, incremental.stats);
        }
    }

    /// The exact optimum (which understands thresholds) dominates every
    /// online policy on threshold instances.
    #[test]
    fn optimum_dominates_online_under_thresholds(
        specs in prop::collection::vec(extension_cei_strategy(), 1..=5),
    ) {
        let instance = extension_instance(&specs, 1, false);
        if let Ok((_, opt)) = optimal_schedule(&instance, SearchLimits { max_nodes: 200_000 }) {
            for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf] {
                let run = OnlineEngine::run(&instance, policy, EngineConfig::preemptive());
                prop_assert!(
                    run.stats.ceis_captured <= opt.ceis_captured,
                    "{} captured {} > optimum {}",
                    policy.name(),
                    run.stats.ceis_captured,
                    opt.ceis_captured
                );
            }
        }
    }

    /// Lowering the threshold never lowers completeness (relaxation
    /// monotonicity) for the threshold-aware policies on the same schedule
    /// evaluation.
    #[test]
    fn threshold_relaxation_helps_evaluation(
        specs in prop::collection::vec(extension_cei_strategy(), 1..=8),
    ) {
        let strict = extension_instance(
            &specs.iter().map(|(e, _, w)| (e.clone(), 100u8, *w)).collect::<Vec<_>>(),
            1,
            false,
        );
        let relaxed = extension_instance(&specs, 1, false);
        // Same schedule (produced against the strict instance), evaluated
        // under both semantics: the relaxed semantics can only capture more.
        let run = OnlineEngine::run(&strict, &Mrsf, EngineConfig::preemptive());
        let strict_eval = evaluate_schedule(&strict, &run.schedule);
        let relaxed_eval = evaluate_schedule(&relaxed, &run.schedule);
        prop_assert!(relaxed_eval.ceis_captured >= strict_eval.ceis_captured);
    }
}
