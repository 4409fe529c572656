//! Property-based tests over randomly generated problem instances: the
//! engine and the offline baselines must uphold their invariants on *any*
//! well-formed input, not just the workloads the generators produce.
//!
//! Generators live in `webmon_testkit::strategies`; the invariant bundles
//! (which also drive every run through the conformance checker) live in
//! `webmon_testkit::checks`.

use proptest::prelude::*;
use webmon_core::engine::{EngineConfig, OnlineEngine};
use webmon_core::offline::{local_ratio_schedule, LocalRatioConfig};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf, Wic};
use webmon_testkit::checks::assert_engine_invariants;
use webmon_testkit::strategies::{core_instance_strategy, rebuild_with_budget};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The engine's schedule is always budget-feasible, its bookkeeping
    /// matches a from-scratch re-evaluation, every CEI resolves, and the
    /// live invariant checker stays clean.
    #[test]
    fn engine_invariants(instance in core_instance_strategy()) {
        assert_engine_invariants(&instance);
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let run = OnlineEngine::run(&instance, policy, config);
                prop_assert!(run.stats.eis_captured >= run.stats.probes_used
                    || instance.budget.at(0) == 0);
            }
        }
    }

    /// More budget cannot *collapse* a deterministic policy's completeness
    /// (same instance, budgets 1 vs 2).
    ///
    /// Strict monotonicity (`two >= one`) is NOT an engine invariant:
    /// a larger budget changes which CEIs the greedy policy commits probes
    /// to, and the reshuffled commitments can finish one CEI worse. A
    /// 50k-instance stress of this generator found strict violations at a
    /// rate of ~1/10k cases, every one of them off by exactly one CEI.
    /// A *collapse* (losing more than a third) was never observed and
    /// would indicate an engine bug rather than greedy pathology, so that
    /// is the bound this property pins.
    #[test]
    fn budget_monotonicity(instance in core_instance_strategy()) {
        let one = OnlineEngine::run(
            &rebuild_with_budget(&instance, 1),
            &Mrsf,
            EngineConfig::preemptive(),
        );
        let two = OnlineEngine::run(
            &rebuild_with_budget(&instance, 2),
            &Mrsf,
            EngineConfig::preemptive(),
        );
        prop_assert!(
            3 * two.stats.ceis_captured + 1 >= 2 * one.stats.ceis_captured,
            "budget 2 captured {} vs budget 1 {}",
            two.stats.ceis_captured,
            one.stats.ceis_captured
        );
    }

    /// The Local-Ratio baseline always emits feasible schedules and never
    /// reports captures the schedule cannot justify.
    #[test]
    fn local_ratio_invariants(instance in core_instance_strategy()) {
        use webmon_core::model::evaluate_schedule;
        for cfg in [LocalRatioConfig::default(), LocalRatioConfig::paper()] {
            if let Ok(out) = local_ratio_schedule(&instance, cfg) {
                prop_assert!(out.schedule.is_feasible(&instance.budget));
                let reeval = evaluate_schedule(&instance, &out.schedule);
                prop_assert_eq!(out.stats.ceis_captured, reeval.ceis_captured);
                // Every selected original CEI is genuinely captured.
                prop_assert!(out.selected.len() as u64 <= out.stats.ceis_captured);
            }
        }
    }

    /// The default incremental selector is decision-for-decision
    /// equivalent to the reference scan on arbitrary instances.
    #[test]
    fn incremental_equals_scan(instance in core_instance_strategy()) {
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
            for base in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let scan = OnlineEngine::run(&instance, policy, base.with_scan());
                let incremental = OnlineEngine::run(&instance, policy, base);
                prop_assert_eq!(&scan.schedule, &incremental.schedule);
                prop_assert_eq!(scan.stats, incremental.stats);
            }
        }
    }

    /// Probe sharing can only help: the ablated engine never beats the
    /// paper's R_ids engine on the same instance and policy.
    #[test]
    fn probe_sharing_dominates_ablation(instance in core_instance_strategy()) {
        let on = OnlineEngine::run(&instance, &Mrsf, EngineConfig::preemptive());
        let off = OnlineEngine::run(
            &instance,
            &Mrsf,
            EngineConfig::preemptive().without_probe_sharing(),
        );
        // Sharing captures a superset of EIs per probe; tie-breaking can
        // still shuffle which CEIs complete, so allow a one-CEI slack.
        prop_assert!(
            on.stats.eis_captured + 1 >= off.stats.eis_captured,
            "sharing on captured {} EIs vs off {}",
            on.stats.eis_captured,
            off.stats.eis_captured
        );
    }
}
