//! Deterministic regression tests pinning the shrunk counterexamples that
//! were once stored in the two `*.proptest-regressions` files, plus the
//! engine-vs-re-evaluation outcome agreement those shrinks originally
//! violated.
//!
//! The property tests sample fresh instances each run (the vendored
//! proptest does not replay regression files), so these tests replay the
//! historical failures exactly — they keep guarding the fixes even if the
//! sampler never revisits the same corner, and they survive generator
//! refactors because each case is spelled out as a literal spec. The
//! builders are shared with the live generators via
//! `webmon_testkit::strategies`, so a spec here is constructed precisely
//! the way the original generated case was.

use webmon_core::engine::{EngineConfig, OnlineEngine};
use webmon_core::model::{evaluate_outcomes, Budget, Instance, InstanceBuilder};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf, Wic};
use webmon_core::stats::CeiOutcome;
use webmon_testkit::checks::{assert_engine_invariants, assert_extension_invariants};
use webmon_testkit::strategies::extension_instance;

/// `properties.proptest-regressions` (cc 5df6c7…): one rank-2 CEI released at
/// 3 with two single-chronon EIs on distinct resources, both windowed to
/// exactly chronon 3, under a budget of `c` probes per chronon.
///
/// Invariant it broke: the engine recorded the CEI *captured* while its
/// schedule re-evaluation said *failed* — probing one of two simultaneous
/// single-chronon deadlines must fail the CEI, consistently in both the
/// live bookkeeping and `evaluate_schedule`.
fn properties_shrunk_instance(budget: u32) -> Instance {
    let mut b = InstanceBuilder::new(5, 40, Budget::Uniform(budget));
    let p = b.profile();
    b.cei_released(p, 3, &[(0, 3, 3), (1, 3, 3)]);
    b.build()
}

#[test]
fn shrunk_rank2_simultaneous_deadline_instance() {
    for budget in [1, 2] {
        assert_engine_invariants(&properties_shrunk_instance(budget));
    }
    // Scan and the default incremental selector must take the same
    // tie-break when both EIs carry identical scores at chronon 3.
    let instance = properties_shrunk_instance(1);
    for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
        for base in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let scan = OnlineEngine::run(&instance, policy, base.with_scan());
            let incremental = OnlineEngine::run(&instance, policy, base);
            assert_eq!(scan.schedule, incremental.schedule);
            assert_eq!(scan.stats, incremental.stats);
        }
    }
    // Budget 1 cannot satisfy two simultaneous single-chronon windows;
    // budget 2 captures both with probes at chronon 3.
    let one = OnlineEngine::run(
        &properties_shrunk_instance(1),
        &Mrsf,
        EngineConfig::preemptive(),
    );
    let two = OnlineEngine::run(
        &properties_shrunk_instance(2),
        &Mrsf,
        EngineConfig::preemptive(),
    );
    assert_eq!(one.stats.ceis_captured, 0);
    assert_eq!(one.outcomes[0], CeiOutcome::Failed { at: 3 });
    assert_eq!(two.stats.ceis_captured, 1);
    assert_eq!(two.outcomes[0], CeiOutcome::Captured { at: 3 });
}

/// `extension_properties.proptest-regressions` (cc 8ba050…): two EIs of one
/// 1-of-2 threshold CEI overlap on resource 0, so a single shared probe can
/// capture both EIs at once, while two more CEIs contend for the single
/// probe per chronon.
///
/// Invariant it broke: with intra-resource sharing, one probe crossing the
/// threshold via *two* simultaneous captures double-counted the CEI in the
/// capture bookkeeping (`ceis_captured` disagreed with re-evaluation).
#[test]
fn shrunk_threshold_overlap_instance() {
    let instance = extension_instance(
        &[
            (vec![(0, 9, 10), (0, 8, 10)], 1, 1.0),
            (vec![(0, 0, 0)], 1, 1.0),
            (vec![(1, 8, 8)], 1, 1.0),
        ],
        1,
        false,
    );
    assert_extension_invariants(&instance);
}

/// `extension_properties.proptest-regressions` (cc 69520a…): a 1-of-2
/// threshold CEI whose EIs are *identical* single-chronon windows.
///
/// Invariant it broke: one probe at chronon 14 captures both EIs
/// simultaneously and must record the CEI captured exactly once — the
/// shrink exposed a completion being counted per captured EI instead of
/// per threshold crossing.
#[test]
fn shrunk_identical_single_chronon_pair_instance() {
    let instance = extension_instance(&[(vec![(0, 14, 14), (0, 14, 14)], 1, 1.0)], 1, false);
    assert_extension_invariants(&instance);
    let run = OnlineEngine::run(&instance, &Mrsf, EngineConfig::preemptive());
    assert_eq!(run.stats.ceis_captured, 1);
    assert_eq!(run.stats.eis_captured, 2);
    assert_eq!(run.outcomes[0], CeiOutcome::Captured { at: 14 });
}

/// On clean (noise-free) runs the engine's per-CEI outcomes and a
/// from-scratch re-evaluation of its schedule must agree exactly —
/// including the `at` chronons, which `evaluate_schedule` used to get
/// wrong (it reported window ends for captures and the earliest deadline
/// over *all* EIs, captured or not, for failures).
#[test]
fn engine_outcomes_match_reevaluation_on_clean_runs() {
    let instances = vec![
        properties_shrunk_instance(1),
        properties_shrunk_instance(2),
        extension_instance(
            &[
                (vec![(0, 9, 10), (0, 8, 10)], 1, 1.0),
                (vec![(0, 0, 0)], 1, 1.0),
                (vec![(1, 8, 8)], 1, 1.0),
            ],
            1,
            false,
        ),
        extension_instance(&[(vec![(0, 14, 14), (0, 14, 14)], 1, 1.0)], 1, false),
        // A denser mixed instance: staggered windows, a threshold CEI, and
        // a CEI whose earliest-deadline EI is captured while a later one
        // fails (the exact shape the old `Failed { at }` got wrong).
        {
            let mut b = InstanceBuilder::new(4, 24, Budget::Uniform(1));
            let p = b.profile();
            b.cei(p, &[(0, 0, 4)]);
            b.cei(p, &[(1, 0, 2), (2, 10, 12)]);
            b.cei(p, &[(0, 6, 9), (1, 6, 9), (3, 7, 9)]);
            b.cei_threshold(p, 2, &[(0, 12, 15), (1, 12, 15), (2, 14, 17)]);
            b.cei(p, &[(3, 18, 18), (2, 18, 20)]);
            b.build()
        },
    ];
    for instance in &instances {
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
            for config in [
                EngineConfig::preemptive(),
                EngineConfig::non_preemptive(),
                EngineConfig::preemptive().with_scan(),
            ] {
                let run = OnlineEngine::run(instance, policy, config);
                let reeval = evaluate_outcomes(instance, &run.schedule);
                assert_eq!(
                    run.outcomes,
                    reeval,
                    "outcomes diverged for {} under {}",
                    policy.name(),
                    config.label()
                );
            }
        }
    }
}
