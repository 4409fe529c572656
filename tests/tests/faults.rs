//! Fault-injection integration suite:
//!
//! 1. **Zero-fault equivalence** — `run_driven` at failure rate 0 is
//!    bit-identical (stats, outcomes, schedule, `RunMetrics`, JSONL trace
//!    bytes) to the pre-existing `run_observed`, and stays so for any
//!    worker count.
//! 2. **Faulted conformance** — the fixed corpus passes the fault-aware
//!    `InvariantObserver` with zero violations under i.i.d. losses, bursty
//!    outages, and rate limits, across retry disciplines.
//! 3. **Degradation monotonicity** — corpus-aggregate captured CEIs are
//!    non-increasing in the i.i.d. failure rate (the shipped model draws
//!    failure sets nested in the rate for a fixed seed).
//! 4. **Model determinism properties** — Gilbert–Elliott outage traces
//!    regenerate exactly from `(seed, params)` and agree with a live
//!    stepped model; i.i.d. failure sets are nested across rates.

use proptest::prelude::*;
use webmon_core::engine::{EngineConfig, OnlineEngine, RunResult, ScriptedMutations};
use webmon_core::fault::{Backoff, FaultConfig, GilbertElliott, IidFaults, RateLimit};
use webmon_core::model::{Instance, ResourceId};
use webmon_core::obs::{
    replay_events, replay_metrics, Event, JsonlTraceObserver, MetricsObserver, RunMetrics, Tee,
};
use webmon_core::policy::{MEdf, Mrsf, Policy, SEdf, Wic};
use webmon_sim::parallel::par_map_with;
use webmon_testkit::checks::conformant_faulted_run;
use webmon_testkit::corpus::{conformance_cases, small_instance, BASE_CASES};

/// Calls `f` with the `idx`-th paper policy (S-EDF, MRSF, M-EDF, WIC).
fn with_policy<R>(idx: usize, f: impl FnOnce(&dyn Policy) -> R) -> R {
    let wic = Wic::paper();
    let policy: &dyn Policy = match idx {
        0 => &SEdf,
        1 => &Mrsf,
        2 => &MEdf,
        _ => &wic,
    };
    f(policy)
}

/// One observed run: metrics, serialized trace bytes, and the result.
fn observed(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
) -> (RunMetrics, Vec<u8>, RunResult) {
    let mut tee = Tee(MetricsObserver::new(), JsonlTraceObserver::new(Vec::new()));
    let run = OnlineEngine::run_observed(instance, policy, config, &mut tee);
    let Tee(metrics, trace) = tee;
    (metrics.finish(), trace.finish().expect("Vec<u8> sink"), run)
}

/// The same run through `run_driven` with a rate-0 i.i.d. model.
fn zero_faulted(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
    seed: u64,
) -> (RunMetrics, Vec<u8>, RunResult) {
    let mut model = IidFaults::new(0.0, seed);
    let mut tee = Tee(MetricsObserver::new(), JsonlTraceObserver::new(Vec::new()));
    let run = OnlineEngine::run_driven(
        instance,
        policy,
        config,
        &mut model,
        FaultConfig::default(),
        &mut ScriptedMutations::default(),
        &mut tee,
    );
    let Tee(metrics, trace) = tee;
    (metrics.finish(), trace.finish().expect("Vec<u8> sink"), run)
}

/// Satellite 2 (core half): at failure rate 0 the faulted engine is the
/// fault-free engine — same schedule, stats, outcomes, metrics, and
/// byte-identical JSONL trace — for every paper policy in both modes.
#[test]
fn zero_fault_runs_are_bit_identical_to_fault_free_runs() {
    for seed in 0..48 {
        let instance = small_instance(seed, true);
        for p in 0..4 {
            with_policy(p, |policy| {
                for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                    let (base_m, base_t, base_r) = observed(&instance, policy, config);
                    let (fault_m, fault_t, fault_r) = zero_faulted(&instance, policy, config, seed);
                    let label = format!("seed {seed}, {} under {}", policy.name(), config.label());
                    assert_eq!(base_r.schedule, fault_r.schedule, "{label}: schedule");
                    assert_eq!(base_r.stats, fault_r.stats, "{label}: stats");
                    assert_eq!(base_r.outcomes, fault_r.outcomes, "{label}: outcomes");
                    assert_eq!(base_m, fault_m, "{label}: metrics");
                    assert_eq!(base_t, fault_t, "{label}: trace bytes");
                }
            });
        }
    }
}

/// Satellite 2 (parallel half): the zero-fault identity holds for any
/// worker count — 1 worker and 4 workers produce the *same bytes* as the
/// serial fault-free baseline for the whole (policy × mode) grid.
#[test]
fn zero_fault_identity_is_worker_count_invariant() {
    let grid: Vec<(u64, usize, bool)> = (0..12u64)
        .flat_map(|seed| (0..4usize).flat_map(move |p| [(seed, p, true), (seed, p, false)]))
        .collect();
    let baseline: Vec<(RunMetrics, Vec<u8>)> = grid
        .iter()
        .map(|&(seed, p, pre)| {
            let config = if pre {
                EngineConfig::preemptive()
            } else {
                EngineConfig::non_preemptive()
            };
            with_policy(p, |policy| {
                let (m, t, _) = observed(&small_instance(seed, true), policy, config);
                (m, t)
            })
        })
        .collect();
    for jobs in [1, 4] {
        let got = par_map_with(jobs, grid.clone(), |_, (seed, p, pre)| {
            let config = if pre {
                EngineConfig::preemptive()
            } else {
                EngineConfig::non_preemptive()
            };
            with_policy(p, |policy| {
                let (m, t, _) = zero_faulted(&small_instance(seed, true), policy, config, seed);
                (m, t)
            })
        });
        assert_eq!(
            got, baseline,
            "jobs {jobs} diverged from the serial fault-free baseline"
        );
    }
}

/// Satellite 4: the whole fixed corpus (extended by
/// `WEBMON_CONFORMANCE_CASES` in CI) passes the fault-aware invariant
/// checker with zero violations — cycling fault models (i.i.d., bursty,
/// rate-limit) and retry disciplines (charged immediate, free backoff,
/// charged quota) across cases.
#[test]
fn faulted_corpus_passes_the_invariant_checker() {
    for seed in 0..conformance_cases() {
        let instance = small_instance(seed, true);
        let n_res = instance.n_resources as usize;
        let fault_config = match seed % 3 {
            0 => FaultConfig::default(),
            1 => FaultConfig::default()
                .free_failures()
                .with_backoff(Backoff::new(1, 4)),
            _ => FaultConfig::default().with_retry_quota(1),
        };
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            match seed % 3 {
                0 => {
                    let mut model = IidFaults::new(0.4, seed);
                    conformant_faulted_run(&instance, &Mrsf, config, &mut model, fault_config);
                }
                1 => {
                    let mut model = GilbertElliott::new(0.3, 0.4, seed, n_res);
                    conformant_faulted_run(&instance, &Mrsf, config, &mut model, fault_config);
                }
                _ => {
                    let mut model = RateLimit::new(3, 1, n_res);
                    conformant_faulted_run(&instance, &Mrsf, config, &mut model, fault_config);
                }
            }
        }
    }
}

/// Faulted traces are lossless transcripts too: folding the persisted JSONL
/// trace of a fault-injected run back through a fresh `MetricsObserver`
/// reproduces the live metrics byte for byte, and across the scenario mix
/// every fault event kind (`ProbeFailed`, `ProbeRetried`, `ResourceDown`,
/// `ResourceUp`, `CeiShed`) appears in at least one trace.
#[test]
fn faulted_trace_replay_reproduces_run_metrics_byte_for_byte() {
    let mut seen = [false; 5]; // failed, retried, down, up, shed
    for seed in 0..24 {
        let instance = small_instance(seed, true);
        let n_res = instance.n_resources as usize;
        let (fault_config, scenario): (FaultConfig, &str) = match seed % 3 {
            0 => (
                FaultConfig::default().with_backoff(Backoff::new(1, 4)),
                "iid",
            ),
            1 => (FaultConfig::default().free_failures(), "burst"),
            _ => (FaultConfig::default().with_retry_quota(1), "ratelimit"),
        };
        let mut tee = Tee(MetricsObserver::new(), JsonlTraceObserver::new(Vec::new()));
        let config = EngineConfig::preemptive();
        match scenario {
            "iid" => {
                let mut model = IidFaults::new(0.5, seed);
                OnlineEngine::run_driven(
                    &instance,
                    &Mrsf,
                    config,
                    &mut model,
                    fault_config,
                    &mut ScriptedMutations::default(),
                    &mut tee,
                );
            }
            "burst" => {
                let mut model = GilbertElliott::new(0.3, 0.4, seed, n_res);
                OnlineEngine::run_driven(
                    &instance,
                    &Mrsf,
                    config,
                    &mut model,
                    fault_config,
                    &mut ScriptedMutations::default(),
                    &mut tee,
                );
            }
            _ => {
                let mut model = RateLimit::new(3, 1, n_res);
                OnlineEngine::run_driven(
                    &instance,
                    &Mrsf,
                    config,
                    &mut model,
                    fault_config,
                    &mut ScriptedMutations::default(),
                    &mut tee,
                );
            }
        }
        let Tee(metrics, trace) = tee;
        let live = metrics.finish();
        let text = String::from_utf8(trace.finish().expect("Vec<u8> sink")).unwrap();
        let replayed = replay_metrics(&text)
            .unwrap_or_else(|e| panic!("seed {seed} ({scenario}): trace failed to replay: {e}"));
        assert_eq!(
            live, replayed,
            "seed {seed} ({scenario}): replayed metrics diverged"
        );
        assert_eq!(
            serde_json::to_string(&live).unwrap(),
            serde_json::to_string(&replayed).unwrap(),
            "seed {seed} ({scenario}): serialized metrics diverged"
        );
        for event in replay_events(&text).unwrap() {
            match event {
                Event::ProbeFailed { .. } => seen[0] = true,
                Event::ProbeRetried { .. } => seen[1] = true,
                Event::ResourceDown { .. } => seen[2] = true,
                Event::ResourceUp { .. } => seen[3] = true,
                Event::CeiShed { .. } => seen[4] = true,
                _ => {}
            }
        }
    }
    assert_eq!(
        seen, [true; 5],
        "some fault event kind never appeared (failed/retried/down/up/shed): {seen:?}"
    );
}

/// Satellite 3a: corpus-aggregate captured CEIs are non-increasing in the
/// i.i.d. failure rate. The shipped model keys each failure draw by
/// `(seed, t, resource, attempt)` and compares it against the rate, so the
/// failure sets at a fixed seed are nested across rates.
#[test]
fn corpus_aggregate_completeness_degrades_with_failure_rate() {
    let rates = [0.0, 0.3, 0.7, 0.95];
    let totals: Vec<u64> = rates
        .iter()
        .map(|&rate| {
            (0..BASE_CASES)
                .map(|seed| {
                    let instance = small_instance(seed, true);
                    let mut model = IidFaults::new(rate, 0xFA);
                    OnlineEngine::run_driven(
                        &instance,
                        &Mrsf,
                        EngineConfig::preemptive(),
                        &mut model,
                        FaultConfig::default(),
                        &mut ScriptedMutations::default(),
                        &mut webmon_core::obs::NoopObserver,
                    )
                    .stats
                    .ceis_captured
                })
                .sum()
        })
        .collect();
    for (w, pair) in totals.windows(2).enumerate() {
        assert!(
            pair[1] <= pair[0],
            "aggregate captures rose from {} to {} between rates {} and {} ({totals:?})",
            pair[0],
            pair[1],
            rates[w],
            rates[w + 1]
        );
    }
    assert!(
        totals[0] > totals[rates.len() - 1],
        "95% loss did not reduce corpus-aggregate captures at all: {totals:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite 3b: a Gilbert–Elliott outage trace is a pure function of
    /// `(seed, params)` — an identically-built model regenerates it
    /// exactly, and a live model stepped chronon by chronon reports
    /// `down_until = Some(t)` at precisely the trace's down chronons.
    #[test]
    fn gilbert_elliott_traces_regenerate_from_seed_and_params(
        p_fail in 0.05f64..0.95,
        p_recover in 0.05f64..0.95,
        seed in any::<u64>(),
        n_res in 1usize..5,
        horizon in 1u32..64,
    ) {
        let a = GilbertElliott::new(p_fail, p_recover, seed, n_res);
        let b = GilbertElliott::new(p_fail, p_recover, seed, n_res);
        let traces: Vec<Vec<bool>> = (0..n_res)
            .map(|r| a.outage_trace(ResourceId(r as u32), horizon))
            .collect();
        for (r, trace) in traces.iter().enumerate() {
            prop_assert_eq!(
                trace,
                &b.outage_trace(ResourceId(r as u32), horizon),
                "rebuilt model diverged on resource {}", r
            );
        }
        // A live model agrees with the precomputed traces at every chronon.
        let mut live = GilbertElliott::new(p_fail, p_recover, seed, n_res);
        use webmon_core::fault::FaultModel;
        for t in 0..horizon {
            live.begin_chronon(t);
            for (r, trace) in traces.iter().enumerate() {
                let down = live.down_until(ResourceId(r as u32)).is_some();
                prop_assert_eq!(
                    down, trace[t as usize],
                    "resource {} at chronon {}: live {} vs trace {}",
                    r, t, down, trace[t as usize]
                );
            }
        }
    }

    /// The i.i.d. model's failure sets are nested across rates for a fixed
    /// seed: any probe that fails at a lower rate also fails at any higher
    /// rate — the mechanism behind the monotone degradation curves.
    #[test]
    fn iid_failure_sets_are_nested_in_the_rate(
        lo in 0.0f64..1.0,
        hi in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        use webmon_core::fault::FaultModel;
        let mut at_lo = IidFaults::new(lo, seed);
        let mut at_hi = IidFaults::new(hi, seed);
        for t in 0..32u32 {
            for r in 0..4u32 {
                for attempt in 0..3u32 {
                    let fails_lo = !at_lo.probe_succeeds(t, ResourceId(r), attempt);
                    let fails_hi = !at_hi.probe_succeeds(t, ResourceId(r), attempt);
                    prop_assert!(
                        !fails_lo || fails_hi,
                        "probe (t={}, r={}, a={}) fails at rate {} but not at {}",
                        t, r, attempt, lo, hi
                    );
                }
            }
        }
    }
}
