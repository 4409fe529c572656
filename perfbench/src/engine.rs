//! The engine workloads: `OnlineEngine` on a generated instance, repeated
//! for the run's duration.

use crate::calibrate::{self, HostSpeed};
use crate::layers::{
    FaultTally, MutationTally, Spans, Tally, TimedFaults, TimedMutations, TimedPolicy,
};
use crate::metrics::{self, Layers};
use crate::report::{peak_rss_mb, Report};
use crate::setup::{self, derive_seed, Inputs, Shape};
use crate::stats::{median, p50_and_tail, tail_percentile, Latency};
use crate::Args;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;
use webmon_core::check::InvariantObserver;
use webmon_core::engine::{
    EngineConfig, MutationQueue, MutationSource, OnlineEngine, RunResult, ScriptedMutations,
};
use webmon_core::fault::{Backoff, FaultConfig, FaultModel, IidFaults, NoFaults};
use webmon_core::model::Instance;
use webmon_core::obs::{Event, Observer};
use webmon_core::policy::{Mrsf, Policy};
use webmon_workload::ChurnConfig;

/// Kernel runs per host-speed sample (their median is the sample).
const KERNELS: usize = 3;

/// Timed engine calls per instance at least, however short `--seconds` is.
const MIN_CALLS: usize = 2;

pub struct EngineWorkload {
    pub shape: Shape,
    /// Instances per run (`webmon run`'s repetitions 0..n of the seed):
    /// one instance's figures move with the seed by more than the bounds
    /// allow, their mean does not.
    pub instances: usize,
    pub preemptive: bool,
    /// i.i.d. probe-failure rate, retried with backoff and charged.
    pub fault_rate: Option<f64>,
    pub churn: Option<ChurnConfig>,
}

/// ~10⁵ CEIs competing for one probe per chronon under MRSF(P): the
/// per-probe re-scoring of the live pool dominates.
pub const OVERLOAD: EngineWorkload = EngineWorkload {
    shape: Shape {
        profiles: 5500,
        horizon: 300,
        budget: 1,
        lambda: 20.0,
    },
    instances: 16,
    preemptive: true,
    fault_rate: None,
    churn: None,
};

/// The same engine and policy used write-heavy: MRSF(NP) under iid probe
/// faults with backoff and a churn overlay.
pub const CHURN_FAULTS: EngineWorkload = EngineWorkload {
    shape: Shape {
        profiles: 2000,
        horizon: 300,
        budget: 4,
        lambda: 20.0,
    },
    instances: 48,
    preemptive: false,
    fault_rate: Some(0.2),
    churn: Some(ChurnConfig {
        arrival_rate: 0.3,
        cancel_rate: 0.2,
        resource_alpha: 0.3,
        max_delay: 4,
        reconfigurations: 4,
    }),
};

impl EngineWorkload {
    /// The engine's default configuration in the workload's mode.
    fn config(&self) -> EngineConfig {
        if self.preemptive {
            EngineConfig::preemptive()
        } else {
            EngineConfig::non_preemptive()
        }
    }

    fn fault_config(&self) -> FaultConfig {
        match self.fault_rate {
            Some(_) => FaultConfig::charged().with_backoff(Backoff::new(1, 8)),
            None => FaultConfig::default(),
        }
    }

    fn inputs(&self, seed: u64, rep: u64) -> Inputs {
        match self.churn {
            Some(churn) => {
                setup::generate(self.shape, seed, rep, setup::churn_script(churn, seed, rep))
            }
            None => setup::generate(self.shape, seed, rep, |_| MutationQueue::new()),
        }
    }
}

pub fn run(w: &EngineWorkload, args: &Args, host: &mut HostSpeed) -> Report {
    match w.fault_rate {
        None => measure(w, args, host, |_| NoFaults),
        Some(rate) => {
            let seed = derive_seed(args.seed, "faults");
            measure(w, args, host, move |rep| {
                IidFaults::new(rate, seed.wrapping_add(rep))
            })
        }
    }
}

/// The benchmark's one call into the engine.
#[allow(clippy::too_many_arguments)]
fn run_engine<F: FaultModel, M: MutationSource, O: Observer>(
    instance: &Instance,
    policy: &dyn Policy,
    config: EngineConfig,
    faults: &mut F,
    fault_config: FaultConfig,
    mutations: &mut M,
    observer: &mut O,
) -> RunResult {
    OnlineEngine::run_driven(
        instance,
        policy,
        config,
        faults,
        fault_config,
        mutations,
        observer,
    )
}

/// Stamps chronon starts and ends. `enabled()` is false, so the engine
/// skips the accounting it does only for observers (candidate-pool sizes,
/// probe events) while start and end events still arrive.
struct Stamps {
    call: Instant,
    starts: Vec<Instant>,
    ends: Vec<Instant>,
}

impl Stamps {
    fn new(horizon: usize) -> Self {
        Stamps {
            call: Instant::now(),
            starts: Vec::with_capacity(horizon),
            ends: Vec::with_capacity(horizon),
        }
    }

    fn stamp(&mut self, event: &Event) {
        match event {
            Event::ChrononStart { .. } => self.starts.push(Instant::now()),
            Event::ChrononEnd { .. } => self.ends.push(Instant::now()),
            _ => {}
        }
    }

    /// Per chronon: start to end, in µs.
    fn chronon_us(&self) -> Vec<f64> {
        self.starts
            .iter()
            .zip(&self.ends)
            .map(|(s, e)| (*e - *s).as_secs_f64() * 1e6)
            .collect()
    }

    /// Per chronon: from when it became due until its end was delivered,
    /// in µs. A free-running engine makes chronon `t` due when it delivered
    /// chronon `t − 1`, and chronon 0 when it was called.
    fn delivery_us(&self) -> Vec<f64> {
        let mut due = self.call;
        self.ends
            .iter()
            .map(|&end| {
                let d = (end - due).as_secs_f64() * 1e6;
                due = end;
                d
            })
            .collect()
    }
}

impl Observer for Stamps {
    fn on_event(&mut self, event: Event) {
        self.stamp(&event);
    }

    fn enabled(&self) -> bool {
        false
    }
}

/// Counts of one traced engine call; they repeat exactly across calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counts {
    pool_sum: u64,
    pool_samples: u64,
    probes: u64,
    probes_failed: u64,
    captures: u64,
    expired: u64,
    shed: u64,
    score_calls: u64,
    attempts: u64,
    failures: u64,
    retries: u64,
    drained: u64,
    registered: u64,
    cancelled: u64,
}

/// The traced run's observer: `enabled()` is true, so candidate-set and
/// probe events arrive too. At each chronon end it folds the wrappers'
/// calls during the chronon into one child span per layer.
struct Tracer<'a> {
    stamps: Stamps,
    spans: &'a mut Spans,
    run_span: u64,
    score: Arc<Tally>,
    faults: Arc<FaultTally>,
    mutations: Arc<MutationTally>,
    /// Wrapper tallies at the open chronon's start: (calls, nanos) each.
    at_start: [(u64, u64); 3],
    counts: Counts,
}

impl Tracer<'_> {
    fn tallies(&self) -> [&Tally; 3] {
        [&self.score, &self.faults.probe, &self.mutations.drain]
    }

    fn read(&self) -> [(u64, u64); 3] {
        self.tallies()
            .map(|t| (t.calls.load(Relaxed), t.nanos.load(Relaxed)))
    }
}

impl Observer for Tracer<'_> {
    fn on_event(&mut self, event: Event) {
        self.stamps.stamp(&event);
        let c = &mut self.counts;
        match event {
            Event::ChrononStart { .. } => self.at_start = self.read(),
            Event::CandidateSet { size, .. } => {
                c.pool_sum += u64::from(size);
                c.pool_samples += 1;
            }
            Event::ProbeIssued { .. } => c.probes += 1,
            Event::ProbeFailed { .. } => c.probes_failed += 1,
            Event::EiCaptured { .. } => c.captures += 1,
            Event::CeiExpired { .. } => c.expired += 1,
            Event::CeiShed { .. } => c.shed += 1,
            Event::ChrononEnd { t, .. } => {
                let start = *self.stamps.starts.last().expect("chronon started");
                let end = *self.stamps.ends.last().expect("chronon ended");
                let chronon = self.spans.record(
                    "engine.chronon",
                    self.run_span,
                    u64::from(t),
                    (start, end),
                    1,
                );
                let now = self.read();
                for (i, name) in ["policy.score", "fault.probe", "mutation.drain"]
                    .into_iter()
                    .enumerate()
                {
                    let calls = now[i].0 - self.at_start[i].0;
                    if calls == 0 {
                        continue;
                    }
                    let mut nanos = now[i].1 - self.at_start[i].1;
                    if i == 0 {
                        nanos *= crate::layers::SCORE_SAMPLE;
                    }
                    let busy = start + std::time::Duration::from_nanos(nanos);
                    self.spans
                        .record(name, chronon, u64::from(t), (start, busy), calls);
                }
            }
            _ => {}
        }
    }

    fn enabled(&self) -> bool {
        true
    }
}

/// Figures of one engine call.
struct Call {
    wall_s: f64,
    /// Per-call median and tail of chronon start→end, in µs.
    chronon: (f64, f64),
    delivery: (f64, f64),
}

impl Call {
    fn new(wall_s: f64, stamps: &Stamps) -> Call {
        Call {
            wall_s,
            chronon: p50_and_tail(&stamps.chronon_us()),
            delivery: p50_and_tail(&stamps.delivery_us()),
        }
    }

    /// The call's times at the reference host speed.
    fn scaled(&self, f: f64) -> Call {
        Call {
            wall_s: self.wall_s * f,
            chronon: (self.chronon.0 * f, self.chronon.1 * f),
            delivery: (self.delivery.0 * f, self.delivery.1 * f),
        }
    }
}

/// What the calls on one instance measured, at the reference host speed.
struct Figures {
    /// Throughput as measured, before the host-speed correction.
    raw_chronons_per_s: f64,
    /// The reference kernel's median time around the calls.
    kernel_s: f64,
    completeness: f64,
    chronons_per_s: f64,
    chronon: (f64, f64),
    delivery: (f64, f64),
    /// Median wall time of an untraced call, as measured: the base of the
    /// tracing overhead (traced calls are not corrected either).
    raw_wall_s: f64,
    /// Filled by a traced run.
    traced: Option<TracedFigures>,
}

/// Per-layer figures of a traced engine call, or their medians over an
/// instance's traced calls.
struct TracedFigures {
    wall_s: f64,
    counts: Counts,
    prep_s: f64,
    busy_s: f64,
    score_s: f64,
    probe_s: f64,
    drain_s: f64,
}

fn measure<F: FaultModel>(
    w: &EngineWorkload,
    args: &Args,
    host: &mut HostSpeed,
    make_faults: impl Fn(u64) -> F,
) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new();
    let mut setups = Vec::with_capacity(w.instances);
    let mut figures = Vec::with_capacity(w.instances);
    let (mut ceis, mut eis) = (0.0, 0.0);
    for rep in 0..w.instances as u64 {
        let before = host.sample(KERNELS);
        let inputs = w.inputs(args.seed, rep);
        let f = calibrate::scale(before, host.sample(KERNELS));
        setups.push(inputs.times.scaled(f));
        ceis += inputs.instance.ceis.len() as f64;
        eis += inputs.instance.total_eis() as f64;
        let share_s = args.seconds / w.instances as f64;
        figures.push(measure_instance(
            w,
            args,
            inputs,
            &|| make_faults(rep),
            host,
            share_s,
            // The checker costs seconds per call, so it checks one instance.
            args.trace && rep == 0,
            &mut report,
            &mut spans,
        ));
    }
    let n = figures.len() as f64;
    let mean = |f: &dyn Fn(&Figures) -> f64| figures.iter().map(f).sum::<f64>() / n;
    if !args.trace {
        eprintln!(
            "perfbench: {} engine calls on {} instances; tails at p{} of {} chronons per call; \
             {:.1} chronons/s as measured, reference kernel {:.1} us",
            report.attempted,
            figures.len(),
            tail_percentile(w.shape.horizon as usize),
            w.shape.horizon,
            mean(&|f| f.raw_chronons_per_s),
            mean(&|f| f.kernel_s) * 1e6,
        );
        let ok_frac = if report.correct() { 1.0 } else { 0.0 };
        metrics::end_to_end(
            &mut report,
            metrics::EndToEnd {
                setup_s: median(&setups.iter().map(|s| s.total()).collect::<Vec<_>>()),
                peak_rss_mb: peak_rss_mb(),
                completeness: mean(&|f| f.completeness),
                ok_frac,
                chronons_per_s: mean(&|f| f.chronons_per_s),
                chronon: Latency {
                    p50: mean(&|f| f.chronon.0),
                    tail: mean(&|f| f.chronon.1),
                },
                delivery: Latency {
                    p50: mean(&|f| f.delivery.0),
                    tail: mean(&|f| f.delivery.1),
                },
            },
        );
        return report;
    }

    let traced: Vec<&TracedFigures> = figures.iter().filter_map(|f| f.traced.as_ref()).collect();
    let t = traced.len().max(1) as f64;
    let per = |f: &dyn Fn(&TracedFigures) -> f64| traced.iter().map(|x| f(x)).sum::<f64>() / t;
    let count = |f: fn(&Counts) -> u64| per(&|x| f(&x.counts) as f64);
    let probes = count(|c| c.probes);
    // Every attempt, failed or not, is one selection decision.
    let attempts = count(|c| c.probes + c.probes_failed);
    let fault_attempts = count(|c| c.attempts);
    let mut layers = Layers::new(&setups, ceis / n, eis / n);
    layers.engine = metrics::EngineLayer {
        prep_s: per(&|x| x.prep_s),
        busy_s: per(&|x| x.busy_s),
        self_s: per(&|x| x.busy_s - x.score_s - x.probe_s - x.drain_s),
        us_per_ei: per(&|x| x.wall_s) / (eis / n) * 1e6,
        pool_mean: per(&|x| x.counts.pool_sum as f64 / x.counts.pool_samples.max(1) as f64),
        probes,
        captures: count(|c| c.captures),
        ceis_expired: count(|c| c.expired),
    };
    let score_calls = count(|c| c.score_calls);
    layers.policy = metrics::PolicyLayer {
        score_calls,
        scores_per_probe: score_calls / attempts.max(1.0),
        score_s: per(&|x| x.score_s),
    };
    let failures = count(|c| c.failures);
    layers.fault = metrics::FaultLayer {
        attempts: fault_attempts,
        failures,
        success_frac: if fault_attempts > 0.0 {
            (fault_attempts - failures) / fault_attempts
        } else {
            0.0
        },
        retries: count(|c| c.retries),
        ceis_shed: count(|c| c.shed),
        probe_s: per(&|x| x.probe_s),
    };
    layers.mutation = metrics::MutationLayer {
        drained: count(|c| c.drained),
        registered: count(|c| c.registered),
        cancelled: count(|c| c.cancelled),
        drain_s: per(&|x| x.drain_s),
    };
    layers.host_kernel_us = mean(&|f| f.kernel_s) * 1e6;
    // Traced and untraced calls alternate on every instance.
    layers.trace_overhead_frac =
        mean(&|f| f.traced.as_ref().map_or(0.0, |x| x.wall_s) / f.raw_wall_s) - 1.0;
    metrics::per_layer(&mut report, &layers);
    metrics::write_spans(&spans, args);
    report
}

/// Warms up on one instance, then calls the engine on it for `share_s`
/// seconds (alternating traced and untraced calls in a traced run), and
/// checks every call against the first and against the Scan selector.
#[allow(clippy::too_many_arguments)]
fn measure_instance<F: FaultModel>(
    w: &EngineWorkload,
    args: &Args,
    inputs: Inputs,
    make_faults: &dyn Fn() -> F,
    host: &mut HostSpeed,
    share_s: f64,
    check_invariants: bool,
    report: &mut Report,
    spans: &mut Spans,
) -> Figures {
    let Inputs {
        instance,
        mut script,
        queue,
        ..
    } = inputs;
    let horizon = instance.epoch.len() as usize;
    let config = w.config();
    let fault_config = w.fault_config();

    let untraced = |script: &mut ScriptedMutations| {
        let mut stamps = Stamps::new(horizon);
        let start = Instant::now();
        stamps.call = start;
        let result = run_engine(
            &instance,
            &Mrsf,
            config,
            &mut make_faults(),
            fault_config,
            script,
            &mut stamps,
        );
        let call = Call::new(start.elapsed().as_secs_f64(), &stamps);
        (result, stamps, call)
    };
    let traced = |script: &mut ScriptedMutations, spans: &mut Spans| {
        let timed_policy = TimedPolicy::new(Box::new(Mrsf));
        let mut faults = TimedFaults::new(make_faults());
        let mut mutations = TimedMutations::new(script);
        let call = Instant::now();
        let run_span = spans.record("engine.run", 0, 0, (call, call), 1);
        let mut tracer = Tracer {
            stamps: Stamps::new(horizon),
            spans,
            run_span,
            score: Arc::clone(&timed_policy.score),
            faults: Arc::clone(&faults.tally),
            mutations: Arc::clone(&mutations.tally),
            at_start: [(0, 0); 3],
            counts: Counts::default(),
        };
        tracer.stamps.call = call;
        let result = run_engine(
            &instance,
            &timed_policy,
            config,
            &mut faults,
            fault_config,
            &mut mutations,
            &mut tracer,
        );
        let wall_s = call.elapsed().as_secs_f64();
        let Tracer {
            stamps, mut counts, ..
        } = tracer;
        spans.close(run_span, Instant::now());
        let (f, m) = (&faults.tally, &mutations.tally);
        counts.score_calls = timed_policy.score.calls();
        counts.attempts = f.probe.calls();
        counts.failures = f.failures.load(Relaxed);
        counts.retries = f.retries.load(Relaxed);
        counts.drained = m.drained.load(Relaxed);
        counts.registered = m.registered.load(Relaxed);
        counts.cancelled = m.cancelled.load(Relaxed);
        let figures = TracedFigures {
            wall_s,
            counts,
            prep_s: stamps
                .starts
                .first()
                .map_or(0.0, |s| (*s - stamps.call).as_secs_f64()),
            busy_s: stamps.chronon_us().iter().sum::<f64>() * 1e-6,
            score_s: TimedPolicy::score_secs(&timed_policy.score),
            probe_s: f.probe.secs(),
            drain_s: m.drain.secs(),
        };
        (result, stamps, figures)
    };

    // The first call warms up and is the reference every later call must
    // reproduce exactly; results are compared and dropped at once.
    let (reference, _, _) = untraced(&mut script);
    report.attempted += 1;
    let check = |report: &mut Report, result: &RunResult, stamps: &Stamps, what: &str| {
        report.attempted += 1;
        report.check(
            result.schedule == reference.schedule
                && result.stats == reference.stats
                && result.outcomes == reference.outcomes,
            || format!("{what} diverged from the first engine call"),
        );
        report.check(
            stamps.starts.len() == horizon && stamps.ends.len() == horizon,
            || format!("{what} did not run {horizon} chronons"),
        );
    };
    let mut calls: Vec<Call> = Vec::new();
    let (mut raw_walls, mut kernels) = (Vec::new(), Vec::new());
    let mut traced_calls: Vec<TracedFigures> = Vec::new();
    let begin = Instant::now();
    let mut n = 0usize;
    while n < MIN_CALLS || begin.elapsed().as_secs_f64() < share_s {
        // A traced run alternates traced and untraced calls, so the tracing
        // overhead is measured under the same conditions.
        if args.trace && n % 2 == 1 {
            let (result, stamps, t) = traced(&mut script, spans);
            check(report, &result, &stamps, "a traced engine call");
            traced_calls.push(t);
        } else {
            let before = host.sample(KERNELS);
            let (result, stamps, call) = untraced(&mut script);
            let after = host.sample(KERNELS);
            check(report, &result, &stamps, "an engine call");
            raw_walls.push(call.wall_s);
            kernels.push((before + after) / 2.0);
            calls.push(call.scaled(calibrate::scale(before, after)));
        }
        n += 1;
    }

    // Scan, the reference selector, must reproduce the default selector's
    // run exactly.
    let mut stamps = Stamps::new(horizon);
    let scan = run_engine(
        &instance,
        &Mrsf,
        config.with_scan(),
        &mut make_faults(),
        fault_config,
        &mut script,
        &mut stamps,
    );
    check(report, &scan, &stamps, "the Scan selector's call");

    let med = |f: &dyn Fn(&Call) -> f64| median(&calls.iter().map(f).collect::<Vec<_>>());
    let mut figures = Figures {
        raw_chronons_per_s: horizon as f64 / median(&raw_walls),
        kernel_s: median(&kernels),
        completeness: reference.stats.completeness(),
        chronons_per_s: med(&|c| horizon as f64 / c.wall_s),
        chronon: (med(&|c| c.chronon.0), med(&|c| c.chronon.1)),
        delivery: (med(&|c| c.delivery.0), med(&|c| c.delivery.1)),
        raw_wall_s: median(&raw_walls),
        traced: None,
    };
    if !args.trace {
        return figures;
    }
    if check_invariants {
        check_invariants_on(&instance, w, &queue, &mut script, make_faults, report);
    }
    let counts = traced_calls.first().map(|t| t.counts).unwrap_or_default();
    for t in &traced_calls {
        report.check(t.counts == counts, || {
            format!("a traced call counted {:?}, the first {counts:?}", t.counts)
        });
    }
    let tmed =
        |f: &dyn Fn(&TracedFigures) -> f64| median(&traced_calls.iter().map(f).collect::<Vec<_>>());
    figures.traced = Some(TracedFigures {
        wall_s: tmed(&|t| t.wall_s),
        counts,
        prep_s: tmed(&|t| t.prep_s),
        busy_s: tmed(&|t| t.busy_s),
        score_s: tmed(&|t| t.score_s),
        probe_s: tmed(&|t| t.probe_s),
        drain_s: tmed(&|t| t.drain_s),
    });
    figures
}

/// Runs the engine under the invariant checker, which mirrors the run from
/// its events with the workload's fault and mutation declarations.
fn check_invariants_on<F: FaultModel>(
    instance: &Instance,
    w: &EngineWorkload,
    queue: &MutationQueue,
    script: &mut ScriptedMutations,
    make_faults: &dyn Fn() -> F,
    report: &mut Report,
) {
    let config = w.config();
    let fault_config = w.fault_config();
    let mut checker = InvariantObserver::new(instance, config)
        .with_faults(fault_config)
        .with_mutations(queue);
    let checked = run_engine(
        instance,
        &Mrsf,
        config,
        &mut make_faults(),
        fault_config,
        script,
        &mut checker,
    );
    report.attempted += 1;
    let invariants = checker.finish_with(&checked);
    report.check(invariants.is_clean(), || {
        format!("invariant violations: {invariants}")
    });
}
