//! The metric vocabulary: every workload reports every end-to-end metric
//! in an untraced run and every per-layer metric in a traced run, with 0
//! for a layer the workload does not load.

use crate::layers::Spans;
use crate::report::Report;
use crate::setup::SetupTimes;
use crate::stats::{median, Latency};
use crate::Args;

pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub completeness: f64,
    pub ok_frac: f64,
    pub chronons_per_s: f64,
    pub chronon: Latency,
    pub delivery: Latency,
}

pub fn end_to_end(report: &mut Report, m: EndToEnd) {
    report.metric("setup_s", m.setup_s, "s");
    report.metric("peak_rss_mb", m.peak_rss_mb, "MB");
    report.metric("completeness", m.completeness, "fraction");
    report.metric("ok_frac", m.ok_frac, "fraction");
    report.metric("chronons_per_s", m.chronons_per_s, "1/s");
    report.metric("chronon_p50_us", m.chronon.p50, "us");
    report.metric("chronon_tail_us", m.chronon.tail, "us");
    report.metric("delivery_p50_us", m.delivery.p50, "us");
    report.metric("delivery_tail_us", m.delivery.tail, "us");
}

#[derive(Debug, Default)]
pub struct EngineLayer {
    pub prep_s: f64,
    pub busy_s: f64,
    pub self_s: f64,
    pub us_per_ei: f64,
    pub pool_mean: f64,
    pub probes: f64,
    pub captures: f64,
    pub ceis_expired: f64,
}

#[derive(Debug, Default)]
pub struct PolicyLayer {
    pub score_calls: f64,
    pub scores_per_probe: f64,
    pub score_s: f64,
}

#[derive(Debug, Default)]
pub struct FaultLayer {
    pub attempts: f64,
    pub failures: f64,
    pub success_frac: f64,
    pub retries: f64,
    pub ceis_shed: f64,
    pub probe_s: f64,
}

#[derive(Debug, Default)]
pub struct MutationLayer {
    pub drained: f64,
    pub registered: f64,
    pub cancelled: f64,
    pub drain_s: f64,
}

#[derive(Debug, Default)]
pub struct ClockLayer {
    pub wait_s: f64,
    pub busy_frac: f64,
    pub late_p50_us: f64,
    pub late_tail_us: f64,
    pub late_chronons: f64,
    pub late_after_snapshot_frac: f64,
}

#[derive(Debug, Default)]
pub struct ExecutorLayer {
    pub probes: f64,
    pub probe_s: f64,
}

#[derive(Debug, Default)]
pub struct JournalLayer {
    pub mb: f64,
    pub frames: f64,
    pub snapshots: f64,
    pub live_records: f64,
    pub frame_mb: f64,
    pub scan_s: f64,
}

#[derive(Debug, Default)]
pub struct ServeLayer {
    pub events: f64,
    pub events_per_chronon: f64,
    pub stream_mb: f64,
    pub ack_rtt_p50_us: f64,
    pub register_ack_p50_us: f64,
    pub register_ack_tail_us: f64,
    pub register_apply_p50_us: f64,
    pub client_sent: f64,
    pub client_late_p50_us: f64,
    pub client_late_max_us: f64,
}

#[derive(Debug, Default)]
pub struct Layers {
    pub trace_s: f64,
    pub generate_s: f64,
    pub script_s: f64,
    pub ceis: f64,
    pub eis: f64,
    pub engine: EngineLayer,
    pub policy: PolicyLayer,
    pub fault: FaultLayer,
    pub mutation: MutationLayer,
    pub clock: ClockLayer,
    pub executor: ExecutorLayer,
    pub journal: JournalLayer,
    pub serve: ServeLayer,
    /// The reference kernel's time as measured (see `calibrate`).
    pub host_kernel_us: f64,
    pub trace_overhead_frac: f64,
}

impl Layers {
    /// The set-up layers' medians over `setups` and the instance's size.
    pub fn new(setups: &[SetupTimes], ceis: f64, eis: f64) -> Self {
        let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        Layers {
            trace_s: med(|s| s.trace_s),
            generate_s: med(|s| s.generate_s),
            script_s: med(|s| s.script_s),
            ceis,
            eis,
            ..Layers::default()
        }
    }
}

pub fn per_layer(report: &mut Report, l: &Layers) {
    let mut m = |name: &str, value: f64, unit: &'static str| report.metric(name, value, unit);
    m("streams.trace_s", l.trace_s, "s");
    m("workload.generate_s", l.generate_s, "s");
    m("workload.script_s", l.script_s, "s");
    m("workload.ceis", l.ceis, "count");
    m("workload.eis", l.eis, "count");
    let e = &l.engine;
    m("engine.prep_s", e.prep_s, "s");
    m("engine.busy_s", e.busy_s, "s");
    m("engine.self_s", e.self_s, "s");
    m("engine.us_per_ei", e.us_per_ei, "us");
    m("engine.pool_mean", e.pool_mean, "count");
    m("engine.probes", e.probes, "count");
    m("engine.captures", e.captures, "count");
    m("engine.ceis_expired", e.ceis_expired, "count");
    let p = &l.policy;
    m("policy.score_calls", p.score_calls, "count");
    m("policy.scores_per_probe", p.scores_per_probe, "count");
    m("policy.score_s", p.score_s, "s");
    let f = &l.fault;
    m("fault.attempts", f.attempts, "count");
    m("fault.failures", f.failures, "count");
    m("fault.success_frac", f.success_frac, "fraction");
    m("fault.retries", f.retries, "count");
    m("fault.ceis_shed", f.ceis_shed, "count");
    m("fault.probe_s", f.probe_s, "s");
    let mu = &l.mutation;
    m("mutation.drained", mu.drained, "count");
    m("mutation.registered", mu.registered, "count");
    m("mutation.cancelled", mu.cancelled, "count");
    m("mutation.drain_s", mu.drain_s, "s");
    let c = &l.clock;
    m("clock.wait_s", c.wait_s, "s");
    m("clock.busy_frac", c.busy_frac, "fraction");
    m("clock.late_p50_us", c.late_p50_us, "us");
    m("clock.late_tail_us", c.late_tail_us, "us");
    m("clock.late_chronons", c.late_chronons, "count");
    m(
        "clock.late_after_snapshot_frac",
        c.late_after_snapshot_frac,
        "fraction",
    );
    let x = &l.executor;
    m("executor.probes", x.probes, "count");
    m("executor.probe_s", x.probe_s, "s");
    let j = &l.journal;
    m("journal.mb", j.mb, "MB");
    m("journal.frames", j.frames, "count");
    m("journal.snapshots", j.snapshots, "count");
    m("journal.live_records", j.live_records, "count");
    m("journal.frame_mb", j.frame_mb, "MB");
    m("journal.scan_s", j.scan_s, "s");
    let s = &l.serve;
    m("serve.events", s.events, "count");
    m("serve.events_per_chronon", s.events_per_chronon, "count");
    m("serve.stream_mb", s.stream_mb, "MB");
    m("serve.ack_rtt_p50_us", s.ack_rtt_p50_us, "us");
    m("serve.register_ack_p50_us", s.register_ack_p50_us, "us");
    m("serve.register_ack_tail_us", s.register_ack_tail_us, "us");
    m("serve.register_apply_p50_us", s.register_apply_p50_us, "us");
    m("client.sent", s.client_sent, "count");
    m("client.late_p50_us", s.client_late_p50_us, "us");
    m("client.late_max_us", s.client_late_max_us, "us");
    m("host.kernel_us", l.host_kernel_us, "us");
    m("trace.overhead_frac", l.trace_overhead_frac, "fraction");
}

/// Writes the traced run's spans next to the build output.
pub fn write_spans(spans: &Spans, args: &Args) {
    let dir = args.out_dir();
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| spans.write_jsonl(&path)) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}
