//! Timing wrappers around the public traits the program accepts, and the
//! in-memory span log of the traced run.
//!
//! Each wrapper forwards every call unchanged (including the capability
//! answers `enabled`, `active` and `fallible`, so the engine takes the same
//! code paths as without it) and counts and times the calls into its layer.
//! Counters are atomics because `Policy` must be `Sync` and the daemon
//! moves the executor and clock into its own threads; the engine calls
//! them from one thread, so `Relaxed` is enough: they publish no other
//! data and are read after the run has joined.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use webmon_core::engine::{Mutation, MutationSource};
use webmon_core::fault::FaultModel;
use webmon_core::model::{CeiId, Chronon, ResourceId};
use webmon_core::policy::{Candidate, Policy, PolicyContext};
use webmon_core::serve::{Clock, ClockRelease, ProbeExecutor};

/// `Policy::score` is timed on one call in this many: it costs a few
/// nanoseconds, less than reading the clock, so timing every call would
/// mostly measure the timer. The reported time is the sample scaled up.
pub const SCORE_SAMPLE: u64 = 16;

/// A count and the nanoseconds spent in it.
#[derive(Debug, Default)]
pub struct Tally {
    pub calls: AtomicU64,
    pub nanos: AtomicU64,
}

impl Tally {
    fn add_time(&self, since: Instant) {
        self.nanos
            .fetch_add(since.elapsed().as_nanos() as u64, Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.nanos.load(Relaxed) as f64 * 1e-9
    }
}

/// Counts every `score` call and times a fixed sample of them.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    pub score: Arc<Tally>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn Policy>) -> Self {
        TimedPolicy {
            inner,
            score: Arc::default(),
        }
    }

    /// Estimated seconds spent in `score` (sampled time × sample rate).
    pub fn score_secs(tally: &Tally) -> f64 {
        tally.secs() * SCORE_SAMPLE as f64
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn spec(&self) -> String {
        self.inner.spec()
    }

    fn score(&self, ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64 {
        if !self
            .score
            .calls
            .fetch_add(1, Relaxed)
            .is_multiple_of(SCORE_SAMPLE)
        {
            return self.inner.score(ctx, cand);
        }
        let start = Instant::now();
        let score = self.inner.score(ctx, cand);
        self.score.add_time(start);
        score
    }

    fn stable_scores(&self) -> bool {
        self.inner.stable_scores()
    }
}

/// Probe attempts, failures and retries seen by the fault model.
#[derive(Debug, Default)]
pub struct FaultTally {
    pub probe: Tally,
    pub failures: AtomicU64,
    pub retries: AtomicU64,
}

pub struct TimedFaults<F> {
    inner: F,
    pub tally: Arc<FaultTally>,
}

impl<F> TimedFaults<F> {
    pub fn new(inner: F) -> Self {
        TimedFaults {
            inner,
            tally: Arc::default(),
        }
    }
}

impl<F: FaultModel> FaultModel for TimedFaults<F> {
    fn begin_chronon(&mut self, t: Chronon) {
        self.inner.begin_chronon(t);
    }

    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        self.inner.down_until(resource)
    }

    fn probe_succeeds(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool {
        let start = Instant::now();
        let ok = self.inner.probe_succeeds(t, resource, attempt);
        let tally = &self.tally;
        tally.probe.add_time(start);
        tally.probe.calls.fetch_add(1, Relaxed);
        if attempt > 0 {
            tally.retries.fetch_add(1, Relaxed);
        }
        if !ok {
            tally.failures.fetch_add(1, Relaxed);
        }
        ok
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn descriptor(&self) -> String {
        self.inner.descriptor()
    }
}

/// Mutations drained per kind, and the time spent draining.
#[derive(Debug, Default)]
pub struct MutationTally {
    pub drain: Tally,
    pub drained: AtomicU64,
    pub registered: AtomicU64,
    pub cancelled: AtomicU64,
}

pub struct TimedMutations<M> {
    inner: M,
    pub tally: Arc<MutationTally>,
}

impl<M> TimedMutations<M> {
    pub fn new(inner: M) -> Self {
        TimedMutations {
            inner,
            tally: Arc::default(),
        }
    }
}

impl<M: MutationSource> MutationSource for TimedMutations<M> {
    fn active(&self) -> bool {
        self.inner.active()
    }

    fn drain_at(&mut self, t: Chronon, out: &mut Vec<Mutation>) {
        let before = out.len();
        let start = Instant::now();
        self.inner.drain_at(t, out);
        let tally = &self.tally;
        tally.drain.add_time(start);
        tally.drain.calls.fetch_add(1, Relaxed);
        for m in &out[before..] {
            tally.drained.fetch_add(1, Relaxed);
            match m {
                Mutation::Register { .. } => tally.registered.fetch_add(1, Relaxed),
                Mutation::Cancel { .. } => tally.cancelled.fetch_add(1, Relaxed),
                Mutation::SetBudget { .. } => 0,
            };
        }
    }

    fn suppresses_release(&self, cei: CeiId) -> bool {
        self.inner.suppresses_release(cei)
    }
}

pub struct TimedExecutor<E> {
    inner: E,
    pub probe: Arc<Tally>,
}

impl<E> TimedExecutor<E> {
    pub fn new(inner: E) -> Self {
        TimedExecutor {
            inner,
            probe: Arc::default(),
        }
    }
}

impl<E: ProbeExecutor> ProbeExecutor for TimedExecutor<E> {
    fn begin_chronon(&mut self, t: Chronon) {
        self.inner.begin_chronon(t);
    }

    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        self.inner.down_until(resource)
    }

    fn probe(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool {
        let start = Instant::now();
        let ok = self.inner.probe(t, resource, attempt);
        self.probe.add_time(start);
        self.probe.calls.fetch_add(1, Relaxed);
        ok
    }

    fn fallible(&self) -> bool {
        self.inner.fallible()
    }

    fn descriptor(&self) -> String {
        self.inner.descriptor()
    }
}

/// Start-line state shared by the benchmark's clients and the clock: the
/// first chronon is held until every client is connected and ready, so
/// connection set-up never reads as latency.
#[derive(Debug, Default)]
pub struct StartGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    ready: u32,
    /// When chronon 0 was admitted: the origin of every due time.
    anchor: Option<Instant>,
    first_start_seen: bool,
    aborted: bool,
}

impl StartGate {
    /// One more client is connected and ready.
    pub fn ready(&self) {
        self.state.lock().expect("gate lock poisoned").ready += 1;
        self.cv.notify_all();
    }

    /// The subscriber holds `ChrononStart{0}`.
    pub fn first_start_seen(&self) {
        self.state
            .lock()
            .expect("gate lock poisoned")
            .first_start_seen = true;
        self.cv.notify_all();
    }

    /// Releases every waiter without a start (a client failed).
    pub fn abort(&self) {
        self.state.lock().expect("gate lock poisoned").aborted = true;
        self.cv.notify_all();
    }

    fn wait_for(&self, timeout: Duration, done: impl Fn(&GateState) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("gate lock poisoned");
        while !done(&state) && !state.aborted {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            state = self
                .cv
                .wait_timeout(state, left)
                .expect("gate lock poisoned")
                .0;
        }
        !state.aborted
    }

    /// Blocks until `clients` are ready; false on abort or timeout.
    fn wait_ready(&self, clients: u32, timeout: Duration) -> bool {
        self.wait_for(timeout, |s| s.ready >= clients)
    }

    fn set_anchor(&self, at: Instant) {
        self.state.lock().expect("gate lock poisoned").anchor = Some(at);
        self.cv.notify_all();
    }

    /// Blocks until chronon 0 was admitted and the subscriber saw it, and
    /// returns the due time of chronon 0; `None` on abort or timeout.
    pub fn wait_started(&self, timeout: Duration) -> Option<Instant> {
        if !self.wait_for(timeout, |s| s.anchor.is_some() && s.first_start_seen) {
            return None;
        }
        self.state.lock().expect("gate lock poisoned").anchor
    }
}

/// What the clock wrapper saw, per chronon.
#[derive(Debug, Default)]
pub struct ClockLog {
    /// When the engine asked for chronon 0 (the daemon's set-up is done).
    pub first_call: Option<Instant>,
    /// Due time of chronon 0.
    pub anchor: Option<Instant>,
    /// Per chronon: when the engine asked to start it.
    pub called: Vec<Instant>,
    /// Per chronon: when the clock admitted it.
    pub admitted: Vec<Instant>,
    /// The clients did not get ready in time.
    pub gate_failed: bool,
}

/// Wraps the daemon's clock: holds chronon 0 at the [`StartGate`], then
/// stamps when the engine asks for each chronon and when it is admitted.
pub struct GatedClock<C> {
    inner: C,
    gate: Arc<StartGate>,
    clients: u32,
    log: Arc<Mutex<ClockLog>>,
}

impl<C> GatedClock<C> {
    pub fn new(inner: C, gate: Arc<StartGate>, clients: u32, log: Arc<Mutex<ClockLog>>) -> Self {
        GatedClock {
            inner,
            gate,
            clients,
            log,
        }
    }
}

impl<C: Clock> Clock for GatedClock<C> {
    fn wait_until(&mut self, t: Chronon) -> bool {
        let called = Instant::now();
        if t == 0 {
            let ok = self.gate.wait_ready(self.clients, Duration::from_secs(20));
            let mut log = self.log.lock().expect("clock log poisoned");
            log.first_call = Some(called);
            log.gate_failed = !ok;
        }
        let asked = Instant::now();
        let pacing = self.inner.wait_until(t);
        let admitted = Instant::now();
        let mut log = self.log.lock().expect("clock log poisoned");
        if t == 0 {
            log.anchor = Some(asked);
            self.gate.set_anchor(asked);
        }
        log.called.push(called);
        log.admitted.push(admitted);
        pacing
    }

    fn release_handle(&self) -> ClockRelease {
        let inner = self.inner.release_handle();
        let gate = Arc::clone(&self.gate);
        Arc::new(move || {
            gate.abort();
            inner();
        })
    }
}

/// One span of the traced run: a layer's work between two instants.
/// Per-call layers (`policy.score`, `fault.probe`, `executor.probe`) are
/// folded into one span per chronon whose `count` is the number of calls.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The enclosing span's id (0 for a root).
    pub parent: u64,
    /// The request the span belongs to (a registration's CEI id, or the
    /// chronon), shared by the spans of one request.
    pub key: u64,
    pub start: Instant,
    pub end: Instant,
    pub count: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        key: u64,
        (start, end): (Instant, Instant),
        count: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            key,
            start,
            end,
            count,
        });
        id
    }

    /// Sets the end of an open span.
    pub fn close(&mut self, id: u64, end: Instant) {
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.end = end;
        }
    }

    /// Writes every span as one JSON line: name, id, parent, key, start and
    /// end in microseconds since the log began, and the call count.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let us = |at: Instant| at.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"key\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"count\":{}}}",
                s.name,
                s.id,
                s.parent,
                s.key,
                us(s.start),
                us(s.end),
                s.count
            )?;
        }
        out.flush()
    }
}
