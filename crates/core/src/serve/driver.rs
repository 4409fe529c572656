//! The daemon's engine adapters: pacing a run by a [`Clock`], and feeding
//! it live mutations.
//!
//! * [`Paced`] wraps the observer and blocks on every
//!   [`Event::ChrononStart`] until the clock admits that chronon — pacing
//!   lives entirely in the observer layer, so the engine's computation (and
//!   its event stream) is bit-identical under any clock;
//! * [`DaemonSource`] merges a precompiled churn script with mutations
//!   submitted live over the registration API ([`LiveMutationQueue`]).
//!
//! The daemon hands both, with its [`FaultModel`], to one
//! [`OnlineEngine::run_driven_resumable`] call per run.
//!
//! [`Event::ChrononStart`]: crate::obs::Event::ChrononStart
//! [`FaultModel`]: crate::fault::FaultModel
//! [`OnlineEngine::run_driven_resumable`]: crate::engine::OnlineEngine::run_driven_resumable

use super::clock::Clock;
use crate::engine::{Mutation, MutationSource, ScriptedMutations};
use crate::model::{CeiId, Chronon};
use crate::obs::{Event, Observer};
use std::sync::{Arc, Mutex};

/// An observer wrapper that paces the run: before forwarding each
/// [`Event::ChrononStart`] it blocks on the clock until that chronon may
/// begin. Once the clock reports released ([`Clock::wait_until`] returning
/// `false`) pacing is permanently off and events stream through untouched.
///
/// Pacing is invisible to the inner observer — the event sequence (and the
/// engine output it reflects) is identical to an unpaced run.
///
/// [`Event::ChrononStart`]: crate::obs::Event::ChrononStart
#[derive(Debug)]
pub struct Paced<C, O> {
    clock: C,
    inner: O,
    pacing: bool,
}

impl<C: Clock, O: Observer> Paced<C, O> {
    /// Wraps `inner` so chronon starts wait on `clock`.
    pub fn new(clock: C, inner: O) -> Self {
        Paced {
            clock,
            inner,
            pacing: true,
        }
    }

    /// Unwraps the clock and inner observer.
    pub fn into_inner(self) -> (C, O) {
        (self.clock, self.inner)
    }
}

impl<C: Clock, O: Observer> Observer for Paced<C, O> {
    fn on_event(&mut self, event: Event) {
        if self.pacing {
            if let Event::ChrononStart { t, .. } = event {
                self.pacing = self.clock.wait_until(t);
            }
        }
        self.inner.on_event(event);
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

/// A thread-safe inbox for mutations submitted while the engine runs: the
/// daemon's registration API pushes here from client threads, and the
/// engine (through [`DaemonSource`]) drains everything pending at each
/// chronon start.
///
/// Every submission is stamped with a monotonically increasing sequence
/// number (starting at 1), and the inbox remembers the highest sequence the
/// engine has drained. The journal uses both: live mutations are journaled
/// by sequence before they are acknowledged, each journal frame records the
/// drained high-water mark, and recovery re-injects exactly the journaled
/// mutations whose sequence exceeds the last frame's mark.
///
/// Clones share the same inbox.
#[derive(Debug, Clone, Default)]
pub struct LiveMutationQueue {
    inbox: Arc<Mutex<Inbox>>,
}

#[derive(Debug, Default)]
struct Inbox {
    queue: Vec<(u64, Mutation)>,
    /// Sequence assigned to the most recent submission (0 = none yet).
    last_seq: u64,
    /// Highest sequence drained into the engine (0 = none yet).
    drained_seq: u64,
}

impl LiveMutationQueue {
    /// An empty inbox; sequences start at 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// An inbox resuming a recovered run: sequence numbering continues
    /// after `last_seq` (the highest sequence in the journal) and the
    /// drained high-water mark starts at `drained_seq` (the last journaled
    /// frame's mark), so frames written before any post-recovery drain
    /// never regress the mark.
    pub fn resumed(last_seq: u64, drained_seq: u64) -> Self {
        LiveMutationQueue {
            inbox: Arc::new(Mutex::new(Inbox {
                queue: Vec::new(),
                last_seq,
                drained_seq,
            })),
        }
    }

    /// Enqueues `mutation` for the next chronon-start drain and returns its
    /// assigned sequence number.
    pub fn submit(&self, mutation: Mutation) -> u64 {
        let mut inbox = self.inbox.lock().unwrap();
        inbox.last_seq += 1;
        let seq = inbox.last_seq;
        inbox.queue.push((seq, mutation));
        seq
    }

    /// Reserves the next sequence number without enqueuing anything — the
    /// journal-before-ack path: the daemon journals the mutation under the
    /// reserved sequence first and enqueues it (via
    /// [`reinject`](Self::reinject)) only if the journal write succeeded, so
    /// a rejected submission is never half-applied. A burned sequence (the
    /// journal write failed) leaves a harmless gap in the numbering.
    pub fn reserve(&self) -> u64 {
        let mut inbox = self.inbox.lock().unwrap();
        inbox.last_seq += 1;
        inbox.last_seq
    }

    /// Re-enqueues a journaled mutation under its original sequence number
    /// — recovery's path for accepted-but-undrained submissions. Keeps the
    /// sequence counter ahead of every re-injected number.
    pub fn reinject(&self, seq: u64, mutation: Mutation) {
        let mut inbox = self.inbox.lock().unwrap();
        inbox.queue.push((seq, mutation));
        inbox.last_seq = inbox.last_seq.max(seq);
    }

    /// How many mutations are waiting to be drained.
    pub fn pending(&self) -> usize {
        self.inbox.lock().unwrap().queue.len()
    }

    /// Highest sequence number the engine has drained (0 = none yet).
    pub fn drained_seq(&self) -> u64 {
        self.inbox.lock().unwrap().drained_seq
    }

    fn drain_into(&self, out: &mut Vec<Mutation>) {
        let mut inbox = self.inbox.lock().unwrap();
        if let Some(&(seq, _)) = inbox.queue.last() {
            inbox.drained_seq = inbox.drained_seq.max(seq);
        }
        out.extend(inbox.queue.drain(..).map(|(_, m)| m));
    }
}

/// The daemon's [`MutationSource`]: a precompiled churn script (drained at
/// its scripted chronons, with its natural-release suppression) merged
/// with whatever the live registration API submitted since the previous
/// chronon — script first, then live arrivals in submission order.
///
/// The source is always active. For a run with an empty script and no live
/// traffic this is still bit-identical to the mutation-free engine path:
/// activity only gates a per-chronon drain, and an empty drain applies
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct DaemonSource {
    script: ScriptedMutations,
    live: LiveMutationQueue,
}

impl DaemonSource {
    /// A source merging `script` with live submissions from `live`.
    pub fn new(script: ScriptedMutations, live: LiveMutationQueue) -> Self {
        DaemonSource { script, live }
    }
}

impl MutationSource for DaemonSource {
    fn active(&self) -> bool {
        true
    }

    fn drain_at(&mut self, t: Chronon, out: &mut Vec<Mutation>) {
        self.script.drain_at(t, out);
        self.live.drain_into(out);
    }

    fn suppresses_release(&self, cei: CeiId) -> bool {
        self.script.suppresses_release(cei)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, MutationQueue, OnlineEngine, RunInputs, RunResult};
    use crate::fault::{FaultConfig, NoFaults};
    use crate::model::{Budget, Instance, InstanceBuilder};
    use crate::obs::MetricsObserver;
    use crate::policy::MEdf;
    use crate::serve::{FreeClock, ManualClock, NoSnapshots};

    fn tiny_instance() -> Instance {
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 4), (1, 2, 6)]);
        b.cei(p, &[(0, 3, 8)]);
        b.build()
    }

    /// The daemon's engine call for a fresh faultless M-EDF(P) run: `source`
    /// drained each chronon, `observer` paced by `clock`.
    fn paced_run<C: Clock, O: Observer>(
        instance: &Instance,
        source: &mut DaemonSource,
        clock: C,
        observer: O,
    ) -> RunResult {
        let inputs = RunInputs {
            instance,
            policy: &MEdf,
            config: EngineConfig::preemptive(),
            faults: &mut NoFaults,
            fault_config: FaultConfig::default(),
            mutations: source,
            observer: &mut Paced::new(clock, observer),
        };
        OnlineEngine::run_driven_resumable(inputs, None, &mut NoSnapshots).unwrap()
    }

    #[test]
    fn drive_with_free_clock_matches_run_observed() {
        let instance = tiny_instance();
        let mut sim = MetricsObserver::default();
        let expected =
            OnlineEngine::run_observed(&instance, &MEdf, EngineConfig::preemptive(), &mut sim);

        let mut served = MetricsObserver::default();
        let got = paced_run(
            &instance,
            &mut DaemonSource::default(),
            FreeClock,
            &mut served,
        );
        assert_eq!(expected.schedule, got.schedule);
        assert_eq!(expected.stats, got.stats);
        assert_eq!(expected.outcomes, got.outcomes);
        assert_eq!(sim.metrics(), served.metrics());
    }

    #[test]
    fn drive_with_released_manual_clock_free_runs_to_horizon() {
        let instance = tiny_instance();
        let (clock, handle) = ManualClock::new();
        handle.release();
        let got = paced_run(
            &instance,
            &mut DaemonSource::default(),
            clock,
            crate::obs::NoopObserver,
        );
        let expected = OnlineEngine::run(&instance, &MEdf, EngineConfig::preemptive());
        assert_eq!(expected.schedule, got.schedule);
    }

    #[test]
    fn live_queue_drains_at_next_chronon_start() {
        // A live SetBudget submitted before the run starts drains at
        // chronon 0 and (per run_driven semantics) applies from chronon 1.
        let instance = tiny_instance();
        let live = LiveMutationQueue::new();
        live.submit(Mutation::SetBudget { budget: 0 });
        assert_eq!(live.pending(), 1);
        let mut source = DaemonSource::new(ScriptedMutations::default(), live.clone());
        let got = paced_run(&instance, &mut source, FreeClock, crate::obs::NoopObserver);
        assert_eq!(live.pending(), 0);
        // Budget zeroed from chronon 1 on: nothing captures.
        assert_eq!(got.stats.ceis_captured, 0);

        // The same mutation prerecorded at chronon 0 is bit-identical.
        let mut queue = MutationQueue::new();
        queue.set_budget(0, 0);
        let expected = OnlineEngine::run_driven(
            &instance,
            &MEdf,
            EngineConfig::preemptive(),
            &mut NoFaults,
            FaultConfig::default(),
            &mut ScriptedMutations::compile(&queue, instance.epoch.len(), instance.ceis.len()),
            &mut crate::obs::NoopObserver,
        );
        assert_eq!(expected.schedule, got.schedule);
        assert_eq!(expected.stats, got.stats);
        assert_eq!(expected.outcomes, got.outcomes);
    }
}
