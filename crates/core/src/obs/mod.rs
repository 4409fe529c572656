//! Structured engine observability: typed events emitted from inside the
//! online run loop, an [`Observer`] trait to receive them, and two shipped
//! observers — [`MetricsObserver`] (in-run aggregation into a serializable
//! [`RunMetrics`]) and [`JsonlTraceObserver`] (streaming JSONL for offline
//! analysis).
//!
//! ## Zero cost when disabled
//!
//! The engine's entry points
//! ([`OnlineEngine::run_observed`](crate::engine::OnlineEngine::run_observed),
//! [`OnlineEngine::run_driven`](crate::engine::OnlineEngine::run_driven))
//! are generic over `O: Observer`, so the observer is monomorphized into
//! the hot loop. The default [`NoopObserver`] has an empty `on_event` and
//! reports `enabled() == false`; the compiler eliminates both the event
//! construction and the `enabled()`-guarded accounting, leaving the plain
//! engine loop byte-for-byte equivalent to the pre-observability code path.
//! Anything more expensive than assembling an event from already-computed
//! scalars (e.g. counting deferred candidates for
//! [`Event::BudgetExhausted`]) must sit behind an `if observer.enabled()`
//! guard inside the engine.
//!
//! ## Event vocabulary
//!
//! One run emits, per chronon `t` of the epoch, in this order:
//!
//! 1. [`Event::ChrononStart`] — the chronon opens with its probe budget;
//! 2. under mutation only: the chronon's drained
//!    [`MutationQueue`](crate::engine::MutationQueue) entries, in queue
//!    order — [`Event::CeiRegistered`] / [`Event::CeiCancelled`] /
//!    [`Event::BudgetReconfigured`]; a registration whose already-closed
//!    windows doom the CEI on arrival is followed immediately by its
//!    [`Event::CeiExpired`];
//! 3. under fault injection only: [`Event::ResourceDown`] /
//!    [`Event::ResourceUp`] transitions, in resource order — a `Down` is
//!    (re-)emitted whenever a resource's committed outage horizon starts
//!    or extends;
//! 4. per probe attempt: an optional [`Event::ProbeRetried`] (the attempt
//!    targets a resource with consecutive failures), then either one
//!    [`Event::ProbeIssued`] (with the probe's cost and its intra-resource
//!    sharing fan-out), followed by that probe's [`Event::EiCaptured`]s
//!    (one per captured EI, with its capture latency) and
//!    [`Event::CeiCompleted`]s (CEIs that crossed their threshold) — or
//!    one [`Event::ProbeFailed`] (the fault model rejected the probe;
//!    failed probes never capture);
//! 5. one [`Event::CandidateSet`] — the live candidate-EI pool the
//!    chronon's `probeEIs` competed over;
//! 6. at most one [`Event::BudgetExhausted`] — live candidates were left
//!    unserved when the budget ran out (or nothing affordable remained);
//! 7. zero or more [`Event::CeiExpired`] — CEIs doomed by this chronon's
//!    window expiries — then zero or more [`Event::CeiShed`] — CEIs the
//!    engine degraded gracefully because their remaining windows lie
//!    entirely within committed outages;
//! 8. [`Event::ChrononEnd`] — budget units actually spent (including
//!    budget charged to failed probes).
//!
//! The stream is **deterministic**: the engine is a pure function of
//! `(instance, policy, config, mutations)`, so the exact event sequence —
//! not just its aggregates — is reproducible, worker count and repetition
//! order notwithstanding.

mod metrics;
mod replay;
mod trace;

pub use metrics::{Histogram, MetricsObserver, RunMetrics};
pub use replay::{replay_events, replay_metrics, ReplayError};
pub use trace::JsonlTraceObserver;

use crate::model::{CeiId, Chronon, ResourceId};
use serde::Deserialize;

/// One typed event from inside [`OnlineEngine`](crate::engine::OnlineEngine).
///
/// Events are small `Copy` records of already-computed scalars; constructing
/// one costs a handful of register moves, and under [`NoopObserver`] the
/// construction is eliminated entirely. [`Event::write_jsonl`] encodes an
/// event as one JSONL line, and `Deserialize` parses it back, which makes a
/// persisted [`JsonlTraceObserver`] trace a lossless transcript:
/// [`replay_metrics`] re-derives [`RunMetrics`] from the bytes alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum Event {
    /// A chronon opened with the given probe budget.
    ChrononStart {
        /// The chronon.
        t: Chronon,
        /// Budget units available this chronon (`C_j`).
        budget: u32,
    },
    /// The live candidate pool at selection time, after compaction.
    CandidateSet {
        /// The chronon.
        t: Chronon,
        /// Live candidate EIs competing for this chronon's budget.
        size: u32,
    },
    /// The engine probed a resource.
    ProbeIssued {
        /// The chronon.
        t: Chronon,
        /// The probed resource.
        resource: ResourceId,
        /// Budget units the probe cost.
        cost: u32,
        /// Intra-resource sharing fan-out: EIs this one probe captured
        /// (1 with sharing disabled; ≥ 1 with sharing on; 0 only when a
        /// duplicate unshared probe hit an already-captured resource).
        shared_eis: u32,
    },
    /// An EI was captured by a probe.
    EiCaptured {
        /// The chronon of the capturing probe.
        t: Chronon,
        /// The parent CEI.
        cei: CeiId,
        /// Chronons from the EI's window opening to its capture.
        latency: u32,
    },
    /// A CEI crossed its `required` threshold and completed.
    CeiCompleted {
        /// The completed CEI.
        cei: CeiId,
        /// The chronon of the completing probe.
        at: Chronon,
    },
    /// A CEI became doomed — fewer than `required` EIs remain capturable.
    CeiExpired {
        /// The failed CEI.
        cei: CeiId,
        /// The chronon of the dooming expiry.
        at: Chronon,
    },
    /// The chronon's budget ran out (or nothing affordable remained) while
    /// live candidates were still waiting.
    BudgetExhausted {
        /// The chronon.
        t: Chronon,
        /// Live candidate EIs left unserved on unprobed resources.
        deferred: u32,
    },
    /// The chronon closed.
    ChrononEnd {
        /// The chronon.
        t: Chronon,
        /// Budget units actually spent.
        spent: u32,
        /// Budget units that were available (`C_j`).
        budget: u32,
    },
    /// A probe attempt was rejected by the fault model. Failed probes never
    /// capture and are not recorded in the schedule.
    ProbeFailed {
        /// The chronon.
        t: Chronon,
        /// The resource whose probe failed.
        resource: ResourceId,
        /// Budget units the attempt would have cost.
        cost: u32,
        /// Consecutive failures on this resource before this attempt
        /// (0 for a fresh probe).
        attempt: u32,
        /// Whether the attempt's cost was charged against the chronon
        /// budget ([`FaultConfig::failures_cost`](crate::fault::FaultConfig)).
        charged: bool,
    },
    /// A probe attempt targets a resource with consecutive failures —
    /// emitted immediately before that attempt's [`Event::ProbeIssued`] or
    /// [`Event::ProbeFailed`].
    ProbeRetried {
        /// The chronon.
        t: Chronon,
        /// The retried resource.
        resource: ResourceId,
        /// Consecutive failures before this attempt (≥ 1).
        attempt: u32,
    },
    /// A resource became unavailable, or an ongoing outage extended its
    /// committed horizon.
    ResourceDown {
        /// The chronon.
        t: Chronon,
        /// The unavailable resource.
        resource: ResourceId,
        /// Inclusive horizon of the committed outage: no probe of this
        /// resource can succeed at any chronon in `t..=until`.
        until: Chronon,
    },
    /// A previously-down resource recovered.
    ResourceUp {
        /// The chronon.
        t: Chronon,
        /// The recovered resource.
        resource: ResourceId,
    },
    /// The engine shed a CEI: its remaining uncaptured windows lie entirely
    /// within committed outages, so AND/threshold semantics can no longer
    /// be satisfied and spending probes on it would be wasted.
    CeiShed {
        /// The shed CEI.
        cei: CeiId,
        /// The chronon of the shed decision.
        at: Chronon,
    },
    /// A CEI was registered mid-run: its release chronon is the drain
    /// chronon (`release = now`), and its still-open windows joined the
    /// candidate pool.
    CeiRegistered {
        /// The registered CEI.
        cei: CeiId,
        /// The chronon of the registration (the CEI's effective release).
        at: Chronon,
    },
    /// A live (or not-yet-released) CEI was cancelled mid-run: its windows
    /// left the candidate pool and it resolves as
    /// [`CeiOutcome::Cancelled`](crate::stats::CeiOutcome).
    CeiCancelled {
        /// The cancelled CEI.
        cei: CeiId,
        /// The chronon of the cancellation.
        at: Chronon,
    },
    /// The probe budget was reconfigured mid-run. The new per-chronon
    /// budget takes effect exactly at chronon `t + 1`; the current
    /// chronon's [`Event::ChrononStart`] / [`Event::ChrononEnd`] still
    /// carry the old budget.
    BudgetReconfigured {
        /// The chronon at which the reconfiguration was drained.
        t: Chronon,
        /// The new per-chronon budget, effective from `t + 1`.
        budget: u32,
    },
}

impl Event {
    /// The event's variant name as it appears in JSONL output — the
    /// externally-tagged key, e.g. `"ProbeIssued"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ChrononStart { .. } => "ChrononStart",
            Event::CandidateSet { .. } => "CandidateSet",
            Event::ProbeIssued { .. } => "ProbeIssued",
            Event::EiCaptured { .. } => "EiCaptured",
            Event::CeiCompleted { .. } => "CeiCompleted",
            Event::CeiExpired { .. } => "CeiExpired",
            Event::BudgetExhausted { .. } => "BudgetExhausted",
            Event::ChrononEnd { .. } => "ChrononEnd",
            Event::ProbeFailed { .. } => "ProbeFailed",
            Event::ProbeRetried { .. } => "ProbeRetried",
            Event::ResourceDown { .. } => "ResourceDown",
            Event::ResourceUp { .. } => "ResourceUp",
            Event::CeiShed { .. } => "CeiShed",
            Event::CeiRegistered { .. } => "CeiRegistered",
            Event::CeiCancelled { .. } => "CeiCancelled",
            Event::BudgetReconfigured { .. } => "BudgetReconfigured",
        }
    }
}

/// Receives the engine's typed event stream.
///
/// Observers are driven synchronously from inside the run loop, in event
/// order, on the thread running the engine — one observer per run, so
/// implementations need no interior locking (the shipped
/// [`MetricsObserver`] aggregates into plain counters).
pub trait Observer {
    /// Handles one event.
    fn on_event(&mut self, event: Event);

    /// Whether this observer wants events at all. The engine skips
    /// *expensive* event preparation (anything beyond assembling already-
    /// computed scalars) when this returns `false`. The default is `true`;
    /// only [`NoopObserver`] returns `false`.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }
}

/// The default observer: ignores every event. Monomorphized away — an
/// engine run with `NoopObserver` compiles to the same hot loop as one with
/// no observability at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    #[inline(always)]
    fn on_event(&mut self, _event: Event) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Forwarding impl so call sites can pass `&mut observer` without giving up
/// ownership.
impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline]
    fn on_event(&mut self, event: Event) {
        (**self).on_event(event);
    }

    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// Fans one event stream out to two observers — compose as
/// `Tee(a, Tee(b, c))` for more.
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    #[inline]
    fn on_event(&mut self, event: Event) {
        self.0.on_event(event);
        self.1.on_event(event);
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An observer that records every event, for assertions.
    #[derive(Default)]
    pub(crate) struct Recorder(pub Vec<Event>);

    impl Observer for Recorder {
        fn on_event(&mut self, event: Event) {
            self.0.push(event);
        }
    }

    #[test]
    fn noop_is_disabled_and_silent() {
        let mut o = NoopObserver;
        assert!(!o.enabled());
        o.on_event(Event::ChrononStart { t: 0, budget: 1 });
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut tee = Tee(Recorder::default(), Recorder::default());
        assert!(tee.enabled());
        tee.on_event(Event::ChrononEnd {
            t: 3,
            spent: 1,
            budget: 2,
        });
        assert_eq!(tee.0 .0.len(), 1);
        assert_eq!(tee.1 .0.len(), 1);
    }

    #[test]
    fn tee_with_noop_stays_enabled() {
        let tee = Tee(NoopObserver, Recorder::default());
        assert!(tee.enabled());
        assert!(!Tee(NoopObserver, NoopObserver).enabled());
    }

    #[test]
    fn kind_names_match_variants() {
        assert_eq!(
            Event::ChrononStart { t: 0, budget: 0 }.kind(),
            "ChrononStart"
        );
        assert_eq!(
            Event::ProbeIssued {
                t: 0,
                resource: ResourceId(0),
                cost: 1,
                shared_eis: 1
            }
            .kind(),
            "ProbeIssued"
        );
        assert_eq!(
            Event::CeiExpired {
                cei: CeiId(0),
                at: 0
            }
            .kind(),
            "CeiExpired"
        );
    }
}
