//! Live engine invariant checking (the conformance harness's core).
//!
//! [`InvariantObserver`] is an [`Observer`] that *independently mirrors* the
//! engine's per-chronon state from the typed event stream alone — it never
//! reads engine internals — and cross-checks every event against the model's
//! declarative invariants:
//!
//! * **Budget**: the per-chronon cost of issued probes never exceeds the
//!   budget vector `C_j`, probe costs match the instance's cost model, and
//!   [`Event::ChrononEnd`]'s `spent` equals the observed spend.
//! * **Probe validity**: every probe lands inside the window of at least one
//!   live candidate EI, and the intra-resource sharing fan-out (`R_ids`)
//!   reported on [`Event::ProbeIssued`] matches the mirrored candidate pool
//!   — as do the [`Event::EiCaptured`] events that follow it.
//! * **Capture indicators**: [`Event::EiCaptured`] must correspond to an
//!   open, uncaptured window (`X(I, S)`), and [`Event::CeiCompleted`] must
//!   fire exactly when a CEI crosses its `required` threshold (`X(η, S)`).
//!   At the end of a run every completed CEI is re-verified against the
//!   pure indicator functions of [`crate::model`].
//! * **Candidate sets**: the size reported on [`Event::CandidateSet`] must
//!   equal the mirrored pool — in particular, no candidate set may contain
//!   an EI of an expired (failed) or completed CEI.
//! * **Expiry**: [`Event::CeiExpired`] fires exactly at the chronon where a
//!   CEI first becomes doomed (fewer than `required` EIs capturable), never
//!   twice, and never after completion.
//! * **Faults**: failed probes never capture and are charged exactly as
//!   the declared [`FaultConfig`] prescribes,
//!   no probe lands on a resource inside an announced outage or before its
//!   backoff deadline, retries announce themselves with
//!   [`Event::ProbeRetried`] and respect the per-chronon quota, and
//!   [`Event::CeiShed`] fires exactly when committed outage horizons (not
//!   natural window closings) first make a CEI's threshold unreachable.
//! * **Churn**: under a declared [`MutationQueue`], every announced
//!   registration, cancellation, and budget reconfiguration matches the
//!   script's next effective entry at its drain chronon (and every
//!   effective entry is announced), dynamically registered CEIs are
//!   candidates only from their registration chronon onward, no probe
//!   serves a cancelled CEI's windows, and a reconfigured budget takes
//!   effect exactly one chronon after draining.
//!
//! Divergence is reported as structured [`Violation`]s collected into an
//! [`InvariantReport`] instead of panicking, so a differential harness can
//! aggregate them. Checking costs `O(total EIs)` per chronon — fine for a
//! conformance suite, not for production hot loops (use
//! [`NoopObserver`](crate::obs::NoopObserver) there).
//!
//! ```
//! use webmon_core::check::InvariantObserver;
//! use webmon_core::engine::{EngineConfig, OnlineEngine};
//! use webmon_core::model::{Budget, InstanceBuilder};
//! use webmon_core::policy::Mrsf;
//!
//! let mut b = InstanceBuilder::new(2, 8, Budget::Uniform(1));
//! let p = b.profile();
//! b.cei(p, &[(0, 1, 3), (1, 2, 6)]);
//! let instance = b.build();
//!
//! let config = EngineConfig::preemptive();
//! let mut checker = InvariantObserver::new(&instance, config);
//! let run = OnlineEngine::run_observed(&instance, &Mrsf, config, &mut checker);
//! let report = checker.finish_with(&run);
//! assert!(report.is_clean(), "{report}");
//! ```

use crate::engine::{EngineConfig, Mutation, MutationQueue, RunResult};
use crate::fault::FaultConfig;
use crate::model::{ei_captured, Cei, CeiId, Chronon, Instance, ResourceId, Schedule};
use crate::obs::{Event, Observer};
use crate::stats::CeiOutcome;
use serde::Serialize;
use std::fmt;

/// Hard cap on collected violations; anything beyond is counted in
/// [`InvariantReport::suppressed`] so a pathological stream cannot balloon
/// memory.
const MAX_VIOLATIONS: usize = 64;

/// One structured invariant violation detected in the event stream.
///
/// Chronons and ids refer to the checked instance; `reported` fields quote
/// the event stream, `expected`/`observed` fields quote the mirror.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Violation {
    /// The event stream itself is malformed (events outside an open
    /// chronon, chronons out of order, duplicate or missing per-chronon
    /// events, captures with no preceding probe).
    Protocol {
        /// Human-readable description of the stream-shape breach.
        detail: String,
    },
    /// A chronon's declared budget differs from the instance's `C_j`.
    BudgetMismatch {
        /// The chronon.
        t: Chronon,
        /// Budget the event stream declared.
        reported: u32,
        /// Budget the instance prescribes.
        expected: u32,
    },
    /// The summed cost of issued probes exceeded the chronon's budget.
    BudgetExceeded {
        /// The chronon.
        t: Chronon,
        /// Cost sum including the offending probe.
        spent: u32,
        /// The chronon's budget `C_j`.
        budget: u32,
    },
    /// `ChrononEnd` reported a different spend than the probes summed to.
    SpentMismatch {
        /// The chronon.
        t: Chronon,
        /// Spend reported by `ChrononEnd`.
        reported: u32,
        /// Cost sum of the chronon's `ProbeIssued` events.
        observed: u32,
    },
    /// A probe's reported cost differs from the instance's cost model.
    CostMismatch {
        /// The chronon.
        t: Chronon,
        /// The probed resource.
        resource: ResourceId,
        /// Cost the event reported.
        reported: u32,
        /// Cost the instance prescribes.
        expected: u32,
    },
    /// With sharing enabled the engine probed the same resource twice in
    /// one chronon — the second probe is pure waste.
    DuplicateSharedProbe {
        /// The chronon.
        t: Chronon,
        /// The twice-probed resource.
        resource: ResourceId,
    },
    /// A probe served no live candidate EI window at all.
    ProbeOutsideWindow {
        /// The chronon.
        t: Chronon,
        /// The probed resource.
        resource: ResourceId,
    },
    /// The sharing fan-out reported on `ProbeIssued` differs from the
    /// mirrored count of capturable EIs on that resource.
    FanoutMismatch {
        /// The chronon.
        t: Chronon,
        /// The probed resource.
        resource: ResourceId,
        /// Fan-out the event reported.
        reported: u32,
        /// Capturable EIs in the mirrored pool.
        expected: u32,
    },
    /// The number of `EiCaptured` events following a probe differs from the
    /// number of EIs the probe could capture.
    CaptureCountMismatch {
        /// The chronon.
        t: Chronon,
        /// The probed resource.
        resource: ResourceId,
        /// Captures the mirror expected.
        expected: u32,
        /// `EiCaptured` events observed.
        observed: u32,
    },
    /// An `EiCaptured` event matches no open, uncaptured EI of that CEI on
    /// the probed resource (the indicator `X(I, S)` cannot be satisfied).
    CaptureWithoutWindow {
        /// The chronon.
        t: Chronon,
        /// The CEI the capture was attributed to.
        cei: CeiId,
    },
    /// `CeiCompleted` fired although fewer than `required` EIs are captured.
    CompletionWithoutThreshold {
        /// The completed CEI.
        cei: CeiId,
        /// The completion chronon.
        at: Chronon,
        /// Captured EIs in the mirror.
        captured: u16,
        /// The CEI's threshold.
        required: u16,
    },
    /// `CeiCompleted` fired more than once for the same CEI.
    DuplicateCompletion {
        /// The CEI.
        cei: CeiId,
        /// The duplicate completion's chronon.
        at: Chronon,
    },
    /// A CEI crossed its threshold but no `CeiCompleted` followed before
    /// the next probe / end of chronon.
    MissingCompletion {
        /// The CEI.
        cei: CeiId,
        /// The chronon in which the threshold was crossed.
        t: Chronon,
    },
    /// `CeiExpired` fired for a CEI that had already completed.
    ExpiredAfterCompletion {
        /// The CEI.
        cei: CeiId,
        /// The expiry chronon.
        at: Chronon,
    },
    /// `CeiExpired` fired more than once for the same CEI.
    DuplicateExpiry {
        /// The CEI.
        cei: CeiId,
        /// The duplicate expiry's chronon.
        at: Chronon,
    },
    /// `CeiExpired` fired although the CEI is not doomed (enough EIs remain
    /// capturable), or at the wrong chronon.
    SpuriousExpiry {
        /// The CEI.
        cei: CeiId,
        /// The expiry chronon.
        at: Chronon,
    },
    /// A CEI became doomed this chronon but no `CeiExpired` fired.
    MissingExpiry {
        /// The CEI.
        cei: CeiId,
        /// The chronon whose window expiries doomed the CEI.
        t: Chronon,
    },
    /// A probe attempt (successful or failed) targeted a resource inside
    /// an announced outage.
    ProbeWhileDown {
        /// The chronon.
        t: Chronon,
        /// The probed resource.
        resource: ResourceId,
    },
    /// A probe attempt was issued before the resource's backoff deadline.
    BackoffViolated {
        /// The chronon.
        t: Chronon,
        /// The probed resource.
        resource: ResourceId,
        /// First chronon the backoff schedule permits.
        allowed_at: Chronon,
    },
    /// An attempt's failure streak disagrees with the mirror (wrong
    /// `attempt` on `ProbeFailed` or `ProbeRetried`, or a retry announced
    /// for a resource with no streak).
    RetryMismatch {
        /// The chronon.
        t: Chronon,
        /// The resource.
        resource: ResourceId,
        /// Attempt number the event reported.
        reported: u32,
        /// Consecutive failures in the mirror.
        expected: u32,
    },
    /// More retries were announced in one chronon than the configured
    /// per-chronon quota allows.
    RetryQuotaExceeded {
        /// The chronon.
        t: Chronon,
        /// Retries announced so far this chronon (including this one).
        used: u32,
        /// The configured quota.
        quota: u32,
    },
    /// `ProbeFailed` charged (or waived) the probe's cost contrary to the
    /// declared failure accounting.
    FailureAccounting {
        /// The chronon.
        t: Chronon,
        /// The resource.
        resource: ResourceId,
        /// The `charged` flag the event reported.
        reported: bool,
        /// The flag the fault configuration prescribes.
        expected: bool,
    },
    /// `CeiShed` fired although committed outages leave the CEI's
    /// threshold reachable — or a natural window close already doomed it,
    /// which must report `CeiExpired` instead.
    SpuriousShed {
        /// The CEI.
        cei: CeiId,
        /// The shed chronon.
        at: Chronon,
    },
    /// Committed outage horizons made a CEI's threshold unreachable this
    /// chronon but no `CeiShed` fired.
    MissingShed {
        /// The CEI.
        cei: CeiId,
        /// The chronon whose outage commitments doomed the CEI.
        t: Chronon,
    },
    /// `CandidateSet` reported a pool size that differs from the mirror —
    /// e.g. the pool still holds EIs of expired or completed CEIs.
    CandidateSetMismatch {
        /// The chronon.
        t: Chronon,
        /// Size the event reported.
        reported: u32,
        /// Size of the mirrored pool.
        expected: u32,
    },
    /// `BudgetExhausted`'s deferred-candidate count differs from the mirror
    /// (a `reported` of zero means the expected event never fired).
    DeferredMismatch {
        /// The chronon.
        t: Chronon,
        /// Deferred count the event reported (0 = event missing).
        reported: u32,
        /// Deferred candidates in the mirrored pool.
        expected: u32,
    },
    /// A churn event (`CeiRegistered`, `CeiCancelled`, or
    /// `BudgetReconfigured`) has no matching effective entry in the
    /// declared [`MutationQueue`] at its
    /// chronon — it is undeclared, out of queue order, or re-mutates a CEI
    /// the mirror already saw resolve.
    UnexpectedMutation {
        /// The chronon.
        t: Chronon,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A declared mutation that should have drained at `t` (it was
    /// effective against the mirrored state) was never announced by the
    /// stream.
    MissingMutation {
        /// The drain chronon.
        t: Chronon,
        /// Human-readable description of the dropped mutation.
        detail: String,
    },
    /// The run ended before covering the instance's epoch.
    EpochTruncated {
        /// Chronons fully processed.
        chronons_seen: Chronon,
        /// The instance's epoch length `K`.
        expected: Chronon,
    },
    /// A CEI was reported completed, but the pure indicator `X(η, S)` over
    /// the accumulated probe schedule says it is not captured.
    IndicatorMismatch {
        /// The CEI.
        cei: CeiId,
    },
    /// The engine's [`RunResult`] disagrees with the mirrored state (only
    /// produced by [`InvariantObserver::finish_with`]).
    ResultDivergence {
        /// Human-readable description of the divergence.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Protocol { detail } => write!(f, "protocol: {detail}"),
            Violation::BudgetMismatch {
                t,
                reported,
                expected,
            } => write!(
                f,
                "t={t}: declared budget {reported} but the instance prescribes {expected}"
            ),
            Violation::BudgetExceeded { t, spent, budget } => {
                write!(f, "t={t}: probes cost {spent} > budget {budget}")
            }
            Violation::SpentMismatch {
                t,
                reported,
                observed,
            } => write!(
                f,
                "t={t}: ChrononEnd reported spent={reported} but probes summed to {observed}"
            ),
            Violation::CostMismatch {
                t,
                resource,
                reported,
                expected,
            } => write!(
                f,
                "t={t}: probe of {resource} reported cost {reported}, instance says {expected}"
            ),
            Violation::DuplicateSharedProbe { t, resource } => {
                write!(f, "t={t}: {resource} probed twice with sharing enabled")
            }
            Violation::ProbeOutsideWindow { t, resource } => {
                write!(f, "t={t}: probe of {resource} serves no live EI window")
            }
            Violation::FanoutMismatch {
                t,
                resource,
                reported,
                expected,
            } => write!(
                f,
                "t={t}: probe of {resource} reported fan-out {reported}, mirror says {expected}"
            ),
            Violation::CaptureCountMismatch {
                t,
                resource,
                expected,
                observed,
            } => write!(
                f,
                "t={t}: probe of {resource} produced {observed} captures, mirror expected {expected}"
            ),
            Violation::CaptureWithoutWindow { t, cei } => {
                write!(f, "t={t}: capture for {cei} matches no open window")
            }
            Violation::CompletionWithoutThreshold {
                cei,
                at,
                captured,
                required,
            } => write!(
                f,
                "{cei} completed at {at} with {captured}/{required} EIs captured"
            ),
            Violation::DuplicateCompletion { cei, at } => {
                write!(f, "{cei} completed twice (second at {at})")
            }
            Violation::MissingCompletion { cei, t } => {
                write!(f, "{cei} crossed its threshold at {t} without CeiCompleted")
            }
            Violation::ExpiredAfterCompletion { cei, at } => {
                write!(f, "{cei} expired at {at} after completing")
            }
            Violation::DuplicateExpiry { cei, at } => {
                write!(f, "{cei} expired twice (second at {at})")
            }
            Violation::SpuriousExpiry { cei, at } => {
                write!(f, "{cei} reported expired at {at} but is not doomed")
            }
            Violation::MissingExpiry { cei, t } => {
                write!(f, "{cei} became doomed at {t} without CeiExpired")
            }
            Violation::ProbeWhileDown { t, resource } => {
                write!(f, "t={t}: probe of {resource} inside an announced outage")
            }
            Violation::BackoffViolated {
                t,
                resource,
                allowed_at,
            } => write!(
                f,
                "t={t}: probe of {resource} before its backoff deadline {allowed_at}"
            ),
            Violation::RetryMismatch {
                t,
                resource,
                reported,
                expected,
            } => write!(
                f,
                "t={t}: attempt on {resource} reported streak {reported}, mirror says {expected}"
            ),
            Violation::RetryQuotaExceeded { t, used, quota } => {
                write!(f, "t={t}: {used} retries announced, quota allows {quota}")
            }
            Violation::FailureAccounting {
                t,
                resource,
                reported,
                expected,
            } => write!(
                f,
                "t={t}: failed probe of {resource} reported charged={reported}, config says {expected}"
            ),
            Violation::SpuriousShed { cei, at } => write!(
                f,
                "{cei} reported shed at {at} but its threshold is still reachable"
            ),
            Violation::MissingShed { cei, t } => write!(
                f,
                "{cei} became infeasible under committed outages at {t} without CeiShed"
            ),
            Violation::CandidateSetMismatch {
                t,
                reported,
                expected,
            } => write!(
                f,
                "t={t}: candidate set reported {reported} EIs, mirror says {expected}"
            ),
            Violation::DeferredMismatch {
                t,
                reported,
                expected,
            } => write!(
                f,
                "t={t}: BudgetExhausted reported {reported} deferred, mirror says {expected}"
            ),
            Violation::UnexpectedMutation { t, detail } => {
                write!(f, "t={t}: unexpected mutation event: {detail}")
            }
            Violation::MissingMutation { t, detail } => {
                write!(f, "t={t}: declared mutation never announced: {detail}")
            }
            Violation::EpochTruncated {
                chronons_seen,
                expected,
            } => write!(
                f,
                "run covered {chronons_seen} of {expected} epoch chronons"
            ),
            Violation::IndicatorMismatch { cei } => write!(
                f,
                "{cei} reported completed but X(η, S) over the probe schedule is 0"
            ),
            Violation::ResultDivergence { detail } => write!(f, "result divergence: {detail}"),
        }
    }
}

/// Outcome of a checked run: the violations found (empty for a conforming
/// run) plus summary counters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InvariantReport {
    /// Violations, in detection order, capped at an internal limit.
    pub violations: Vec<Violation>,
    /// Violations beyond the cap that were counted but not stored.
    pub suppressed: u64,
    /// Chronons fully processed (`ChrononStart` … `ChrononEnd` pairs).
    pub chronons: Chronon,
    /// Probes observed.
    pub probes: u64,
    /// EI captures observed.
    pub captures: u64,
}

impl InvariantReport {
    /// `true` iff no invariant violation was detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Panics with the full violation list unless the report is clean.
    /// Convenience for tests and CI gates.
    ///
    /// # Panics
    /// Panics if any violation was recorded, listing them all.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "invariant violations detected:\n{self}");
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "clean: {} chronons, {} probes, {} captures",
                self.chronons, self.probes, self.captures
            );
        }
        writeln!(
            f,
            "{} violation(s) ({} suppressed) over {} chronons:",
            self.violations.len(),
            self.suppressed,
            self.chronons
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Per-CEI mirrored lifecycle state.
#[derive(Debug, Clone)]
struct MirrorCei {
    captured: Vec<bool>,
    /// Chronon at which each EI was shed (marked unreachable inside a
    /// committed outage) while its natural window was still open, `None`
    /// while reachable. Shed EIs leave the candidate pool from the next
    /// chronon on, like naturally closed ones.
    early: Vec<Option<Chronon>>,
    n_captured: u16,
    completed_at: Option<Chronon>,
    failed_at: Option<Chronon>,
    /// Chronon from which the engine considers the CEI registered:
    /// `Some(0)` for statically released CEIs, `None` for CEIs declared
    /// dynamic by the mutation script until their `CeiRegistered` arrives.
    registered_at: Option<Chronon>,
    /// Chronon of the CEI's `CeiCancelled` event, if any.
    cancelled_at: Option<Chronon>,
}

impl MirrorCei {
    fn live(&self) -> bool {
        self.completed_at.is_none() && self.failed_at.is_none() && self.cancelled_at.is_none()
    }
}

/// An [`Observer`] that validates the engine's event stream against the
/// instance's declarative invariants. See the [module docs](crate::check)
/// for the full invariant list and an example.
///
/// Construct one per run, drive it through
/// [`OnlineEngine::run_observed`](crate::engine::OnlineEngine::run_observed)
/// (alone or inside a [`Tee`](crate::obs::Tee)), then call
/// [`finish`](Self::finish) — or [`finish_with`](Self::finish_with) to also
/// cross-check the engine's [`RunResult`] against the mirrored state.
#[derive(Debug)]
pub struct InvariantObserver<'a> {
    instance: &'a Instance,
    share_probes: bool,
    fault_config: FaultConfig,

    // Chronon-scoped state.
    t_open: Option<Chronon>,
    next_t: Chronon,
    budget_now: u32,
    spent_now: u32,
    probed_now: Vec<bool>,
    expected_pool: u32,
    candidate_set_seen: bool,
    expected_deferred: Option<u32>,
    deferred_reported: bool,
    last_probe: Option<(ResourceId, u32)>,
    captures_since_probe: u32,
    pending_completion: Vec<CeiId>,
    expired_this_chronon: Vec<CeiId>,
    shed_this_chronon: Vec<CeiId>,
    retries_used: u32,
    pending_retry: Option<(ResourceId, u32)>,

    // Run-scoped mirror.
    ceis: Vec<MirrorCei>,
    schedule: Schedule,
    probes_seen: u64,
    captures_seen: u64,
    // Fault mirror: announced outage horizons, failure streaks, and the
    // earliest chronon each resource may be re-attempted under backoff.
    down_until: Vec<Option<Chronon>>,
    consec_failures: Vec<u32>,
    next_attempt_at: Vec<Chronon>,
    probes_failed_seen: u64,
    budget_lost_seen: u64,
    sheds_seen: u64,
    // Churn mirror: the declared mutation script bucketed by drain
    // chronon, a cursor into the open chronon's bucket, and the mirrored
    // budget trajectory (a drained `SetBudget` becomes effective exactly
    // at the next `ChrononStart`).
    mutation_buckets: Vec<Vec<Mutation>>,
    mutation_cursor: usize,
    budget_override: Option<u32>,
    pending_budget: Option<u32>,

    violations: Vec<Violation>,
    suppressed: u64,
}

impl<'a> InvariantObserver<'a> {
    /// A fresh checker for one run of `instance` under `config` (only
    /// `config.share_probes` affects the invariants; selection strategy and
    /// preemption do not).
    pub fn new(instance: &'a Instance, config: EngineConfig) -> Self {
        let n_res = instance.n_resources as usize;
        InvariantObserver {
            instance,
            share_probes: config.share_probes,
            fault_config: FaultConfig::default(),
            t_open: None,
            next_t: 0,
            budget_now: 0,
            spent_now: 0,
            probed_now: vec![false; n_res],
            expected_pool: 0,
            candidate_set_seen: false,
            expected_deferred: None,
            deferred_reported: false,
            last_probe: None,
            captures_since_probe: 0,
            pending_completion: Vec::new(),
            expired_this_chronon: Vec::new(),
            shed_this_chronon: Vec::new(),
            retries_used: 0,
            pending_retry: None,
            ceis: instance
                .ceis
                .iter()
                .map(|c| MirrorCei {
                    captured: vec![false; c.size()],
                    early: vec![None; c.size()],
                    n_captured: 0,
                    completed_at: None,
                    failed_at: None,
                    registered_at: Some(0),
                    cancelled_at: None,
                })
                .collect(),
            schedule: Schedule::new(instance.n_resources, instance.epoch),
            probes_seen: 0,
            captures_seen: 0,
            down_until: vec![None; n_res],
            consec_failures: vec![0; n_res],
            next_attempt_at: vec![0; n_res],
            probes_failed_seen: 0,
            budget_lost_seen: 0,
            sheds_seen: 0,
            mutation_buckets: Vec::new(),
            mutation_cursor: 0,
            budget_override: None,
            pending_budget: None,
            violations: Vec::new(),
            suppressed: 0,
        }
    }

    /// Declares the fault configuration the checked run used, so failure
    /// charging, backoff deadlines, and the retry quota can be enforced.
    /// Runs driven without faults need no declaration: the default
    /// configuration is consistent with fault-free streams.
    pub fn with_faults(mut self, fault_config: FaultConfig) -> Self {
        self.fault_config = fault_config;
        self
    }

    /// Declares the [`MutationQueue`] the checked run drains, enabling the
    /// churn invariants: every announced registration, cancellation, and
    /// reconfiguration must match the script's next effective entry at its
    /// drain chronon, every effective entry must be announced, CEIs the
    /// script registers enter the candidate pool only from their
    /// registration chronon, and budget reconfigurations take effect
    /// exactly one chronon after draining. Runs driven without mutations
    /// need no declaration.
    pub fn with_mutations(mut self, mutations: &MutationQueue) -> Self {
        self.mutation_buckets = mutations.bucketed(self.instance.epoch.len());
        for (i, dynamic) in mutations
            .dynamic_flags(self.ceis.len())
            .into_iter()
            .enumerate()
        {
            if dynamic {
                self.ceis[i].registered_at = None;
            }
        }
        self
    }

    /// Violations detected so far (the run can still be in flight).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The probe schedule accumulated from `ProbeIssued` events.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    fn report(&mut self, v: Violation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.suppressed += 1;
        }
    }

    fn protocol(&mut self, detail: String) {
        self.report(Violation::Protocol { detail });
    }

    /// `true` iff EI `k` of CEI `i` is a live candidate at `t` in the
    /// mirror: parent registered and unresolved (not cancelled), window
    /// open, not yet captured, not shed into a committed outage. For CEIs
    /// resolved in earlier chronons this coincides with membership in the
    /// engine's compacted pool.
    fn is_live_candidate(&self, i: usize, k: usize, t: Chronon) -> bool {
        let m = &self.ceis[i];
        let ei = self.instance.ceis[i].eis[k];
        m.live()
            && m.registered_at.is_some()
            && !m.captured[k]
            && m.early[k].is_none()
            && ei.start <= t
            && t <= ei.end
    }

    /// Mirrored candidate-pool size at `t` (over all resources).
    fn pool_size(&self, t: Chronon) -> u32 {
        let mut n = 0u32;
        for i in 0..self.ceis.len() {
            for k in 0..self.ceis[i].captured.len() {
                if self.is_live_candidate(i, k, t) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Mirrored count of EIs a shared probe of `resource` at `t` captures.
    fn capturable_on(&self, resource: ResourceId, t: Chronon) -> u32 {
        let mut n = 0u32;
        for i in 0..self.ceis.len() {
            for k in 0..self.ceis[i].captured.len() {
                if self.instance.ceis[i].eis[k].resource == resource
                    && self.is_live_candidate(i, k, t)
                {
                    n += 1;
                }
            }
        }
        n
    }

    /// Mirrored count of live candidates left unserved this chronon (the
    /// `deferred` field of [`Event::BudgetExhausted`]).
    fn deferred_now(&self, t: Chronon) -> u32 {
        let mut n = 0u32;
        for i in 0..self.ceis.len() {
            for k in 0..self.ceis[i].captured.len() {
                let r = self.instance.ceis[i].eis[k].resource;
                let served = self.share_probes && self.probed_now[r.index()];
                if !served && self.is_live_candidate(i, k, t) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Mirrored count of live candidates on `resource` whose windows
    /// opened strictly before `t` — the engine's index contents during the
    /// mutation drain, before the chronon's `starts[t]` insertions.
    fn live_on_before_starts(&self, resource: ResourceId, t: Chronon) -> u32 {
        let mut n = 0u32;
        for i in 0..self.ceis.len() {
            for (k, ei) in self.instance.ceis[i].eis.iter().enumerate() {
                if ei.resource == resource && ei.start < t && self.is_live_candidate(i, k, t) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Whether a declared mutation would drain as a no-op against the
    /// mirrored state (and therefore announces no event).
    fn mutation_is_noop(&self, m: Mutation) -> bool {
        match m {
            Mutation::Register { cei } => match self.ceis.get(cei.index()) {
                Some(mc) => mc.registered_at.is_some() || !mc.live(),
                None => true,
            },
            Mutation::Cancel { cei } => match self.ceis.get(cei.index()) {
                Some(mc) => !mc.live(),
                None => true,
            },
            Mutation::SetBudget { .. } => false,
        }
    }

    /// Consumes the next effective entry of the open chronon's declared
    /// mutation script; it must equal the announced mutation. Reports an
    /// [`Violation::UnexpectedMutation`] on any mismatch.
    fn expect_mutation(&mut self, t: Chronon, announced: Mutation, kind: &'static str) {
        loop {
            let m = match self
                .mutation_buckets
                .get(t as usize)
                .and_then(|b| b.get(self.mutation_cursor))
            {
                Some(&m) => m,
                None => {
                    self.report(Violation::UnexpectedMutation {
                        t,
                        detail: format!("{kind} is not declared by the script for this chronon"),
                    });
                    return;
                }
            };
            self.mutation_cursor += 1;
            if self.mutation_is_noop(m) {
                continue;
            }
            if m == announced {
                return;
            }
            self.report(Violation::UnexpectedMutation {
                t,
                detail: format!("{kind} announced, but the script's next effective entry is {m:?}"),
            });
            return;
        }
    }

    /// Drains the remainder of the closing chronon's declared script:
    /// every entry still effective against the mirrored state was never
    /// announced by the stream. The mirror does not apply the dropped
    /// effect — it stays aligned with the engine state the stream
    /// describes, so one dropped mutation yields one violation rather than
    /// a cascade.
    fn flush_mutation_script(&mut self, t: Chronon) {
        loop {
            let m = match self
                .mutation_buckets
                .get(t as usize)
                .and_then(|b| b.get(self.mutation_cursor))
            {
                Some(&m) => m,
                None => return,
            };
            self.mutation_cursor += 1;
            if self.mutation_is_noop(m) {
                continue;
            }
            self.report(Violation::MissingMutation {
                t,
                detail: format!("{m:?} drained without an announcing event"),
            });
        }
    }

    fn on_cei_registered(&mut self, cei: CeiId, at: Chronon) {
        if self.open_chronon(at, "CeiRegistered").is_none() {
            return;
        }
        let i = cei.index();
        if i >= self.ceis.len() {
            self.protocol(format!("CeiRegistered references unknown {cei}"));
            return;
        }
        self.expect_mutation(at, Mutation::Register { cei }, "CeiRegistered");
        if self.ceis[i].registered_at.is_none() {
            self.ceis[i].registered_at = Some(at);
        }
        // Registration reshapes the pool the engine freezes for this
        // chronon's `CandidateSet`: re-snapshot it.
        if !self.candidate_set_seen {
            self.expected_pool = self.pool_size(at);
        }
    }

    fn on_cei_cancelled(&mut self, cei: CeiId, at: Chronon) {
        if self.open_chronon(at, "CeiCancelled").is_none() {
            return;
        }
        let i = cei.index();
        if i >= self.ceis.len() {
            self.protocol(format!("CeiCancelled references unknown {cei}"));
            return;
        }
        self.expect_mutation(at, Mutation::Cancel { cei }, "CeiCancelled");
        if !self.ceis[i].live() {
            self.report(Violation::UnexpectedMutation {
                t: at,
                detail: format!("{cei} cancelled after resolving"),
            });
            return;
        }
        self.ceis[i].cancelled_at = Some(at);
        if !self.candidate_set_seen {
            self.expected_pool = self.pool_size(at);
        }
        // Cancellation clears retry state on every resource it emptied:
        // the engine checks its index during the drain, before the
        // chronon's `starts[t]` insertions, so only windows opened
        // strictly before `at` count as still-live occupancy.
        for k in 0..self.instance.ceis[i].eis.len() {
            let r = self.instance.ceis[i].eis[k].resource;
            if self.consec_failures[r.index()] > 0 && self.live_on_before_starts(r, at) == 0 {
                self.consec_failures[r.index()] = 0;
                self.next_attempt_at[r.index()] = 0;
            }
        }
    }

    fn on_budget_reconfigured(&mut self, t: Chronon, budget: u32) {
        if self.open_chronon(t, "BudgetReconfigured").is_none() {
            return;
        }
        self.expect_mutation(t, Mutation::SetBudget { budget }, "BudgetReconfigured");
        // Effective exactly at the next chronon: the mirror folds it into
        // `budget_override` at the next `ChrononStart`, so an engine that
        // applies it earlier or later diverges as a BudgetMismatch there.
        self.pending_budget = Some(budget);
    }

    /// Closes out the previous probe: its capture fan-out must match the
    /// mirror, and every threshold crossing must have produced a
    /// `CeiCompleted` by now.
    fn flush_probe(&mut self, t: Chronon) {
        if let Some((resource, expected)) = self.last_probe.take() {
            if self.captures_since_probe != expected {
                let observed = self.captures_since_probe;
                self.report(Violation::CaptureCountMismatch {
                    t,
                    resource,
                    expected,
                    observed,
                });
            }
        }
        self.captures_since_probe = 0;
        let pending = std::mem::take(&mut self.pending_completion);
        for cei in pending {
            self.report(Violation::MissingCompletion { cei, t });
        }
    }

    fn on_chronon_start(&mut self, t: Chronon, budget: u32) {
        if let Some(prev) = self.t_open {
            self.protocol(format!("chronon {prev} never closed before {t} opened"));
        }
        if t != self.next_t {
            let expected = self.next_t;
            self.protocol(format!("chronon {t} opened, expected {expected}"));
        }
        // A reconfiguration drained in the previous chronon becomes the
        // effective budget exactly now; a stream applying it any earlier
        // or later surfaces here as a BudgetMismatch.
        if let Some(b) = self.pending_budget.take() {
            self.budget_override = Some(b);
        }
        let prescribed = self
            .budget_override
            .unwrap_or_else(|| self.instance.budget.at(t));
        if budget != prescribed {
            self.report(Violation::BudgetMismatch {
                t,
                reported: budget,
                expected: prescribed,
            });
        }
        self.t_open = Some(t);
        self.budget_now = budget;
        self.spent_now = 0;
        self.probed_now.fill(false);
        self.candidate_set_seen = false;
        self.expected_deferred = None;
        self.deferred_reported = false;
        self.last_probe = None;
        self.captures_since_probe = 0;
        self.expired_this_chronon.clear();
        self.shed_this_chronon.clear();
        self.retries_used = 0;
        self.pending_retry = None;
        self.mutation_cursor = 0;
        // Snapshot the pool the engine's compaction produces at the top of
        // this chronon; `CandidateSet` (emitted after probing, from the
        // untouched pool vector) must report exactly this.
        self.expected_pool = self.pool_size(t);
    }

    /// Checks an event's chronon tag against the open chronon; reports and
    /// returns `None` when the stream is out of order.
    fn open_chronon(&mut self, t: Chronon, kind: &'static str) -> Option<Chronon> {
        match self.t_open {
            Some(open) if open == t => Some(open),
            Some(open) => {
                self.protocol(format!("{kind} tagged t={t} inside chronon {open}"));
                None
            }
            None => {
                self.protocol(format!("{kind} at t={t} outside any open chronon"));
                None
            }
        }
    }

    fn on_probe(&mut self, t: Chronon, resource: ResourceId, cost: u32, shared_eis: u32) {
        if self.open_chronon(t, "ProbeIssued").is_none() {
            return;
        }
        self.flush_probe(t);
        // A corrupt stream may reference chronons or resources outside the
        // instance; report instead of indexing out of bounds.
        if resource.index() >= self.probed_now.len() || !self.instance.epoch.contains(t) {
            self.protocol(format!("probe of {resource} at t={t} outside the instance"));
            return;
        }
        self.check_attempt_admissible(t, resource);
        let streak = self.consec_failures[resource.index()];
        self.check_retry_pairing(t, resource, streak, "probe");
        self.consec_failures[resource.index()] = 0;
        let prescribed = self.instance.costs.of(resource);
        if cost != prescribed {
            self.report(Violation::CostMismatch {
                t,
                resource,
                reported: cost,
                expected: prescribed,
            });
        }
        if self.spent_now + cost > self.budget_now {
            self.report(Violation::BudgetExceeded {
                t,
                spent: self.spent_now + cost,
                budget: self.budget_now,
            });
        }
        if self.share_probes && self.probed_now[resource.index()] {
            self.report(Violation::DuplicateSharedProbe { t, resource });
        }
        let capturable = self.capturable_on(resource, t);
        if capturable == 0 {
            self.report(Violation::ProbeOutsideWindow { t, resource });
        }
        // With sharing, the reported fan-out and the following captures
        // both equal the capturable count; without it, a probe serves
        // exactly the one EI it was issued for.
        let expected_captures = if self.share_probes {
            if shared_eis != capturable {
                self.report(Violation::FanoutMismatch {
                    t,
                    resource,
                    reported: shared_eis,
                    expected: capturable,
                });
            }
            capturable
        } else {
            if shared_eis != 1 {
                self.report(Violation::FanoutMismatch {
                    t,
                    resource,
                    reported: shared_eis,
                    expected: 1,
                });
            }
            capturable.min(1)
        };
        self.spent_now += cost;
        self.probed_now[resource.index()] = true;
        self.probes_seen += 1;
        self.schedule.probe(resource, t);
        self.last_probe = Some((resource, expected_captures));
    }

    fn on_ei_captured(&mut self, t: Chronon, cei: CeiId, latency: u32) {
        if self.open_chronon(t, "EiCaptured").is_none() {
            return;
        }
        let Some((resource, _)) = self.last_probe else {
            self.protocol(format!("EiCaptured for {cei} at t={t} with no probe"));
            return;
        };
        self.captures_since_probe += 1;
        let i = cei.index();
        if i >= self.ceis.len() {
            self.protocol(format!("EiCaptured references unknown {cei}"));
            return;
        }
        // Attribute the event to the first uncaptured EI of this CEI on the
        // probed resource whose open window matches the reported latency.
        let matched = (0..self.ceis[i].captured.len()).find(|&k| {
            let ei = self.instance.ceis[i].eis[k];
            ei.resource == resource && self.is_live_candidate(i, k, t) && t - ei.start == latency
        });
        let Some(k) = matched else {
            self.report(Violation::CaptureWithoutWindow { t, cei });
            return;
        };
        let m = &mut self.ceis[i];
        m.captured[k] = true;
        m.n_captured += 1;
        self.captures_seen += 1;
        if m.n_captured == self.instance.ceis[i].required {
            self.pending_completion.push(cei);
        }
    }

    fn on_cei_completed(&mut self, cei: CeiId, at: Chronon) {
        if self.open_chronon(at, "CeiCompleted").is_none() {
            return;
        }
        let i = cei.index();
        if i >= self.ceis.len() {
            self.protocol(format!("CeiCompleted references unknown {cei}"));
            return;
        }
        if self.ceis[i].completed_at.is_some() {
            self.report(Violation::DuplicateCompletion { cei, at });
            return;
        }
        let required = self.instance.ceis[i].required;
        if self.ceis[i].n_captured < required || self.ceis[i].failed_at.is_some() {
            let captured = self.ceis[i].n_captured;
            self.report(Violation::CompletionWithoutThreshold {
                cei,
                at,
                captured,
                required,
            });
        }
        self.pending_completion.retain(|&c| c != cei);
        self.ceis[i].completed_at = Some(at);
    }

    fn on_cei_expired(&mut self, cei: CeiId, at: Chronon) {
        if self.open_chronon(at, "CeiExpired").is_none() {
            return;
        }
        self.flush_probe(at);
        let i = cei.index();
        if i >= self.ceis.len() {
            self.protocol(format!("CeiExpired references unknown {cei}"));
            return;
        }
        if self.ceis[i].completed_at.is_some() {
            self.report(Violation::ExpiredAfterCompletion { cei, at });
            return;
        }
        if self.ceis[i].failed_at.is_some() {
            self.report(Violation::DuplicateExpiry { cei, at });
            return;
        }
        self.ceis[i].failed_at = Some(at);
        self.expired_this_chronon.push(cei);
        // A registration whose already-closed windows doom the CEI expires
        // during the mutation drain, before the chronon's `CandidateSet`
        // freezes — re-snapshot the pool the engine will report.
        if !self.candidate_set_seen {
            self.expected_pool = self.pool_size(at);
        }
    }

    /// A probe attempt (successful or failed) must not target a resource
    /// inside an announced outage or before its backoff deadline.
    fn check_attempt_admissible(&mut self, t: Chronon, resource: ResourceId) {
        if self.down_until[resource.index()].is_some() {
            self.report(Violation::ProbeWhileDown { t, resource });
        }
        let allowed_at = self.next_attempt_at[resource.index()];
        if t < allowed_at {
            self.report(Violation::BackoffViolated {
                t,
                resource,
                allowed_at,
            });
        }
    }

    /// Consumes the pending [`Event::ProbeRetried`] announcement: an
    /// attempt with a failure streak must follow one naming the same
    /// resource and streak; a fresh attempt must not follow one at all.
    fn check_retry_pairing(&mut self, t: Chronon, resource: ResourceId, attempt: u32, kind: &str) {
        match self.pending_retry.take() {
            Some((r, a)) if r == resource && a == attempt && attempt > 0 => {}
            Some((r, a)) => self.protocol(format!(
                "{kind} of {resource} (attempt {attempt}) at t={t} follows a ProbeRetried for {r} (attempt {a})"
            )),
            None if attempt > 0 => self.protocol(format!(
                "{kind} of {resource} at t={t} retries (attempt {attempt}) without ProbeRetried"
            )),
            None => {}
        }
    }

    fn on_probe_failed(
        &mut self,
        t: Chronon,
        resource: ResourceId,
        cost: u32,
        attempt: u32,
        charged: bool,
    ) {
        if self.open_chronon(t, "ProbeFailed").is_none() {
            return;
        }
        self.flush_probe(t);
        if resource.index() >= self.probed_now.len() || !self.instance.epoch.contains(t) {
            self.protocol(format!(
                "failed probe of {resource} at t={t} outside the instance"
            ));
            return;
        }
        let prescribed = self.instance.costs.of(resource);
        if cost != prescribed {
            self.report(Violation::CostMismatch {
                t,
                resource,
                reported: cost,
                expected: prescribed,
            });
        }
        let expected_charge = self.fault_config.failures_cost;
        if charged != expected_charge {
            self.report(Violation::FailureAccounting {
                t,
                resource,
                reported: charged,
                expected: expected_charge,
            });
        }
        self.check_attempt_admissible(t, resource);
        // A failed probe still spends a selection slot: it must have been
        // aimed at a live candidate, like a successful one.
        if self.capturable_on(resource, t) == 0 {
            self.report(Violation::ProbeOutsideWindow { t, resource });
        }
        let streak = self.consec_failures[resource.index()];
        if attempt != streak {
            self.report(Violation::RetryMismatch {
                t,
                resource,
                reported: attempt,
                expected: streak,
            });
        }
        self.check_retry_pairing(t, resource, attempt, "failed probe");
        if charged {
            if self.spent_now + cost > self.budget_now {
                self.report(Violation::BudgetExceeded {
                    t,
                    spent: self.spent_now + cost,
                    budget: self.budget_now,
                });
            }
            self.spent_now += cost;
            self.budget_lost_seen += u64::from(cost);
        }
        self.consec_failures[resource.index()] = streak + 1;
        if let Some(backoff) = self.fault_config.backoff {
            self.next_attempt_at[resource.index()] = t.saturating_add(backoff.delay(streak + 1));
        }
        self.probes_failed_seen += 1;
    }

    fn on_probe_retried(&mut self, t: Chronon, resource: ResourceId, attempt: u32) {
        if self.open_chronon(t, "ProbeRetried").is_none() {
            return;
        }
        if resource.index() >= self.probed_now.len() {
            self.protocol(format!(
                "ProbeRetried for {resource} at t={t} outside the instance"
            ));
            return;
        }
        let expected = self.consec_failures[resource.index()];
        if attempt == 0 || attempt != expected {
            self.report(Violation::RetryMismatch {
                t,
                resource,
                reported: attempt,
                expected,
            });
        }
        if let Some((r, a)) = self.pending_retry.replace((resource, attempt)) {
            self.protocol(format!(
                "ProbeRetried for {resource} at t={t} while {r} (attempt {a}) is still pending"
            ));
        }
        self.retries_used += 1;
        if let Some(quota) = self.fault_config.retry_quota {
            if self.retries_used > quota {
                let used = self.retries_used;
                self.report(Violation::RetryQuotaExceeded { t, used, quota });
            }
        }
    }

    fn on_resource_down(&mut self, t: Chronon, resource: ResourceId, until: Chronon) {
        if self.open_chronon(t, "ResourceDown").is_none() {
            return;
        }
        if resource.index() >= self.probed_now.len() {
            self.protocol(format!(
                "ResourceDown for {resource} at t={t} outside the instance"
            ));
            return;
        }
        if until < t {
            self.protocol(format!(
                "ResourceDown for {resource} at t={t} commits to the past (until={until})"
            ));
            return;
        }
        // Re-announcements must extend the committed horizon: a fault
        // model's commitment never shrinks, and an unchanged one stays
        // silent.
        if let Some(prev) = self.down_until[resource.index()] {
            if until <= prev {
                self.protocol(format!(
                    "ResourceDown for {resource} at t={t} re-announced horizon {until} (was {prev})"
                ));
            }
        }
        self.down_until[resource.index()] = Some(until);
    }

    fn on_resource_up(&mut self, t: Chronon, resource: ResourceId) {
        if self.open_chronon(t, "ResourceUp").is_none() {
            return;
        }
        if resource.index() >= self.probed_now.len() {
            self.protocol(format!(
                "ResourceUp for {resource} at t={t} outside the instance"
            ));
            return;
        }
        match self.down_until[resource.index()].take() {
            None => self.protocol(format!("ResourceUp for {resource} at t={t} while not down")),
            Some(u) if u >= t => self.protocol(format!(
                "{resource} came up at t={t} inside its committed outage (until={u})"
            )),
            Some(_) => {}
        }
    }

    fn on_cei_shed(&mut self, cei: CeiId, at: Chronon) {
        if self.open_chronon(at, "CeiShed").is_none() {
            return;
        }
        self.flush_probe(at);
        let i = cei.index();
        if i >= self.ceis.len() {
            self.protocol(format!("CeiShed references unknown {cei}"));
            return;
        }
        if self.ceis[i].completed_at.is_some() {
            self.report(Violation::ExpiredAfterCompletion { cei, at });
            return;
        }
        if self.ceis[i].failed_at.is_some() {
            self.report(Violation::DuplicateExpiry { cei, at });
            return;
        }
        self.ceis[i].failed_at = Some(at);
        self.shed_this_chronon.push(cei);
        self.sheds_seen += 1;
    }

    fn on_candidate_set(&mut self, t: Chronon, size: u32) {
        if self.open_chronon(t, "CandidateSet").is_none() {
            return;
        }
        self.flush_probe(t);
        if self.candidate_set_seen {
            self.protocol(format!("duplicate CandidateSet in chronon {t}"));
            return;
        }
        self.candidate_set_seen = true;
        if size != self.expected_pool {
            let expected = self.expected_pool;
            self.report(Violation::CandidateSetMismatch {
                t,
                reported: size,
                expected,
            });
        }
        // The deferred count is evaluated here — after all probing, before
        // expiry — exactly where the engine computes it.
        self.expected_deferred = Some(self.deferred_now(t));
    }

    fn on_budget_exhausted(&mut self, t: Chronon, deferred: u32) {
        if self.open_chronon(t, "BudgetExhausted").is_none() {
            return;
        }
        let Some(expected) = self.expected_deferred else {
            self.protocol(format!("BudgetExhausted before CandidateSet at t={t}"));
            return;
        };
        self.deferred_reported = true;
        if deferred != expected || expected == 0 {
            self.report(Violation::DeferredMismatch {
                t,
                reported: deferred,
                expected,
            });
        }
    }

    fn on_chronon_end(&mut self, t: Chronon, spent: u32, budget: u32) {
        if self.open_chronon(t, "ChrononEnd").is_none() {
            return;
        }
        self.flush_probe(t);
        if !self.candidate_set_seen {
            self.protocol(format!("chronon {t} closed without a CandidateSet"));
        }
        if let Some(expected) = self.expected_deferred {
            if expected > 0 && !self.deferred_reported {
                self.report(Violation::DeferredMismatch {
                    t,
                    reported: 0,
                    expected,
                });
            }
        }
        if spent != self.spent_now {
            let observed = self.spent_now;
            self.report(Violation::SpentMismatch {
                t,
                reported: spent,
                observed,
            });
        }
        if budget != self.budget_now {
            let expected = self.budget_now;
            self.report(Violation::BudgetMismatch {
                t,
                reported: budget,
                expected,
            });
        }
        if let Some((r, a)) = self.pending_retry.take() {
            self.protocol(format!(
                "ProbeRetried for {r} (attempt {a}) with no following attempt in chronon {t}"
            ));
        }
        self.flush_mutation_script(t);
        self.check_expiries(t);
        self.t_open = None;
        self.next_t = t.wrapping_add(1);
    }

    /// Mirrors the engine's expiry and shed phases: a CEI must fail via
    /// `CeiExpired` exactly at the chronon where uncaptured window
    /// closings (including earlier shed marks) first make `required`
    /// captures unreachable, and via `CeiShed` exactly when this chronon's
    /// committed outage horizons — not natural closings — first do so.
    fn check_expiries(&mut self, t: Chronon) {
        let mut missing_expiry: Vec<CeiId> = Vec::new();
        let mut spurious_expiry: Vec<CeiId> = Vec::new();
        let mut missing_shed: Vec<CeiId> = Vec::new();
        let mut spurious_shed: Vec<CeiId> = Vec::new();
        let mut shed_marks: Vec<(usize, usize)> = Vec::new();
        for (i, cei) in self.instance.ceis.iter().enumerate() {
            let m = &self.ceis[i];
            if m.completed_at.is_some() {
                continue;
            }
            // Cancelled or never-registered CEIs are outside the engine's
            // lifecycle: no expiry or shed is ever announced for them.
            if m.cancelled_at.is_some() || m.registered_at.is_none() {
                continue;
            }
            let failed_now = m.failed_at == Some(t);
            if m.failed_at.is_some() && !failed_now {
                continue; // resolved in an earlier chronon
            }
            // Classify each uncaptured EI: closed before this chronon
            // (naturally or by an earlier shed mark), closing now, or
            // newly unreachable because its whole remaining window sits
            // inside a committed outage. EIs closing before `t` cannot
            // have been captured at `t`, so current capture flags are
            // valid for all counts.
            let mut closed_prev = 0usize;
            let mut closed_now = 0usize;
            let mut shed_now = 0usize;
            for (k, ei) in cei.eis.iter().enumerate() {
                if m.captured[k] {
                    continue;
                }
                if m.early[k].is_some() || ei.end < t {
                    closed_prev += 1;
                    closed_now += 1;
                } else if ei.end == t {
                    closed_now += 1;
                } else if ei.start <= t
                    && self.down_until[ei.resource.index()].is_some_and(|u| u >= ei.end)
                {
                    shed_now += 1;
                    shed_marks.push((i, k));
                }
            }
            let required = usize::from(cei.required);
            if cei.size() - closed_prev < required {
                continue; // already reported as missing at the earlier chronon
            }
            let doomed_nat = cei.size() - closed_now < required;
            let doomed_all = cei.size() - closed_now - shed_now < required;
            let was_expired = failed_now && self.expired_this_chronon.contains(&cei.id);
            let was_shed = failed_now && self.shed_this_chronon.contains(&cei.id);
            if doomed_nat {
                // Natural window closings own this failure: CeiExpired.
                if !was_expired {
                    missing_expiry.push(cei.id);
                }
                if was_shed {
                    spurious_shed.push(cei.id);
                }
            } else if doomed_all {
                // Only the outage commitments doom it: CeiShed.
                if !was_shed {
                    missing_shed.push(cei.id);
                }
                if was_expired {
                    spurious_expiry.push(cei.id);
                }
            } else {
                if was_expired {
                    spurious_expiry.push(cei.id);
                }
                if was_shed {
                    spurious_shed.push(cei.id);
                }
            }
        }
        // Persist the shed marks: the engine expires outage-doomed EIs
        // even when the CEI itself survives (threshold semantics),
        // removing them from every later candidate pool.
        for (i, k) in shed_marks {
            self.ceis[i].early[k] = Some(t);
        }
        for cei in missing_expiry {
            self.report(Violation::MissingExpiry { cei, t });
        }
        for cei in spurious_expiry {
            self.report(Violation::SpuriousExpiry { cei, at: t });
        }
        for cei in missing_shed {
            self.report(Violation::MissingShed { cei, t });
        }
        for cei in spurious_shed {
            self.report(Violation::SpuriousShed { cei, at: t });
        }
    }

    /// Finishes the stream-level checks and returns the report: the epoch
    /// must be fully covered, and every completed CEI must satisfy the pure
    /// capture indicator `X(η, S)` over the accumulated probe schedule.
    pub fn finish(mut self) -> InvariantReport {
        self.end_of_run_checks();
        InvariantReport {
            violations: self.violations,
            suppressed: self.suppressed,
            chronons: self.next_t,
            probes: self.probes_seen,
            captures: self.captures_seen,
        }
    }

    /// Like [`finish`](Self::finish), additionally cross-checking the
    /// engine's own [`RunResult`] — schedule, per-CEI outcomes, and
    /// aggregate statistics — against the mirrored state.
    pub fn finish_with(mut self, result: &RunResult) -> InvariantReport {
        self.end_of_run_checks();
        if result.schedule != self.schedule {
            self.report(Violation::ResultDivergence {
                detail: "engine schedule differs from the probes the stream announced".into(),
            });
        }
        if result.outcomes.len() != self.ceis.len() {
            let n = result.outcomes.len();
            self.report(Violation::ResultDivergence {
                detail: format!("{n} outcomes for {} CEIs", self.ceis.len()),
            });
        } else {
            for (i, outcome) in result.outcomes.iter().enumerate() {
                let m = &self.ceis[i];
                let mirrored = if let Some(at) = m.completed_at {
                    CeiOutcome::Captured { at }
                } else if let Some(at) = m.failed_at {
                    CeiOutcome::Failed { at }
                } else if let Some(at) = m.cancelled_at {
                    CeiOutcome::Cancelled { at }
                } else {
                    CeiOutcome::Pending
                };
                if *outcome != mirrored {
                    let id = self.instance.ceis[i].id;
                    self.report(Violation::ResultDivergence {
                        detail: format!("{id}: engine outcome {outcome:?}, mirror {mirrored:?}"),
                    });
                }
            }
        }
        let completed = self
            .ceis
            .iter()
            .filter(|m| m.completed_at.is_some())
            .count() as u64;
        let failed = self.ceis.iter().filter(|m| m.failed_at.is_some()).count() as u64;
        let cancelled = self
            .ceis
            .iter()
            .filter(|m| m.cancelled_at.is_some())
            .count() as u64;
        let checks = [
            ("probes_used", result.stats.probes_used, self.probes_seen),
            (
                "eis_captured",
                result.stats.eis_captured,
                self.captures_seen,
            ),
            ("ceis_captured", result.stats.ceis_captured, completed),
            ("ceis_failed", result.stats.ceis_failed, failed),
            (
                "probes_failed",
                result.stats.probes_failed,
                self.probes_failed_seen,
            ),
            (
                "budget_lost",
                result.stats.budget_lost,
                self.budget_lost_seen,
            ),
            ("ceis_shed", result.stats.ceis_shed, self.sheds_seen),
            ("ceis_cancelled", result.stats.ceis_cancelled, cancelled),
        ];
        for (name, engine, mirror) in checks {
            if engine != mirror {
                self.report(Violation::ResultDivergence {
                    detail: format!("stats.{name}: engine {engine}, mirror {mirror}"),
                });
            }
        }
        InvariantReport {
            violations: self.violations,
            suppressed: self.suppressed,
            chronons: self.next_t,
            probes: self.probes_seen,
            captures: self.captures_seen,
        }
    }

    fn end_of_run_checks(&mut self) {
        if let Some(t) = self.t_open {
            self.protocol(format!("chronon {t} still open at end of run"));
        }
        let horizon = self.instance.epoch.len();
        if self.next_t != horizon {
            self.report(Violation::EpochTruncated {
                chronons_seen: self.next_t,
                expected: horizon,
            });
        }
        for i in 0..self.ceis.len() {
            if self.ceis[i].completed_at.is_some()
                && !mirror_indicator(&self.instance.ceis[i], self)
            {
                let cei = self.instance.ceis[i].id;
                self.report(Violation::IndicatorMismatch { cei });
            }
        }
    }
}

/// `X(η, S)` restricted to the EIs the mirror saw captured — every mirrored
/// capture must be justified by a probe in that EI's window.
fn mirror_indicator(cei: &Cei, obs: &InvariantObserver<'_>) -> bool {
    let m = &obs.ceis[cei.id.index()];
    let mut justified = 0u16;
    for (k, &ei) in cei.eis.iter().enumerate() {
        if m.captured[k] && ei_captured(ei, &obs.schedule) {
            justified += 1;
        }
    }
    justified >= cei.required
}

impl Observer for InvariantObserver<'_> {
    fn on_event(&mut self, event: Event) {
        match event {
            Event::ChrononStart { t, budget } => self.on_chronon_start(t, budget),
            Event::CandidateSet { t, size, .. } => self.on_candidate_set(t, size),
            Event::ProbeIssued {
                t,
                resource,
                cost,
                shared_eis,
            } => self.on_probe(t, resource, cost, shared_eis),
            Event::EiCaptured { t, cei, latency } => self.on_ei_captured(t, cei, latency),
            Event::CeiCompleted { cei, at } => self.on_cei_completed(cei, at),
            Event::CeiExpired { cei, at } => self.on_cei_expired(cei, at),
            Event::BudgetExhausted { t, deferred } => self.on_budget_exhausted(t, deferred),
            Event::ChrononEnd { t, spent, budget } => self.on_chronon_end(t, spent, budget),
            Event::ProbeFailed {
                t,
                resource,
                cost,
                attempt,
                charged,
            } => self.on_probe_failed(t, resource, cost, attempt, charged),
            Event::ProbeRetried {
                t,
                resource,
                attempt,
            } => self.on_probe_retried(t, resource, attempt),
            Event::ResourceDown { t, resource, until } => self.on_resource_down(t, resource, until),
            Event::ResourceUp { t, resource } => self.on_resource_up(t, resource),
            Event::CeiShed { cei, at } => self.on_cei_shed(cei, at),
            Event::CeiRegistered { cei, at } => self.on_cei_registered(cei, at),
            Event::CeiCancelled { cei, at } => self.on_cei_cancelled(cei, at),
            Event::BudgetReconfigured { t, budget } => self.on_budget_reconfigured(t, budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OnlineEngine;
    use crate::fault::{Backoff, GilbertElliott, IidFaults, NoFaults, RateLimit};
    use crate::model::{Budget, InstanceBuilder, ProbeCosts};
    use crate::policy::{MEdf, Mrsf, Policy, SEdf, Wic};

    /// A contended mixed instance: staggered AND CEIs, a threshold CEI, an
    /// explicit release, and intra-resource overlap.
    fn mixed_instance(budget: u32) -> Instance {
        let mut b = InstanceBuilder::new(4, 24, Budget::Uniform(budget));
        let p = b.profile();
        b.cei(p, &[(0, 0, 4)]);
        b.cei(p, &[(1, 0, 2), (2, 10, 12)]);
        b.cei(p, &[(0, 6, 9), (1, 6, 9), (3, 7, 9)]);
        b.cei_threshold(p, 2, &[(0, 12, 15), (1, 12, 15), (2, 14, 17)]);
        b.cei(p, &[(3, 18, 18), (2, 18, 20)]);
        b.cei_released(p, 1, &[(0, 3, 3), (1, 3, 3)]);
        b.cei(p, &[(0, 14, 14), (0, 14, 14)]);
        b.build()
    }

    fn checked_run(instance: &Instance, policy: &dyn Policy, config: EngineConfig) {
        let mut obs = InvariantObserver::new(instance, config);
        let run = OnlineEngine::run_observed(instance, policy, config, &mut obs);
        let report = obs.finish_with(&run);
        report.assert_clean();
        assert_eq!(report.chronons, instance.epoch.len());
        assert_eq!(report.probes, run.stats.probes_used);
    }

    #[test]
    fn clean_runs_produce_clean_reports() {
        for budget in [0, 1, 2] {
            let instance = mixed_instance(budget);
            for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
                for config in [
                    EngineConfig::preemptive(),
                    EngineConfig::non_preemptive(),
                    EngineConfig::preemptive().with_scan(),
                    EngineConfig::preemptive().without_probe_sharing(),
                    EngineConfig::non_preemptive().without_probe_sharing(),
                ] {
                    checked_run(&instance, policy, config);
                }
            }
        }
    }

    #[test]
    fn clean_under_varying_costs_and_per_chronon_budgets() {
        let mut b = InstanceBuilder::new(
            3,
            10,
            Budget::PerChronon(vec![0, 2, 1, 1, 3, 0, 1, 1, 2, 1]),
        );
        let p = b.profile();
        b.cei(p, &[(0, 1, 3)]);
        b.cei(p, &[(1, 2, 5), (2, 4, 8)]);
        b.cei_threshold(p, 1, &[(0, 6, 9), (1, 6, 9)]);
        let instance = b
            .build()
            .with_costs(ProbeCosts::per_resource(vec![1, 2, 1]));
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            checked_run(&instance, &Mrsf, config);
        }
    }

    /// Replays a run's true event stream with one event swapped/dropped by
    /// `mutate`, and returns the resulting report.
    fn mutated_report(
        instance: &Instance,
        config: EngineConfig,
        mutate: impl Fn(Vec<Event>) -> Vec<Event>,
    ) -> InvariantReport {
        mutated_faulted_report(instance, config, FaultConfig::default(), mutate)
    }

    /// Like [`mutated_report`], with the checker declaring `fault_config`.
    fn mutated_faulted_report(
        instance: &Instance,
        config: EngineConfig,
        fault_config: FaultConfig,
        mutate: impl Fn(Vec<Event>) -> Vec<Event>,
    ) -> InvariantReport {
        struct Rec(Vec<Event>);
        impl Observer for Rec {
            fn on_event(&mut self, event: Event) {
                self.0.push(event);
            }
        }
        let mut rec = Rec(Vec::new());
        OnlineEngine::run_observed(instance, &Mrsf, config, &mut rec);
        let events = mutate(rec.0);
        let mut checker = InvariantObserver::new(instance, config).with_faults(fault_config);
        for e in events {
            checker.on_event(e);
        }
        checker.finish()
    }

    /// Position, chronon, and resource of the stream's first probe.
    fn first_probe(ev: &[Event]) -> (usize, Chronon, ResourceId) {
        let at = ev
            .iter()
            .position(|e| matches!(e, Event::ProbeIssued { .. }))
            .unwrap();
        let Event::ProbeIssued { t, resource, .. } = ev[at] else {
            unreachable!()
        };
        (at, t, resource)
    }

    /// The true stream passes; this is the control for the mutation tests.
    #[test]
    fn unmutated_replay_is_clean() {
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |e| e);
        report.assert_clean();
    }

    #[test]
    fn probe_outside_any_window_is_flagged() {
        // Chronon 21 has no open windows on resource 3 in mixed_instance.
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            let at = ev
                .iter()
                .position(|e| matches!(e, Event::ChrononStart { t: 21, .. }))
                .unwrap();
            ev.insert(
                at + 1,
                Event::ProbeIssued {
                    t: 21,
                    resource: ResourceId(3),
                    cost: 1,
                    shared_eis: 0,
                },
            );
            ev
        });
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::ProbeOutsideWindow {
                    t: 21,
                    resource: ResourceId(3)
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn over_budget_probing_is_flagged() {
        // Duplicate the first probe: same chronon, budget 1 → cost 2 > 1.
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            let at = ev
                .iter()
                .position(|e| matches!(e, Event::ProbeIssued { .. }))
                .unwrap();
            ev.insert(at, ev[at]);
            ev
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::BudgetExceeded { .. })),
            "{report}"
        );
    }

    #[test]
    fn dropped_expiry_is_flagged_as_missing() {
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |ev| {
            let first = ev
                .iter()
                .position(|e| matches!(e, Event::CeiExpired { .. }))
                .unwrap();
            ev.into_iter()
                .enumerate()
                .filter(|&(i, _)| i != first)
                .map(|(_, e)| e)
                .collect()
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::MissingExpiry { .. })),
            "{report}"
        );
    }

    #[test]
    fn dropped_completion_is_flagged_as_missing() {
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |ev| {
            let first = ev
                .iter()
                .position(|e| matches!(e, Event::CeiCompleted { .. }))
                .unwrap();
            ev.into_iter()
                .enumerate()
                .filter(|&(i, _)| i != first)
                .map(|(_, e)| e)
                .collect()
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::MissingCompletion { .. })),
            "{report}"
        );
    }

    #[test]
    fn premature_completion_is_flagged() {
        // Announce CEI 2 (three EIs, AND) complete in chronon 0.
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            ev.insert(
                1,
                Event::CeiCompleted {
                    cei: CeiId(2),
                    at: 0,
                },
            );
            ev
        });
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::CompletionWithoutThreshold {
                    cei: CeiId(2),
                    at: 0,
                    captured: 0,
                    ..
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn expiry_after_completion_is_flagged() {
        // Append an expiry for an already-completed CEI inside the final
        // chronon (before its ChrononEnd).
        let report = mutated_report(&mixed_instance(2), EngineConfig::preemptive(), |mut ev| {
            let done = ev
                .iter()
                .find_map(|e| match e {
                    Event::CeiCompleted { cei, .. } => Some(*cei),
                    _ => None,
                })
                .expect("some CEI completes under budget 2");
            let last_end = ev.len() - 1;
            assert!(matches!(ev[last_end], Event::ChrononEnd { t: 23, .. }));
            ev.insert(last_end, Event::CeiExpired { cei: done, at: 23 });
            ev
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::ExpiredAfterCompletion { .. })),
            "{report}"
        );
    }

    #[test]
    fn fake_capture_is_flagged() {
        // An EiCaptured for a CEI with no window on the probed resource.
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            let at = ev
                .iter()
                .position(|e| matches!(e, Event::ProbeIssued { .. }))
                .unwrap();
            let Event::ProbeIssued { t, .. } = ev[at] else {
                unreachable!()
            };
            ev.insert(
                at + 1,
                Event::EiCaptured {
                    t,
                    cei: CeiId(4),
                    latency: 0,
                },
            );
            ev
        });
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::CaptureWithoutWindow { cei: CeiId(4), .. }
                    | Violation::CaptureCountMismatch { .. }
            )),
            "{report}"
        );
    }

    #[test]
    fn tampered_candidate_set_is_flagged() {
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            for e in &mut ev {
                if let Event::CandidateSet { size, .. } = e {
                    *size += 1;
                    break;
                }
            }
            ev
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::CandidateSetMismatch { .. })),
            "{report}"
        );
    }

    #[test]
    fn tampered_spent_and_budget_are_flagged() {
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            for e in &mut ev {
                if let Event::ChrononEnd { spent, .. } = e {
                    *spent += 1;
                    break;
                }
            }
            for e in &mut ev {
                if let Event::ChrononStart { t: 5, budget } = e {
                    *budget = 9;
                }
            }
            ev
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::SpentMismatch { .. })),
            "{report}"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::BudgetMismatch { t: 5, .. })),
            "{report}"
        );
    }

    #[test]
    fn truncated_epoch_is_flagged() {
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |ev| {
            let cut = ev
                .iter()
                .position(|e| matches!(e, Event::ChrononStart { t: 20, .. }))
                .unwrap();
            ev.into_iter().take(cut).collect()
        });
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::EpochTruncated {
                    chronons_seen: 20,
                    expected: 24
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn violation_cap_suppresses_overflow() {
        // An entirely bogus stream: every chronon out of order.
        let instance = mixed_instance(1);
        let mut checker = InvariantObserver::new(&instance, EngineConfig::preemptive());
        for _ in 0..(MAX_VIOLATIONS as u32 + 40) {
            checker.on_event(Event::ChrononStart { t: 999, budget: 7 });
        }
        let report = checker.finish();
        assert_eq!(report.violations.len(), MAX_VIOLATIONS);
        assert!(report.suppressed > 0);
        assert!(!report.is_clean());
    }

    /// Genuinely faulted runs — i.i.d. failures under every retry
    /// configuration — must check clean end to end.
    #[test]
    fn clean_faulted_runs_produce_clean_reports() {
        let instance = mixed_instance(2);
        for rate in [0.0, 0.35, 0.8] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                for fc in [
                    FaultConfig::default(),
                    FaultConfig::default().with_backoff(Backoff::new(1, 8)),
                    FaultConfig::default().free_failures().with_retry_quota(1),
                ] {
                    let mut faults = IidFaults::new(rate, 0xF00D);
                    let mut obs = InvariantObserver::new(&instance, config).with_faults(fc);
                    let run = OnlineEngine::run_faulted(
                        &instance,
                        &Mrsf,
                        config,
                        &mut faults,
                        fc,
                        &mut obs,
                    );
                    let report = obs.finish_with(&run);
                    report.assert_clean();
                }
            }
        }
    }

    /// Bursty outages and rate-limit windows exercise the down/up
    /// announcements and the shed pass; both must check clean.
    #[test]
    fn clean_outage_runs_produce_clean_reports() {
        let instance = mixed_instance(1);
        let n_res = instance.n_resources as usize;
        let fc = FaultConfig::default();
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let mut ge = GilbertElliott::new(0.3, 0.4, 0xBEEF, n_res);
            let mut obs = InvariantObserver::new(&instance, config).with_faults(fc);
            let run = OnlineEngine::run_faulted(&instance, &Mrsf, config, &mut ge, fc, &mut obs);
            obs.finish_with(&run).assert_clean();

            let mut rl = RateLimit::new(6, 1, n_res);
            let mut obs = InvariantObserver::new(&instance, config).with_faults(fc);
            let run = OnlineEngine::run_faulted(&instance, &Mrsf, config, &mut rl, fc, &mut obs);
            obs.finish_with(&run).assert_clean();
        }
    }

    #[test]
    fn probe_inside_announced_outage_is_flagged() {
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            let (at, t, resource) = first_probe(&ev);
            ev.insert(
                at,
                Event::ResourceDown {
                    t,
                    resource,
                    until: t,
                },
            );
            ev
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::ProbeWhileDown { .. })),
            "{report}"
        );
    }

    #[test]
    fn probe_before_backoff_deadline_is_flagged() {
        // A failure with backoff configured forbids the very next probe of
        // the same resource; the unmutated stream issues one anyway.
        let fc = FaultConfig::default()
            .free_failures()
            .with_backoff(Backoff::new(4, 16));
        let report = mutated_faulted_report(
            &mixed_instance(1),
            EngineConfig::preemptive(),
            fc,
            |mut ev| {
                let (at, t, resource) = first_probe(&ev);
                ev.insert(
                    at,
                    Event::ProbeFailed {
                        t,
                        resource,
                        cost: 1,
                        attempt: 0,
                        charged: false,
                    },
                );
                ev
            },
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::BackoffViolated { .. })),
            "{report}"
        );
    }

    #[test]
    fn retry_with_wrong_streak_is_flagged() {
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            let (at, t, resource) = first_probe(&ev);
            ev.insert(
                at,
                Event::ProbeRetried {
                    t,
                    resource,
                    attempt: 3,
                },
            );
            ev
        });
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::RetryMismatch {
                    reported: 3,
                    expected: 0,
                    ..
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn retry_over_quota_is_flagged() {
        // Quota 0 forbids any retry; a failure followed by a correctly
        // numbered retry announcement must be flagged.
        let fc = FaultConfig::default().free_failures().with_retry_quota(0);
        let report = mutated_faulted_report(
            &mixed_instance(1),
            EngineConfig::preemptive(),
            fc,
            |mut ev| {
                let (at, t, resource) = first_probe(&ev);
                ev.insert(
                    at,
                    Event::ProbeRetried {
                        t,
                        resource,
                        attempt: 1,
                    },
                );
                ev.insert(
                    at,
                    Event::ProbeFailed {
                        t,
                        resource,
                        cost: 1,
                        attempt: 0,
                        charged: false,
                    },
                );
                ev
            },
        );
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::RetryQuotaExceeded {
                    used: 1,
                    quota: 0,
                    ..
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn uncharged_failure_under_charged_config_is_flagged() {
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            let (at, t, resource) = first_probe(&ev);
            ev.insert(
                at,
                Event::ProbeFailed {
                    t,
                    resource,
                    cost: 1,
                    attempt: 0,
                    charged: false,
                },
            );
            ev
        });
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::FailureAccounting {
                    reported: false,
                    expected: true,
                    ..
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn shed_of_feasible_cei_is_flagged() {
        // CEI 2 is alive and fully reachable at chronon 0.
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            ev.insert(
                1,
                Event::CeiShed {
                    cei: CeiId(2),
                    at: 0,
                },
            );
            ev
        });
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::SpuriousShed {
                    cei: CeiId(2),
                    at: 0
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn unshed_infeasible_cei_is_flagged() {
        // Budget 0: nothing is ever captured. An outage on resource 0
        // committed through chronon 4 swallows the whole remaining window
        // of CEI 0's only EI (0, 0, 4) at t=2, yet no CeiShed follows.
        let report = mutated_report(&mixed_instance(0), EngineConfig::preemptive(), |mut ev| {
            let at = ev
                .iter()
                .position(|e| matches!(e, Event::ChrononStart { t: 2, .. }))
                .unwrap();
            ev.insert(
                at + 1,
                Event::ResourceDown {
                    t: 2,
                    resource: ResourceId(0),
                    until: 4,
                },
            );
            ev
        });
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::MissingShed {
                    cei: CeiId(0),
                    t: 2
                }
            )),
            "{report}"
        );
    }

    /// A churn script over [`mixed_instance`]: a dynamic registration with
    /// one pre-opened and one future window, effective and no-op
    /// cancellations, two budget reconfigurations, and a registration
    /// doomed on arrival by an already-closed window.
    fn churn_queue() -> MutationQueue {
        let mut q = MutationQueue::new();
        q.cancel(2, CeiId(0))
            .set_budget(5, 3)
            .cancel(7, CeiId(2))
            .register(13, CeiId(3))
            .set_budget(16, 1)
            .register(19, CeiId(4))
            .cancel(21, CeiId(4));
        q
    }

    #[test]
    fn clean_churned_runs_produce_clean_reports() {
        for budget in [0, 1, 2] {
            let instance = mixed_instance(budget);
            let q = churn_queue();
            for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
                for config in [
                    EngineConfig::preemptive(),
                    EngineConfig::non_preemptive(),
                    EngineConfig::preemptive().without_probe_sharing(),
                ] {
                    let mut obs = InvariantObserver::new(&instance, config).with_mutations(&q);
                    let run = OnlineEngine::run_mutated(
                        &instance,
                        policy,
                        config,
                        &mut NoFaults,
                        FaultConfig::default(),
                        &q,
                        &mut obs,
                    );
                    obs.finish_with(&run).assert_clean();
                }
            }
        }
    }

    #[test]
    fn clean_churned_faulted_runs_produce_clean_reports() {
        let instance = mixed_instance(2);
        let q = churn_queue();
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            for fc in [
                FaultConfig::default(),
                FaultConfig::default()
                    .free_failures()
                    .with_backoff(Backoff::new(1, 8))
                    .with_retry_quota(1),
            ] {
                let mut faults = IidFaults::new(0.35, 0xF00D);
                let mut obs = InvariantObserver::new(&instance, config)
                    .with_faults(fc)
                    .with_mutations(&q);
                let run = OnlineEngine::run_mutated(
                    &instance,
                    &Mrsf,
                    config,
                    &mut faults,
                    fc,
                    &q,
                    &mut obs,
                );
                obs.finish_with(&run).assert_clean();
            }
        }
    }

    /// Like [`mutated_report`], for a churned run: the true stream of
    /// `run_mutated` under `queue` is tampered with and re-checked.
    fn churned_mutated_report(
        instance: &Instance,
        queue: &MutationQueue,
        mutate: impl Fn(Vec<Event>) -> Vec<Event>,
    ) -> InvariantReport {
        struct Rec(Vec<Event>);
        impl Observer for Rec {
            fn on_event(&mut self, event: Event) {
                self.0.push(event);
            }
        }
        let config = EngineConfig::preemptive();
        let mut rec = Rec(Vec::new());
        OnlineEngine::run_mutated(
            instance,
            &Mrsf,
            config,
            &mut NoFaults,
            FaultConfig::default(),
            queue,
            &mut rec,
        );
        let events = mutate(rec.0);
        let mut checker = InvariantObserver::new(instance, config).with_mutations(queue);
        for e in events {
            checker.on_event(e);
        }
        checker.finish()
    }

    #[test]
    fn undeclared_registration_is_flagged() {
        // No MutationQueue was declared, so any churn event is unexpected.
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            ev.insert(
                1,
                Event::CeiRegistered {
                    cei: CeiId(3),
                    at: 0,
                },
            );
            ev
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::UnexpectedMutation { t: 0, .. })),
            "{report}"
        );
    }

    #[test]
    fn duplicate_registration_is_flagged() {
        let mut q = MutationQueue::new();
        q.register(13, CeiId(3));
        let report = churned_mutated_report(&mixed_instance(1), &q, |mut ev| {
            let at = ev
                .iter()
                .position(|e| matches!(e, Event::CeiRegistered { .. }))
                .unwrap();
            ev.insert(at, ev[at]);
            ev
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::UnexpectedMutation { t: 13, .. })),
            "{report}"
        );
    }

    #[test]
    fn dropped_cancellation_event_is_flagged() {
        let mut q = MutationQueue::new();
        q.cancel(7, CeiId(2));
        let report = churned_mutated_report(&mixed_instance(1), &q, |ev| {
            ev.into_iter()
                .filter(|e| !matches!(e, Event::CeiCancelled { .. }))
                .collect()
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::MissingMutation { t: 7, .. })),
            "{report}"
        );
    }

    #[test]
    fn probe_for_cancelled_cei_is_flagged() {
        // CEI 2 owns the only window on resource 3 around chronon 8; after
        // its cancellation at 7 a probe there serves nobody.
        let mut q = MutationQueue::new();
        q.cancel(7, CeiId(2));
        let report = churned_mutated_report(&mixed_instance(1), &q, |mut ev| {
            let at = ev
                .iter()
                .position(|e| matches!(e, Event::ChrononStart { t: 8, .. }))
                .unwrap();
            ev.insert(
                at + 1,
                Event::ProbeIssued {
                    t: 8,
                    resource: ResourceId(3),
                    cost: 1,
                    shared_eis: 0,
                },
            );
            ev
        });
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::ProbeOutsideWindow {
                    t: 8,
                    resource: ResourceId(3)
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn same_chronon_budget_application_is_flagged() {
        // A reconfiguration drained at 5 must not change chronon 5's own
        // budget; a stream claiming it did diverges from the mirror.
        let mut q = MutationQueue::new();
        q.set_budget(5, 3);
        let report = churned_mutated_report(&mixed_instance(1), &q, |mut ev| {
            for e in &mut ev {
                if let Event::ChrononStart { t: 5, budget } = e {
                    *budget = 3;
                }
            }
            ev
        });
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::BudgetMismatch {
                    t: 5,
                    reported: 3,
                    expected: 1
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn report_display_lists_violations() {
        let report = mutated_report(&mixed_instance(1), EngineConfig::preemptive(), |mut ev| {
            for e in &mut ev {
                if let Event::CandidateSet { size, .. } = e {
                    *size += 3;
                    break;
                }
            }
            ev
        });
        let text = report.to_string();
        assert!(text.contains("violation"), "{text}");
        assert!(text.contains("candidate set"), "{text}");
    }
}
