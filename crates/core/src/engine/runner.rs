//! The run loop implementing Algorithm 1 (Online Complex Monitoring).

use super::index::{CandidateIndex, PoolEntry};
use super::mutation::{Mutation, MutationQueue, MutationSource, ScriptedMutations};
use crate::fault::{FaultConfig, FaultModel, NoFaults};
use crate::model::{CaptureSet, CeiId, Chronon, Instance, ResourceId, Schedule};
use crate::obs::{Event, NoopObserver, Observer};
use crate::policy::{Candidate, CeiView, Policy, PolicyContext, ResourceStats, ScoreDynamics};
use crate::serve::snapshot::{CeiState, EngineSnapshot, NoSnapshots, SnapshotSink};
use crate::stats::{CeiOutcome, RunStats};

/// Min-heap entries for the reseeded heap selector:
/// `Reverse((score, cei id, ei index))`.
type ScoreHeap = std::collections::BinaryHeap<std::cmp::Reverse<(i64, u32, u16)>>;

/// A [`KeyedQueue`] copy: `(score, cei id, ei index, capture count)`, the
/// last being the parent CEI's capture count when the copy was scored.
type KeyedCopy = (i64, u32, u16, u16);

/// How `probeEIs` finds the minimum-score candidate each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Fresh linear scan per probe — the reference implementation; scores
    /// are always current.
    Scan,
    /// The default; its data structure follows the policy's
    /// [`ScoreDynamics`]:
    ///
    /// * `Reseeded` — a lazy binary heap per phase (the paper's Appendix-B
    ///   suggestion) on engine-owned storage: each phase seeds one reused
    ///   heap buffer from the candidate index at current scores, a popped
    ///   entry whose score went stale is re-pushed at its current score,
    ///   and a capture re-pushes the touched CEI's live siblings, with zero
    ///   allocation on the hot path — `O(log N)` per probe instead of
    ///   `O(N)`.
    /// * `StateKeyed` — one persistent queue per selection group, kept
    ///   across chronons: a chronon scores only the windows that open and
    ///   the siblings of captured EIs, not the whole live pool. Queued
    ///   copies whose entry died or whose score went stale are dropped on
    ///   pop, and the queue is rebuilt from the pool once they outnumber
    ///   the live entries, and on resume.
    ///
    /// Either way the schedule, event stream and `RunMetrics` are those of
    /// [`Scan`](SelectionStrategy::Scan).
    #[default]
    Incremental,
}

/// Execution mode of the online engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Preemptive (`P`): all candidates compete for budget each chronon.
    /// Non-preemptive (`NP`): EIs of already-probed CEIs are served first;
    /// new CEIs only get leftover budget.
    pub preemptive: bool,
    /// Intra-resource probe sharing (Algorithm 1's `R_ids`): one probe
    /// captures every active candidate EI on the probed resource, and no
    /// budget is wasted re-probing it in the same chronon. `true` is the
    /// paper's algorithm; `false` is an ablation where each probe captures
    /// only the EI it was issued for.
    pub share_probes: bool,
    /// Candidate selection data structure.
    pub selection: SelectionStrategy,
}

impl EngineConfig {
    /// Preemptive execution — the paper's `Φ(P)` mode.
    pub fn preemptive() -> Self {
        EngineConfig {
            preemptive: true,
            share_probes: true,
            selection: SelectionStrategy::Incremental,
        }
    }

    /// Non-preemptive execution — the paper's `Φ(NP)` mode.
    pub fn non_preemptive() -> Self {
        EngineConfig {
            preemptive: false,
            share_probes: true,
            selection: SelectionStrategy::Incremental,
        }
    }

    /// Disables intra-resource probe sharing (ablation).
    pub fn without_probe_sharing(mut self) -> Self {
        self.share_probes = false;
        self
    }

    /// Selects candidates through a fresh linear scan per probe (the
    /// reference implementation).
    pub fn with_scan(mut self) -> Self {
        self.selection = SelectionStrategy::Scan;
        self
    }

    /// Sets the candidate selection data structure.
    pub fn with_selection(mut self, selection: SelectionStrategy) -> Self {
        self.selection = selection;
        self
    }

    /// Suffix used in experiment tables: `"(P)"` or `"(NP)"`.
    pub fn label(self) -> &'static str {
        if self.preemptive {
            "(P)"
        } else {
            "(NP)"
        }
    }
}

/// The outcome of one online run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The probes the engine issued.
    pub schedule: Schedule,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Per-CEI outcome, indexed by [`CeiId`].
    pub outcomes: Vec<CeiOutcome>,
    /// Telemetry: candidate-selection steps (heap pops, or one per argmin
    /// scan under [`SelectionStrategy::Scan`]). A property of the selector's
    /// data structure, not of the schedule: it differs between strategies
    /// and between an uninterrupted run and a snapshot resume, so no
    /// identity contract covers it and it never enters the event stream.
    pub selection_steps: u64,
}

/// Lifecycle of a CEI inside the engine.
enum Status {
    /// Release chronon not reached yet.
    NotArrived,
    /// Released; tracking which EIs have been captured.
    Active(CaptureSet),
    /// All EIs captured.
    Captured,
    /// An EI expired uncaptured.
    Failed,
    /// Cancelled mid-run through the mutation API; never resolves.
    Cancelled,
}

impl Status {
    fn capture_set(&self) -> Option<&CaptureSet> {
        match self {
            Status::Active(c) => Some(c),
            _ => None,
        }
    }
}

/// The online complex-monitoring engine. See the [module docs](crate::engine)
/// for the per-chronon procedure.
pub struct OnlineEngine;

impl OnlineEngine {
    /// Runs `policy` over `instance` in the given mode and returns the
    /// schedule, statistics, and per-CEI outcomes.
    ///
    /// Equivalent to [`run_observed`](Self::run_observed) with a
    /// [`NoopObserver`] — the observer monomorphizes away, so this path
    /// costs exactly what it did before observability existed.
    pub fn run(instance: &Instance, policy: &dyn Policy, config: EngineConfig) -> RunResult {
        Self::run_observed(instance, policy, config, &mut NoopObserver)
    }

    /// Runs `policy` over `instance`, streaming typed [`Event`]s to
    /// `observer` (see [`crate::obs`] for the event vocabulary and
    /// ordering guarantees). The event stream is deterministic: a pure
    /// function of `(instance, policy, config)`.
    ///
    /// Equivalent to [`run_faulted`](Self::run_faulted) with [`NoFaults`] —
    /// the disabled fault model monomorphizes every fault branch away, so
    /// this path costs exactly what it did before fault injection existed.
    pub fn run_observed<O: Observer>(
        instance: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        observer: &mut O,
    ) -> RunResult {
        Self::run_faulted(
            instance,
            policy,
            config,
            &mut NoFaults,
            FaultConfig::default(),
            observer,
        )
    }

    /// Runs `policy` over `instance` under a deterministic fault model.
    ///
    /// Per chronon, the engine first advances `faults`, snapshots each
    /// resource's committed outage horizon, and announces
    /// [`Event::ResourceDown`] / [`Event::ResourceUp`] transitions. Down
    /// and backed-off resources are excluded from candidate selection. A
    /// selected probe is then submitted to the model: on failure the engine
    /// emits [`Event::ProbeFailed`] (charging the probe's cost against the
    /// chronon budget iff [`FaultConfig::failures_cost`]), tracks the
    /// resource's consecutive-failure count for retry/backoff, and selects
    /// again; on success the normal capture path runs. Retry attempts (a
    /// probe on a resource with consecutive failures) announce themselves
    /// with [`Event::ProbeRetried`] and respect the optional per-chronon
    /// [`FaultConfig::retry_quota`]. After the natural expiry pass, the
    /// engine sheds CEIs whose remaining uncaptured windows fall entirely
    /// within committed outages ([`Event::CeiShed`]) — under AND/threshold
    /// semantics they are provably doomed, so burning further probes on
    /// them would only starve feasible CEIs.
    ///
    /// Determinism: every shipped [`FaultModel`] is a pure function of its
    /// seed and parameters, so the faulted run — schedule, event stream,
    /// stats — is a pure function of
    /// `(instance, policy, config, model, fault_config)`.
    ///
    /// Equivalent to [`run_mutated`](Self::run_mutated) with an empty
    /// [`MutationQueue`] — bit-identical schedule, event stream, and stats.
    pub fn run_faulted<F: FaultModel, O: Observer>(
        instance: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        faults: &mut F,
        fault_config: FaultConfig,
        observer: &mut O,
    ) -> RunResult {
        Self::run_mutated(
            instance,
            policy,
            config,
            faults,
            fault_config,
            &MutationQueue::new(),
            observer,
        )
    }

    /// The most general entry point: runs `policy` over `instance` under a
    /// fault model *and* a mid-run [`MutationQueue`] — the profile set is
    /// no longer frozen at `run()`.
    ///
    /// At each chronon start (immediately after [`Event::ChrononStart`],
    /// before fault announcements, arrivals, and probing) the engine drains
    /// the queue's mutations for that chronon, in queue order:
    ///
    /// * [`Mutation::Register`] — the CEI activates with release chronon
    ///   `= now` ([`Event::CeiRegistered`]). Windows already closed are
    ///   expired on the spot (if that alone dooms the CEI it fails
    ///   immediately, [`Event::CeiExpired`]); currently-open windows join
    ///   the candidate pool now; future windows ride the prebuilt
    ///   `starts[t]` buckets. Cost is O(own EIs), never O(pool). A CEI
    ///   named by any `Register` in the queue is *dynamic*: its natural
    ///   release from the instance trace is suppressed.
    /// * [`Mutation::Cancel`] — a live (or not-yet-released) CEI resolves
    ///   as [`CeiOutcome::Cancelled`] ([`Event::CeiCancelled`]); its
    ///   windows leave the pool through the same incremental-removal path
    ///   captures and expiries use. Pending retry state (failure streaks,
    ///   backoff deadlines) on resources the cancellation emptied is
    ///   dropped, so the per-chronon retry quota is not spent on profiles
    ///   nobody wants anymore.
    /// * [`Mutation::SetBudget`] — replaces the per-chronon budget with a
    ///   uniform value effective **exactly from the next chronon**
    ///   ([`Event::BudgetReconfigured`]); the current chronon keeps the
    ///   budget its `ChrononStart` announced.
    ///
    /// Determinism: the churned run — schedule, event stream, stats — is a
    /// pure function of
    /// `(instance, policy, config, model, fault_config, mutations)`; an
    /// empty queue is bit-identical to [`run_faulted`](Self::run_faulted).
    pub fn run_mutated<F: FaultModel, O: Observer>(
        instance: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        faults: &mut F,
        fault_config: FaultConfig,
        mutations: &MutationQueue,
        observer: &mut O,
    ) -> RunResult {
        let mut source =
            ScriptedMutations::compile(mutations, instance.epoch.len(), instance.ceis.len());
        Self::run_driven(
            instance,
            policy,
            config,
            faults,
            fault_config,
            &mut source,
            observer,
        )
    }

    /// Runs `policy` over `instance` drawing mid-run mutations from an
    /// arbitrary [`MutationSource`] instead of a prerecorded
    /// [`MutationQueue`] — the entry point the `webmon serve` daemon uses
    /// to splice live registration-API traffic into the engine loop.
    ///
    /// The engine samples [`MutationSource::active`] once at run start: an
    /// inactive source takes the exact mutation-free fast path
    /// [`run_faulted`](Self::run_faulted) compiles to. An active source is
    /// drained once per chronon (immediately after [`Event::ChrononStart`],
    /// before fault announcements and arrivals) and its drained mutations
    /// apply with precisely the semantics documented on
    /// [`run_mutated`](Self::run_mutated); natural releases are suppressed
    /// per-CEI via [`MutationSource::suppresses_release`].
    ///
    /// Equivalence: driving with
    /// [`ScriptedMutations::compile`]`(queue, ..)` is bit-identical —
    /// schedule, event stream, stats — to
    /// [`run_mutated`](Self::run_mutated) with `queue`; an always-active
    /// source that never drains anything and never suppresses is
    /// bit-identical to an inactive one (activity only gates a per-chronon
    /// drain that applies no mutations).
    pub fn run_driven<F: FaultModel, M: MutationSource, O: Observer>(
        instance: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        faults: &mut F,
        fault_config: FaultConfig,
        mutations: &mut M,
        observer: &mut O,
    ) -> RunResult {
        Self::run_driven_resumable(
            instance,
            policy,
            config,
            faults,
            fault_config,
            mutations,
            observer,
            None,
            &mut NoSnapshots,
        )
    }

    /// [`run_driven`](Self::run_driven) with crash-recovery hooks: the
    /// engine offers an [`EngineSnapshot`] to `snapshots` at every chronon
    /// boundary, and `resume` restores a previously captured snapshot so
    /// the loop starts at its boundary chronon instead of 0.
    ///
    /// Identity contract (pinned by `tests/tests/recovery.rs`): capturing a
    /// snapshot at boundary `S` during a run and replaying
    /// `resume = Some(snapshot)` with the same instance, policy, config,
    /// fault model state, and per-chronon mutations reproduces chronons
    /// `S..horizon` bit-identically — schedule, stats, outcomes, and event
    /// stream suffix. A declining sink and `resume = None` are bit-identical
    /// to [`run_driven`](Self::run_driven).
    ///
    /// # Panics
    /// Panics if `resume` fails [`EngineSnapshot::validate`] against
    /// `instance` — a snapshot only resumes the run it was taken from.
    /// Callers holding an untrusted snapshot (the daemon's `--recover`)
    /// validate it first and report the mismatch as an error.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    pub fn run_driven_resumable<F: FaultModel, M: MutationSource, O: Observer>(
        instance: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        faults: &mut F,
        fault_config: FaultConfig,
        mutations: &mut M,
        observer: &mut O,
        resume: Option<&EngineSnapshot>,
        snapshots: &mut dyn SnapshotSink,
    ) -> RunResult {
        let n_ceis = instance.ceis.len();
        let n_res = instance.n_resources as usize;
        let horizon = instance.epoch.len();

        // The heap selectors re-score a popped entry and re-push it when the
        // stored score went stale; that loop only terminates for policies
        // whose score is a pure function of the visible state. A policy with
        // hidden mutable state ([`Policy::stable_scores`] `== false`, e.g.
        // the `Random` baseline) is pinned to the always-correct `Scan`
        // selector instead.
        let selection = if policy.stable_scores() {
            config.selection
        } else {
            SelectionStrategy::Scan
        };
        // Under `Incremental`, state-keyed policies select through one
        // persistent queue (see `KeyedQueue`); every other policy reseeds a
        // heap per phase.
        let mut keyed = (selection == SelectionStrategy::Incremental
            && policy.score_dynamics() == ScoreDynamics::StateKeyed)
            .then(|| KeyedQueue::new(if config.preemptive { 1 } else { 2 }));
        let reseeded = selection == SelectionStrategy::Incremental && keyed.is_none();

        // The candidate pool, grouped by resource with incremental removal
        // and live counts. Allocated once and reused for the whole run.
        let mut index = CandidateIndex::new(instance);

        // Bucket EIs by start chronon so each enters the pool exactly when
        // its window opens, and by end chronon so the expiry pass visits
        // only the windows closing now instead of scanning the whole pool.
        // Both buckets hold entries in the legacy pool order
        // `(start, cei, ei_idx)`: the fill order is cei-major (dense ids,
        // ascending), and each ends bucket is stable-sorted by start on top
        // of it. A window ending at or past the horizon never expires
        // inside the epoch, exactly as the per-chronon `end == t` test
        // behaved.
        let mut starts: Vec<Vec<PoolEntry>> = vec![Vec::new(); horizon as usize];
        let mut ends: Vec<Vec<PoolEntry>> = vec![Vec::new(); horizon as usize];
        for cei in &instance.ceis {
            for (idx, ei) in cei.eis.iter().enumerate() {
                let entry = PoolEntry {
                    cei: cei.id,
                    ei_idx: idx as u16,
                };
                starts[ei.start as usize].push(entry);
                if (ei.end as usize) < ends.len() {
                    ends[ei.end as usize].push(entry);
                }
            }
        }
        for bucket in &mut ends {
            bucket.sort_by_key(|e| instance.cei(e.cei).eis[e.ei_idx as usize].start);
        }

        let mut status: Vec<Status> = (0..n_ceis).map(|_| Status::NotArrived).collect();
        let mut outcomes = vec![CeiOutcome::Pending; n_ceis];
        let mut schedule = Schedule::new(instance.n_resources, instance.epoch);
        // `probes_available` accumulates the effective per-chronon budget
        // inside the loop: equal to `budget.total_over(horizon)` on
        // unmutated runs, and correct under mid-run `SetBudget`.
        let mut stats = RunStats {
            n_ceis: n_ceis as u64,
            n_eis: instance.total_eis() as u64,
            ..Default::default()
        };

        // Mutation state: sampled once so an inactive source keeps the
        // mutation-free paths at one branch per chronon and nothing else.
        // `drained` is the reusable per-chronon drain buffer.
        let mutations_on = mutations.active();
        let mut drained: Vec<Mutation> = Vec::new();
        // A drained `SetBudget` parks here and becomes the override at the
        // next chronon boundary — reconfiguration never applies mid-chronon.
        let mut budget_override: Option<u32> = None;
        let mut pending_budget: Option<u32> = None;

        // Every buffer below is allocated once here and reused for the
        // whole run.
        let mut active_snapshot = vec![0u32; n_res];
        let mut has_update = vec![false; n_res];
        let mut probed_now = vec![false; n_res];
        // Non-preemptive selection groups: `started[c]` says whether CEI `c`
        // had a captured EI when the current chronon began (cands⁺). A first
        // capture flips the flag at the end of its chronon — `captured_now`
        // collects the CEIs captured this chronon — so the groups stay
        // frozen while a chronon selects.
        let mut started = vec![false; n_ceis];
        let mut captured_now: Vec<CeiId> = Vec::new();
        let mut transitions: Vec<(CeiId, CeiOutcome)> = Vec::new();
        let mut touched: Vec<CeiId> = Vec::new();
        let mut capture_scratch: Vec<PoolEntry> = Vec::new();
        let mut shed_scratch: Vec<(Chronon, u32, u16)> = Vec::new();
        // Heap storage of the reseeded selector: cleared, never dropped,
        // between phases.
        let mut heap: ScoreHeap = std::collections::BinaryHeap::new();
        // Telemetry for `RunResult::selection_steps`.
        let mut selection_steps: u64 = 0;

        // Fault-injection state. `fault_blocked` is always allocated (the
        // selectors index it unconditionally); the rest is sized to zero
        // for a disabled model so NoFaults pays nothing.
        let fault_on = faults.enabled();
        let n_track = if fault_on { n_res } else { 0 };
        // Committed outage horizon per resource, frozen at chronon start so
        // shedding and the event-driven checker see the same state.
        let mut down_snapshot: Vec<Option<Chronon>> = vec![None; n_track];
        // Last horizon announced via ResourceDown (None while up).
        let mut announced: Vec<Option<Chronon>> = vec![None; n_track];
        let mut consec_failures: Vec<u32> = vec![0; n_track];
        let mut next_attempt_at: Vec<Chronon> = vec![0; n_track];
        let mut fault_blocked: Vec<bool> = vec![false; n_res];

        // Restoring a snapshot replaces every piece of cross-chronon state
        // with the captured boundary's; per-chronon scratch stays freshly
        // allocated and is rebuilt by the loop exactly as the original run
        // rebuilt it.
        let resume_at: Chronon = match resume {
            Some(snap) => {
                if let Err(detail) = snap.validate(instance, fault_on) {
                    panic!("snapshot does not resume this run: {detail}");
                }
                for (i, state) in snap.status.iter().enumerate() {
                    status[i] = match state {
                        CeiState::NotArrived => Status::NotArrived,
                        CeiState::Active { captured, expired } => {
                            let cap = CaptureSet::from_flags(captured.clone(), expired.clone());
                            started[i] = cap.is_started();
                            Status::Active(cap)
                        }
                        CeiState::Captured => Status::Captured,
                        CeiState::Failed => Status::Failed,
                        CeiState::Cancelled => Status::Cancelled,
                    };
                }
                outcomes.copy_from_slice(&snap.outcomes);
                stats = snap.stats.clone();
                schedule = snap.schedule.clone();
                budget_override = snap.budget_override;
                pending_budget = snap.pending_budget;
                if fault_on {
                    announced.copy_from_slice(&snap.announced);
                    consec_failures.copy_from_slice(&snap.consec_failures);
                    next_attempt_at.copy_from_slice(&snap.next_attempt_at);
                }
                // Refill the per-resource candidate lists in recorded order:
                // shared captures fire in list order, so insertion order is
                // part of the observable state.
                for (r, entries) in snap.index.iter().enumerate() {
                    for &(cei, ei_idx) in entries {
                        index.insert(
                            PoolEntry {
                                cei: CeiId(cei),
                                ei_idx,
                            },
                            r,
                        );
                    }
                }
                // The keyed queue is not part of the snapshot: rebuild it
                // from the restored pool. Its copies differ from the
                // uninterrupted run's (which carries stale ones), but every
                // live entry has its current copy, so selections agree.
                if let Some(queue) = &mut keyed {
                    let ctx = policy_context(snap.at, &active_snapshot, &has_update);
                    queue.rebuild(instance, policy, &ctx, &index, &status, &started);
                }
                snap.at
            }
            None => 0,
        };

        for t in resume_at..horizon {
            // Offer the boundary state before any of chronon t's work —
            // including the pending-budget promotion just below, which is
            // chronon t's first action and must replay after a restore.
            if snapshots.wants(t) {
                snapshots.accept(snapshot_state(
                    t,
                    instance,
                    &index,
                    &status,
                    &outcomes,
                    &stats,
                    &schedule,
                    budget_override,
                    pending_budget,
                    &announced,
                    &consec_failures,
                    &next_attempt_at,
                ));
            }
            // A budget reconfiguration drained last chronon takes effect
            // exactly now — at the first chronon boundary after its drain.
            if let Some(b) = pending_budget.take() {
                budget_override = Some(b);
            }
            let budget = budget_override.unwrap_or_else(|| instance.budget.at(t));
            stats.probes_available += u64::from(budget);
            observer.on_event(Event::ChrononStart { t, budget });
            let mut retries_used: u32 = 0;

            // -- 0. Drain this chronon's mutations, in queue order, before
            // fault announcements and arrivals so a registration's windows
            // and a cancellation's retry-state cleanup are visible to the
            // whole chronon.
            if mutations_on {
                drained.clear();
                mutations.drain_at(t, &mut drained);
                for &m in &drained {
                    match m {
                        Mutation::Register { cei: id } => {
                            if !matches!(status[id.index()], Status::NotArrived) {
                                continue; // already live, resolved, or cancelled
                            }
                            let cei = instance.cei(id);
                            let mut cap = CaptureSet::new(cei.size());
                            // Windows already closed expire on the spot;
                            // open windows (strictly `start < t` — the
                            // `starts[t]` bucket below owns `start == t`)
                            // enter the pool now; future windows ride the
                            // prebuilt buckets. O(own EIs) throughout.
                            for (idx, ei) in cei.eis.iter().enumerate() {
                                if ei.end < t {
                                    cap.mark_expired(idx);
                                } else if ei.start < t {
                                    index.insert(
                                        PoolEntry {
                                            cei: id,
                                            ei_idx: idx as u16,
                                        },
                                        ei.resource.index(),
                                    );
                                }
                            }
                            observer.on_event(Event::CeiRegistered { cei: id, at: t });
                            if cap.is_doomed(cei.required) {
                                // Registered too late: the already-closed
                                // windows alone make `required` unreachable.
                                let outcome = CeiOutcome::Failed { at: t };
                                status[id.index()] = Status::Failed;
                                outcomes[id.index()] = outcome;
                                stats.record_outcome_of(cei, outcome);
                                observer.on_event(Event::CeiExpired { cei: id, at: t });
                                index.remove_cei(instance, id);
                            } else {
                                status[id.index()] = Status::Active(cap);
                                if let Some(queue) = &mut keyed {
                                    let ctx = policy_context(t, &active_snapshot, &has_update);
                                    queue.push_cei(
                                        instance, policy, &ctx, &index, &status, &started, id,
                                    );
                                }
                            }
                        }
                        Mutation::Cancel { cei: id } => {
                            if !matches!(status[id.index()], Status::NotArrived | Status::Active(_))
                            {
                                continue; // already resolved or cancelled
                            }
                            let outcome = CeiOutcome::Cancelled { at: t };
                            status[id.index()] = Status::Cancelled;
                            outcomes[id.index()] = outcome;
                            stats.record_outcome_of(instance.cei(id), outcome);
                            observer.on_event(Event::CeiCancelled { cei: id, at: t });
                            index.remove_cei(instance, id);
                            // Drop pending retry state on resources the
                            // cancellation emptied: the streak belonged to a
                            // profile nobody wants anymore, and keeping it
                            // would burn backoff delays and the per-chronon
                            // retry quota on dead candidates.
                            if fault_on {
                                for ei in &instance.cei(id).eis {
                                    let r = ei.resource.index();
                                    if index.live_on(r) == 0 && consec_failures[r] > 0 {
                                        consec_failures[r] = 0;
                                        next_attempt_at[r] = 0;
                                    }
                                }
                            }
                        }
                        Mutation::SetBudget { budget } => {
                            pending_budget = Some(budget);
                            observer.on_event(Event::BudgetReconfigured { t, budget });
                        }
                    }
                }
            }

            if fault_on {
                faults.begin_chronon(t);
                for r in 0..n_res {
                    let id = ResourceId(r as u32);
                    let d = faults.down_until(id);
                    down_snapshot[r] = d;
                    match d {
                        Some(until) => {
                            // Announce new outages and extensions of the
                            // committed horizon; a steady commitment stays
                            // silent.
                            if announced[r] != Some(until) {
                                observer.on_event(Event::ResourceDown {
                                    t,
                                    resource: id,
                                    until,
                                });
                                announced[r] = Some(until);
                            }
                        }
                        None => {
                            if announced[r].take().is_some() {
                                observer.on_event(Event::ResourceUp { t, resource: id });
                            }
                        }
                    }
                    fault_blocked[r] = d.is_some()
                        || t < next_attempt_at[r]
                        || (consec_failures[r] > 0 && fault_config.retry_quota == Some(0));
                }
            }

            // -- 1. Arrivals: η(j) joins cands(η). Dynamic CEIs (named by a
            // `Register` anywhere in the queue) skip their natural release —
            // their registration drain is their release — and a CEI
            // cancelled before its release stays cancelled.
            for &id in instance.released_at(t) {
                if mutations_on && mutations.suppresses_release(id) {
                    continue;
                }
                if matches!(status[id.index()], Status::NotArrived) {
                    status[id.index()] = Status::Active(CaptureSet::new(instance.cei(id).size()));
                }
            }

            // -- 2–4. Maintenance: amortized tombstone sweep, then EIs whose
            // window opens now join cands(I) from the `starts[t]` bucket
            // (every entry there has `start == t`, so its resource gains a
            // fresh update for the policy context), then the occupancy
            // snapshot — scores must see the chronon-start occupancy even
            // while captures land mid-probing, matching the legacy
            // scan-once semantics. The live total is frozen after as the
            // candidate-set size selection competes over.
            index.sweep();
            has_update.fill(false);
            for &e in &starts[t as usize] {
                if matches!(status[e.cei.index()], Status::Active(_)) {
                    let r = instance.cei(e.cei).eis[e.ei_idx as usize].resource.index();
                    index.insert(e, r);
                    has_update[r] = true;
                }
            }
            active_snapshot.copy_from_slice(index.active_now());
            let pool_size = index.live();

            // The keyed queue scores each window as it opens, and sheds its
            // garbage once that outgrows the live pool.
            if let Some(queue) = &mut keyed {
                let ctx = policy_context(t, &active_snapshot, &has_update);
                if queue.needs_rebuild(pool_size) {
                    queue.rebuild(instance, policy, &ctx, &index, &status, &started);
                } else {
                    for &e in &starts[t as usize] {
                        queue.push_live(instance, policy, &ctx, &index, &status, &started, e);
                    }
                }
            }

            // -- 5. probeEIs: select up to C_j resources by repeated argmin,
            // skipping resources blocked by outages, backoff, or quota.
            probed_now.fill(false);
            let mut used: u32 = 0;
            let phases: &[Option<bool>] = if config.preemptive {
                &[None]
            } else {
                &[Some(true), Some(false)]
            };

            for &phase in phases {
                let ctx = policy_context(t, &active_snapshot, &has_update);
                // The keyed queue's group for this phase: cands⁺ first.
                let group = usize::from(phase == Some(false));
                let snapshot = phase.map(|req| (req, started.as_slice()));
                // The reseeded heap seeds once per phase with current
                // scores; sibling captures can *lower* MRSF / M-EDF scores,
                // and a lazily validated heap never re-prioritizes buried
                // entries on its own, so captures refresh the touched CEIs
                // below.
                if reseeded {
                    heap.clear();
                    for r in 0..n_res {
                        for &e in index.entries(r) {
                            if !index.is_live(e) {
                                continue;
                            }
                            if let Some(score) =
                                score_entry(instance, policy, &ctx, &status, e, snapshot)
                            {
                                heap.push(std::cmp::Reverse((score, e.cei.0, e.ei_idx)));
                            }
                        }
                    }
                }

                while used < budget {
                    let remaining = budget - used;
                    let mut picked: Option<KeyedCopy> = None;
                    let best = if let Some(queue) = &mut keyed {
                        picked = queue.pop(
                            group,
                            instance,
                            &index,
                            &status,
                            &started,
                            &fault_blocked,
                            remaining,
                            &mut selection_steps,
                        );
                        picked.map(|(_, cei, ei_idx, _)| PoolEntry {
                            cei: CeiId(cei),
                            ei_idx,
                        })
                    } else if selection == SelectionStrategy::Scan {
                        argmin_candidate(
                            instance,
                            policy,
                            &ctx,
                            &index,
                            &status,
                            &probed_now,
                            &fault_blocked,
                            remaining,
                            snapshot,
                            &mut selection_steps,
                        )
                    } else {
                        pop_valid(
                            instance,
                            policy,
                            &ctx,
                            &mut heap,
                            &status,
                            &probed_now,
                            &fault_blocked,
                            remaining,
                            snapshot,
                            &mut selection_steps,
                        )
                    };
                    let Some(best) = best else {
                        break;
                    };

                    // Probe the selected EI's resource; with sharing on, the
                    // probe captures every active candidate EI on that
                    // resource (R_ids).
                    let resource = instance.cei(best.cei).eis[best.ei_idx as usize].resource;
                    let cost = instance.costs.of(resource);

                    // Submit the attempt to the fault model before touching
                    // the schedule: a failed probe never captures and is
                    // never recorded as issued.
                    if fault_on {
                        let ri = resource.index();
                        let attempt = consec_failures[ri];
                        if attempt > 0 {
                            observer.on_event(Event::ProbeRetried {
                                t,
                                resource,
                                attempt,
                            });
                            retries_used += 1;
                        }
                        let succeeded = faults.probe_succeeds(t, resource, attempt);
                        if succeeded {
                            consec_failures[ri] = 0;
                        } else {
                            consec_failures[ri] = attempt + 1;
                            stats.probes_failed += 1;
                            let charged = fault_config.failures_cost;
                            if charged {
                                used += cost;
                                stats.budget_lost += u64::from(cost);
                            }
                            if !charged || cost == 0 {
                                // A failure that consumes no budget must not
                                // re-enter selection this chronon, or the
                                // loop would spin on the same candidate.
                                fault_blocked[ri] = true;
                            }
                            if let Some(backoff) = fault_config.backoff {
                                next_attempt_at[ri] = t.saturating_add(backoff.delay(attempt + 1));
                                fault_blocked[ri] = true;
                            }
                            observer.on_event(Event::ProbeFailed {
                                t,
                                resource,
                                cost,
                                attempt,
                                charged,
                            });
                        }
                        // Once the retry quota is spent, every resource with
                        // a failure streak leaves selection for the chronon.
                        if fault_config.retry_quota.is_some_and(|q| retries_used >= q) {
                            for (blocked, &streak) in fault_blocked.iter_mut().zip(&consec_failures)
                            {
                                if streak > 0 {
                                    *blocked = true;
                                }
                            }
                        }
                        if !succeeded {
                            // The heap consumed this entry on pop; re-seed it
                            // if its resource can still be selected, so both
                            // selectors keep the identical schedule. The
                            // keyed queue keeps a blocked one for next
                            // chronon.
                            if let (Some(queue), Some(copy)) = (&mut keyed, picked) {
                                queue.put_back(group, copy, fault_blocked[ri]);
                            } else if reseeded && !fault_blocked[ri] {
                                if let Some(score) =
                                    score_entry(instance, policy, &ctx, &status, best, snapshot)
                                {
                                    heap.push(std::cmp::Reverse((score, best.cei.0, best.ei_idx)));
                                }
                            }
                            continue;
                        }
                    }

                    schedule.probe(resource, t);
                    used += cost;
                    stats.probes_used += 1;
                    stats.budget_spent += u64::from(cost);

                    // Announce the probe with its sharing fan-out before the
                    // per-EI capture events. The fan-out is the resource's
                    // live count — every live entry there is capturable.
                    if observer.enabled() {
                        let shared_eis = if config.share_probes {
                            index.live_on(resource.index())
                        } else {
                            1
                        };
                        observer.on_event(Event::ProbeIssued {
                            t,
                            resource,
                            cost,
                            shared_eis,
                        });
                    }

                    touched.clear();
                    if config.share_probes {
                        probed_now[resource.index()] = true;
                        capture_resource(
                            instance,
                            &mut index,
                            &mut capture_scratch,
                            &mut status,
                            resource.index(),
                            t,
                            &mut stats,
                            &mut outcomes,
                            &mut transitions,
                            &mut touched,
                            observer,
                        );
                    } else {
                        capture_single(
                            instance,
                            &mut index,
                            best,
                            &mut status,
                            t,
                            &mut stats,
                            &mut outcomes,
                            observer,
                        );
                        touched.push(best.cei);
                    }
                    if !config.preemptive {
                        captured_now.extend_from_slice(&touched);
                    }

                    // Refresh heap priorities of CEIs whose capture state
                    // just changed: push their remaining live entries at
                    // their new (never higher) scores; stale copies are
                    // skipped on pop. The keyed queue refreshes into each
                    // CEI's own group, whatever phase is running.
                    if let Some(queue) = &mut keyed {
                        for &id in &touched {
                            queue.push_cei(instance, policy, &ctx, &index, &status, &started, id);
                        }
                    } else if reseeded {
                        // Walk the touched CEI's own EIs; the liveness flag
                        // restricts the refresh to entries actually in the
                        // pool (an EI whose window has not opened yet must
                        // not enter selection).
                        for id in &touched {
                            let cei = instance.cei(*id);
                            for (idx, ei) in cei.eis.iter().enumerate() {
                                let e = PoolEntry {
                                    cei: *id,
                                    ei_idx: idx as u16,
                                };
                                if !index.is_live(e) || probed_now[ei.resource.index()] {
                                    continue;
                                }
                                if let Some(score) =
                                    score_entry(instance, policy, &ctx, &status, e, snapshot)
                                {
                                    heap.push(std::cmp::Reverse((score, e.cei.0, e.ei_idx)));
                                }
                            }
                        }
                    }
                }
            }

            // Post-probing snapshot events. `pool_size` froze the live
            // count the chronon's selection competed over (captures now
            // remove entries as they land); the deferred count — live EIs
            // left unserved once the budget ran out or nothing affordable
            // remained — is whatever is still live, O(1) from the index
            // instead of the legacy pool scan.
            if observer.enabled() {
                observer.on_event(Event::CandidateSet { t, size: pool_size });
                let deferred = index.live();
                if deferred > 0 {
                    observer.on_event(Event::BudgetExhausted { t, deferred });
                }
            }

            // -- 6. Expiry: EIs closing uncaptured at t doom their CEI once
            // fewer than `required` EIs can still be captured (with the
            // paper's AND semantics: on the first expiry). Only the windows
            // closing at t are visited — their bucket keeps pool order.
            transitions.clear();
            for e in &ends[t as usize] {
                if !index.is_live(*e) {
                    continue; // never entered, captured, or already removed
                }
                let cei = instance.cei(e.cei);
                let Status::Active(cap) = &mut status[e.cei.index()] else {
                    continue;
                };
                if cap.mark_expired(e.ei_idx as usize) {
                    index.remove(*e, cei.eis[e.ei_idx as usize].resource.index());
                    if cap.is_doomed(cei.required) {
                        transitions.push((e.cei, CeiOutcome::Failed { at: t }));
                    }
                }
            }
            for &(id, outcome) in &transitions {
                if matches!(status[id.index()], Status::Active(_)) {
                    status[id.index()] = Status::Failed;
                    outcomes[id.index()] = outcome;
                    stats.record_outcome_of(instance.cei(id), outcome);
                    observer.on_event(Event::CeiExpired { cei: id, at: t });
                    index.remove_cei(instance, id);
                }
            }

            // -- 6b. Graceful degradation: an uncaptured EI whose whole
            // remaining window sits inside a committed outage is
            // unreachable; marking it expired sheds CEIs that can no longer
            // meet their threshold, after the natural pass so a CEI doomed
            // by a real window close always reports CeiExpired, not CeiShed.
            if fault_on {
                // Collect candidates from the down resources' lists, then
                // restore the legacy pool order before the stateful pass.
                shed_scratch.clear();
                for (r, d) in down_snapshot.iter().enumerate() {
                    let Some(until) = *d else {
                        continue;
                    };
                    for e in index.entries(r) {
                        if !index.is_live(*e) {
                            continue;
                        }
                        let ei = instance.cei(e.cei).eis[e.ei_idx as usize];
                        // `end <= t`: the natural expiry pass owns closed
                        // windows (a live entry's window is open anyway).
                        if ei.end > t && until >= ei.end {
                            shed_scratch.push((ei.start, e.cei.0, e.ei_idx));
                        }
                    }
                }
                shed_scratch.sort_unstable();
                transitions.clear();
                for &(_, cei_id, ei_idx) in shed_scratch.iter() {
                    let e = PoolEntry {
                        cei: CeiId(cei_id),
                        ei_idx,
                    };
                    let Status::Active(cap) = &mut status[e.cei.index()] else {
                        continue;
                    };
                    let cei = instance.cei(e.cei);
                    if cap.mark_expired(ei_idx as usize) {
                        index.remove(e, cei.eis[ei_idx as usize].resource.index());
                        if cap.is_doomed(cei.required) {
                            transitions.push((e.cei, CeiOutcome::Failed { at: t }));
                        }
                    }
                }
                for &(id, outcome) in &transitions {
                    if matches!(status[id.index()], Status::Active(_)) {
                        status[id.index()] = Status::Failed;
                        outcomes[id.index()] = outcome;
                        stats.record_outcome_of(instance.cei(id), outcome);
                        stats.ceis_shed += 1;
                        observer.on_event(Event::CeiShed { cei: id, at: t });
                        index.remove_cei(instance, id);
                    }
                }
            }

            // -- 7. Queue upkeep for the next chronon: copies the keyed queue
            // skipped rejoin their heaps, and CEIs captured for the first
            // time join cands⁺ (NP) — the keyed queue re-files their live
            // entries there.
            if let Some(queue) = &mut keyed {
                queue.requeue_skipped(&index, &status, &started);
            }
            for &id in &captured_now {
                if std::mem::replace(&mut started[id.index()], true) {
                    continue;
                }
                if let Some(queue) = &mut keyed {
                    let ctx = policy_context(t, &active_snapshot, &has_update);
                    queue.push_cei(instance, policy, &ctx, &index, &status, &started, id);
                }
            }
            captured_now.clear();

            observer.on_event(Event::ChrononEnd {
                t,
                spent: used,
                budget,
            });
        }

        // Any CEI still unresolved at epoch end is recorded as pending so
        // the size histogram sums to n_ceis. This is reached by CEIs the
        // trace never releases inside the epoch (`NotArrived`) and by CEIs
        // whose unreleased-at-expiry EIs never joined the pool, so no
        // expiry event ever doomed them (`Active`).
        for (i, s) in status.iter().enumerate() {
            if matches!(s, Status::Active(_) | Status::NotArrived) {
                stats.record_outcome_of(&instance.ceis[i], CeiOutcome::Pending);
            }
        }

        RunResult {
            schedule,
            stats,
            outcomes,
            selection_steps,
        }
    }
}

/// The [`PolicyContext`] of chronon `now` over the engine's per-resource
/// aggregates.
fn policy_context<'a>(
    now: Chronon,
    active_eis: &'a [u32],
    has_update: &'a [bool],
) -> PolicyContext<'a> {
    PolicyContext {
        now,
        resources: ResourceStats {
            active_eis,
            has_update,
        },
    }
}

/// Builds the [`EngineSnapshot`] of the boundary of chronon `t`: every
/// piece of cross-chronon state, with the candidate index recorded as live
/// entries in per-resource list order (the order shared captures fire in).
#[allow(clippy::too_many_arguments)]
fn snapshot_state(
    t: Chronon,
    instance: &Instance,
    index: &CandidateIndex,
    status: &[Status],
    outcomes: &[CeiOutcome],
    stats: &RunStats,
    schedule: &Schedule,
    budget_override: Option<u32>,
    pending_budget: Option<u32>,
    announced: &[Option<Chronon>],
    consec_failures: &[u32],
    next_attempt_at: &[Chronon],
) -> EngineSnapshot {
    let n_res = instance.n_resources as usize;
    let mut per_resource: Vec<Vec<(u32, u16)>> = Vec::with_capacity(n_res);
    for r in 0..n_res {
        let mut live = Vec::new();
        for e in index.entries(r) {
            if index.is_live(*e) {
                live.push((e.cei.0, e.ei_idx));
            }
        }
        per_resource.push(live);
    }
    EngineSnapshot {
        at: t,
        status: status
            .iter()
            .map(|s| match s {
                Status::NotArrived => CeiState::NotArrived,
                Status::Active(cap) => CeiState::Active {
                    captured: cap.flags().to_vec(),
                    expired: cap.expired_flags().to_vec(),
                },
                Status::Captured => CeiState::Captured,
                Status::Failed => CeiState::Failed,
                Status::Cancelled => CeiState::Cancelled,
            })
            .collect(),
        outcomes: outcomes.to_vec(),
        stats: stats.clone(),
        schedule: schedule.clone(),
        budget_override,
        pending_budget,
        announced: announced.to_vec(),
        consec_failures: consec_failures.to_vec(),
        next_attempt_at: next_attempt_at.to_vec(),
        index: per_resource,
    }
}

/// Scores one pool entry if it is live and phase-eligible: parent active,
/// EI uncaptured and unexpired. Returns `None` otherwise.
fn score_entry(
    instance: &Instance,
    policy: &dyn Policy,
    ctx: &PolicyContext<'_>,
    status: &[Status],
    e: PoolEntry,
    phase: Option<(bool, &[bool])>,
) -> Option<i64> {
    let cap = status[e.cei.index()].capture_set()?;
    if cap.is_captured(e.ei_idx as usize) || cap.is_expired(e.ei_idx as usize) {
        return None;
    }
    if let Some((required, snapshot)) = phase {
        if snapshot[e.cei.index()] != required {
            return None;
        }
    }
    let cei = instance.cei(e.cei);
    let cand = Candidate {
        ei: cei.eis[e.ei_idx as usize],
        ei_index: e.ei_idx as usize,
        cei: CeiView {
            eis: &cei.eis,
            captured: cap.flags(),
            n_captured: cap.n_captured() as u16,
            required: cei.required,
            weight: cei.weight,
            profile_rank: instance.profiles[cei.profile.index()].rank,
        },
    };
    Some(policy.score(ctx, &cand))
}

/// Scans the index for the minimum-score live candidate. Ties break by
/// `(score, cei id, ei index)` so runs are deterministic regardless of
/// iteration order. Each call counts as one selection step.
#[allow(clippy::too_many_arguments)]
fn argmin_candidate(
    instance: &Instance,
    policy: &dyn Policy,
    ctx: &PolicyContext<'_>,
    index: &CandidateIndex,
    status: &[Status],
    probed_now: &[bool],
    blocked: &[bool],
    remaining_budget: u32,
    phase: Option<(bool, &[bool])>,
    steps: &mut u64,
) -> Option<PoolEntry> {
    *steps += 1;
    let mut best: Option<(i64, PoolEntry)> = None;
    for r in 0..probed_now.len() {
        if probed_now[r] {
            continue; // already captured by an earlier probe this chronon
        }
        if blocked[r] {
            continue; // down, backing off, or out of retry quota
        }
        if instance.costs.of(ResourceId(r as u32)) > remaining_budget {
            continue; // unaffordable this chronon (varying-costs extension)
        }
        for e in index.entries(r) {
            if !index.is_live(*e) {
                continue;
            }
            let Some(score) = score_entry(instance, policy, ctx, status, *e, phase) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((s, b)) => (score, e.cei.0, e.ei_idx) < (*s, b.cei.0, b.ei_idx),
            };
            if better {
                best = Some((score, *e));
            }
        }
    }
    best.map(|(_, e)| e)
}

/// Pops the minimum-score live candidate from the lazy heap, re-pushing
/// entries whose stored score went stale (a sibling capture this chronon
/// changed it). Tie ordering matches [`argmin_candidate`]. Each pop counts
/// as one selection step.
#[allow(clippy::too_many_arguments)]
fn pop_valid(
    instance: &Instance,
    policy: &dyn Policy,
    ctx: &PolicyContext<'_>,
    heap: &mut ScoreHeap,
    status: &[Status],
    probed_now: &[bool],
    blocked: &[bool],
    remaining_budget: u32,
    phase: Option<(bool, &[bool])>,
    steps: &mut u64,
) -> Option<PoolEntry> {
    while let Some(std::cmp::Reverse((stored, cei, ei_idx))) = heap.pop() {
        *steps += 1;
        let e = PoolEntry {
            cei: CeiId(cei),
            ei_idx,
        };
        let resource = instance.cei(e.cei).eis[e.ei_idx as usize].resource;
        if probed_now[resource.index()] {
            continue; // captured earlier this chronon
        }
        if blocked[resource.index()] {
            continue; // down, backing off, or out of retry quota
        }
        let Some(current) = score_entry(instance, policy, ctx, status, e, phase) else {
            continue; // no longer live
        };
        if current != stored {
            heap.push(std::cmp::Reverse((current, cei, ei_idx)));
            continue; // stale score: reinsert at its true priority
        }
        if instance.costs.of(resource) > remaining_budget {
            continue; // unaffordable for the rest of this chronon
        }
        return Some(e);
    }
    None
}

/// The persistent candidate queue of [`ScoreDynamics::StateKeyed`] policies
/// under [`SelectionStrategy::Incremental`].
///
/// A state-keyed score changes only when a sibling EI is captured, so the
/// queue keeps one min-heap per selection group across chronons — `[pool]`
/// in P mode; `[cands⁺, new]` in NP mode, in phase order — and scores an
/// entry only when its score is new: its window opens (or a registration
/// brings it in open), or a sibling capture re-scores the rest of its CEI
/// into the CEI's own group, whatever phase is running. A CEI's first
/// capture re-files its live entries into cands⁺ at the chronon's end, and
/// a failed probe or an entry skipped this chronon (blocked or
/// unaffordable) is pushed back. Every copy carries its CEI's capture count
/// when scored, so a pop drops dead, stale and wrong-group copies without
/// calling the policy.
///
/// **Invariant.** Every live entry has a copy whose key is its current
/// `(score, cei, ei_idx)` in its group's heap — or, once popped and skipped
/// this chronon, in `skipped`. The first current, selectable pop is
/// therefore the [`argmin_candidate`] pick under the same tie-break, and
/// schedules match `Scan`'s. The queue is not part of a snapshot: a resume
/// rebuilds it from the restored pool, and so does a chronon whose heaps
/// hold more garbage than the pool has live entries.
struct KeyedQueue {
    /// One min-heap per selection group.
    heaps: Vec<std::collections::BinaryHeap<std::cmp::Reverse<KeyedCopy>>>,
    /// Copies popped but skipped this chronon, with their group; they
    /// rejoin the heaps at the chronon's end.
    skipped: Vec<(usize, KeyedCopy)>,
}

impl KeyedQueue {
    /// Heaps may hold this many copies beyond twice the live pool before
    /// they are rebuilt.
    const SLACK: usize = 4096;

    fn new(groups: usize) -> Self {
        KeyedQueue {
            heaps: (0..groups)
                .map(|_| std::collections::BinaryHeap::new())
                .collect(),
            skipped: Vec::new(),
        }
    }

    /// The group of a CEI's entries: 0 in P mode; in NP mode 0 for cands⁺
    /// and 1 for CEIs not started yet.
    fn group(&self, started: &[bool], cei: CeiId) -> usize {
        usize::from(self.heaps.len() > 1 && !started[cei.index()])
    }

    /// Whether `copy` in `group` still keys a live entry at its current
    /// score: the entry is live, its CEI's capture count is unchanged since
    /// the copy was scored, and the CEI has not moved groups.
    fn is_current(
        &self,
        group: usize,
        copy: KeyedCopy,
        index: &CandidateIndex,
        status: &[Status],
        started: &[bool],
    ) -> bool {
        let (_, cei, ei_idx, captured) = copy;
        let e = PoolEntry {
            cei: CeiId(cei),
            ei_idx,
        };
        index.is_live(e)
            && status[e.cei.index()]
                .capture_set()
                .is_some_and(|cap| cap.n_captured() == usize::from(captured))
            && self.group(started, e.cei) == group
    }

    /// The copy of `e` at its current score, if `e` is live.
    fn copy_of(
        instance: &Instance,
        policy: &dyn Policy,
        ctx: &PolicyContext<'_>,
        index: &CandidateIndex,
        status: &[Status],
        e: PoolEntry,
    ) -> Option<KeyedCopy> {
        if !index.is_live(e) {
            return None;
        }
        let captured = status[e.cei.index()].capture_set()?.n_captured() as u16;
        let score = score_entry(instance, policy, ctx, status, e, None)?;
        Some((score, e.cei.0, e.ei_idx, captured))
    }

    /// Scores `e` into its group's heap if it is live.
    #[allow(clippy::too_many_arguments)]
    fn push_live(
        &mut self,
        instance: &Instance,
        policy: &dyn Policy,
        ctx: &PolicyContext<'_>,
        index: &CandidateIndex,
        status: &[Status],
        started: &[bool],
        e: PoolEntry,
    ) {
        if let Some(copy) = Self::copy_of(instance, policy, ctx, index, status, e) {
            let group = self.group(started, e.cei);
            self.heaps[group].push(std::cmp::Reverse(copy));
        }
    }

    /// Scores every live entry of CEI `id` into its group's heap.
    #[allow(clippy::too_many_arguments)]
    fn push_cei(
        &mut self,
        instance: &Instance,
        policy: &dyn Policy,
        ctx: &PolicyContext<'_>,
        index: &CandidateIndex,
        status: &[Status],
        started: &[bool],
        id: CeiId,
    ) {
        for idx in 0..instance.cei(id).size() {
            let e = PoolEntry {
                cei: id,
                ei_idx: idx as u16,
            };
            self.push_live(instance, policy, ctx, index, status, started, e);
        }
    }

    /// Pops `group`'s minimum current copy whose resource is selectable
    /// now, dropping dead, stale and wrong-group copies and setting aside
    /// blocked or unaffordable ones until the chronon's end. Each pop
    /// counts as one selection step.
    #[allow(clippy::too_many_arguments)]
    fn pop(
        &mut self,
        group: usize,
        instance: &Instance,
        index: &CandidateIndex,
        status: &[Status],
        started: &[bool],
        blocked: &[bool],
        remaining_budget: u32,
        steps: &mut u64,
    ) -> Option<KeyedCopy> {
        while let Some(std::cmp::Reverse(copy)) = self.heaps[group].pop() {
            *steps += 1;
            if !self.is_current(group, copy, index, status, started) {
                continue;
            }
            let resource = instance.cei(CeiId(copy.1)).eis[copy.2 as usize].resource;
            if blocked[resource.index()] || instance.costs.of(resource) > remaining_budget {
                // Blocks and the remaining budget only tighten within a
                // chronon, so the entry stays unselectable until its end.
                self.skipped.push((group, copy));
                continue;
            }
            return Some(copy);
        }
        None
    }

    /// Returns a selected copy whose probe failed: its entry is still live
    /// at the same score, and selectable again this chronon unless its
    /// resource is now `blocked`.
    fn put_back(&mut self, group: usize, copy: KeyedCopy, blocked: bool) {
        if blocked {
            self.skipped.push((group, copy));
        } else {
            self.heaps[group].push(std::cmp::Reverse(copy));
        }
    }

    /// End of chronon: skipped copies that are still current rejoin their
    /// heaps.
    fn requeue_skipped(&mut self, index: &CandidateIndex, status: &[Status], started: &[bool]) {
        let mut skipped = std::mem::take(&mut self.skipped);
        for (group, copy) in skipped.drain(..) {
            if self.is_current(group, copy, index, status, started) {
                self.heaps[group].push(std::cmp::Reverse(copy));
            }
        }
        self.skipped = skipped;
    }

    /// Whether dead, stale and wrong-group copies have outgrown a pool of
    /// `live` entries, so a [`rebuild`](Self::rebuild) pays for itself.
    fn needs_rebuild(&self, live: u32) -> bool {
        let copies: usize = self
            .heaps
            .iter()
            .map(std::collections::BinaryHeap::len)
            .sum();
        copies > 2 * live as usize + Self::SLACK
    }

    /// Rebuilds every heap from the pool, one current copy per live entry,
    /// reusing the heaps' storage. Runs on resume, and at a chronon
    /// boundary (when `skipped` is empty) once garbage outgrows the pool.
    #[allow(clippy::too_many_arguments)]
    fn rebuild(
        &mut self,
        instance: &Instance,
        policy: &dyn Policy,
        ctx: &PolicyContext<'_>,
        index: &CandidateIndex,
        status: &[Status],
        started: &[bool],
    ) {
        let mut groups: Vec<Vec<std::cmp::Reverse<KeyedCopy>>> = self
            .heaps
            .iter_mut()
            .map(|heap| {
                let mut copies = std::mem::take(heap).into_vec();
                copies.clear();
                copies
            })
            .collect();
        for r in 0..instance.n_resources as usize {
            for &e in index.entries(r) {
                if let Some(copy) = Self::copy_of(instance, policy, ctx, index, status, e) {
                    groups[self.group(started, e.cei)].push(std::cmp::Reverse(copy));
                }
            }
        }
        self.heaps = groups
            .into_iter()
            .map(std::collections::BinaryHeap::from)
            .collect();
    }
}

/// Marks every live pool EI on `resource` as captured by the probe at
/// chronon `t`, completing CEIs whose last required EI this was. Liveness
/// implies an active window and an `Active` parent (see `engine::index`),
/// so every live entry on the probed resource is captured and the list
/// empties wholesale: it is swapped out for iteration, cleared with its
/// capacity kept, and swapped back.
#[allow(clippy::too_many_arguments)]
fn capture_resource<O: Observer>(
    instance: &Instance,
    index: &mut CandidateIndex,
    scratch: &mut Vec<PoolEntry>,
    status: &mut [Status],
    resource: usize,
    t: Chronon,
    stats: &mut RunStats,
    outcomes: &mut [CeiOutcome],
    completed: &mut Vec<(CeiId, CeiOutcome)>,
    touched: &mut Vec<CeiId>,
    observer: &mut O,
) {
    completed.clear();
    std::mem::swap(scratch, &mut index.by_resource[resource]);
    for e in scratch.iter() {
        if !index.is_live(*e) {
            continue; // tombstone awaiting a sweep
        }
        let Status::Active(cap) = &mut status[e.cei.index()] else {
            debug_assert!(false, "live entry with a resolved parent");
            continue;
        };
        let ei = instance.cei(e.cei).eis[e.ei_idx as usize];
        debug_assert!(ei.resource.index() == resource && ei.is_active(t));
        if cap.capture(e.ei_idx as usize) {
            index.mark_captured(*e, resource);
            stats.eis_captured += 1;
            observer.on_event(Event::EiCaptured {
                t,
                cei: e.cei,
                latency: t - ei.start,
            });
            if !touched.contains(&e.cei) {
                touched.push(e.cei);
            }
            // Record completion exactly once: when this capture crosses the
            // threshold (under threshold semantics `meets` stays true for
            // every further capture in the same probe).
            if cap.n_captured() == usize::from(instance.cei(e.cei).required) {
                completed.push((e.cei, CeiOutcome::Captured { at: t }));
            }
        }
    }
    scratch.clear();
    std::mem::swap(scratch, &mut index.by_resource[resource]);
    index.reset_cleared(resource);
    for &(id, outcome) in completed.iter() {
        status[id.index()] = Status::Captured;
        outcomes[id.index()] = outcome;
        stats.record_outcome_of(instance.cei(id), outcome);
        observer.on_event(Event::CeiCompleted { cei: id, at: t });
        // The completed CEI's entries on other resources leave the pool now.
        index.remove_cei(instance, id);
    }
}

/// Ablation path (`share_probes = false`): a probe captures only the EI it
/// was issued for.
#[allow(clippy::too_many_arguments)]
fn capture_single<O: Observer>(
    instance: &Instance,
    index: &mut CandidateIndex,
    entry: PoolEntry,
    status: &mut [Status],
    t: Chronon,
    stats: &mut RunStats,
    outcomes: &mut [CeiOutcome],
    observer: &mut O,
) {
    let Status::Active(cap) = &mut status[entry.cei.index()] else {
        return;
    };
    if cap.capture(entry.ei_idx as usize) {
        let ei = instance.cei(entry.cei).eis[entry.ei_idx as usize];
        index.remove(entry, ei.resource.index());
        stats.eis_captured += 1;
        observer.on_event(Event::EiCaptured {
            t,
            cei: entry.cei,
            latency: t - ei.start,
        });
        if cap.n_captured() == usize::from(instance.cei(entry.cei).required) {
            let outcome = CeiOutcome::Captured { at: t };
            status[entry.cei.index()] = Status::Captured;
            outcomes[entry.cei.index()] = outcome;
            stats.record_outcome_of(instance.cei(entry.cei), outcome);
            observer.on_event(Event::CeiCompleted {
                cei: entry.cei,
                at: t,
            });
            index.remove_cei(instance, entry.cei);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Budget, CeiId, InstanceBuilder};
    use crate::policy::{MEdf, Mrsf, SEdf};
    use crate::stats::CeiOutcome;

    fn run_sedf(instance: &Instance) -> RunResult {
        OnlineEngine::run(instance, &SEdf, EngineConfig::preemptive())
    }

    #[test]
    fn single_ei_cei_is_captured() {
        let mut b = InstanceBuilder::new(1, 5, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 3)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert_eq!(r.outcomes[0], CeiOutcome::Captured { at: 1 });
        // S-EDF probes the moment the window opens.
        assert!(r.schedule.is_probed(crate::model::ResourceId(0), 1));
    }

    #[test]
    fn conjunctive_cei_requires_all_eis() {
        // Two EIs on different resources, same single chronon, budget 1:
        // only one can be probed → the CEI fails.
        let mut b = InstanceBuilder::new(2, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1), (1, 1, 1)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 0);
        assert_eq!(r.stats.ceis_failed, 1);
        assert_eq!(r.stats.eis_captured, 1);
        assert_eq!(r.outcomes[0], CeiOutcome::Failed { at: 1 });
    }

    #[test]
    fn staggered_windows_allow_full_capture_with_budget_one() {
        let mut b = InstanceBuilder::new(2, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2), (1, 3, 5)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert_eq!(r.stats.probes_used, 2);
    }

    #[test]
    fn one_probe_captures_overlapping_eis_on_same_resource() {
        // Two CEIs, each one EI on resource 0, overlapping at chronon 2.
        let mut b = InstanceBuilder::new(1, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2)]);
        b.cei(p, &[(0, 2, 5)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        // S-EDF probes r0 at chronon... EI0 deadline first: probe at 0
        // captures only EI0 (EI1 not open). EI1 captured later. Either way
        // both captured with ≤ 2 probes.
        assert_eq!(r.stats.ceis_captured, 2);
        // With intra-resource sharing a probe at chronon 2 would capture
        // both; S-EDF (earliest deadline) probes at 0, so 2 probes are used.
        assert!(r.stats.probes_used <= 2);
    }

    #[test]
    fn probe_sharing_captures_across_ceis_in_one_chronon() {
        // Both EIs live only at chronon 1 on the same resource: one probe,
        // two captures.
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(0, 1, 1)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 2);
        assert_eq!(r.stats.probes_used, 1);
    }

    #[test]
    fn budget_zero_captures_nothing() {
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(0));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 0);
        assert_eq!(r.stats.probes_used, 0);
        assert_eq!(r.stats.ceis_failed, 1);
    }

    #[test]
    fn per_chronon_budget_is_respected() {
        let mut b = InstanceBuilder::new(3, 3, Budget::PerChronon(vec![0, 3, 0]));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2)]);
        b.cei(p, &[(1, 0, 2)]);
        b.cei(p, &[(2, 0, 2)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 3);
        assert_eq!(r.schedule.probes_at(1).len(), 3);
        assert!(r.schedule.probes_at(0).is_empty());
        assert!(r.schedule.is_feasible(&inst.budget));
    }

    #[test]
    fn schedule_is_always_feasible() {
        let mut b = InstanceBuilder::new(4, 20, Budget::Uniform(2));
        let p = b.profile();
        for k in 0..6u32 {
            let s = k * 3;
            b.cei(p, &[(k % 4, s, s + 2), ((k + 1) % 4, s + 1, s + 4)]);
        }
        let inst = b.build();
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let r = OnlineEngine::run(&inst, policy, config);
                assert!(r.schedule.is_feasible(&inst.budget));
                assert_eq!(
                    r.stats.ceis_captured + r.stats.ceis_failed,
                    r.stats.n_ceis,
                    "all CEIs resolve by epoch end"
                );
            }
        }
    }

    #[test]
    fn non_preemptive_prioritizes_started_ceis() {
        // CEI A (2 EIs): first EI captured at chronon 0. Its second EI and
        // new CEI B's only EI are both live at chronon 2 on different
        // resources, B with the tighter deadline. NP must finish A first.
        let mut b = InstanceBuilder::new(2, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 0), (1, 2, 5)]); // A
        b.cei(p, &[(0, 2, 2)]); // B: tight deadline, S-EDF would pick it
        let inst = b.build();

        let np = OnlineEngine::run(&inst, &SEdf, EngineConfig::non_preemptive());
        // NP: chronon 0 probes r0 (captures A.0 and... B not open yet).
        // Chronon 2: A started → phase 1 probes r1 for A; B expires.
        assert_eq!(np.outcomes[0], CeiOutcome::Captured { at: 2 });
        assert_eq!(np.outcomes[1], CeiOutcome::Failed { at: 2 });

        let p_run = OnlineEngine::run(&inst, &SEdf, EngineConfig::preemptive());
        // P: chronon 2 S-EDF prefers B (deadline 1 < A's 4); A finishes at 3.
        assert_eq!(p_run.outcomes[1], CeiOutcome::Captured { at: 2 });
        assert_eq!(p_run.outcomes[0], CeiOutcome::Captured { at: 3 });
    }

    #[test]
    fn release_before_window_defers_probing() {
        let mut b = InstanceBuilder::new(1, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei_released(p, 0, &[(0, 4, 5)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        // No probe before the window opens.
        for t in 0..4 {
            assert!(r.schedule.probes_at(t).is_empty());
        }
    }

    #[test]
    fn mrsf_finishes_near_complete_cei_first() {
        // CEI A has 2 EIs (one already capturable at chronon 0); CEI B has 3.
        // At the contended chronon, MRSF sticks with A.
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let pa = b.profile();
        b.cei(pa, &[(0, 0, 0), (0, 2, 4)]);
        let pb = b.profile();
        b.cei(pb, &[(1, 2, 4), (1, 5, 6), (1, 7, 8)]);
        let inst = b.build();
        let r = OnlineEngine::run(&inst, &Mrsf, EngineConfig::preemptive());
        // Both can be fully captured here (disjoint resources), but A first.
        assert!(r.outcomes[0].is_captured());
        assert!(r.outcomes[1].is_captured());
    }

    #[test]
    fn without_sharing_one_probe_captures_one_ei() {
        // Two unit CEIs on the same resource at the same chronon, C = 1:
        // with sharing both are captured by one probe; without it, only the
        // selected one.
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(0, 1, 1)]);
        let inst = b.build();

        let shared = OnlineEngine::run(&inst, &SEdf, EngineConfig::preemptive());
        assert_eq!(shared.stats.ceis_captured, 2);

        let unshared = OnlineEngine::run(
            &inst,
            &SEdf,
            EngineConfig::preemptive().without_probe_sharing(),
        );
        assert_eq!(unshared.stats.ceis_captured, 1);
        assert_eq!(unshared.stats.probes_used, 1);
    }

    #[test]
    fn without_sharing_duplicate_probes_consume_budget() {
        // Same-resource overlap at one chronon with C = 2: the ablation
        // spends both probes on r0 to capture both EIs.
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(2));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(0, 1, 1)]);
        let inst = b.build();
        let r = OnlineEngine::run(
            &inst,
            &SEdf,
            EngineConfig::preemptive().without_probe_sharing(),
        );
        assert_eq!(r.stats.ceis_captured, 2);
        // Two selections, but the physical schedule holds one probe.
        assert_eq!(r.stats.probes_used, 2);
        assert_eq!(r.schedule.total_probes(), 1);
    }

    #[test]
    fn threshold_cei_captured_by_subset() {
        // A 1-of-2 CEI whose EIs collide at the same chronon on different
        // resources with C = 1: AND semantics fails it, threshold succeeds.
        let mut b = InstanceBuilder::new(2, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei_threshold(p, 1, &[(0, 1, 1), (1, 1, 1)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert_eq!(r.outcomes[0], CeiOutcome::Captured { at: 1 });
    }

    #[test]
    fn threshold_cei_survives_one_expiry() {
        // 2-of-3 with one unreachable window (budget 0 at its only chronon
        // via per-chronon budget): the CEI still completes on the others.
        let mut b = InstanceBuilder::new(
            3,
            10,
            Budget::PerChronon(vec![0, 0, 1, 1, 1, 1, 1, 1, 1, 1]),
        );
        let p = b.profile();
        b.cei_threshold(p, 2, &[(0, 1, 1), (1, 3, 4), (2, 6, 7)]);
        let inst = b.build();
        let r = OnlineEngine::run(&inst, &Mrsf, EngineConfig::preemptive());
        assert!(r.outcomes[0].is_captured(), "outcomes: {:?}", r.outcomes);
        assert_eq!(r.stats.eis_captured, 2);
    }

    #[test]
    fn threshold_cei_fails_once_doomed() {
        // Requires 2 captures; with zero budget the CEI is doomed exactly
        // when the second-to-last window closes.
        let mut b = InstanceBuilder::new(3, 10, Budget::Uniform(0));
        let p = b.profile();
        b.cei_threshold(p, 2, &[(0, 1, 1), (1, 2, 2), (2, 8, 9)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        // t=1: one expiry, 2 windows possible >= 2 -> alive;
        // t=2: second expiry, 1 possible < 2 -> failed at 2.
        assert_eq!(r.outcomes[0], CeiOutcome::Failed { at: 2 });
    }

    #[test]
    fn weighted_stats_accumulate_utilities() {
        let mut b = InstanceBuilder::new(2, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei_weighted(p, 3.0, &[(0, 0, 1)]);
        b.cei_weighted(p, 1.0, &[(0, 3, 3), (1, 3, 3)]); // fails (C=1)
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert!((r.stats.weight_total - 4.0).abs() < 1e-9);
        assert!((r.stats.weight_captured - 3.0).abs() < 1e-9);
        assert!((r.stats.weighted_completeness() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn utility_weighted_policy_prioritizes_heavy_ceis() {
        use crate::policy::UtilityWeighted;
        // Two identical unit CEIs competing for one probe; the heavy one
        // must win under the utility-weighted policy.
        let mut b = InstanceBuilder::new(2, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei_weighted(p, 1.0, &[(0, 1, 1)]);
        b.cei_weighted(p, 5.0, &[(1, 1, 1)]);
        let inst = b.build();

        let plain = OnlineEngine::run(&inst, &SEdf, EngineConfig::preemptive());
        // Tie-break by id: the light CEI wins under the unweighted policy.
        assert!(plain.outcomes[0].is_captured());
        assert!(!plain.outcomes[1].is_captured());

        let weighted = UtilityWeighted::new(SEdf, "U-S-EDF");
        let run = OnlineEngine::run(&inst, &weighted, EngineConfig::preemptive());
        assert!(!run.outcomes[0].is_captured());
        assert!(run.outcomes[1].is_captured());
        assert!(run.stats.weighted_completeness() > plain.stats.weighted_completeness());
    }

    #[test]
    fn varying_costs_constrain_selection() {
        use crate::model::ProbeCosts;
        // r0 costs 2, r1 costs 1; budget 2 per chronon. Both unit CEIs live
        // at chronon 1 only: probing r0 exhausts the budget, so only one of
        // the two can be captured — unless the policy picks r1 first, in
        // which case r0 (cost 2 > remaining 1) is unaffordable.
        let mut b = InstanceBuilder::new(2, 3, Budget::Uniform(2));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(1, 1, 1)]);
        let inst = b.build().with_costs(ProbeCosts::per_resource(vec![2, 1]));
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert_eq!(r.stats.budget_spent, 2);
        // With uniform costs the same instance captures both.
        let uniform = b_uniform();
        let r2 = run_sedf(&uniform);
        assert_eq!(r2.stats.ceis_captured, 2);

        fn b_uniform() -> Instance {
            let mut b = InstanceBuilder::new(2, 3, Budget::Uniform(2));
            let p = b.profile();
            b.cei(p, &[(0, 1, 1)]);
            b.cei(p, &[(1, 1, 1)]);
            b.build()
        }
    }

    #[test]
    fn unaffordable_resource_is_skipped_not_blocking() {
        use crate::model::ProbeCosts;
        // r0 costs 3 > budget 2 — never probeable; r1 must still be served.
        let mut b = InstanceBuilder::new(2, 4, Budget::Uniform(2));
        let p = b.profile();
        b.cei(p, &[(0, 1, 2)]);
        b.cei(p, &[(1, 1, 2)]);
        let inst = b.build().with_costs(ProbeCosts::per_resource(vec![3, 1]));
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert!(r.outcomes[1].is_captured());
        assert!(!r.outcomes[0].is_captured());
    }

    /// A contended multi-EI workload where intra-chronon captures shift
    /// MRSF / M-EDF sibling scores, exercising the heap refresh paths.
    fn contended_instance() -> Instance {
        let mut b = InstanceBuilder::new(5, 30, Budget::Uniform(3));
        let p = b.profile();
        for k in 0..12u32 {
            let s = (k * 2) % 24;
            b.cei(p, &[(k % 5, s, s + 3), ((k + 2) % 5, s + 1, s + 5)]);
        }
        for k in 0..8u32 {
            let s = (k * 3) % 20;
            b.cei(
                p,
                &[
                    (k % 5, s, s + 4),
                    ((k + 1) % 5, s + 1, s + 6),
                    ((k + 3) % 5, s + 2, s + 8),
                ],
            );
        }
        b.build()
    }

    #[test]
    fn unstable_scores_fall_back_to_scan_selection() {
        use crate::policy::RandomPolicy;
        // Regression: `RandomPolicy` re-scores the same candidate to a new
        // value on every call, so the heap selector's stale-entry re-push
        // loop never terminated (the selection-step counter overflowed).
        // The engine must pin unstable-score policies to `Scan`: the run
        // completes, and the default selector produces the `Scan` result
        // bit for bit (same RNG draw sequence ⇒ same schedule).
        let inst = contended_instance();
        for base in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let scan = OnlineEngine::run(&inst, &RandomPolicy::new(7), base.with_scan());
            let run = OnlineEngine::run(&inst, &RandomPolicy::new(7), base);
            assert_eq!(scan.schedule, run.schedule, "{base:?}: schedules diverge");
            assert_eq!(scan.stats, run.stats);
            assert_eq!(scan.outcomes, run.outcomes);
        }
    }

    #[test]
    fn incremental_is_the_default_selection() {
        assert_eq!(
            EngineConfig::preemptive().selection,
            SelectionStrategy::Incremental
        );
        assert_eq!(
            EngineConfig::non_preemptive().selection,
            SelectionStrategy::Incremental
        );
        assert_eq!(SelectionStrategy::default(), SelectionStrategy::Incremental);
    }

    #[test]
    fn incremental_matches_scan_on_structured_instances() {
        use crate::policy::{MEdf, Wic};
        let inst = contended_instance();
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &Wic::paper()] {
            for base in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                for variant in [base, base.without_probe_sharing()] {
                    let scan = OnlineEngine::run(&inst, policy, variant.with_scan());
                    let inc = OnlineEngine::run(&inst, policy, variant);
                    assert_eq!(
                        scan.schedule,
                        inc.schedule,
                        "{} {:?}: schedules diverge",
                        policy.name(),
                        variant
                    );
                    assert_eq!(scan.stats, inc.stats);
                    assert_eq!(scan.outcomes, inc.outcomes);
                }
            }
        }
    }

    #[test]
    fn incremental_matches_scan_trace_bytes() {
        use crate::obs::JsonlTraceObserver;
        use crate::policy::MEdf;
        // The contract is stronger than schedule equality: the full event
        // stream — including per-probe fan-outs and candidate-set sizes —
        // must be byte-identical to the reference scan's.
        let inst = contended_instance();
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf] {
            for base in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let mut scan = JsonlTraceObserver::new(Vec::<u8>::new());
                OnlineEngine::run_observed(&inst, policy, base.with_scan(), &mut scan);
                let mut incremental = JsonlTraceObserver::new(Vec::<u8>::new());
                OnlineEngine::run_observed(&inst, policy, base, &mut incremental);
                assert_eq!(
                    scan.finish().expect("in-memory write"),
                    incremental.finish().expect("in-memory write"),
                    "{} {:?}: trace bytes diverge",
                    policy.name(),
                    base
                );
            }
        }
    }

    #[test]
    fn shared_probe_crossing_threshold_records_once() {
        // Regression: a 1-of-2 CEI whose two EIs sit on the SAME resource at
        // the same chronon — one probe captures both EIs and crosses the
        // threshold twice-over; the completion must be recorded exactly once.
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei_threshold(p, 1, &[(0, 1, 1), (0, 1, 1)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        assert_eq!(r.stats.ceis_captured, 1);
        assert_eq!(r.stats.n_ceis, 1);
        assert_eq!(r.stats.eis_captured, 2);
        let total: u64 = r.stats.by_size.values().map(|b| b.total).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn metrics_observer_totals_match_run_stats() {
        use crate::obs::{MetricsObserver, Observer};
        let mut b = InstanceBuilder::new(4, 30, Budget::Uniform(2));
        let p = b.profile();
        for k in 0..10u32 {
            let s = (k * 2) % 24;
            b.cei(p, &[(k % 4, s, s + 3), ((k + 2) % 4, s + 1, s + 5)]);
        }
        let inst = b.build();
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let mut obs = MetricsObserver::new();
                let r = OnlineEngine::run_observed(&inst, policy, config, &mut obs);
                let m = obs.finish();
                assert_eq!(
                    m.consistency_errors(&r.stats),
                    Vec::<String>::new(),
                    "{} {:?}",
                    policy.name(),
                    config
                );
                assert_eq!(m.chronons, 30);
                assert_eq!(m.budget_utilization.count, 30);
                // The observed run is bit-identical to the unobserved one.
                let plain = OnlineEngine::run(&inst, policy, config);
                assert_eq!(plain.schedule, r.schedule);
                assert_eq!(plain.stats, r.stats);
                assert_eq!(plain.outcomes, r.outcomes);
                // enabled() is what gates the extra accounting scans.
                assert!(obs_enabled_probe(policy, config, &inst));
            }
        }

        fn obs_enabled_probe(policy: &dyn Policy, config: EngineConfig, inst: &Instance) -> bool {
            let mut obs = MetricsObserver::new();
            let enabled = obs.enabled();
            OnlineEngine::run_observed(inst, policy, config, &mut obs);
            enabled
        }
    }

    #[test]
    fn event_stream_orders_probe_before_captures() {
        use crate::obs::{Event, Observer};
        #[derive(Default)]
        struct Recorder(Vec<Event>);
        impl Observer for Recorder {
            fn on_event(&mut self, event: Event) {
                self.0.push(event);
            }
        }

        // Two CEIs overlap on resource 0 at chronon 1: one probe, fan-out 2.
        let mut b = InstanceBuilder::new(1, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(0, 1, 1)]);
        let inst = b.build();
        let mut rec = Recorder::default();
        OnlineEngine::run_observed(&inst, &SEdf, EngineConfig::preemptive(), &mut rec);

        let kinds: Vec<&str> = rec.0.iter().map(Event::kind).collect();
        // Chronon 1 contains the probe, then both captures, then both
        // completions (captures are marked in pool order before any CEI is
        // resolved, so a shared probe's captures batch ahead).
        let probe_at = kinds.iter().position(|&k| k == "ProbeIssued").unwrap();
        assert_eq!(
            &kinds[probe_at..probe_at + 5],
            &[
                "ProbeIssued",
                "EiCaptured",
                "EiCaptured",
                "CeiCompleted",
                "CeiCompleted"
            ]
        );
        let Event::ProbeIssued { shared_eis, .. } = rec.0[probe_at] else {
            panic!("not a probe");
        };
        assert_eq!(shared_eis, 2);
        // Every chronon opens and closes exactly once.
        assert_eq!(kinds.iter().filter(|&&k| k == "ChrononStart").count(), 3);
        assert_eq!(kinds.iter().filter(|&&k| k == "ChrononEnd").count(), 3);
        assert_eq!(kinds.iter().filter(|&&k| k == "CandidateSet").count(), 3);
    }

    #[test]
    fn budget_exhausted_reports_deferred_candidates() {
        use crate::obs::{Event, Observer};
        #[derive(Default)]
        struct Exhaustions(Vec<(Chronon, u32)>);
        impl Observer for Exhaustions {
            fn on_event(&mut self, event: Event) {
                if let Event::BudgetExhausted { t, deferred } = event {
                    self.0.push((t, deferred));
                }
            }
        }

        // Three unit CEIs on distinct resources, all live only at chronon 1,
        // budget 1: one is served, two are deferred (and then expire).
        let mut b = InstanceBuilder::new(3, 3, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1)]);
        b.cei(p, &[(1, 1, 1)]);
        b.cei(p, &[(2, 1, 1)]);
        let inst = b.build();
        let mut obs = Exhaustions::default();
        OnlineEngine::run_observed(&inst, &SEdf, EngineConfig::preemptive(), &mut obs);
        assert_eq!(obs.0, vec![(1, 2)]);
    }

    #[test]
    fn stats_size_histogram_sums_to_total() {
        let mut b = InstanceBuilder::new(2, 8, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 1)]);
        b.cei(p, &[(0, 2, 3), (1, 2, 3)]);
        b.cei(p, &[(0, 5, 6), (1, 5, 6)]);
        let inst = b.build();
        let r = run_sedf(&inst);
        let total: u64 = r.stats.by_size.values().map(|b| b.total).sum();
        assert_eq!(total, 3);
    }

    #[derive(Default)]
    struct EventRecorder(Vec<crate::obs::Event>);
    impl crate::obs::Observer for EventRecorder {
        fn on_event(&mut self, event: crate::obs::Event) {
            self.0.push(event);
        }
    }

    fn run_churned(
        inst: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        q: &MutationQueue,
        observer: &mut impl Observer,
    ) -> RunResult {
        OnlineEngine::run_mutated(
            inst,
            policy,
            config,
            &mut NoFaults,
            FaultConfig::default(),
            q,
            observer,
        )
    }

    #[test]
    fn empty_queue_is_bit_identical_to_unmutated_run() {
        let mut b = InstanceBuilder::new(3, 12, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 3), (1, 2, 6)]);
        b.cei(p, &[(2, 4, 8)]);
        b.cei(p, &[(0, 7, 10), (2, 9, 11)]);
        let inst = b.build();
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let mut plain = EventRecorder::default();
            let r1 = OnlineEngine::run_observed(&inst, &Mrsf, config, &mut plain);
            let mut churnless = EventRecorder::default();
            let r2 = run_churned(&inst, &Mrsf, config, &MutationQueue::new(), &mut churnless);
            assert_eq!(plain.0, churnless.0);
            assert_eq!(r1.schedule, r2.schedule);
            assert_eq!(r1.stats, r2.stats);
            assert_eq!(r1.outcomes, r2.outcomes);
        }
    }

    #[test]
    fn mid_run_registration_activates_with_release_now() {
        // CEI 1 is dynamic: registered at chronon 4 with one window already
        // open (2..=6) and one future window (6..=9). Nothing is probed for
        // it before the registration; both windows are then captured.
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 1)]);
        b.cei(p, &[(0, 2, 6), (1, 6, 9)]);
        let inst = b.build();
        let mut q = MutationQueue::new();
        q.register(4, CeiId(1));
        let r = run_churned(
            &inst,
            &SEdf,
            EngineConfig::preemptive(),
            &q,
            &mut NoopObserver,
        );
        assert!(r.schedule.probes_at(2).is_empty());
        assert!(r.schedule.probes_at(3).is_empty());
        assert!(r.schedule.is_probed(ResourceId(0), 4));
        assert!(r.schedule.is_probed(ResourceId(1), 6));
        assert_eq!(r.outcomes[1], CeiOutcome::Captured { at: 6 });
    }

    #[test]
    fn dynamic_single_chronon_cei_registered_at_its_only_chronon() {
        // release == deadline for a dynamic CEI: the window (0, 5, 5)
        // registered exactly at 5 rides the starts[5] bucket (processed
        // after the drain) and is capturable that very chronon.
        let mut b = InstanceBuilder::new(1, 8, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 5, 5)]);
        let inst = b.build();
        let mut q = MutationQueue::new();
        q.register(5, CeiId(0));
        let r = run_churned(
            &inst,
            &SEdf,
            EngineConfig::preemptive(),
            &q,
            &mut NoopObserver,
        );
        assert_eq!(r.outcomes[0], CeiOutcome::Captured { at: 5 });
        assert_eq!(r.stats.probes_used, 1);

        // Registered one chronon later the window is already closed: the
        // CEI fails on arrival without ever entering the pool.
        let mut late = MutationQueue::new();
        late.register(6, CeiId(0));
        let r = run_churned(
            &inst,
            &SEdf,
            EngineConfig::preemptive(),
            &late,
            &mut NoopObserver,
        );
        assert_eq!(r.outcomes[0], CeiOutcome::Failed { at: 6 });
        assert_eq!(r.stats.probes_used, 0);
        assert_eq!(r.stats.ceis_failed, 1);
    }

    #[test]
    fn cancellation_before_release_prevents_activation() {
        let mut b = InstanceBuilder::new(1, 8, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 4, 7)]);
        let inst = b.build();
        let mut q = MutationQueue::new();
        q.cancel(2, CeiId(0));
        let r = run_churned(
            &inst,
            &SEdf,
            EngineConfig::preemptive(),
            &q,
            &mut NoopObserver,
        );
        assert_eq!(r.outcomes[0], CeiOutcome::Cancelled { at: 2 });
        assert_eq!(r.stats.ceis_cancelled, 1);
        assert_eq!(r.stats.probes_used, 0);
    }

    #[test]
    fn cancelling_a_live_cei_redirects_probes() {
        // Budget 1, S-EDF: CEI 0 (deadline 5) wins resource selection over
        // CEI 1 (deadline 9) at chronon 0 — unless CEI 0 is cancelled in
        // the chronon-0 drain, which frees the probe for CEI 1 immediately.
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 5)]);
        b.cei(p, &[(1, 0, 9)]);
        let inst = b.build();
        let baseline = OnlineEngine::run(&inst, &SEdf, EngineConfig::preemptive());
        assert_eq!(baseline.outcomes[1], CeiOutcome::Captured { at: 1 });
        let mut q = MutationQueue::new();
        q.cancel(0, CeiId(0));
        let r = run_churned(
            &inst,
            &SEdf,
            EngineConfig::preemptive(),
            &q,
            &mut NoopObserver,
        );
        assert_eq!(r.outcomes[0], CeiOutcome::Cancelled { at: 0 });
        assert_eq!(r.outcomes[1], CeiOutcome::Captured { at: 0 });
    }

    #[test]
    fn budget_reconfiguration_takes_effect_next_chronon() {
        let mut b = InstanceBuilder::new(2, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 5)]);
        let inst = b.build();
        let mut q = MutationQueue::new();
        q.set_budget(2, 3).set_budget(4, 0);
        let mut rec = EventRecorder::default();
        let r = run_churned(&inst, &SEdf, EngineConfig::preemptive(), &q, &mut rec);
        let starts: Vec<(Chronon, u32)> = rec
            .0
            .iter()
            .filter_map(|e| match e {
                Event::ChrononStart { t, budget } => Some((*t, *budget)),
                _ => None,
            })
            .collect();
        // Drained at 2 → effective at 3; drained at 4 → effective at 5.
        assert_eq!(starts, vec![(0, 1), (1, 1), (2, 1), (3, 3), (4, 3), (5, 0)]);
        assert_eq!(r.stats.probes_available, 1 + 1 + 1 + 3 + 3);
    }

    #[test]
    fn cancellation_clears_pending_retry_state() {
        use crate::fault::{Backoff, IidFaults};
        // Resource 0 always fails. CEI 0 draws a failed probe at chronon 0;
        // the streak and backoff (or a zero retry quota) would then block
        // resource 0 long past CEI 1's window opening at 6. Cancelling
        // CEI 0 at chronon 2 empties the resource, so the retry state is
        // dropped and chronon 6's attempt is a fresh, unannounced one.
        let mut b = InstanceBuilder::new(1, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 3)]);
        b.cei(p, &[(0, 6, 9)]);
        let inst = b.build();
        for fc in [
            FaultConfig::default()
                .free_failures()
                .with_backoff(Backoff::new(8, 16)),
            FaultConfig::default().free_failures().with_retry_quota(0),
        ] {
            let mut q = MutationQueue::new();
            q.cancel(2, CeiId(0));
            let mut faults = IidFaults::new(1.0, 0xBAD);
            let mut rec = EventRecorder::default();
            let r = OnlineEngine::run_mutated(
                &inst,
                &Mrsf,
                EngineConfig::preemptive(),
                &mut faults,
                fc,
                &q,
                &mut rec,
            );
            assert_eq!(r.outcomes[0], CeiOutcome::Cancelled { at: 2 });
            assert!(
                rec.0.iter().any(|e| matches!(
                    e,
                    Event::ProbeFailed {
                        t: 6,
                        attempt: 0,
                        ..
                    }
                )),
                "chronon-6 attempt must be fresh: {:?}",
                rec.0
            );
            assert!(
                !rec.0
                    .iter()
                    .any(|e| matches!(e, Event::ProbeRetried { .. })),
                "no attempt may announce itself as a retry of the cancelled CEI's streak"
            );
        }
    }

    #[test]
    fn strategies_agree_on_same_chronon_double_transitions() {
        // Chronon 2 lands a shared capture on resource 0 while sibling
        // expiries tombstone entries of the same CEIs; the cancellation
        // then drains at chronon 3 while those tombstones may still be
        // unswept. Incremental selection must stay bit-identical to the
        // always-correct Scan through both.
        let mut b = InstanceBuilder::new(3, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 2, 2), (1, 2, 2)]);
        b.cei(p, &[(0, 2, 4), (2, 2, 7)]);
        b.cei(p, &[(1, 3, 6)]);
        let inst = b.build();
        let mut q = MutationQueue::new();
        q.cancel(3, CeiId(1));
        for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf] {
            for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                let inc = run_churned(&inst, policy, config, &q, &mut NoopObserver);
                let scan = run_churned(&inst, policy, config.with_scan(), &q, &mut NoopObserver);
                assert_eq!(inc.schedule, scan.schedule, "{}", policy.name());
                assert_eq!(inc.stats, scan.stats, "{}", policy.name());
                assert_eq!(inc.outcomes, scan.outcomes, "{}", policy.name());
            }
        }
    }

    /// Runs `policy` under `config` with the default selector and with
    /// `Scan`, asserts the two agree, and returns the default run.
    fn run_like_scan(
        inst: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        faults: impl Fn() -> Box<dyn FaultModel>,
        fault_config: FaultConfig,
    ) -> RunResult {
        let run = |config: EngineConfig| {
            let mut model = faults();
            OnlineEngine::run_faulted(
                inst,
                policy,
                config,
                &mut model.as_mut(),
                fault_config,
                &mut NoopObserver,
            )
        };
        let (incr, scan) = (run(config), run(config.with_scan()));
        assert_eq!(
            incr.schedule,
            scan.schedule,
            "{}: schedules diverge",
            policy.name()
        );
        assert_eq!(incr.stats, scan.stats);
        assert_eq!(incr.outcomes, scan.outcomes);
        incr
    }

    fn no_faults() -> Box<dyn FaultModel> {
        Box::new(NoFaults)
    }

    #[test]
    fn first_capture_without_open_siblings_joins_cands_plus_later() {
        // CEI A's first capture lands at chronon 0, its only open window;
        // its second window opens at 5, when CEI B (lower id, equal MRSF
        // score) competes for the single probe. NP must serve A as a
        // started CEI; putting A among the new CEIs would pick B instead.
        let mut b = InstanceBuilder::new(3, 8, Budget::Uniform(1));
        let pb = b.profile();
        b.cei(pb, &[(2, 5, 5)]); // B: id 0, MRSF 1 - 0
        let pa = b.profile();
        b.cei(pa, &[(0, 0, 0), (1, 5, 6)]); // A: id 1, MRSF 2 - 1 at t = 5
        let inst = b.build();
        for policy in [&Mrsf as &dyn Policy, &crate::policy::MrsfExact] {
            let r = run_like_scan(
                &inst,
                policy,
                EngineConfig::non_preemptive(),
                no_faults,
                FaultConfig::default(),
            );
            assert_eq!(r.outcomes[1], CeiOutcome::Captured { at: 5 });
            assert_eq!(r.outcomes[0], CeiOutcome::Failed { at: 5 });
        }
    }

    /// Fails every probe at chronon `at`, succeeds otherwise.
    struct FailAt(Chronon);

    impl FaultModel for FailAt {
        fn begin_chronon(&mut self, _t: Chronon) {}
        fn down_until(&self, _resource: ResourceId) -> Option<Chronon> {
            None
        }
        fn probe_succeeds(&mut self, t: Chronon, _resource: ResourceId, _attempt: u32) -> bool {
            t != self.0
        }
    }

    #[test]
    fn skipped_entries_are_selectable_the_next_chronon() {
        use crate::fault::Backoff;
        use crate::model::ProbeCosts;
        // Backing off: the chronon-0 probe fails and blocks r0 through
        // chronon 1, so the entry is skipped there and probed at 2.
        let mut b = InstanceBuilder::new(1, 6, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 5)]);
        let inst = b.build();
        let backoff = FaultConfig::charged().with_backoff(Backoff::new(2, 8));
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let r = run_like_scan(&inst, &Mrsf, config, || Box::new(FailAt(0)), backoff);
            assert_eq!(r.outcomes[0], CeiOutcome::Captured { at: 2 });
        }

        // Unaffordable: r0 costs 2 and chronon 0 has budget 1, so the entry
        // is skipped at 0 and probed at 1.
        let mut b = InstanceBuilder::new(2, 4, Budget::PerChronon(vec![1, 2, 2, 2]));
        let p = b.profile();
        b.cei(p, &[(0, 0, 3)]);
        let inst = b.build().with_costs(ProbeCosts::per_resource(vec![2, 1]));
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let r = run_like_scan(&inst, &Mrsf, config, no_faults, FaultConfig::default());
            assert_eq!(r.outcomes[0], CeiOutcome::Captured { at: 1 });
        }
    }

    /// Forwards to `inner`, counting `score` calls; `score_dynamics` is
    /// forwarded only when `forward` is set.
    struct Counting<'a> {
        inner: &'a dyn Policy,
        forward: bool,
        calls: std::sync::atomic::AtomicU64,
    }

    impl<'a> Counting<'a> {
        fn new(inner: &'a dyn Policy, forward: bool) -> Self {
            Counting {
                inner,
                forward,
                calls: std::sync::atomic::AtomicU64::new(0),
            }
        }

        fn calls(&self) -> u64 {
            self.calls.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl Policy for Counting<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn score(&self, ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64 {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.score(ctx, cand)
        }
        fn stable_scores(&self) -> bool {
            self.inner.stable_scores()
        }
        fn score_dynamics(&self) -> ScoreDynamics {
            if self.forward {
                self.inner.score_dynamics()
            } else {
                ScoreDynamics::Reseeded
            }
        }
    }

    /// Deterministic multi-EI CEIs with long windows: the live pool is
    /// many times the windows opening per chronon.
    fn long_window_instance(n_ceis: u32, max_eis: u32, window: u32) -> Instance {
        let (n_res, horizon) = (40u32, 120);
        let mut b = InstanceBuilder::new(n_res, horizon, Budget::Uniform(1));
        let p = b.profile();
        let mut x: u64 = 0x9E37_79B9;
        let mut next = |m: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % u64::from(m)) as u32
        };
        for _ in 0..n_ceis {
            let eis: Vec<(u32, Chronon, Chronon)> = (0..=next(max_eis))
                .map(|_| {
                    let start = next(horizon - 1);
                    (next(n_res), start, (start + window).min(horizon - 1))
                })
                .collect();
            b.cei(p, &eis);
        }
        b.build()
    }

    #[test]
    fn state_keyed_policies_skip_the_per_phase_reseed() {
        // A wrapper that hides the policy's dynamics falls back to the
        // reseeded path: the keyed path must score under half as often,
        // with the identical schedule.
        let inst = long_window_instance(300, 3, 20);
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let keyed = Counting::new(&Mrsf, true);
            let reseeded = Counting::new(&Mrsf, false);
            let a = OnlineEngine::run(&inst, &keyed, config);
            let b = OnlineEngine::run(&inst, &reseeded, config);
            assert_eq!(a.schedule, b.schedule, "{config:?}");
            assert_eq!(a.stats, b.stats, "{config:?}");
            assert_eq!(a.outcomes, b.outcomes, "{config:?}");
            assert!(
                2 * keyed.calls() < reseeded.calls(),
                "{config:?}: keyed {} vs reseeded {} score calls",
                keyed.calls(),
                reseeded.calls()
            );
        }
    }

    #[test]
    fn keyed_queue_rebuilt_from_garbage_matches_scan() {
        // Single-EI CEIs are never re-scored by a sibling capture, so every
        // score call past one per window is a rebuild. Thousands of short
        // windows expire unprobed and leave their copies behind as garbage.
        let inst = long_window_instance(12_000, 1, 2);
        for config in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
            let counting = Counting::new(&Mrsf, true);
            let r = OnlineEngine::run(&inst, &counting, config);
            let scan = OnlineEngine::run(&inst, &Mrsf, config.with_scan());
            assert_eq!(r.schedule, scan.schedule, "{config:?}");
            assert_eq!(r.outcomes, scan.outcomes, "{config:?}");
            assert!(
                counting.calls() > inst.total_eis() as u64,
                "{config:?}: the queue was never rebuilt"
            );
        }
    }

    #[test]
    fn state_keyed_policies_ignore_the_policy_context() {
        use crate::policy::test_util::{ei, score_of, CtxData};
        use crate::policy::{
            MEdfAbsoluteDeadline, MrsfExact, RandomPolicy, RoundRobin, UtilityWeighted, Wic,
        };
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(SEdf),
            Box::new(Mrsf),
            Box::new(MrsfExact),
            Box::new(MEdf),
            Box::new(MEdfAbsoluteDeadline),
            Box::new(Wic::paper()),
            Box::new(RoundRobin),
            Box::new(RandomPolicy::new(7)),
            Box::new(UtilityWeighted::new(Mrsf, "U-MRSF")),
            Box::new(UtilityWeighted::new(MrsfExact, "U-MRSF-Exact")),
            Box::new(UtilityWeighted::new(SEdf, "U-S-EDF")),
        ];
        let keyed: Vec<&dyn Policy> = policies
            .iter()
            .map(AsRef::as_ref)
            .filter(|p| p.score_dynamics() == ScoreDynamics::StateKeyed)
            .collect();
        let names: Vec<&str> = keyed.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["MRSF", "MRSF-Exact", "U-MRSF", "U-MRSF-Exact"]);

        let eis = vec![ei(0, 2, 9), ei(1, 4, 12), ei(2, 0, 20)];
        let mut contexts = [CtxData::new(4, 3), CtxData::new(9, 3)];
        contexts[1].active = vec![7, 0, 3];
        contexts[1].updates = vec![true, false, true];
        for policy in keyed {
            for captured in [[false; 3], [true, false, false], [false, true, true]] {
                for idx in (0..3).filter(|&i| !captured[i]) {
                    let scores: Vec<i64> = contexts
                        .iter()
                        .map(|c| score_of(policy, &c.ctx(), &eis, &captured, idx, 4))
                        .collect();
                    assert!(
                        scores.windows(2).all(|w| w[0] == w[1]),
                        "{}: {scores:?}",
                        policy.name()
                    );
                }
            }
        }
    }
}
