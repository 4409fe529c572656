//! The run loop implementing Algorithm 1 (Online Complex Monitoring).
//!
//! Every [`OnlineEngine`] entry point builds one `EngineState` — the run's
//! cross-chronon state — and runs it to the horizon. A chronon is a fixed
//! sequence of phase methods on that state (`EngineState::chronon`), and
//! the phases select candidates through one `Selector`, chosen when the
//! state is built.

use super::index::{CandidateIndex, PoolEntry};
use super::mutation::{Mutation, MutationSource, ScriptedMutations};
use crate::fault::{FaultConfig, FaultModel, NoFaults};
use crate::model::{CeiId, Chronon, Instance, ResourceId, Schedule};
use crate::obs::{Event, NoopObserver, Observer};
use crate::policy::{Candidate, CeiView, Policy, PolicyContext, ResourceStats, ScoreDynamics};
use crate::serve::snapshot::{
    CeiState, EngineSnapshot, NoSnapshots, SnapshotImage, SnapshotMismatch, SnapshotSink,
};
use crate::stats::{CeiOutcome, RunStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Numbers the runs of this process, so a snapshot image knows which run's
/// schedule rows it already holds (`0` is no run).
static RUNS: AtomicU64 = AtomicU64::new(1);

/// A [`KeyedQueue`] copy: `(score, cei id, ei index, capture count)`, the
/// last being the parent CEI's capture count when the copy was scored.
type KeyedCopy = (i64, u32, u16, u16);

/// How `probeEIs` finds the minimum-score candidate each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Fresh linear scan per probe — the reference implementation; scores
    /// are always current.
    Scan,
    /// The default: a min-heap of scored copies per selection group,
    /// `O(log N)` per pick, kept on engine-owned storage. How often it
    /// scores follows the policy's [`ScoreDynamics`]:
    ///
    /// * `Reseeded` — the queue is rebuilt from the pool once per chronon,
    ///   right after the chronon's windows open: one scoring pass and a
    ///   heapify, with no allocation on the hot path.
    /// * `StateKeyed` — the queue is kept across chronons: a chronon scores
    ///   only the windows that open, not the whole live pool, and the queue
    ///   is rebuilt from the pool once dead and stale copies outnumber the
    ///   live entries, and on resume.
    ///
    /// Either way a capture re-scores the rest of the captured CEI, and a
    /// queued copy whose entry died or whose score went stale is dropped on
    /// pop without a policy call. The schedule, event stream and
    /// `RunMetrics` are those of [`Scan`](SelectionStrategy::Scan); a
    /// policy without [`Policy::stable_scores`] always selects by `Scan`.
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

/// Everything one engine run consumes: the instance and policy, the
/// execution mode, the fault model with the engine's reaction to it, the
/// mutation source, and the observer the event stream goes to — the
/// arguments of [`OnlineEngine::run_driven`], bundled for
/// [`OnlineEngine::run_driven_resumable`].
pub struct RunInputs<'a, F, M, O> {
    /// The instance to monitor.
    pub instance: &'a Instance,
    /// The policy that scores candidates.
    pub policy: &'a dyn Policy,
    /// Preemption, probe sharing and the selection strategy.
    pub config: EngineConfig,
    /// Decides every probe attempt and every outage.
    pub faults: &'a mut F,
    /// Charging, backoff and retry quota for failed probes.
    pub fault_config: FaultConfig,
    /// Mid-run registrations, cancellations and budget changes.
    pub mutations: &'a mut M,
    /// Receives the event stream.
    pub observer: &'a mut O,
}

/// Lifecycle of a CEI inside the engine. Which of an active CEI's EIs are
/// captured or expired lives in the candidate index's flat flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Release chronon not reached yet.
    NotArrived,
    /// Released; its capture flags are tracked.
    Active,
    /// All EIs captured.
    Captured,
    /// An EI expired uncaptured.
    Failed,
    /// Cancelled mid-run through the mutation API; never resolves.
    Cancelled,
}

impl Status {
    /// The outcome of a CEI in this status that resolved at `at`, if it
    /// resolved.
    pub(crate) fn outcome(self, at: Chronon) -> CeiOutcome {
        match self {
            Status::NotArrived | Status::Active => CeiOutcome::Pending,
            Status::Captured => CeiOutcome::Captured { at },
            Status::Failed => CeiOutcome::Failed { at },
            Status::Cancelled => CeiOutcome::Cancelled { at },
        }
    }
}

/// How a live CEI resolves: its terminal status, outcome and event.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Resolution {
    /// A capture met its threshold ([`Event::CeiCompleted`]).
    Completed,
    /// A window closed uncaptured and doomed it ([`Event::CeiExpired`]).
    Expired,
    /// Committed outages doomed it ([`Event::CeiShed`]).
    Shed,
    /// A drained [`Mutation::Cancel`] ([`Event::CeiCancelled`]).
    Cancelled,
}

/// The online complex-monitoring engine. See the [module docs](crate::engine)
/// for the per-chronon procedure.
pub struct OnlineEngine;

impl OnlineEngine {
    /// Runs `policy` over `instance` in the given mode and returns the
    /// schedule, statistics, and per-CEI outcomes.
    ///
    /// [`run_driven`](Self::run_driven) with no faults, no mutations and a
    /// [`NoopObserver`]: all three monomorphize away, so this path costs
    /// exactly what it did before observability, fault injection and churn
    /// existed.
    pub fn run(instance: &Instance, policy: &dyn Policy, config: EngineConfig) -> RunResult {
        EngineState::new(RunInputs {
            instance,
            policy,
            config,
            faults: &mut NoFaults,
            fault_config: FaultConfig::default(),
            mutations: &mut ScriptedMutations::default(),
            observer: &mut NoopObserver,
        })
        .run(&mut NoSnapshots)
    }

    /// Runs `policy` over `instance`, streaming typed [`Event`]s to
    /// `observer` (see [`crate::obs`] for the event vocabulary and
    /// ordering guarantees). The event stream is deterministic: a pure
    /// function of `(instance, policy, config)`.
    ///
    /// [`run_driven`](Self::run_driven) with no faults and no mutations;
    /// both monomorphize away.
    pub fn run_observed<O: Observer>(
        instance: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        observer: &mut O,
    ) -> RunResult {
        EngineState::new(RunInputs {
            instance,
            policy,
            config,
            faults: &mut NoFaults,
            fault_config: FaultConfig::default(),
            mutations: &mut ScriptedMutations::default(),
            observer,
        })
        .run(&mut NoSnapshots)
    }

    /// The general run: `policy` over `instance` under a deterministic
    /// fault model and a source of mid-run mutations — the profile set is
    /// not frozen at the start.
    ///
    /// **Faults.** Per chronon, the engine first advances `faults`,
    /// snapshots each resource's committed outage horizon, and announces
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
    /// them would only starve feasible CEIs. A disabled model
    /// ([`NoFaults`]) monomorphizes every fault branch away.
    ///
    /// **Mutations.** The engine samples [`MutationSource::active`] once at
    /// run start; an inactive source (such as
    /// [`ScriptedMutations::default`], or a compiled empty
    /// [`MutationQueue`](super::MutationQueue)) costs one branch per
    /// chronon. An active source is drained once per chronon, immediately
    /// after [`Event::ChrononStart`] and before fault announcements,
    /// arrivals, and probing, and its mutations apply in drain order:
    ///
    /// * [`Mutation::Register`] — the CEI activates with release chronon
    ///   `= now` ([`Event::CeiRegistered`]). Windows already closed are
    ///   expired on the spot (if that alone dooms the CEI it fails
    ///   immediately, [`Event::CeiExpired`]); currently-open windows join
    ///   the candidate pool now; future windows ride the prebuilt
    ///   `starts[t]` buckets. Cost is O(own EIs), never O(pool). A CEI for
    ///   which [`MutationSource::suppresses_release`] holds is *dynamic*:
    ///   its natural release from the instance trace is suppressed.
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
    /// **Determinism.** Every shipped [`FaultModel`] is a pure function of
    /// its seed and parameters, so the run — schedule, event stream, stats
    /// — is a pure function of `(instance, policy, config, model,
    /// fault_config, mutations)`. Driving with
    /// [`ScriptedMutations::compile`]`(queue, ..)` replays the prerecorded
    /// `queue`; an always-active source that never drains anything and
    /// never suppresses is bit-identical to an inactive one, and a
    /// zero-rate fault model is bit-identical to [`NoFaults`].
    pub fn run_driven<F: FaultModel, M: MutationSource, O: Observer>(
        instance: &Instance,
        policy: &dyn Policy,
        config: EngineConfig,
        faults: &mut F,
        fault_config: FaultConfig,
        mutations: &mut M,
        observer: &mut O,
    ) -> RunResult {
        EngineState::new(RunInputs {
            instance,
            policy,
            config,
            faults,
            fault_config,
            mutations,
            observer,
        })
        .run(&mut NoSnapshots)
    }

    /// [`run_driven`](Self::run_driven) with crash-recovery hooks: the
    /// engine offers `snapshots` every chronon boundary, copies its state
    /// into a [`SnapshotImage`] at the ones it wants (whose encoding is
    /// the bytes of [`EngineSnapshot::encode`]), and `resume` restores a
    /// previously captured snapshot so the loop starts at its boundary
    /// chronon instead of 0.
    ///
    /// Identity contract (pinned by `tests/tests/recovery.rs`): capturing a
    /// snapshot at boundary `S` during a run and replaying
    /// `resume = Some(snapshot)` with the same instance, policy, config,
    /// fault model state, and per-chronon mutations reproduces chronons
    /// `S..horizon` bit-identically — schedule, stats, outcomes, and event
    /// stream suffix. A declining sink and `resume = None` are bit-identical
    /// to [`run_driven`](Self::run_driven).
    ///
    /// # Errors
    /// A `resume` snapshot that fails [`EngineSnapshot::validate`] against
    /// the inputs — a snapshot only resumes the run it was taken from — is
    /// returned as the [`SnapshotMismatch`] naming what disagrees, before
    /// any event is emitted.
    pub fn run_driven_resumable<F: FaultModel, M: MutationSource, O: Observer>(
        inputs: RunInputs<'_, F, M, O>,
        resume: Option<&EngineSnapshot>,
        snapshots: &mut dyn SnapshotSink,
    ) -> Result<RunResult, SnapshotMismatch> {
        let state = match resume {
            Some(snapshot) => EngineState::restore(inputs, snapshot)?,
            None => EngineState::new(inputs),
        };
        Ok(state.run(snapshots))
    }
}

/// The NP selection group a phase serves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Preemptive: every candidate competes.
    All,
    /// Non-preemptive, first: CEIs started before this chronon (cands⁺).
    Started,
    /// Non-preemptive, second: CEIs not started yet, for leftover budget.
    New,
}

impl Phase {
    /// The [`KeyedQueue`] group this phase pops from: cands⁺ first.
    fn group(self) -> usize {
        usize::from(self == Phase::New)
    }
}

/// The part of the run state selection reads: the candidate pool, the CEI
/// lifecycle, and the per-chronon view the policy scores candidates under.
/// The [`Selector`] borrows it while the rest of [`EngineState`] changes.
struct Pool<'a> {
    instance: &'a Instance,
    policy: &'a dyn Policy,
    /// The candidate pool, grouped by resource with incremental removal
    /// and live counts, and the per-EI capture flags. Allocated once and
    /// reused for the whole run.
    index: CandidateIndex,
    status: Vec<Status>,
    /// Non-preemptive selection groups: `started[c]` says whether CEI `c`
    /// had a captured EI when the current chronon began (cands⁺). A first
    /// capture flips the flag at the end of its chronon, so the groups stay
    /// frozen while a chronon selects.
    started: Vec<bool>,
    /// The chronon being run.
    now: Chronon,
    /// Live entries per resource at chronon start: scores see the
    /// chronon-start occupancy even while captures land mid-probing.
    active_eis: Vec<u32>,
    /// Whether a window opened on each resource this chronon.
    has_update: Vec<bool>,
    /// Resources an earlier probe this chronon already captured.
    probed_now: Vec<bool>,
    /// Resources down, backing off, or out of retry quota this chronon.
    /// Always allocated: every selector reads it.
    blocked: Vec<bool>,
}

impl Pool<'_> {
    /// The [`PolicyContext`] of the current chronon.
    fn ctx(&self) -> PolicyContext<'_> {
        PolicyContext {
            now: self.now,
            resources: ResourceStats {
                active_eis: &self.active_eis,
                has_update: &self.has_update,
            },
        }
    }

    /// The resource entry `e` watches.
    fn resource(&self, e: PoolEntry) -> ResourceId {
        self.instance.cei(e.cei).eis[e.ei_idx as usize].resource
    }

    /// Scores one pool entry if its parent is active, the EI is uncaptured
    /// and unexpired, and the parent belongs to `phase`'s group. Returns
    /// `None` otherwise.
    fn score(&self, e: PoolEntry, phase: Phase) -> Option<i64> {
        if self.status[e.cei.index()] != Status::Active || !self.index.is_open(e) {
            return None;
        }
        if phase != Phase::All && self.started[e.cei.index()] != (phase == Phase::Started) {
            return None;
        }
        let cei = self.instance.cei(e.cei);
        let cand = Candidate {
            ei: cei.eis[e.ei_idx as usize],
            ei_index: e.ei_idx as usize,
            cei: CeiView {
                eis: &cei.eis,
                captured: self.index.captured_flags(e.cei),
                n_captured: self.index.n_captured(e.cei),
                required: cei.required,
                weight: cei.weight,
                profile_rank: self.instance.profiles[cei.profile.index()].rank,
            },
        };
        Some(self.policy.score(&self.ctx(), &cand))
    }

    /// Scans the pool for the minimum-score selectable candidate of
    /// `phase`. Ties break by `(score, cei id, ei index)` so runs are
    /// deterministic regardless of iteration order.
    fn argmin(&self, phase: Phase, remaining_budget: u32) -> Option<PoolEntry> {
        let mut best: Option<(i64, PoolEntry)> = None;
        for r in 0..self.probed_now.len() {
            if self.probed_now[r] {
                continue; // already captured by an earlier probe this chronon
            }
            if self.blocked[r] {
                continue; // down, backing off, or out of retry quota
            }
            if self.instance.costs.of(ResourceId(r as u32)) > remaining_budget {
                continue; // unaffordable this chronon (varying-costs extension)
            }
            for &e in self.index.entries(r) {
                if !self.index.is_live(e) {
                    continue;
                }
                let Some(score) = self.score(e, phase) else {
                    continue;
                };
                let better = match &best {
                    None => true,
                    Some((s, b)) => (score, e.cei.0, e.ei_idx) < (*s, b.cei.0, b.ei_idx),
                };
                if better {
                    best = Some((score, e));
                }
            }
        }
        best.map(|(_, e)| e)
    }
}

/// How `probeEIs` finds the minimum-score candidate. Chosen once per run
/// from the configured [`SelectionStrategy`] and the policy; the phases
/// drive it through a fixed set of hooks.
struct Selector {
    /// The candidate queue; `None` under [`SelectionStrategy::Scan`] (a
    /// fresh argmin per pick).
    queue: Option<KeyedQueue>,
    /// Selection steps so far ([`RunResult::selection_steps`]).
    steps: u64,
}

impl Selector {
    fn new(config: EngineConfig, policy: &dyn Policy) -> Self {
        // A policy with hidden mutable state ([`Policy::stable_scores`]
        // `== false`, e.g. the `Random` baseline) draws according to how
        // often it is called, and only `Scan` calls it as often as `Scan`.
        let queue = (config.selection == SelectionStrategy::Incremental && policy.stable_scores())
            .then(|| KeyedQueue::new(!config.preemptive, policy.score_dynamics()));
        Selector { queue, steps: 0 }
    }

    /// The windows in `opened` just joined the pool, and the chronon's
    /// policy context is set. A reseeded policy's scores may read that
    /// context, so the queue is rebuilt from the pool; a state-keyed queue
    /// scores each opened window, unless its garbage outgrew the pool and
    /// it rebuilds instead.
    fn windows_opened(&mut self, pool: &Pool<'_>, opened: &[PoolEntry]) {
        let Some(queue) = &mut self.queue else {
            return;
        };
        if queue.dynamics == ScoreDynamics::Reseeded || queue.needs_rebuild(pool.index.live()) {
            queue.rebuild(pool);
        } else {
            for &e in opened {
                queue.push_live(pool, e);
            }
        }
    }

    /// CEI `id`'s scores changed mid-selection — a capture — so its live
    /// entries need copies at their current scores, filed into the CEI's
    /// own group whatever phase is running; stale copies are skipped on
    /// pop.
    fn cei_touched(&mut self, pool: &Pool<'_>, id: CeiId) {
        if let Some(queue) = &mut self.queue {
            queue.push_cei(pool, id);
        }
    }

    /// CEI `id`'s scores or group changed between two chronons' selections
    /// — a registration, or a first capture filing it into cands⁺. A queue
    /// kept across chronons takes copies as for
    /// [`cei_touched`](Self::cei_touched); a reseeded one is rebuilt from
    /// the pool when the next chronon's windows open, before its first pop,
    /// so it takes none.
    fn cei_changed_between_chronons(&mut self, pool: &Pool<'_>, id: CeiId) {
        match &mut self.queue {
            Some(queue) if queue.dynamics == ScoreDynamics::StateKeyed => queue.push_cei(pool, id),
            _ => {}
        }
    }

    /// `phase`'s minimum-score candidate that is selectable now and costs
    /// at most `remaining_budget`: the one [`Pool::argmin`] picks.
    fn pick(&mut self, pool: &Pool<'_>, phase: Phase, remaining_budget: u32) -> Option<PoolEntry> {
        match &mut self.queue {
            Some(queue) => queue.pop(pool, phase.group(), remaining_budget, &mut self.steps),
            None => {
                self.steps += 1;
                pool.argmin(phase, remaining_budget)
            }
        }
    }

    /// Returns `phase`'s last pick, whose probe failed: it is still live
    /// at the same score. The queue consumed it on pop, so it re-queues it
    /// — for this chronon if its resource is still selectable, so the
    /// schedule stays `Scan`'s; a `blocked` one for the next.
    fn put_back(&mut self, phase: Phase, blocked: bool) {
        if let Some(queue) = &mut self.queue {
            queue.put_back(phase.group(), blocked);
        }
    }

    /// Ends the chronon's selection: copies the queue skipped rejoin their
    /// heaps.
    fn end_chronon(&mut self, pool: &Pool<'_>) {
        if let Some(queue) = &mut self.queue {
            queue.requeue_skipped(pool);
        }
    }

    /// Rebuilds the queue from the pool (on resume: the queue is not part
    /// of a snapshot).
    fn rebuild(&mut self, pool: &Pool<'_>) {
        if let Some(queue) = &mut self.queue {
            queue.rebuild(pool);
        }
    }
}

/// The candidate queue of [`SelectionStrategy::Incremental`].
///
/// Within a chronon, everything a stable policy can read is frozen except
/// the parent CEI's capture state: the clock, the chronon-start occupancy
/// and the update flags are set once the chronon's windows have opened,
/// and the NP groups move only at the chronon's end. So the queue keeps
/// one min-heap of scored copies per selection group — `[pool]` in P mode;
/// `[cands⁺, new]` in NP mode, in phase order — and scores an entry only
/// when its score may be new: once per chronon for every live entry of a
/// [`ScoreDynamics::Reseeded`] policy (a rebuild), and for a
/// [`ScoreDynamics::StateKeyed`] one, whose scores read no context, when
/// its window opens (or a registration brings it in open). Either way a
/// sibling capture re-scores the rest of its CEI into the CEI's own group,
/// whatever phase is running, and a failed probe is pushed back. Between
/// chronons a state-keyed queue also re-files a CEI's live entries into
/// cands⁺ after its first capture, and takes back the entries skipped
/// this chronon (blocked or unaffordable); a reseeded one does neither,
/// since its next rebuild would discard them unread. Every copy carries
/// its CEI's capture count when scored, so a pop drops dead, stale and
/// wrong-group copies without calling the policy.
///
/// **Invariant.** Whenever the queue is popped (for a reseeded policy: from
/// each rebuild to the chronon's end), every live entry has a copy whose
/// key is its current `(score, cei, ei_idx)` in its group's heap — or,
/// once popped and skipped this chronon, in `skipped`. The first current,
/// selectable pop is
/// therefore the [`Pool::argmin`] pick under the same tie-break, and
/// schedules match `Scan`'s. The queue is not part of a snapshot: a resume
/// rebuilds it from the restored pool, and so does a state-keyed chronon
/// whose heaps hold more garbage than the pool has live entries.
struct KeyedQueue {
    /// One min-heap per selection group; the second stays empty in P mode.
    heaps: [BinaryHeap<Reverse<KeyedCopy>>; 2],
    /// Whether the NP groups split the pool (P mode: one group).
    split: bool,
    /// Rebuilt every chronon (`Reseeded`) or kept across chronons.
    dynamics: ScoreDynamics,
    /// The copy of the entry [`pop`](Self::pop) returned last.
    picked: KeyedCopy,
    /// Copies popped but skipped this chronon, with their group; they
    /// rejoin the heaps at the chronon's end.
    skipped: Vec<(usize, KeyedCopy)>,
}

impl KeyedQueue {
    /// Heaps may hold this many copies beyond twice the live pool before
    /// they are rebuilt.
    const SLACK: usize = 4096;

    fn new(split: bool, dynamics: ScoreDynamics) -> Self {
        KeyedQueue {
            heaps: Default::default(),
            split,
            dynamics,
            picked: (0, 0, 0, 0),
            skipped: Vec::new(),
        }
    }

    /// The group of a CEI's entries: 0 in P mode; in NP mode 0 for cands⁺
    /// and 1 for CEIs not started yet.
    fn group(&self, pool: &Pool<'_>, cei: CeiId) -> usize {
        usize::from(self.split && !pool.started[cei.index()])
    }

    /// Whether `copy` in `group` still keys a live entry at its current
    /// score: the entry is live, its CEI's capture count is unchanged since
    /// the copy was scored, and the CEI has not moved groups.
    fn is_current(&self, pool: &Pool<'_>, group: usize, copy: KeyedCopy) -> bool {
        let (_, cei, ei_idx, captured) = copy;
        let e = PoolEntry {
            cei: CeiId(cei),
            ei_idx,
        };
        pool.index.is_live(e)
            && pool.status[e.cei.index()] == Status::Active
            && pool.index.n_captured(e.cei) == captured
            && self.group(pool, e.cei) == group
    }

    /// The copy of `e` at its current score, if `e` is live.
    fn copy_of(pool: &Pool<'_>, e: PoolEntry) -> Option<KeyedCopy> {
        if !pool.index.is_live(e) || pool.status[e.cei.index()] != Status::Active {
            return None;
        }
        let captured = pool.index.n_captured(e.cei);
        let score = pool.score(e, Phase::All)?;
        Some((score, e.cei.0, e.ei_idx, captured))
    }

    /// Scores `e` into its group's heap if it is live.
    fn push_live(&mut self, pool: &Pool<'_>, e: PoolEntry) {
        if let Some(copy) = Self::copy_of(pool, e) {
            let group = self.group(pool, e.cei);
            self.heaps[group].push(Reverse(copy));
        }
    }

    /// Scores every live entry of CEI `id` into its group's heap.
    fn push_cei(&mut self, pool: &Pool<'_>, id: CeiId) {
        for idx in 0..pool.instance.cei(id).size() {
            let e = PoolEntry {
                cei: id,
                ei_idx: idx as u16,
            };
            self.push_live(pool, e);
        }
    }

    /// Pops `group`'s minimum current copy whose resource is selectable
    /// now and returns its entry, dropping dead, stale and wrong-group
    /// copies and setting aside blocked or unaffordable ones until the
    /// chronon's end. Each pop counts as one selection step.
    fn pop(
        &mut self,
        pool: &Pool<'_>,
        group: usize,
        remaining_budget: u32,
        steps: &mut u64,
    ) -> Option<PoolEntry> {
        while let Some(Reverse(copy)) = self.heaps[group].pop() {
            *steps += 1;
            if !self.is_current(pool, group, copy) {
                continue;
            }
            let e = PoolEntry {
                cei: CeiId(copy.1),
                ei_idx: copy.2,
            };
            let resource = pool.resource(e);
            if pool.blocked[resource.index()] || pool.instance.costs.of(resource) > remaining_budget
            {
                // Blocks and the remaining budget only tighten within a
                // chronon, so the entry stays unselectable until its end.
                self.skipped.push((group, copy));
                continue;
            }
            self.picked = copy;
            return Some(e);
        }
        None
    }

    /// Returns the last pick, whose probe failed: its entry is still live
    /// at the same score, and selectable again this chronon unless its
    /// resource is now `blocked`.
    fn put_back(&mut self, group: usize, blocked: bool) {
        if blocked {
            self.skipped.push((group, self.picked));
        } else {
            self.heaps[group].push(Reverse(self.picked));
        }
    }

    /// End of chronon: skipped copies that are still current rejoin their
    /// heaps — unless the queue is reseeded, and the next chronon's rebuild
    /// would throw them away unread.
    fn requeue_skipped(&mut self, pool: &Pool<'_>) {
        if self.dynamics == ScoreDynamics::Reseeded {
            self.skipped.clear();
            return;
        }
        let mut skipped = std::mem::take(&mut self.skipped);
        for (group, copy) in skipped.drain(..) {
            if self.is_current(pool, group, copy) {
                self.heaps[group].push(Reverse(copy));
            }
        }
        self.skipped = skipped;
    }

    /// Whether dead, stale and wrong-group copies have outgrown a pool of
    /// `live` entries, so a [`rebuild`](Self::rebuild) pays for itself.
    fn needs_rebuild(&self, live: u32) -> bool {
        let copies: usize = self.heaps.iter().map(BinaryHeap::len).sum();
        copies > 2 * live as usize + Self::SLACK
    }

    /// Rebuilds every heap from the pool, one current copy per live entry,
    /// reusing the heaps' storage: no allocation once it has grown. Runs
    /// at a chronon boundary (when `skipped` is empty) — every chronon for
    /// a reseeded policy, once garbage outgrows the pool for a state-keyed
    /// one — and on resume.
    fn rebuild(&mut self, pool: &Pool<'_>) {
        let mut groups = std::mem::take(&mut self.heaps).map(|heap| {
            let mut copies = heap.into_vec();
            copies.clear();
            copies
        });
        for r in 0..pool.instance.n_resources as usize {
            for &e in pool.index.entries(r) {
                if let Some(copy) = Self::copy_of(pool, e) {
                    groups[self.group(pool, e.cei)].push(Reverse(copy));
                }
            }
        }
        self.heaps = groups.map(BinaryHeap::from);
    }
}

/// Algorithm 1's run state: everything that crosses a chronon boundary,
/// plus the scratch a chronon reuses. Built fresh ([`new`](Self::new)) or
/// from a boundary snapshot ([`restore`](Self::restore), the inverse of
/// [`capture`](Self::capture));
/// [`chronon`](Self::chronon) runs one chronon as a fixed sequence of
/// phase methods.
struct EngineState<'a, F, M, O> {
    /// What selection reads.
    pool: Pool<'a>,
    /// How `probeEIs` picks from `pool`.
    selector: Selector,
    config: EngineConfig,
    fault_config: FaultConfig,
    faults: &'a mut F,
    mutations: &'a mut M,
    observer: &'a mut O,
    /// `faults.enabled()` and `mutations.active()`, sampled once: a
    /// disabled model or an inactive source costs one branch per chronon
    /// and nothing else.
    fault_on: bool,
    mutations_on: bool,
    /// EIs bucketed by the chronon their window opens, so each enters the
    /// pool exactly then, and by the chronon it closes, so the expiry pass
    /// visits only the windows closing now. Both hold entries in the pool
    /// order `(start, cei, ei_idx)`; a window ending at or past the horizon
    /// never expires inside the epoch.
    starts: Vec<Vec<PoolEntry>>,
    ends: Vec<Vec<PoolEntry>>,
    /// The chronon each resolved CEI resolved at: with its status, its
    /// outcome ([`Status::outcome`]).
    resolved_at: Vec<Chronon>,
    schedule: Schedule,
    /// `probes_available` accumulates the effective per-chronon budget:
    /// equal to `budget.total_over(horizon)` on unmutated runs, and
    /// correct under mid-run `SetBudget`.
    stats: RunStats,
    budget_override: Option<u32>,
    /// A drained `SetBudget` parks here and becomes the override at the
    /// next chronon boundary — reconfiguration never applies mid-chronon.
    pending_budget: Option<u32>,
    /// Fault bookkeeping per resource, sized zero when faultless: the
    /// committed outage horizon frozen at chronon start (so shedding and
    /// the event-driven checker see the same state), the last horizon
    /// announced via `ResourceDown` (`None` while up), failure streaks and
    /// backoff deadlines.
    down: Vec<Option<Chronon>>,
    announced: Vec<Option<Chronon>>,
    consec_failures: Vec<u32>,
    next_attempt_at: Vec<Chronon>,
    /// Retry attempts this chronon, against `FaultConfig::retry_quota`.
    retries_used: u32,
    /// Per-chronon scratch, allocated once and reused: the drained
    /// mutations, the CEIs captured this chronon (NP: they join cands⁺ at
    /// its end), the CEIs the current probe touched, the CEIs a pass
    /// resolves, and the entries the shed pass walks.
    drained: Vec<Mutation>,
    captured_now: Vec<CeiId>,
    touched: Vec<CeiId>,
    resolved: Vec<CeiId>,
    walk: Vec<PoolEntry>,
    /// This run's number ([`RUNS`]).
    run: u64,
}

impl<'a, F: FaultModel, M: MutationSource, O: Observer> EngineState<'a, F, M, O> {
    /// The state at chronon 0: nothing released, an empty pool.
    fn new(inputs: RunInputs<'a, F, M, O>) -> Self {
        let RunInputs {
            instance,
            policy,
            config,
            faults,
            fault_config,
            mutations,
            observer,
        } = inputs;
        let n_ceis = instance.ceis.len();
        let n_res = instance.n_resources as usize;
        let horizon = instance.epoch.len() as usize;

        // The fill order is cei-major (dense ids, ascending), and each ends
        // bucket is stable-sorted by start on top of it.
        let mut starts: Vec<Vec<PoolEntry>> = vec![Vec::new(); horizon];
        let mut ends: Vec<Vec<PoolEntry>> = vec![Vec::new(); horizon];
        for cei in &instance.ceis {
            for (idx, ei) in cei.eis.iter().enumerate() {
                let entry = PoolEntry {
                    cei: cei.id,
                    ei_idx: idx as u16,
                };
                starts[ei.start as usize].push(entry);
                if (ei.end as usize) < horizon {
                    ends[ei.end as usize].push(entry);
                }
            }
        }
        for bucket in &mut ends {
            bucket.sort_by_key(|e| instance.cei(e.cei).eis[e.ei_idx as usize].start);
        }

        let fault_on = faults.enabled();
        let n_track = if fault_on { n_res } else { 0 };
        EngineState {
            pool: Pool {
                instance,
                policy,
                index: CandidateIndex::new(instance),
                status: (0..n_ceis).map(|_| Status::NotArrived).collect(),
                started: vec![false; n_ceis],
                now: 0,
                active_eis: vec![0; n_res],
                has_update: vec![false; n_res],
                probed_now: vec![false; n_res],
                blocked: vec![false; n_res],
            },
            selector: Selector::new(config, policy),
            config,
            fault_config,
            fault_on,
            mutations_on: mutations.active(),
            faults,
            mutations,
            observer,
            starts,
            ends,
            resolved_at: vec![0; n_ceis],
            schedule: Schedule::new(instance.n_resources, instance.epoch),
            stats: RunStats {
                n_ceis: n_ceis as u64,
                n_eis: instance.total_eis() as u64,
                ..Default::default()
            },
            budget_override: None,
            pending_budget: None,
            down: vec![None; n_track],
            announced: vec![None; n_track],
            consec_failures: vec![0; n_track],
            next_attempt_at: vec![0; n_track],
            retries_used: 0,
            drained: Vec::new(),
            captured_now: Vec::new(),
            touched: Vec::new(),
            resolved: Vec::new(),
            walk: Vec::new(),
            run: RUNS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The state at `snapshot`'s boundary: every piece of cross-chronon
    /// state is the captured one; per-chronon scratch starts fresh and is
    /// rebuilt by the loop exactly as the original run rebuilt it.
    fn restore(
        inputs: RunInputs<'a, F, M, O>,
        snapshot: &EngineSnapshot,
    ) -> Result<Self, SnapshotMismatch> {
        snapshot.validate(inputs.instance, inputs.faults.enabled())?;
        let mut state = Self::new(inputs);
        let pool = &mut state.pool;
        for (i, s) in snapshot.status.iter().enumerate() {
            pool.status[i] = match s {
                CeiState::NotArrived => Status::NotArrived,
                CeiState::Active { captured, expired } => {
                    let id = CeiId(i as u32);
                    pool.index.restore_flags(id, captured, expired);
                    pool.started[i] = pool.index.n_captured(id) > 0;
                    Status::Active
                }
                CeiState::Captured => Status::Captured,
                CeiState::Failed => Status::Failed,
                CeiState::Cancelled => Status::Cancelled,
            };
        }
        // Refill the per-resource candidate lists in recorded order: shared
        // captures fire in list order, so insertion order is part of the
        // observable state.
        for (r, entries) in snapshot.index.iter().enumerate() {
            for &(cei, ei_idx) in entries {
                let e = PoolEntry {
                    cei: CeiId(cei),
                    ei_idx,
                };
                pool.index.insert(e, r);
            }
        }
        pool.now = snapshot.at;
        // Validated: each outcome agrees with its CEI's state.
        for (resolved_at, outcome) in state.resolved_at.iter_mut().zip(&snapshot.outcomes) {
            *resolved_at = outcome.at().unwrap_or(0);
        }
        state.stats = snapshot.stats.clone();
        state.schedule = snapshot.schedule.clone();
        state.budget_override = snapshot.budget_override;
        state.pending_budget = snapshot.pending_budget;
        if state.fault_on {
            state.announced.copy_from_slice(&snapshot.announced);
            state
                .consec_failures
                .copy_from_slice(&snapshot.consec_failures);
            state
                .next_attempt_at
                .copy_from_slice(&snapshot.next_attempt_at);
        }
        // The keyed queue's copies differ from the uninterrupted run's
        // (which carries stale ones), but every live entry has its current
        // copy, so selections agree.
        state.selector.rebuild(&state.pool);
        Ok(state)
    }

    /// Copies the boundary state of chronon `at` into `image` — the state
    /// [`SnapshotImage::encode`] turns into the bytes
    /// [`EngineSnapshot::encode`] writes for the snapshot this state would
    /// build. Everything is a plain copy into the image's own storage but
    /// the candidate lists, whose live entries go out in list order (the
    /// order shared captures fire in). An image this run filled before
    /// keeps its schedule rows and CEI offsets, and takes only the rows
    /// since its last boundary.
    fn capture(&self, at: Chronon, image: &mut SnapshotImage) {
        fn copy<T: Copy>(to: &mut Vec<T>, from: &[T]) {
            to.clear();
            to.extend_from_slice(from);
        }
        let index = &self.pool.index;
        let (captured, expired, ei_base) = index.flag_arrays();
        if image.run == self.run {
            debug_assert!(image.at <= at, "boundaries only move forward");
            image.schedule.copy_rows(&self.schedule, image.at..at);
        } else {
            image.run = self.run;
            image.schedule.clone_from(&self.schedule);
            copy(&mut image.ei_base, ei_base);
        }
        image.at = at;
        copy(&mut image.status, &self.pool.status);
        copy(&mut image.captured, captured);
        copy(&mut image.expired, expired);
        copy(&mut image.resolved_at, &self.resolved_at);
        image.stats.clone_from(&self.stats);
        image.budget_override = self.budget_override;
        image.pending_budget = self.pending_budget;
        copy(&mut image.announced, &self.announced);
        copy(&mut image.consec_failures, &self.consec_failures);
        copy(&mut image.next_attempt_at, &self.next_attempt_at);
        image.counts.clear();
        image.entries.clear();
        for r in 0..self.pool.instance.n_resources as usize {
            let listed = image.entries.len();
            let live = index.entries(r).iter().filter(|e| index.is_live(**e));
            image.entries.extend(live.map(|e| (e.cei.0, e.ei_idx)));
            let count = (image.entries.len() - listed) as u32;
            debug_assert_eq!(count, index.live_on(r), "resource {r}'s live count");
            image.counts.push(count);
        }
    }

    /// The boundary state of chronon `at` as an [`EngineSnapshot`]: the
    /// reference a [`capture`](Self::capture)d image's encoding must match.
    #[cfg(test)]
    fn snapshot(&self, at: Chronon) -> EngineSnapshot {
        let index = &self.pool.index;
        EngineSnapshot {
            at,
            status: self
                .pool
                .status
                .iter()
                .enumerate()
                .map(|(i, s)| match s {
                    Status::NotArrived => CeiState::NotArrived,
                    Status::Active => CeiState::Active {
                        captured: index.captured_flags(CeiId(i as u32)).to_vec(),
                        expired: index.expired_flags(CeiId(i as u32)).to_vec(),
                    },
                    Status::Captured => CeiState::Captured,
                    Status::Failed => CeiState::Failed,
                    Status::Cancelled => CeiState::Cancelled,
                })
                .collect(),
            outcomes: self.outcomes(),
            stats: self.stats.clone(),
            schedule: self.schedule.clone(),
            budget_override: self.budget_override,
            pending_budget: self.pending_budget,
            announced: self.announced.clone(),
            consec_failures: self.consec_failures.clone(),
            next_attempt_at: self.next_attempt_at.clone(),
            index: (0..self.pool.instance.n_resources as usize)
                .map(|r| {
                    index
                        .entries(r)
                        .iter()
                        .filter(|e| index.is_live(**e))
                        .map(|e| (e.cei.0, e.ei_idx))
                        .collect()
                })
                .collect(),
        }
    }

    /// Runs every remaining chronon, offering `snapshots` each boundary,
    /// and returns the run's result. Wanted snapshots are captured into one
    /// image reused for the whole run (or swapped with the sink's).
    fn run(mut self, snapshots: &mut dyn SnapshotSink) -> RunResult {
        let mut image = SnapshotImage::default();
        for t in self.pool.now..self.pool.instance.epoch.len() {
            // Offer the boundary state before any of chronon t's work —
            // including the pending-budget promotion, which is chronon t's
            // first action and must replay after a restore.
            if snapshots.wants(t) {
                self.capture(t, &mut image);
                snapshots.accept(&mut image);
            }
            self.chronon(t);
        }
        self.finish()
    }

    /// One chronon of Algorithm 1. Each call is one phase.
    fn chronon(&mut self, t: Chronon) {
        let budget = self.begin_chronon(t);
        if self.mutations_on {
            self.drain_mutations();
        }
        if self.fault_on {
            self.announce_faults();
        }
        let pool_size = self.open_windows();
        let spent = self.probe_eis(budget, pool_size);
        self.expire(Resolution::Expired);
        if self.fault_on {
            self.expire(Resolution::Shed);
        }
        self.end_chronon(spent, budget);
    }

    /// Opens chronon `t`: a budget reconfiguration drained last chronon
    /// takes effect exactly now, and [`Event::ChrononStart`] announces the
    /// budget. Returns it.
    fn begin_chronon(&mut self, t: Chronon) -> u32 {
        self.pool.now = t;
        if let Some(b) = self.pending_budget.take() {
            self.budget_override = Some(b);
        }
        let budget = self
            .budget_override
            .unwrap_or_else(|| self.pool.instance.budget.at(t));
        self.stats.probes_available += u64::from(budget);
        self.retries_used = 0;
        self.observer.on_event(Event::ChrononStart { t, budget });
        budget
    }

    /// Phase 0: this chronon's mutations, in drain order, before fault
    /// announcements and arrivals so a registration's windows and a
    /// cancellation's retry-state cleanup are visible to the whole chronon.
    fn drain_mutations(&mut self) {
        let t = self.pool.now;
        let mut drained = std::mem::take(&mut self.drained);
        drained.clear();
        self.mutations.drain_at(t, &mut drained);
        for &m in &drained {
            match m {
                Mutation::Register { cei } => self.register(cei),
                Mutation::Cancel { cei } => self.cancel(cei),
                Mutation::SetBudget { budget } => {
                    self.pending_budget = Some(budget);
                    self.observer
                        .on_event(Event::BudgetReconfigured { t, budget });
                }
            }
        }
        self.drained = drained;
    }

    /// Releases CEI `id` now. Windows already closed expire on the spot;
    /// open windows (strictly `start < t` — the `starts[t]` bucket owns
    /// `start == t`) enter the pool now; future windows ride the prebuilt
    /// buckets. O(own EIs) throughout.
    fn register(&mut self, id: CeiId) {
        if self.pool.status[id.index()] != Status::NotArrived {
            return; // already live, resolved, or cancelled
        }
        let t = self.pool.now;
        let cei = self.pool.instance.cei(id);
        for (idx, ei) in cei.eis.iter().enumerate() {
            let e = PoolEntry {
                cei: id,
                ei_idx: idx as u16,
            };
            if ei.end < t {
                self.pool.index.mark_expired(e);
            } else if ei.start < t {
                self.pool.index.insert(e, ei.resource.index());
            }
        }
        self.observer
            .on_event(Event::CeiRegistered { cei: id, at: t });
        if self.pool.index.is_doomed(id, cei.required) {
            // Registered too late: the already-closed windows alone make
            // `required` unreachable.
            self.resolve(id, Resolution::Expired);
        } else {
            self.pool.status[id.index()] = Status::Active;
            self.selector.cei_changed_between_chronons(&self.pool, id);
        }
    }

    /// Cancels CEI `id` unless it already resolved, then drops pending
    /// retry state on resources the cancellation emptied: the streak
    /// belonged to a profile nobody wants anymore, and keeping it would
    /// burn backoff delays and the per-chronon retry quota on dead
    /// candidates.
    fn cancel(&mut self, id: CeiId) {
        if !matches!(
            self.pool.status[id.index()],
            Status::NotArrived | Status::Active
        ) {
            return; // already resolved or cancelled
        }
        self.resolve(id, Resolution::Cancelled);
        if self.fault_on {
            for ei in &self.pool.instance.cei(id).eis {
                let r = ei.resource.index();
                if self.pool.index.live_on(r) == 0 && self.consec_failures[r] > 0 {
                    self.consec_failures[r] = 0;
                    self.next_attempt_at[r] = 0;
                }
            }
        }
    }

    /// Advances the fault model, freezes each resource's committed outage
    /// horizon, announces new outages and extensions of the committed
    /// horizon (a steady commitment stays silent) and recoveries, and
    /// blocks down, backing-off and out-of-quota resources for the chronon.
    fn announce_faults(&mut self) {
        let t = self.pool.now;
        self.faults.begin_chronon(t);
        for r in 0..self.pool.instance.n_resources as usize {
            let resource = ResourceId(r as u32);
            let down = self.faults.down_until(resource);
            self.down[r] = down;
            match down {
                Some(until) => {
                    if self.announced[r] != Some(until) {
                        self.observer
                            .on_event(Event::ResourceDown { t, resource, until });
                        self.announced[r] = Some(until);
                    }
                }
                None => {
                    if self.announced[r].take().is_some() {
                        self.observer.on_event(Event::ResourceUp { t, resource });
                    }
                }
            }
            self.pool.blocked[r] = down.is_some()
                || t < self.next_attempt_at[r]
                || (self.consec_failures[r] > 0 && self.fault_config.retry_quota == Some(0));
        }
    }

    /// Phases 1–4: η(t) joins cands(η) — dynamic CEIs skip their natural
    /// release (their registration is their release), and a CEI cancelled
    /// before its release stays cancelled — then an amortized tombstone
    /// sweep, then the EIs whose window opens now join cands(I) (each gives
    /// its resource a fresh update for the policy context), then the
    /// occupancy snapshot. Returns the live total: the candidate-set size
    /// selection competes over.
    fn open_windows(&mut self) -> u32 {
        let t = self.pool.now;
        let instance = self.pool.instance;
        for &id in instance.released_at(t) {
            if self.mutations_on && self.mutations.suppresses_release(id) {
                continue;
            }
            if self.pool.status[id.index()] == Status::NotArrived {
                self.pool.status[id.index()] = Status::Active;
            }
        }
        let pool = &mut self.pool;
        let opened = &self.starts[t as usize];
        pool.index.sweep();
        pool.has_update.fill(false);
        for &e in opened {
            if pool.status[e.cei.index()] == Status::Active {
                let r = pool.resource(e).index();
                pool.index.insert(e, r);
                pool.has_update[r] = true;
            }
        }
        pool.active_eis.copy_from_slice(pool.index.active_now());
        self.selector.windows_opened(&self.pool, opened);
        self.pool.index.live()
    }

    /// Phase 5, `probeEIs`: per selection phase (cands⁺ first in NP mode),
    /// probe the minimum-score selectable candidate until the budget runs
    /// out or nothing affordable remains. Then report the candidate set
    /// `pool_size` froze, and the live EIs left unserved. Returns the
    /// budget spent.
    fn probe_eis(&mut self, budget: u32, pool_size: u32) -> u32 {
        self.pool.probed_now.fill(false);
        let phases: &[Phase] = if self.config.preemptive {
            &[Phase::All]
        } else {
            &[Phase::Started, Phase::New]
        };
        let mut used: u32 = 0;
        for &phase in phases {
            while used < budget {
                let Some(best) = self.selector.pick(&self.pool, phase, budget - used) else {
                    break;
                };
                let resource = self.pool.resource(best);
                let cost = self.pool.instance.costs.of(resource);
                // Submit the attempt to the fault model before touching the
                // schedule: a failed probe never captures and is never
                // recorded as issued.
                if self.fault_on && !self.attempt(resource, cost, &mut used) {
                    let blocked = self.pool.blocked[resource.index()];
                    self.selector.put_back(phase, blocked);
                    continue;
                }
                self.probe(best, resource, cost);
                used += cost;
            }
        }

        // Captures removed entries as they landed, so whatever is still
        // live was deferred: the budget ran out or nothing affordable
        // remained.
        if self.observer.enabled() {
            let t = self.pool.now;
            self.observer
                .on_event(Event::CandidateSet { t, size: pool_size });
            let deferred = self.pool.index.live();
            if deferred > 0 {
                self.observer
                    .on_event(Event::BudgetExhausted { t, deferred });
            }
        }
        used
    }

    /// Submits a probe attempt on `resource` to the fault model. A failure
    /// charges `cost` to `used` iff failures cost, extends the resource's
    /// streak and backoff, and blocks it for the chronon when it consumed
    /// no budget (or the loop would spin on it); once the retry quota is
    /// spent, every resource with a streak leaves selection. Returns
    /// whether the probe succeeded.
    fn attempt(&mut self, resource: ResourceId, cost: u32, used: &mut u32) -> bool {
        let t = self.pool.now;
        let r = resource.index();
        let attempt = self.consec_failures[r];
        if attempt > 0 {
            self.observer.on_event(Event::ProbeRetried {
                t,
                resource,
                attempt,
            });
            self.retries_used += 1;
        }
        let succeeded = self.faults.probe_succeeds(t, resource, attempt);
        if succeeded {
            self.consec_failures[r] = 0;
        } else {
            self.consec_failures[r] = attempt + 1;
            self.stats.probes_failed += 1;
            let charged = self.fault_config.failures_cost;
            if charged {
                *used += cost;
                self.stats.budget_lost += u64::from(cost);
            }
            if !charged || cost == 0 {
                self.pool.blocked[r] = true;
            }
            if let Some(backoff) = self.fault_config.backoff {
                self.next_attempt_at[r] = t.saturating_add(backoff.delay(attempt + 1));
                self.pool.blocked[r] = true;
            }
            self.observer.on_event(Event::ProbeFailed {
                t,
                resource,
                cost,
                attempt,
                charged,
            });
        }
        if self
            .fault_config
            .retry_quota
            .is_some_and(|q| self.retries_used >= q)
        {
            for (blocked, &streak) in self.pool.blocked.iter_mut().zip(&self.consec_failures) {
                if streak > 0 {
                    *blocked = true;
                }
            }
        }
        succeeded
    }

    /// Issues the probe of `resource` selected for `best`: records it,
    /// announces it with its sharing fan-out (the resource's live count —
    /// every live entry there is capturable) before the per-EI capture
    /// events, captures, and refreshes the selector for the CEIs it
    /// touched.
    fn probe(&mut self, best: PoolEntry, resource: ResourceId, cost: u32) {
        let t = self.pool.now;
        self.schedule.probe(resource, t);
        self.stats.probes_used += 1;
        self.stats.budget_spent += u64::from(cost);
        if self.observer.enabled() {
            let shared_eis = if self.config.share_probes {
                self.pool.index.live_on(resource.index())
            } else {
                1
            };
            self.observer.on_event(Event::ProbeIssued {
                t,
                resource,
                cost,
                shared_eis,
            });
        }
        self.touched.clear();
        if self.config.share_probes {
            self.pool.probed_now[resource.index()] = true;
            self.capture_resource(resource.index());
        } else {
            self.capture_single(best);
            self.touched.push(best.cei);
        }
        if !self.config.preemptive {
            self.captured_now.extend_from_slice(&self.touched);
        }
        for &id in &self.touched {
            self.selector.cei_touched(&self.pool, id);
        }
    }

    /// Marks every live pool EI on `resource` as captured by this
    /// chronon's probe, completing CEIs whose last required EI this was.
    /// Liveness implies an active window and an `Active` parent (see
    /// `engine::index`), so every live entry on the probed resource is
    /// captured and the list empties wholesale: it is taken out for
    /// iteration, cleared with its capacity kept, and put back.
    fn capture_resource(&mut self, resource: usize) {
        let t = self.pool.now;
        let instance = self.pool.instance;
        self.resolved.clear();
        let mut list = std::mem::take(&mut self.pool.index.by_resource[resource]);
        for &e in &list {
            if !self.pool.index.is_live(e) {
                continue; // tombstone awaiting a sweep
            }
            if self.pool.status[e.cei.index()] != Status::Active {
                debug_assert!(false, "live entry with a resolved parent");
                continue;
            }
            let ei = instance.cei(e.cei).eis[e.ei_idx as usize];
            debug_assert!(ei.resource.index() == resource && ei.is_active(t));
            if self.pool.index.capture(e) {
                self.pool.index.mark_captured(e, resource);
                self.stats.eis_captured += 1;
                self.observer.on_event(Event::EiCaptured {
                    t,
                    cei: e.cei,
                    latency: t - ei.start,
                });
                if !self.touched.contains(&e.cei) {
                    self.touched.push(e.cei);
                }
                // Record completion exactly once: when this capture crosses
                // the threshold (under threshold semantics the count stays
                // past it for every further capture in the same probe).
                if self.pool.index.n_captured(e.cei) == instance.cei(e.cei).required {
                    self.resolved.push(e.cei);
                }
            }
        }
        list.clear();
        self.pool.index.by_resource[resource] = list;
        self.pool.index.reset_cleared(resource);
        // The completed CEIs' entries on other resources leave the pool.
        self.resolve_all(Resolution::Completed);
    }

    /// Ablation path (`share_probes = false`): a probe captures only the EI
    /// it was issued for.
    fn capture_single(&mut self, entry: PoolEntry) {
        let t = self.pool.now;
        let instance = self.pool.instance;
        if self.pool.status[entry.cei.index()] != Status::Active {
            return;
        }
        if self.pool.index.capture(entry) {
            let ei = instance.cei(entry.cei).eis[entry.ei_idx as usize];
            self.pool.index.remove(entry, ei.resource.index());
            self.stats.eis_captured += 1;
            self.observer.on_event(Event::EiCaptured {
                t,
                cei: entry.cei,
                latency: t - ei.start,
            });
            if self.pool.index.n_captured(entry.cei) == instance.cei(entry.cei).required {
                self.resolve(entry.cei, Resolution::Completed);
            }
        }
    }

    /// Phase 6, expiry: marks EIs expired and resolves the CEIs that leaves
    /// fewer than `required` capturable EIs (with the paper's AND
    /// semantics, on the first expiry) as `how`:
    ///
    /// * [`Resolution::Expired`] — the windows closing uncaptured now, from
    ///   their bucket in pool order;
    /// * [`Resolution::Shed`] — graceful degradation, after the natural
    ///   pass so a CEI doomed by a real window close always reports
    ///   `CeiExpired`: an uncaptured EI whose whole remaining window sits
    ///   inside a committed outage is unreachable.
    fn expire(&mut self, how: Resolution) {
        let t = self.pool.now;
        let instance = self.pool.instance;
        let walk = if how == Resolution::Shed {
            // The live entries of the down resources' lists whose window
            // ends inside the outage, in pool order. `end <= t` windows
            // belong to the natural pass (a live entry's window is open).
            let mut walk = std::mem::take(&mut self.walk);
            walk.clear();
            for (r, down) in self.down.iter().enumerate() {
                let Some(until) = *down else {
                    continue;
                };
                for &e in self.pool.index.entries(r) {
                    if !self.pool.index.is_live(e) {
                        continue;
                    }
                    let end = instance.cei(e.cei).eis[e.ei_idx as usize].end;
                    if end > t && until >= end {
                        walk.push(e);
                    }
                }
            }
            walk.sort_unstable_by_key(|e| {
                let start = instance.cei(e.cei).eis[e.ei_idx as usize].start;
                (start, e.cei.0, e.ei_idx)
            });
            walk
        } else {
            std::mem::take(&mut self.ends[t as usize])
        };

        self.resolved.clear();
        for &e in &walk {
            if !self.pool.index.is_live(e) {
                continue; // never entered, captured, or already removed
            }
            if self.pool.status[e.cei.index()] != Status::Active {
                continue;
            }
            let cei = instance.cei(e.cei);
            if self.pool.index.mark_expired(e) {
                self.pool
                    .index
                    .remove(e, cei.eis[e.ei_idx as usize].resource.index());
                if self.pool.index.is_doomed(e.cei, cei.required) {
                    self.resolved.push(e.cei);
                }
            }
        }
        self.resolve_all(how);

        if how == Resolution::Shed {
            self.walk = walk;
        } else {
            self.ends[t as usize] = walk;
        }
    }

    /// Phase 7, upkeep for the next chronon: copies the keyed queue skipped
    /// rejoin it, and CEIs captured for the first time join cands⁺ (NP) —
    /// the keyed queue re-files their live entries there. Then
    /// [`Event::ChrononEnd`].
    fn end_chronon(&mut self, spent: u32, budget: u32) {
        self.selector.end_chronon(&self.pool);
        for &id in &self.captured_now {
            if !std::mem::replace(&mut self.pool.started[id.index()], true) {
                self.selector.cei_changed_between_chronons(&self.pool, id);
            }
        }
        self.captured_now.clear();
        self.observer.on_event(Event::ChrononEnd {
            t: self.pool.now,
            spent,
            budget,
        });
    }

    /// Resolves every CEI in `resolved` that is still live, as `how`.
    fn resolve_all(&mut self, how: Resolution) {
        let resolved = std::mem::take(&mut self.resolved);
        for &id in &resolved {
            if self.pool.status[id.index()] == Status::Active {
                self.resolve(id, how);
            }
        }
        self.resolved = resolved;
    }

    /// Resolves CEI `id` now, as `how`: its terminal status and outcome,
    /// the stats, the announcing event, and the removal of its remaining
    /// entries from the pool.
    fn resolve(&mut self, id: CeiId, how: Resolution) {
        let (cei, at) = (id, self.pool.now);
        let (status, outcome, event) = match how {
            Resolution::Completed => (
                Status::Captured,
                CeiOutcome::Captured { at },
                Event::CeiCompleted { cei, at },
            ),
            Resolution::Expired => (
                Status::Failed,
                CeiOutcome::Failed { at },
                Event::CeiExpired { cei, at },
            ),
            Resolution::Shed => (
                Status::Failed,
                CeiOutcome::Failed { at },
                Event::CeiShed { cei, at },
            ),
            Resolution::Cancelled => (
                Status::Cancelled,
                CeiOutcome::Cancelled { at },
                Event::CeiCancelled { cei, at },
            ),
        };
        self.pool.status[id.index()] = status;
        self.resolved_at[id.index()] = at;
        self.stats
            .record_outcome_of(self.pool.instance.cei(id), outcome);
        if how == Resolution::Shed {
            self.stats.ceis_shed += 1;
        }
        self.observer.on_event(event);
        self.pool.index.remove_cei(self.pool.instance, id);
    }

    /// Every CEI's outcome so far.
    fn outcomes(&self) -> Vec<CeiOutcome> {
        let resolved = self.pool.status.iter().zip(&self.resolved_at);
        resolved.map(|(status, &at)| status.outcome(at)).collect()
    }

    /// Ends the run. Any CEI still unresolved at epoch end is recorded as
    /// pending so the size histogram sums to `n_ceis`: CEIs the trace never
    /// releases inside the epoch (`NotArrived`), and CEIs whose
    /// unreleased-at-expiry EIs never joined the pool, so no expiry ever
    /// doomed them (`Active`).
    fn finish(mut self) -> RunResult {
        for (cei, s) in self.pool.instance.ceis.iter().zip(&self.pool.status) {
            if matches!(s, Status::Active | Status::NotArrived) {
                self.stats.record_outcome_of(cei, CeiOutcome::Pending);
            }
        }
        RunResult {
            outcomes: self.outcomes(),
            schedule: self.schedule,
            stats: self.stats,
            selection_steps: self.selector.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MutationQueue;
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
        OnlineEngine::run_driven(
            inst,
            policy,
            config,
            &mut NoFaults,
            FaultConfig::default(),
            &mut ScriptedMutations::compile(q, inst.epoch.len(), inst.ceis.len()),
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
            let r = OnlineEngine::run_driven(
                &inst,
                &Mrsf,
                EngineConfig::preemptive(),
                &mut faults,
                fc,
                &mut ScriptedMutations::compile(&q, inst.epoch.len(), inst.ceis.len()),
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
            OnlineEngine::run_driven(
                inst,
                policy,
                config,
                &mut model.as_mut(),
                fault_config,
                &mut ScriptedMutations::default(),
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
        fn descriptor(&self) -> String {
            format!("fail-at({})", self.0)
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
    fn state_keyed_policies_skip_the_per_chronon_rebuild() {
        // A wrapper that hides the policy's dynamics falls back to the
        // per-chronon rebuild: the keyed path must score under half as
        // often, with the identical schedule.
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

    /// 300 CEIs of 1–4 EIs over 16 resources and 30 chronons at two probes
    /// per chronon, every seventh multi-EI CEI a threshold CEI (`required <
    /// |η|`): runs defer, capture, expire and, under faults, shed.
    fn snapshot_grid_instance() -> Instance {
        let mut rng = webmon_streams::SimRng::new(0x5A4);
        let (n_resources, horizon) = (16, 30);
        let mut b = InstanceBuilder::new(n_resources, horizon, Budget::Uniform(2));
        let mut p = b.profile();
        for k in 0..300 {
            if k % 6 == 5 {
                p = b.profile();
            }
            let eis: Vec<(u32, Chronon, Chronon)> = (0..rng.range_inclusive(1, 4))
                .map(|_| {
                    let start = rng.below(u64::from(horizon)) as Chronon;
                    let end = (start + rng.below(6) as Chronon).min(horizon - 1);
                    (rng.below(u64::from(n_resources)) as u32, start, end)
                })
                .collect();
            if k % 7 == 0 && eis.len() > 1 {
                b.cei_threshold(p, eis.len() as u16 - 1, &eis);
            } else {
                b.cei(p, &eis);
            }
        }
        b.build()
    }

    /// At every boundary of faultless, faulted and churned runs, in P and
    /// NP mode, with and without probe sharing, a captured snapshot image
    /// encodes to the reference builder's `EngineSnapshot::encode` byte for
    /// byte — two images taking turns, as a swapping sink hands them back —
    /// and a state restored from those bytes captures them again, into an
    /// image another run filled.
    #[test]
    fn snapshot_image_encoding_matches_the_reference_at_every_boundary() {
        use crate::fault::{Backoff, IidFaults};

        let inst = snapshot_grid_instance();
        assert!(inst.ceis.iter().any(|c| usize::from(c.required) < c.size()));
        let horizon = inst.epoch.len();
        let mut churn = MutationQueue::new();
        for k in 0..20 {
            churn.register(k + 2, CeiId(k * 13));
        }
        for k in 0..10 {
            churn.cancel(3 + 2 * k, CeiId(k * 17 + 5));
        }
        churn.set_budget(5, 3).set_budget(12, 1);
        let none = MutationQueue::new();
        let fault_config = FaultConfig::charged().with_backoff(Backoff::new(1, 4));
        let faults = |faulted: bool| -> Box<dyn FaultModel> {
            if faulted {
                Box::new(IidFaults::new(0.3, 11))
            } else {
                Box::new(NoFaults)
            }
        };
        let (mut failed, mut cancelled, mut threshold_met) = (0, 0, 0);
        for (faulted, queue) in [(false, &none), (true, &none), (false, &churn)] {
            for mode in [EngineConfig::preemptive(), EngineConfig::non_preemptive()] {
                for config in [mode, mode.without_probe_sharing()] {
                    let label = format!("faulted {faulted}, {} mutations, {config:?}", queue.len());
                    let script = || ScriptedMutations::compile(queue, horizon, inst.ceis.len());
                    let (mut model, mut mutations) = (faults(faulted), script());
                    let (mut model, mut observer) = (model.as_mut(), NoopObserver);
                    let mut state = EngineState::new(RunInputs {
                        instance: &inst,
                        policy: &Mrsf,
                        config,
                        faults: &mut model,
                        fault_config,
                        mutations: &mut mutations,
                        observer: &mut observer,
                    });
                    let mut images: [SnapshotImage; 2] = Default::default();
                    let (mut encoded, mut reference, mut again) =
                        (Vec::new(), Vec::new(), Vec::new());
                    for t in 0..horizon {
                        let turn = t as usize % 2;
                        state.capture(t, &mut images[turn]);
                        encoded.clear();
                        reference.clear();
                        images[turn].encode(&mut encoded);
                        state.snapshot(t).encode(&mut reference);
                        assert!(encoded == reference, "{label}: boundary {t}");

                        let snap = EngineSnapshot::decode(&encoded).unwrap();
                        let (mut model, mut mutations) = (faults(faulted), script());
                        let (mut model, mut observer) = (model.as_mut(), NoopObserver);
                        let restored = EngineState::restore(
                            RunInputs {
                                instance: &inst,
                                policy: &Mrsf,
                                config,
                                faults: &mut model,
                                fault_config,
                                mutations: &mut mutations,
                                observer: &mut observer,
                            },
                            &snap,
                        )
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                        let mut foreign = images[1 - turn].clone();
                        restored.capture(t, &mut foreign);
                        again.clear();
                        foreign.encode(&mut again);
                        assert!(again == encoded, "{label}: restored at {t}");

                        state.chronon(t);
                    }
                    let result = state.finish();
                    failed += result.stats.probes_failed;
                    cancelled += result.stats.ceis_cancelled;
                    threshold_met += inst
                        .ceis
                        .iter()
                        .zip(&result.outcomes)
                        .filter(|(c, o)| usize::from(c.required) < c.size() && o.is_captured())
                        .count();
                }
            }
        }
        assert!(failed > 0, "the faulted runs fail probes");
        assert!(cancelled > 0, "the churned runs cancel CEIs");
        assert!(threshold_met > 0, "threshold CEIs complete");
    }
}
