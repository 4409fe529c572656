//! The online complex-monitoring engine — Algorithm 1 of the paper.
//!
//! At every chronon the engine:
//!
//! 1. receives the CEIs released at that chronon (`η(j)`),
//! 2. folds newly opened EIs into the candidate pool `cands(I)`,
//! 3. selects up to `C_j` resources to probe by repeatedly taking the
//!    policy's minimum-score candidate (`probeEIs`),
//! 4. lets one probe capture *every* active candidate EI on the probed
//!    resource (the `R_ids` intra-resource sharing of Algorithm 1),
//! 5. completes CEIs whose last EI was captured, and
//! 6. expires EIs whose window closed uncaptured — failing their parent CEI
//!    and dropping its siblings from the pool.
//!
//! **Preemption.** A non-preemptive run snapshots, at the start of each
//! chronon, which candidate CEIs have already been probed at least once
//! (`cands⁺`); those EIs are served first, and new CEIs only compete for
//! leftover budget. A preemptive run lets all candidates compete at once.
//! Even non-preemptive runs cannot guarantee completion of a started CEI —
//! when started CEIs alone exceed the budget, some are dropped (Section
//! IV-A).
//!
//! **Observability.** [`OnlineEngine::run_observed`] streams typed
//! [`crate::obs::Event`]s from inside the loop — probes with sharing
//! fan-out, per-EI capture latencies, CEI resolutions, candidate-pool and
//! budget accounting — to any [`crate::obs::Observer`]. The plain
//! [`OnlineEngine::run`] uses [`crate::obs::NoopObserver`], which
//! monomorphizes to the unobserved loop at zero cost.
//!
//! **Entry points.** [`OnlineEngine::run`], [`OnlineEngine::run_observed`]
//! and [`OnlineEngine::run_driven`] differ only in which inputs they
//! default: no faults, no mutations, no observer. Each builds one run
//! state and runs it to the horizon, so all of them execute the same loop.
//! [`OnlineEngine::run_driven_resumable`] adds the crash-recovery hooks:
//! boundary snapshots out, and a resume from one in.
//!
//! **Cost model.** The candidate pool lives in an incremental per-resource
//! index (`engine::index`): entries are inserted once when their window
//! opens and removed at the exact transition that kills them (capture,
//! expiry, shed, parent resolution, cancellation), expiries visit only the
//! windows closing at the current chronon, and the default
//! [`SelectionStrategy::Incremental`] selects through engine-owned heaps,
//! O(log pool) per pick. Per-chronon index and selection work is
//! proportional to the work actually done that chronon — insertions,
//! probes, captures, expiries — not to the size of the whole pool or
//! profile, except for scoring: a policy whose scores read the chronon's
//! context ([`ScoreDynamics::Reseeded`](crate::policy::ScoreDynamics))
//! has its live pool scored once per chronon, while a state-keyed one
//! (MRSF) keeps its heaps across chronons and scores only new windows and
//! the siblings of captures. [`SelectionStrategy::Scan`], an O(pool) scan
//! per probe, is the reference every identity test compares `Incremental`
//! against.
//!
//! **Parallelism.** The loop is serial: one run is one thread. Parallel
//! speedup comes from running independent runs — repetitions, grid
//! points, policies — on the [`crate::parallel`] worker pool, whose one
//! knob is `--jobs`.
//!
//! **Mutation.** The profile set is *not* frozen at `run()`:
//! [`OnlineEngine::run_driven`] drains a [`MutationSource`] at each chronon
//! start — mid-run CEI registration (release chronon = now), cancellation
//! of live CEIs, and budget reconfiguration — emitting typed
//! [`crate::obs::Event`]s for each drained mutation so churned runs stay
//! replayable byte-for-byte. A prerecorded [`MutationQueue`] drives it
//! through [`ScriptedMutations::compile`]; an empty queue compiles to an
//! inactive source, bit-identical to a run without mutations. Registration
//! costs O(own EIs) because open windows insert directly into the
//! per-resource index and future windows ride the prebuilt `starts[t]`
//! buckets.

mod index;
mod mutation;
mod runner;

pub use mutation::{Mutation, MutationQueue, MutationSource, ScriptedMutations};
pub(crate) use runner::Status;
pub use runner::{EngineConfig, OnlineEngine, RunInputs, RunResult, SelectionStrategy};
