//! Serving-mode building blocks: clocks, probe executors, and the engine
//! adapters that promote the discrete simulator into a long-running monitor.
//!
//! The design premise is that *serving must not fork the engine*. The
//! daemon runs the very same [`OnlineEngine`](crate::engine::OnlineEngine)
//! loop the simulator and conformance corpus exercise; this module only
//! supplies the adapters that bind that loop to real time and a real (or
//! replayed) network:
//!
//! * [`Clock`] decides when each chronon begins — [`WallClock`] for real
//!   deployments, [`ManualClock`] for deterministic tests, [`FreeClock`]
//!   for as-fast-as-possible drains. Pacing happens in the [`Paced`]
//!   observer layer, so it cannot perturb engine output.
//! * Probes resolve through the engine's one probe interface,
//!   [`FaultModel`](crate::fault::FaultModel): a seeded model (or
//!   [`NoFaults`](crate::fault::NoFaults)) for fully offline serving,
//!   [`TcpProbeExecutor`] against live TCP targets with per-probe timeouts.
//! * [`DaemonSource`] is the [`MutationSource`] merging scripted churn and
//!   live registration traffic ([`LiveMutationQueue`]).
//!
//! The daemon composes them into one
//! [`OnlineEngine::run_driven_resumable`](crate::engine::OnlineEngine::run_driven_resumable)
//! call per run, fresh or recovered.
//!
//! **Equivalence contract.** For any clock, a daemon run with a
//! deterministic fault model is byte-identical — schedule, stats,
//! `RunMetrics`, JSONL trace bytes — to the simulator's
//! [`OnlineEngine::run_driven`](crate::engine::OnlineEngine::run_driven)
//! on the same model and churn script: [`Paced`] only delays events, an
//! empty [`DaemonSource`] matches a run without mutations, and one carrying
//! a compiled churn script matches that script. Every invariant the
//! conformance harness checks therefore transfers to serving mode for
//! free; `tests/tests/serve.rs` and CI's `serve-smoke` job enforce it.
//!
//! **Durability.** [`journal`] append-logs everything nondeterministic a
//! driven run consumes (event frames, live mutations) plus periodic
//! binary-encoded [`EngineSnapshot`]s into a checksummed record log, and rebuilds a
//! [`Recovery`] plan from it after a crash. Because a replayed run is a
//! pure function of its journaled inputs, a daemon SIGKILLed at any chronon
//! and recovered produces the same bytes an uninterrupted run would — the
//! kill-resume identity `tests/tests/recovery.rs` pins.
//!
//! [`MutationSource`]: crate::engine::MutationSource

mod clock;
mod driver;
mod executor;
mod fingerprint;
pub mod journal;
pub mod snapshot;

pub use clock::{Clock, ClockRelease, FreeClock, ManualClock, ManualHandle, WallClock};
pub use driver::{DaemonSource, LiveMutationQueue, Paced};
pub use executor::{ProbeExecutor, ReplayExecutor, TcpProbeExecutor};
pub use fingerprint::session_fingerprint;
pub(crate) use fingerprint::Fingerprint;
pub use journal::{
    FsyncPolicy, JournalConfig, JournalError, JournalFaults, JournalMutations, JournalWriter,
    Recovery,
};
pub use snapshot::{
    CaptureAt, CeiState, EngineSnapshot, NoSnapshots, SnapshotDecodeError, SnapshotImage,
    SnapshotMismatch, SnapshotSink,
};
