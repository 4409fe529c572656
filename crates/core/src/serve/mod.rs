//! Serving-mode building blocks: clocks, probe executors, and the chronon
//! driver that promote the discrete simulator into a long-running monitor.
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
//! * [`ProbeExecutor`] resolves probe attempts — [`TcpProbeExecutor`]
//!   against live TCP targets with per-probe timeouts, [`ReplayExecutor`]
//!   against deterministic scripts for fully offline serving.
//! * [`drive`] composes both with a [`MutationSource`] merging scripted
//!   churn and live registration traffic ([`DaemonSource`],
//!   [`LiveMutationQueue`]) and calls
//!   [`OnlineEngine::run_driven_resumable`](crate::engine::OnlineEngine::run_driven_resumable).
//!
//! **Equivalence contract.** A daemon run with [`ReplayExecutor`] under
//! any clock is byte-identical — schedule, stats, `RunMetrics`, JSONL
//! trace bytes — to the simulator's
//! [`OnlineEngine::run_driven`](crate::engine::OnlineEngine::run_driven)
//! on the same fault model and churn script. Every invariant the
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
pub mod journal;
pub mod snapshot;

pub use clock::{Clock, ClockRelease, FreeClock, ManualClock, ManualHandle, WallClock};
pub use driver::{drive, DaemonSource, LiveMutationQueue, Paced};
pub use executor::{ExecutorModel, ProbeExecutor, ReplayExecutor, TcpProbeExecutor};
pub use journal::{
    FsyncPolicy, JournalConfig, JournalError, JournalExecutor, JournalMutations, JournalWriter,
    Recovery,
};
pub use snapshot::{
    CaptureAt, CeiState, EngineSnapshot, NoSnapshots, SnapshotDecodeError, SnapshotMismatch,
    SnapshotSink,
};
