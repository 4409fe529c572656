#![warn(missing_docs)]

//! # webmon-core
//!
//! A from-scratch Rust implementation of the monitoring model, online
//! scheduling policies, and offline baselines of
//! *Web Monitoring 2.0: Crossing Streams to Satisfy Complex Data Needs*
//! (Roitman, Gal, Raschid — ICDE 2009).
//!
//! ## The problem
//!
//! A proxy monitors `n` pull-only Web resources over an epoch of `K`
//! *chronons* (indivisible time units) on behalf of many clients. Each client
//! registers a [`model::Profile`]: a set of *complex execution
//! intervals* ([`model::Cei`]). A CEI crosses several streams: it is a
//! bag of simple *execution intervals* ([`model::Ei`]), each a time
//! window on one resource during which that resource must be probed at least
//! once. A CEI is **captured** only when *all* of its EIs are captured (AND
//! semantics). At every chronon the proxy may probe at most `C_j` resources
//! (the [`model::Budget`]); the goal is to maximize *gained
//! completeness* — the fraction of CEIs captured (Problem 1, Eq. 1).
//!
//! ## What this crate provides
//!
//! * [`model`] — chronons, resources, EIs, CEIs, profiles, budgets,
//!   schedules, and the capture / completeness arithmetic of Section III.
//! * [`policy`] — the three heuristic levels of Section IV-A:
//!   individual-EI level ([`policy::SEdf`], [`policy::Wic`]), rank level
//!   ([`policy::Mrsf`]), and multi-EI level ([`policy::MEdf`]), plus
//!   [`policy::RandomPolicy`] / [`policy::RoundRobin`] controls.
//! * [`engine`] — Algorithm 1 (online complex monitoring) with preemptive
//!   and non-preemptive execution, intra-resource probe sharing, candidate
//!   expiry, and per-run statistics.
//! * [`offline`] — the offline baselines of Section IV-B: exact optimum by
//!   bounded enumeration (Prop. 4), the `P → P^[1]` transformation
//!   (Prop. 5), and the Local-Ratio t-interval approximation (\[11\]).
//! * [`diagnostics`] — post-hoc schedule analysis: probe load, capture
//!   latency, and textual timelines.
//! * [`obs`] — live engine observability: typed events emitted from inside
//!   the run loop, zero-cost when disabled, with shipped metrics and JSONL
//!   trace observers.
//! * [`check`] — the conformance harness's invariant checker: an observer
//!   that mirrors the engine from its event stream alone and reports any
//!   divergence from the model's invariants as structured violations.
//! * [`fault`] — seeded, deterministic fault injection: i.i.d. probe
//!   failures, Gilbert–Elliott bursty outages, and rate-limit windows,
//!   threaded through [`engine::OnlineEngine::run_driven`] with retry /
//!   backoff handling and graceful shedding of provably-doomed CEIs.
//! * [`serve`] — serving-mode adapters: clocks mapping chronons onto wall
//!   (or test-controlled) time, pluggable probe executors (live TCP and
//!   deterministic replay), and the chronon driver binding both to the
//!   engine loop — the daemon runs the exact simulator engine.
//!
//! ## Quick start
//!
//! ```
//! use webmon_core::model::{Budget, InstanceBuilder};
//! use webmon_core::engine::{EngineConfig, OnlineEngine};
//! use webmon_core::policy::MEdf;
//!
//! // Two resources, a 10-chronon epoch, budget of one probe per chronon.
//! let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
//! let p = b.profile();
//! // A rank-2 CEI crossing both resources on overlapping windows.
//! b.cei(p, &[(0, 1, 4), (1, 2, 6)]);
//! let instance = b.build();
//!
//! let result = OnlineEngine::run(&instance, &MEdf, EngineConfig::preemptive());
//! assert_eq!(result.stats.ceis_captured, 1);
//! assert!((result.stats.completeness() - 1.0).abs() < 1e-9);
//! ```

pub mod check;
pub mod diagnostics;
pub mod engine;
pub mod fault;
pub mod model;
pub mod obs;
pub mod offline;
pub mod parallel;
pub mod policy;
pub mod serve;
pub mod stats;

pub use check::{InvariantObserver, InvariantReport, Violation};
pub use engine::{EngineConfig, OnlineEngine, RunResult, SelectionStrategy};
pub use fault::{Backoff, FaultConfig, FaultModel, GilbertElliott, IidFaults, NoFaults, RateLimit};
pub use model::{
    Budget, Cei, CeiId, Chronon, Ei, Instance, InstanceBuilder, Profile, ProfileId, ResourceId,
    Schedule,
};
pub use obs::{Event, JsonlTraceObserver, MetricsObserver, NoopObserver, Observer, RunMetrics};
pub use policy::{MEdf, Mrsf, Policy, SEdf, Wic};
pub use stats::RunStats;
