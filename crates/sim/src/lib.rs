#![warn(missing_docs)]

//! # webmon-sim
//!
//! The discrete-time simulation driver of the *Web Monitoring 2.0*
//! reproduction — the stand-in for the authors' Java simulation environment
//! (Section V-A.3).
//!
//! An [`experiment::Experiment`] bundles a [`config`] (the
//! controlled parameters of Table I), materializes seeded problem instances
//! — trace → optional FPN noise → profile generation — and runs a roster of
//! [`policies`] (and the offline Local-Ratio baseline) over *the same*
//! instances, exactly as the paper executes online and offline on identical
//! problem instances. Each execution is repeated (paper: 10×) and metrics
//! are averaged:
//!
//! * **completeness** (Eq. 1) validated against the ground-truth instance
//!   (identical to the scheduled instance when there is no noise);
//! * **runtime** normalized over the total number of EIs (the paper's
//!   msec/EI metric);
//! * probe-budget utilization and per-rank completeness breakdowns.
//!
//! [`table`] renders experiment output as aligned text / Markdown tables so
//! each `webmon-bench` experiment prints the rows of its paper figure.
//!
//! [`faults`] adds serializable fault scenarios on top: the same
//! materialized instances can be rerun under seeded probe failures,
//! bursty outages, or rate limits (the `faults` of a [`CellSpec`], and
//! [`Experiment::robustness_sweep`]) to measure how gained completeness
//! degrades when probes are lost.
//!
//! [`churn`] does the same for profile churn: a [`churn::ChurnSpec`]
//! overlays each materialized repetition with a seeded
//! [`MutationQueue`](webmon_core::engine::MutationQueue) of mid-run
//! registrations, cancellations, and budget reconfigurations (the `churn`
//! of a [`CellSpec`]), so the service-style dynamic-profile setting reuses
//! the same instances, policies, and determinism contract. One
//! [`Experiment::run_cell`] scores any combination, and
//! [`Experiment::trace_cell`] traces it.
//!
//! [`skew`] names the skewed-workload experiment cells — temporal
//! burstiness ladders ([`burst_ladder`]) and placement-skew grids
//! ([`placement_grid`]) — which [`Experiment::materialize_spec`] turns into
//! materialized experiments from a declarative
//! [`WorkloadSpec`](webmon_workload::WorkloadSpec).

pub mod churn;
pub mod config;
pub mod experiment;
pub mod faults;
pub mod policies;
pub mod report;
pub mod skew;
pub mod summary;
pub mod table;

pub use webmon_core::parallel;

pub use churn::ChurnSpec;
pub use config::{ExperimentConfig, NoiseSpec, TraceSpec};
pub use experiment::{CellSpec, Experiment, PolicyAggregate, RepetitionOutcome};
pub use faults::{BuiltFault, FaultKind, FaultSpec};
pub use policies::{PolicyKind, PolicySpec};
pub use report::Report;
pub use skew::{alpha_ladder, burst_ladder, placement_grid, BurstCell, PlacementCell};
pub use summary::Summary;
pub use table::Table;
