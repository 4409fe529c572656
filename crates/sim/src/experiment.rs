//! Materializing problem instances and running policy rosters over them.

use crate::churn::ChurnSpec;
use crate::config::{ExperimentConfig, TraceSpec};
use crate::faults::FaultSpec;
use crate::parallel::par_map;
use crate::policies::PolicySpec;
use crate::summary::Summary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use webmon_core::engine::OnlineEngine;
use webmon_core::model::{evaluate_schedule, Budget, Cei, CeiId, Instance, Profile, ProfileId};
use webmon_core::obs::{JsonlTraceObserver, MetricsObserver, RunMetrics};
use webmon_core::offline::{local_ratio_schedule, ExpansionError, LocalRatioConfig};
use webmon_core::policy::SEdf;
use webmon_core::stats::RunStats;
use webmon_streams::fpn::NoisyTrace;
use webmon_streams::rng::SimRng;
use webmon_workload::{generate, generate_spec, GeneratedWorkload, SpecError, WorkloadSpec};

/// One repetition's measurements for one policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepetitionOutcome {
    /// Stats validated against the ground-truth instance.
    pub stats: RunStats,
    /// In-run metrics from the engine's event stream (empty, with
    /// `runs == 0`, for offline baselines that never run the engine).
    /// The runtime below includes the metric observer's bookkeeping —
    /// counter arithmetic plus the engine's fan-out pre-counts.
    pub metrics: RunMetrics,
    /// Wall-clock runtime of the scheduling run.
    pub runtime: Duration,
    /// Total EIs in the instance (the paper's runtime normalizer).
    pub n_eis: usize,
    /// Selection-step telemetry of the run
    /// ([`RunResult::selection_steps`](webmon_core::RunResult::selection_steps);
    /// 0 for offline baselines).
    #[serde(default)]
    pub selection_steps: u64,
}

impl RepetitionOutcome {
    /// Runtime per EI in microseconds — the unit of Figure 11 (the paper
    /// reports msec/EI; Rust runs ~100× faster than the 2009 JVM setup).
    pub fn micros_per_ei(&self) -> f64 {
        if self.n_eis == 0 {
            0.0
        } else {
            self.runtime.as_secs_f64() * 1e6 / self.n_eis as f64
        }
    }
}

/// Aggregated (mean ± std over repetitions) results of one policy column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyAggregate {
    /// Column label, e.g. `"MRSF(P)"`.
    pub label: String,
    /// Gained completeness (Eq. 1) vs ground truth.
    pub completeness: Summary,
    /// EI-level completeness (captured EIs / all EIs).
    pub ei_completeness: Summary,
    /// Runtime per EI, microseconds.
    pub micros_per_ei: Summary,
    /// Fraction of the probe budget spent.
    pub budget_utilization: Summary,
    /// Completeness by CEI size (rank), for per-rank breakdowns.
    pub by_size: BTreeMap<u16, Summary>,
    /// Per-repetition engine metrics merged **in repetition order**, so the
    /// aggregate is bit-identical for every `--jobs` value (the PR-1
    /// determinism contract extends to `RunMetrics`).
    pub metrics: RunMetrics,
    /// Raw per-repetition outcomes.
    pub repetitions: Vec<RepetitionOutcome>,
}

impl PolicyAggregate {
    fn from_outcomes(label: String, outcomes: Vec<RepetitionOutcome>) -> Self {
        let completeness = Summary::from_samples(&collect(&outcomes, |o| o.stats.completeness()));
        let ei_completeness =
            Summary::from_samples(&collect(&outcomes, |o| o.stats.ei_completeness()));
        let micros_per_ei =
            Summary::from_samples(&collect(&outcomes, RepetitionOutcome::micros_per_ei));
        let budget_utilization =
            Summary::from_samples(&collect(&outcomes, |o| o.stats.budget_utilization()));

        let mut sizes: Vec<u16> = outcomes
            .iter()
            .flat_map(|o| o.stats.by_size.keys().copied())
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        let by_size = sizes
            .into_iter()
            .map(|s| {
                let samples: Vec<f64> = outcomes
                    .iter()
                    .filter_map(|o| o.stats.completeness_for_size(s))
                    .collect();
                (s, Summary::from_samples(&samples))
            })
            .collect();

        let metrics = RunMetrics::merged(outcomes.iter().map(|o| &o.metrics));

        PolicyAggregate {
            label,
            completeness,
            ei_completeness,
            micros_per_ei,
            budget_utilization,
            by_size,
            metrics,
            repetitions: outcomes,
        }
    }
}

fn collect(outcomes: &[RepetitionOutcome], f: impl Fn(&RepetitionOutcome) -> f64) -> Vec<f64> {
    outcomes.iter().map(f).collect()
}

/// A materialized experiment: the same seeded problem instances are reused
/// for every policy and for the offline baseline, exactly as the paper runs
/// online and offline "on the same problem instances".
pub struct Experiment {
    config: ExperimentConfig,
    workloads: Vec<GeneratedWorkload>,
}

impl Experiment {
    /// Generates `config.repetitions` seeded workloads.
    ///
    /// Repetitions materialize in parallel (see [`crate::parallel`]); each
    /// one forks its RNG from the master seed by repetition index, so the
    /// workloads are identical regardless of worker count or run order.
    pub fn materialize(config: ExperimentConfig) -> Self {
        let master = SimRng::new(config.seed);
        let workloads = par_map((0..config.repetitions).collect(), |_, rep| {
            let rep_rng = master.fork_indexed("repetition", u64::from(rep));
            let trace =
                config
                    .trace
                    .generate(config.n_resources, config.horizon, &rep_rng.fork("trace"));
            let noisy = match &config.noise {
                Some(spec) => spec.apply(&trace, &rep_rng.fork("noise")),
                None => NoisyTrace::exact(&trace),
            };
            generate(
                &config.workload,
                &noisy,
                Budget::Uniform(config.budget),
                &rep_rng.fork("workload"),
            )
        });
        Experiment { config, workloads }
    }

    /// Materializes a declarative [`WorkloadSpec`] — the v2 entry point.
    ///
    /// The fork discipline is identical to [`Self::materialize`]
    /// (`("repetition", i)` → `"trace"` → `"workload"`), so a spec whose
    /// update model is Poisson and whose placement is `Uniform`/`Zipfian`
    /// with no hot class reproduces the legacy path byte-identically. The
    /// spec path carries no noise model (`noise: None`): noisy prediction
    /// studies stay on [`ExperimentConfig`].
    ///
    /// Fails (instead of panicking) when the spec does not validate.
    pub fn materialize_spec(spec: &WorkloadSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        let trace_spec = TraceSpec::from_update_model(&spec.updates);
        let master = SimRng::new(spec.seed);
        let spec = *spec;
        let results = par_map((0..spec.repetitions).collect(), |_, rep| {
            let rep_rng = master.fork_indexed("repetition", u64::from(rep));
            let trace = trace_spec.generate(spec.resources, spec.horizon, &rep_rng.fork("trace"));
            let noisy = NoisyTrace::exact(&trace);
            generate_spec(
                &spec,
                &noisy,
                Budget::Uniform(spec.budget),
                &rep_rng.fork("workload"),
            )
        });
        let mut workloads = Vec::with_capacity(results.len());
        for r in results {
            workloads.push(r?);
        }
        let config = ExperimentConfig {
            n_resources: spec.resources,
            horizon: spec.horizon,
            budget: spec.budget,
            workload: spec.legacy_config(),
            trace: trace_spec,
            noise: None,
            repetitions: spec.repetitions,
            seed: spec.seed,
        };
        Ok(Experiment { config, workloads })
    }

    /// The experiment's configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The materialized per-repetition workloads.
    pub fn workloads(&self) -> &[GeneratedWorkload] {
        &self.workloads
    }

    /// Mean CEI / EI counts across repetitions (reported in figure
    /// captions, e.g. "1590 CEIs and 3599 EIs").
    pub fn mean_sizes(&self) -> (f64, f64) {
        let n = self.workloads.len().max(1) as f64;
        let ceis: usize = self.workloads.iter().map(GeneratedWorkload::n_ceis).sum();
        let eis: usize = self.workloads.iter().map(GeneratedWorkload::n_eis).sum();
        (ceis as f64 / n, eis as f64 / n)
    }

    /// Runs one policy spec over every repetition (in parallel; see
    /// [`crate::parallel`]).
    ///
    /// Each repetition gets a *fresh* policy seeded by repetition index.
    /// A shared policy would be fine for the stateless paper policies, but
    /// `Random` draws from internal state, so sharing one instance across
    /// repetitions would make each repetition's draws depend on how many
    /// draws its predecessors made — and, under parallelism, on worker
    /// interleaving. Per-repetition seeding makes every repetition's result
    /// a pure function of `(config, spec, rep)`, so `--jobs N` is
    /// bit-identical to `--jobs 1`.
    pub fn run_spec(&self, spec: PolicySpec) -> PolicyAggregate {
        self.run_spec_configured(spec, spec.engine_config())
    }

    /// Like [`Self::run_spec`] with an explicit [`EngineConfig`] instead of
    /// the spec's default — the hook the scaling bench and the selection
    /// ablations use to pin a [`SelectionStrategy`] (or toggle probe
    /// sharing) while keeping the P/NP mode, labeling, and per-repetition
    /// policy seeding of the spec.
    ///
    /// `config.preemptive` should agree with `spec.preemptive`; the engine
    /// runs whatever `config` says, but the column label comes from `spec`.
    ///
    /// [`EngineConfig`]: webmon_core::EngineConfig
    /// [`SelectionStrategy`]: webmon_core::SelectionStrategy
    pub fn run_spec_configured(
        &self,
        spec: PolicySpec,
        engine_config: webmon_core::EngineConfig,
    ) -> PolicyAggregate {
        let noisy = self.config.noise.is_some();
        let outcomes = par_map(self.workloads.iter().collect(), |rep, w| {
            let policy = spec.kind.build(self.config.seed.wrapping_add(rep as u64));
            let mut observer = MetricsObserver::new();
            let start = Instant::now();
            let result = OnlineEngine::run_observed(
                &w.instance,
                policy.as_ref(),
                engine_config,
                &mut observer,
            );
            let runtime = start.elapsed();
            let stats = if noisy {
                evaluate_schedule(&w.truth, &result.schedule)
            } else {
                result.stats
            };
            RepetitionOutcome {
                stats,
                metrics: observer.finish(),
                runtime,
                n_eis: w.n_eis(),
                selection_steps: result.selection_steps,
            }
        });
        PolicyAggregate::from_outcomes(spec.label(), outcomes)
    }

    /// Like [`Self::run_spec`], under an injected fault scenario: each
    /// repetition builds a fresh fault model from `fault` (seed forked by
    /// repetition index) and drives
    /// [`OnlineEngine::run_faulted`] instead of the fault-free path.
    ///
    /// Determinism carries over: the outcome is a pure function of
    /// `(config, spec, fault, rep)`, so `--jobs N` stays bit-identical to
    /// `--jobs 1`, and a spec whose model never fails reproduces
    /// [`Self::run_spec`] exactly.
    pub fn run_spec_faulted(&self, spec: PolicySpec, fault: FaultSpec) -> PolicyAggregate {
        let noisy = self.config.noise.is_some();
        let outcomes = par_map(self.workloads.iter().collect(), |rep, w| {
            let policy = spec.kind.build(self.config.seed.wrapping_add(rep as u64));
            let mut model = fault.build(rep as u64, w.instance.n_resources as usize);
            let mut observer = MetricsObserver::new();
            let start = Instant::now();
            let result = OnlineEngine::run_faulted(
                &w.instance,
                policy.as_ref(),
                spec.engine_config(),
                &mut model,
                fault.config,
                &mut observer,
            );
            let runtime = start.elapsed();
            let stats = if noisy {
                evaluate_schedule(&w.truth, &result.schedule)
            } else {
                result.stats
            };
            RepetitionOutcome {
                stats,
                metrics: observer.finish(),
                runtime,
                n_eis: w.n_eis(),
                selection_steps: result.selection_steps,
            }
        });
        PolicyAggregate::from_outcomes(spec.label(), outcomes)
    }

    /// Like [`Self::run_spec`], under a churn scenario: each repetition
    /// builds a fresh [`MutationQueue`](webmon_core::engine::MutationQueue)
    /// from `churn` (seed forked by repetition index) and drives
    /// [`OnlineEngine::run_mutated`] — mid-run registrations, cancellations,
    /// and budget reconfigurations — instead of the static-profile path.
    ///
    /// Determinism carries over: the outcome is a pure function of
    /// `(config, spec, churn, rep)`, so `--jobs N` stays bit-identical to
    /// `--jobs 1`, and a quiescent spec (both rates zero, no
    /// reconfigurations) reproduces [`Self::run_spec`] exactly.
    pub fn run_spec_churned(&self, spec: PolicySpec, churn: ChurnSpec) -> PolicyAggregate {
        self.run_spec_churned_faulted(spec, churn, None)
    }

    /// The fully general online run: churn overlay plus an optional fault
    /// scenario on the same materialized repetitions. `fault: None` is the
    /// fault-free churned run of [`Self::run_spec_churned`].
    pub fn run_spec_churned_faulted(
        &self,
        spec: PolicySpec,
        churn: ChurnSpec,
        fault: Option<FaultSpec>,
    ) -> PolicyAggregate {
        let noisy = self.config.noise.is_some();
        let outcomes = par_map(self.workloads.iter().collect(), |rep, w| {
            let policy = spec.kind.build(self.config.seed.wrapping_add(rep as u64));
            let mutations = churn.build(rep as u64, &w.instance);
            let mut observer = MetricsObserver::new();
            let start = Instant::now();
            let result = match fault {
                Some(f) => {
                    let mut model = f.build(rep as u64, w.instance.n_resources as usize);
                    OnlineEngine::run_mutated(
                        &w.instance,
                        policy.as_ref(),
                        spec.engine_config(),
                        &mut model,
                        f.config,
                        &mutations,
                        &mut observer,
                    )
                }
                None => OnlineEngine::run_mutated(
                    &w.instance,
                    policy.as_ref(),
                    spec.engine_config(),
                    &mut webmon_core::fault::NoFaults,
                    webmon_core::fault::FaultConfig::default(),
                    &mutations,
                    &mut observer,
                ),
            };
            let runtime = start.elapsed();
            let stats = if noisy {
                evaluate_schedule(&w.truth, &result.schedule)
            } else {
                result.stats
            };
            RepetitionOutcome {
                stats,
                metrics: observer.finish(),
                runtime,
                n_eis: w.n_eis(),
                selection_steps: result.selection_steps,
            }
        });
        PolicyAggregate::from_outcomes(spec.label(), outcomes)
    }

    /// Runs a roster of policy specs under one churn scenario (and an
    /// optional fault scenario).
    pub fn run_roster_churned(
        &self,
        specs: &[PolicySpec],
        churn: ChurnSpec,
        fault: Option<FaultSpec>,
    ) -> Vec<PolicyAggregate> {
        par_map(specs.to_vec(), |_, s| {
            self.run_spec_churned_faulted(s, churn, fault)
        })
    }

    /// Runs a roster of policy specs under one fault scenario.
    pub fn run_roster_faulted(
        &self,
        specs: &[PolicySpec],
        fault: FaultSpec,
    ) -> Vec<PolicyAggregate> {
        par_map(specs.to_vec(), |_, s| self.run_spec_faulted(s, fault))
    }

    /// The robustness sweep: reruns `specs` at every i.i.d. failure rate in
    /// `rates` (seeded by `fault_seed`, retry behavior from `config`) and
    /// returns one roster of aggregates per rate, in input order.
    ///
    /// The shipped i.i.d. model draws failure sets that are *nested* in the
    /// rate for a fixed seed, so corpus-aggregate completeness is
    /// non-increasing along `rates` — the curve the `exp_faults` bench
    /// plots per policy.
    pub fn robustness_sweep(
        &self,
        specs: &[PolicySpec],
        rates: &[f64],
        fault_seed: u64,
        config: webmon_core::fault::FaultConfig,
    ) -> Vec<(f64, Vec<PolicyAggregate>)> {
        par_map(rates.to_vec(), |_, rate| {
            let fault = FaultSpec::iid(rate, fault_seed).with_config(config);
            (rate, self.run_roster_faulted(specs, fault))
        })
    }

    /// Re-runs one materialized repetition of `spec` under `fault` with a
    /// [`JsonlTraceObserver`], streaming the faulted event stream to
    /// `writer` as JSONL — the trace twin of [`Self::run_spec_faulted`],
    /// byte-replayable through
    /// [`webmon_core::obs::replay_metrics`].
    ///
    /// # Panics
    /// Panics if `rep` is out of range.
    pub fn trace_spec_faulted<W: std::io::Write>(
        &self,
        spec: PolicySpec,
        fault: FaultSpec,
        rep: usize,
        writer: W,
    ) -> std::io::Result<(W, u64)> {
        let w = &self.workloads[rep];
        let policy = spec.kind.build(self.config.seed.wrapping_add(rep as u64));
        let mut model = fault.build(rep as u64, w.instance.n_resources as usize);
        let mut observer = JsonlTraceObserver::new(writer);
        OnlineEngine::run_faulted(
            &w.instance,
            policy.as_ref(),
            spec.engine_config(),
            &mut model,
            fault.config,
            &mut observer,
        );
        let events = observer.events_written();
        Ok((observer.finish()?, events))
    }

    /// Re-runs one materialized repetition of `spec` under the `churn`
    /// overlay (and an optional fault scenario) with a
    /// [`JsonlTraceObserver`], streaming the churned event stream —
    /// including `cei_registered` / `cei_cancelled` / `budget_reconfigured`
    /// records — to `writer` as JSONL. The trace twin of
    /// [`Self::run_spec_churned_faulted`]: the exact run it scores, so
    /// churned traces replay byte-for-byte.
    ///
    /// # Panics
    /// Panics if `rep` is out of range.
    pub fn trace_spec_churned<W: std::io::Write>(
        &self,
        spec: PolicySpec,
        churn: ChurnSpec,
        fault: Option<FaultSpec>,
        rep: usize,
        writer: W,
    ) -> std::io::Result<(W, u64)> {
        let w = &self.workloads[rep];
        let policy = spec.kind.build(self.config.seed.wrapping_add(rep as u64));
        let mutations = churn.build(rep as u64, &w.instance);
        let mut observer = JsonlTraceObserver::new(writer);
        match fault {
            Some(f) => {
                let mut model = f.build(rep as u64, w.instance.n_resources as usize);
                OnlineEngine::run_mutated(
                    &w.instance,
                    policy.as_ref(),
                    spec.engine_config(),
                    &mut model,
                    f.config,
                    &mutations,
                    &mut observer,
                );
            }
            None => {
                OnlineEngine::run_mutated(
                    &w.instance,
                    policy.as_ref(),
                    spec.engine_config(),
                    &mut webmon_core::fault::NoFaults,
                    webmon_core::fault::FaultConfig::default(),
                    &mutations,
                    &mut observer,
                );
            }
        }
        let events = observer.events_written();
        Ok((observer.finish()?, events))
    }

    /// Re-runs one materialized repetition of `spec` with a
    /// [`JsonlTraceObserver`], streaming the engine's full event stream to
    /// `writer` as JSONL. Returns the flushed writer and the number of
    /// events written. The replay is the exact run [`Self::run_spec`]
    /// scores — same workload, same per-repetition policy seed — so the
    /// trace explains the reported numbers.
    ///
    /// # Panics
    /// Panics if `rep` is out of range.
    pub fn trace_spec<W: std::io::Write>(
        &self,
        spec: PolicySpec,
        rep: usize,
        writer: W,
    ) -> std::io::Result<(W, u64)> {
        let w = &self.workloads[rep];
        let policy = spec.kind.build(self.config.seed.wrapping_add(rep as u64));
        let mut observer = JsonlTraceObserver::new(writer);
        OnlineEngine::run_observed(
            &w.instance,
            policy.as_ref(),
            spec.engine_config(),
            &mut observer,
        );
        let events = observer.events_written();
        Ok((observer.finish()?, events))
    }

    /// Runs a roster of policy specs (columns of an experiment table), specs
    /// in parallel; the per-repetition parallelism inside [`Self::run_spec`]
    /// folds inline on each worker, so the total thread count stays capped.
    pub fn run_roster(&self, specs: &[PolicySpec]) -> Vec<PolicyAggregate> {
        par_map(specs.to_vec(), |_, s| self.run_spec(s))
    }

    /// Runs the offline Local-Ratio baseline over every repetition.
    ///
    /// # Panics
    /// Panics on any [`ExpansionError`] — the Prop. 5 expansion exceeded the
    /// configured cap, or a threshold-semantics CEI reached the AND-only
    /// construction. Call sites that must stay alive (CLI, benches) should
    /// use [`Self::try_run_local_ratio`] and surface the diagnostic.
    pub fn run_local_ratio(&self, lr: LocalRatioConfig) -> PolicyAggregate {
        self.try_run_local_ratio(lr)
            .unwrap_or_else(|e| panic!("offline Local-Ratio baseline failed: {e}"))
    }

    /// Fallible twin of [`Self::run_local_ratio`]: returns the first
    /// repetition's [`ExpansionError`] (in repetition order) instead of
    /// panicking when the Prop. 5 expansion is infeasible.
    pub fn try_run_local_ratio(
        &self,
        lr: LocalRatioConfig,
    ) -> Result<PolicyAggregate, ExpansionError> {
        let noisy = self.config.noise.is_some();
        let results = par_map(self.workloads.iter().collect(), |_, w| {
            let start = Instant::now();
            let out = local_ratio_schedule(&w.instance, lr)?;
            let runtime = start.elapsed();
            let stats = if noisy {
                evaluate_schedule(&w.truth, &out.schedule)
            } else {
                out.stats
            };
            Ok(RepetitionOutcome {
                stats,
                metrics: RunMetrics::default(),
                runtime,
                n_eis: w.n_eis(),
                selection_steps: 0,
            })
        });
        let mut outcomes = Vec::with_capacity(results.len());
        for r in results {
            outcomes.push(r?);
        }
        Ok(PolicyAggregate::from_outcomes(
            "Offline-LR".to_string(),
            outcomes,
        ))
    }

    /// The Figure 10 normalizer: the "worst case upper bound on the optimal
    /// completeness", measured "in terms of single EIs that are captured
    /// (i.e., assuming that rank(P) = 1)".
    ///
    /// Every EI of the instance becomes its own rank-1 CEI; S-EDF(P) — which
    /// Prop. 1 proves optimal for rank-1, overlap-free instances — schedules
    /// it. A CEI of size `k` needs `k` EIs, so the per-repetition upper
    /// bound on capturable CEIs is `captured EIs / k̄` with `k̄` the mean CEI
    /// size. Returns per-repetition upper bounds on *completeness*.
    pub fn ei_upper_bounds(&self) -> Vec<f64> {
        par_map(self.workloads.iter().collect(), |_, w| {
            let split = split_to_rank1(&w.instance);
            let result = OnlineEngine::run(&split, &SEdf, webmon_core::EngineConfig::preemptive());
            let captured_eis = result.stats.ceis_captured as f64;
            let n_ceis = w.instance.ceis.len().max(1) as f64;
            let mean_size = w.n_eis() as f64 / n_ceis;
            ((captured_eis / mean_size) / n_ceis).min(1.0)
        })
    }
}

/// Splits an instance so every EI becomes its own rank-1 CEI (used by the
/// Figure 10 upper bound).
fn split_to_rank1(instance: &Instance) -> Instance {
    let mut ceis: Vec<Cei> = Vec::with_capacity(instance.total_eis());
    let mut profile = Profile::new(ProfileId(0));
    for cei in &instance.ceis {
        for &ei in &cei.eis {
            let id = CeiId(ceis.len() as u32);
            ceis.push(Cei::new(id, ProfileId(0), vec![ei]));
            profile.ceis.push(id);
        }
    }
    profile.rank = if ceis.is_empty() { 0 } else { 1 };
    Instance::from_parts(
        instance.n_resources,
        instance.epoch,
        instance.budget.clone(),
        ceis,
        vec![profile],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NoiseSpec, TraceSpec};
    use crate::policies::PolicyKind;
    use webmon_streams::fpn::FpnModel;
    use webmon_workload::churn::ChurnConfig;
    use webmon_workload::{EiLength, RankSpec, WorkloadConfig};

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            n_resources: 40,
            horizon: 200,
            budget: 1,
            workload: WorkloadConfig {
                n_profiles: 10,
                rank: RankSpec::UpTo { k: 3, beta: 0.0 },
                resource_alpha: 0.0,
                length: EiLength::Window(3),
                distinct_resources: true,
                max_ceis: Some(500),
                no_intra_resource_overlap: false,
            },
            trace: TraceSpec::Poisson { lambda: 8.0 },
            noise: None,
            repetitions: 3,
            seed: 99,
        }
    }

    fn tiny_spec() -> WorkloadSpec {
        let cfg = tiny_config();
        WorkloadSpec::from_legacy(
            &cfg.workload,
            cfg.n_resources,
            cfg.horizon,
            cfg.budget,
            8.0,
            cfg.repetitions,
            cfg.seed,
        )
    }

    #[test]
    fn uniform_spec_is_bit_identical_to_the_legacy_path() {
        let legacy = Experiment::materialize(tiny_config());
        let spec = Experiment::materialize_spec(&tiny_spec()).unwrap();
        assert_eq!(legacy.workloads().len(), spec.workloads().len());
        for (a, b) in legacy.workloads().iter().zip(spec.workloads()) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.truth, b.truth);
        }
        // And the runs themselves agree — same schedules, same metrics.
        let pa = legacy.run_spec(PolicySpec::p(PolicyKind::Mrsf));
        let pb = spec.run_spec(PolicySpec::p(PolicyKind::Mrsf));
        for (a, b) in pa.repetitions.iter().zip(&pb.repetitions) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn invalid_spec_is_a_structured_error_not_a_panic() {
        let mut spec = tiny_spec();
        spec.resources = 0;
        let err = match Experiment::materialize_spec(&spec) {
            Ok(_) => panic!("zero-resource spec must not materialize"),
            Err(e) => e,
        };
        assert!(matches!(
            err,
            SpecError::Field {
                field: "resources",
                ..
            }
        ));
    }

    #[test]
    fn bursty_specs_materialize_and_run() {
        use webmon_streams::bursty::{DiurnalConfig, UpdateModel};
        let spec = tiny_spec().with_updates(UpdateModel::Diurnal(DiurnalConfig {
            rate_per_epoch: 8.0,
            period: 50,
            duty: 0.25,
            night_level: 0.0,
        }));
        let exp = Experiment::materialize_spec(&spec).unwrap();
        assert_eq!(exp.workloads().len(), 3);
        let agg = exp.run_spec(PolicySpec::p(PolicyKind::Mrsf));
        assert!(agg.completeness.mean > 0.0 && agg.completeness.mean <= 1.0);
    }

    #[test]
    fn threshold_instances_fail_local_ratio_with_a_structured_error() {
        let mut spec = tiny_spec().with_required_fraction(0.5);
        spec.length = EiLength::Window(0);
        let exp = Experiment::materialize_spec(&spec).unwrap();
        let err = exp
            .try_run_local_ratio(LocalRatioConfig::default())
            .unwrap_err();
        assert!(matches!(
            err,
            webmon_core::offline::ExpansionError::ThresholdSemantics { .. }
        ));
    }

    #[test]
    fn try_run_local_ratio_matches_the_panicking_wrapper() {
        let mut cfg = tiny_config();
        cfg.workload.length = EiLength::Window(0);
        let exp = Experiment::materialize(cfg);
        let a = exp.run_local_ratio(LocalRatioConfig::default());
        let b = exp
            .try_run_local_ratio(LocalRatioConfig::default())
            .unwrap();
        for (x, y) in a.repetitions.iter().zip(&b.repetitions) {
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn materialize_produces_one_workload_per_repetition() {
        let exp = Experiment::materialize(tiny_config());
        assert_eq!(exp.workloads().len(), 3);
        let (ceis, eis) = exp.mean_sizes();
        assert!(ceis > 0.0 && eis >= ceis);
    }

    #[test]
    fn repetitions_differ_but_reruns_match() {
        let a = Experiment::materialize(tiny_config());
        let b = Experiment::materialize(tiny_config());
        assert_eq!(a.workloads()[0].instance, b.workloads()[0].instance);
        assert_ne!(a.workloads()[0].instance, a.workloads()[1].instance);
    }

    #[test]
    fn run_spec_reports_sane_aggregates() {
        let exp = Experiment::materialize(tiny_config());
        let agg = exp.run_spec(PolicySpec::p(PolicyKind::MEdf));
        assert_eq!(agg.label, "M-EDF(P)");
        assert_eq!(agg.repetitions.len(), 3);
        assert!(agg.completeness.mean > 0.0 && agg.completeness.mean <= 1.0);
        assert!(agg.ei_completeness.mean > 0.0 && agg.ei_completeness.mean <= 1.0);
        // Mean EI-completeness is NOT bounded below by mean CEI-completeness
        // (a policy that lands small CEIs can capture half the CEIs with a
        // tenth of the EIs), but per repetition the engine must credit at
        // least `size` EIs for every captured AND-semantics CEI.
        for rep in &agg.repetitions {
            let captured_ei_floor: u64 = rep
                .stats
                .by_size
                .iter()
                .map(|(&size, bucket)| u64::from(size) * bucket.captured)
                .sum();
            assert!(rep.stats.eis_captured >= captured_ei_floor);
        }
        assert!(agg.micros_per_ei.mean > 0.0);
    }

    #[test]
    fn aggregate_metrics_merge_in_repetition_order() {
        let exp = Experiment::materialize(tiny_config());
        let agg = exp.run_spec(PolicySpec::p(PolicyKind::MEdf));
        assert_eq!(agg.metrics.runs, 3);
        let manual = RunMetrics::merged(agg.repetitions.iter().map(|o| &o.metrics));
        assert_eq!(agg.metrics, manual);
        // Noise-free runs score against the engine's own schedule, so the
        // in-run metrics must mirror the post-hoc stats exactly.
        for rep in &agg.repetitions {
            let errs = rep.metrics.consistency_errors(&rep.stats);
            assert!(errs.is_empty(), "metrics drifted from stats: {errs:?}");
        }
    }

    #[test]
    fn offline_baseline_reports_empty_metrics() {
        let mut cfg = tiny_config();
        cfg.workload.length = EiLength::Window(0);
        let exp = Experiment::materialize(cfg);
        let lr = exp.run_local_ratio(LocalRatioConfig::default());
        assert_eq!(lr.metrics.runs, 0);
        assert_eq!(lr.metrics.probes_issued, 0);
    }

    #[test]
    fn rank_policies_beat_random_on_complex_profiles() {
        // A contended setting (many profiles, few resources, tight budget)
        // so policy quality actually matters.
        let mut cfg = tiny_config();
        cfg.n_resources = 20;
        cfg.workload.n_profiles = 40;
        cfg.workload.rank = RankSpec::Fixed(3);
        cfg.trace = TraceSpec::Poisson { lambda: 20.0 };
        let exp = Experiment::materialize(cfg);
        let mrsf = exp.run_spec(PolicySpec::p(PolicyKind::Mrsf));
        let random = exp.run_spec(PolicySpec::p(PolicyKind::Random));
        assert!(
            mrsf.completeness.mean >= random.completeness.mean,
            "MRSF {} < Random {}",
            mrsf.completeness.mean,
            random.completeness.mean
        );
    }

    #[test]
    fn local_ratio_runs_on_unit_instances() {
        let mut cfg = tiny_config();
        cfg.workload.length = EiLength::Window(0);
        let exp = Experiment::materialize(cfg);
        let lr = exp.run_local_ratio(LocalRatioConfig::default());
        assert_eq!(lr.label, "Offline-LR");
        assert!(lr.completeness.mean > 0.0);
    }

    #[test]
    fn upper_bound_dominates_online_policies() {
        let mut cfg = tiny_config();
        cfg.workload.length = EiLength::Window(0);
        cfg.workload.rank = RankSpec::Fixed(2);
        let exp = Experiment::materialize(cfg);
        let bounds = exp.ei_upper_bounds();
        let medf = exp.run_spec(PolicySpec::p(PolicyKind::MEdf));
        for (ub, rep) in bounds.iter().zip(&medf.repetitions) {
            assert!(
                rep.stats.completeness() <= ub + 1e-9,
                "completeness {} exceeds upper bound {ub}",
                rep.stats.completeness()
            );
        }
    }

    #[test]
    fn zero_rate_faults_reproduce_the_fault_free_run() {
        let exp = Experiment::materialize(tiny_config());
        let spec = PolicySpec::p(PolicyKind::Mrsf);
        let base = exp.run_spec(spec);
        let faulted = exp.run_spec_faulted(spec, FaultSpec::iid(0.0, 77));
        for (a, b) in base.repetitions.iter().zip(&faulted.repetitions) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn faulted_runs_lose_budget_and_stay_consistent() {
        let exp = Experiment::materialize(tiny_config());
        let agg = exp.run_spec_faulted(PolicySpec::p(PolicyKind::MEdf), FaultSpec::iid(0.5, 7));
        assert!(agg.metrics.probes_failed > 0);
        assert!(agg.metrics.budget_lost > 0);
        for rep in &agg.repetitions {
            let errs = rep.metrics.consistency_errors(&rep.stats);
            assert!(errs.is_empty(), "metrics drifted from stats: {errs:?}");
        }
    }

    #[test]
    fn robustness_sweep_degrades_completeness_monotonically() {
        let exp = Experiment::materialize(tiny_config());
        let sweep = exp.robustness_sweep(
            &[PolicySpec::p(PolicyKind::MEdf)],
            &[0.0, 0.4, 0.9],
            7,
            webmon_core::fault::FaultConfig::default(),
        );
        let gcs: Vec<f64> = sweep.iter().map(|(_, r)| r[0].completeness.mean).collect();
        assert!(gcs[0] >= gcs[1] && gcs[1] >= gcs[2], "{gcs:?}");
    }

    #[test]
    fn bursty_outages_shed_ceis_under_starved_budget() {
        let mut cfg = tiny_config();
        cfg.trace = TraceSpec::Poisson { lambda: 20.0 };
        let exp = Experiment::materialize(cfg);
        let agg = exp.run_spec_faulted(
            PolicySpec::p(PolicyKind::Mrsf),
            FaultSpec::burst(0.4, 0.2, 11),
        );
        assert!(agg.metrics.resource_outages > 0);
        for rep in &agg.repetitions {
            let errs = rep.metrics.consistency_errors(&rep.stats);
            assert!(errs.is_empty(), "metrics drifted from stats: {errs:?}");
        }
    }

    #[test]
    fn quiescent_churn_reproduces_the_static_run() {
        let exp = Experiment::materialize(tiny_config());
        let spec = PolicySpec::p(PolicyKind::Mrsf);
        let base = exp.run_spec(spec);
        let churned = exp.run_spec_churned(spec, ChurnSpec::new(0.0, 0.0, 123));
        for (a, b) in base.repetitions.iter().zip(&churned.repetitions) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn churned_runs_register_and_cancel_and_stay_consistent() {
        let exp = Experiment::materialize(tiny_config());
        let churn = ChurnSpec::new(0.5, 0.4, 21)
            .with_config(ChurnConfig::new(0.5, 0.4).with_reconfigurations(2));
        let agg = exp.run_spec_churned(PolicySpec::p(PolicyKind::MEdf), churn);
        assert!(agg.metrics.ceis_registered > 0);
        assert!(agg.metrics.ceis_cancelled > 0);
        assert!(agg.metrics.budget_reconfigurations > 0);
        for rep in &agg.repetitions {
            let errs = rep.metrics.consistency_errors(&rep.stats);
            assert!(errs.is_empty(), "metrics drifted from stats: {errs:?}");
        }
    }

    #[test]
    fn churned_faulted_runs_compose_both_overlays() {
        let exp = Experiment::materialize(tiny_config());
        let churn = ChurnSpec::new(0.4, 0.3, 33);
        let agg = exp.run_spec_churned_faulted(
            PolicySpec::p(PolicyKind::MEdf),
            churn,
            Some(FaultSpec::iid(0.4, 7)),
        );
        assert!(agg.metrics.ceis_registered > 0);
        assert!(agg.metrics.probes_failed > 0);
        for rep in &agg.repetitions {
            let errs = rep.metrics.consistency_errors(&rep.stats);
            assert!(errs.is_empty(), "metrics drifted from stats: {errs:?}");
        }
    }

    #[test]
    fn churned_trace_replays_to_the_scored_metrics() {
        let exp = Experiment::materialize(tiny_config());
        let spec = PolicySpec::p(PolicyKind::Mrsf);
        let churn = ChurnSpec::new(0.5, 0.4, 21);
        let agg = exp.run_spec_churned(spec, churn);
        let (buf, events) = exp
            .trace_spec_churned(spec, churn, None, 1, Vec::new())
            .unwrap();
        assert!(events > 0);
        let replayed =
            webmon_core::obs::replay_metrics(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(replayed, agg.repetitions[1].metrics);
    }

    #[test]
    fn noise_lowers_truth_validated_completeness() {
        let clean = Experiment::materialize(tiny_config());
        let mut noisy_cfg = tiny_config();
        noisy_cfg.noise = Some(NoiseSpec::Fpn(FpnModel::new(0.2, 5)));
        let noisy = Experiment::materialize(noisy_cfg);
        let spec = PolicySpec::p(PolicyKind::MEdf);
        let c = clean.run_spec(spec).completeness.mean;
        let n = noisy.run_spec(spec).completeness.mean;
        assert!(n < c, "noisy {n} should be below clean {c}");
    }
}
