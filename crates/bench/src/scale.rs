//! `exp_scale` — the engine scaling benchmark and the repo's perf baseline.
//!
//! Not a paper artifact: the paper stops at §V-D's per-EI runtime table.
//! This experiment starts the repo's *performance trajectory* toward the
//! ROADMAP's production-scale north star. It sweeps instance size — |P|
//! (profiles), EIs/CEI (rank), horizon, and budget — across policies ×
//! P/NP, runs every cell under each
//! [`SelectionStrategy`](webmon_core::SelectionStrategy), and reports
//! throughput (chronons/sec), wall time, selection steps, and peak pool
//! size per cell from the [`RunMetrics`](webmon_core::obs::RunMetrics)
//! machinery. It also prints the per-candidate policy cost `τ(Φ)`
//! ([`policy_cost_table`]), a report-only wall-clock table.
//!
//! The committed artifact is `BENCH_engine.json` at the repo root (the
//! [`BenchReport`] schema below, documented in EXPERIMENTS.md). The CI
//! `bench-smoke` job re-runs the quick grid and fails when
//!
//! * any **deterministic** counter drifts (chronons, probes, selection
//!   steps, peak pool size — these are machine-independent and must match
//!   the baseline exactly), or
//! * the `Incremental`-over-`Scan` **speedup** of any cell regresses by
//!   more than 20% relative to the baseline's speedup for that cell.
//!   Comparing the self-normalized ratio — both strategies measured in the
//!   same process seconds apart — keeps the gate meaningful across
//!   machines of different absolute speed, or
//! * the churn ladder's deterministic counters drift, or its
//!   churned-over-static throughput ratio regresses by more than 20%.
//!
//! Re-baselining is deliberate: regenerate with
//! `cargo run --release -p webmon-bench --bin exp_scale -- --quick --out BENCH_engine.json`
//! and commit the diff (CI's escape hatch is the `[rebench]` commit-message
//! tag; see `.github/workflows/ci.yml`).

use crate::Scale;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;
use webmon_core::model::{Ei, ResourceId};
use webmon_core::policy::{
    Candidate, CeiView, MEdf, Mrsf, Policy, PolicyContext, ResourceStats, SEdf, Wic,
};
use webmon_sim::parallel::serial;
use webmon_sim::{
    ChurnSpec, Experiment, ExperimentConfig, PolicyKind, PolicySpec, Table, TraceSpec,
};
use webmon_workload::{ChurnConfig, EiLength, RankSpec, WorkloadConfig};

/// Relative speedup regression the CI gate tolerates (20%).
pub const SPEEDUP_TOLERANCE: f64 = 0.20;

/// One grid point: the instance dimensions under sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellDims {
    /// Number of profiles |P| (`m`).
    pub profiles: u32,
    /// EIs per CEI (fixed rank `k`).
    pub rank: u16,
    /// Epoch length `K` in chronons.
    pub horizon: u32,
    /// Per-chronon probe budget `C`.
    pub budget: u32,
}

impl CellDims {
    fn label(&self) -> String {
        format!(
            "m{}·k{}·K{}·C{}",
            self.profiles, self.rank, self.horizon, self.budget
        )
    }

    fn config(&self, scale: Scale) -> ExperimentConfig {
        ExperimentConfig {
            n_resources: 300,
            horizon: self.horizon,
            budget: self.budget,
            workload: WorkloadConfig {
                n_profiles: self.profiles,
                rank: RankSpec::Fixed(self.rank),
                resource_alpha: 0.3,
                // Long windows keep many EIs live per chronon, which is
                // exactly the regime where per-phase pool rebuilds hurt.
                length: EiLength::Window(20),
                distinct_resources: true,
                max_ceis: None,
                no_intra_resource_overlap: false,
            },
            trace: TraceSpec::Poisson { lambda: 20.0 },
            noise: None,
            repetitions: match scale {
                Scale::Quick => 5,
                Scale::Paper => 7,
            },
            seed: 0x5CA1E,
        }
    }
}

/// The swept grid: a |P| ladder at the base shape, then one cell per other
/// dimension (rank, horizon, budget) moved off the base — small enough for
/// the CI smoke job at `Quick`, wide enough at `Paper` to show the
/// O(active work) separation on large instances.
pub fn grid(scale: Scale) -> Vec<CellDims> {
    let base = CellDims {
        profiles: 150,
        rank: 3,
        horizon: 300,
        budget: 2,
    };
    match scale {
        Scale::Quick => vec![
            base,
            CellDims {
                profiles: 600,
                ..base
            },
            CellDims {
                profiles: 600,
                budget: 8,
                ..base
            },
        ],
        Scale::Paper => vec![
            base,
            CellDims {
                profiles: 600,
                ..base
            },
            CellDims {
                profiles: 2400,
                ..base
            },
            CellDims { rank: 6, ..base },
            CellDims {
                horizon: 1000,
                ..base
            },
            CellDims { budget: 8, ..base },
        ],
    }
}

/// The policy × mode roster each cell runs under.
pub fn roster(scale: Scale) -> Vec<PolicySpec> {
    match scale {
        Scale::Quick => vec![
            PolicySpec::np(PolicyKind::SEdf),
            PolicySpec::p(PolicyKind::Mrsf),
        ],
        Scale::Paper => vec![
            PolicySpec::np(PolicyKind::SEdf),
            PolicySpec::p(PolicyKind::SEdf),
            PolicySpec::np(PolicyKind::Mrsf),
            PolicySpec::p(PolicyKind::Mrsf),
            PolicySpec::p(PolicyKind::MEdf),
        ],
    }
}

/// One (cell × policy × strategy) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StrategyMeasure {
    /// `"scan"` or `"incremental"`.
    pub strategy: String,
    /// Engine wall time summed over repetitions, seconds.
    pub wall_secs: f64,
    /// Median per-repetition `chronons / runtime` (the headline
    /// throughput). Median-of-reps rather than total-over-total, so one
    /// scheduler-perturbed repetition cannot skew the reported number.
    pub chronons_per_sec: f64,
    /// Deterministic: chronons summed over repetitions.
    pub chronons: u64,
    /// Deterministic: probes issued summed over repetitions.
    pub probes_issued: u64,
    /// Deterministic: selection steps summed over repetitions.
    pub selection_steps: u64,
    /// Deterministic: peak candidate-pool size over all repetitions.
    pub peak_pool: u64,
}

/// The churn ladder: the |P| ladder of the main grid rerun under a fixed
/// churn overlay. At a fixed arrival/cancel *rate* the per-registration
/// cost is O(own EIs), so the churned-over-static throughput ratio must
/// stay flat as |P| grows — the property the `churn` section of
/// `BENCH_engine.json` pins.
pub fn churn_grid(scale: Scale) -> Vec<CellDims> {
    let base = CellDims {
        profiles: 150,
        rank: 3,
        horizon: 300,
        budget: 2,
    };
    match scale {
        Scale::Quick => vec![
            base,
            CellDims {
                profiles: 600,
                ..base
            },
        ],
        Scale::Paper => vec![
            base,
            CellDims {
                profiles: 600,
                ..base
            },
            CellDims {
                profiles: 2400,
                ..base
            },
        ],
    }
}

/// The fixed churn overlay of the `churn_grid` cells: 30% of CEIs arrive
/// mid-run, 20% are cancelled, mildly skewed toward popular resources.
pub fn churn_scenario() -> ChurnSpec {
    ChurnSpec {
        config: ChurnConfig::new(0.3, 0.2).with_alpha(0.3),
        seed: 0xC0DE,
    }
}

/// One churn-ladder measurement: a cell of `churn_grid` run with and
/// without the fixed churn overlay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnCellReport {
    /// The swept dimensions.
    pub dims: CellDims,
    /// Roster label of the measured policy.
    pub label: String,
    /// Deterministic: mid-run registrations summed over repetitions.
    pub ceis_registered: u64,
    /// Deterministic: mid-run cancellations summed over repetitions.
    pub ceis_cancelled: u64,
    /// Deterministic: chronons summed over repetitions (churned run).
    pub chronons: u64,
    /// Deterministic: probes issued summed over repetitions (churned run).
    pub probes_issued: u64,
    /// Median per-repetition churned throughput, chronons/sec.
    pub churned_chronons_per_sec: f64,
    /// Median per-repetition static throughput, chronons/sec.
    pub static_chronons_per_sec: f64,
    /// Median paired ratio `churned throughput / static throughput`
    /// (repetition `i` of both variants runs the identical workload).
    /// Near 1.0, and — the O(own EIs) registration property — flat in |P|.
    pub overhead: f64,
}

/// One grid cell: dimensions, workload size, and per-policy measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellReport {
    /// The swept dimensions.
    pub dims: CellDims,
    /// Mean CEIs per repetition.
    pub ceis: f64,
    /// Mean EIs per repetition.
    pub eis: f64,
    /// Per-policy measurements; each holds one entry per strategy.
    pub policies: Vec<PolicyCell>,
}

/// One policy column inside a cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyCell {
    /// Roster label, e.g. `"MRSF(P)"`.
    pub label: String,
    /// One measurement per strategy, in [`strategies`] order.
    pub strategies: Vec<StrategyMeasure>,
    /// Median over repetitions of the paired per-repetition ratio
    /// `incremental throughput / scan throughput` (repetition `i` of both
    /// strategies runs the identical workload).
    pub speedup_vs_scan: f64,
}

/// The `BENCH_engine.json` artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema tag for forward compatibility.
    pub schema: String,
    /// `"Quick"` or `"Paper"`.
    pub scale: String,
    /// Repetitions summed into each measurement.
    pub repetitions: u32,
    /// One report per grid cell, in grid order.
    pub cells: Vec<CellReport>,
    /// The churn ladder ([`churn_grid`] under [`churn_scenario`]), in grid
    /// order. `Option` so pre-churn baselines (no `churn` field) still
    /// parse — they fail the gate's shape check, prompting a re-baseline.
    pub churn: Option<Vec<ChurnCellReport>>,
}

impl BenchReport {
    /// The churn ladder, empty for pre-churn baselines.
    pub fn churn_cells(&self) -> &[ChurnCellReport] {
        self.churn.as_deref().unwrap_or(&[])
    }
}

/// The schema tag of [`BenchReport`]; a baseline with another tag fails
/// the gate, prompting a re-baseline.
pub const SCHEMA: &str = "webmon-bench-engine/v2";

/// The benchmarked strategies, in report order. `Scan` is the O(|pool|)
/// reference, `Incremental` the default.
pub fn strategies() -> [(&'static str, webmon_core::SelectionStrategy); 2] {
    use webmon_core::SelectionStrategy;
    [
        ("scan", SelectionStrategy::Scan),
        ("incremental", SelectionStrategy::Incremental),
    ]
}

/// Median of a slice (empty → NaN). Used for the paired speedup ratios:
/// robust to the single-repetition wall-clock outliers that a mean or a
/// best-of would pass straight into the CI gate.
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Selection steps summed over an aggregate's repetitions — run telemetry
/// ([`webmon_core::RunResult::selection_steps`]), deterministic for a given
/// strategy and different between strategies.
fn selection_steps(agg: &webmon_sim::PolicyAggregate) -> u64 {
    agg.repetitions.iter().map(|r| r.selection_steps).sum()
}

/// Measurement passes per strategy. The passes interleave the strategies
/// (scan, incremental, scan, …) so slow temporal drift — CPU
/// frequency scaling, co-tenant load on shared runners — hits all
/// strategies alike and cancels out of the paired speedup ratios.
const PASSES: usize = 3;

fn measure(exp: &Experiment, spec: PolicySpec) -> PolicyCell {
    let strats = strategies();
    // rep_tp[s] = per-(pass, repetition) throughput for strategy `s`, in
    // identical (pass, rep) order across strategies: entry `j` of any two
    // strategies ran the same workload moments apart, so their ratio is a
    // paired sample with workload variance and temporal drift cancelled.
    let mut rep_tp: Vec<Vec<f64>> = vec![Vec::new(); strats.len()];
    let mut wall: Vec<f64> = vec![0.0; strats.len()];
    let mut last: Vec<Option<(u64, webmon_core::obs::RunMetrics)>> = vec![None; strats.len()];
    for _pass in 0..PASSES {
        for (si, &(_, strategy)) in strats.iter().enumerate() {
            let agg = exp.run_spec_configured(spec, spec.engine_config().with_selection(strategy));
            for r in &agg.repetitions {
                let secs = r.runtime.as_secs_f64();
                wall[si] += secs;
                rep_tp[si].push(if secs > 0.0 {
                    r.metrics.chronons as f64 / secs
                } else {
                    f64::INFINITY
                });
            }
            last[si] = Some((selection_steps(&agg), agg.metrics));
        }
    }
    let measures: Vec<StrategyMeasure> = strats
        .iter()
        .enumerate()
        .map(|(si, &(name, _))| {
            let (steps, m) = last[si].take().expect("measured above");
            StrategyMeasure {
                strategy: name.to_string(),
                wall_secs: wall[si],
                chronons_per_sec: median(&mut rep_tp[si].clone()),
                chronons: m.chronons,
                probes_issued: m.probes_issued,
                selection_steps: steps,
                peak_pool: m.candidate_set.max,
            }
        })
        .collect();
    // strategies() order: scan, incremental.
    let mut ratios: Vec<f64> = rep_tp[1]
        .iter()
        .zip(&rep_tp[0])
        .map(|(i, s)| i / s)
        .collect();
    PolicyCell {
        label: spec.label(),
        speedup_vs_scan: median(&mut ratios),
        strategies: measures,
    }
}

/// Measures one churn-ladder cell: the same materialized workloads run
/// with and without the fixed churn overlay, passes interleaved so
/// temporal drift cancels out of the paired overhead ratio.
fn measure_churn(scale: Scale, dims: CellDims) -> ChurnCellReport {
    let churn = churn_scenario();
    let spec = PolicySpec::p(PolicyKind::Mrsf);
    let exp = Experiment::materialize(dims.config(scale));
    let mut churned_tp: Vec<f64> = Vec::new();
    let mut static_tp: Vec<f64> = Vec::new();
    let mut churned_metrics = None;
    for _pass in 0..PASSES {
        let churned = exp.run_spec_churned(spec, churn);
        let stat = exp.run_spec(spec);
        for r in &churned.repetitions {
            let secs = r.runtime.as_secs_f64();
            churned_tp.push(if secs > 0.0 {
                r.metrics.chronons as f64 / secs
            } else {
                f64::INFINITY
            });
        }
        for r in &stat.repetitions {
            let secs = r.runtime.as_secs_f64();
            static_tp.push(if secs > 0.0 {
                r.metrics.chronons as f64 / secs
            } else {
                f64::INFINITY
            });
        }
        churned_metrics = Some(churned.metrics);
    }
    let m = churned_metrics.expect("at least one pass");
    let mut ratios: Vec<f64> = churned_tp
        .iter()
        .zip(&static_tp)
        .map(|(c, s)| c / s)
        .collect();
    ChurnCellReport {
        dims,
        label: spec.label(),
        ceis_registered: m.ceis_registered,
        ceis_cancelled: m.ceis_cancelled,
        chronons: m.chronons,
        probes_issued: m.probes_issued,
        churned_chronons_per_sec: median(&mut churned_tp.clone()),
        static_chronons_per_sec: median(&mut static_tp.clone()),
        overhead: median(&mut ratios),
    }
}

/// Runs the scaling grid. Wall-clock measurements, so the whole sweep is
/// pinned to one worker ([`webmon_sim::parallel::serial`]).
pub fn collect(scale: Scale) -> BenchReport {
    collect_grid(scale, &grid(scale), &roster(scale), &churn_grid(scale))
}

/// Runs an explicit grid/roster (the `--profiles`/`--ranks`/… CLI
/// overrides funnel through here). `churn_cells` is the churn ladder to
/// append (pass `&[]` to skip it).
pub fn collect_grid(
    scale: Scale,
    cells: &[CellDims],
    specs: &[PolicySpec],
    churn_cells: &[CellDims],
) -> BenchReport {
    serial(|| {
        let mut reports = Vec::with_capacity(cells.len());
        let mut repetitions = 0;
        for dims in cells {
            let cfg = dims.config(scale);
            repetitions = cfg.repetitions;
            let exp = Experiment::materialize(cfg);
            let (ceis, eis) = exp.mean_sizes();
            reports.push(CellReport {
                dims: *dims,
                ceis,
                eis,
                policies: specs.iter().map(|&s| measure(&exp, s)).collect(),
            });
        }
        let churn = Some(
            churn_cells
                .iter()
                .map(|&dims| measure_churn(scale, dims))
                .collect(),
        );
        BenchReport {
            schema: SCHEMA.to_string(),
            scale: format!("{scale:?}"),
            repetitions,
            cells: reports,
            churn,
        }
    })
}

impl BenchReport {
    /// The artifact as pretty-printed JSON (plus trailing newline, so the
    /// committed file is POSIX-clean).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("BenchReport serializes");
        s.push('\n');
        s
    }

    /// Parses a committed baseline.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Gate violations of `self` (a fresh run) against `baseline` (the
    /// committed artifact): deterministic counters must match exactly;
    /// per-cell `Incremental`-over-`Scan` speedups may not regress more
    /// than [`SPEEDUP_TOLERANCE`] relative to the baseline. Schema and
    /// grid-shape drift are reported rather than ignored, so a stale
    /// baseline fails loudly instead of vacuously passing.
    pub fn violations_against(&self, baseline: &BenchReport) -> Vec<String> {
        let mut out = Vec::new();
        if self.schema != baseline.schema {
            out.push(format!(
                "schema changed: {} vs baseline {} — re-baseline BENCH_engine.json",
                self.schema, baseline.schema
            ));
            return out;
        }
        if self.cells.len() != baseline.cells.len() {
            out.push(format!(
                "grid shape changed: {} cells vs baseline {} — re-baseline BENCH_engine.json",
                self.cells.len(),
                baseline.cells.len()
            ));
            return out;
        }
        for (cell, base) in self.cells.iter().zip(&baseline.cells) {
            let where_ = cell.dims.label();
            if cell.dims != base.dims {
                out.push(format!(
                    "{where_}: dims differ from baseline {} — re-baseline",
                    base.dims.label()
                ));
                continue;
            }
            for (p, bp) in cell.policies.iter().zip(&base.policies) {
                if p.label != bp.label {
                    out.push(format!(
                        "{where_}: roster drift {} vs baseline {} — re-baseline",
                        p.label, bp.label
                    ));
                    continue;
                }
                for (m, bm) in p.strategies.iter().zip(&bp.strategies) {
                    let tag = format!("{where_} {} {}", p.label, m.strategy);
                    for (name, got, want) in [
                        ("chronons", m.chronons, bm.chronons),
                        ("probes_issued", m.probes_issued, bm.probes_issued),
                        ("selection_steps", m.selection_steps, bm.selection_steps),
                        ("peak_pool", m.peak_pool, bm.peak_pool),
                    ] {
                        if got != want {
                            out.push(format!(
                                "{tag}: deterministic counter {name} drifted: {got} vs baseline \
                                 {want}"
                            ));
                        }
                    }
                }
                let floor = bp.speedup_vs_scan * (1.0 - SPEEDUP_TOLERANCE);
                if p.speedup_vs_scan < floor {
                    out.push(format!(
                        "{where_} {}: incremental speedup over scan regressed: {:.2}x vs \
                         baseline {:.2}x (floor {:.2}x)",
                        p.label, p.speedup_vs_scan, bp.speedup_vs_scan, floor
                    ));
                }
            }
        }
        if self.churn_cells().len() != baseline.churn_cells().len() {
            out.push(format!(
                "churn ladder shape changed: {} cells vs baseline {} — re-baseline \
                 BENCH_engine.json",
                self.churn_cells().len(),
                baseline.churn_cells().len()
            ));
            return out;
        }
        for (cell, base) in self.churn_cells().iter().zip(baseline.churn_cells()) {
            let where_ = format!("churn {}", cell.dims.label());
            if cell.dims != base.dims {
                out.push(format!(
                    "{where_}: dims differ from baseline churn {} — re-baseline",
                    base.dims.label()
                ));
                continue;
            }
            for (name, got, want) in [
                (
                    "ceis_registered",
                    cell.ceis_registered,
                    base.ceis_registered,
                ),
                ("ceis_cancelled", cell.ceis_cancelled, base.ceis_cancelled),
                ("chronons", cell.chronons, base.chronons),
                ("probes_issued", cell.probes_issued, base.probes_issued),
            ] {
                if got != want {
                    out.push(format!(
                        "{where_}: deterministic counter {name} drifted: {got} vs baseline {want}"
                    ));
                }
            }
            // The O(own EIs) registration gate: the churned-over-static
            // throughput ratio of this cell may not fall more than the
            // tolerance below the baseline's — registration cost creeping
            // up with pool size shows up here first.
            let floor = base.overhead * (1.0 - SPEEDUP_TOLERANCE);
            if cell.overhead < floor {
                out.push(format!(
                    "{where_}: churn overhead regressed: {:.2}x vs baseline {:.2}x (floor \
                     {:.2}x)",
                    cell.overhead, base.overhead, floor
                ));
            }
        }
        out
    }

    /// Human-readable table of the report, for `exp_scale` stdout and the
    /// `experiments` suite.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::with_headers(
            "exp_scale — engine throughput by instance size (chronons/sec; sweep pinned to one \
             worker)",
            &["cell · policy", "EIs", "scan", "incremental", "vs scan"],
        );
        for cell in &self.cells {
            for p in &cell.policies {
                let col = |name: &str| {
                    p.strategies
                        .iter()
                        .find(|m| m.strategy == name)
                        .map_or(f64::NAN, |m| m.chronons_per_sec)
                };
                t.push_numeric_row(
                    format!("{} {}", cell.dims.label(), p.label),
                    &[cell.eis, col("scan"), col("incremental"), p.speedup_vs_scan],
                    2,
                );
            }
        }
        if self.churn_cells().is_empty() {
            return vec![t];
        }
        let mut c = Table::with_headers(
            "exp_scale — churn ladder (fixed arrival/cancel rates; overhead = churned/static \
             throughput, flat in |P| iff registration is O(own EIs))",
            &[
                "cell · policy",
                "registered",
                "cancelled",
                "static c/s",
                "churned c/s",
                "overhead",
            ],
        );
        for cell in self.churn_cells() {
            c.push_numeric_row(
                format!("{} {}", cell.dims.label(), cell.label),
                &[
                    cell.ceis_registered as f64,
                    cell.ceis_cancelled as f64,
                    cell.static_chronons_per_sec,
                    cell.churned_chronons_per_sec,
                    cell.overhead,
                ],
                2,
            );
        }
        vec![t, c]
    }
}

/// Nanoseconds per [`Policy::score`] call on the first EI of a rank-`k`
/// CEI with staggered windows: the median of five timed batches.
fn ns_per_score(policy: &dyn Policy, k: usize) -> f64 {
    const CALLS: u32 = 200_000;
    let eis: Vec<Ei> = (0..k as u32)
        .map(|i| Ei::new(ResourceId(i), 10 * i, 10 * i + 8))
        .collect();
    let captured = vec![false; k];
    let active = vec![1u32; k];
    let updates = vec![false; k];
    let ctx = PolicyContext {
        now: 3,
        resources: ResourceStats {
            active_eis: &active,
            has_update: &updates,
        },
    };
    let cand = Candidate {
        ei: eis[0],
        ei_index: 0,
        cei: CeiView {
            eis: &eis,
            captured: &captured,
            n_captured: 0,
            required: k as u16,
            weight: 1.0,
            profile_rank: k as u16,
        },
    };
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                black_box(policy.score(&ctx, black_box(&cand)));
            }
            start.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    median(&mut batches)
}

/// The per-candidate policy cost `τ(Φ)` of Appendix B (S-EDF and MRSF are
/// `Θ(1)`, M-EDF is `O(k)` in the rank), in nanoseconds per score at rank
/// 1, 5 and 20. Report-only: a wall-clock table, never gated and not part
/// of `BENCH_engine.json`.
pub fn policy_cost_table() -> Table {
    let wic = Wic::paper();
    let mut t = Table::with_headers(
        "exp_scale — policy cost τ(Φ) (ns per score)",
        &["policy", "k=1", "k=5", "k=20"],
    );
    for policy in [&SEdf as &dyn Policy, &Mrsf, &MEdf, &wic] {
        let row: Vec<f64> = [1, 5, 20].map(|k| ns_per_score(policy, k)).to_vec();
        t.push_numeric_row(policy.name(), &row, 1);
    }
    t
}

/// `experiments`-suite entry point: run the grid and render the table.
pub fn run(scale: Scale) -> Vec<Table> {
    collect(scale).tables()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchReport {
        // One micro-cell so the unit tests stay fast; the full grid runs in
        // the exp_scale binary / CI smoke job.
        let dims = CellDims {
            profiles: 30,
            rank: 2,
            horizon: 80,
            budget: 2,
        };
        collect_grid(
            Scale::Quick,
            &[dims],
            &[PolicySpec::p(PolicyKind::Mrsf)],
            &[dims],
        )
    }

    #[test]
    fn report_roundtrips_and_counters_are_strategy_invariant() {
        let report = tiny();
        let json = report.to_json();
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.schema, SCHEMA);
        let p = &report.cells[0].policies[0];
        assert_eq!(p.strategies.len(), 2);
        // Bit-identity makes every deterministic counter agree across
        // strategies except selection_steps, a property of each
        // strategy's data structure (one step per argmin call under Scan,
        // one per pop under the incremental queues).
        let (s, i) = (&p.strategies[0], &p.strategies[1]);
        assert_eq!(s.chronons, i.chronons);
        assert_eq!(s.probes_issued, i.probes_issued);
        assert_eq!(s.peak_pool, i.peak_pool);
        assert!(i.chronons > 0 && i.wall_secs > 0.0);
    }

    #[test]
    fn gate_passes_against_itself_and_catches_drift() {
        let report = tiny();
        assert_eq!(report.violations_against(&report), Vec::<String>::new());

        let mut drifted = report.clone();
        drifted.cells[0].policies[0].strategies[1].selection_steps += 1;
        let v = report.violations_against(&drifted);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("selection_steps"), "{v:?}");

        let mut slower = report.clone();
        slower.cells[0].policies[0].speedup_vs_scan /= 2.0;
        let v = slower.violations_against(&report);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("regressed"), "{v:?}");

        let mut reshaped = report.clone();
        reshaped.cells.clear();
        let v = reshaped.violations_against(&report);
        assert!(v[0].contains("re-baseline"), "{v:?}");

        let mut old = report.clone();
        old.schema = "webmon-bench-engine/v1".to_string();
        let v = report.violations_against(&old);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("schema changed"), "{v:?}");
    }

    #[test]
    fn churn_ladder_is_measured_and_gated() {
        let report = tiny();
        assert_eq!(report.churn_cells().len(), 1);
        let c = &report.churn_cells()[0];
        assert!(c.ceis_registered > 0, "churn overlay registered nothing");
        assert!(c.ceis_cancelled > 0, "churn overlay cancelled nothing");
        assert!(c.overhead.is_finite() && c.overhead > 0.0);

        // A pre-churn baseline (no churn section) fails the shape check.
        let mut stale = report.clone();
        stale.churn = None;
        let v = report.violations_against(&stale);
        assert!(v.iter().any(|m| m.contains("churn ladder shape")), "{v:?}");

        // Deterministic churn counters are gated exactly.
        let mut drifted = report.clone();
        drifted.churn.as_mut().unwrap()[0].ceis_registered += 1;
        let v = drifted.violations_against(&report);
        assert!(v.iter().any(|m| m.contains("ceis_registered")), "{v:?}");

        // Overhead regressions beyond tolerance are gated.
        let mut slower = report.clone();
        slower.churn.as_mut().unwrap()[0].overhead *= 1.0 - SPEEDUP_TOLERANCE - 0.05;
        let v = slower.violations_against(&report);
        assert!(v.iter().any(|m| m.contains("churn overhead")), "{v:?}");
    }

    #[test]
    fn churn_section_survives_json_and_renders_a_table() {
        let report = tiny();
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.churn_cells().len(), 1);
        assert_eq!(report.tables().len(), 2);
        // Pre-churn baselines (no `churn` field) still parse.
        let pre =
            r#"{"schema":"webmon-bench-engine/v1","scale":"Quick","repetitions":1,"cells":[]}"#;
        let pre = BenchReport::from_json(pre).unwrap();
        assert!(pre.churn_cells().is_empty());
    }
}
