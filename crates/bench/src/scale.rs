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
//! machinery.
//!
//! The committed artifact is `BENCH_engine.json` at the repo root (the
//! [`BenchReport`] schema below, documented in EXPERIMENTS.md). The CI
//! `bench-smoke` job re-runs the quick grid and fails when
//!
//! * any **deterministic** counter drifts (chronons, probes, selection
//!   steps, peak pool size — these are machine-independent and must match
//!   the baseline exactly), or
//! * the `Incremental`-over-`LazyHeap` **speedup** of any cell regresses
//!   by more than 20% relative to the baseline's speedup for that cell.
//!   Comparing the self-normalized ratio — both strategies measured in the
//!   same process seconds apart — keeps the gate meaningful across
//!   machines of different absolute speed, or
//! * the **sharded ladder** ([`shard_grid`] at [`shard_counts`]) breaks:
//!   a deterministic counter at any shard count diverging from the serial
//!   row is a bit-identity break (gated against the fresh run itself), and
//!   the max-shards-over-serial throughput ratio gets the same 20%
//!   self-normalized tolerance as the strategy speedups.
//!
//! Re-baselining is deliberate: regenerate with
//! `cargo run --release -p webmon-bench --bin exp_scale -- --quick --out BENCH_engine.json`
//! and commit the diff (CI's escape hatch is the `[rebench]` commit-message
//! tag; see `.github/workflows/ci.yml`).

use crate::Scale;
use serde::{Deserialize, Serialize};
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
    /// `"scan"`, `"lazy-heap"`, or `"incremental"`.
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

/// Shard counts of the sharded ladder, ascending; the first entry is the
/// serial baseline and the last is the headline parallel configuration.
pub fn shard_counts() -> [u32; 3] {
    [1, 2, 4]
}

/// The sharded ladder: one large cell (Quick: ~10⁵ CEIs; Paper adds a
/// ~4×10⁵-CEI cell) rerun at each shard count. Sharding only pays above
/// the engine's threaded-dispatch threshold, so the ladder uses a cell an
/// order of magnitude beyond the main grid — the regime of the ROADMAP's
/// production-scale north star.
pub fn shard_grid(scale: Scale) -> Vec<CellDims> {
    let base = CellDims {
        profiles: 5500,
        rank: 3,
        horizon: 300,
        budget: 2,
    };
    match scale {
        Scale::Quick => vec![base],
        Scale::Paper => vec![
            base,
            CellDims {
                profiles: 22_000,
                ..base
            },
        ],
    }
}

/// One (cell × shard count) measurement of the sharded ladder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardMeasure {
    /// Shard count of this measurement (`1` = the serial engine).
    pub shards: u32,
    /// Engine wall time summed over repetitions, seconds.
    pub wall_secs: f64,
    /// Median per-repetition `chronons / runtime`.
    pub chronons_per_sec: f64,
    /// Deterministic: chronons summed over repetitions. Bit-identity makes
    /// every deterministic counter equal across shard counts — the gate
    /// checks that within each fresh report *and* against the baseline.
    pub chronons: u64,
    /// Deterministic: probes issued summed over repetitions.
    pub probes_issued: u64,
    /// Deterministic: selection steps summed over repetitions.
    pub selection_steps: u64,
    /// Deterministic: peak candidate-pool size over all repetitions.
    pub peak_pool: u64,
}

/// One sharded-ladder cell: the same large instance at every shard count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardCellReport {
    /// The swept dimensions.
    pub dims: CellDims,
    /// Roster label of the measured policy.
    pub label: String,
    /// Mean CEIs per repetition.
    pub ceis: f64,
    /// Mean EIs per repetition.
    pub eis: f64,
    /// One measurement per shard count, in [`shard_counts`] order.
    pub shards: Vec<ShardMeasure>,
    /// Median paired per-repetition ratio `throughput at max shards /
    /// throughput at 1 shard` (repetition `i` of both runs the identical
    /// workload moments apart, so drift cancels).
    pub speedup: f64,
}

/// Measures one sharded-ladder cell: the same materialized workloads run
/// at each shard count, passes interleaved so temporal drift cancels out
/// of the paired speedup ratio. Repetitions are reduced relative to the
/// main grid — the cell is an order of magnitude larger.
fn measure_shards(scale: Scale, dims: CellDims) -> ShardCellReport {
    let spec = PolicySpec::p(PolicyKind::Mrsf);
    let mut cfg = dims.config(scale);
    cfg.repetitions = match scale {
        Scale::Quick => 2,
        Scale::Paper => 3,
    };
    let exp = Experiment::materialize(cfg);
    let (ceis, eis) = exp.mean_sizes();
    let counts = shard_counts();
    let mut rep_tp: Vec<Vec<f64>> = vec![Vec::new(); counts.len()];
    let mut wall: Vec<f64> = vec![0.0; counts.len()];
    let mut last: Vec<Option<(u64, webmon_core::obs::RunMetrics)>> = vec![None; counts.len()];
    for _pass in 0..PASSES {
        for (si, &n) in counts.iter().enumerate() {
            let agg = exp.run_spec_configured(spec, spec.engine_config().with_shards(n));
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
    let shards: Vec<ShardMeasure> = counts
        .iter()
        .enumerate()
        .map(|(si, &n)| {
            let (steps, m) = last[si].take().expect("measured above");
            ShardMeasure {
                shards: n,
                wall_secs: wall[si],
                chronons_per_sec: median(&mut rep_tp[si].clone()),
                chronons: m.chronons,
                probes_issued: m.probes_issued,
                selection_steps: steps,
                peak_pool: m.candidate_set.max,
            }
        })
        .collect();
    let mut ratios: Vec<f64> = rep_tp[counts.len() - 1]
        .iter()
        .zip(&rep_tp[0])
        .map(|(p, s)| p / s)
        .collect();
    ShardCellReport {
        dims,
        label: spec.label(),
        ceis,
        eis,
        shards,
        speedup: median(&mut ratios),
    }
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
    /// `incremental throughput / lazy-heap throughput` (repetition `i` of
    /// both strategies runs the identical workload).
    pub speedup_vs_lazy_heap: f64,
    /// Median paired ratio `incremental throughput / scan throughput`.
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
    /// The sharded ladder ([`shard_grid`] at [`shard_counts`]), in grid
    /// order. `Option` so pre-shard baselines still parse — they fail the
    /// gate's shape check, prompting a re-baseline.
    pub shard: Option<Vec<ShardCellReport>>,
}

impl BenchReport {
    /// The churn ladder, empty for pre-churn baselines.
    pub fn churn_cells(&self) -> &[ChurnCellReport] {
        self.churn.as_deref().unwrap_or(&[])
    }

    /// The sharded ladder, empty for pre-shard baselines.
    pub fn shard_cells(&self) -> &[ShardCellReport] {
        self.shard.as_deref().unwrap_or(&[])
    }
}

/// The benchmarked strategies, in report order. `Scan` is the O(|pool|)
/// reference, `LazyHeap` the pre-refactor per-phase heap rebuild,
/// `Incremental` the engine-owned index (the default).
pub fn strategies() -> [(&'static str, webmon_core::SelectionStrategy); 3] {
    use webmon_core::SelectionStrategy;
    [
        ("scan", SelectionStrategy::Scan),
        ("lazy-heap", SelectionStrategy::LazyHeap),
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
/// strategy, shard-count invariant, and different between strategies.
fn selection_steps(agg: &webmon_sim::PolicyAggregate) -> u64 {
    agg.repetitions.iter().map(|r| r.selection_steps).sum()
}

/// Measurement passes per strategy. The passes interleave the strategies
/// (scan, lazy-heap, incremental, scan, …) so slow temporal drift — CPU
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
    let paired_speedup = |reference: usize| {
        let inc = &rep_tp[2]; // strategies() order: scan, lazy-heap, incremental
        let mut ratios: Vec<f64> = inc
            .iter()
            .zip(&rep_tp[reference])
            .map(|(i, r)| i / r)
            .collect();
        median(&mut ratios)
    };
    PolicyCell {
        label: spec.label(),
        speedup_vs_lazy_heap: paired_speedup(1),
        speedup_vs_scan: paired_speedup(0),
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
/// pinned to one worker ([`webmon_sim::parallel::serial`]). The sharded
/// ladder still parallelizes *inside* the engine: shard dispatch rides
/// [`webmon_sim::parallel::par_map_with`], which ignores `serial` scopes —
/// repetitions stay serial while each run fans out per shard.
pub fn collect(scale: Scale) -> BenchReport {
    collect_grid(
        scale,
        &grid(scale),
        &roster(scale),
        &churn_grid(scale),
        &shard_grid(scale),
    )
}

/// Runs an explicit grid/roster (the `--profiles`/`--ranks`/… CLI
/// overrides funnel through here). `churn_cells` is the churn ladder to
/// append and `shard_cells` the sharded ladder (pass `&[]` to skip
/// either section).
pub fn collect_grid(
    scale: Scale,
    cells: &[CellDims],
    specs: &[PolicySpec],
    churn_cells: &[CellDims],
    shard_cells: &[CellDims],
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
        let shard = Some(
            shard_cells
                .iter()
                .map(|&dims| measure_shards(scale, dims))
                .collect(),
        );
        BenchReport {
            schema: "webmon-bench-engine/v1".to_string(),
            scale: format!("{scale:?}"),
            repetitions,
            cells: reports,
            churn,
            shard,
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
    /// per-cell `Incremental`-over-`LazyHeap` speedups may not regress more
    /// than [`SPEEDUP_TOLERANCE`] relative to the baseline. Grid-shape
    /// drift is reported rather than ignored, so a stale baseline fails
    /// loudly instead of vacuously passing.
    pub fn violations_against(&self, baseline: &BenchReport) -> Vec<String> {
        let mut out = Vec::new();
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
                let floor = bp.speedup_vs_lazy_heap * (1.0 - SPEEDUP_TOLERANCE);
                if p.speedup_vs_lazy_heap < floor {
                    out.push(format!(
                        "{where_} {}: incremental speedup over lazy-heap regressed: {:.2}x vs \
                         baseline {:.2}x (floor {:.2}x)",
                        p.label, p.speedup_vs_lazy_heap, bp.speedup_vs_lazy_heap, floor
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
        if self.shard_cells().len() != baseline.shard_cells().len() {
            out.push(format!(
                "sharded ladder shape changed: {} cells vs baseline {} — re-baseline \
                 BENCH_engine.json",
                self.shard_cells().len(),
                baseline.shard_cells().len()
            ));
            return out;
        }
        for (cell, base) in self.shard_cells().iter().zip(baseline.shard_cells()) {
            let where_ = format!("shard {}", cell.dims.label());
            if cell.dims != base.dims {
                out.push(format!(
                    "{where_}: dims differ from baseline shard {} — re-baseline",
                    base.dims.label()
                ));
                continue;
            }
            // The sharded-vs-serial identity gate inside the bench: every
            // deterministic counter must be identical at every shard count
            // of the *fresh* run (serial is row 0), and identical to the
            // committed baseline.
            let serial_row = &cell.shards[0];
            for m in &cell.shards {
                let tag = format!("{where_} shards={}", m.shards);
                for (name, got, want) in [
                    ("chronons", m.chronons, serial_row.chronons),
                    ("probes_issued", m.probes_issued, serial_row.probes_issued),
                    (
                        "selection_steps",
                        m.selection_steps,
                        serial_row.selection_steps,
                    ),
                    ("peak_pool", m.peak_pool, serial_row.peak_pool),
                ] {
                    if got != want {
                        out.push(format!(
                            "{tag}: deterministic counter {name} diverged from the serial run: \
                             {got} vs {want} — sharded execution broke bit-identity"
                        ));
                    }
                }
            }
            for (m, bm) in cell.shards.iter().zip(&base.shards) {
                let tag = format!("{where_} shards={}", m.shards);
                if m.shards != bm.shards {
                    out.push(format!(
                        "{tag}: shard-count ladder drift vs baseline shards={} — re-baseline",
                        bm.shards
                    ));
                    continue;
                }
                for (name, got, want) in [
                    ("chronons", m.chronons, bm.chronons),
                    ("probes_issued", m.probes_issued, bm.probes_issued),
                    ("selection_steps", m.selection_steps, bm.selection_steps),
                    ("peak_pool", m.peak_pool, bm.peak_pool),
                ] {
                    if got != want {
                        out.push(format!(
                            "{tag}: deterministic counter {name} drifted: {got} vs baseline {want}"
                        ));
                    }
                }
            }
            // Self-normalized scaling gate: the max-shards-over-serial
            // throughput ratio may not fall more than the tolerance below
            // the baseline's ratio for this cell.
            let floor = base.speedup * (1.0 - SPEEDUP_TOLERANCE);
            if cell.speedup < floor {
                out.push(format!(
                    "{where_}: shard speedup regressed: {:.2}x vs baseline {:.2}x (floor {:.2}x)",
                    cell.speedup, base.speedup, floor
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
            &[
                "cell · policy",
                "EIs",
                "scan",
                "lazy-heap",
                "incremental",
                "vs lazy-heap",
                "vs scan",
            ],
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
                    &[
                        cell.eis,
                        col("scan"),
                        col("lazy-heap"),
                        col("incremental"),
                        p.speedup_vs_lazy_heap,
                        p.speedup_vs_scan,
                    ],
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
        if self.shard_cells().is_empty() {
            return vec![t, c];
        }
        let mut s = Table::with_headers(
            "exp_scale — sharded ladder (chronons/sec per shard count on one large cell; \
             identical schedules and traces at every N)",
            &["cell · policy", "CEIs", "shards", "chronons/sec", "speedup"],
        );
        for cell in self.shard_cells() {
            for m in &cell.shards {
                s.push_numeric_row(
                    format!("{} {}", cell.dims.label(), cell.label),
                    &[
                        cell.ceis,
                        f64::from(m.shards),
                        m.chronons_per_sec,
                        if m.shards == cell.shards.last().map_or(0, |l| l.shards) {
                            cell.speedup
                        } else {
                            f64::NAN
                        },
                    ],
                    2,
                );
            }
        }
        vec![t, c, s]
    }
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
            &[dims],
        )
    }

    #[test]
    fn report_roundtrips_and_counters_are_strategy_invariant() {
        let report = tiny();
        let json = report.to_json();
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back.cells.len(), 1);
        let p = &report.cells[0].policies[0];
        assert_eq!(p.strategies.len(), 3);
        // Bit-identity makes every deterministic counter agree across
        // strategies except selection_steps, a property of each
        // strategy's data structure (one step per argmin call under Scan,
        // one per pop under the heap selectors).
        let (s, l, i) = (&p.strategies[0], &p.strategies[1], &p.strategies[2]);
        assert_eq!(l.chronons, i.chronons);
        assert_eq!(l.probes_issued, i.probes_issued);
        assert_eq!(l.peak_pool, i.peak_pool);
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
        drifted.cells[0].policies[0].strategies[2].selection_steps += 1;
        let v = report.violations_against(&drifted);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("selection_steps"), "{v:?}");

        let mut slower = report.clone();
        slower.cells[0].policies[0].speedup_vs_lazy_heap /= 2.0;
        let v = slower.violations_against(&report);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("regressed"), "{v:?}");

        let mut reshaped = report.clone();
        reshaped.cells.clear();
        let v = reshaped.violations_against(&report);
        assert!(v[0].contains("re-baseline"), "{v:?}");
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
        assert_eq!(report.tables().len(), 3);
        // Pre-churn baselines (no `churn` field) still parse.
        let pre =
            r#"{"schema":"webmon-bench-engine/v1","scale":"Quick","repetitions":1,"cells":[]}"#;
        let pre = BenchReport::from_json(pre).unwrap();
        assert!(pre.churn_cells().is_empty());
        // Pre-shard baselines (no `shard` field) parse too, and fail the
        // gate's shape check rather than vacuously passing.
        assert!(pre.shard_cells().is_empty());
    }

    #[test]
    fn shard_ladder_is_measured_and_counters_agree_across_counts() {
        let report = tiny();
        assert_eq!(report.shard_cells().len(), 1);
        let c = &report.shard_cells()[0];
        assert_eq!(c.shards.len(), shard_counts().len());
        let serial_row = &c.shards[0];
        assert_eq!(serial_row.shards, 1);
        assert!(serial_row.chronons > 0 && serial_row.wall_secs > 0.0);
        for m in &c.shards {
            // Bit-identity: every deterministic counter equals the serial
            // run's, at every shard count.
            assert_eq!(m.chronons, serial_row.chronons, "shards={}", m.shards);
            assert_eq!(
                m.probes_issued, serial_row.probes_issued,
                "shards={}",
                m.shards
            );
            assert_eq!(
                m.selection_steps, serial_row.selection_steps,
                "shards={}",
                m.shards
            );
            assert_eq!(m.peak_pool, serial_row.peak_pool, "shards={}", m.shards);
        }
        assert!(c.speedup.is_finite() && c.speedup > 0.0);
    }

    #[test]
    fn shard_ladder_gate_catches_identity_breaks_and_regressions() {
        let report = tiny();
        assert_eq!(report.violations_against(&report), Vec::<String>::new());

        // A pre-shard baseline (no shard section) fails the shape check.
        let mut stale = report.clone();
        stale.shard = None;
        let v = report.violations_against(&stale);
        assert!(
            v.iter().any(|m| m.contains("sharded ladder shape")),
            "{v:?}"
        );

        // A counter diverging from the serial row is an identity break —
        // flagged against the fresh run itself, not just the baseline.
        let mut broken = report.clone();
        broken.shard.as_mut().unwrap()[0].shards[1].probes_issued += 1;
        let v = broken.violations_against(&report);
        assert!(v.iter().any(|m| m.contains("broke bit-identity")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("drifted")), "{v:?}");

        // Scaling regressions beyond tolerance are gated.
        let mut slower = report.clone();
        slower.shard.as_mut().unwrap()[0].speedup *= 1.0 - SPEEDUP_TOLERANCE - 0.05;
        let v = slower.violations_against(&report);
        assert!(v.iter().any(|m| m.contains("shard speedup")), "{v:?}");
    }
}
