//! The engine scaling benchmark: sweeps instance size × policies ×
//! selection strategies, prints the throughput tables and the policy-cost
//! `τ(Φ)` table, and (optionally) writes or checks the `BENCH_engine.json`
//! perf baseline.
//!
//! ```text
//! exp_scale [--quick] [--out PATH] [--check PATH]
//!           [--profiles A,B,..] [--ranks A,B,..] [--horizons A,B,..] [--budgets A,B,..]
//! ```
//!
//! * `--out PATH` — write the fresh report to `PATH` (re-baselining).
//! * `--check PATH` — gate the fresh report against the baseline at `PATH`;
//!   exits 1 listing the violations if deterministic counters drifted or an
//!   incremental-over-scan speedup regressed by more than 20%.
//! * `--profiles`/`--ranks`/`--horizons`/`--budgets` — override one grid
//!   axis with an explicit comma-separated ladder; unlisted axes stay at
//!   the default grid's base point. Using any override replaces the whole
//!   default grid with the cross product of the given ladders.

use std::process::ExitCode;
use webmon_bench::scale::{churn_grid, grid, policy_cost_table, roster, BenchReport, CellDims};
use webmon_bench::Scale;

fn ladder<T: std::str::FromStr + Copy>(args: &[String], key: &str, base: T) -> (Vec<T>, bool) {
    let Some(raw) = args
        .iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
    else {
        return (vec![base], false);
    };
    let parsed: Vec<T> = raw.split(',').filter_map(|v| v.parse().ok()).collect();
    if parsed.is_empty() {
        eprintln!("warning: no valid values in `{key} {raw}`; using the default grid axis");
        (vec![base], false)
    } else {
        (parsed, true)
    }
}

fn path_arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();

    let base = CellDims {
        profiles: 150,
        rank: 3,
        horizon: 300,
        budget: 2,
    };
    let (profiles, p) = ladder(&args, "--profiles", base.profiles);
    let (ranks, r) = ladder(&args, "--ranks", base.rank);
    let (horizons, h) = ladder(&args, "--horizons", base.horizon);
    let (budgets, b) = ladder(&args, "--budgets", base.budget);

    let overridden = p || r || h || b;
    let cells: Vec<CellDims> = if overridden {
        let mut cells = Vec::new();
        for &profiles in &profiles {
            for &rank in &ranks {
                for &horizon in &horizons {
                    for &budget in &budgets {
                        cells.push(CellDims {
                            profiles,
                            rank,
                            horizon,
                            budget,
                        });
                    }
                }
            }
        }
        cells
    } else {
        grid(scale)
    };
    // Axis overrides replace the whole grid, so the default churn ladder
    // would not match any baseline made from them — skip it.
    let churn_cells = if overridden {
        Vec::new()
    } else {
        churn_grid(scale)
    };

    let report = webmon_bench::scale::collect_grid(scale, &cells, &roster(scale), &churn_cells);
    webmon_bench::print_tables(&report.tables());
    webmon_bench::print_tables(&[policy_cost_table()]);

    if let Some(path) = path_arg(&args, "--out") {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if let Some(path) = path_arg(&args, "--check") {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => match BenchReport::from_json(&s) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: {path} is not a BenchReport: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let violations = report.violations_against(&baseline);
        if violations.is_empty() {
            println!("bench gate: OK ({} cells vs {path})", report.cells.len());
        } else {
            eprintln!("bench gate: {} violation(s) vs {path}:", violations.len());
            for v in &violations {
                eprintln!("  - {v}");
            }
            eprintln!(
                "(if this change is an accepted perf shift, re-baseline with \
                 `exp_scale --quick --out {path}` and commit the diff)"
            );
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}
