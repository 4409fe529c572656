//! The webmon benchmark: one command runs a workload for a fixed time,
//! checks the program's outputs, and prints one JSON line of metrics.
//!
//! ```text
//! perfbench --workload <engine-overload|engine-churn-faults|serve-live>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics — times at the reference host
//! speed (see `calibrate`) — and `--trace 1` the per-layer metrics as
//! measured (and writes the run's spans). The exit code is 0 only when every
//! output check passed. See `README.md` for the workloads and metrics.

mod calibrate;
mod engine;
mod layers;
mod metrics;
mod report;
mod serve;
mod setup;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed when `--seed` is absent (`webmon run`'s default).
const DEFAULT_SEED: u64 = 1234;

/// Measured seconds when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, Clone, Copy)]
pub enum Workload {
    EngineOverload,
    EngineChurnFaults,
    ServeLive,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::EngineOverload,
        Workload::EngineChurnFaults,
        Workload::ServeLive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineOverload => "engine-overload",
            Workload::EngineChurnFaults => "engine-churn-faults",
            Workload::ServeLive => "serve-live",
        }
    }
}

#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("{flag} expects a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| {
                                bad("engine-overload, engine-churn-faults or serve-live")
                            })?,
                    );
                }
                "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    };
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }

    /// Where the run writes spans and journals: inside the build directory.
    pub fn out_dir(&self) -> PathBuf {
        std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
            .join("perfbench")
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut host = calibrate::HostSpeed::new();
    let mut report = match args.workload {
        Workload::EngineOverload => engine::run(&engine::OVERLOAD, &args, &mut host),
        Workload::EngineChurnFaults => engine::run(&engine::CHURN_FAULTS, &args, &mut host),
        Workload::ServeLive => serve::run(&args, &mut host),
    };
    let line = report.json();
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
