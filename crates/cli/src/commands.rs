//! CLI subcommand implementations.

use crate::args::{ArgError, Args};
use crate::serve::{Daemon, ServeError, ServeOptions, ServeSession};
use serde::Serialize;
use webmon_core::engine::{MutationQueue, ScriptedMutations};
use webmon_core::fault::{Backoff, FaultConfig};
use webmon_core::obs::RunMetrics;
use webmon_core::serve::{
    Clock, FreeClock, JournalError, ProbeExecutor, ReplayExecutor, TcpProbeExecutor, WallClock,
};
use webmon_sim::{
    CellSpec, ChurnSpec, Experiment, ExperimentConfig, FaultKind, FaultSpec, NoiseSpec,
    PolicyAggregate, PolicyKind, PolicySpec, Report, Table, TraceSpec,
};
use webmon_streams::auction::AuctionTraceConfig;
use webmon_streams::fpn::FpnModel;
use webmon_streams::news::NewsTraceConfig;
use webmon_streams::rng::SimRng;
use webmon_workload::{EiLength, RankSpec, WorkloadConfig, WorkloadSpec};

/// Top-level usage text.
pub const USAGE: &str = "\
webmon — Web Monitoring 2.0 (ICDE 2009) reproduction

USAGE:
    webmon <COMMAND> [OPTIONS]

COMMANDS:
    run          Run one monitoring experiment and print the policy table
    sweep        Sweep one parameter (budget | lambda | alpha | skew-alpha | rank)
    trace        Generate a trace and print its statistics
    serve        Run the engine as a monitoring daemon on a local socket
    experiments  Run the full paper experiment suite (all figures/tables)
    bench        Run the engine scaling benchmark (the BENCH_engine.json grid)
    help         Show this message

COMMON OPTIONS (run / sweep):
    --trace poisson|auction|news   update-event source        [poisson]
    --lambda <f64>                 Poisson intensity/epoch    [20]
    --resources <u32>              number of resources n      [200]
    --horizon <u32>                epoch length K             [1000]
    --budget <u32>                 probes per chronon C       [1]
    --profiles <u32>               number of profiles m       [50]
    --rank <u16>                   max profile rank k         [5]
    --fixed-rank                   all CEIs exactly rank k (default: up to k)
    --alpha <f64>                  resource-popularity skew   [0.3]
    --beta <f64>                   rank-variance skew         [0]
    --window <u32>                 window(w) EIs instead of overwrite(ω=10)
    --noise-z <f64>                FPN(Z) noise level (1 = none)
    --reps <u32>                   repetitions                [5]
    --seed <u64>                   master seed                [1234]

RUN OPTIONS:
    --workload-spec <path>         build the experiment from a declarative
                                   WorkloadSpec JSON file (skewed placement,
                                   hot-key classes, bursty updates) instead
                                   of the flags above
    --offline-lr                   also run the offline Local-Ratio baseline;
                                   infeasible instances (threshold CEIs,
                                   expansion over the cap) exit 2 with a
                                   diagnostic

SWEEP OPTIONS:
    --param budget|lambda|alpha|skew-alpha|rank|fault-rate
                                   swept parameter [budget]

FAULT INJECTION (run; sweep --param fault-rate):
    --fault-rate <f64>             enable faults: per-probe failure (iid)
                                   or per-chronon outage (burst) probability
    --fault-model iid|burst        fault model                [iid]
    --fault-recover <f64>          burst recovery probability [0.5]
    --fault-seed <u64>             fault master seed          [64023]
    --fault-free                   failed probes do not consume budget
    --retry immediate|backoff      retry discipline           [immediate]
    --retry-quota <u32>            max retried probes per chronon

PROFILE CHURN (run):
    --churn-arrivals <f64>         fraction of CEIs arriving mid-run via
                                   dynamic registration (enables churn)
    --churn-cancels <f64>          fraction of CEIs cancelled mid-run
                                   (enables churn)
    --churn-alpha <f64>            skew churn toward popular resources [0]
    --churn-delay <u32>            max registration delay, chronons    [4]
    --churn-budget-changes <u32>   mid-run budget reconfigurations     [0]
    --churn-seed <u64>             churn master seed               [49374]

TRACE OPTIONS:
    --trace poisson|auction|news, --resources, --horizon, --lambda, --seed

EXPERIMENTS OPTIONS:
    --quick                        smoke-test sizes

BENCH OPTIONS:
    --quick                        the CI smoke grid (default: the full grid)
    --bench-profiles <a,b,..>      override the |P| ladder       e.g. 150,600
    --bench-ranks <a,b,..>         override the EIs/CEI ladder
    --bench-horizons <a,b,..>      override the horizon ladder
    --bench-budgets <a,b,..>       override the budget ladder
                                   (any override replaces the default grid
                                   with the cross product of the ladders)
    --out <path>                   write BENCH_engine.json-format report
    --check <path>                 gate against a committed baseline; exits 1
                                   on counter drift or >20% speedup regression

PARALLELISM (run / sweep / experiments):
    --jobs <N>                     worker threads (also: WEBMON_JOBS env var;
                                   default: all cores; results are identical
                                   for every N — timed experiments always
                                   run single-worker; each engine run is
                                   serial)

OUTPUT:
    --json                         machine-readable JSON (run / sweep)

OBSERVABILITY (run):
    --metrics <path>               write per-policy RunMetrics (merged over
                                   repetitions) + RunStats consistency checks
                                   as JSON
    --trace-out <path>             write the JSONL engine event trace of
                                   repetition 0 for every roster policy,
                                   concatenated in roster order (a new stream
                                   starts at each ChrononStart with t = 0)

SERVE OPTIONS (plus the common/fault/churn options above, which shape
the monitored instance exactly like `run` repetition 0):
    --listen <addr>                control socket          [127.0.0.1:7077]
                                   (:0 picks a free port, printed to stderr)
    --chronon-ms <u64>             wall-clock ms per chronon; 0 = free-run
                                   as fast as the engine computes     [0]
    --policy s-edf|mrsf|m-edf|w-ic|random|round-robin     policy     [m-edf]
    --np                           non-preemptive variant (default: P)
    --executor replay|live         probe executor          [replay]
                                   replay: deterministic, probes answered
                                   from the scripted fault model (none ->
                                   always up) — byte-identical to the
                                   simulator; live: real TCP probes
    --targets <a:p,b:p,..>         probe targets, required with live
    --probe-timeout-ms <u64>       per-probe TCP timeout with live   [200]
    --replay-feed <path>           build the instance from a CSV update
                                   trace instead of the generated one
    --trace-out <path>             write the daemon's JSONL event trace
    --sim-trace-out <path>         also run the simulator on the same case
                                   and write its JSONL trace (for diffing;
                                   not valid with --replay-feed)
    --journal-dir <dir>            append a durable run journal (frames,
                                   snapshots, live mutations) to
                                   <dir>/run.journal
    --fsync every-chronon|every-<n>|os
                                   journal durability policy [every-chronon]
    --snapshot-every <n>           journal an engine snapshot every n
                                   chronons; 0 = never (recovery then
                                   replays from chronon 0)          [64]
    --recover <dir>                recover a crashed run from the journal
                                   in <dir>: restore the latest snapshot,
                                   replay the journaled chronons to the
                                   crash point, then continue live (all
                                   other flags must match the crashed run)

    The line protocol on the socket: ping | attach | register <cei-id> |
    cancel <cei-id> | set-budget <n> | shutdown. One JSON reply per line;
    attach switches the connection to the JSONL event stream.
";

/// Runs the parsed command line; returns the process exit code.
pub fn dispatch(args: &Args) -> Result<i32, ArgError> {
    let jobs: usize = args.get_parsed("jobs", 0, "a worker count")?;
    webmon_sim::parallel::set_jobs(jobs);
    match args.command.as_deref() {
        Some("run") => cmd_run(args),
        Some("sweep") => cmd_sweep(args),
        Some("trace") => cmd_trace(args),
        Some("serve") => cmd_serve(args),
        Some("experiments") => cmd_experiments(args),
        Some("bench") => cmd_bench(args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(0)
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            Ok(2)
        }
    }
}

/// Rejects a zero where the engine needs at least one (resources, horizon,
/// budget, profiles, repetitions): a structured error beats a panic deep in
/// instance materialization.
fn require_positive(key: &'static str, value: u32) -> Result<u32, ArgError> {
    if value == 0 {
        return Err(ArgError::BadValue {
            key: key.to_string(),
            value: "0".to_string(),
            expected: "a positive integer",
        });
    }
    Ok(value)
}

/// Parses a Zipf-style skew exponent, rejecting non-finite or negative
/// values with a structured error instead of letting them reach
/// `Zipf::new`'s panic deep in workload generation.
fn skew_exponent(args: &Args, key: &'static str, default: f64) -> Result<f64, ArgError> {
    let v: f64 = args.get_parsed(key, default, "a number")?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(ArgError::BadValue {
            key: key.to_string(),
            value: args.get(key).unwrap_or_default().to_string(),
            expected: "a finite non-negative exponent",
        });
    }
    Ok(v)
}

/// Builds an `ExperimentConfig` from common options.
fn config_from(args: &Args) -> Result<ExperimentConfig, ArgError> {
    let n_resources = require_positive(
        "resources",
        args.get_parsed("resources", 200, "an integer")?,
    )?;
    let horizon = require_positive("horizon", args.get_parsed("horizon", 1000, "an integer")?)?;
    let lambda: f64 = args.get_parsed("lambda", 20.0, "a number")?;
    let rank: u16 = args.get_parsed("rank", 5, "an integer")?;
    let beta = skew_exponent(args, "beta", 0.0)?;

    let trace = match args.get("trace").unwrap_or("poisson") {
        "auction" => TraceSpec::Auction(AuctionTraceConfig::scaled(n_resources, horizon)),
        "news" => TraceSpec::News(NewsTraceConfig::scaled(n_resources, horizon)),
        _ => TraceSpec::Poisson { lambda },
    };
    let length = match args.get("window") {
        Some(_) => EiLength::Window(args.get_parsed("window", 10, "an integer")?),
        None => EiLength::Overwrite { max_len: Some(10) },
    };
    let noise = match args.get("noise-z") {
        Some(_) => {
            let z: f64 = args.get_parsed("noise-z", 1.0, "a number in [0,1]")?;
            Some(NoiseSpec::Fpn(FpnModel::new(z, 10)))
        }
        None => None,
    };

    Ok(ExperimentConfig {
        n_resources,
        horizon,
        budget: require_positive("budget", args.get_parsed("budget", 1, "an integer")?)?,
        workload: WorkloadConfig {
            n_profiles: require_positive(
                "profiles",
                args.get_parsed("profiles", 50, "an integer")?,
            )?,
            rank: if args.flag("fixed-rank") {
                RankSpec::Fixed(rank)
            } else {
                RankSpec::UpTo { k: rank, beta }
            },
            resource_alpha: skew_exponent(args, "alpha", 0.3)?,
            length,
            distinct_resources: true,
            max_ceis: None,
            no_intra_resource_overlap: false,
        },
        trace,
        noise,
        repetitions: require_positive("reps", args.get_parsed("reps", 5, "an integer")?)?,
        seed: args.get_parsed("seed", 1234, "an integer")?,
    })
}

/// Default master seed of CLI fault injection (`0xFA17`).
const DEFAULT_FAULT_SEED: u64 = 0xFA17;

/// Parses the retry discipline and failure-charging options shared by every
/// fault model.
fn fault_config_from(args: &Args) -> Result<FaultConfig, ArgError> {
    let mut config = FaultConfig::charged();
    if args.flag("fault-free") {
        config = config.free_failures();
    }
    match args.get("retry").unwrap_or("immediate") {
        "immediate" => {}
        "backoff" => config = config.with_backoff(Backoff::new(1, 8)),
        other => {
            return Err(ArgError::BadValue {
                key: "retry".to_string(),
                value: other.to_string(),
                expected: "immediate|backoff",
            })
        }
    }
    if args.get("retry-quota").is_some() {
        config = config.with_retry_quota(args.get_parsed("retry-quota", 0, "an integer")?);
    }
    Ok(config)
}

/// Builds the optional fault scenario of `webmon run`. Faults are enabled
/// by `--fault-rate`; without it every fault/retry flag is ignored and the
/// run is the fault-free fast path.
fn fault_from(args: &Args) -> Result<Option<FaultSpec>, ArgError> {
    let Some(raw) = args.get("fault-rate") else {
        return Ok(None);
    };
    let rate: f64 = args.get_parsed("fault-rate", 0.0, "a probability in [0,1]")?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(ArgError::BadValue {
            key: "fault-rate".to_string(),
            value: raw.to_string(),
            expected: "a probability in [0,1]",
        });
    }
    let seed: u64 = args.get_parsed("fault-seed", DEFAULT_FAULT_SEED, "an integer")?;
    let kind = match args.get("fault-model").unwrap_or("iid") {
        "iid" => FaultKind::Iid { rate },
        "burst" => {
            let p_recover: f64 = args.get_parsed("fault-recover", 0.5, "a probability in (0,1]")?;
            FaultKind::Burst {
                p_fail: rate,
                p_recover,
            }
        }
        other => {
            return Err(ArgError::BadValue {
                key: "fault-model".to_string(),
                value: other.to_string(),
                expected: "iid|burst",
            })
        }
    };
    Ok(Some(FaultSpec {
        kind,
        seed,
        config: fault_config_from(args)?,
    }))
}

/// Default master seed of CLI churn overlays (`0xC0DE` = 49374).
const DEFAULT_CHURN_SEED: u64 = 0xC0DE;

/// Builds the optional churn scenario of `webmon run`. Churn is enabled by
/// `--churn-arrivals` and/or `--churn-cancels`; without either, the other
/// churn flags are ignored and the run is the static-profile fast path.
fn churn_from(args: &Args) -> Result<Option<ChurnSpec>, ArgError> {
    // Validate the skew exponent even when churn stays off: a malformed
    // `--churn-alpha` must be a structured error, never silently ignored.
    let churn_alpha = skew_exponent(args, "churn-alpha", 0.0)?;
    if args.get("churn-arrivals").is_none() && args.get("churn-cancels").is_none() {
        return Ok(None);
    }
    let mut rates = [0.0f64; 2];
    for (slot, key) in rates.iter_mut().zip(["churn-arrivals", "churn-cancels"]) {
        let rate: f64 = args.get_parsed(key, 0.0, "a probability in [0,1]")?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(ArgError::BadValue {
                key: key.to_string(),
                value: args.get(key).unwrap_or_default().to_string(),
                expected: "a probability in [0,1]",
            });
        }
        *slot = rate;
    }
    let config = webmon_workload::ChurnConfig::new(rates[0], rates[1])
        .with_alpha(churn_alpha)
        .with_max_delay(args.get_parsed("churn-delay", 4, "an integer")?)
        .with_reconfigurations(args.get_parsed("churn-budget-changes", 0, "an integer")?);
    Ok(Some(ChurnSpec {
        config,
        seed: args.get_parsed("churn-seed", DEFAULT_CHURN_SEED, "an integer")?,
    }))
}

fn roster_table(title: &str, aggregates: &[PolicyAggregate]) -> Table {
    let mut t = Table::with_headers(
        title,
        &[
            "policy",
            "completeness",
            "EI completeness",
            "µs/EI",
            "budget util.",
        ],
    );
    for agg in aggregates {
        t.push_numeric_row(
            agg.label.clone(),
            &[
                agg.completeness.mean,
                agg.ei_completeness.mean,
                agg.micros_per_ei.mean,
                agg.budget_utilization.mean,
            ],
            4,
        );
    }
    t
}

/// One policy column of the `--metrics` artifact.
#[derive(Debug, Serialize)]
struct PolicyMetricsDoc {
    /// Roster label, e.g. `"MRSF(P)"`.
    label: String,
    /// Per-repetition mismatches between in-run metrics and post-hoc
    /// `RunStats` (always empty on a healthy build; skipped under noise,
    /// where stats are truth-validated and *should* disagree).
    consistency_errors: Vec<String>,
    /// Metrics merged over all repetitions, in repetition order.
    metrics: RunMetrics,
}

/// The `webmon run --metrics` artifact.
#[derive(Debug, Serialize)]
struct MetricsDoc {
    /// Master seed of the experiment.
    seed: u64,
    /// Repetitions merged into each policy's metrics.
    repetitions: u32,
    /// One entry per roster policy, in roster order.
    policies: Vec<PolicyMetricsDoc>,
}

fn metrics_doc(exp: &Experiment, aggregates: &[PolicyAggregate]) -> MetricsDoc {
    let noisy = exp.config().noise.is_some();
    let policies = aggregates
        .iter()
        .map(|agg| {
            let mut consistency_errors = Vec::new();
            if !noisy {
                for (i, rep) in agg.repetitions.iter().enumerate() {
                    for e in rep.metrics.consistency_errors(&rep.stats) {
                        consistency_errors.push(format!("rep {i}: {e}"));
                    }
                }
            }
            PolicyMetricsDoc {
                label: agg.label.clone(),
                consistency_errors,
                metrics: agg.metrics.clone(),
            }
        })
        .collect();
    MetricsDoc {
        seed: exp.config().seed,
        repetitions: exp.config().repetitions,
        policies,
    }
}

fn write_metrics(path: &str, doc: &MetricsDoc) -> std::io::Result<()> {
    let json =
        serde_json::to_string_pretty(doc).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, json)
}

fn write_trace(
    path: &str,
    exp: &Experiment,
    roster: &[PolicySpec],
    churn: Option<ChurnSpec>,
    fault: Option<FaultSpec>,
) -> std::io::Result<u64> {
    let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut total = 0;
    for &spec in roster {
        let cell = CellSpec {
            faults: fault,
            churn,
            ..CellSpec::new(spec)
        };
        let (w, events) = exp.trace_cell(cell, 0, writer)?;
        writer = w;
        total += events;
    }
    Ok(total)
}

/// Materializes the experiment of a `--workload-spec <file>` run: read the
/// file, parse the declarative [`WorkloadSpec`], materialize. Every failure
/// is a diagnostic string for exit code 2 — never a panic.
fn experiment_from_spec_file(path: &str) -> Result<Experiment, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read workload spec {path}: {e}"))?;
    let spec = WorkloadSpec::from_json(&raw).map_err(|e| e.to_string())?;
    Experiment::materialize_spec(&spec).map_err(|e| e.to_string())
}

fn cmd_run(args: &Args) -> Result<i32, ArgError> {
    let fault = fault_from(args)?;
    let churn = churn_from(args)?;
    let exp = match args.get("workload-spec") {
        Some(path) => match experiment_from_spec_file(path) {
            Ok(exp) => exp,
            Err(msg) => {
                eprintln!("error: {msg}");
                return Ok(2);
            }
        },
        None => Experiment::materialize(config_from(args)?),
    };
    let roster = PolicySpec::paper_roster();
    let mut aggregates = webmon_sim::parallel::par_map(roster.clone(), |_, spec| {
        exp.run_cell(CellSpec {
            faults: fault,
            churn,
            ..CellSpec::new(spec)
        })
    });
    if args.flag("offline-lr") {
        use webmon_core::offline::LocalRatioConfig;
        match exp.try_run_local_ratio(LocalRatioConfig::default()) {
            Ok(agg) => aggregates.push(agg),
            Err(e) => {
                eprintln!("error: offline Local-Ratio baseline is infeasible: {e}");
                return Ok(2);
            }
        }
    }

    if let Some(path) = args.get("metrics") {
        let doc = metrics_doc(&exp, &aggregates);
        for err in doc.policies.iter().flat_map(|p| &p.consistency_errors) {
            eprintln!("metrics inconsistency: {err}");
        }
        if let Err(e) = write_metrics(path, &doc) {
            eprintln!("cannot write metrics to {path}: {e}");
            return Ok(1);
        }
        eprintln!("metrics: wrote {} policies to {path}", doc.policies.len());
    }
    if let Some(path) = args.get("trace-out") {
        match write_trace(path, &exp, &roster, churn, fault) {
            Ok(events) => eprintln!("trace: wrote {events} events to {path}"),
            Err(e) => {
                eprintln!("cannot write trace to {path}: {e}");
                return Ok(1);
            }
        }
    }

    if args.flag("json") {
        let report = Report::from_tables(vec![roster_table("webmon run", &aggregates)])
            .with_aggregates(aggregates);
        println!("{}", report.to_json());
        return Ok(0);
    }
    let (ceis, eis) = exp.mean_sizes();
    println!(
        "workload: ~{ceis:.0} CEIs / ~{eis:.0} EIs per repetition ({} reps)",
        exp.config().repetitions
    );
    if let Some(c) = churn {
        println!(
            "churn:    {} seed {} (alpha {}, delay {}, {} budget change(s))",
            c.label(),
            c.seed,
            c.config.resource_alpha,
            c.config.max_delay,
            c.config.reconfigurations,
        );
    }
    if let Some(f) = fault {
        println!(
            "faults:   {} seed {} ({}charged{}{})",
            f.kind.label(),
            f.seed,
            if f.config.failures_cost { "" } else { "un" },
            if f.config.backoff.is_some() {
                ", backoff"
            } else {
                ", immediate retry"
            },
            match f.config.retry_quota {
                Some(q) => format!(", quota {q}"),
                None => String::new(),
            },
        );
    }
    println!("\n{}", roster_table("webmon run", &aggregates));
    Ok(0)
}

fn cmd_sweep(args: &Args) -> Result<i32, ArgError> {
    let param = args.get("param").unwrap_or("budget").to_string();
    let base = config_from(args)?;
    let specs = [
        PolicySpec::np(PolicyKind::SEdf),
        PolicySpec::p(PolicyKind::Mrsf),
        PolicySpec::p(PolicyKind::MEdf),
    ];
    let mut t = Table::with_headers(
        format!("webmon sweep — {param}"),
        &[param.as_str(), "S-EDF(NP)", "MRSF(P)", "M-EDF(P)"],
    );
    // Fault-rate sweeps rerun the *same* materialized instances under
    // increasing i.i.d. probe loss (the CLI face of `exp_faults`).
    if param == "fault-rate" {
        let fault_seed: u64 = args.get_parsed("fault-seed", DEFAULT_FAULT_SEED, "an integer")?;
        let fault_config = fault_config_from(args)?;
        let exp = Experiment::materialize(base);
        let rates = [0.0, 0.1, 0.3, 0.5, 0.7];
        for (rate, roster) in exp.robustness_sweep(&specs, &rates, fault_seed, fault_config) {
            let vals: Vec<f64> = roster.iter().map(|a| a.completeness.mean).collect();
            t.push_numeric_row(format!("{rate:.2}"), &vals, 4);
        }
        if args.flag("json") {
            println!("{}", Report::from_tables(vec![t]).to_json());
        } else {
            println!("{t}");
        }
        return Ok(0);
    }
    let points: Vec<(String, ExperimentConfig)> = match param.as_str() {
        "lambda" => [10.0, 20.0, 30.0, 40.0, 50.0]
            .iter()
            .map(|&l| {
                let mut c = base.clone();
                c.trace = TraceSpec::Poisson { lambda: l };
                (format!("{l}"), c)
            })
            .collect(),
        "alpha" => [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&a| {
                let mut c = base.clone();
                c.workload.resource_alpha = a;
                (format!("{a}"), c)
            })
            .collect(),
        // The skewed-workload ladder: uniform through the Table-I baseline
        // to the paper's α = 1.37 Web-feed estimate.
        "skew-alpha" => webmon_sim::alpha_ladder()
            .into_iter()
            .map(|a| {
                let mut c = base.clone();
                c.workload.resource_alpha = a;
                (format!("{a}"), c)
            })
            .collect(),
        "rank" => (1..=5u16)
            .map(|k| {
                let mut c = base.clone();
                c.workload.rank = RankSpec::Fixed(k);
                (format!("{k}"), c)
            })
            .collect(),
        _ => (1..=5u32)
            .map(|b| {
                let mut c = base.clone();
                c.budget = b;
                (format!("{b}"), c)
            })
            .collect(),
    };
    // Sweep points run in parallel; rows are pushed in sweep order.
    let rows = webmon_sim::parallel::par_map(points, |_, (label, cfg)| {
        let exp = Experiment::materialize(cfg);
        let vals: Vec<f64> = specs
            .iter()
            .map(|&s| exp.run_spec(s).completeness.mean)
            .collect();
        (label, vals)
    });
    for (label, vals) in rows {
        t.push_numeric_row(label, &vals, 4);
    }
    if args.flag("json") {
        println!("{}", Report::from_tables(vec![t]).to_json());
    } else {
        println!("{t}");
    }
    Ok(0)
}

fn cmd_trace(args: &Args) -> Result<i32, ArgError> {
    let n_resources = require_positive(
        "resources",
        args.get_parsed("resources", 100, "an integer")?,
    )?;
    let horizon = require_positive("horizon", args.get_parsed("horizon", 1000, "an integer")?)?;
    let lambda: f64 = args.get_parsed("lambda", 20.0, "a number")?;
    let seed: u64 = args.get_parsed("seed", 1234, "an integer")?;
    let spec = match args.get("trace").unwrap_or("poisson") {
        "auction" => TraceSpec::Auction(AuctionTraceConfig::scaled(n_resources, horizon)),
        "news" => TraceSpec::News(NewsTraceConfig::scaled(n_resources, horizon)),
        _ => TraceSpec::Poisson { lambda },
    };
    let trace = spec.generate(n_resources, horizon, &SimRng::new(seed));
    let mut counts: Vec<usize> = (0..trace.n_resources())
        .map(|r| trace.events_of(r).len())
        .collect();
    counts.sort_unstable();
    let total = trace.total_events();
    println!("resources: {}", trace.n_resources());
    println!("horizon:   {} chronons", trace.horizon());
    println!(
        "events:    {total} total, {:.1} mean/resource",
        trace.mean_intensity()
    );
    println!(
        "per-resource events: min {} / median {} / max {}",
        counts.first().unwrap_or(&0),
        counts.get(counts.len() / 2).unwrap_or(&0),
        counts.last().unwrap_or(&0),
    );
    Ok(0)
}

/// Parses the single-policy selection of `webmon serve` (`run` and `sweep`
/// always score a roster; the daemon monitors with exactly one policy).
fn policy_spec_from(args: &Args) -> Result<PolicySpec, ArgError> {
    let kind = match args.get("policy").unwrap_or("m-edf") {
        "s-edf" => PolicyKind::SEdf,
        "mrsf" => PolicyKind::Mrsf,
        "m-edf" => PolicyKind::MEdf,
        "w-ic" => PolicyKind::Wic,
        "random" => PolicyKind::Random,
        "round-robin" => PolicyKind::RoundRobin,
        other => {
            return Err(ArgError::BadValue {
                key: "policy".to_string(),
                value: other.to_string(),
                expected: "s-edf|mrsf|m-edf|w-ic|random|round-robin",
            })
        }
    };
    Ok(if args.flag("np") {
        PolicySpec::np(kind)
    } else {
        PolicySpec::p(kind)
    })
}

/// Parses the `--targets` list of the live executor.
fn targets_from(args: &Args) -> Result<Vec<std::net::SocketAddr>, ArgError> {
    let raw = args.get("targets").unwrap_or("");
    let bad = || ArgError::BadValue {
        key: "targets".to_string(),
        value: raw.to_string(),
        expected: "comma-separated host:port probe targets (required with --executor live)",
    };
    if raw.is_empty() {
        return Err(bad());
    }
    raw.split(',')
        .map(|tok| tok.trim().parse().map_err(|_| bad()))
        .collect()
}

/// The `webmon serve` summary line (one JSON object on stdout at exit).
#[derive(Debug, Serialize)]
struct ServeSummary {
    /// Policy label, e.g. `"M-EDF(P)"`.
    policy: String,
    /// Chronons driven (the epoch length).
    chronons: u32,
    /// CEIs in the monitored instance.
    ceis: usize,
    /// CEIs fully captured.
    captured: u64,
    /// Fraction of CEIs fully captured.
    completeness: f64,
    /// Probes issued over the run.
    probes: u64,
    /// Events encoded for the trace file, attached sockets and journal.
    events_written: u64,
    /// Attached subscribers disconnected because their socket could not
    /// take a whole chronon's block (they do not change the exit code).
    dropped_subscribers: u64,
    /// Failed trace-file writes (nonzero → exit code 1). Socket failures
    /// are not counted here; they drop the subscriber instead.
    write_errors: u64,
    /// Structured trace/journal IO failures with file paths (nonempty →
    /// exit code 1).
    io_errors: Vec<String>,
}

fn cmd_serve(args: &Args) -> Result<i32, ArgError> {
    let cfg = config_from(args)?;
    let fault = fault_from(args)?;
    let churn = churn_from(args)?;
    // Without a fault model the retry flags still shape how executor
    // failures (e.g. live probe timeouts) are charged and retried.
    let fault_config = match fault {
        Some(f) => f.config,
        None => fault_config_from(args)?,
    };
    let spec = policy_spec_from(args)?;
    let chronon_ms: u64 = args.get_parsed("chronon-ms", 0, "milliseconds per chronon")?;

    let fsync = match args.get("fsync") {
        Some(raw) => raw
            .parse::<webmon_core::serve::FsyncPolicy>()
            .map_err(|_| ArgError::BadValue {
                key: "fsync".to_string(),
                value: raw.to_string(),
                expected: "every-chronon|every-<n>|os",
            })?,
        None => webmon_core::serve::FsyncPolicy::EveryChronon,
    };
    let snapshot_every: u32 = args.get_parsed("snapshot-every", 64, "a chronon count")?;
    let recover_dir = args.get("recover").map(std::path::PathBuf::from);
    let journal_dir = args.get("journal-dir").map(std::path::PathBuf::from);
    if let (Some(r), Some(j)) = (&recover_dir, &journal_dir) {
        if r != j {
            return Err(ArgError::BadValue {
                key: "journal-dir".to_string(),
                value: j.display().to_string(),
                expected: "the same directory as --recover (recovery continues that journal)",
            });
        }
    }
    let journal =
        recover_dir
            .clone()
            .or(journal_dir)
            .map(|dir| webmon_core::serve::JournalConfig {
                dir,
                fsync,
                snapshot_every,
            });

    if args.get("replay-feed").is_some() && args.get("sim-trace-out").is_some() {
        return Err(ArgError::BadValue {
            key: "sim-trace-out".to_string(),
            value: args.get("sim-trace-out").unwrap_or_default().to_string(),
            expected: "no --replay-feed (the simulator reference replays the generated trace)",
        });
    }

    // The monitored instance: repetition 0 of the configured experiment, or
    // the same workload generator run over a CSV update feed from disk.
    let (instance, exp) = match args.get("replay-feed") {
        Some(path) => {
            let trace = match webmon_streams::read_csv_file(
                std::path::Path::new(path),
                Some(cfg.horizon),
                Some(cfg.n_resources),
            ) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot load replay feed {path}: {e}");
                    return Ok(2);
                }
            };
            let rep_rng = SimRng::new(cfg.seed).fork_indexed("repetition", 0);
            let w = webmon_workload::generate(
                &cfg.workload,
                &webmon_streams::NoisyTrace::exact(&trace),
                webmon_core::model::Budget::Uniform(cfg.budget),
                &rep_rng.fork("workload"),
            );
            (w.instance, None)
        }
        None => {
            let exp = Experiment::materialize(cfg.clone());
            let instance = exp.workloads()[0].instance.clone();
            (instance, Some(exp))
        }
    };

    // Seeds follow the simulator's repetition-0 conventions exactly, so the
    // daemon's event stream is byte-identical to `Experiment::trace_spec*`.
    let queue = match churn {
        Some(c) => c.build(0, &instance),
        None => MutationQueue::new(),
    };
    let script = ScriptedMutations::compile(&queue, instance.epoch.len(), instance.ceis.len());
    let session = ServeSession {
        policy: spec.kind.build(cfg.seed),
        config: spec.engine_config(),
        fault_config,
        script,
        instance,
    };

    let listen = args.get("listen").unwrap_or("127.0.0.1:7077");
    let mut daemon = match Daemon::bind(listen) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            return Ok(2);
        }
    };
    if let Ok(addr) = daemon.local_addr() {
        eprintln!("serving on {addr}");
    }

    // Replay executors are deterministic, so recovery may step them through
    // the replayed prefix to keep stateful fault models exact; a live
    // executor must never probe during replay.
    let mut resync_executor = false;
    let executor: Box<dyn ProbeExecutor> = match args.get("executor").unwrap_or("replay") {
        "replay" => {
            resync_executor = true;
            match fault {
                Some(f) => Box::new(ReplayExecutor::scripted(
                    f.build(0, session.instance.n_resources as usize),
                )),
                None => Box::new(ReplayExecutor::faultless()),
            }
        }
        "live" => {
            let timeout_ms: u64 = args.get_parsed("probe-timeout-ms", 200, "milliseconds")?;
            let tcp = TcpProbeExecutor::new(
                targets_from(args)?,
                std::time::Duration::from_millis(timeout_ms),
            );
            // A `shutdown` mid-backoff must not wait out in-flight probes:
            // the flag makes every later probe fail instantly.
            let stop = tcp.stop_flag();
            daemon.on_shutdown(std::sync::Arc::new(move || {
                stop.store(true, std::sync::atomic::Ordering::SeqCst);
            }));
            Box::new(tcp)
        }
        other => {
            return Err(ArgError::BadValue {
                key: "executor".to_string(),
                value: other.to_string(),
                expected: "replay|live",
            })
        }
    };
    let label = spec.label();
    let n_ceis = session.instance.ceis.len();
    let horizon = session.instance.epoch.len();
    let opts = ServeOptions {
        trace_out: args.get("trace-out").map(std::path::PathBuf::from),
        journal,
        recover: recover_dir.is_some(),
        resync_executor,
    };
    // The clock anchors at the first live chronon, so a recovered wall
    // clock never paces the replayed prefix.
    let make_clock = |anchor| -> Box<dyn Clock> {
        if chronon_ms == 0 {
            Box::new(FreeClock)
        } else {
            Box::new(WallClock::anchored(chronon_ms, anchor))
        }
    };
    let outcome = match daemon.run_with(session, executor, make_clock, opts) {
        Ok(o) => o,
        Err(e) => {
            println!("{}", serve_error_json(&e.to_string()));
            // A journal snapshot that does not fit the configured instance
            // is bad input, like a malformed spec.
            let bad_input = matches!(
                e,
                ServeError::Journal(JournalError::SnapshotMismatch { .. })
            );
            return Ok(if bad_input { 2 } else { 1 });
        }
    };

    // The simulator reference for CI's byte-for-byte diff: the same case,
    // run by `Experiment::trace_spec*` with its own JSONL writer.
    if let Some(path) = args.get("sim-trace-out") {
        let exp = exp.expect("checked: --sim-trace-out excludes --replay-feed");
        let sim = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|w| {
                let cell = CellSpec {
                    faults: fault,
                    churn,
                    ..CellSpec::new(spec)
                };
                exp.trace_cell(cell, 0, w)
            });
        match sim {
            Ok((_, events)) => eprintln!("sim trace: wrote {events} events to {path}"),
            Err(e) => {
                eprintln!("cannot write sim trace to {path}: {e}");
                return Ok(1);
            }
        }
    }

    let captured = outcome.result.stats.ceis_captured;
    let summary = ServeSummary {
        policy: label,
        chronons: horizon,
        ceis: n_ceis,
        captured,
        completeness: captured as f64 / n_ceis.max(1) as f64,
        probes: outcome.metrics.probes_issued,
        events_written: outcome.events_written,
        dropped_subscribers: outcome.dropped_subscribers,
        write_errors: outcome.write_errors,
        io_errors: outcome.io_errors,
    };
    match serde_json::to_string(&summary) {
        Ok(line) => println!("{line}"),
        Err(e) => eprintln!("cannot serialize summary: {e}"),
    }
    Ok(i32::from(
        summary.write_errors != 0 || !summary.io_errors.is_empty(),
    ))
}

/// One structured `{"err":{"reason":...}}` line for a failed daemon start
/// (journal corruption, fingerprint mismatch, bind/trace failures).
fn serve_error_json(reason: &str) -> String {
    serde_json::to_string(&serde_json::Value::Object(vec![(
        "err".to_string(),
        serde_json::Value::Object(vec![(
            "reason".to_string(),
            serde_json::Value::String(reason.to_string()),
        )]),
    )]))
    .unwrap_or_else(|_| r#"{"err":{"reason":"unserializable"}}"#.to_string())
}

fn cmd_experiments(args: &Args) -> Result<i32, ArgError> {
    let scale = if args.flag("quick") {
        webmon_bench::Scale::Quick
    } else {
        webmon_bench::Scale::Paper
    };
    for (name, runner) in suite() {
        eprintln!(">> {name}");
        webmon_bench::print_tables(&runner(scale));
    }
    Ok(0)
}

/// Parses a `--bench-*` comma-separated ladder; absent → `[base]`. The bool
/// says whether the axis was explicitly overridden.
fn bench_ladder<T: std::str::FromStr + Copy>(
    args: &Args,
    key: &'static str,
    base: T,
    expected: &'static str,
) -> Result<(Vec<T>, bool), ArgError> {
    let Some(raw) = args.get(key) else {
        return Ok((vec![base], false));
    };
    let bad = || ArgError::BadValue {
        key: key.to_string(),
        value: raw.to_string(),
        expected,
    };
    let values: Vec<T> = raw
        .split(',')
        .map(|tok| tok.trim().parse().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    if values.is_empty() {
        return Err(bad());
    }
    Ok((values, true))
}

fn cmd_bench(args: &Args) -> Result<i32, ArgError> {
    use webmon_bench::scale::{self, BenchReport, CellDims};

    let scale = if args.flag("quick") {
        webmon_bench::Scale::Quick
    } else {
        webmon_bench::Scale::Paper
    };
    let base = CellDims {
        profiles: 150,
        rank: 3,
        horizon: 300,
        budget: 2,
    };
    let (profiles, p) = bench_ladder(args, "bench-profiles", base.profiles, "a profile ladder")?;
    let (ranks, r) = bench_ladder(args, "bench-ranks", base.rank, "a rank ladder")?;
    let (horizons, h) = bench_ladder(args, "bench-horizons", base.horizon, "a horizon ladder")?;
    let (budgets, b) = bench_ladder(args, "bench-budgets", base.budget, "a budget ladder")?;
    for (key, ok) in [
        ("bench-profiles", profiles.iter().all(|&v| v > 0)),
        ("bench-horizons", horizons.iter().all(|&v| v > 0)),
    ] {
        if !ok {
            return Err(ArgError::BadValue {
                key: key.to_string(),
                value: "0".to_string(),
                expected: "positive values",
            });
        }
    }

    let cells: Vec<CellDims> = if p || r || h || b {
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
        scale::grid(scale)
    };

    // Axis overrides replace the whole grid, so the default churn ladder
    // would not match any baseline made from them — skip it.
    let churn_cells = if p || r || h || b {
        Vec::new()
    } else {
        scale::churn_grid(scale)
    };
    let report = scale::collect_grid(scale, &cells, &scale::roster(scale), &churn_cells);
    webmon_bench::print_tables(&report.tables());
    webmon_bench::print_tables(&[scale::policy_cost_table()]);

    if let Some(path) = args.get("out") {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return Ok(1);
        }
        println!("wrote {path}");
    }

    if let Some(path) = args.get("check") {
        let raw = match std::fs::read_to_string(path) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                return Ok(1);
            }
        };
        let baseline = match BenchReport::from_json(&raw) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {path} is not a BenchReport: {e}");
                return Ok(1);
            }
        };
        let violations = report.violations_against(&baseline);
        if !violations.is_empty() {
            eprintln!("bench gate: {} violation(s) vs {path}:", violations.len());
            for v in &violations {
                eprintln!("  - {v}");
            }
            return Ok(1);
        }
        println!("bench gate: OK ({} cells vs {path})", report.cells.len());
    }
    Ok(0)
}

type Runner = fn(webmon_bench::Scale) -> Vec<Table>;

fn suite() -> Vec<(&'static str, Runner)> {
    vec![
        ("Table I", webmon_bench::table1::run),
        ("Figure 9", webmon_bench::fig09::run),
        ("Figure 10", webmon_bench::fig10::run),
        ("§V-D runtime", webmon_bench::runtime_offline::run),
        ("Figure 11", webmon_bench::fig11::run),
        ("Figure 12", webmon_bench::fig12::run),
        ("Figure 13", webmon_bench::fig13::run),
        ("Figure 14", webmon_bench::fig14::run),
        ("Figure 15", webmon_bench::fig15::run),
        ("Ablations", webmon_bench::ablations::run),
        ("Extensions", webmon_bench::extensions::run),
        ("Robustness", webmon_bench::faults::run),
        ("Skewed workloads", webmon_bench::skew::run),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = config_from(&parse(&["run"])).unwrap();
        assert_eq!(cfg.budget, 1);
        assert_eq!(cfg.n_resources, 200);
        assert!(matches!(cfg.trace, TraceSpec::Poisson { .. }));
        assert!(cfg.noise.is_none());
    }

    #[test]
    fn config_honors_options() {
        let cfg = config_from(&parse(&[
            "run",
            "--budget",
            "3",
            "--trace",
            "auction",
            "--resources",
            "80",
            "--fixed-rank",
            "--rank",
            "2",
            "--window",
            "5",
            "--noise-z",
            "0.4",
        ]))
        .unwrap();
        assert_eq!(cfg.budget, 3);
        assert!(matches!(cfg.trace, TraceSpec::Auction(_)));
        assert_eq!(cfg.workload.rank, RankSpec::Fixed(2));
        assert_eq!(cfg.workload.length, EiLength::Window(5));
        assert!(cfg.noise.is_some());
    }

    #[test]
    fn bad_value_is_reported() {
        let err = config_from(&parse(&["run", "--budget", "lots"])).unwrap_err();
        assert!(matches!(err, ArgError::BadValue { .. }));
    }

    #[test]
    fn dispatch_help_and_unknown() {
        assert_eq!(dispatch(&parse(&["help"])).unwrap(), 0);
        assert_eq!(dispatch(&parse(&["frobnicate"])).unwrap(), 2);
    }

    #[test]
    fn suite_covers_all_artifacts() {
        assert_eq!(suite().len(), 13);
    }

    #[test]
    fn degenerate_sizes_are_structured_errors() {
        for key in ["resources", "horizon", "budget", "profiles", "reps"] {
            let err = config_from(&parse(&["run", &format!("--{key}"), "0"])).unwrap_err();
            assert!(
                matches!(err, ArgError::BadValue { key: ref k, .. } if k == key),
                "--{key} 0 must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn trace_rejects_degenerate_sizes() {
        // Regression: `webmon trace` skipped the positivity guards that
        // `run`/`sweep` apply, so a zero slipped into trace generation.
        for key in ["resources", "horizon"] {
            let err = cmd_trace(&parse(&["trace", &format!("--{key}"), "0"])).unwrap_err();
            assert!(
                matches!(err, ArgError::BadValue { key: ref k, .. } if k == key),
                "trace --{key} 0 must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn faults_are_off_without_a_rate() {
        assert_eq!(fault_from(&parse(&["run"])).unwrap(), None);
        // Retry flags alone do not enable fault injection.
        assert_eq!(
            fault_from(&parse(&["run", "--retry", "backoff"])).unwrap(),
            None
        );
    }

    #[test]
    fn fault_flags_build_the_spec() {
        let f = fault_from(&parse(&["run", "--fault-rate", "0.3"]))
            .unwrap()
            .unwrap();
        assert_eq!(f.kind, FaultKind::Iid { rate: 0.3 });
        assert_eq!(f.seed, DEFAULT_FAULT_SEED);
        assert_eq!(f.config, FaultConfig::charged());

        let f = fault_from(&parse(&[
            "run",
            "--fault-rate",
            "0.2",
            "--fault-model",
            "burst",
            "--fault-recover",
            "0.6",
            "--fault-seed",
            "9",
            "--fault-free",
            "--retry",
            "backoff",
            "--retry-quota",
            "2",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(
            f.kind,
            FaultKind::Burst {
                p_fail: 0.2,
                p_recover: 0.6
            }
        );
        assert_eq!(f.seed, 9);
        assert!(!f.config.failures_cost);
        assert_eq!(f.config.backoff, Some(Backoff::new(1, 8)));
        assert_eq!(f.config.retry_quota, Some(2));
    }

    #[test]
    fn bad_fault_flags_are_structured_errors() {
        for toks in [
            vec!["run", "--fault-rate", "1.5"],
            vec!["run", "--fault-rate", "lots"],
            vec!["run", "--fault-rate", "0.1", "--fault-model", "chaos"],
            vec!["run", "--fault-rate", "0.1", "--retry", "never"],
        ] {
            let err = fault_from(&parse(&toks)).unwrap_err();
            assert!(
                matches!(err, ArgError::BadValue { .. }),
                "{toks:?}: {err:?}"
            );
        }
    }

    #[test]
    fn churn_is_off_without_a_rate() {
        assert_eq!(churn_from(&parse(&["run"])).unwrap(), None);
        // Secondary churn knobs alone do not enable churn.
        assert_eq!(
            churn_from(&parse(&["run", "--churn-alpha", "1.0"])).unwrap(),
            None
        );
    }

    #[test]
    fn churn_flags_build_the_spec() {
        let c = churn_from(&parse(&["run", "--churn-arrivals", "0.3"]))
            .unwrap()
            .unwrap();
        assert_eq!(c.config.arrival_rate, 0.3);
        assert_eq!(c.config.cancel_rate, 0.0);
        assert_eq!(c.seed, DEFAULT_CHURN_SEED);

        let c = churn_from(&parse(&[
            "run",
            "--churn-arrivals",
            "0.2",
            "--churn-cancels",
            "0.1",
            "--churn-alpha",
            "1.37",
            "--churn-delay",
            "9",
            "--churn-budget-changes",
            "3",
            "--churn-seed",
            "17",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(c.config.arrival_rate, 0.2);
        assert_eq!(c.config.cancel_rate, 0.1);
        assert_eq!(c.config.resource_alpha, 1.37);
        assert_eq!(c.config.max_delay, 9);
        assert_eq!(c.config.reconfigurations, 3);
        assert_eq!(c.seed, 17);
    }

    #[test]
    fn bad_churn_flags_are_structured_errors() {
        for toks in [
            vec!["run", "--churn-arrivals", "1.5"],
            vec!["run", "--churn-cancels", "-0.1"],
            vec!["run", "--churn-arrivals", "lots"],
        ] {
            let err = churn_from(&parse(&toks)).unwrap_err();
            assert!(
                matches!(err, ArgError::BadValue { .. }),
                "{toks:?}: {err:?}"
            );
        }
    }

    #[test]
    fn negative_or_nonfinite_skew_exponents_are_rejected() {
        // Regression: these used to slip through `get_parsed` and panic in
        // `Zipf::new` deep inside workload generation (or, with churn off,
        // be silently accepted).
        for (build, toks, key) in [
            (
                config_from as fn(&Args) -> Result<ExperimentConfig, ArgError>,
                vec!["run", "--alpha", "-2"],
                "alpha",
            ),
            (config_from, vec!["run", "--alpha", "inf"], "alpha"),
            (config_from, vec!["run", "--alpha", "NaN"], "alpha"),
            (config_from, vec!["run", "--beta", "-0.5"], "beta"),
        ] {
            let err = build(&parse(&toks)).unwrap_err();
            assert!(
                matches!(err, ArgError::BadValue { key: ref k, .. } if k == key),
                "{toks:?}: {err:?}"
            );
        }
        // --churn-alpha is validated even when churn itself stays off.
        for toks in [
            vec!["run", "--churn-alpha", "-2"],
            vec!["run", "--churn-alpha=-2"],
            vec!["run", "--churn-arrivals", "0.1", "--churn-alpha", "-2"],
        ] {
            let err = churn_from(&parse(&toks)).unwrap_err();
            assert!(
                matches!(err, ArgError::BadValue { key: ref k, .. } if k == "churn-alpha"),
                "{toks:?}: {err:?}"
            );
        }
        // A valid exponent still builds the spec.
        let c = churn_from(&parse(&[
            "run",
            "--churn-arrivals",
            "0.1",
            "--churn-alpha",
            "1.37",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(c.config.resource_alpha, 1.37);
    }

    #[test]
    fn workload_spec_runs_and_rejects_structurally() {
        // A missing file is a diagnostic + exit 2, not a panic.
        assert_eq!(
            cmd_run(&parse(&[
                "run",
                "--workload-spec",
                "/nonexistent/spec.json"
            ]))
            .unwrap(),
            2
        );
        // Malformed JSON likewise.
        let dir = std::env::temp_dir();
        let bad = dir.join("webmon_cli_bad_spec.json");
        std::fs::write(&bad, "{ not json").unwrap();
        assert_eq!(
            cmd_run(&parse(&["run", "--workload-spec", bad.to_str().unwrap()])).unwrap(),
            2
        );
        std::fs::remove_file(&bad).ok();
        // A valid spec runs end to end.
        let mut spec = WorkloadSpec::paper_baseline();
        spec.resources = 30;
        spec.horizon = 100;
        spec.profiles = 6;
        spec.repetitions = 1;
        let good = dir.join("webmon_cli_good_spec.json");
        std::fs::write(&good, spec.to_json()).unwrap();
        assert_eq!(
            cmd_run(&parse(&["run", "--workload-spec", good.to_str().unwrap()])).unwrap(),
            0
        );
        std::fs::remove_file(&good).ok();
    }

    #[test]
    fn offline_lr_on_a_threshold_instance_is_exit_2() {
        // The acceptance check: a threshold-semantics CEI through the
        // offline baseline is a structured diagnostic, not a panic.
        let mut spec = WorkloadSpec::paper_baseline();
        spec.resources = 30;
        spec.horizon = 100;
        spec.profiles = 8;
        spec.repetitions = 1;
        spec.length = EiLength::Window(0);
        let dir = std::env::temp_dir();

        let ok = dir.join("webmon_cli_lr_and_spec.json");
        std::fs::write(&ok, spec.to_json()).unwrap();
        assert_eq!(
            cmd_run(&parse(&[
                "run",
                "--offline-lr",
                "--workload-spec",
                ok.to_str().unwrap(),
            ]))
            .unwrap(),
            0
        );
        std::fs::remove_file(&ok).ok();

        let threshold = spec.with_required_fraction(0.5);
        let bad = dir.join("webmon_cli_lr_threshold_spec.json");
        std::fs::write(&bad, threshold.to_json()).unwrap();
        assert_eq!(
            cmd_run(&parse(&[
                "run",
                "--offline-lr",
                "--workload-spec",
                bad.to_str().unwrap(),
            ]))
            .unwrap(),
            2
        );
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn sweep_walks_the_skew_alpha_ladder() {
        let code = cmd_sweep(&parse(&[
            "sweep",
            "--param",
            "skew-alpha",
            "--resources",
            "20",
            "--horizon",
            "60",
            "--profiles",
            "4",
            "--rank",
            "2",
            "--reps",
            "1",
        ]))
        .unwrap();
        assert_eq!(code, 0);
    }

    #[test]
    fn bench_ladder_parses_overrides() {
        let a = parse(&["bench", "--bench-profiles", "10, 20,30"]);
        assert_eq!(
            bench_ladder(&a, "bench-profiles", 150u32, "a profile ladder").unwrap(),
            (vec![10, 20, 30], true)
        );
        assert_eq!(
            bench_ladder(&a, "bench-budgets", 2u32, "a budget ladder").unwrap(),
            (vec![2], false)
        );
        let bad = parse(&["bench", "--bench-ranks", "3,x"]);
        let err = bench_ladder(&bad, "bench-ranks", 3u16, "a rank ladder").unwrap_err();
        assert!(matches!(err, ArgError::BadValue { ref key, .. } if key == "bench-ranks"));
    }

    #[test]
    fn bench_rejects_zero_dimensions() {
        let err = cmd_bench(&parse(&["bench", "--bench-profiles", "0"])).unwrap_err();
        assert!(matches!(err, ArgError::BadValue { ref key, .. } if key == "bench-profiles"));
    }

    #[test]
    fn bench_check_fails_on_shape_drift() {
        // A syntactically valid baseline with the wrong grid shape must make
        // the gate exit nonzero (deterministic — no wall-clock comparison).
        let baseline = std::env::temp_dir().join("webmon_bench_empty_baseline.json");
        std::fs::write(
            &baseline,
            r#"{"schema":"webmon-bench-engine/v1","scale":"Quick","repetitions":1,"cells":[]}"#,
        )
        .unwrap();
        let code = cmd_bench(&parse(&[
            "bench",
            "--quick",
            "--bench-profiles",
            "10",
            "--bench-horizons",
            "40",
            "--check",
            baseline.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(code, 1);
        std::fs::remove_file(&baseline).ok();
    }

    #[test]
    fn serve_policy_defaults_to_preemptive_medf() {
        let spec = policy_spec_from(&parse(&["serve"])).unwrap();
        assert_eq!(spec, PolicySpec::p(PolicyKind::MEdf));
        let spec = policy_spec_from(&parse(&["serve", "--policy", "mrsf", "--np"])).unwrap();
        assert_eq!(spec, PolicySpec::np(PolicyKind::Mrsf));
        let err = policy_spec_from(&parse(&["serve", "--policy", "oracle"])).unwrap_err();
        assert!(matches!(err, ArgError::BadValue { ref key, .. } if key == "policy"));
    }

    #[test]
    fn serve_targets_parse_and_reject() {
        let a = parse(&["serve", "--targets", "127.0.0.1:80, 127.0.0.1:8080"]);
        let targets = targets_from(&a).unwrap();
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[1].port(), 8080);
        for toks in [vec!["serve"], vec!["serve", "--targets", "not-an-addr"]] {
            let err = targets_from(&parse(&toks)).unwrap_err();
            assert!(
                matches!(err, ArgError::BadValue { ref key, .. } if key == "targets"),
                "{toks:?}: {err:?}"
            );
        }
    }

    #[test]
    fn serve_rejects_sim_trace_with_replay_feed() {
        // The simulator reference replays the generated trace; with a CSV
        // feed there is no simulator case to diff against.
        let err = cmd_serve(&parse(&[
            "serve",
            "--replay-feed",
            "feed.csv",
            "--sim-trace-out",
            "sim.jsonl",
        ]))
        .unwrap_err();
        assert!(matches!(err, ArgError::BadValue { ref key, .. } if key == "sim-trace-out"));
    }

    #[test]
    fn serve_surfaces_structured_feed_errors() {
        // A missing feed file is exit code 2 with a TraceIoError message,
        // not a panic (and not a bound socket left behind).
        let code = cmd_serve(&parse(&[
            "serve",
            "--replay-feed",
            "/nonexistent/webmon-feed.csv",
            "--listen",
            "127.0.0.1:0",
        ]))
        .unwrap();
        assert_eq!(code, 2);
    }

    #[test]
    fn recover_refuses_a_snapshot_that_does_not_fit_with_exit_2() {
        use webmon_core::serve::journal::{scan_journal, JOURNAL_FILE};
        use webmon_core::serve::{FsyncPolicy, JournalWriter};
        let dir =
            std::env::temp_dir().join(format!("webmon-cli-bad-snapshot-{}", std::process::id()));
        let dir_arg = dir.to_str().unwrap().to_string();
        let serve = |extra: &[&str]| {
            let mut argv = vec![
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--chronon-ms",
                "0",
                "--resources",
                "10",
                "--horizon",
                "30",
                "--profiles",
                "3",
                "--reps",
                "1",
            ];
            argv.extend_from_slice(extra);
            cmd_serve(&parse(&argv)).unwrap()
        };
        assert_eq!(
            serve(&["--journal-dir", &dir_arg, "--snapshot-every", "5"]),
            0
        );

        // Same fingerprint and valid checksums, but the snapshot claims one
        // CEI more than the instance has.
        let path = dir.join(JOURNAL_FILE);
        let scan = scan_journal(&path).unwrap();
        let mut bad = scan.snapshots[0].clone();
        bad.status.push(webmon_core::serve::CeiState::NotArrived);
        let mut w = JournalWriter::create(&path, FsyncPolicy::Os, &scan.fingerprint).unwrap();
        for f in scan.frames.iter().take_while(|f| f.t < bad.at) {
            w.frame(f.t, f.drained_seq, &f.lines);
        }
        w.snapshot(&bad);
        w.finish();
        assert_eq!(serve(&["--recover", &dir_arg]), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_bad_executor() {
        let err = cmd_serve(&parse(&[
            "serve",
            "--resources",
            "10",
            "--horizon",
            "20",
            "--profiles",
            "3",
            "--reps",
            "1",
            "--listen",
            "127.0.0.1:0",
            "--executor",
            "psychic",
        ]))
        .unwrap_err();
        assert!(matches!(err, ArgError::BadValue { ref key, .. } if key == "executor"));
    }

    fn tiny_experiment() -> Experiment {
        Experiment::materialize(ExperimentConfig {
            n_resources: 30,
            horizon: 120,
            budget: 1,
            workload: WorkloadConfig {
                n_profiles: 8,
                rank: RankSpec::UpTo { k: 3, beta: 0.0 },
                resource_alpha: 0.0,
                length: EiLength::Window(3),
                distinct_resources: true,
                max_ceis: Some(200),
                no_intra_resource_overlap: false,
            },
            trace: TraceSpec::Poisson { lambda: 6.0 },
            noise: None,
            repetitions: 2,
            seed: 7,
        })
    }

    #[test]
    fn metrics_doc_is_consistent_and_serializable() {
        let exp = tiny_experiment();
        let roster = [
            PolicySpec::p(PolicyKind::MEdf),
            PolicySpec::np(PolicyKind::SEdf),
        ];
        let aggregates = exp.run_roster(&roster);
        let doc = metrics_doc(&exp, &aggregates);
        assert_eq!(doc.repetitions, 2);
        assert_eq!(doc.policies.len(), 2);
        for p in &doc.policies {
            assert!(
                p.consistency_errors.is_empty(),
                "metrics drifted from stats: {:?}",
                p.consistency_errors
            );
            assert_eq!(p.metrics.runs, 2);
        }
        let json = serde_json::to_string_pretty(&doc).unwrap();
        assert!(json.contains("\"probes_issued\""));
    }

    #[test]
    fn faulted_run_metrics_stay_consistent() {
        let exp = tiny_experiment();
        let cell = CellSpec {
            faults: Some(FaultSpec::iid(0.4, 99)),
            ..CellSpec::new(PolicySpec::p(PolicyKind::MEdf))
        };
        let doc = metrics_doc(&exp, &[exp.run_cell(cell)]);
        assert!(
            doc.policies[0].consistency_errors.is_empty(),
            "faulted metrics drifted from stats: {:?}",
            doc.policies[0].consistency_errors
        );
        assert!(doc.policies[0].metrics.probes_failed > 0);
    }

    #[test]
    fn trace_streams_valid_jsonl_per_roster_policy() {
        let exp = tiny_experiment();
        let roster = [
            PolicySpec::p(PolicyKind::MEdf),
            PolicySpec::p(PolicyKind::Mrsf),
        ];
        let mut buf = Vec::new();
        let mut total = 0;
        for &spec in &roster {
            let (b, events) = exp.trace_spec(spec, 0, buf).unwrap();
            buf = b;
            total += events;
        }
        let out = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len() as u64, total);
        for line in &lines {
            let _: serde_json::Value = serde_json::from_str(line).unwrap();
        }
        // One stream restart per roster policy: t = 0 opens each stream.
        let restarts = lines
            .iter()
            .filter(|l| l.starts_with("{\"ChrononStart\":{\"t\":0,"))
            .count();
        assert_eq!(restarts, 2);
    }
}
