//! CLI subcommand implementations, and the option table of every command.

use crate::args::{ArgError, Args, Command, Kind, Opt};
use crate::serve::{Daemon, ServeError, ServeOptions, ServeSession};
use serde::Serialize;
use std::time::Instant;
use webmon_core::engine::{MutationQueue, ScriptedMutations};
use webmon_core::fault::{Backoff, FaultConfig, FaultModel, NoFaults};
use webmon_core::obs::RunMetrics;
use webmon_core::serve::{Clock, FreeClock, JournalError, TcpProbeExecutor, WallClock};
use webmon_sim::{
    CellSpec, ChurnSpec, Experiment, ExperimentConfig, FaultKind, FaultSpec, NoiseSpec,
    PolicyAggregate, PolicyKind, PolicySpec, Report, Table, TraceSpec,
};
use webmon_streams::auction::AuctionTraceConfig;
use webmon_streams::fpn::FpnModel;
use webmon_streams::news::NewsTraceConfig;
use webmon_streams::rng::SimRng;
use webmon_workload::{EiLength, RankSpec, WorkloadConfig, WorkloadSpec};

const U16: u64 = u16::MAX as u64;
const U32: u64 = u32::MAX as u64;
const POSITIVE: Kind = Kind::Int(1, U32);
const COUNT: Kind = Kind::Int(0, U32);
const UNSIGNED: Kind = Kind::Int(0, u64::MAX);
const JOBS: Kind = Kind::Int(0, usize::MAX as u64);
const NON_NEG: Kind = Kind::NonNegative;
const PROB: Kind = Kind::Probability;
const PATH: Kind = Kind::Text("path");
const DIR: Kind = Kind::Text("dir");
const TRACES: Kind = Kind::Choice(&["poisson", "auction", "news"]);
#[rustfmt::skip]
const SWEEPS: Kind =
    Kind::Choice(&["budget", "lambda", "alpha", "skew-alpha", "rank", "fault-rate"]);
const POLICIES: Kind = Kind::Choice(&["s-edf", "mrsf", "m-edf", "w-ic", "random", "round-robin"]);

const TRACE: Opt = Opt::new("trace", TRACES, "poisson", "update-event source");
const LAMBDA: Opt = Opt::new("lambda", NON_NEG, "20", "Poisson intensity per epoch");
const HORIZON: Opt = Opt::new("horizon", POSITIVE, "1000", "epoch length K, chronons");
const SEED: Opt = Opt::new("seed", UNSIGNED, "1234", "master seed");
const JSON: Opt = Opt::flag("json", "machine-readable JSON report");
const QUICK: Opt = Opt::flag("quick", "smoke sizes, as CI runs them");

/// Options every command takes; `dispatch` reads them first.
#[rustfmt::skip]
const GLOBAL: &[Opt] = &[
    Opt::new("jobs", JOBS, "0", "worker threads; 0 = WEBMON_JOBS or all cores"),
    Opt::flag("help", "print the command's options and exit"),
];

/// The monitored instance of `run`, `sweep` and `serve`.
#[rustfmt::skip]
const WORKLOAD: &[Opt] = &[
    TRACE,
    LAMBDA,
    Opt::new("resources", POSITIVE, "200", "number of resources n"),
    HORIZON,
    Opt::new("budget", POSITIVE, "1", "probes per chronon C"),
    Opt::new("profiles", POSITIVE, "50", "number of profiles m"),
    Opt::new("rank", Kind::Int(1, U16), "5", "max profile rank k"),
    Opt::flag("fixed-rank", "every CEI has rank exactly k (default: up to k)"),
    Opt::new("alpha", NON_NEG, "0.3", "resource-popularity skew"),
    Opt::new("beta", NON_NEG, "0", "rank-variance skew"),
    Opt::optional("window", COUNT, "window(w) EIs instead of overwrite(ω=10)"),
    Opt::optional("noise-z", PROB, "FPN(Z) noise level (1 = none)"),
    SEED,
];

const REPS: &[Opt] = &[Opt::new("reps", POSITIVE, "5", "repetitions")];

/// The fault model; `--fault-rate` turns it on.
#[rustfmt::skip]
const FAULTS: &[Opt] = &[
    Opt::optional("fault-rate", PROB, "per-probe (iid) or per-chronon (burst) failure"),
    Opt::new("fault-model", Kind::Choice(&["iid", "burst"]), "iid", "fault model"),
    Opt::new("fault-recover", Kind::PositiveProbability, "0.5", "burst recovery probability"),
];

/// The fault seed, and how failed probes are charged and retried.
#[rustfmt::skip]
const RETRY: &[Opt] = &[
    Opt::new("fault-seed", UNSIGNED, "64023", "fault master seed"),
    Opt::flag("fault-free", "failed probes do not consume budget"),
    Opt::new("retry", Kind::Choice(&["immediate", "backoff"]), "immediate", "retry discipline"),
    Opt::optional("retry-quota", COUNT, "max retried probes per chronon"),
];

/// Profile churn; `--churn-arrivals` or `--churn-cancels` turns it on.
#[rustfmt::skip]
const CHURN: &[Opt] = &[
    Opt::optional("churn-arrivals", PROB, "fraction of CEIs registered mid-run"),
    Opt::optional("churn-cancels", PROB, "fraction of CEIs cancelled mid-run"),
    Opt::new("churn-alpha", NON_NEG, "0", "skew churn toward popular resources"),
    Opt::new("churn-delay", COUNT, "4", "max registration delay, chronons"),
    Opt::new("churn-budget-changes", COUNT, "0", "mid-run budget reconfigurations"),
    Opt::new("churn-seed", UNSIGNED, "49374", "churn master seed"),
];

#[rustfmt::skip]
const RUN: &[Opt] = &[
    Opt::optional("workload-spec", PATH, "a WorkloadSpec JSON file; replaces the workload"),
    Opt::flag(
        "offline-lr",
        "add the offline Local-Ratio row (exit 2 on threshold CEIs, or past 2,000,000 \
         expanded CEIs, as at the default --rank 5; --rank 2 or 3 fits)",
    ),
    Opt::optional("metrics", PATH, "write per-policy RunMetrics and consistency checks"),
    Opt::optional("trace-out", PATH, "write repetition 0's JSONL event trace per policy"),
    JSON,
];

const SWEEP: &[Opt] = &[Opt::new("param", SWEEPS, "budget", "swept parameter"), JSON];

const TRACE_CMD: &[Opt] = &[
    TRACE,
    Opt::new("resources", POSITIVE, "100", "number of resources"),
    HORIZON,
    LAMBDA,
    SEED,
];

#[rustfmt::skip]
const SERVE: &[Opt] = &[
    Opt::new("listen", Kind::Text("addr"), "127.0.0.1:7077", "control socket (:0: any port)"),
    Opt::new("chronon-ms", UNSIGNED, "0", "wall-clock ms per chronon; 0 = free-run"),
    Opt::new("policy", POLICIES, "m-edf", "monitoring policy"),
    Opt::flag("np", "non-preemptive variant (default: preemptive)"),
    Opt::new("executor", Kind::Choice(&["replay", "live"]), "replay", "live: real TCP probes"),
    Opt::optional("targets", Kind::Targets, "probe targets, required with --executor live"),
    Opt::new("probe-timeout-ms", Kind::Int(1, u64::MAX), "200", "live probe timeout"),
    Opt::optional("replay-feed", PATH, "build the instance from a CSV update trace"),
    Opt::optional("trace-out", PATH, "write the daemon's JSONL event trace"),
    Opt::optional("sim-trace-out", PATH, "write the simulator's trace of the same case"),
    Opt::optional("journal-dir", DIR, "append a durable run journal to <dir>/run.journal"),
    Opt::new("fsync", Kind::Text("policy"), "every-chronon", "every-chronon, every-<n> or os"),
    Opt::new("snapshot-every", COUNT, "64", "journal a snapshot every n chronons; 0 = never"),
    Opt::optional("recover", DIR, "resume a crashed run; repeat its other options"),
];

#[rustfmt::skip]
const EXPERIMENTS: &[Opt] = &[
    QUICK,
    Opt::optional("out", PATH, "also write the tables as a Markdown report"),
    Opt::optional("metrics", PATH, "run the metrics gate; exit 1 on a violation"),
];

#[rustfmt::skip]
const BENCH: &[Opt] = &[
    QUICK,
    Opt::optional("bench-profiles", Kind::Ladder(1, U32), "override the |P| ladder"),
    Opt::optional("bench-ranks", Kind::Ladder(1, U16), "override the EIs/CEI ladder"),
    Opt::optional("bench-horizons", Kind::Ladder(1, U32), "override the horizon ladder"),
    Opt::optional("bench-budgets", Kind::Ladder(0, U32), "override the budget ladder"),
    Opt::optional("out", PATH, "write the BENCH_engine.json-format report"),
    Opt::optional("check", PATH, "gate against a baseline report; exit 1 on a violation"),
];

/// Every `webmon` command and its options, declared once: parsing,
/// validation, defaults and help all read this table.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "run",
        about: "Run one monitoring experiment and print the policy table",
        groups: &[RUN, WORKLOAD, REPS, FAULTS, RETRY, CHURN, GLOBAL],
    },
    Command {
        name: "sweep",
        about: "Sweep one parameter and print completeness per policy",
        groups: &[SWEEP, WORKLOAD, REPS, RETRY, GLOBAL],
    },
    Command {
        name: "trace",
        about: "Generate a trace and print its statistics",
        groups: &[TRACE_CMD, GLOBAL],
    },
    Command {
        name: "serve",
        about: "Serve repetition 0 of `run` as a daemon; socket lines: ping | attach | \
                register <cei> | cancel <cei> | set-budget <n> | shutdown",
        groups: &[SERVE, WORKLOAD, FAULTS, RETRY, CHURN, GLOBAL],
    },
    Command {
        name: "experiments",
        about: "Run the paper's experiment suite (every figure and table)",
        groups: &[EXPERIMENTS, GLOBAL],
    },
    Command {
        name: "bench",
        about: "Run the engine scaling benchmark; a ladder override replaces the grid",
        groups: &[BENCH, GLOBAL],
    },
    Command {
        name: "help",
        about: "Print every command's options",
        groups: &[GLOBAL],
    },
];

/// Runs the parsed command line; returns the process exit code.
pub fn dispatch(args: &Args) -> Result<i32, ArgError> {
    webmon_sim::parallel::set_jobs(args.value("jobs"));
    let spec = args.spec();
    if args.flag("help") && spec.name != "help" {
        print!("{}", spec.help());
        return Ok(0);
    }
    match spec.name {
        "run" => cmd_run(args),
        "sweep" => cmd_sweep(args),
        "trace" => cmd_trace(args),
        "serve" => cmd_serve(args),
        "experiments" => cmd_experiments(args),
        "bench" => cmd_bench(args),
        _ => {
            print!("{}", crate::args::usage());
            Ok(0)
        }
    }
}

/// The update-event source of `--trace`. An auction lasts at least 10
/// chronons, so it needs a horizon that long.
fn trace_from(args: &Args, n_resources: u32, horizon: u32) -> Result<TraceSpec, ArgError> {
    Ok(match args.value::<String>("trace").as_str() {
        "auction" => {
            let config = AuctionTraceConfig::scaled(n_resources, horizon);
            if config.duration > horizon {
                return Err(ArgError::BadValue {
                    key: "horizon".to_string(),
                    value: horizon.to_string(),
                    expected: format!("at least {} with --trace auction", config.duration),
                });
            }
            TraceSpec::Auction(config)
        }
        "news" => TraceSpec::News(NewsTraceConfig::scaled(n_resources, horizon)),
        "poisson" => TraceSpec::Poisson {
            lambda: args.value("lambda"),
        },
        other => unreachable!("--trace {other} is not a declared choice"),
    })
}

/// Builds an `ExperimentConfig` from the workload options, with
/// `repetitions` repetitions.
fn config_from(args: &Args, repetitions: u32) -> Result<ExperimentConfig, ArgError> {
    let n_resources = args.value("resources");
    let horizon = args.value("horizon");
    let rank = args.value("rank");
    let cfg = ExperimentConfig {
        n_resources,
        horizon,
        budget: args.value("budget"),
        workload: WorkloadConfig {
            n_profiles: args.value("profiles"),
            rank: if args.flag("fixed-rank") {
                RankSpec::Fixed(rank)
            } else {
                RankSpec::UpTo {
                    k: rank,
                    beta: args.value("beta"),
                }
            },
            resource_alpha: args.value("alpha"),
            length: match args.given("window") {
                Some(w) => EiLength::Window(w),
                None => EiLength::Overwrite { max_len: Some(10) },
            },
            distinct_resources: true,
            max_ceis: None,
            no_intra_resource_overlap: false,
        },
        trace: trace_from(args, n_resources, horizon)?,
        noise: args
            .given("noise-z")
            .map(|z| NoiseSpec::Fpn(FpnModel::new(z, 10))),
        repetitions,
        seed: args.value("seed"),
    };
    rank_fits_resources(&cfg)?;
    Ok(cfg)
}

/// A CEI watches distinct resources, so no instance may ask for a rank
/// above the resource count (the generator asserts it).
fn rank_fits_resources(cfg: &ExperimentConfig) -> Result<(), ArgError> {
    let rank = cfg.workload.rank.max_rank();
    if u32::from(rank) > cfg.n_resources {
        return Err(ArgError::BadValue {
            key: "resources".to_string(),
            value: cfg.n_resources.to_string(),
            expected: format!(
                "at least the profile rank {rank} (a CEI watches distinct resources)"
            ),
        });
    }
    Ok(())
}

/// Parses the retry discipline and failure-charging options shared by every
/// fault model.
fn fault_config_from(args: &Args) -> FaultConfig {
    let mut config = FaultConfig::charged();
    if args.flag("fault-free") {
        config = config.free_failures();
    }
    if args.value::<String>("retry") == "backoff" {
        config = config.with_backoff(Backoff::new(1, 8));
    }
    if let Some(quota) = args.given("retry-quota") {
        config = config.with_retry_quota(quota);
    }
    config
}

/// Builds the optional fault scenario of `run` and `serve`. Faults are
/// enabled by `--fault-rate`; without it the run is the fault-free fast
/// path (and [`refuse_unread_options`] refuses the other fault options).
fn fault_from(args: &Args) -> Option<FaultSpec> {
    let rate = args.given("fault-rate")?;
    let kind = match args.value::<String>("fault-model").as_str() {
        "iid" => FaultKind::Iid { rate },
        "burst" => FaultKind::Burst {
            p_fail: rate,
            p_recover: args.value("fault-recover"),
        },
        other => unreachable!("--fault-model {other} is not a declared choice"),
    };
    Some(FaultSpec {
        kind,
        seed: args.value("fault-seed"),
        config: fault_config_from(args),
    })
}

/// Builds the optional churn scenario of `run` and `serve` over an epoch of
/// `horizon` chronons. Churn is enabled by `--churn-arrivals` and/or
/// `--churn-cancels`; without either the run is the static-profile fast
/// path (and [`refuse_unread_options`] refuses the other churn options).
/// The overlay materializes every budget change it is asked for, so more
/// changes than chronons are refused before anything is generated.
fn churn_from(args: &Args, horizon: u32) -> Result<Option<ChurnSpec>, ArgError> {
    let arrivals = args.given("churn-arrivals");
    let cancels = args.given("churn-cancels");
    if arrivals.is_none() && cancels.is_none() {
        return Ok(None);
    }
    let changes: u32 = args.value("churn-budget-changes");
    if changes > horizon {
        return Err(ArgError::BadValue {
            key: "churn-budget-changes".to_string(),
            value: changes.to_string(),
            expected: format!("at most the horizon, {horizon} chronons"),
        });
    }
    let config = webmon_workload::ChurnConfig::new(arrivals.unwrap_or(0.0), cancels.unwrap_or(0.0))
        .with_alpha(args.value("churn-alpha"))
        .with_max_delay(args.value("churn-delay"))
        .with_reconfigurations(changes);
    Ok(Some(ChurnSpec {
        config,
        seed: args.value("churn-seed"),
    }))
}

/// Refuses an option the line gives but the command would not read, with
/// exit 2 naming it. Each rule names options, whether the line makes the
/// command read them, and what reading them needs. Only options given on
/// the line count, not declared defaults, and a rule never matches an
/// option the command does not declare.
fn refuse_unread_options(args: &Args) -> Result<(), ArgError> {
    let command = args.spec();
    // The raw value of `--key` if the line gives it; "" for a flag.
    let given = |key: &str| {
        let declared = command.options().any(|o| o.name == key);
        declared
            .then(|| args.get(key).or(args.flag(key).then_some("")))
            .flatten()
    };
    let sweep = command.name == "sweep";
    let live = command.name == "serve" && args.value::<String>("executor") == "live";
    let faulted =
        given("fault-rate").is_some() || (sweep && args.value::<String>("param") == "fault-rate");
    let rate = if sweep {
        "--param fault-rate (no other sweep injects faults)"
    } else {
        "--fault-rate (without it no probe fails)"
    };
    let rate_or_live = if command.name == "serve" {
        "--fault-rate or --executor live (without either no probe fails)"
    } else {
        rate
    };
    let workload: Vec<&str> = WORKLOAD.iter().chain(REPS).map(|o| o.name).collect();
    #[rustfmt::skip]
    let rules: [(&[&str], bool, &str); 7] = [
        (&["targets", "probe-timeout-ms"], live,
            "--executor live (the replay executor probes no target)"),
        (&["fault-rate", "fault-model", "fault-recover", "fault-seed"], !live,
            "no --executor live (live probes take no fault model)"),
        (&["fault-model", "fault-recover", "fault-seed"], faulted, rate),
        (&["fault-free", "retry", "retry-quota"], faulted || live, rate_or_live),
        (&["churn-alpha", "churn-delay", "churn-budget-changes", "churn-seed"],
            given("churn-arrivals").is_some() || given("churn-cancels").is_some(),
            "--churn-arrivals or --churn-cancels (without either there is no churn)"),
        (&["fsync", "snapshot-every"], given("journal-dir").is_some() || given("recover").is_some(),
            "--journal-dir or --recover (there is no journal to sync or snapshot)"),
        (&workload, given("workload-spec").is_none(),
            "no --workload-spec (the spec carries the workload and its repetitions)"),
    ];
    for (keys, read, expected) in rules {
        if read {
            continue;
        }
        if let Some((key, value)) = keys.iter().find_map(|&k| given(k).map(|v| (k, v))) {
            return Err(ArgError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
                expected: expected.to_string(),
            });
        }
    }
    Ok(())
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

/// Reads the declarative [`WorkloadSpec`] of a `--workload-spec <file>`
/// run. Every failure is a diagnostic string for exit code 2 — never a
/// panic.
fn workload_spec_from_file(path: &str) -> Result<WorkloadSpec, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read workload spec {path}: {e}"))?;
    WorkloadSpec::from_json(&raw).map_err(|e| e.to_string())
}

fn cmd_run(args: &Args) -> Result<i32, ArgError> {
    refuse_unread_options(args)?;
    let spec = match args
        .get("workload-spec")
        .map(workload_spec_from_file)
        .transpose()
    {
        Ok(spec) => spec,
        Err(msg) => {
            eprintln!("error: {msg}");
            return Ok(2);
        }
    };
    let fault = fault_from(args);
    let churn = churn_from(
        args,
        spec.map_or_else(|| args.value("horizon"), |s| s.horizon),
    )?;
    let exp = match spec {
        Some(spec) => match Experiment::materialize_spec(&spec) {
            Ok(exp) => exp,
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(2);
            }
        },
        None => Experiment::materialize(config_from(args, args.value("reps"))?),
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
    refuse_unread_options(args)?;
    let param: String = args.value("param");
    let base = config_from(args, args.value("reps"))?;
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
    // increasing i.i.d. probe loss (the CLI face of the robustness tables).
    if param == "fault-rate" {
        let exp = Experiment::materialize(base);
        let rates = [0.0, 0.1, 0.3, 0.5, 0.7];
        let sweep = exp.robustness_sweep(
            &specs,
            &rates,
            args.value("fault-seed"),
            fault_config_from(args),
        );
        for (rate, roster) in sweep {
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
        "budget" => (1..=5u32)
            .map(|b| {
                let mut c = base.clone();
                c.budget = b;
                (format!("{b}"), c)
            })
            .collect(),
        other => unreachable!("--param {other} is not a declared choice"),
    };
    for (_, cfg) in &points {
        rank_fits_resources(cfg)?;
    }
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
    let n_resources = args.value("resources");
    let horizon = args.value("horizon");
    let spec = trace_from(args, n_resources, horizon)?;
    let trace = spec.generate(n_resources, horizon, &SimRng::new(args.value("seed")));
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
fn policy_spec_from(args: &Args) -> PolicySpec {
    let kind = match args.value::<String>("policy").as_str() {
        "s-edf" => PolicyKind::SEdf,
        "mrsf" => PolicyKind::Mrsf,
        "m-edf" => PolicyKind::MEdf,
        "w-ic" => PolicyKind::Wic,
        "random" => PolicyKind::Random,
        "round-robin" => PolicyKind::RoundRobin,
        other => unreachable!("--policy {other} is not a declared choice"),
    };
    if args.flag("np") {
        PolicySpec::np(kind)
    } else {
        PolicySpec::p(kind)
    }
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
    refuse_unread_options(args)?;
    // The daemon monitors repetition 0, which does not depend on the
    // repetition count: each repetition's seed is forked by its index.
    let cfg = config_from(args, 1)?;
    let fault = fault_from(args);
    let churn = churn_from(args, cfg.horizon)?;
    // Without a fault model the retry flags still shape how executor
    // failures (e.g. live probe timeouts) are charged and retried.
    let fault_config = match fault {
        Some(f) => f.config,
        None => fault_config_from(args),
    };
    let spec = policy_spec_from(args);
    let chronon_ms: u64 = args.value("chronon-ms");

    let fsync_raw: String = args.value("fsync");
    let fsync = fsync_raw
        .parse::<webmon_core::serve::FsyncPolicy>()
        .map_err(|_| ArgError::BadValue {
            key: "fsync".to_string(),
            value: fsync_raw.clone(),
            expected: "every-chronon|every-<n>|os".to_string(),
        })?;
    let snapshot_every: u32 = args.value("snapshot-every");
    let recover_dir = args.get("recover").map(std::path::PathBuf::from);
    let journal_dir = args.get("journal-dir").map(std::path::PathBuf::from);
    if let (Some(r), Some(j)) = (&recover_dir, &journal_dir) {
        if r != j {
            return Err(ArgError::BadValue {
                key: "journal-dir".to_string(),
                value: j.display().to_string(),
                expected: "the same directory as --recover (recovery continues that journal)"
                    .to_string(),
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
            expected: "no --replay-feed (the simulator reference replays the generated trace)"
                .to_string(),
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

    let listen: String = args.value("listen");
    let mut daemon = match Daemon::bind(&listen) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            return Ok(2);
        }
    };
    if let Ok(addr) = daemon.local_addr() {
        eprintln!("serving on {addr}");
    }

    // The daemon probes through one fault model: the seeded one of
    // `--fault-*` (none without `--fault-rate`), or live TCP probes.
    let mut faults: Box<dyn FaultModel> = match args.value::<String>("executor").as_str() {
        "replay" => match fault {
            Some(f) => Box::new(f.build(0, session.instance.n_resources as usize)),
            None => Box::new(NoFaults),
        },
        "live" => {
            let targets = args.list("targets").ok_or_else(|| ArgError::BadValue {
                key: "targets".to_string(),
                value: String::new(),
                expected: "comma-separated ip:port probe targets (required with --executor live)"
                    .to_string(),
            })?;
            let timeout = std::time::Duration::from_millis(args.value("probe-timeout-ms"));
            let tcp = TcpProbeExecutor::new(targets, timeout);
            // A `shutdown` mid-backoff must not wait out in-flight probes:
            // the flag makes every later probe fail instantly.
            let stop = tcp.stop_flag();
            daemon.on_shutdown(std::sync::Arc::new(move || {
                stop.store(true, std::sync::atomic::Ordering::SeqCst);
            }));
            Box::new(tcp)
        }
        other => unreachable!("--executor {other} is not a declared choice"),
    };
    let label = spec.label();
    let n_ceis = session.instance.ceis.len();
    let horizon = session.instance.epoch.len();
    let opts = ServeOptions {
        trace_out: args.get("trace-out").map(std::path::PathBuf::from),
        journal,
        recover: recover_dir.is_some(),
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
    let outcome = match daemon.run_with(session, &mut *faults, make_clock, opts) {
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

fn scale_from(args: &Args) -> webmon_bench::Scale {
    if args.flag("quick") {
        webmon_bench::Scale::Quick
    } else {
        webmon_bench::Scale::Paper
    }
}

/// Runs the suite, printing each table as it completes and logging timings
/// to stderr; `--out` writes the Markdown report (the measured half of
/// `EXPERIMENTS.md`), `--metrics` runs the CI metrics gate.
fn cmd_experiments(args: &Args) -> Result<i32, ArgError> {
    use webmon_sim::parallel;
    let scale = scale_from(args);
    let mut report = format!(
        "# Measured results\n\nScale: `{scale:?}` — regenerate with \
         `cargo run --release -p webmon-cli -- experiments{}`.\n\n",
        if scale == webmon_bench::Scale::Quick {
            " --quick"
        } else {
            ""
        }
    );
    let jobs = parallel::effective_jobs();
    eprintln!(">> workers: {jobs}");
    parallel::reset_busy_time();
    let total = Instant::now();
    for (name, runner) in webmon_bench::SUITE {
        eprintln!(">> running {name} ...");
        let start = Instant::now();
        let tables = runner(scale);
        eprintln!(">> {name} done in {:.1?}", start.elapsed());
        webmon_bench::print_tables(&tables);
        report.push_str(&webmon_bench::tables_to_markdown(&tables));
        report.push('\n');
    }
    let wall = total.elapsed().as_secs_f64();
    let busy = parallel::busy_time_secs();
    eprintln!(
        ">> suite done in {:.1?} ({jobs} workers; {busy:.1}s of work, {:.2}x achieved speedup)",
        total.elapsed(),
        if wall > 0.0 { busy / wall } else { 1.0 },
    );

    if let Some(path) = args.get("out") {
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("error: cannot write {path}: {e}");
            return Ok(1);
        }
        eprintln!(">> wrote {path}");
    }
    if let Some(path) = args.get("metrics") {
        eprintln!(">> running metrics gate ...");
        let gate = webmon_bench::metrics::collect(scale);
        if let Err(e) = std::fs::write(path, gate.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return Ok(1);
        }
        eprintln!(">> wrote {path}");
        let violations = gate.violations();
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("!! metrics gate: {v}");
            }
            return Ok(1);
        }
        eprintln!(">> metrics gate clean ({} cells)", gate.cells.len());
    }
    Ok(0)
}

fn cmd_bench(args: &Args) -> Result<i32, ArgError> {
    use webmon_bench::scale::{self, BenchReport, CellDims};

    let scale = scale_from(args);
    let base = CellDims {
        profiles: 150,
        rank: 3,
        horizon: 300,
        budget: 2,
    };
    let profiles = args.list("bench-profiles");
    let ranks = args.list("bench-ranks");
    let horizons = args.list("bench-horizons");
    let budgets = args.list("bench-budgets");

    // Axis overrides replace the whole grid with the cross product of the
    // ladders (unlisted axes stay at the base point), so the default churn
    // ladder would not match any baseline made from them — skip it.
    let report = if profiles.is_none() && ranks.is_none() && horizons.is_none() && budgets.is_none()
    {
        scale::collect(scale)
    } else {
        let mut cells = Vec::new();
        for &profiles in profiles.as_deref().unwrap_or(&[base.profiles]) {
            for &rank in ranks.as_deref().unwrap_or(&[base.rank]) {
                for &horizon in horizons.as_deref().unwrap_or(&[base.horizon]) {
                    for &budget in budgets.as_deref().unwrap_or(&[base.budget]) {
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
        scale::collect_grid(scale, &cells, &scale::roster(scale), &[])
    };
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
            eprintln!(
                "(if this change is an accepted perf shift, re-baseline with \
                 `webmon bench --quick --out {path}` and commit the diff)"
            );
            return Ok(1);
        }
        println!("bench gate: OK ({} cells vs {path})", report.cells.len());
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap()
    }

    /// The error a command line is rejected with, at parse time.
    fn rejected(toks: &[&str]) -> ArgError {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap_err()
    }

    fn config(toks: &[&str]) -> Result<ExperimentConfig, ArgError> {
        let args = parse(toks);
        config_from(&args, args.value("reps"))
    }

    /// Each command line here used to panic (exit 101) or run a silently
    /// different experiment; each is now an `ArgError` (exit 2) before
    /// anything runs. The small sizes keep every row fast wherever it runs.
    #[test]
    fn inputs_that_ran_silently_or_panicked_are_arg_errors() {
        #[rustfmt::skip]
        const RUN: [&str; 8] =
            ["--resources", "20", "--horizon", "50", "--profiles", "3", "--reps", "1"];
        #[rustfmt::skip]
        const SERVE: [&str; 8] =
            ["--listen", "127.0.0.1:0", "--resources", "20", "--horizon", "50", "--profiles", "3"];
        #[rustfmt::skip]
        const LIVE: [&str; 12] = [
            "--listen", "127.0.0.1:0", "--resources", "20", "--horizon", "50", "--profiles", "3",
            "--executor", "live", "--targets", "127.0.0.1:9",
        ];
        // A `--workload-spec` line: the spec carries the workload.
        let mut spec = WorkloadSpec::paper_baseline();
        spec.resources = 20;
        spec.horizon = 50;
        spec.profiles = 3;
        spec.repetitions = 1;
        let spec_path = std::env::temp_dir().join(format!(
            "webmon_cli_unread_options_{}.json",
            std::process::id()
        ));
        std::fs::write(&spec_path, spec.to_json()).unwrap();
        let spec_line = ["--workload-spec", spec_path.to_str().unwrap()];
        const NO_RATE: &str = "expected --fault-rate (";
        const NO_SWEPT_RATE: &str = "expected --param fault-rate (";
        const NO_CHURN: &str = "expected --churn-arrivals or --churn-cancels (";
        // (command, offending options, the rest of the line, what the error names)
        #[rustfmt::skip]
        let rows: &[(&str, &[&str], &[&str], &str)] = &[
            ("run", &["--lambda", "-5"], &RUN, "--lambda -5"),
            ("run", &["--lambda", "NaN"], &RUN, "--lambda NaN"),
            ("run", &["--noise-z", "5"], &RUN, "--noise-z 5"),
            ("run", &["--rank", "0"], &RUN, "--rank 0"),
            ("bench", &["--bench-ranks", "0"], &["--quick"], "--bench-ranks 0"),
            ("run", &["--fault-rat", "0.3"], &RUN, "--fault-rate"),
            ("serve", &["--snapshot-evry", "5"], &SERVE, "--snapshot-every"),
            ("run", &["--trace", "auctoin"], &RUN, "--trace auctoin"),
            ("sweep", &["--param", "lamda"], &RUN, "--param lamda"),
            ("run", &["--json", "yes"], &RUN, "--json"),
            ("serve", &["--np", "1"], &SERVE, "--np"),
            ("bench", &["--check"], &["--quick", "--bench-profiles", "10"], "--check"),
            ("run", &["--fault-recover", "0"], &RUN, "--fault-recover 0"),
            ("run", &["--fault-recover", "7"], &RUN, "--fault-recover 7"),
            ("run", &["--fault-recover", "NaN"], &RUN, "--fault-recover NaN"),
            ("serve", &["--probe-timeout-ms", "0"], &SERVE, "--probe-timeout-ms 0"),
            ("serve", &["--targets", "127.0.0.1:9"], &SERVE, "--targets"),
            ("serve", &["--probe-timeout-ms", "50"], &SERVE, "--probe-timeout-ms"),
            ("serve", &["--fault-rate", "0.3"], &LIVE, "--fault-rate"),
            ("serve", &["--fault-model", "iid"], &LIVE, "--fault-model"),
            ("serve", &["--fault-recover", "0.5"], &LIVE, "--fault-recover"),
            ("serve", &["--fault-seed", "7"], &LIVE, "--fault-seed"),
            ("serve", &["--fsync", "os"], &SERVE, "--fsync"),
            ("serve", &["--snapshot-every", "5"], &SERVE, "--snapshot-every"),
            // Options the line gives but the command does not read.
            ("run", &["--fault-model", "burst"], &RUN, NO_RATE),
            ("run", &["--fault-recover", "0.6"], &RUN, NO_RATE),
            ("run", &["--fault-seed", "5"], &RUN, NO_RATE),
            ("serve", &["--fault-model", "burst", "--fault-seed", "5", "--retry", "backoff"], &SERVE,
                "--fault-model burst: expected --fault-rate ("),
            ("serve", &["--fault-seed", "5"], &SERVE, NO_RATE),
            ("run", &["--retry", "backoff", "--fault-free"], &RUN, "--fault-free"),
            ("run", &["--retry", "backoff"], &RUN, NO_RATE),
            ("run", &["--retry-quota", "2"], &RUN, NO_RATE),
            ("serve", &["--retry", "backoff"], &SERVE, "expected --fault-rate or --executor live"),
            ("sweep", &["--retry", "backoff", "--param", "budget"], &RUN, NO_SWEPT_RATE),
            ("sweep", &["--fault-seed", "5"], &RUN, NO_SWEPT_RATE),
            ("run", &["--churn-seed", "5", "--churn-budget-changes", "3"], &RUN, NO_CHURN),
            ("run", &["--churn-alpha", "1.37"], &RUN, NO_CHURN),
            ("run", &["--churn-delay", "2"], &RUN, NO_CHURN),
            ("serve", &["--churn-seed", "5"], &SERVE, NO_CHURN),
            ("run", &["--resources", "20"], &spec_line, "--resources 20: expected no --workload-spec"),
            ("run", &["--fixed-rank"], &spec_line, "--fixed-rank"),
            ("run", &["--reps", "1"], &spec_line, "--reps 1: expected no --workload-spec"),
            // One budget change more than the 50-chronon horizon, given or
            // carried by the spec.
            ("run", &["--churn-arrivals", "0.5", "--churn-budget-changes", "51"], &RUN,
                "--churn-budget-changes 51: expected at most the horizon, 50"),
            ("run", &["--churn-arrivals", "0.5", "--churn-budget-changes", "51"], &spec_line,
                "--churn-budget-changes 51: expected at most the horizon, 50"),
        ];
        for &(command, offending, rest, named) in rows {
            let mut argv = vec![command];
            argv.extend_from_slice(offending);
            argv.extend_from_slice(rest);
            let outcome =
                Args::parse(argv.iter().map(|s| s.to_string())).and_then(|a| dispatch(&a));
            match outcome {
                Err(e) => assert!(e.to_string().contains(named), "{argv:?}: {e}"),
                Ok(code) => panic!("{argv:?} ran (exit {code}) instead of being rejected"),
            }
        }
        std::fs::remove_file(&spec_path).ok();
        // A dangling value option at the end of the line.
        let mut argv = vec!["run"];
        argv.extend_from_slice(&RUN);
        argv.push("--lambda");
        assert_eq!(
            Args::parse(argv.iter().map(|s| s.to_string())).and_then(|a| dispatch(&a)),
            Err(ArgError::MissingValue("lambda".into()))
        );
        // `--help` documents the command without building its experiment:
        // this one cannot be built (rank 5 needs at least 5 resources).
        assert_eq!(
            dispatch(&parse(&["run", "--help", "--resources", "4"])),
            Ok(0)
        );
        assert!(config(&["run", "--resources", "4"]).is_err());
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = config(&["run"]).unwrap();
        assert_eq!(cfg.budget, 1);
        assert_eq!(cfg.n_resources, 200);
        assert!(matches!(cfg.trace, TraceSpec::Poisson { .. }));
        assert!(cfg.noise.is_none());
    }

    #[test]
    fn config_honors_options() {
        let cfg = config(&[
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
        ])
        .unwrap();
        assert_eq!(cfg.budget, 3);
        assert!(matches!(cfg.trace, TraceSpec::Auction(_)));
        assert_eq!(cfg.workload.rank, RankSpec::Fixed(2));
        assert_eq!(cfg.workload.length, EiLength::Window(5));
        assert!(cfg.noise.is_some());
    }

    #[test]
    fn bad_value_is_reported() {
        let err = rejected(&["run", "--budget", "lots"]);
        assert!(matches!(err, ArgError::BadValue { .. }));
    }

    #[test]
    fn dispatch_help_and_unknown() {
        assert_eq!(dispatch(&parse(&["help"])).unwrap(), 0);
        assert_eq!(dispatch(&parse(&[])).unwrap(), 0);
        assert_eq!(
            rejected(&["frobnicate"]),
            ArgError::UnknownCommand("frobnicate".into())
        );
    }

    #[test]
    fn suite_covers_all_artifacts() {
        assert_eq!(webmon_bench::SUITE.len(), 13);
    }

    #[test]
    fn degenerate_sizes_are_structured_errors() {
        for key in ["resources", "horizon", "budget", "profiles", "reps"] {
            let err = rejected(&["run", &format!("--{key}"), "0"]);
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
            let err = rejected(&["trace", &format!("--{key}"), "0"]);
            assert!(
                matches!(err, ArgError::BadValue { key: ref k, .. } if k == key),
                "trace --{key} 0 must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn faults_are_off_without_a_rate() {
        assert_eq!(fault_from(&parse(&["run"])), None);
        // Retry flags alone do not enable fault injection.
        assert_eq!(fault_from(&parse(&["run", "--retry", "backoff"])), None);
    }

    #[test]
    fn fault_flags_build_the_spec() {
        let f = fault_from(&parse(&["run", "--fault-rate", "0.3"])).unwrap();
        assert_eq!(f.kind, FaultKind::Iid { rate: 0.3 });
        assert_eq!(f.seed, 0xFA17);
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
            let err = rejected(&toks);
            assert!(
                matches!(err, ArgError::BadValue { .. }),
                "{toks:?}: {err:?}"
            );
        }
    }

    #[test]
    fn churn_is_off_without_a_rate() {
        assert_eq!(churn_from(&parse(&["run"]), 1000), Ok(None));
        // Secondary churn knobs alone do not enable churn.
        assert_eq!(
            churn_from(&parse(&["run", "--churn-alpha", "1.0"]), 1000),
            Ok(None)
        );
    }

    #[test]
    fn churn_flags_build_the_spec() {
        let c = churn_from(&parse(&["run", "--churn-arrivals", "0.3"]), 1000)
            .unwrap()
            .unwrap();
        assert_eq!(c.config.arrival_rate, 0.3);
        assert_eq!(c.config.cancel_rate, 0.0);
        assert_eq!(c.seed, 0xC0DE);

        let c = churn_from(
            &parse(&[
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
            ]),
            1000,
        )
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
            let err = rejected(&toks);
            assert!(
                matches!(err, ArgError::BadValue { .. }),
                "{toks:?}: {err:?}"
            );
        }
    }

    #[test]
    fn negative_or_nonfinite_skew_exponents_are_rejected() {
        // Regression: these used to slip through and panic in `Zipf::new`
        // deep inside workload generation (or, with churn off, be silently
        // accepted).
        for (toks, key) in [
            (vec!["run", "--alpha", "-2"], "alpha"),
            (vec!["run", "--alpha", "inf"], "alpha"),
            (vec!["run", "--alpha", "NaN"], "alpha"),
            (vec!["run", "--beta", "-0.5"], "beta"),
        ] {
            let err = rejected(&toks);
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
            let err = rejected(&toks);
            assert!(
                matches!(err, ArgError::BadValue { key: ref k, .. } if k == "churn-alpha"),
                "{toks:?}: {err:?}"
            );
        }
        // A valid exponent still builds the spec.
        let c = churn_from(
            &parse(&["run", "--churn-arrivals", "0.1", "--churn-alpha", "1.37"]),
            1000,
        )
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
        let a = parse(&[
            "bench",
            "--bench-profiles",
            "10, 20,30",
            "--bench-budgets",
            "0,1",
        ]);
        assert_eq!(a.list::<u32>("bench-profiles"), Some(vec![10, 20, 30]));
        assert_eq!(a.list::<u32>("bench-budgets"), Some(vec![0, 1]));
        assert_eq!(a.list::<u16>("bench-ranks"), None);
        for toks in [
            vec!["bench", "--bench-ranks", "3,x"],
            vec!["bench", "--bench-ranks", "3,"],
            vec!["bench", "--bench-ranks", "70000"],
        ] {
            let err = rejected(&toks);
            assert!(
                matches!(err, ArgError::BadValue { ref key, .. } if key == "bench-ranks"),
                "{toks:?}: {err:?}"
            );
        }
    }

    #[test]
    fn bench_rejects_zero_dimensions() {
        for key in ["bench-profiles", "bench-ranks", "bench-horizons"] {
            let err = rejected(&["bench", &format!("--{key}"), "1,0"]);
            assert!(matches!(err, ArgError::BadValue { key: ref k, .. } if k == key));
        }
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
        let spec = policy_spec_from(&parse(&["serve"]));
        assert_eq!(spec, PolicySpec::p(PolicyKind::MEdf));
        let spec = policy_spec_from(&parse(&["serve", "--policy", "mrsf", "--np"]));
        assert_eq!(spec, PolicySpec::np(PolicyKind::Mrsf));
        let err = rejected(&["serve", "--policy", "oracle"]);
        assert!(matches!(err, ArgError::BadValue { ref key, .. } if key == "policy"));
    }

    #[test]
    fn serve_targets_parse_and_reject() {
        let a = parse(&["serve", "--targets", "127.0.0.1:80, 127.0.0.1:8080"]);
        let targets: Vec<std::net::SocketAddr> = a.list("targets").unwrap();
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[1].port(), 8080);
        for target in ["not-an-addr", "db:5432", ""] {
            let err = rejected(&["serve", "--targets", target]);
            assert!(
                matches!(err, ArgError::BadValue { ref key, .. } if key == "targets"),
                "{target:?}: {err:?}"
            );
        }
        // The live executor needs targets.
        let err = cmd_serve(&parse(&[
            "serve",
            "--executor",
            "live",
            "--listen",
            "127.0.0.1:0",
            "--resources",
            "10",
            "--horizon",
            "20",
            "--profiles",
            "3",
        ]))
        .unwrap_err();
        assert!(matches!(err, ArgError::BadValue { ref key, .. } if key == "targets"));
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
    fn recover_refuses_a_journal_of_another_fault_model_with_exit_1() {
        use webmon_core::serve::journal::JOURNAL_FILE;
        let dir = std::env::temp_dir().join(format!(
            "webmon-cli-fault-fingerprint-{}",
            std::process::id()
        ));
        let dir_arg = dir.to_str().unwrap().to_string();
        let serve = |faults: &[&str], journal: &[&str]| {
            #[rustfmt::skip]
            let mut argv = vec![
                "serve", "--listen", "127.0.0.1:0", "--resources", "10", "--horizon", "30",
                "--profiles", "3", "--retry", "backoff",
            ];
            argv.extend_from_slice(faults);
            argv.extend_from_slice(journal);
            cmd_serve(&parse(&argv)).unwrap()
        };
        let written = ["--fault-rate", "0.3", "--fault-seed", "77"];
        assert_eq!(serve(&written, &["--journal-dir", &dir_arg]), 0);
        let path = dir.join(JOURNAL_FILE);
        let journal = std::fs::read(&path).unwrap();
        // Each differs from the written run only in its fault model, which
        // the journal's fingerprint names.
        let burst = [
            "--fault-rate",
            "0.3",
            "--fault-seed",
            "77",
            "--fault-model",
            "burst",
        ];
        let others: [&[&str]; 3] = [
            &["--fault-rate", "0.3", "--fault-seed", "78"],
            &["--fault-rate", "0.4", "--fault-seed", "77"],
            &burst,
        ];
        for other in others {
            assert_eq!(serve(other, &["--recover", &dir_arg]), 1, "{other:?}");
            let untouched = std::fs::read(&path).unwrap();
            assert!(
                untouched == journal,
                "{other:?}: a refused recovery writes nothing"
            );
        }
        assert_eq!(serve(&written, &["--recover", &dir_arg]), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_bad_executor() {
        let err = rejected(&[
            "serve",
            "--resources",
            "10",
            "--horizon",
            "20",
            "--profiles",
            "3",
            "--listen",
            "127.0.0.1:0",
            "--executor",
            "psychic",
        ]);
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
