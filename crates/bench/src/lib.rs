#![warn(missing_docs)]

//! # webmon-bench
//!
//! The experiment harness: regenerates **every table and figure** of the
//! evaluation section (Section V) of *Web Monitoring 2.0*.
//!
//! Each module corresponds to one artifact of the paper and exposes a
//! `run(scale) -> Vec<Table>` function; [`SUITE`] lists them in report
//! order, and `webmon experiments` runs the full suite (writing Markdown
//! suitable for `EXPERIMENTS.md`).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table I — controlled parameters |
//! | [`fig09`] | Fig. 9 — preemptive vs non-preemptive |
//! | [`fig10`] | Fig. 10 — online policies vs offline approximation |
//! | [`runtime_offline`] | §V-D — offline vs online runtime (msec/EI) |
//! | [`fig11`] | Fig. 11 — online runtime scalability |
//! | [`fig12`] | Fig. 12 — completeness vs update intensity |
//! | [`fig13`] | Fig. 13 — completeness vs budget |
//! | [`fig14`] | Fig. 14 — skew in resource access (α) + rank variance (β) |
//! | [`fig15`] | Fig. 15 — sensitivity to update-model noise (FPN(Z)) |
//! | [`ablations`] | DESIGN.md §5 — design-choice ablations |
//! | [`extensions`] | §III/§VII future-work extensions: utilities, thresholds, probe costs |
//! | [`faults`] | Robustness — completeness under fault-injected probing (not in the paper) |
//! | [`skew`] | Skewed workloads — degradation under bursty updates and placement skew (not in the paper) |
//!
//! [`scale`] is not a paper artifact either: it is the engine scaling
//! benchmark (`webmon bench`), sweeping instance size × policies × selection
//! strategies and emitting the `BENCH_engine.json` perf baseline that the
//! CI `bench-smoke` job gates on; it also prints the policy evaluation
//! cost `τ(Φ)`.
//!
//! [`metrics`] is not a paper artifact: it is the CI metrics gate, running
//! the roster under [`webmon_core::obs::MetricsObserver`] and
//! cross-checking metrics, schedule feasibility, and wasted probes (the
//! `metrics.json` artifact of `webmon experiments --metrics`).

pub mod ablations;
pub mod extensions;
pub mod faults;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod metrics;
pub mod runtime_offline;
pub mod scale;
pub mod skew;
pub mod table1;

use webmon_sim::Table;

/// Experiment scale: `Paper` reproduces the paper's dimensions; `Quick`
/// shrinks sizes and repetitions for smoke tests and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes, 2 repetitions — seconds per experiment.
    Quick,
    /// The paper's dimensions, 10 repetitions.
    Paper,
}

impl Scale {
    /// Repetition count at this scale (paper: 10).
    pub fn repetitions(self) -> u32 {
        match self {
            Scale::Quick => 2,
            Scale::Paper => 10,
        }
    }
}

/// One artifact's experiment: its tables at a scale.
pub type Runner = fn(Scale) -> Vec<Table>;

/// The experiment suite, in report order: every table and figure of
/// Section V, the ablations, the extensions, and the two studies that are
/// not in the paper.
pub const SUITE: &[(&str, Runner)] = &[
    ("Table I", table1::run),
    ("Figure 9", fig09::run),
    ("Figure 10", fig10::run),
    ("§V-D runtime", runtime_offline::run),
    ("Figure 11", fig11::run),
    ("Figure 12", fig12::run),
    ("Figure 13", fig13::run),
    ("Figure 14", fig14::run),
    ("Figure 15", fig15::run),
    ("Ablations", ablations::run),
    ("Extensions", extensions::run),
    ("Robustness", faults::run),
    ("Skewed workloads", skew::run),
];

/// Prints tables to stdout.
pub fn print_tables(tables: &[Table]) {
    for t in tables {
        println!("{t}");
    }
}

/// Renders tables as Markdown (for `EXPERIMENTS.md`).
pub fn tables_to_markdown(tables: &[Table]) -> String {
    tables
        .iter()
        .map(Table::to_markdown)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_repetitions() {
        assert_eq!(Scale::Quick.repetitions(), 2);
        assert_eq!(Scale::Paper.repetitions(), 10);
    }

    #[test]
    fn markdown_concatenates_tables() {
        let mut t = Table::with_headers("A", &["x"]);
        t.push_row(vec!["1".into()]);
        let md = tables_to_markdown(&[t.clone(), t]);
        assert_eq!(md.matches("**A**").count(), 2);
    }
}
