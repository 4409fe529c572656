//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and the metrics by name with their units.

use std::fmt::Write as _;

#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run attempted (engine calls, or due registrations).
    pub attempted: u64,
    /// Attempted operations that failed, plus failed output checks.
    pub failed: u64,
    /// Human-readable descriptions of every failed check.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed output check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records a check that must hold.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line. A metric that is not a finite number is a defect
    /// of the benchmark and fails the run.
    pub fn json(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(name, v, _)| format!("metric {name} is {v}"))
            .collect();
        for problem in bad {
            self.fail(problem);
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
