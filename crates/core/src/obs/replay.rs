//! Pure re-derivation of [`RunMetrics`] from a persisted JSONL trace.
//!
//! A [`JsonlTraceObserver`](super::JsonlTraceObserver) trace is a lossless
//! transcript of a run's event stream, so every in-run aggregate must be
//! recomputable from the bytes alone. [`replay_metrics`] parses a trace and
//! folds it through a fresh [`MetricsObserver`] — by construction the result
//! is the *same code path* the live observer ran, so a live-vs-replay
//! comparison checks the trace layer (serialization, ordering, completeness)
//! rather than re-deriving the aggregation twice.
//!
//! The differential harness asserts byte-for-byte equality of the serialized
//! metrics: `serde_json::to_string(&live) == serde_json::to_string(&replayed)`.

use super::{Event, MetricsObserver, Observer, RunMetrics};
use std::fmt;

/// A trace line that could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line number in the trace.
    pub line: usize,
    /// The parse error, verbatim.
    pub detail: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for ReplayError {}

/// Parses a JSONL trace back into its typed [`Event`] sequence.
///
/// Blank lines are skipped (a flushed-but-unterminated final line is not);
/// any malformed line aborts the replay with its line number.
pub fn replay_events(trace: &str) -> Result<Vec<Event>, ReplayError> {
    let mut events = Vec::new();
    for (i, line) in trace.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let event: Event = serde_json::from_str(line).map_err(|e| ReplayError {
            line: i + 1,
            detail: e.to_string(),
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Re-derives [`RunMetrics`] from a persisted JSONL trace by folding the
/// parsed events through a fresh [`MetricsObserver`] — for a faithful trace
/// the result equals the live observer's metrics exactly (including the
/// histogram buckets and `runs == 1`).
pub fn replay_metrics(trace: &str) -> Result<RunMetrics, ReplayError> {
    let mut observer = MetricsObserver::new();
    for event in replay_events(trace)? {
        observer.on_event(event);
    }
    Ok(observer.finish())
}

#[cfg(test)]
mod tests {
    use super::super::JsonlTraceObserver;
    use super::*;
    use crate::engine::{EngineConfig, OnlineEngine};
    use crate::model::{Budget, InstanceBuilder};
    use crate::obs::Tee;
    use crate::policy::Mrsf;

    fn traced_run() -> (String, RunMetrics) {
        let mut b = InstanceBuilder::new(3, 12, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 3), (1, 2, 5)]);
        b.cei_threshold(p, 1, &[(1, 4, 8), (2, 4, 9)]);
        b.cei(p, &[(2, 10, 10)]);
        let instance = b.build();
        let mut tee = Tee(MetricsObserver::new(), JsonlTraceObserver::new(Vec::new()));
        OnlineEngine::run_observed(&instance, &Mrsf, EngineConfig::preemptive(), &mut tee);
        let Tee(metrics, trace) = tee;
        let bytes = trace.finish().expect("Vec<u8> sink cannot fail");
        (String::from_utf8(bytes).unwrap(), metrics.finish())
    }

    #[test]
    fn replay_reproduces_live_metrics_exactly() {
        let (trace, live) = traced_run();
        let replayed = replay_metrics(&trace).unwrap();
        assert_eq!(live, replayed);
        // Byte-for-byte: the serialized forms are identical too.
        assert_eq!(
            serde_json::to_string(&live).unwrap(),
            serde_json::to_string(&replayed).unwrap()
        );
    }

    #[test]
    fn replay_round_trips_every_event_kind() {
        let (trace, _) = traced_run();
        let events = replay_events(&trace).unwrap();
        assert_eq!(
            events.len(),
            trace.lines().filter(|l| !l.is_empty()).count()
        );
        // Re-encoding the parsed events reproduces the trace bytes.
        let mut out = String::new();
        for e in &events {
            e.write_jsonl(&mut out);
        }
        assert_eq!(out, trace);
    }

    #[test]
    fn malformed_line_reports_its_position() {
        let (trace, _) = traced_run();
        let mut lines: Vec<&str> = trace.lines().collect();
        lines.insert(2, "{\"NotAnEvent\":{}}");
        let bad = lines.join("\n");
        let err = replay_metrics(&bad).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("trace line 3"), "{err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let (trace, live) = traced_run();
        let padded = format!("\n{trace}\n\n");
        assert_eq!(replay_metrics(&padded).unwrap(), live);
    }
}
