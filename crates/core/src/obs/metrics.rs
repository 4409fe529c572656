//! In-run metric aggregation: [`MetricsObserver`] folds the engine's event
//! stream into a serializable [`RunMetrics`] — counters plus fixed-bucket
//! [`Histogram`]s — with no locking (one observer per run) and no
//! allocation after construction.

use super::{Event, Observer};
use crate::stats::RunStats;
use serde::{Deserialize, Serialize};

/// A fixed-bucket histogram over `u64` samples.
///
/// Buckets are defined by a sorted list of **inclusive upper bounds**; a
/// final implicit overflow bucket catches everything above the last bound.
/// Bounds are fixed at construction, so merging per-repetition histograms
/// (across workers, in repetition order) is exact and deterministic —
/// unlike quantile sketches, which this deliberately is not.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Histogram {
    /// Sorted inclusive upper bounds; the overflow bucket is implicit.
    pub bounds: Vec<u64>,
    /// Sample counts per bucket; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples (for exact means).
    pub sum: u64,
    /// Largest sample seen; 0 when empty.
    pub max: u64,
}

impl Histogram {
    /// A histogram with the given sorted inclusive upper bounds.
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Power-of-two bounds up to `cap` (0, 1, 2, 4, …, cap), the default
    /// shape for open-ended size/latency distributions.
    pub fn pow2(cap: u64) -> Self {
        let mut bounds = vec![0u64, 1];
        let mut b = 2u64;
        while b <= cap {
            bounds.push(b);
            b *= 2;
        }
        Histogram::with_bounds(bounds)
    }

    /// Decile bounds over percentages (0, 10, …, 100) for per-chronon
    /// budget-utilization samples.
    pub fn percent() -> Self {
        Histogram::with_bounds((0..=10).map(|d| d * 10).collect())
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Mean of all samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Folds another histogram with **identical bounds** into this one.
    ///
    /// # Panics
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// `(label, count)` rows for rendering, e.g. `("≤4", 17)`, with the
    /// overflow bucket labelled `">last"`.
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = self
            .bounds
            .iter()
            .zip(&self.counts)
            .map(|(b, &c)| (format!("≤{b}"), c))
            .collect();
        rows.push((
            format!(">{}", self.bounds.last().copied().unwrap_or(0)),
            *self.counts.last().expect("overflow bucket"),
        ));
        rows
    }
}

/// Serializable aggregate metrics of one (or several merged) engine runs —
/// the machine-readable substrate for perf gates and dashboards.
///
/// Counter totals are exact mirrors of [`RunStats`] (see
/// [`consistency_errors`](Self::consistency_errors)); the histograms add
/// the *inside-the-run* distributions `RunStats` cannot express: candidate
/// pool growth, capture latency, probe-sharing fan-out, and per-chronon
/// budget utilization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Engine runs merged into this record.
    pub runs: u64,
    /// Chronons executed across all merged runs.
    pub chronons: u64,
    /// Probes issued (mirror of [`RunStats::probes_used`]).
    pub probes_issued: u64,
    /// Budget units spent (mirror of [`RunStats::budget_spent`]).
    pub budget_spent: u64,
    /// Budget units available (mirror of [`RunStats::probes_available`]).
    pub budget_available: u64,
    /// EIs captured (mirror of [`RunStats::eis_captured`]).
    pub eis_captured: u64,
    /// CEIs that crossed their threshold (mirror of
    /// [`RunStats::ceis_captured`]).
    pub ceis_completed: u64,
    /// CEIs doomed by an expiry (mirror of [`RunStats::ceis_failed`]).
    pub ceis_expired: u64,
    /// Chronons whose budget ran out with live candidates still waiting.
    pub exhausted_chronons: u64,
    /// Live candidates left waiting, summed over exhausted chronons.
    pub deferred_candidates: u64,
    /// Live candidate-pool size, sampled once per chronon.
    pub candidate_set: Histogram,
    /// Capture latency (chronons from window open to capture) per EI.
    pub capture_latency: Histogram,
    /// Intra-resource sharing fan-out (EIs captured) per probe.
    pub probe_fanout: Histogram,
    /// Per-chronon budget utilization percent (chronons with zero budget
    /// are not sampled — nothing could be probed).
    pub budget_utilization: Histogram,
    /// Probe attempts rejected by the fault model (mirror of
    /// [`RunStats::probes_failed`]).
    #[serde(default)]
    pub probes_failed: u64,
    /// Retry attempts: probes issued against a resource with at least one
    /// consecutive failure.
    #[serde(default)]
    pub probes_retried: u64,
    /// Budget units charged to failed probes (mirror of
    /// [`RunStats::budget_lost`]).
    #[serde(default)]
    pub budget_lost: u64,
    /// Resource outages started (one per `ResourceDown` transition; an
    /// outage still open at epoch end is counted here but not in
    /// [`outage_length`](Self::outage_length)).
    #[serde(default)]
    pub resource_outages: u64,
    /// CEIs shed by graceful degradation (mirror of
    /// [`RunStats::ceis_shed`]).
    #[serde(default)]
    pub ceis_shed: u64,
    /// CEIs registered mid-run through the mutation API.
    #[serde(default)]
    pub ceis_registered: u64,
    /// CEIs cancelled mid-run through the mutation API (mirror of
    /// [`RunStats::ceis_cancelled`]).
    #[serde(default)]
    pub ceis_cancelled: u64,
    /// Budget reconfigurations drained mid-run.
    #[serde(default)]
    pub budget_reconfigurations: u64,
    /// Consecutive-failure count per retry attempt.
    #[serde(default = "retry_attempts_histogram")]
    pub retry_attempts: Histogram,
    /// Completed outage lengths in chronons (outages still open at epoch
    /// end are not sampled).
    #[serde(default = "outage_length_histogram")]
    pub outage_length: Histogram,
}

/// Default bucket layout for [`RunMetrics::retry_attempts`].
fn retry_attempts_histogram() -> Histogram {
    Histogram::pow2(32)
}

/// Default bucket layout for [`RunMetrics::outage_length`].
fn outage_length_histogram() -> Histogram {
    Histogram::pow2(256)
}

impl Default for RunMetrics {
    fn default() -> Self {
        RunMetrics {
            runs: 0,
            chronons: 0,
            probes_issued: 0,
            budget_spent: 0,
            budget_available: 0,
            eis_captured: 0,
            ceis_completed: 0,
            ceis_expired: 0,
            exhausted_chronons: 0,
            deferred_candidates: 0,
            candidate_set: Histogram::pow2(4096),
            capture_latency: Histogram::pow2(256),
            probe_fanout: Histogram::pow2(32),
            budget_utilization: Histogram::percent(),
            probes_failed: 0,
            probes_retried: 0,
            budget_lost: 0,
            resource_outages: 0,
            ceis_shed: 0,
            ceis_registered: 0,
            ceis_cancelled: 0,
            budget_reconfigurations: 0,
            retry_attempts: retry_attempts_histogram(),
            outage_length: outage_length_histogram(),
        }
    }
}

impl RunMetrics {
    /// Folds another `RunMetrics` into this one. Exact and associative, so
    /// aggregating per-repetition metrics in repetition order yields the
    /// same result for every worker count (the PR-1 determinism contract).
    pub fn merge(&mut self, other: &RunMetrics) {
        self.runs += other.runs;
        self.chronons += other.chronons;
        self.probes_issued += other.probes_issued;
        self.budget_spent += other.budget_spent;
        self.budget_available += other.budget_available;
        self.eis_captured += other.eis_captured;
        self.ceis_completed += other.ceis_completed;
        self.ceis_expired += other.ceis_expired;
        self.exhausted_chronons += other.exhausted_chronons;
        self.deferred_candidates += other.deferred_candidates;
        self.candidate_set.merge(&other.candidate_set);
        self.capture_latency.merge(&other.capture_latency);
        self.probe_fanout.merge(&other.probe_fanout);
        self.budget_utilization.merge(&other.budget_utilization);
        self.probes_failed += other.probes_failed;
        self.probes_retried += other.probes_retried;
        self.budget_lost += other.budget_lost;
        self.resource_outages += other.resource_outages;
        self.ceis_shed += other.ceis_shed;
        self.ceis_registered += other.ceis_registered;
        self.ceis_cancelled += other.ceis_cancelled;
        self.budget_reconfigurations += other.budget_reconfigurations;
        self.retry_attempts.merge(&other.retry_attempts);
        self.outage_length.merge(&other.outage_length);
    }

    /// Merges an ordered sequence of per-run metrics.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a RunMetrics>) -> RunMetrics {
        let mut total = RunMetrics::default();
        for p in parts {
            total.merge(p);
        }
        total
    }

    /// Mean budget utilization across sampled chronons, in `[0, 1]`.
    pub fn mean_budget_utilization(&self) -> Option<f64> {
        self.budget_utilization.mean().map(|pct| pct / 100.0)
    }

    /// Cross-checks this record's totals against the post-hoc [`RunStats`]
    /// of the same run(s); returns one message per mismatch (empty = fully
    /// consistent). This is the invariant the CI metrics gate enforces.
    pub fn consistency_errors(&self, stats: &RunStats) -> Vec<String> {
        let mut errs = Vec::new();
        let mut check = |name: &str, metric: u64, stat: u64| {
            if metric != stat {
                errs.push(format!("{name}: metrics {metric} != stats {stat}"));
            }
        };
        check("probes", self.probes_issued, stats.probes_used);
        check("budget spent", self.budget_spent, stats.budget_spent);
        check(
            "budget available",
            self.budget_available,
            stats.probes_available,
        );
        check("EIs captured", self.eis_captured, stats.eis_captured);
        check("CEIs completed", self.ceis_completed, stats.ceis_captured);
        check(
            "CEIs expired+shed",
            self.ceis_expired + self.ceis_shed,
            stats.ceis_failed,
        );
        check("probes failed", self.probes_failed, stats.probes_failed);
        check("budget lost", self.budget_lost, stats.budget_lost);
        check("CEIs shed", self.ceis_shed, stats.ceis_shed);
        check("CEIs cancelled", self.ceis_cancelled, stats.ceis_cancelled);
        check(
            "capture-latency histogram mass",
            self.capture_latency.count,
            stats.eis_captured,
        );
        check(
            "probe-fanout histogram mass",
            self.probe_fanout.count,
            stats.probes_used,
        );
        if self.retry_attempts.count != self.probes_retried {
            errs.push(format!(
                "retry-attempts histogram mass: {} != retries {}",
                self.retry_attempts.count, self.probes_retried
            ));
        }
        errs
    }
}

/// Aggregates the event stream of one engine run into a [`RunMetrics`].
///
/// Lock-free by construction: the engine drives one observer per run on the
/// running thread, so aggregation is plain counter arithmetic. Cross-run
/// aggregation happens after the fact via [`RunMetrics::merge`].
#[derive(Debug, Clone, Default)]
pub struct MetricsObserver {
    metrics: RunMetrics,
    /// Start chronon of each currently-open outage, keyed by resource.
    /// Working state only — outages still open at epoch end never reach
    /// [`RunMetrics::outage_length`].
    down_since: std::collections::BTreeMap<u32, u64>,
}

impl MetricsObserver {
    /// A fresh observer with the standard bucket layout.
    pub fn new() -> Self {
        MetricsObserver {
            metrics: RunMetrics {
                runs: 1,
                ..RunMetrics::default()
            },
            down_since: std::collections::BTreeMap::new(),
        }
    }

    /// Consumes the observer, yielding the aggregated metrics.
    pub fn finish(self) -> RunMetrics {
        self.metrics
    }

    /// The metrics aggregated so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }
}

impl Observer for MetricsObserver {
    #[inline]
    fn on_event(&mut self, event: Event) {
        let m = &mut self.metrics;
        match event {
            Event::ChrononStart { budget, .. } => {
                m.chronons += 1;
                m.budget_available += u64::from(budget);
            }
            Event::CandidateSet { size, .. } => {
                m.candidate_set.observe(u64::from(size));
            }
            Event::ProbeIssued {
                cost, shared_eis, ..
            } => {
                m.probes_issued += 1;
                m.budget_spent += u64::from(cost);
                m.probe_fanout.observe(u64::from(shared_eis));
            }
            Event::EiCaptured { latency, .. } => {
                m.eis_captured += 1;
                m.capture_latency.observe(u64::from(latency));
            }
            Event::CeiCompleted { .. } => m.ceis_completed += 1,
            Event::CeiExpired { .. } => m.ceis_expired += 1,
            Event::BudgetExhausted { deferred, .. } => {
                m.exhausted_chronons += 1;
                m.deferred_candidates += u64::from(deferred);
            }
            Event::ChrononEnd { spent, budget, .. } => {
                if budget > 0 {
                    m.budget_utilization
                        .observe(u64::from(spent) * 100 / u64::from(budget));
                }
            }
            Event::ProbeFailed { cost, charged, .. } => {
                m.probes_failed += 1;
                if charged {
                    m.budget_lost += u64::from(cost);
                }
            }
            Event::ProbeRetried { attempt, .. } => {
                m.probes_retried += 1;
                m.retry_attempts.observe(u64::from(attempt));
            }
            Event::ResourceDown { t, resource, .. } => {
                // Repeated Downs extend an open outage's commitment; only
                // the opening transition counts as a new outage.
                self.down_since.entry(resource.0).or_insert_with(|| {
                    m.resource_outages += 1;
                    u64::from(t)
                });
            }
            Event::ResourceUp { t, resource } => {
                if let Some(start) = self.down_since.remove(&resource.0) {
                    m.outage_length.observe(u64::from(t).saturating_sub(start));
                }
            }
            Event::CeiShed { .. } => m.ceis_shed += 1,
            Event::CeiRegistered { .. } => m.ceis_registered += 1,
            Event::CeiCancelled { .. } => m.ceis_cancelled += 1,
            Event::BudgetReconfigured { .. } => m.budget_reconfigurations += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ResourceId;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::with_bounds(vec![0, 1, 4]);
        for v in [0, 1, 1, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![1, 2, 2, 1]);
        assert_eq!(h.count, 6);
        assert_eq!(h.max, 100);
        assert_eq!(h.mean(), Some(109.0 / 6.0));
        let rows = h.rows();
        assert_eq!(rows[0], ("≤0".to_string(), 1));
        assert_eq!(rows[3], (">4".to_string(), 1));
    }

    #[test]
    fn histogram_merge_is_exact() {
        let mut a = Histogram::pow2(8);
        let mut b = Histogram::pow2(8);
        a.observe(3);
        b.observe(9);
        b.observe(0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 12);
        assert_eq!(a.max, 9);
    }

    #[test]
    #[should_panic(expected = "bounds differ")]
    fn histogram_merge_rejects_mismatched_bounds() {
        Histogram::pow2(8).merge(&Histogram::pow2(16));
    }

    #[test]
    fn pow2_bounds_ascend_to_cap() {
        assert_eq!(Histogram::pow2(8).bounds, vec![0, 1, 2, 4, 8]);
        assert_eq!(Histogram::percent().bounds.len(), 11);
    }

    #[test]
    fn observer_aggregates_an_event_stream() {
        let mut o = MetricsObserver::new();
        o.on_event(Event::ChrononStart { t: 0, budget: 2 });
        o.on_event(Event::CandidateSet { t: 0, size: 3 });
        o.on_event(Event::ProbeIssued {
            t: 0,
            resource: ResourceId(1),
            cost: 1,
            shared_eis: 2,
        });
        o.on_event(Event::EiCaptured {
            t: 0,
            cei: crate::model::CeiId(0),
            latency: 0,
        });
        o.on_event(Event::EiCaptured {
            t: 0,
            cei: crate::model::CeiId(1),
            latency: 3,
        });
        o.on_event(Event::CeiCompleted {
            cei: crate::model::CeiId(0),
            at: 0,
        });
        o.on_event(Event::BudgetExhausted { t: 0, deferred: 1 });
        o.on_event(Event::ChrononEnd {
            t: 0,
            spent: 1,
            budget: 2,
        });
        let m = o.finish();
        assert_eq!(m.runs, 1);
        assert_eq!(m.chronons, 1);
        assert_eq!(m.probes_issued, 1);
        assert_eq!(m.eis_captured, 2);
        assert_eq!(m.ceis_completed, 1);
        assert_eq!(m.exhausted_chronons, 1);
        assert_eq!(m.deferred_candidates, 1);
        assert_eq!(m.candidate_set.sum, 3);
        assert_eq!(m.capture_latency.count, 2);
        assert_eq!(m.capture_latency.sum, 3);
        assert_eq!(m.probe_fanout.sum, 2);
        assert_eq!(m.budget_utilization.count, 1);
        // spent 1 of 2 → 50%.
        assert_eq!(m.budget_utilization.sum, 50);
    }

    #[test]
    fn zero_budget_chronons_are_not_sampled() {
        let mut o = MetricsObserver::new();
        o.on_event(Event::ChrononEnd {
            t: 0,
            spent: 0,
            budget: 0,
        });
        assert_eq!(o.finish().budget_utilization.count, 0);
    }

    #[test]
    fn merge_is_order_insensitive_on_totals() {
        let mut a = RunMetrics {
            runs: 1,
            probes_issued: 3,
            ..RunMetrics::default()
        };
        let b = RunMetrics {
            runs: 1,
            probes_issued: 5,
            ..RunMetrics::default()
        };
        a.merge(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.probes_issued, 8);
        let total = RunMetrics::merged([&a, &b]);
        assert_eq!(total.probes_issued, 13);
        assert_eq!(total.runs, 3);
    }

    #[test]
    fn consistency_flags_mismatches() {
        let metrics = RunMetrics {
            probes_issued: 2,
            ..RunMetrics::default()
        };
        let stats = RunStats {
            probes_used: 3,
            ..RunStats::default()
        };
        let errs = metrics.consistency_errors(&stats);
        assert!(errs.iter().any(|e| e.contains("probes")));
        assert!(RunMetrics::default()
            .consistency_errors(&RunStats::default())
            .is_empty());
    }

    #[test]
    fn metrics_serialize_round_trip() {
        let mut o = MetricsObserver::new();
        o.on_event(Event::ChrononStart { t: 0, budget: 1 });
        o.on_event(Event::ChrononEnd {
            t: 0,
            spent: 1,
            budget: 1,
        });
        let m = o.finish();
        let json = serde_json::to_string(&m).unwrap();
        let back: RunMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
