//! Engine-state snapshots: everything the online engine carries across a
//! chronon boundary, serialized so a crashed daemon can resume mid-run.
//!
//! A snapshot is captured at the *top* of the chronon loop — after chronon
//! `at - 1` completed, before any of chronon `at`'s work (including the
//! promotion of a pending budget reconfiguration, which is part of chronon
//! `at` and therefore recorded still-pending). Restoring a snapshot and
//! running chronons `at..horizon` with the same nondeterministic inputs is
//! bit-identical — schedule, stats, outcomes, event stream — to the
//! uninterrupted run; `tests/tests/recovery.rs` pins this contract across
//! the conformance corpus.
//!
//! Two details make the state closure exact rather than approximate:
//!
//! * the candidate index records the **live entries of every per-resource
//!   list in list order**, not merely a liveness set — shared captures
//!   ([`Event::EiCaptured`]) fire in list order, so order is observable in
//!   the event stream;
//! * the fault bookkeeping (`announced` outage horizons, failure streaks,
//!   backoff deadlines) rides along, so a resumed run neither re-announces
//!   a steady outage nor forgets a backoff.
//!
//! [`Event::EiCaptured`]: crate::obs::Event::EiCaptured

use crate::model::{Chronon, Instance, Schedule};
use crate::stats::{CeiOutcome, RunStats};
use serde::{Deserialize, Serialize};

/// One CEI's lifecycle state inside a snapshot, mirroring the engine's
/// private status enum. `Active` carries the per-EI captured/expired flags
/// (counts are recomputed on restore).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CeiState {
    /// Release chronon not reached yet.
    NotArrived,
    /// Released and still being tracked.
    Active {
        /// Per-EI captured flags, parallel to the CEI's EIs.
        captured: Vec<bool>,
        /// Per-EI expired-uncaptured flags, parallel to the CEI's EIs.
        expired: Vec<bool>,
    },
    /// Resolved: threshold met.
    Captured,
    /// Resolved: doomed by expiry or shedding.
    Failed,
    /// Resolved: cancelled through the mutation API.
    Cancelled,
}

/// The engine's complete cross-chronon state at a chronon boundary.
///
/// Everything per-chronon (candidate scores, retry usage, down snapshots,
/// probed-now flags) is recomputed by the resumed loop; everything here is
/// exactly the state that survives a boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// The chronon about to run when this snapshot was captured.
    pub at: Chronon,
    /// Per-CEI lifecycle state, indexed by CEI id.
    pub status: Vec<CeiState>,
    /// Per-CEI outcomes recorded so far, indexed by CEI id.
    pub outcomes: Vec<CeiOutcome>,
    /// Aggregate statistics through chronon `at - 1`.
    pub stats: RunStats,
    /// Probes issued through chronon `at - 1`.
    pub schedule: Schedule,
    /// The budget override in force (from an applied `SetBudget`).
    pub budget_override: Option<u32>,
    /// A `SetBudget` drained last chronon, not yet promoted — promotion is
    /// chronon `at`'s first action and must happen exactly once.
    pub pending_budget: Option<u32>,
    /// Last announced outage horizon per resource (empty when the run has
    /// no fault model).
    pub announced: Vec<Option<Chronon>>,
    /// Consecutive probe-failure streak per resource (empty when faultless).
    pub consec_failures: Vec<u32>,
    /// Backoff deadline per resource (empty when faultless).
    pub next_attempt_at: Vec<Chronon>,
    /// Live candidate entries `(cei, ei_idx)` of every per-resource list,
    /// in exact list order — the order shared captures fire in.
    pub index: Vec<Vec<(u32, u16)>>,
}

impl EngineSnapshot {
    /// Checks that this snapshot can resume a run over `instance` — every
    /// length, index and flag the engine restores, so a mismatched or
    /// hand-edited snapshot is an error here instead of a panic mid-run.
    /// `faulted` says whether the resuming run has a fault model (its
    /// per-resource fault bookkeeping is restored only then). Returns what
    /// disagrees.
    pub fn validate(&self, instance: &Instance, faulted: bool) -> Result<(), String> {
        let n_ceis = instance.ceis.len();
        let n_res = instance.n_resources as usize;
        let horizon = instance.epoch.len();
        let lengths = [
            ("CEI states", self.status.len(), n_ceis),
            ("CEI outcomes", self.outcomes.len(), n_ceis),
            ("resource lists", self.index.len(), n_res),
            (
                "schedule resources",
                self.schedule.n_resources() as usize,
                n_res,
            ),
            (
                "schedule chronons",
                self.schedule.horizon() as usize,
                horizon as usize,
            ),
        ];
        for (what, found, expected) in lengths {
            if found != expected {
                return Err(format!("{found} {what}, the instance has {expected}"));
            }
        }
        if self.at >= horizon {
            return Err(format!(
                "boundary {} is past the horizon {horizon}",
                self.at
            ));
        }
        if faulted {
            for (what, found) in [
                ("outage horizons", self.announced.len()),
                ("failure streaks", self.consec_failures.len()),
                ("backoff deadlines", self.next_attempt_at.len()),
            ] {
                if found != n_res {
                    return Err(format!(
                        "{found} {what}, the instance has {n_res} resources"
                    ));
                }
            }
        }
        for (i, state) in self.status.iter().enumerate() {
            if let CeiState::Active { captured, expired } = state {
                let size = instance.ceis[i].size();
                if captured.len() != size || expired.len() != size {
                    return Err(format!("CEI {i} has {size} EIs but other flag counts"));
                }
                if captured.iter().zip(expired).any(|(&c, &e)| c && e) {
                    return Err(format!("CEI {i} has an EI both captured and expired"));
                }
            }
        }
        // Every index entry must be a live candidate at the boundary: an
        // open, uncaptured, unexpired EI of an active CEI, on its own
        // resource's list, listed once.
        let mut seen = std::collections::HashSet::new();
        for (r, entries) in self.index.iter().enumerate() {
            for &(cei, ei_idx) in entries {
                let bad = |why: &str| {
                    Err(format!(
                        "index entry ({cei}, {ei_idx}) on resource {r} {why}"
                    ))
                };
                let Some(c) = instance.ceis.get(cei as usize) else {
                    return bad("names no CEI");
                };
                let Some(ei) = c.eis.get(usize::from(ei_idx)) else {
                    return bad("names no EI");
                };
                if ei.resource.index() != r {
                    return bad("is on another resource");
                }
                if !(ei.start < self.at && self.at <= ei.end) {
                    return bad("is not open at the boundary");
                }
                let CeiState::Active { captured, expired } = &self.status[cei as usize] else {
                    return bad("belongs to an inactive CEI");
                };
                if captured[usize::from(ei_idx)] || expired[usize::from(ei_idx)] {
                    return bad("is already captured or expired");
                }
                if !seen.insert((cei, ei_idx)) {
                    return bad("is listed twice");
                }
            }
        }
        Ok(())
    }
}

/// Receives engine snapshots at chronon boundaries.
///
/// The engine asks [`wants`](Self::wants) at the top of every chronon and
/// builds the (moderately expensive) [`EngineSnapshot`] only on `true`; a
/// sink that always declines costs one virtual call per chronon.
pub trait SnapshotSink {
    /// Whether a snapshot at the boundary of chronon `t` should be built.
    fn wants(&mut self, t: Chronon) -> bool;
    /// Receives the snapshot a `wants(t) == true` requested.
    fn accept(&mut self, snapshot: EngineSnapshot);
}

/// The no-op sink: never requests a snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSnapshots;

impl SnapshotSink for NoSnapshots {
    fn wants(&mut self, _t: Chronon) -> bool {
        false
    }
    fn accept(&mut self, _snapshot: EngineSnapshot) {}
}

/// A sink that captures every requested boundary into memory — the building
/// block tests use to snapshot at an exact chronon.
#[derive(Debug, Clone, Default)]
pub struct CaptureAt {
    /// The boundaries to capture.
    pub at: Vec<Chronon>,
    /// The captured snapshots, in boundary order.
    pub taken: Vec<EngineSnapshot>,
}

impl CaptureAt {
    /// A sink capturing exactly the boundaries in `at`.
    pub fn new(at: Vec<Chronon>) -> Self {
        CaptureAt {
            at,
            taken: Vec::new(),
        }
    }
}

impl SnapshotSink for CaptureAt {
    fn wants(&mut self, t: Chronon) -> bool {
        self.at.contains(&t)
    }
    fn accept(&mut self, snapshot: EngineSnapshot) {
        self.taken.push(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Epoch;

    #[test]
    fn snapshot_serde_roundtrip() {
        let snap = EngineSnapshot {
            at: 7,
            status: vec![
                CeiState::NotArrived,
                CeiState::Active {
                    captured: vec![true, false],
                    expired: vec![false, false],
                },
                CeiState::Captured,
                CeiState::Failed,
                CeiState::Cancelled,
            ],
            outcomes: vec![
                CeiOutcome::Pending,
                CeiOutcome::Pending,
                CeiOutcome::Captured { at: 3 },
                CeiOutcome::Failed { at: 5 },
                CeiOutcome::Cancelled { at: 6 },
            ],
            stats: RunStats {
                n_ceis: 5,
                probes_used: 4,
                ..Default::default()
            },
            schedule: {
                let mut s = Schedule::new(3, Epoch::new(10));
                s.probe(crate::model::ResourceId(1), 2);
                s
            },
            budget_override: Some(9),
            pending_budget: None,
            announced: vec![None, Some(12), None],
            consec_failures: vec![0, 2, 0],
            next_attempt_at: vec![0, 9, 0],
            index: vec![vec![(1, 0)], vec![(1, 1), (4, 0)], vec![]],
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: EngineSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn validate_accepts_a_real_snapshot_and_names_each_mismatch() {
        use crate::engine::{EngineConfig, OnlineEngine, ScriptedMutations};
        use crate::fault::{FaultConfig, NoFaults};
        use crate::model::{Budget, InstanceBuilder};
        use crate::obs::NoopObserver;
        use crate::policy::Mrsf;

        // CEI 0 takes both probes of chronons 0-1, so CEIs 1 and 2 are
        // live at boundary 2, and CEI 3 has not arrived.
        let mut b = InstanceBuilder::new(4, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 6), (1, 1, 8)]);
        b.cei(p, &[(2, 0, 9)]);
        b.cei(p, &[(3, 0, 9)]);
        b.cei(p, &[(0, 2, 3)]);
        let inst = b.build();
        let mut sink = CaptureAt::new(vec![2]);
        OnlineEngine::run_driven_resumable(
            &inst,
            &Mrsf,
            EngineConfig::preemptive(),
            &mut NoFaults,
            FaultConfig::default(),
            &mut ScriptedMutations::default(),
            &mut NoopObserver,
            None,
            &mut sink,
        );
        let snap = sink.taken.pop().unwrap();
        assert_eq!(snap.index, vec![vec![], vec![], vec![(1, 0)], vec![(2, 0)]]);
        assert_eq!(snap.validate(&inst, false), Ok(()));

        type Corruption = (&'static str, fn(&mut EngineSnapshot));
        let broken: [Corruption; 9] = [
            ("CEI states", |s| s.status.push(CeiState::NotArrived)),
            ("resource lists", |s| s.index.push(Vec::new())),
            ("past the horizon", |s| s.at = 10),
            ("names no CEI", |s| s.index[0].push((99, 0))),
            ("names no EI", |s| s.index[0].push((2, 7))),
            ("another resource", |s| s.index[1].push((2, 0))),
            ("listed twice", |s| s.index[2].push((1, 0))),
            ("inactive CEI", |s| s.status[1] = CeiState::Failed),
            ("both captured and expired", |s| {
                for state in &mut s.status {
                    if let CeiState::Active { captured, expired } = state {
                        captured[0] = true;
                        expired[0] = true;
                    }
                }
            }),
        ];
        for (want, corrupt) in broken {
            let mut bad = snap.clone();
            corrupt(&mut bad);
            let err = bad.validate(&inst, false).unwrap_err();
            assert!(err.contains(want), "{want}: {err}");
        }
        // A faulted resume needs the per-resource fault bookkeeping.
        let err = snap.validate(&inst, true).unwrap_err();
        assert!(err.contains("outage horizons"), "{err}");
    }
}
