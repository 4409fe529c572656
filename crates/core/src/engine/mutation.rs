//! Mid-run profile mutations: the engine-level churn API.
//!
//! Web Monitoring 2.0 is a *service*: users register, amend, and cancel
//! complex profiles while the monitor is running. This module models that
//! churn as a [`MutationQueue`] — a deterministic, serializable script of
//! [`Mutation`]s keyed by chronon — that the engine drains at each
//! [`ChrononStart`](crate::obs::Event::ChrononStart), in queue order.
//!
//! # The universe model
//!
//! Mutations reference CEIs that already exist in the
//! [`Instance`](crate::model::Instance): the instance is the *universe* of
//! profiles that could ever exist during the epoch, and the queue decides
//! which of them arrive dynamically and when. A CEI named by any
//! [`Mutation::Register`] is **dynamic**: the engine suppresses its natural
//! release (`Instance::released_at`) and activates it only when the
//! registration drains — its effective release chronon *is* the drain
//! chronon (`release = now`). Everything else about the CEI (windows,
//! required threshold, weight) comes from the instance, so sizing,
//! capacity reservation, and the `CandidateIndex` start/end buckets keep
//! working unchanged — which is what keeps mid-run insertion O(own EIs).
//!
//! # Semantics
//!
//! * [`Mutation::Register`] — the CEI becomes live at the drain chronon
//!   `t`. Windows already closed (`end < t`) are marked expired on the
//!   spot; windows currently open (`start < t <= end`) enter the candidate
//!   pool immediately; future windows (`start >= t`) ride the existing
//!   `starts[t]` buckets. If the already-closed windows leave fewer than
//!   `required` capturable, the CEI fails at `t` (a
//!   [`CeiExpired`](crate::obs::Event::CeiExpired) immediately follows the
//!   [`CeiRegistered`](crate::obs::Event::CeiRegistered)). Registering a
//!   CEI that is already live, resolved, or cancelled is a silent no-op.
//! * [`Mutation::Cancel`] — a live CEI leaves the pool and resolves as
//!   [`CeiOutcome::Cancelled`](crate::stats::CeiOutcome); a not-yet-
//!   released CEI is cancelled before it ever activates. Cancelling an
//!   already-resolved (captured, failed, shed, or cancelled) CEI is a
//!   silent no-op. Cancellation also clears any pending retry state on
//!   resources the cancellation emptied: their failure streaks and backoff
//!   deadlines reset, so the per-chronon retry quota is not spent on a
//!   profile nobody wants anymore.
//! * [`Mutation::SetBudget`] — replaces the per-chronon probe budget with
//!   a uniform value, effective **exactly at the next chronon** (`t + 1`):
//!   the drain chronon's own budget was already announced at its
//!   `ChrononStart` and does not change retroactively.
//!
//! # Determinism
//!
//! A queue is plain data (serde round-trippable); a churned run is a pure
//! function of `(instance, policy, config, faults, queue, seed)`, so the
//! full event stream of a churned run replays byte-for-byte, exactly like
//! an unchurned one. An empty queue is guaranteed bit-identical to the
//! mutation-free entry points.

use crate::model::{CeiId, Chronon};
use serde::{Deserialize, Serialize};

/// One mid-run mutation of the monitoring service's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mutation {
    /// Register an instance CEI with release chronon = the drain chronon.
    Register {
        /// The CEI to activate.
        cei: CeiId,
    },
    /// Cancel a live (or not-yet-released) CEI.
    Cancel {
        /// The CEI to cancel.
        cei: CeiId,
    },
    /// Replace the per-chronon probe budget, effective from the next
    /// chronon.
    SetBudget {
        /// The new uniform per-chronon budget.
        budget: u32,
    },
}

/// A deterministic script of mid-run mutations, drained by the engine at
/// each chronon start.
///
/// Entries are `(chronon, mutation)` pairs; within one chronon they drain
/// in insertion order. Entries at or beyond the epoch's horizon never
/// drain and are ignored. The queue is immutable during a run — it is a
/// *script*, not a live channel — which is what keeps churned runs pure
/// functions of their inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MutationQueue {
    entries: Vec<(Chronon, Mutation)>,
}

impl MutationQueue {
    /// An empty queue. Running with it is bit-identical to the
    /// mutation-free entry points.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the queue holds no mutations at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of queued mutations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// All `(chronon, mutation)` entries, in insertion order.
    pub fn entries(&self) -> &[(Chronon, Mutation)] {
        &self.entries
    }

    /// Queues an arbitrary mutation at `t`.
    pub fn push(&mut self, t: Chronon, mutation: Mutation) -> &mut Self {
        self.entries.push((t, mutation));
        self
    }

    /// Queues a registration of `cei` at `t` (its effective release).
    pub fn register(&mut self, t: Chronon, cei: CeiId) -> &mut Self {
        self.push(t, Mutation::Register { cei })
    }

    /// Queues a cancellation of `cei` at `t`.
    pub fn cancel(&mut self, t: Chronon, cei: CeiId) -> &mut Self {
        self.push(t, Mutation::Cancel { cei })
    }

    /// Queues a budget reconfiguration at `t`, effective from `t + 1`.
    pub fn set_budget(&mut self, t: Chronon, budget: u32) -> &mut Self {
        self.push(t, Mutation::SetBudget { budget })
    }

    /// Marks which CEIs of an `n_ceis`-sized instance are dynamic — named
    /// by at least one [`Mutation::Register`] anywhere in the queue. The
    /// engine (and the invariant mirror) suppress the natural release of
    /// exactly these CEIs.
    pub fn dynamic_flags(&self, n_ceis: usize) -> Vec<bool> {
        let mut dynamic = vec![false; n_ceis];
        for &(_, m) in &self.entries {
            if let Mutation::Register { cei } = m {
                if let Some(slot) = dynamic.get_mut(cei.index()) {
                    *slot = true;
                }
            }
        }
        dynamic
    }

    /// Buckets the queue by drain chronon over `horizon` chronons,
    /// preserving insertion order within each chronon. Entries at or
    /// beyond the horizon are dropped.
    pub fn bucketed(&self, horizon: Chronon) -> Vec<Vec<Mutation>> {
        let mut buckets = vec![Vec::new(); horizon as usize];
        for &(t, m) in &self.entries {
            if let Some(bucket) = buckets.get_mut(t as usize) {
                bucket.push(m);
            }
        }
        buckets
    }
}

/// Where the engine's per-chronon mutations come from.
///
/// [`OnlineEngine::run_driven`](crate::engine::OnlineEngine::run_driven) is
/// generic over this trait, which is what lets the same run loop serve both
/// the batch simulator (a prebuilt [`MutationQueue`] script, compiled to
/// [`ScriptedMutations`]) and a live daemon (a channel clients feed while
/// the engine runs — see [`crate::serve`]). The engine calls
/// [`drain_at`](Self::drain_at) exactly once per chronon, immediately after
/// [`ChrononStart`](crate::obs::Event::ChrononStart), and applies the
/// drained mutations in the order the source produced them.
///
/// An *inactive* source (`active() == false`) promises it will never
/// produce a mutation nor suppress a release; the engine then skips all
/// per-chronon mutation work, keeping mutation-free runs on the exact
/// pre-churn fast path.
pub trait MutationSource {
    /// Whether this source can ever produce mutations. Sampled once at run
    /// start; an inactive source is never drained.
    fn active(&self) -> bool;

    /// Appends the mutations to apply at chronon `t` to `out`, in
    /// application order. The engine clears `out` before calling.
    fn drain_at(&mut self, t: Chronon, out: &mut Vec<Mutation>);

    /// Whether `cei`'s natural release
    /// ([`Instance::released_at`](crate::model::Instance::released_at)) is
    /// suppressed because the CEI is *dynamic* — it only ever activates
    /// through a drained [`Mutation::Register`].
    fn suppresses_release(&self, cei: CeiId) -> bool;
}

/// A [`MutationQueue`] compiled for one run: per-chronon drain buckets plus
/// the dynamic-CEI flags — how a prerecorded queue drives
/// [`OnlineEngine::run_driven`](crate::engine::OnlineEngine::run_driven).
/// The buckets preserve queue order, and an empty queue (like
/// [`ScriptedMutations::default`]) compiles to an inactive source.
#[derive(Debug, Clone, Default)]
pub struct ScriptedMutations {
    buckets: Vec<Vec<Mutation>>,
    dynamic: Vec<bool>,
    active: bool,
}

impl ScriptedMutations {
    /// Compiles `queue` for an instance with `horizon` chronons and
    /// `n_ceis` CEIs. An empty queue compiles to an inactive source.
    pub fn compile(queue: &MutationQueue, horizon: Chronon, n_ceis: usize) -> Self {
        let active = !queue.is_empty();
        ScriptedMutations {
            buckets: if active {
                queue.bucketed(horizon)
            } else {
                Vec::new()
            },
            dynamic: if active {
                queue.dynamic_flags(n_ceis)
            } else {
                Vec::new()
            },
            active,
        }
    }
}

impl MutationSource for ScriptedMutations {
    fn active(&self) -> bool {
        self.active
    }

    fn drain_at(&mut self, t: Chronon, out: &mut Vec<Mutation>) {
        if let Some(bucket) = self.buckets.get(t as usize) {
            out.extend_from_slice(bucket);
        }
    }

    fn suppresses_release(&self, cei: CeiId) -> bool {
        self.dynamic.get(cei.index()).copied().unwrap_or(false)
    }
}

/// The serve journal's fingerprint covers the compiled script: recovery
/// under a different churn script must be refused up front.
impl crate::serve::Fingerprint for ScriptedMutations {
    fn feed(&self, crc: &mut webmon_streams::Crc32) {
        let ScriptedMutations {
            buckets,
            dynamic,
            active,
        } = self;
        buckets.feed(crc);
        dynamic.feed(crc);
        active.feed(crc);
    }
}

/// Forwarding impl so drivers can hand the engine `&mut source` without
/// giving up ownership.
impl<M: MutationSource + ?Sized> MutationSource for &mut M {
    fn active(&self) -> bool {
        (**self).active()
    }

    fn drain_at(&mut self, t: Chronon, out: &mut Vec<Mutation>) {
        (**self).drain_at(t, out);
    }

    fn suppresses_release(&self, cei: CeiId) -> bool {
        (**self).suppresses_release(cei)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_queue_in_insertion_order() {
        let mut q = MutationQueue::new();
        assert!(q.is_empty());
        q.register(3, CeiId(1)).cancel(3, CeiId(0)).set_budget(5, 7);
        assert_eq!(q.len(), 3);
        assert_eq!(
            q.entries(),
            &[
                (3, Mutation::Register { cei: CeiId(1) }),
                (3, Mutation::Cancel { cei: CeiId(0) }),
                (5, Mutation::SetBudget { budget: 7 }),
            ]
        );
    }

    #[test]
    fn dynamic_flags_mark_registered_ceis_only() {
        let mut q = MutationQueue::new();
        q.register(2, CeiId(1))
            .cancel(4, CeiId(0))
            .register(9, CeiId(1));
        assert_eq!(q.dynamic_flags(3), vec![false, true, false]);
        // Out-of-range ids are ignored rather than panicking.
        q.register(1, CeiId(99));
        assert_eq!(q.dynamic_flags(3), vec![false, true, false]);
    }

    #[test]
    fn bucketing_preserves_order_and_drops_out_of_epoch() {
        let mut q = MutationQueue::new();
        q.set_budget(1, 4)
            .register(1, CeiId(0))
            .cancel(30, CeiId(0));
        let buckets = q.bucketed(10);
        assert_eq!(buckets.len(), 10);
        assert_eq!(
            buckets[1],
            vec![
                Mutation::SetBudget { budget: 4 },
                Mutation::Register { cei: CeiId(0) },
            ]
        );
        assert!(buckets
            .iter()
            .enumerate()
            .all(|(t, b)| t == 1 || b.is_empty()));
    }

    #[test]
    fn queue_serde_round_trips() {
        let mut q = MutationQueue::new();
        q.register(2, CeiId(3)).set_budget(4, 0);
        let json = serde_json::to_string(&q).unwrap();
        let back: MutationQueue = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn empty_queue_compiles_inactive() {
        let s = ScriptedMutations::compile(&MutationQueue::new(), 10, 3);
        assert!(!s.active());
        assert!(!s.suppresses_release(CeiId(0)));
    }

    #[test]
    fn compiled_script_drains_in_queue_order() {
        let mut q = MutationQueue::new();
        q.set_budget(1, 4)
            .register(1, CeiId(0))
            .cancel(30, CeiId(2));
        let mut s = ScriptedMutations::compile(&q, 10, 3);
        assert!(s.active());
        let mut out = Vec::new();
        s.drain_at(1, &mut out);
        assert_eq!(
            out,
            vec![
                Mutation::SetBudget { budget: 4 },
                Mutation::Register { cei: CeiId(0) },
            ]
        );
        // Out-of-epoch entries never drain; chronons beyond the bucket
        // range are silently empty.
        out.clear();
        s.drain_at(5, &mut out);
        assert!(out.is_empty());
        out.clear();
        s.drain_at(30, &mut out);
        assert!(out.is_empty());
        // Dynamic flags mirror the queue's; unknown ids are not dynamic.
        assert!(s.suppresses_release(CeiId(0)));
        assert!(!s.suppresses_release(CeiId(2)));
        assert!(!s.suppresses_release(CeiId(99)));
    }
}
