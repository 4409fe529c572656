//! The incremental candidate index: the engine's zero-allocation pool.
//!
//! The Algorithm-1 loop needs, per chronon: the live candidates grouped by
//! resource (selection seeding, shared captures, fan-out counts), the live
//! total (candidate-set accounting), and cheap removal when captures,
//! expiries, and sheds kill entries. The legacy pool — one flat
//! `Vec<PoolEntry>` — gave the grouping only by scanning, and paid a
//! whole-pool `retain` every chronon plus a fresh
//! `HashMap<u32, Vec<PoolEntry>>` per selection phase. This index replaces
//! all of that with storage the engine owns for the whole run:
//!
//! * per-resource entry lists in insertion order (exact capacity reserved
//!   up front, so pushes never reallocate),
//! * a dense liveness bitmap indexed by `(CeiId, ei_idx)` through per-CEI
//!   prefix sums ([`CandidateIndex::gid`]), giving O(1) removal as a
//!   tombstone,
//! * incrementally maintained live counts, global and per resource (the
//!   per-resource count doubles as the shared-probe fan-out pre-count,
//!   which previously cost a pool scan per probe), and
//! * a lazy per-resource sweep that compacts a list once tombstones
//!   outnumber live entries — amortized O(1) per removal.
//!
//! The same global EI ids key the run's **capture state**: per-EI captured
//! and expired-uncaptured flags in two flat arrays, with per-CEI counts of
//! each. It is stored flat, not per CEI, so scoring a candidate reads it
//! without a pointer chase, releasing a CEI allocates nothing, and a
//! snapshot copies all of them with two `memcpy`s. A CEI's flags
//! start false and change only while it is `Active` (a CEI becomes active
//! at most once), and the engine reads them only while it is `Active`.
//!
//! **Order contract.** The legacy pool held entries in `(start, cei,
//! ei_idx)` lexicographic order: insertion is chronological, and within a
//! chronon CEIs are visited in dense id order ([`Instance::from_parts`]
//! asserts dense in-order ids). Each per-resource list preserves exactly
//! that order restricted to its resource — `retain`-style sweeps keep
//! relative order — so shared-capture event order is unchanged, and
//! whole-pool passes (expiry, shed) recover the global order by
//! end-bucketing or sorting on the same key.
//!
//! **Liveness invariant.** `in_pool[gid(e)]` implies the entry was inserted
//! (its window has opened with an `Active` parent), its parent is still
//! `Active`, and the EI is neither captured nor expired — every transition
//! that falsifies one of these removes the entry in the same step. In
//! particular every in-pool entry's window is active (`start ≤ t ≤ end`):
//! the expiry pass removes uncaptured entries exactly at `end`, and
//! captures remove them earlier.

use crate::model::{CeiId, Instance};
use std::ops::Range;

/// One candidate EI in the pool: `(parent CEI, index of the EI within it)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PoolEntry {
    pub(crate) cei: CeiId,
    pub(crate) ei_idx: u16,
}

/// See the [module docs](self).
pub(crate) struct CandidateIndex {
    /// Live + tombstoned entries per resource, in insertion (= pool) order.
    pub(crate) by_resource: Vec<Vec<PoolEntry>>,
    /// Tombstones per resource list (entries whose liveness flag cleared).
    dead: Vec<u32>,
    /// Liveness flag per dense global EI id ([`Self::gid`]).
    in_pool: Vec<bool>,
    /// Captured flag per global EI id.
    captured: Vec<bool>,
    /// Expired-uncaptured flag per global EI id.
    expired: Vec<bool>,
    /// Captured and expired EIs per CEI.
    n_captured: Vec<u16>,
    n_expired: Vec<u16>,
    /// Prefix sums over CEI sizes: CEI `c`'s global EI ids are
    /// `ei_base[c]..ei_base[c + 1]`.
    ei_base: Vec<u32>,
    /// Total live entries.
    live: u32,
    /// Live entries per resource.
    active_now: Vec<u32>,
}

impl CandidateIndex {
    /// Builds the (empty) index for `instance`, reserving every list at its
    /// exact maximum occupancy so the run's hot path never reallocates.
    pub(crate) fn new(instance: &Instance) -> Self {
        let n_res = instance.n_resources as usize;
        let n_ceis = instance.ceis.len();
        let mut ei_base = Vec::with_capacity(n_ceis + 1);
        let mut per_resource = vec![0usize; n_res];
        let mut total = 0u32;
        for cei in &instance.ceis {
            ei_base.push(total);
            total += cei.size() as u32;
            for ei in &cei.eis {
                per_resource[ei.resource.index()] += 1;
            }
        }
        ei_base.push(total);
        CandidateIndex {
            by_resource: per_resource
                .iter()
                .map(|&n| Vec::with_capacity(n))
                .collect(),
            dead: vec![0; n_res],
            in_pool: vec![false; total as usize],
            captured: vec![false; total as usize],
            expired: vec![false; total as usize],
            n_captured: vec![0; n_ceis],
            n_expired: vec![0; n_ceis],
            ei_base,
            live: 0,
            active_now: vec![0; n_res],
        }
    }

    /// Dense global id of an entry (unique per `(CeiId, ei_idx)`).
    #[inline]
    fn gid(&self, e: PoolEntry) -> usize {
        self.ei_base[e.cei.index()] as usize + e.ei_idx as usize
    }

    /// CEI `id`'s global EI ids.
    #[inline]
    fn eis_of(&self, id: CeiId) -> Range<usize> {
        self.ei_base[id.index()] as usize..self.ei_base[id.index() + 1] as usize
    }

    /// CEI `id`'s captured flags, parallel to its EIs.
    #[inline]
    pub(crate) fn captured_flags(&self, id: CeiId) -> &[bool] {
        &self.captured[self.eis_of(id)]
    }

    /// CEI `id`'s expired-uncaptured flags, parallel to its EIs.
    #[cfg(test)]
    pub(crate) fn expired_flags(&self, id: CeiId) -> &[bool] {
        &self.expired[self.eis_of(id)]
    }

    /// The flat captured and expired flags over every global EI id, and
    /// the per-CEI prefix sums that slice them: what a snapshot image
    /// copies.
    pub(crate) fn flag_arrays(&self) -> (&[bool], &[bool], &[u32]) {
        (&self.captured, &self.expired, &self.ei_base)
    }

    /// `true` if the EI is neither captured nor expired.
    #[inline]
    pub(crate) fn is_open(&self, e: PoolEntry) -> bool {
        let g = self.gid(e);
        !self.captured[g] && !self.expired[g]
    }

    /// Number of CEI `id`'s EIs captured so far (`Σ_{I' ∈ η} X(I', S)`).
    #[inline]
    pub(crate) fn n_captured(&self, id: CeiId) -> u16 {
        self.n_captured[id.index()]
    }

    /// Marks the EI captured. Idempotent; returns `true` if newly captured.
    ///
    /// # Panics
    /// Panics if the EI already expired uncaptured — a closed window cannot
    /// be captured.
    #[inline]
    pub(crate) fn capture(&mut self, e: PoolEntry) -> bool {
        let g = self.gid(e);
        assert!(
            !self.expired[g],
            "EI {} of {} already expired uncaptured",
            e.ei_idx, e.cei
        );
        if self.captured[g] {
            return false;
        }
        self.captured[g] = true;
        self.n_captured[e.cei.index()] += 1;
        true
    }

    /// Marks an uncaptured EI's window as closed. Idempotent; no effect on
    /// captured EIs. Returns `true` if newly expired.
    #[inline]
    pub(crate) fn mark_expired(&mut self, e: PoolEntry) -> bool {
        let g = self.gid(e);
        if self.captured[g] || self.expired[g] {
            return false;
        }
        self.expired[g] = true;
        self.n_expired[e.cei.index()] += 1;
        true
    }

    /// `true` iff fewer than `required` of CEI `id`'s EIs can still be
    /// captured (captured ones count) — the CEI is doomed.
    #[inline]
    pub(crate) fn is_doomed(&self, id: CeiId, required: u16) -> bool {
        let size = self.eis_of(id).len();
        size - usize::from(self.n_expired[id.index()]) < usize::from(required)
    }

    /// Writes CEI `id`'s flags from a snapshot and recounts them. The
    /// snapshot was validated: both slices have the CEI's size, and no EI
    /// is both captured and expired.
    pub(crate) fn restore_flags(&mut self, id: CeiId, captured: &[bool], expired: &[bool]) {
        let eis = self.eis_of(id);
        self.captured[eis.clone()].copy_from_slice(captured);
        self.expired[eis].copy_from_slice(expired);
        let count = |flags: &[bool]| flags.iter().filter(|&&f| f).count() as u16;
        self.n_captured[id.index()] = count(captured);
        self.n_expired[id.index()] = count(expired);
    }

    /// `true` if the entry is currently live in the pool.
    #[inline]
    pub(crate) fn is_live(&self, e: PoolEntry) -> bool {
        self.in_pool[self.gid(e)]
    }

    /// Total live entries — the candidate-set size.
    #[inline]
    pub(crate) fn live(&self) -> u32 {
        self.live
    }

    /// Live entries on one resource — the engine's `active_eis` aggregate
    /// and the shared-probe capture fan-out.
    #[inline]
    pub(crate) fn live_on(&self, resource: usize) -> u32 {
        self.active_now[resource]
    }

    /// The per-resource live counts (tombstones excluded), for snapshotting
    /// into the policy context.
    #[inline]
    pub(crate) fn active_now(&self) -> &[u32] {
        &self.active_now
    }

    /// The entry list of one resource, tombstones included — filter with
    /// [`Self::is_live`].
    #[inline]
    pub(crate) fn entries(&self, resource: usize) -> &[PoolEntry] {
        &self.by_resource[resource]
    }

    /// Inserts a newly opened entry. Must be called at most once per entry
    /// per run (each EI's window opens once).
    #[inline]
    pub(crate) fn insert(&mut self, e: PoolEntry, resource: usize) {
        let g = self.gid(e);
        debug_assert!(!self.in_pool[g], "entry inserted twice");
        self.in_pool[g] = true;
        self.live += 1;
        self.active_now[resource] += 1;
        self.by_resource[resource].push(e);
    }

    /// Removes an entry if live (capture, expiry, shed, or a parent
    /// resolution), leaving a tombstone in its list. Returns whether the
    /// entry was live.
    #[inline]
    pub(crate) fn remove(&mut self, e: PoolEntry, resource: usize) -> bool {
        let g = self.gid(e);
        if !self.in_pool[g] {
            return false;
        }
        self.in_pool[g] = false;
        self.live -= 1;
        self.active_now[resource] -= 1;
        self.dead[resource] += 1;
        true
    }

    /// Removes every still-live entry of a resolved CEI.
    pub(crate) fn remove_cei(&mut self, instance: &Instance, id: CeiId) {
        for (idx, ei) in instance.cei(id).eis.iter().enumerate() {
            let e = PoolEntry {
                cei: id,
                ei_idx: idx as u16,
            };
            self.remove(e, ei.resource.index());
        }
    }

    /// Clears liveness accounting for an entry whose list is held swapped
    /// out during a shared-capture pass (the caller clears the list
    /// afterwards, so no tombstone is recorded).
    #[inline]
    pub(crate) fn mark_captured(&mut self, e: PoolEntry, resource: usize) {
        let g = self.gid(e);
        debug_assert!(self.in_pool[g], "captured entry was not live");
        self.in_pool[g] = false;
        self.live -= 1;
        self.active_now[resource] -= 1;
    }

    /// Resets the tombstone count after the caller emptied a resource's
    /// list wholesale (shared capture: every live entry on the probed
    /// resource is captured, so the survivors are all tombstones).
    #[inline]
    pub(crate) fn reset_cleared(&mut self, resource: usize) {
        debug_assert!(self.by_resource[resource].is_empty());
        debug_assert_eq!(self.active_now[resource], 0);
        self.dead[resource] = 0;
    }

    /// Compacts any list whose tombstones outnumber its live entries.
    /// Called once per chronon (while no list is borrowed); each removal is
    /// swept at most once, so maintenance stays amortized O(1) per
    /// transition instead of the legacy O(|pool|) `retain` per chronon.
    pub(crate) fn sweep(&mut self) {
        for r in 0..self.by_resource.len() {
            let len = self.by_resource[r].len();
            if self.dead[r] as usize * 2 > len {
                let in_pool = &self.in_pool;
                let ei_base = &self.ei_base;
                self.by_resource[r]
                    .retain(|e| in_pool[ei_base[e.cei.index()] as usize + e.ei_idx as usize]);
                self.dead[r] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Budget, InstanceBuilder};

    fn two_resource_instance() -> Instance {
        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2), (1, 3, 5)]);
        b.cei(p, &[(0, 1, 4)]);
        b.build()
    }

    #[test]
    fn insert_remove_and_counts() {
        let inst = two_resource_instance();
        let mut idx = CandidateIndex::new(&inst);
        let a = PoolEntry {
            cei: CeiId(0),
            ei_idx: 0,
        };
        let b = PoolEntry {
            cei: CeiId(1),
            ei_idx: 0,
        };
        idx.insert(a, 0);
        idx.insert(b, 0);
        assert_eq!(idx.live(), 2);
        assert_eq!(idx.live_on(0), 2);
        assert!(idx.is_live(a));
        assert!(idx.remove(a, 0));
        assert!(!idx.remove(a, 0), "double removal is a no-op");
        assert_eq!(idx.live(), 1);
        assert_eq!(idx.live_on(0), 1);
        assert!(!idx.is_live(a));
        // The tombstone stays in the list until tombstones outnumber live
        // entries — one of two is exactly half, so no compaction yet.
        idx.sweep();
        assert_eq!(idx.entries(0).len(), 2);
        assert!(idx.remove(b, 0));
        idx.sweep();
        assert!(idx.entries(0).is_empty());
    }

    #[test]
    fn sweep_preserves_relative_order() {
        let mut b = InstanceBuilder::new(1, 10, Budget::Uniform(1));
        let p = b.profile();
        for s in 0..6u32 {
            b.cei(p, &[(0, s, 9)]);
        }
        let inst = b.build();
        let mut idx = CandidateIndex::new(&inst);
        for id in 0..6u32 {
            idx.insert(
                PoolEntry {
                    cei: CeiId(id),
                    ei_idx: 0,
                },
                0,
            );
        }
        for id in [0u32, 2, 4, 5] {
            idx.remove(
                PoolEntry {
                    cei: CeiId(id),
                    ei_idx: 0,
                },
                0,
            );
        }
        idx.sweep();
        let ids: Vec<u32> = idx.entries(0).iter().map(|e| e.cei.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    fn entry(cei: u32, ei_idx: u16) -> PoolEntry {
        PoolEntry {
            cei: CeiId(cei),
            ei_idx,
        }
    }

    /// CEI 1 has three EIs; CEI 0 (two EIs) shares the flag arrays.
    fn three_ei_instance() -> Instance {
        let mut b = InstanceBuilder::new(3, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 0, 2), (1, 3, 5)]);
        b.cei(p, &[(0, 0, 9), (1, 0, 9), (2, 0, 9)]);
        b.build()
    }

    #[test]
    fn capture_flags_track_progress() {
        let inst = three_ei_instance();
        let mut idx = CandidateIndex::new(&inst);
        let cei = CeiId(1);
        assert_eq!(idx.n_captured(cei), 0);
        assert!(idx.capture(entry(1, 1)));
        assert!(!idx.capture(entry(1, 1))); // idempotent
        assert_eq!(idx.n_captured(cei), 1);
        assert!(!idx.is_open(entry(1, 1)) && idx.is_open(entry(1, 0)));
        idx.capture(entry(1, 0));
        idx.capture(entry(1, 2));
        assert_eq!(idx.n_captured(cei), 3);
        assert_eq!(idx.captured_flags(cei), &[true, true, true]);
        // The neighbouring CEI's flags are untouched.
        assert_eq!(idx.captured_flags(CeiId(0)), &[false, false]);
        assert_eq!(idx.n_captured(CeiId(0)), 0);
    }

    #[test]
    fn capture_flags_under_threshold_semantics() {
        let inst = three_ei_instance();
        let mut idx = CandidateIndex::new(&inst);
        let cei = CeiId(1);
        idx.capture(entry(1, 0));
        idx.capture(entry(1, 2));
        // Two of three captured: a 2-of-3 threshold is met, AND is not.
        assert_eq!(idx.n_captured(cei), 2);
        assert_eq!(idx.captured_flags(cei), &[true, false, true]);
        assert!(!idx.is_doomed(cei, 3));
    }

    #[test]
    fn capture_flags_expiry_and_doom() {
        let inst = three_ei_instance();
        let mut idx = CandidateIndex::new(&inst);
        let cei = CeiId(1);
        assert!(!idx.is_doomed(cei, 3));
        assert!(idx.mark_expired(entry(1, 0)));
        assert!(!idx.mark_expired(entry(1, 0))); // idempotent
        assert!(idx.is_doomed(cei, 3)); // AND can never complete
        assert!(!idx.is_doomed(cei, 2)); // 2-of-3 still viable
        idx.capture(entry(1, 1));
        assert!(!idx.mark_expired(entry(1, 1))); // captured EIs never expire
        assert!(!idx.is_doomed(cei, 2));
        assert_eq!(idx.expired_flags(cei), &[true, false, false]);
        // Restoring flags recounts them.
        idx.restore_flags(cei, &[false, true, true], &[true, false, false]);
        assert_eq!(idx.n_captured(cei), 2);
        assert!(idx.is_doomed(cei, 3) && !idx.is_doomed(cei, 2));
    }

    #[test]
    #[should_panic(expected = "already expired")]
    fn capturing_expired_ei_rejected() {
        let inst = three_ei_instance();
        let mut idx = CandidateIndex::new(&inst);
        idx.mark_expired(entry(0, 0));
        idx.capture(entry(0, 0));
    }

    #[test]
    fn capacity_is_exact_and_stable() {
        let inst = two_resource_instance();
        let mut idx = CandidateIndex::new(&inst);
        assert_eq!(idx.by_resource[0].capacity(), 2);
        assert_eq!(idx.by_resource[1].capacity(), 1);
        idx.insert(
            PoolEntry {
                cei: CeiId(0),
                ei_idx: 0,
            },
            0,
        );
        idx.insert(
            PoolEntry {
                cei: CeiId(1),
                ei_idx: 0,
            },
            0,
        );
        assert_eq!(idx.by_resource[0].capacity(), 2, "no reallocation");
    }
}
