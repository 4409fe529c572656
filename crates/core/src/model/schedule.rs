//! Data-delivery schedules: which resources the proxy probes at each chronon.

use super::{Budget, Chronon, Epoch, ResourceId};
use serde::{Deserialize, Serialize};

/// A data-delivery schedule `S = {s_{i,j}}`: `s_{i,j} = 1` iff resource `r_i`
/// is probed at chronon `T_j`.
///
/// Stored sparsely: a sorted, deduplicated list of probed resources per
/// chronon. Real schedules probe a handful of resources per chronon out of
/// hundreds, so the dense `n × K` matrix of the paper's formalism would be
/// almost entirely zeros.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    n_resources: u32,
    /// `probes[t]` = sorted resource ids probed at chronon `t`.
    probes: Vec<Vec<ResourceId>>,
}

impl Schedule {
    /// Creates an empty schedule over `epoch` for `n_resources` resources.
    pub fn new(n_resources: u32, epoch: Epoch) -> Self {
        Schedule {
            n_resources,
            probes: vec![Vec::new(); epoch.len() as usize],
        }
    }

    /// Number of resources this schedule ranges over.
    #[inline]
    pub fn n_resources(&self) -> u32 {
        self.n_resources
    }

    /// The epoch length `K`.
    #[inline]
    pub fn horizon(&self) -> Chronon {
        self.probes.len() as Chronon
    }

    /// Sets `s_{r,t} = 1`. Idempotent. Returns `true` if the probe was new.
    ///
    /// # Panics
    /// Panics if `t` is outside the epoch or `r` outside the resource range.
    pub fn probe(&mut self, r: ResourceId, t: Chronon) -> bool {
        assert!(
            (t as usize) < self.probes.len(),
            "chronon {t} outside epoch of {} chronons",
            self.probes.len()
        );
        assert!(
            r.0 < self.n_resources,
            "resource {r} outside range of {} resources",
            self.n_resources
        );
        let row = &mut self.probes[t as usize];
        match row.binary_search(&r) {
            Ok(_) => false,
            Err(pos) => {
                row.insert(pos, r);
                true
            }
        }
    }

    /// `true` iff resource `r` is probed at chronon `t`.
    #[inline]
    pub fn is_probed(&self, r: ResourceId, t: Chronon) -> bool {
        self.probes
            .get(t as usize)
            .is_some_and(|row| row.binary_search(&r).is_ok())
    }

    /// The sorted resources probed at chronon `t`.
    #[inline]
    pub fn probes_at(&self, t: Chronon) -> &[ResourceId] {
        self.probes
            .get(t as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total number of probes in the schedule.
    pub fn total_probes(&self) -> u64 {
        self.probes.iter().map(|row| row.len() as u64).sum()
    }

    /// `true` iff the schedule satisfies the budget constraint of Problem 1
    /// at every chronon: `Σ_i s_{i,j} <= C_j`.
    pub fn is_feasible(&self, budget: &Budget) -> bool {
        self.probes
            .iter()
            .enumerate()
            .all(|(t, row)| row.len() as u32 <= budget.at(t as Chronon))
    }

    /// Iterates `(chronon, resource)` over all probes in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = (Chronon, ResourceId)> + '_ {
        self.probes
            .iter()
            .enumerate()
            .flat_map(|(t, row)| row.iter().map(move |&r| (t as Chronon, r)))
    }

    /// Removes every probe at chronon `t`. Used by the offline
    /// branch-and-bound search to backtrack a chronon's decisions.
    pub(crate) fn clear_chronon(&mut self, t: Chronon) {
        if let Some(row) = self.probes.get_mut(t as usize) {
            row.clear();
        }
    }

    /// Makes this schedule's chronons `rows` those of `from`, a schedule of
    /// the same shape, reusing their storage.
    pub(crate) fn copy_rows(&mut self, from: &Schedule, rows: std::ops::Range<Chronon>) {
        debug_assert_eq!(
            (self.n_resources, self.probes.len()),
            (from.n_resources, from.probes.len())
        );
        let rows = rows.start as usize..rows.end as usize;
        for (row, source) in self.probes[rows.clone()].iter_mut().zip(&from.probes[rows]) {
            row.clone_from(source);
        }
    }

    /// Merges another schedule into this one (union of probes).
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn union_with(&mut self, other: &Schedule) {
        assert_eq!(self.n_resources, other.n_resources);
        assert_eq!(self.probes.len(), other.probes.len());
        for (t, r) in other.iter() {
            self.probe(r, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> Schedule {
        Schedule::new(4, Epoch::new(5))
    }

    #[test]
    fn probe_is_idempotent_and_sorted() {
        let mut s = schedule();
        assert!(s.probe(ResourceId(2), 1));
        assert!(s.probe(ResourceId(0), 1));
        assert!(!s.probe(ResourceId(2), 1));
        assert_eq!(s.probes_at(1), &[ResourceId(0), ResourceId(2)]);
        assert_eq!(s.total_probes(), 2);
    }

    #[test]
    fn is_probed_reports_membership() {
        let mut s = schedule();
        s.probe(ResourceId(3), 4);
        assert!(s.is_probed(ResourceId(3), 4));
        assert!(!s.is_probed(ResourceId(3), 3));
        assert!(!s.is_probed(ResourceId(2), 4));
    }

    #[test]
    #[should_panic(expected = "outside epoch")]
    fn probe_outside_epoch_rejected() {
        let mut s = schedule();
        s.probe(ResourceId(0), 5);
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn probe_unknown_resource_rejected() {
        let mut s = schedule();
        s.probe(ResourceId(4), 0);
    }

    #[test]
    fn feasibility_against_uniform_budget() {
        let mut s = schedule();
        s.probe(ResourceId(0), 0);
        s.probe(ResourceId(1), 0);
        assert!(s.is_feasible(&Budget::Uniform(2)));
        assert!(!s.is_feasible(&Budget::Uniform(1)));
    }

    #[test]
    fn feasibility_against_per_chronon_budget() {
        let mut s = schedule();
        s.probe(ResourceId(0), 0);
        s.probe(ResourceId(1), 2);
        s.probe(ResourceId(2), 2);
        let b = Budget::PerChronon(vec![1, 0, 2, 0, 0]);
        assert!(s.is_feasible(&b));
        s.probe(ResourceId(0), 1);
        assert!(!s.is_feasible(&b));
    }

    #[test]
    fn iter_is_chronological() {
        let mut s = schedule();
        s.probe(ResourceId(1), 3);
        s.probe(ResourceId(0), 1);
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all, vec![(1, ResourceId(0)), (3, ResourceId(1))]);
    }

    #[test]
    fn union_merges_probes() {
        let mut a = schedule();
        a.probe(ResourceId(0), 0);
        let mut b = schedule();
        b.probe(ResourceId(0), 0);
        b.probe(ResourceId(1), 2);
        a.union_with(&b);
        assert_eq!(a.total_probes(), 2);
        assert!(a.is_probed(ResourceId(1), 2));
    }
}
