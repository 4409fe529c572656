//! A complete problem instance of Problem 1 (Complex Monitoring).

use super::{rank_of_profiles, Budget, Cei, CeiId, Chronon, Epoch, ProbeCosts, Profile};
use serde::{Deserialize, Serialize};

/// One instance of the Complex Monitoring problem (Problem 1): `n` resources,
/// an epoch of `K` chronons, a probing budget, and a set of client profiles
/// whose CEIs must be captured.
///
/// CEIs are stored flat (indexed by [`CeiId`]); profiles reference them by
/// id. Construct instances through [`InstanceBuilder`](super::InstanceBuilder).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Number of resources `n`; resource ids are `0..n`.
    pub n_resources: u32,
    /// The monitoring epoch (the paper's `K` chronons).
    pub epoch: Epoch,
    /// The probing budget `C`.
    pub budget: Budget,
    /// Per-resource probe costs (the paper's setting is uniform; varying
    /// costs are the §III extension).
    pub costs: ProbeCosts,
    /// All CEIs, indexed by `CeiId`.
    pub ceis: Vec<Cei>,
    /// All profiles, indexed by `ProfileId`.
    pub profiles: Vec<Profile>,
    /// CEI ids grouped by release chronon: `released[t]` lists the CEIs the
    /// proxy learns about at chronon `t`. Precomputed for the online engine.
    released: Vec<Vec<CeiId>>,
}

impl Instance {
    /// Assembles an instance from parts, indexing CEIs by release chronon.
    ///
    /// # Panics
    /// Panics if any CEI references a chronon outside the epoch, a resource
    /// outside `0..n_resources`, or ids are not dense and in order.
    pub fn from_parts(
        n_resources: u32,
        epoch: Epoch,
        budget: Budget,
        ceis: Vec<Cei>,
        profiles: Vec<Profile>,
    ) -> Self {
        let mut released = vec![Vec::new(); epoch.len() as usize];
        for (idx, cei) in ceis.iter().enumerate() {
            assert_eq!(
                cei.id.index(),
                idx,
                "CEI ids must be dense and in storage order"
            );
            assert!(
                epoch.contains(cei.horizon()),
                "{}: horizon {} outside epoch of {} chronons",
                cei.id,
                cei.horizon(),
                epoch.len()
            );
            for ei in &cei.eis {
                assert!(
                    ei.resource.0 < n_resources,
                    "{}: resource {} outside range of {n_resources} resources",
                    cei.id,
                    ei.resource
                );
            }
            released[cei.release as usize].push(cei.id);
        }
        for (idx, p) in profiles.iter().enumerate() {
            assert_eq!(
                p.id.index(),
                idx,
                "profile ids must be dense and in storage order"
            );
        }
        Instance {
            n_resources,
            epoch,
            budget,
            costs: ProbeCosts::Uniform,
            ceis,
            profiles,
            released,
        }
    }

    /// Replaces the probe-cost model (the §III varying-costs extension).
    pub fn with_costs(mut self, costs: ProbeCosts) -> Self {
        self.costs = costs;
        self
    }

    /// CEIs the proxy learns about at chronon `t` (the online arrival set
    /// `η(j)` of Algorithm 1).
    #[inline]
    pub fn released_at(&self, t: Chronon) -> &[CeiId] {
        self.released
            .get(t as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Looks up a CEI by id.
    #[inline]
    pub fn cei(&self, id: CeiId) -> &Cei {
        &self.ceis[id.index()]
    }

    /// `rank(P)`: the maximal profile rank in the instance.
    pub fn rank(&self) -> u16 {
        rank_of_profiles(&self.profiles)
    }

    /// Total number of EIs across all CEIs (the normalizer of the paper's
    /// runtime metric).
    pub fn total_eis(&self) -> usize {
        self.ceis.iter().map(Cei::size).sum()
    }

    /// `true` if every CEI has unit-width EIs — the `P^[1]` class.
    pub fn is_unit_width(&self) -> bool {
        self.ceis.iter().all(Cei::is_unit_width)
    }

    /// `true` if no two EIs anywhere in the instance overlap on the same
    /// resource — the "no intra-resource overlap" premise of Props. 1 and 2.
    /// Cost: `O(E log E)` over all EIs.
    pub fn has_no_intra_resource_overlap(&self) -> bool {
        let mut by_resource: Vec<Vec<(Chronon, Chronon)>> =
            vec![Vec::new(); self.n_resources as usize];
        for cei in &self.ceis {
            for ei in &cei.eis {
                by_resource[ei.resource.index()].push((ei.start, ei.end));
            }
        }
        for spans in &mut by_resource {
            spans.sort_unstable();
            for w in spans.windows(2) {
                // Sorted by start: overlap iff the next start falls at or
                // before the previous end.
                if w[1].0 <= w[0].1 {
                    return false;
                }
            }
        }
        true
    }

    /// The MRSF competitive-ratio bound of Prop. 2:
    /// `l = max_{η ∈ P} Σ_{I ∈ η} |I|`.
    pub fn mrsf_competitive_bound(&self) -> u64 {
        self.ceis.iter().map(Cei::total_chronons).max().unwrap_or(0)
    }
}

/// Feeds every field but the release index, which the CEIs' release
/// chronons determine.
impl crate::serve::Fingerprint for Instance {
    fn feed(&self, crc: &mut webmon_streams::Crc32) {
        let Instance {
            n_resources,
            epoch,
            budget,
            costs,
            ceis,
            profiles,
            released: _,
        } = self;
        n_resources.feed(crc);
        epoch.len().feed(crc);
        budget.feed(crc);
        costs.feed(crc);
        ceis.feed(crc);
        profiles.feed(crc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Ei, InstanceBuilder, ProfileId, ResourceId};

    fn ei(r: u32, s: Chronon, e: Chronon) -> Ei {
        Ei::new(ResourceId(r), s, e)
    }

    fn small_instance() -> Instance {
        let mut b = InstanceBuilder::new(3, 10, Budget::Uniform(1));
        let p0 = b.profile();
        b.cei(p0, &[(0, 1, 3), (1, 2, 5)]);
        b.cei(p0, &[(2, 5, 6)]);
        let p1 = b.profile();
        b.cei(p1, &[(0, 7, 9), (1, 7, 9), (2, 7, 9)]);
        b.build()
    }

    #[test]
    fn released_at_groups_by_release_chronon() {
        let inst = small_instance();
        assert_eq!(inst.released_at(1), &[CeiId(0)]);
        assert_eq!(inst.released_at(5), &[CeiId(1)]);
        assert_eq!(inst.released_at(7), &[CeiId(2)]);
        assert!(inst.released_at(0).is_empty());
        assert!(inst.released_at(99).is_empty());
    }

    #[test]
    fn rank_and_totals() {
        let inst = small_instance();
        assert_eq!(inst.rank(), 3);
        assert_eq!(inst.total_eis(), 6);
        assert_eq!(inst.profiles[0].rank, 2);
        assert_eq!(inst.profiles[1].rank, 3);
    }

    #[test]
    fn intra_resource_overlap_detection_spans_ceis() {
        let inst = small_instance();
        // Per resource: r0 spans [1,3] / [7,9]; r1 spans [2,5] / [7,9];
        // r2 spans [5,6] / [7,9] — all disjoint.
        assert!(inst.has_no_intra_resource_overlap());

        let mut b = InstanceBuilder::new(2, 10, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 5)]);
        b.cei(p, &[(0, 4, 8)]);
        assert!(!b.build().has_no_intra_resource_overlap());
    }

    #[test]
    fn mrsf_bound_is_max_total_chronons() {
        let inst = small_instance();
        // CEI 0: 3 + 4 = 7; CEI 1: 2; CEI 2: 9.
        assert_eq!(inst.mrsf_competitive_bound(), 9);
    }

    #[test]
    #[should_panic(expected = "outside epoch")]
    fn cei_past_epoch_rejected() {
        let ceis = vec![Cei::new(CeiId(0), ProfileId(0), vec![ei(0, 0, 10)])];
        let profiles = vec![Profile::new(ProfileId(0))];
        let _ = Instance::from_parts(1, Epoch::new(10), Budget::Uniform(1), ceis, profiles);
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn cei_with_unknown_resource_rejected() {
        let ceis = vec![Cei::new(CeiId(0), ProfileId(0), vec![ei(5, 0, 1)])];
        let profiles = vec![Profile::new(ProfileId(0))];
        let _ = Instance::from_parts(2, Epoch::new(10), Budget::Uniform(1), ceis, profiles);
    }

    #[test]
    #[should_panic(expected = "dense and in storage order")]
    fn non_dense_cei_ids_rejected() {
        let ceis = vec![Cei::new(CeiId(3), ProfileId(0), vec![ei(0, 0, 1)])];
        let profiles = vec![Profile::new(ProfileId(0))];
        let _ = Instance::from_parts(1, Epoch::new(10), Budget::Uniform(1), ceis, profiles);
    }

    #[test]
    fn unit_width_class_detection() {
        let mut b = InstanceBuilder::new(2, 5, Budget::Uniform(1));
        let p = b.profile();
        b.cei(p, &[(0, 1, 1), (1, 2, 2)]);
        assert!(b.build().is_unit_width());
        assert!(!small_instance().is_unit_width());
    }
}
