//! Online probing policies (Section IV-A).
//!
//! At every chronon, a policy `Φ` looks at the candidate execution intervals
//! `cands(I)` and returns up to `C_j` EIs to probe. The paper classifies
//! policies by how much of the CEI hierarchy they consult:
//!
//! * **Individual-EI level** — only the EI itself: [`SEdf`], [`Wic`].
//! * **Rank level** — the parent CEI's residual complexity: [`Mrsf`].
//! * **Multi-EI level** — all sibling EIs of the parent CEI: [`MEdf`].
//!
//! Policies are *scoring functions*: the engine repeatedly selects the
//! candidate with the minimum score (ties broken deterministically by CEI id
//! then EI index, standing in for the paper's "chooses arbitrarily"). A probe
//! of the selected EI's resource captures every active candidate on that
//! resource, implementing the intra-resource probe sharing of Algorithm 1.

mod m_edf;
mod mrsf;
mod random;
mod round_robin;
mod s_edf;
mod utility;
mod wic;

pub use m_edf::{MEdf, MEdfAbsoluteDeadline};
pub use mrsf::{Mrsf, MrsfExact};
pub use random::RandomPolicy;
pub use round_robin::RoundRobin;
pub use s_edf::SEdf;
pub use utility::UtilityWeighted;
pub use wic::Wic;

use crate::model::{Chronon, Ei};

/// A candidate EI's view of its parent CEI, provided by the engine.
#[derive(Debug, Clone, Copy)]
pub struct CeiView<'a> {
    /// All EIs of the parent CEI (siblings of — and including — the
    /// candidate).
    pub eis: &'a [Ei],
    /// Capture flag per EI, parallel to `eis`.
    pub captured: &'a [bool],
    /// Number of captured EIs (`Σ X(I', S)`), precomputed by the engine so
    /// rank-level policies stay `Θ(1)` per candidate (Appendix B).
    pub n_captured: u16,
    /// Number of EIs required to satisfy the CEI (`|η|` under the paper's
    /// AND semantics; smaller under the §VII threshold extension).
    pub required: u16,
    /// Client utility weight of the CEI (the §VII utility extension;
    /// `1.0` in every paper construct).
    pub weight: f32,
    /// `rank(p)` of the owning profile.
    pub profile_rank: u16,
}

/// A candidate EI offered to the policy for scoring.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// The execution interval itself; guaranteed active at `ctx.now`.
    pub ei: Ei,
    /// Index of `ei` within `cei.eis`.
    pub ei_index: usize,
    /// View of the parent CEI.
    pub cei: CeiView<'a>,
}

/// Per-resource aggregates the engine computes once per chronon.
#[derive(Debug, Clone, Copy)]
pub struct ResourceStats<'a> {
    /// Count of active candidate EIs per resource.
    pub active_eis: &'a [u32],
    /// `true` if the resource has an update event at the current chronon.
    /// In the EI encoding, update events coincide with EI window openings,
    /// so this is "some candidate EI on `r` starts now" (WIC's `p_ij`).
    pub has_update: &'a [bool],
}

/// Everything a policy may consult when scoring a candidate.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// The current chronon `T_j`.
    pub now: Chronon,
    /// Per-resource aggregates.
    pub resources: ResourceStats<'a>,
}

/// An online probing policy. Implementations must be cheap: `score` runs for
/// every candidate at every selection step (the paper's `τ(Φ)`).
pub trait Policy: Sync {
    /// Short, stable name used in experiment tables (e.g. `"M-EDF"`).
    fn name(&self) -> &'static str;

    /// The full parameterization of this policy instance — equal specs must
    /// score identically. Parameterless policies keep the default (the
    /// name); parameterized ones ([`Wic`]'s stale
    /// utility, [`RandomPolicy`]'s seed)
    /// append their parameters. Feeds the serve journal's configuration
    /// fingerprint, which must refuse recovery under a same-named but
    /// differently-tuned policy.
    fn spec(&self) -> String {
        self.name().to_string()
    }

    /// The priority of probing `cand` at `ctx.now`; the engine picks the
    /// candidate with the **minimum** score. Max-style policies (WIC) negate
    /// their utility.
    fn score(&self, ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64;

    /// Whether `score` is a pure function of `(ctx, cand)` — `true` for
    /// every paper policy. The default `Incremental` selector scores a
    /// candidate far less often than `Scan` does. A policy drawing from
    /// hidden mutable state (e.g. the `Random` baseline) draws according to
    /// how often it is called, so only `Scan` reproduces `Scan`'s schedule:
    /// the engine selects by `Scan` when this returns `false`.
    fn stable_scores(&self) -> bool {
        true
    }

    /// When this policy's scores change — what the default `Incremental`
    /// selector may cache across chronons. [`ScoreDynamics::Reseeded`]
    /// (the default) is always correct.
    fn score_dynamics(&self) -> ScoreDynamics {
        ScoreDynamics::Reseeded
    }
}

/// How a policy's scores evolve, declared by [`Policy::score_dynamics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreDynamics {
    /// Scores may depend on anything a candidate or [`PolicyContext`]
    /// exposes — the clock, resource occupancy, update flags. Within a
    /// chronon all of these are frozen once its windows have opened, and
    /// only the parent CEI's capture state changes: so the selector
    /// re-scores every live candidate once per chronon, and a candidate
    /// again after each sibling capture.
    Reseeded,
    /// The score reads only the candidate's static fields and its parent
    /// CEI's capture state (`captured` / `n_captured`), never the
    /// [`PolicyContext`]: a candidate's score changes only when a sibling
    /// EI is captured. The selector then scores each candidate once when
    /// its window opens and again after each sibling capture, and keeps
    /// one persistent queue across chronons.
    StateKeyed,
}

#[cfg(test)]
pub(crate) mod test_util {
    //! Shared scaffolding for policy unit tests.

    use super::*;
    use crate::model::ResourceId;

    /// Owns the arrays a `PolicyContext` borrows.
    pub struct CtxData {
        pub now: Chronon,
        pub active: Vec<u32>,
        pub updates: Vec<bool>,
    }

    impl CtxData {
        pub fn new(now: Chronon, n_resources: usize) -> Self {
            CtxData {
                now,
                active: vec![0; n_resources],
                updates: vec![false; n_resources],
            }
        }

        pub fn ctx(&self) -> PolicyContext<'_> {
            PolicyContext {
                now: self.now,
                resources: ResourceStats {
                    active_eis: &self.active,
                    has_update: &self.updates,
                },
            }
        }
    }

    pub fn ei(r: u32, s: Chronon, e: Chronon) -> Ei {
        Ei::new(ResourceId(r), s, e)
    }

    /// Scores candidate `idx` of a CEI described by `eis` + `captured`.
    pub fn score_of(
        policy: &dyn Policy,
        ctx: &PolicyContext<'_>,
        eis: &[Ei],
        captured: &[bool],
        idx: usize,
        profile_rank: u16,
    ) -> i64 {
        let cand = Candidate {
            ei: eis[idx],
            ei_index: idx,
            cei: CeiView {
                eis,
                captured,
                n_captured: captured.iter().filter(|&&c| c).count() as u16,
                required: u16::try_from(eis.len()).expect("test CEIs stay u16-sized"),
                weight: 1.0,
                profile_rank,
            },
        };
        policy.score(ctx, &cand)
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;
    use super::*;

    /// Reproduces the paper's Example 1 (Figure 6): a CEI with four EIs; at
    /// chronon T the policies assign S-EDF = 5, MRSF = 4, M-EDF = 22.
    ///
    /// Layout (T = 10): the candidate EI is active with 5 chronons left; the
    /// three uncaptured siblings are future EIs of lengths 6, 4, and 7.
    /// 5 + 6 + 4 + 7 = 22.
    #[test]
    fn figure6_policy_values() {
        let eis = vec![
            ei(0, 8, 14),  // active at T=10, remaining = 5
            ei(1, 16, 21), // future, |I| = 6
            ei(2, 23, 26), // future, |I| = 4
            ei(3, 28, 34), // future, |I| = 7
        ];
        let captured = vec![false; 4];
        let data = CtxData::new(10, 4);
        let ctx = data.ctx();

        assert_eq!(score_of(&SEdf, &ctx, &eis, &captured, 0, 4), 5);
        assert_eq!(score_of(&Mrsf, &ctx, &eis, &captured, 0, 4), 4);
        assert_eq!(score_of(&MEdf, &ctx, &eis, &captured, 0, 4), 22);
    }

    /// Reproduces the paper's Example 2 (Figure 7): CEI_1 (4 EIs, first two
    /// captured) vs CEI_2 (3 EIs, none captured). At chronon T with C_T = 1:
    /// S-EDF: 5 vs 6 → stick with CEI_1; MRSF: 2 vs 3 → stick with CEI_1;
    /// M-EDF: 19 vs 16 → preempt CEI_1 in favour of CEI_2.
    #[test]
    fn figure7_policy_decisions() {
        // CEI_1: EIs 0 and 1 captured; EI_2 active with 5 chronons left;
        // EI_3 future with |I| = 14. M-EDF = 5 + 14 = 19.
        let cei1 = vec![ei(0, 0, 3), ei(1, 4, 7), ei(2, 8, 16), ei(3, 20, 33)];
        let cap1 = vec![true, true, false, false];
        // CEI_2: EI active with 6 chronons left; futures of lengths 4 and 6.
        // M-EDF = 6 + 4 + 6 = 16.
        let cei2 = vec![ei(4, 10, 17), ei(5, 19, 22), ei(6, 24, 29)];
        let cap2 = vec![false, false, false];

        let data = CtxData::new(12, 7);
        let ctx = data.ctx();

        // S-EDF prefers CEI_1's EI (5 < 6).
        let s1 = score_of(&SEdf, &ctx, &cei1, &cap1, 2, 4);
        let s2 = score_of(&SEdf, &ctx, &cei2, &cap2, 0, 3);
        assert_eq!((s1, s2), (5, 6));
        assert!(s1 < s2);

        // MRSF prefers CEI_1 (2 remaining < 3 remaining).
        let m1 = score_of(&Mrsf, &ctx, &cei1, &cap1, 2, 4);
        let m2 = score_of(&Mrsf, &ctx, &cei2, &cap2, 0, 3);
        assert_eq!((m1, m2), (2, 3));
        assert!(m1 < m2);

        // M-EDF prefers CEI_2 (16 < 19) — preemption.
        let e1 = score_of(&MEdf, &ctx, &cei1, &cap1, 2, 4);
        let e2 = score_of(&MEdf, &ctx, &cei2, &cap2, 0, 3);
        assert_eq!((e1, e2), (19, 16));
        assert!(e2 < e1);
    }
}
