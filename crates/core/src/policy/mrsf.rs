//! Minimal Residual Stub First (MRSF).

use super::{Candidate, Policy, PolicyContext, ScoreDynamics};

/// **MRSF** — the rank-level representative: prefer EIs whose parent CEI has
/// the fewest EIs left to capture,
/// `MRSF(I) = rank(p) − Σ_{I' ∈ η} X(I', S)` (Section IV-A).
///
/// Intuition: a CEI with fewer remaining EIs has a higher probability of
/// being completed, so finishing near-complete CEIs first wastes fewer
/// probes. Prop. 2 shows MRSF is `l`-competitive with
/// `l = max_{η} Σ_{I ∈ η} |I|` (no intra-resource overlap).
///
/// Note the formula uses the *profile* rank, not the CEI's own size; the two
/// agree whenever every CEI of a profile has exactly `rank(p)` EIs, which
/// holds in all of the paper's experiments. [`MrsfExact`] is the variant
/// using the CEI's own size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mrsf;

impl Policy for Mrsf {
    fn name(&self) -> &'static str {
        "MRSF"
    }

    #[inline]
    fn score(&self, _ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64 {
        i64::from(cand.cei.profile_rank) - i64::from(cand.cei.n_captured)
    }

    fn score_dynamics(&self) -> ScoreDynamics {
        ScoreDynamics::StateKeyed
    }
}

/// Ablation variant of [`Mrsf`] scoring the *exact* residual
/// `required − Σ X(I', S)` — the "number of EIs left to be captured" of the
/// paper's prose — instead of the formula's `rank(p) − Σ X(I', S)`.
/// On the paper's AND-semantics constructs `required = |η|`, so the two
/// differ only when a profile mixes CEI sizes; under the §VII threshold
/// extension this is the natural residual.
#[derive(Debug, Clone, Copy, Default)]
pub struct MrsfExact;

impl Policy for MrsfExact {
    fn name(&self) -> &'static str {
        "MRSF-Exact"
    }

    #[inline]
    fn score(&self, _ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64 {
        i64::from(cand.cei.required) - i64::from(cand.cei.n_captured)
    }

    fn score_dynamics(&self) -> ScoreDynamics {
        ScoreDynamics::StateKeyed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::*;

    #[test]
    fn score_is_rank_minus_captured() {
        let eis = vec![ei(0, 0, 5), ei(1, 0, 5), ei(2, 0, 5)];
        let data = CtxData::new(0, 3);
        let ctx = data.ctx();
        assert_eq!(score_of(&Mrsf, &ctx, &eis, &[false; 3], 0, 3), 3);
        assert_eq!(score_of(&Mrsf, &ctx, &eis, &[true, false, false], 1, 3), 2);
        assert_eq!(score_of(&Mrsf, &ctx, &eis, &[true, true, false], 2, 3), 1);
    }

    #[test]
    fn nearly_complete_cei_preferred() {
        let a = vec![ei(0, 0, 5), ei(1, 0, 5)];
        let b = vec![ei(2, 0, 5), ei(3, 0, 5)];
        let data = CtxData::new(0, 4);
        let ctx = data.ctx();
        let near = score_of(&Mrsf, &ctx, &a, &[true, false], 1, 2);
        let fresh = score_of(&Mrsf, &ctx, &b, &[false, false], 0, 2);
        assert!(near < fresh);
    }

    #[test]
    fn paper_formula_uses_profile_rank_not_cei_size() {
        // A rank-5 profile containing a 2-EI CEI: the paper formula scores
        // 5 - 0 = 5, the exact variant scores 2 - 0 = 2.
        let eis = vec![ei(0, 0, 5), ei(1, 0, 5)];
        let data = CtxData::new(0, 2);
        let ctx = data.ctx();
        assert_eq!(score_of(&Mrsf, &ctx, &eis, &[false, false], 0, 5), 5);
        assert_eq!(score_of(&MrsfExact, &ctx, &eis, &[false, false], 0, 5), 2);
    }

    #[test]
    fn variants_agree_on_uniform_rank() {
        let eis = vec![ei(0, 0, 5), ei(1, 0, 5), ei(2, 0, 5)];
        let cap = [true, false, false];
        let data = CtxData::new(0, 3);
        let ctx = data.ctx();
        assert_eq!(
            score_of(&Mrsf, &ctx, &eis, &cap, 1, 3),
            score_of(&MrsfExact, &ctx, &eis, &cap, 1, 3)
        );
    }

    #[test]
    fn score_is_time_invariant() {
        let eis = vec![ei(0, 0, 9), ei(1, 0, 9)];
        let cap = [false, false];
        let early = CtxData::new(0, 2);
        let late = CtxData::new(8, 2);
        assert_eq!(
            score_of(&Mrsf, &early.ctx(), &eis, &cap, 0, 2),
            score_of(&Mrsf, &late.ctx(), &eis, &cap, 0, 2)
        );
    }
}
