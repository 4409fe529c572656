//! Utility-weighted policy wrapper — the profile-utility extension of
//! Section VII ("such utilities can further help to construct better
//! prioritized policies").

use super::{Candidate, Policy, PolicyContext, ScoreDynamics};

/// Fixed-point scale applied before dividing by the weight, so fractional
/// priorities survive the integer score.
const SCALE: f64 = 64.0;

/// Wraps any min-score policy and divides its score by the candidate CEI's
/// utility weight: a CEI worth `2×` is served as if its base priority were
/// twice as urgent. With unit weights the wrapped policy's *ordering* is
/// unchanged (scores are scaled by a constant).
///
/// The weight is a static CEI field, so the wrapper inherits the inner
/// policy's contracts: [`stable_scores`](Policy::stable_scores),
/// [`score_dynamics`](Policy::score_dynamics), and the parameters in
/// [`spec`](Policy::spec).
///
/// ```
/// use webmon_core::policy::{Mrsf, UtilityWeighted};
/// let policy = UtilityWeighted::new(Mrsf, "U-MRSF");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct UtilityWeighted<P> {
    inner: P,
    label: &'static str,
}

impl<P: Policy> UtilityWeighted<P> {
    /// Wraps `inner`, reporting `label` in experiment tables.
    pub fn new(inner: P, label: &'static str) -> Self {
        UtilityWeighted { inner, label }
    }
}

impl<P: Policy> Policy for UtilityWeighted<P> {
    fn name(&self) -> &'static str {
        self.label
    }

    fn spec(&self) -> String {
        format!("{}({})", self.label, self.inner.spec())
    }

    fn score(&self, ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64 {
        let base = self.inner.score(ctx, cand) as f64;
        (base * SCALE / f64::from(cand.cei.weight)).round() as i64
    }

    fn stable_scores(&self) -> bool {
        self.inner.stable_scores()
    }

    fn score_dynamics(&self) -> ScoreDynamics {
        self.inner.score_dynamics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::*;
    use crate::policy::{CeiView, Mrsf, RandomPolicy, SEdf};

    fn weighted_score(policy: &dyn Policy, eis: &[crate::model::Ei], weight: f32, now: u32) -> i64 {
        let captured = vec![false; eis.len()];
        let data = CtxData::new(now, eis.len());
        let cand = Candidate {
            ei: eis[0],
            ei_index: 0,
            cei: CeiView {
                eis,
                captured: &captured,
                n_captured: 0,
                required: u16::try_from(eis.len()).expect("test CEIs stay u16-sized"),
                weight,
                profile_rank: u16::try_from(eis.len()).expect("test CEIs stay u16-sized"),
            },
        };
        policy.score(&data.ctx(), &cand)
    }

    #[test]
    fn heavier_cei_gets_lower_score() {
        let p = UtilityWeighted::new(SEdf, "U-S-EDF");
        let eis = vec![ei(0, 0, 9)];
        let light = weighted_score(&p, &eis, 1.0, 0);
        let heavy = weighted_score(&p, &eis, 4.0, 0);
        assert!(heavy < light, "heavy {heavy} should beat light {light}");
        assert_eq!(light, 10 * 64);
        assert_eq!(heavy, 10 * 16);
    }

    #[test]
    fn unit_weights_preserve_ordering() {
        let base = Mrsf;
        let wrapped = UtilityWeighted::new(Mrsf, "U-MRSF");
        let a = vec![ei(0, 0, 5), ei(1, 0, 5)];
        let b = vec![ei(2, 0, 5), ei(3, 0, 5), ei(4, 0, 5)];
        let sa = weighted_score(&wrapped, &a, 1.0, 0);
        let sb = weighted_score(&wrapped, &b, 1.0, 0);
        let ba = weighted_score(&base, &a, 1.0, 0);
        let bb = weighted_score(&base, &b, 1.0, 0);
        assert_eq!(sa < sb, ba < bb);
    }

    #[test]
    fn label_is_reported() {
        let p = UtilityWeighted::new(SEdf, "U-S-EDF");
        assert_eq!(p.name(), "U-S-EDF");
    }

    #[test]
    fn wrapper_forwards_the_inner_contracts() {
        // An unstable inner policy must stay unstable behind the wrapper,
        // or the heap selectors' stale re-push loop never terminates.
        let random = UtilityWeighted::new(RandomPolicy::new(7), "U");
        assert!(!random.stable_scores());
        assert_eq!(random.score_dynamics(), ScoreDynamics::Reseeded);
        // Differently seeded inner policies must not share a fingerprint.
        assert_ne!(
            random.spec(),
            UtilityWeighted::new(RandomPolicy::new(8), "U").spec()
        );
        let mrsf = UtilityWeighted::new(Mrsf, "U-MRSF");
        assert!(mrsf.stable_scores());
        assert_eq!(mrsf.score_dynamics(), ScoreDynamics::StateKeyed);
        assert_eq!(
            UtilityWeighted::new(SEdf, "U-S-EDF").score_dynamics(),
            ScoreDynamics::Reseeded
        );
    }
}
