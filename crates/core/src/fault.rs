//! Seeded, deterministic fault injection for the online engine.
//!
//! The paper's engine assumes every probe succeeds instantly; real Web
//! sources time out, rate-limit, and go down in bursts. This module models
//! those failure modes as pure functions of a seed so that every faulted run
//! is exactly reproducible: the same `(model, seed, instance, policy)` tuple
//! always yields the same schedule, the same event stream, and the same
//! metrics, on any machine and under any `--jobs` parallelism.
//!
//! # Models
//!
//! * [`NoFaults`] — the zero-cost default. Its [`FaultModel::enabled`] hook
//!   returns `false`, so an engine run monomorphized over it skips every
//!   fault branch (the same trick
//!   [`NoopObserver`](crate::obs::NoopObserver) plays for events).
//! * [`IidFaults`] — independent per-probe failure with probability `rate`.
//!   Each attempt draws a Bernoulli variable from a hash of
//!   `(seed, chronon, resource, attempt)`, so outcomes are independent of
//!   the order in which the engine issues probes.
//! * [`GilbertElliott`] — per-resource bursty outages from the classic
//!   two-state Gilbert–Elliott chain (up → down with `p_fail`, down → up
//!   with `p_recover`). Transitions draw from a hash of
//!   `(seed, resource, chronon)`, so the full outage trace regenerates
//!   exactly from `(seed, params)` — see [`GilbertElliott::outage_trace`].
//! * [`RateLimit`] — per-resource probe quotas over fixed windows: at most
//!   `max_per_window` successful probes per resource per `window` chronons.
//!   An exhausted resource is *committed down* until the window ends, which
//!   is what lets the engine shed provably-doomed CEIs early.
//!
//! # Determinism contract
//!
//! Every model here is a deterministic function of its construction
//! parameters: no global RNG, no system entropy, no call-order dependence
//! beyond what the trait requires. The mixing function is the splitmix64
//! finalizer over a three-operand key, the same generator family the
//! workload layer uses.

use crate::model::{Chronon, ResourceId};
use serde::{Deserialize, Serialize};

/// Golden-ratio increment used to key the first hash operand.
const K1: u64 = 0x9E37_79B9_7F4A_7C15;
/// First splitmix64 finalizer multiplier, keys the second operand.
const K2: u64 = 0xBF58_476D_1CE4_E5B9;
/// Second splitmix64 finalizer multiplier, keys the third operand.
const K3: u64 = 0x94D0_49BB_1331_11EB;

/// Mixes `(seed, a, b, c)` into a uniform 64-bit value via the splitmix64
/// finalizer. Pure and order-independent: each distinct key maps to an
/// independent draw regardless of how many other keys were hashed.
#[inline]
fn hash3(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(K1))
        .wrapping_add(b.wrapping_mul(K2))
        .wrapping_add(c.wrapping_mul(K3))
        .wrapping_add(K1);
    z = (z ^ (z >> 30)).wrapping_mul(K2);
    z = (z ^ (z >> 27)).wrapping_mul(K3);
    z ^ (z >> 31)
}

/// Maps a hash to the unit interval `[0, 1)` with 53 bits of precision.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Bernoulli draw: `true` with probability `p`. `p <= 0.0` is never true
/// and `p >= 1.0` is always true, exactly.
#[inline]
fn bernoulli(h: u64, p: f64) -> bool {
    unit(h) < p
}

/// A deterministic source of probe failures and resource outages.
///
/// The engine calls [`begin_chronon`](Self::begin_chronon) once per chronon
/// (before any probing), reads [`down_until`](Self::down_until) for each
/// resource to learn committed outages, and consults
/// [`probe_succeeds`](Self::probe_succeeds) for every probe attempt.
///
/// # Contract
///
/// * `down_until(r)` returns `Some(u)` with `u >= t` (the current chronon)
///   iff the resource is unavailable, where `u` is an *inclusive* horizon
///   the model commits to: no probe on `r` can succeed at any chronon in
///   `t..=u`. Models that cannot commit beyond the present (e.g. a
///   memoryless chain) return `Some(t)`. A commitment may grow from one
///   chronon to the next but must never shrink.
/// * `probe_succeeds(t, r, attempt)` must return `false` whenever
///   `down_until(r)` is `Some(_)` at chronon `t`.
/// * All answers must be pure functions of the constructor parameters and
///   the sequence of `begin_chronon`/`probe_succeeds` calls.
pub trait FaultModel {
    /// Advances the model to chronon `t`. Called exactly once per chronon,
    /// in increasing order, before any probe of that chronon.
    fn begin_chronon(&mut self, t: Chronon);

    /// The committed inclusive unavailability horizon for `resource`, or
    /// `None` if the resource is currently up.
    fn down_until(&self, resource: ResourceId) -> Option<Chronon>;

    /// Whether a probe of `resource` at chronon `t` succeeds. `attempt` is
    /// the number of consecutive failures already observed on this resource
    /// (0 for a fresh probe, `k` for the k-th retry).
    fn probe_succeeds(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool;

    /// Whether the model can inject faults at all. When `false` the engine
    /// skips every fault branch, so [`NoFaults`] compiles down to the
    /// unfaulted loop.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// A stable description of the model's full parameterization (kind,
    /// rates, seed) — two models with equal descriptors must script
    /// identical outcomes. Feeds the serve journal's configuration
    /// fingerprint so `--recover` under a different fault script is
    /// refused up front instead of diverging mid-replay. There is no
    /// default: a model or wrapper that left it out would fingerprint like
    /// every other model.
    fn descriptor(&self) -> String;

    /// Whether the model's answers are a pure function of its parameters
    /// and of the calls it has seen, so that re-driving a fresh model
    /// through a journaled run's calls rebuilds its state. Crash recovery
    /// does that to hand a stateful model (a Gilbert–Elliott chain, a rate
    /// limiter) over in the uninterrupted run's state. A model that answers
    /// from the outside world (a live network prober) returns `false` and
    /// is not called during recovery.
    fn replayable(&self) -> bool {
        true
    }
}

/// Forwarding impl so engine entry points can take `&mut F` by value.
impl<F: FaultModel + ?Sized> FaultModel for &mut F {
    #[inline]
    fn begin_chronon(&mut self, t: Chronon) {
        (**self).begin_chronon(t);
    }
    #[inline]
    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        (**self).down_until(resource)
    }
    #[inline]
    fn probe_succeeds(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool {
        (**self).probe_succeeds(t, resource, attempt)
    }
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn descriptor(&self) -> String {
        (**self).descriptor()
    }
    fn replayable(&self) -> bool {
        (**self).replayable()
    }
}

/// The absent fault model: every probe succeeds, no resource is ever down.
///
/// [`enabled`](FaultModel::enabled) is `false` and every method is
/// `#[inline(always)]`, so monomorphized fault branches fold away entirely —
/// `OnlineEngine::run` and `run_observed` run the engine over it at zero
/// cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    #[inline(always)]
    fn begin_chronon(&mut self, _t: Chronon) {}
    #[inline(always)]
    fn down_until(&self, _resource: ResourceId) -> Option<Chronon> {
        None
    }
    #[inline(always)]
    fn probe_succeeds(&mut self, _t: Chronon, _resource: ResourceId, _attempt: u32) -> bool {
        true
    }
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    fn descriptor(&self) -> String {
        "none".to_string()
    }
}

/// Independent per-probe failures with a fixed rate.
///
/// Each attempt fails with probability `rate`, drawn from a hash of
/// `(seed, t, resource, attempt)`. Because the draw is keyed rather than
/// sequential, outcomes do not depend on the order in which the engine
/// issues probes, and for a fixed seed the set of failing keys is *nested*
/// in the rate: every attempt that fails at rate `r` also fails at any
/// `r' >= r`. That coupling is what makes corpus-aggregate completeness
/// monotone in the failure rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IidFaults {
    rate: f64,
    seed: u64,
}

impl IidFaults {
    /// A model failing each probe independently with probability `rate`
    /// (clamped to `[0, 1]`). Rate `0.0` never fails; `1.0` always fails.
    pub fn new(rate: f64, seed: u64) -> Self {
        Self {
            rate: rate.clamp(0.0, 1.0),
            seed,
        }
    }

    /// The (clamped) per-probe failure probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl FaultModel for IidFaults {
    #[inline]
    fn begin_chronon(&mut self, _t: Chronon) {}

    #[inline]
    fn down_until(&self, _resource: ResourceId) -> Option<Chronon> {
        None
    }

    #[inline]
    fn probe_succeeds(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool {
        !bernoulli(
            hash3(
                self.seed,
                u64::from(t),
                u64::from(resource.0),
                u64::from(attempt),
            ),
            self.rate,
        )
    }

    fn descriptor(&self) -> String {
        format!("iid(rate={},seed={})", self.rate, self.seed)
    }
}

/// Per-resource bursty outages: the two-state Gilbert–Elliott chain.
///
/// Every resource runs an independent chain. At each chronon an *up*
/// resource goes down with probability `p_fail` and a *down* resource
/// recovers with probability `p_recover`; the transition draw is a pure
/// hash of `(seed, resource, chronon)`, so the complete outage trace is a
/// function of `(seed, params)` alone — [`outage_trace`] recomputes it
/// without stepping a live model. All resources start up.
///
/// The chain is memoryless, so its committed horizon is only ever the
/// current chronon (`down_until == Some(t)` while down): Gilbert–Elliott
/// outages reduce throughput but never justify shedding a CEI whose
/// windows extend past the present.
///
/// [`outage_trace`]: GilbertElliott::outage_trace
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    p_fail: f64,
    p_recover: f64,
    seed: u64,
    now: Chronon,
    down: Vec<bool>,
}

impl GilbertElliott {
    /// A chain over `n_resources` resources with the given transition
    /// probabilities (each clamped to `[0, 1]`).
    pub fn new(p_fail: f64, p_recover: f64, seed: u64, n_resources: usize) -> Self {
        Self {
            p_fail: p_fail.clamp(0.0, 1.0),
            p_recover: p_recover.clamp(0.0, 1.0),
            seed,
            now: 0,
            down: vec![false; n_resources],
        }
    }

    /// Whether resource `r` is down at chronon `t`, assuming it was in
    /// state `down` at `t - 1` (or up at the start of the epoch).
    #[inline]
    fn step(&self, r: usize, t: Chronon, down: bool) -> bool {
        let draw = hash3(self.seed, u64::from(r as u32), u64::from(t), 0);
        if down {
            !bernoulli(draw, self.p_recover)
        } else {
            bernoulli(draw, self.p_fail)
        }
    }

    /// The exact down/up trace of `resource` over chronons `0..horizon`,
    /// recomputed from `(seed, params)` without mutating any state.
    /// `trace[t]` is `true` iff the resource is down at chronon `t`; a live
    /// model stepped through the same chronons reports identical states.
    pub fn outage_trace(&self, resource: ResourceId, horizon: Chronon) -> Vec<bool> {
        let r = resource.0 as usize;
        let mut down = false;
        (0..horizon)
            .map(|t| {
                down = self.step(r, t, down);
                down
            })
            .collect()
    }
}

impl FaultModel for GilbertElliott {
    fn begin_chronon(&mut self, t: Chronon) {
        self.now = t;
        for r in 0..self.down.len() {
            self.down[r] = self.step(r, t, self.down[r]);
        }
    }

    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        if self.down.get(resource.0 as usize).copied().unwrap_or(false) {
            Some(self.now)
        } else {
            None
        }
    }

    fn probe_succeeds(&mut self, _t: Chronon, resource: ResourceId, _attempt: u32) -> bool {
        !self.down.get(resource.0 as usize).copied().unwrap_or(false)
    }

    fn descriptor(&self) -> String {
        format!(
            "gilbert-elliott(p_fail={},p_recover={},seed={},resources={})",
            self.p_fail,
            self.p_recover,
            self.seed,
            self.down.len(),
        )
    }
}

/// Per-resource rate-limit windows: at most `max_per_window` successful
/// probes per resource within each aligned window of `window` chronons.
///
/// A resource whose quota is exhausted is committed down through the end of
/// its current window (`down_until == Some(window_end)`), which gives the
/// engine a real horizon to shed doomed CEIs against. Counters reset at
/// every window boundary. The model is fully deterministic — no seed is
/// involved at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateLimit {
    window: Chronon,
    max_per_window: u32,
    now: Chronon,
    used: Vec<u32>,
}

impl RateLimit {
    /// A limiter over `n_resources` resources allowing `max_per_window`
    /// probes per aligned `window`-chronon window (`window` clamped ≥ 1).
    pub fn new(window: Chronon, max_per_window: u32, n_resources: usize) -> Self {
        Self {
            window: window.max(1),
            max_per_window,
            now: 0,
            used: vec![0; n_resources],
        }
    }

    /// The last chronon (inclusive) of the window containing `t`.
    #[inline]
    fn window_end(&self, t: Chronon) -> Chronon {
        (t - t % self.window).saturating_add(self.window - 1)
    }
}

impl FaultModel for RateLimit {
    fn begin_chronon(&mut self, t: Chronon) {
        // `is_multiple_of` needs Rust 1.87; the workspace MSRV is 1.75.
        #[allow(clippy::manual_is_multiple_of)]
        if t % self.window == 0 {
            self.used.iter_mut().for_each(|u| *u = 0);
        }
        self.now = t;
    }

    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        let used = self.used.get(resource.0 as usize).copied().unwrap_or(0);
        if used >= self.max_per_window {
            Some(self.window_end(self.now))
        } else {
            None
        }
    }

    fn probe_succeeds(&mut self, _t: Chronon, resource: ResourceId, _attempt: u32) -> bool {
        match self.used.get_mut(resource.0 as usize) {
            Some(used) if *used < self.max_per_window => {
                *used += 1;
                true
            }
            _ => false,
        }
    }

    fn descriptor(&self) -> String {
        format!(
            "rate-limit(window={},max={},resources={})",
            self.window,
            self.max_per_window,
            self.used.len(),
        )
    }
}

/// Exponential backoff in chronons: after the k-th consecutive failure on a
/// resource, the next attempt is allowed no earlier than
/// `min(base * 2^(k-1), cap)` chronons later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Backoff {
    /// Delay after the first failure, in chronons (clamped ≥ 1).
    pub base: Chronon,
    /// Upper bound on any single delay, in chronons (clamped ≥ `base`).
    pub cap: Chronon,
}

impl Backoff {
    /// A schedule doubling from `base` up to `cap` chronons.
    pub fn new(base: Chronon, cap: Chronon) -> Self {
        let base = base.max(1);
        Self {
            base,
            cap: cap.max(base),
        }
    }

    /// The delay imposed after `failures` consecutive failures
    /// (`failures >= 1`): `min(base * 2^(failures-1), cap)`.
    pub fn delay(&self, failures: u32) -> Chronon {
        let doubled = u64::from(self.base) << failures.saturating_sub(1).min(32);
        doubled.min(u64::from(self.cap)) as Chronon
    }
}

/// How the engine reacts to probe failures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Whether a failed probe consumes its budget cost anyway (a timed-out
    /// request still spends the request). Defaults to `true`; when `false`,
    /// a failed resource is excluded from further selection in the same
    /// chronon so that free failures cannot loop.
    pub failures_cost: bool,
    /// Exponential backoff schedule; `None` means failed resources are
    /// immediately re-candidates (subject to the retry quota).
    pub backoff: Option<Backoff>,
    /// Maximum number of retry attempts (probes on a resource with at least
    /// one consecutive failure) per chronon; `None` is unlimited.
    pub retry_quota: Option<u32>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            failures_cost: true,
            backoff: None,
            retry_quota: None,
        }
    }
}

impl FaultConfig {
    /// The default reaction: failures charged, immediate retry, no quota.
    pub fn charged() -> Self {
        Self::default()
    }

    /// Replaces the backoff schedule.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = Some(backoff);
        self
    }

    /// Replaces the per-chronon retry quota.
    pub fn with_retry_quota(mut self, quota: u32) -> Self {
        self.retry_quota = Some(quota);
        self
    }

    /// Makes failed probes free (and non-retriable within the chronon).
    pub fn free_failures(mut self) -> Self {
        self.failures_cost = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash3_is_order_independent_and_keyed() {
        let a = hash3(7, 1, 2, 3);
        let b = hash3(7, 1, 2, 3);
        assert_eq!(a, b);
        assert_ne!(hash3(7, 1, 2, 3), hash3(7, 3, 2, 1));
        assert_ne!(hash3(7, 1, 2, 3), hash3(8, 1, 2, 3));
    }

    #[test]
    fn unit_maps_into_half_open_interval() {
        for h in [0, 1, u64::MAX / 2, u64::MAX] {
            let u = unit(h);
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn no_faults_is_disabled_and_always_succeeds() {
        let mut f = NoFaults;
        assert!(!f.enabled());
        f.begin_chronon(0);
        assert_eq!(f.down_until(ResourceId(0)), None);
        assert!(f.probe_succeeds(0, ResourceId(0), 0));
    }

    #[test]
    fn iid_rate_zero_never_fails_rate_one_always_fails() {
        let mut never = IidFaults::new(0.0, 42);
        let mut always = IidFaults::new(1.0, 42);
        for t in 0..50 {
            for r in 0..4 {
                assert!(never.probe_succeeds(t, ResourceId(r), 0));
                assert!(!always.probe_succeeds(t, ResourceId(r), 0));
            }
        }
    }

    #[test]
    fn iid_outcomes_are_call_order_independent() {
        let mut fwd = IidFaults::new(0.4, 9);
        let mut rev = IidFaults::new(0.4, 9);
        let keys: Vec<(Chronon, u32, u32)> = (0..20).map(|i| (i, i % 3, i % 2)).collect();
        let forward: Vec<bool> = keys
            .iter()
            .map(|&(t, r, a)| fwd.probe_succeeds(t, ResourceId(r), a))
            .collect();
        let mut backward: Vec<bool> = keys
            .iter()
            .rev()
            .map(|&(t, r, a)| rev.probe_succeeds(t, ResourceId(r), a))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn iid_failures_are_nested_in_the_rate() {
        // Coupled draws: every key failing at a lower rate also fails at
        // every higher rate (same seed). This underpins the monotonicity
        // property test in the integration suite.
        let seed = 123;
        let mut low = IidFaults::new(0.2, seed);
        let mut high = IidFaults::new(0.7, seed);
        for t in 0..100 {
            for r in 0..3 {
                let low_fails = !low.probe_succeeds(t, ResourceId(r), 0);
                let high_fails = !high.probe_succeeds(t, ResourceId(r), 0);
                if low_fails {
                    assert!(high_fails, "failure at rate 0.2 missing at 0.7");
                }
            }
        }
    }

    #[test]
    fn gilbert_elliott_regenerates_from_seed_and_params() {
        let model = GilbertElliott::new(0.3, 0.5, 77, 4);
        let mut live = model.clone();
        let horizon = 64;
        let traces: Vec<Vec<bool>> = (0..4)
            .map(|r| model.outage_trace(ResourceId(r), horizon))
            .collect();
        for t in 0..horizon {
            live.begin_chronon(t);
            for r in 0..4u32 {
                let down = live.down_until(ResourceId(r)).is_some();
                assert_eq!(down, traces[r as usize][t as usize], "r={r} t={t}");
                assert_eq!(live.probe_succeeds(t, ResourceId(r), 0), !down);
            }
        }
    }

    #[test]
    fn gilbert_elliott_commits_only_to_the_present() {
        let mut model = GilbertElliott::new(1.0, 0.0, 1, 1);
        model.begin_chronon(5);
        assert_eq!(model.down_until(ResourceId(0)), Some(5));
        model.begin_chronon(6);
        assert_eq!(model.down_until(ResourceId(0)), Some(6));
    }

    #[test]
    fn gilbert_elliott_extremes_pin_the_chain() {
        // p_fail 0: never goes down. p_fail 1 & p_recover 0: down forever.
        let stable = GilbertElliott::new(0.0, 1.0, 3, 2);
        assert!(stable.outage_trace(ResourceId(0), 40).iter().all(|&d| !d));
        let dead = GilbertElliott::new(1.0, 0.0, 3, 2);
        assert!(dead.outage_trace(ResourceId(1), 40).iter().all(|&d| d));
    }

    #[test]
    fn rate_limit_exhausts_and_resets_per_window() {
        let mut rl = RateLimit::new(4, 2, 1);
        let r = ResourceId(0);
        rl.begin_chronon(0);
        assert_eq!(rl.down_until(r), None);
        assert!(rl.probe_succeeds(0, r, 0));
        assert!(rl.probe_succeeds(0, r, 0));
        // Quota exhausted mid-chronon: further probes fail...
        assert!(!rl.probe_succeeds(0, r, 0));
        // ...and from the next chronon the resource is committed down
        // through the window end (chronon 3).
        rl.begin_chronon(1);
        assert_eq!(rl.down_until(r), Some(3));
        assert!(!rl.probe_succeeds(1, r, 0));
        rl.begin_chronon(2);
        assert_eq!(rl.down_until(r), Some(3));
        // Window boundary resets the counter.
        rl.begin_chronon(4);
        assert_eq!(rl.down_until(r), None);
        assert!(rl.probe_succeeds(4, r, 0));
    }

    #[test]
    fn rate_limit_window_is_clamped_to_one() {
        let mut rl = RateLimit::new(0, 1, 1);
        rl.begin_chronon(0);
        assert!(rl.probe_succeeds(0, ResourceId(0), 0));
        rl.begin_chronon(1);
        // Window of 1 chronon: counter reset every chronon.
        assert_eq!(rl.down_until(ResourceId(0)), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let b = Backoff::new(2, 16);
        assert_eq!(b.delay(1), 2);
        assert_eq!(b.delay(2), 4);
        assert_eq!(b.delay(3), 8);
        assert_eq!(b.delay(4), 16);
        assert_eq!(b.delay(5), 16);
        assert_eq!(b.delay(40), 16);
        // Degenerate inputs are clamped rather than panicking.
        let unit = Backoff::new(0, 0);
        assert_eq!(unit.delay(1), 1);
        assert_eq!(unit.delay(10), 1);
    }

    #[test]
    fn fault_config_builders_compose() {
        let cfg = FaultConfig::charged()
            .with_backoff(Backoff::new(1, 8))
            .with_retry_quota(3);
        assert!(cfg.failures_cost);
        assert_eq!(cfg.backoff, Some(Backoff::new(1, 8)));
        assert_eq!(cfg.retry_quota, Some(3));
        assert!(!FaultConfig::default().free_failures().failures_cost);
    }

    #[test]
    fn fault_config_serde_round_trips() {
        let cfg = FaultConfig::charged().with_backoff(Backoff::new(2, 32));
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
