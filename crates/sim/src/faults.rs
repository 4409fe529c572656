//! Serializable fault-model specifications for experiments and the CLI.
//!
//! A [`FaultSpec`] names one of the shipped deterministic fault models of
//! [`webmon_core::fault`] plus its seed and retry configuration. Specs are
//! plain data (CLI flags, sweep axes, JSON) and [`FaultSpec::build`] turns
//! one into a concrete model per repetition, forking the seed by
//! repetition index exactly like policy seeding — so a faulted experiment
//! stays a pure function of `(config, spec, fault, rep)` and `--jobs N`
//! remains bit-identical to `--jobs 1`.

use serde::{Deserialize, Serialize};
use webmon_core::fault::{FaultConfig, FaultModel, GilbertElliott, IidFaults, RateLimit};
use webmon_core::model::{Chronon, ResourceId};

/// Which shipped fault model to run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Independent per-probe failures with the given probability.
    Iid {
        /// Per-probe failure probability in `[0, 1]`.
        rate: f64,
    },
    /// Per-resource bursty outages (two-state Gilbert–Elliott chain).
    Burst {
        /// Per-chronon probability an up resource goes down.
        p_fail: f64,
        /// Per-chronon probability a down resource recovers.
        p_recover: f64,
    },
    /// Per-resource rate-limit windows.
    RateLimit {
        /// Window length in chronons.
        window: Chronon,
        /// Probes allowed per resource per window.
        max_per_window: u32,
    },
}

impl FaultKind {
    /// Short table label, e.g. `"iid(0.30)"`.
    pub fn label(&self) -> String {
        match self {
            FaultKind::Iid { rate } => format!("iid({rate:.2})"),
            FaultKind::Burst { p_fail, p_recover } => {
                format!("burst({p_fail:.2},{p_recover:.2})")
            }
            FaultKind::RateLimit {
                window,
                max_per_window,
            } => format!("ratelimit({window},{max_per_window})"),
        }
    }
}

/// A complete fault scenario: model, seed, and retry configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The fault model to instantiate.
    pub kind: FaultKind,
    /// Master fault seed; each repetition forks it by index.
    pub seed: u64,
    /// Failure charging, backoff, and retry-quota configuration.
    pub config: FaultConfig,
}

impl FaultSpec {
    /// An i.i.d. spec at the given failure rate (charged failures,
    /// immediate retry).
    pub fn iid(rate: f64, seed: u64) -> Self {
        FaultSpec {
            kind: FaultKind::Iid { rate },
            seed,
            config: FaultConfig::default(),
        }
    }

    /// A bursty-outage spec.
    pub fn burst(p_fail: f64, p_recover: f64, seed: u64) -> Self {
        FaultSpec {
            kind: FaultKind::Burst { p_fail, p_recover },
            seed,
            config: FaultConfig::default(),
        }
    }

    /// Replaces the retry configuration.
    pub fn with_config(mut self, config: FaultConfig) -> Self {
        self.config = config;
        self
    }

    /// Instantiates the model for repetition `rep` of an instance with
    /// `n_resources` resources. The per-repetition seed is
    /// `seed.wrapping_add(rep)`, mirroring policy seeding.
    pub fn build(&self, rep: u64, n_resources: usize) -> BuiltFault {
        let seed = self.seed.wrapping_add(rep);
        match self.kind {
            FaultKind::Iid { rate } => BuiltFault::Iid(IidFaults::new(rate, seed)),
            FaultKind::Burst { p_fail, p_recover } => {
                BuiltFault::Burst(GilbertElliott::new(p_fail, p_recover, seed, n_resources))
            }
            FaultKind::RateLimit {
                window,
                max_per_window,
            } => BuiltFault::RateLimit(RateLimit::new(window, max_per_window, n_resources)),
        }
    }
}

/// A [`FaultSpec`] instantiated for one repetition — an enum so the
/// experiment driver can hold any shipped model without boxing (the trait
/// is not object-safe-hostile, but an enum keeps the engine monomorphized).
#[derive(Debug, Clone)]
pub enum BuiltFault {
    /// Independent per-probe failures.
    Iid(IidFaults),
    /// Gilbert–Elliott bursty outages.
    Burst(GilbertElliott),
    /// Rate-limit windows.
    RateLimit(RateLimit),
}

impl FaultModel for BuiltFault {
    fn begin_chronon(&mut self, t: Chronon) {
        match self {
            BuiltFault::Iid(m) => m.begin_chronon(t),
            BuiltFault::Burst(m) => m.begin_chronon(t),
            BuiltFault::RateLimit(m) => m.begin_chronon(t),
        }
    }

    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        match self {
            BuiltFault::Iid(m) => m.down_until(resource),
            BuiltFault::Burst(m) => m.down_until(resource),
            BuiltFault::RateLimit(m) => m.down_until(resource),
        }
    }

    fn probe_succeeds(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool {
        match self {
            BuiltFault::Iid(m) => m.probe_succeeds(t, resource, attempt),
            BuiltFault::Burst(m) => m.probe_succeeds(t, resource, attempt),
            BuiltFault::RateLimit(m) => m.probe_succeeds(t, resource, attempt),
        }
    }

    fn enabled(&self) -> bool {
        match self {
            BuiltFault::Iid(m) => m.enabled(),
            BuiltFault::Burst(m) => m.enabled(),
            BuiltFault::RateLimit(m) => m.enabled(),
        }
    }

    fn descriptor(&self) -> String {
        match self {
            BuiltFault::Iid(m) => m.descriptor(),
            BuiltFault::Burst(m) => m.descriptor(),
            BuiltFault::RateLimit(m) => m.descriptor(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_name_the_model() {
        assert_eq!(FaultSpec::iid(0.3, 1).kind.label(), "iid(0.30)");
        assert_eq!(
            FaultSpec::burst(0.1, 0.5, 1).kind.label(),
            "burst(0.10,0.50)"
        );
        let rl = FaultKind::RateLimit {
            window: 4,
            max_per_window: 2,
        };
        assert_eq!(rl.label(), "ratelimit(4,2)");
    }

    #[test]
    fn build_forks_seed_by_repetition() {
        let spec = FaultSpec::iid(0.5, 100);
        let (BuiltFault::Iid(a), BuiltFault::Iid(b)) = (spec.build(0, 4), spec.build(1, 4)) else {
            panic!("iid spec built a non-iid model");
        };
        // Different repetition seeds draw different failure sets.
        let a_fails: Vec<bool> = (0..64)
            .map(|t| !a.clone().probe_succeeds(t, ResourceId(0), 0))
            .collect();
        let b_fails: Vec<bool> = (0..64)
            .map(|t| !b.clone().probe_succeeds(t, ResourceId(0), 0))
            .collect();
        assert_ne!(a_fails, b_fails);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec =
            FaultSpec::burst(0.2, 0.6, 7).with_config(FaultConfig::default().with_retry_quota(3));
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
