//! Probe executors: how the daemon touches the Web.
//!
//! The engine's fault machinery already speaks the right language — a probe
//! either succeeds or fails, failures feed retry/backoff, committed outages
//! feed shedding — so a live executor is just a [`FaultModel`] whose
//! answers come from the network instead of a seeded script. The daemon
//! runs any [`FaultModel`]: [`NoFaults`] or a seeded model reproduces the
//! simulator's runs byte for byte, and [`TcpProbeExecutor`] probes real
//! targets — one TCP connect with a per-probe timeout per probe, resources
//! mapped round-robin onto the configured target addresses. Its failures
//! flow into the engine's `ProbeFailed` / retry / backoff machinery
//! unchanged.
//!
//! # Benchmark-compatibility surface
//!
//! [`ProbeExecutor`], [`ReplayExecutor`] and the [`FaultModel`] bridge for
//! `Box<E: ProbeExecutor>` are here only because the repository benchmark
//! (`perfbench/`) builds against them; the daemon never names them. They go
//! once the benchmark's timed executor becomes its timed fault model.
//!
//! [`NoFaults`]: crate::fault::NoFaults

use crate::fault::FaultModel;
use crate::model::{Chronon, ResourceId};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// [`FaultModel`] restated for implementors who think in probes rather than
/// faults: [`probe`](Self::probe) is [`FaultModel::probe_succeeds`] and
/// [`fallible`](Self::fallible) is [`FaultModel::enabled`]. Part of the
/// benchmark-compatibility surface (see the module docs).
pub trait ProbeExecutor {
    /// Advances the executor to chronon `t` (once per chronon, ascending).
    fn begin_chronon(&mut self, t: Chronon);

    /// The committed inclusive unavailability horizon for `resource`, or
    /// `None` if the resource is (as far as the executor knows) reachable.
    fn down_until(&self, resource: ResourceId) -> Option<Chronon>;

    /// Executes one probe of `resource` at chronon `t`; `attempt` counts
    /// the consecutive failures already observed on this resource. Returns
    /// whether the probe succeeded.
    fn probe(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool;

    /// Whether this executor can ever fail a probe. `false` routes the
    /// engine through the exact unfaulted instruction stream.
    fn fallible(&self) -> bool;

    /// A stable description of the executor's full identity, for the serve
    /// journal's configuration fingerprint.
    fn descriptor(&self) -> String {
        format!("fallible={}", self.fallible())
    }
}

/// Runs a boxed [`ProbeExecutor`] as the [`FaultModel`] the daemon takes.
/// Nothing says an executor's answers are replayable, so crash recovery
/// never calls it for the journaled chronons. Part of the
/// benchmark-compatibility surface (see the module docs).
impl<E: ProbeExecutor + ?Sized> FaultModel for Box<E> {
    fn begin_chronon(&mut self, t: Chronon) {
        (**self).begin_chronon(t);
    }
    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        (**self).down_until(resource)
    }
    fn probe_succeeds(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool {
        (**self).probe(t, resource, attempt)
    }
    fn enabled(&self) -> bool {
        (**self).fallible()
    }
    fn descriptor(&self) -> String {
        (**self).descriptor()
    }
    fn replayable(&self) -> bool {
        false
    }
}

/// The [`ProbeExecutor`] spelling of [`NoFaults`](crate::fault::NoFaults):
/// every probe succeeds and `fallible()` is `false`, so the engine takes
/// the exact unfaulted simulator path. Part of the benchmark-compatibility
/// surface (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayExecutor;

impl ReplayExecutor {
    /// An executor whose every probe succeeds.
    pub fn faultless() -> Self {
        ReplayExecutor
    }
}

impl ProbeExecutor for ReplayExecutor {
    fn begin_chronon(&mut self, _t: Chronon) {}
    fn down_until(&self, _resource: ResourceId) -> Option<Chronon> {
        None
    }
    fn probe(&mut self, _t: Chronon, _resource: ResourceId, _attempt: u32) -> bool {
        true
    }
    fn fallible(&self) -> bool {
        false
    }
    fn descriptor(&self) -> String {
        "none".to_string()
    }
}

/// A live TCP prober: each probe is one `connect` with a per-probe timeout
/// against the target address the resource maps to (round-robin over the
/// configured targets), success iff the connection is established.
///
/// The executor is fully synchronous — no probe threads exist, so daemon
/// shutdown has nothing to leak; the shared stop flag
/// ([`stop_flag`](Self::stop_flag)) makes every probe after shutdown fail
/// immediately instead of waiting out its timeout, bounding exit latency
/// even mid-backoff. Its answers come from the network, so it is not
/// [`replayable`](FaultModel::replayable): recovery never probes during
/// replay.
#[derive(Debug)]
pub struct TcpProbeExecutor {
    targets: Vec<SocketAddr>,
    timeout: Duration,
    stop: Arc<AtomicBool>,
}

impl TcpProbeExecutor {
    /// A prober over `targets` with the given per-probe connect timeout.
    /// With no targets every probe fails (nothing to monitor is a fault,
    /// not a success).
    pub fn new(targets: Vec<SocketAddr>, timeout: Duration) -> Self {
        TcpProbeExecutor {
            targets,
            timeout,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The shared stop flag: set it to make every subsequent probe fail
    /// fast (used by daemon shutdown).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// The target address `resource` maps to.
    pub fn target_of(&self, resource: ResourceId) -> Option<SocketAddr> {
        if self.targets.is_empty() {
            None
        } else {
            Some(self.targets[resource.index() % self.targets.len()])
        }
    }
}

impl FaultModel for TcpProbeExecutor {
    fn begin_chronon(&mut self, _t: Chronon) {}

    fn down_until(&self, _resource: ResourceId) -> Option<Chronon> {
        // A live network never commits to future unavailability; shedding
        // stays a simulator-side optimization.
        None
    }

    fn probe_succeeds(&mut self, _t: Chronon, resource: ResourceId, _attempt: u32) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return false;
        }
        match self.target_of(resource) {
            Some(addr) => TcpStream::connect_timeout(&addr, self.timeout).is_ok(),
            None => false,
        }
    }

    fn descriptor(&self) -> String {
        format!(
            "tcp(targets={:?},timeout_ms={})",
            self.targets,
            self.timeout.as_millis(),
        )
    }

    fn replayable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_replay_is_infallible_and_always_succeeds() {
        let mut e = ReplayExecutor::faultless();
        assert!(!e.fallible());
        e.begin_chronon(0);
        assert_eq!(e.down_until(ResourceId(0)), None);
        assert!(e.probe(0, ResourceId(0), 0));
        // The bridge mirrors the executor verbatim, and never re-drives it.
        let m: Box<dyn ProbeExecutor> = Box::new(e);
        assert!(!m.enabled());
        assert!(!m.replayable());
        assert_eq!(m.descriptor(), "none");
    }

    #[test]
    fn tcp_executor_with_no_targets_fails_every_probe() {
        let mut e = TcpProbeExecutor::new(Vec::new(), Duration::from_millis(5));
        assert!(e.enabled());
        assert!(!e.replayable());
        assert_eq!(e.target_of(ResourceId(3)), None);
        assert!(!e.probe_succeeds(0, ResourceId(3), 0));
    }

    #[test]
    fn tcp_executor_stop_flag_fails_fast() {
        // A bound listener would accept, but the stop flag short-circuits
        // before any connect happens.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut e = TcpProbeExecutor::new(vec![addr], Duration::from_millis(200));
        assert!(e.probe_succeeds(0, ResourceId(0), 0));
        e.stop_flag().store(true, Ordering::Relaxed);
        assert!(!e.probe_succeeds(1, ResourceId(0), 1));
    }

    #[test]
    fn tcp_executor_maps_resources_round_robin() {
        let a: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:2".parse().unwrap();
        let e = TcpProbeExecutor::new(vec![a, b], Duration::from_millis(5));
        assert_eq!(e.target_of(ResourceId(0)), Some(a));
        assert_eq!(e.target_of(ResourceId(1)), Some(b));
        assert_eq!(e.target_of(ResourceId(2)), Some(a));
    }
}
