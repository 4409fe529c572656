//! Clocks: mapping discrete chronons onto real (or test-controlled) time.
//!
//! The engine itself is purely discrete — chronon `t` begins the instant
//! chronon `t - 1` ends. A [`Clock`] decides *when* that instant occurs on
//! the host: [`FreeClock`] as fast as the CPU allows, [`WallClock`] at a
//! fixed number of milliseconds per chronon, [`ManualClock`] only when a
//! test explicitly advances it. Every clock can be *released* from another
//! thread (see [`Clock::release_handle`]): a released clock stops pacing
//! permanently and the engine free-runs to the horizon, which is how the
//! daemon's `shutdown` command drains a run cleanly instead of killing it.

use crate::model::Chronon;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A thread-safe handle that releases a [`Clock`]: after invocation every
/// pending and future [`Clock::wait_until`] returns `false` immediately.
pub type ClockRelease = Arc<dyn Fn() + Send + Sync>;

/// Decides when each chronon may begin.
///
/// The chronon driver calls [`wait_until`](Self::wait_until) with strictly
/// increasing `t` immediately before the engine performs chronon `t`'s
/// work. Pacing never changes *what* the engine computes — only when — so
/// any two clocks yield bit-identical schedules, stats, and event streams.
pub trait Clock {
    /// Blocks until chronon `t` may begin. Returns `true` when the chronon
    /// was paced normally, `false` once the clock has been released — the
    /// caller then stops pacing entirely and free-runs to the horizon.
    fn wait_until(&mut self, t: Chronon) -> bool;

    /// A handle that releases this clock from any thread.
    fn release_handle(&self) -> ClockRelease;

    /// Whether the clock gives chronons a time to begin at all: `false`
    /// only for [`FreeClock`]. Work an unpaced engine hands off may wait
    /// for room, since no chronon deadline depends on it.
    fn paces(&self) -> bool {
        true
    }
}

/// Forwarding impl so boxed clocks (`Box<dyn Clock + Send>`) plug into
/// generic drivers.
impl<C: Clock + ?Sized> Clock for Box<C> {
    fn wait_until(&mut self, t: Chronon) -> bool {
        (**self).wait_until(t)
    }
    fn release_handle(&self) -> ClockRelease {
        (**self).release_handle()
    }
    fn paces(&self) -> bool {
        (**self).paces()
    }
}

/// The unpaced clock: every chronon may begin immediately. Releasing it is
/// a no-op (it never blocks in the first place).
#[derive(Debug, Clone, Copy, Default)]
pub struct FreeClock;

impl Clock for FreeClock {
    fn wait_until(&mut self, _t: Chronon) -> bool {
        true
    }
    fn release_handle(&self) -> ClockRelease {
        Arc::new(|| {})
    }
    fn paces(&self) -> bool {
        false
    }
}

/// Shared released-flag + condvar a blocked waiter sleeps on.
#[derive(Debug, Default)]
struct Release {
    released: Mutex<bool>,
    cv: Condvar,
}

impl Release {
    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// Real-time pacing: chronon `t` begins no earlier than
/// `start + t * chronon_ms`, where `start` is sampled at the first wait.
///
/// The sleep is interruptible: a [`ClockRelease`] wakes any in-flight wait
/// immediately, so daemon shutdown never stalls on a long chronon period.
/// A run that falls behind wall time (a chronon's work exceeded its
/// period) does not sleep at all until the schedule catches up — deadlines
/// are absolute, not relative.
#[derive(Debug)]
pub struct WallClock {
    period: Duration,
    start: Option<Instant>,
    /// Chronon mapped to the sampled start instant. A fresh run anchors at
    /// 0; a recovered run anchors at its first live chronon so the replayed
    /// prefix (whose chronons are all below the anchor) never sleeps.
    anchor: Chronon,
    release: Arc<Release>,
}

impl WallClock {
    /// A clock running at `chronon_ms` milliseconds per chronon
    /// (clamped ≥ 1; use [`FreeClock`] for unpaced runs).
    pub fn new(chronon_ms: u64) -> Self {
        Self::anchored(chronon_ms, 0)
    }

    /// A clock whose deadline for chronon `t` is
    /// `start + (t - anchor) * chronon_ms` — recovery's clock: replaying
    /// journaled chronons (`t < anchor`) free-runs, and live pacing resumes
    /// exactly at the anchor chronon.
    pub fn anchored(chronon_ms: u64, anchor: Chronon) -> Self {
        WallClock {
            period: Duration::from_millis(chronon_ms.max(1)),
            start: None,
            anchor,
            release: Arc::new(Release::default()),
        }
    }
}

impl Clock for WallClock {
    fn wait_until(&mut self, t: Chronon) -> bool {
        let start = *self.start.get_or_insert_with(Instant::now);
        let deadline = start + self.period * t.saturating_sub(self.anchor);
        let mut released = self.release.released.lock().unwrap();
        loop {
            if *released {
                return false;
            }
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return true;
            };
            released = self.release.cv.wait_timeout(released, remaining).unwrap().0;
        }
    }

    fn release_handle(&self) -> ClockRelease {
        let release = Arc::clone(&self.release);
        Arc::new(move || release.release())
    }
}

/// Shared gate state of a [`ManualClock`].
#[derive(Debug, Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    /// Highest chronon allowed to begin.
    allowed: Chronon,
    released: bool,
}

/// Test-controlled pacing: chronon `t` begins only once a [`ManualHandle`]
/// has advanced the gate to `t` or beyond (or released the clock).
///
/// Chronon 0 is allowed from construction, so a freshly built manual clock
/// lets the run reach its first wait point before the controlling test has
/// to do anything.
#[derive(Debug, Default)]
pub struct ManualClock {
    gate: Arc<Gate>,
}

impl ManualClock {
    /// A manual clock gating at chronon 0, plus the handle that advances it.
    pub fn new() -> (Self, ManualHandle) {
        let clock = ManualClock::default();
        let handle = ManualHandle {
            gate: Arc::clone(&clock.gate),
        };
        (clock, handle)
    }
}

impl Clock for ManualClock {
    fn wait_until(&mut self, t: Chronon) -> bool {
        let mut state = self.gate.state.lock().unwrap();
        loop {
            if state.released {
                return false;
            }
            if t <= state.allowed {
                return true;
            }
            state = self.gate.cv.wait(state).unwrap();
        }
    }

    fn release_handle(&self) -> ClockRelease {
        let gate = Arc::clone(&self.gate);
        Arc::new(move || {
            gate.state.lock().unwrap().released = true;
            gate.cv.notify_all();
        })
    }
}

/// Cloneable controller for a [`ManualClock`], usable from any thread.
#[derive(Debug, Clone)]
pub struct ManualHandle {
    gate: Arc<Gate>,
}

impl ManualHandle {
    /// Allows every chronon up to and including `t` to begin. The gate only
    /// moves forward; an earlier `t` is a no-op.
    pub fn advance_to(&self, t: Chronon) {
        let mut state = self.gate.state.lock().unwrap();
        if t > state.allowed {
            state.allowed = t;
            self.gate.cv.notify_all();
        }
    }

    /// Advances the gate by `n` chronons.
    pub fn advance(&self, n: Chronon) {
        let mut state = self.gate.state.lock().unwrap();
        state.allowed = state.allowed.saturating_add(n);
        self.gate.cv.notify_all();
    }

    /// Releases the clock: the run free-runs to the horizon from here on.
    pub fn release(&self) {
        let mut state = self.gate.state.lock().unwrap();
        state.released = true;
        self.gate.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_clock_never_blocks() {
        let mut c = FreeClock;
        for t in 0..100 {
            assert!(c.wait_until(t));
        }
        (c.release_handle())(); // no-op, must not panic
        assert!(!c.paces() && WallClock::new(5).paces() && ManualClock::new().0.paces());
    }

    #[test]
    fn manual_clock_gates_until_advanced() {
        let (mut clock, handle) = ManualClock::new();
        assert!(
            clock.wait_until(0),
            "chronon 0 is allowed from construction"
        );
        handle.advance_to(2);
        assert!(clock.wait_until(1));
        assert!(clock.wait_until(2));
        // Advancing backwards is a no-op; advance(n) is relative.
        handle.advance_to(1);
        handle.advance(1);
        assert!(clock.wait_until(3));
    }

    #[test]
    fn manual_clock_blocks_across_threads_and_releases() {
        let (mut clock, handle) = ManualClock::new();
        let release = clock.release_handle();
        let waiter = std::thread::spawn(move || clock.wait_until(5));
        // The waiter cannot proceed until the gate moves; release instead.
        std::thread::sleep(Duration::from_millis(10));
        release();
        assert!(!waiter.join().unwrap(), "released wait reports free-run");
        handle.release(); // idempotent
    }

    #[test]
    fn anchored_wall_clock_free_runs_below_the_anchor() {
        let mut clock = WallClock::anchored(50, 100);
        let t0 = Instant::now();
        // Every chronon at or below the anchor is already due.
        for t in 0..=100 {
            assert!(clock.wait_until(t));
        }
        assert!(t0.elapsed() < Duration::from_millis(40), "replay paced");
        // The first post-anchor chronon paces one period from the anchor.
        assert!(clock.wait_until(101));
        assert!(t0.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn wall_clock_paces_and_releases() {
        let mut clock = WallClock::new(5);
        let t0 = Instant::now();
        assert!(clock.wait_until(0));
        assert!(clock.wait_until(2));
        assert!(t0.elapsed() >= Duration::from_millis(10));
        (clock.release_handle())();
        assert!(!clock.wait_until(1000), "released clock never sleeps again");
    }
}
