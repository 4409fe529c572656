//! Dependency-free parallel execution for embarrassingly parallel work:
//! experiment stages (repetitions, grid points, policies). The engine loop
//! itself is serial.
//!
//! The workspace forbids external crates, so this is a minimal scoped-thread
//! work queue built on [`std::thread::scope`]. The one primitive is
//! [`par_map`]: it fans a list of independent items out to a pool of
//! workers and collects the results **keyed by input index**, so the output
//! order — and therefore every downstream aggregate — is bit-identical to a
//! sequential run. Parallelism only changes wall-clock time (and any
//! wall-clock *measurements* taken inside the mapped closure, which is why
//! the timed experiments pin themselves to one worker with [`serial`]).
//!
//! One knob resolves here: **jobs**, the worker count ([`effective_jobs`]).
//! Resolution, highest priority first:
//! 1. a [`serial`] scope on the calling thread (timed runs),
//! 2. [`set_jobs`] (the CLI's `--jobs N`),
//! 3. the `WEBMON_JOBS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! Nested `par_map` calls run inline on their worker thread, so the total
//! worker count never exceeds the configured `jobs`.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Explicit worker-count override; 0 means "not set, resolve automatically".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Cumulative busy time (nanoseconds) spent inside mapped closures, across
/// all workers. `busy / wall` is the achieved speedup of a run.
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set inside a worker thread or a [`serial`] scope: run nested
    /// `par_map` calls inline instead of spawning more threads.
    static FORCE_INLINE: Cell<bool> = const { Cell::new(false) };
}

/// Sets the worker count for subsequent [`par_map`] calls. `0` restores the
/// automatic resolution (`WEBMON_JOBS`, then the machine's parallelism).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The worker count [`par_map`] will use right now.
pub fn effective_jobs() -> usize {
    if FORCE_INLINE.with(Cell::get) {
        return 1;
    }
    let set = JOBS.load(Ordering::Relaxed);
    if set > 0 {
        return set;
    }
    if let Some(n) = std::env::var("WEBMON_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with parallelism pinned to one worker on this thread — every
/// [`par_map`] under it executes inline, in input order. Used by the timed
/// experiments (Figure 11, §V-D runtime) so wall-clock measurements are
/// never distorted by sibling repetitions on other cores.
pub fn serial<R>(f: impl FnOnce() -> R) -> R {
    FORCE_INLINE.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// Total busy time accumulated inside mapped closures since the last
/// [`reset_busy_time`], in seconds. Dividing by wall-clock time gives the
/// achieved speedup of a run.
pub fn busy_time_secs() -> f64 {
    BUSY_NANOS.load(Ordering::Relaxed) as f64 / 1e9
}

/// Zeroes the busy-time counter (call before the region to measure).
pub fn reset_busy_time() {
    BUSY_NANOS.store(0, Ordering::Relaxed);
}

/// Maps `f` over `items` on up to [`effective_jobs`] worker threads and
/// returns the results in input order.
///
/// Items are handed out through a shared queue, so uneven item costs
/// balance across workers. With one worker (or inside a [`serial`] scope or
/// a nested call) the map runs inline on the calling thread — no threads,
/// no synchronization — making `jobs = 1` runs byte-identical in behavior
/// *and* timing to the pre-parallelism code.
///
/// # Panics
/// If `f` panics on any item, the panic is resumed on the calling thread
/// (after the remaining workers stop claiming new items).
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    par_map_with(effective_jobs(), items, f)
}

/// [`par_map`] with an explicit worker count (ignoring the global setting,
/// but not a [`serial`] scope — workers still force nested calls inline).
pub fn par_map_with<T, U, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| timed(|| f(i, item)))
            .collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    let panicked = AtomicBool::new(false);
    let payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                FORCE_INLINE.with(|flag| flag.set(true));
                loop {
                    if panicked.load(Ordering::Relaxed) {
                        break;
                    }
                    // Claim the next item; the lock covers only the pop.
                    let Some((i, item)) = queue.lock().unwrap().next() else {
                        break;
                    };
                    match catch_unwind(AssertUnwindSafe(|| timed(|| f(i, item)))) {
                        Ok(out) => results.lock().unwrap().push((i, out)),
                        Err(e) => {
                            // Keep the first payload; stop the other
                            // workers from claiming further items.
                            if !panicked.swap(true, Ordering::Relaxed) {
                                *payload.lock().unwrap() = Some(e);
                            }
                            break;
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = payload.into_inner().unwrap() {
        resume_unwind(e);
    }
    let mut pairs = results.into_inner().unwrap();
    debug_assert_eq!(pairs.len(), n);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, u)| u).collect()
}

/// Runs `g`, charging its duration to the busy-time counter.
fn timed<U>(g: impl FnOnce() -> U) -> U {
    let start = Instant::now();
    let out = g();
    BUSY_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

#[cfg(test)]
mod tests {
    // `set_jobs` mutates process-global state, so these tests drive the
    // explicit-count `par_map_with` (and thread-local `serial`) instead —
    // they stay correct when the test harness runs them concurrently.
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let out = par_map_with(4, (0..100u64).collect(), |i, x| {
            // Stagger completion so late items finish first.
            std::thread::sleep(std::time::Duration::from_micros(100 - x));
            (i, x * x)
        });
        assert_eq!(out.len(), 100);
        for (i, (idx, sq)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*sq, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(2654435761)).collect();
        for jobs in [1, 2, 3, 8] {
            let got = par_map_with(jobs, items.clone(), |_, x| x.wrapping_mul(2654435761));
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = par_map_with(4, Vec::new(), |_, x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(par_map_with(4, vec![7u32], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn par_map_propagates_panics() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(4, (0..32u32).collect(), |_, x| {
                if x == 13 {
                    panic!("unlucky item");
                }
                x
            })
        }));
        let e = result.expect_err("panic must propagate");
        let msg = e.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "unlucky item");
    }

    #[test]
    fn nested_par_map_runs_inline() {
        let out = par_map_with(4, (0..4u32).collect(), |_, x| {
            assert_eq!(effective_jobs(), 1, "workers must not nest");
            par_map((0..4u32).collect(), move |_, y| x * 10 + y)
        });
        assert_eq!(out[3], vec![30, 31, 32, 33]);
    }

    #[test]
    fn serial_scope_pins_one_worker() {
        serial(|| {
            assert_eq!(effective_jobs(), 1);
            let out = par_map((0..8u32).collect(), |i, x| {
                assert_eq!(effective_jobs(), 1);
                i as u32 + x
            });
            assert_eq!(out, (0..8).map(|x| 2 * x).collect::<Vec<_>>());
        });
    }

    #[test]
    fn busy_time_accumulates() {
        reset_busy_time();
        par_map_with(2, vec![1u64, 2, 3], |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(busy_time_secs() >= 0.006);
    }
}
