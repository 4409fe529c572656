//! Host-speed correction: a fixed reference kernel, timed next to the
//! measured work, scales every reported time to one reference speed.
//!
//! Shared cloud hosts change speed within minutes as neighbours load the
//! cores and caches they share: on the 2-vCPU Xeon VM the bounds were tuned
//! on, `engine-overload` ran anywhere from 1,500 to 2,800 chronons/s across
//! consecutive runs at 99% CPU share, far beyond any bound. The kernel does
//! what dominates the engine — binary-heap pushes of keys read at random
//! from a table a few times a core's L1, then pops — but is benchmark code
//! that no program change touches. Timed around the same engine calls, its
//! time explained the calls' drift (log-time correlation 0.75 within an
//! instance) where pointer-chasing and arithmetic kernels did not (0.41 to
//! 0.48), and dividing by it cut the spread between runs from 9.1% to 3.7%.
//! A program change moves the measured time and not the kernel's, so it
//! shows in full.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Keys the kernel reads from: 1 MiB of `u32`.
const TABLE_LEN: usize = 1 << 18;

/// Heap pushes and pops per kernel.
const PUSHES: u32 = 12_000;
const POPS: u32 = 800;

/// The kernel's time at the reference speed: about what it takes on that
/// VM when undisturbed. Reported times are `measured × NOMINAL_S / kernel`.
pub const NOMINAL_S: f64 = 400e-6;

pub struct HostSpeed {
    table: Vec<u32>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    seed: u64,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x = xorshift(x);
                x as u32
            })
            .collect();
        HostSpeed {
            table,
            heap: BinaryHeap::with_capacity(PUSHES as usize),
            seed: 0x2545_F491_4F6C_DD1D,
        }
    }

    fn kernel_s(&mut self) -> f64 {
        let start = Instant::now();
        self.heap.clear();
        let mut x = self.seed;
        for k in 0..PUSHES {
            x = xorshift(x);
            let a = self.table[x as usize & (TABLE_LEN - 1)];
            self.heap
                .push(Reverse((i64::from(a >> 8) / i64::from((a & 7) + 1), k)));
        }
        let mut acc = 0i64;
        for _ in 0..POPS {
            if let Some(Reverse((key, _))) = self.heap.pop() {
                acc = acc.wrapping_add(key);
            }
        }
        self.seed = black_box(x ^ acc as u64);
        start.elapsed().as_secs_f64()
    }

    /// The median of `n` kernel times, in seconds, after one untimed run
    /// that brings the kernel's data back into cache: the sample must
    /// follow the host, not what the measured work left in the caches.
    pub fn sample(&mut self, n: usize) -> f64 {
        self.kernel_s();
        let times: Vec<f64> = (0..n).map(|_| self.kernel_s()).collect();
        crate::stats::median(&times)
    }
}

/// The factor that scales a time measured between two kernel samples to
/// the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
