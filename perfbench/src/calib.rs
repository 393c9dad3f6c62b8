//! Host-speed calibration.
//!
//! The benchmark's host is a small VM on a shared machine whose vCPUs
//! change speed by up to a factor of two from one second to the next,
//! with almost no steal time to show for it. The same 1024-bit key
//! generation, repeated on one thread, took 94 to 199 ms; runs of 50
//! repeats had medians from 122 to 192 ms. What does stay put is how
//! long that work takes *relative to a fixed kernel timed on the same
//! thread right beside it*: the median of that ratio moved by under 2%
//! across the same runs. (A kernel timed on another thread does not
//! track: the vCPUs slow down independently.)
//!
//! So the measured phase runs on one thread, and a [`Clock`] times the
//! calibration [`kernel`] at every boundary between measured intervals.
//! Each interval is reported at the reference speed: its wall time
//! divided by its slowdown, the mean kernel time of its two boundaries
//! over [`REFERENCE_KERNEL_NS`] ([`slowdown`]). A change that makes the program slower
//! makes its intervals longer and leaves the kernel alone, so it shows
//! in full; a host that slows both down cancels out. The kernel uses
//! nothing from the repository, so no change to the program can move
//! it.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Kernel repetitions per boundary mark; the mark reads their median,
/// so one preempted repetition does not skew it.
pub const MARK_REPS: usize = 5;

/// Nanoseconds one [`kernel`] takes at the reference speed: the median
/// over a set of benchmark runs on the reference host (two vCPUs of an
/// Intel Xeon VM). Fixed, so reference-speed times compare across runs
/// and commits.
pub const REFERENCE_KERNEL_NS: f64 = 1_000_000.0;

/// A fixed, CPU-bound piece of work shaped like the program's hot
/// paths: schoolbook multi-limb multiplication (RSA key generation),
/// byte-table substitution over a 4 KiB page (software AES on EPC
/// pages) and heap churn, all in L1-sized buffers like theirs. Returns a
/// value that depends on all of it, so none of it can be optimised away.
pub fn kernel() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table = [0u8; 256];
    for (i, t) in table.iter_mut().enumerate() {
        *t = (i as u8).wrapping_mul(167).wrapping_add(13);
    }
    let mut acc = 0u64;
    for _ in 0..30 {
        let a: Vec<u64> = (0..48).map(|_| next()).collect();
        let b: Vec<u64> = (0..48).map(|_| next()).collect();
        let mut prod = vec![0u64; 96];
        for i in 0..48 {
            let mut carry = 0u128;
            for j in 0..48 {
                let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(prod[i + j]) + carry;
                prod[i + j] = t as u64;
                carry = t >> 64;
            }
            prod[i + 48] = carry as u64;
        }
        let mut page: Vec<u8> = (0..4096)
            .map(|k| (prod[k % 96] >> (k % 57)) as u8)
            .collect();
        for _ in 0..10 {
            for byte in page.iter_mut() {
                *byte = table[usize::from(*byte)];
            }
        }
        acc = acc
            .wrapping_add(prod[47])
            .wrapping_add(u64::from(page[1234]));
    }
    acc
}

/// Times [`MARK_REPS`] kernels back to back and returns the median, in
/// nanoseconds.
pub fn mark() -> f64 {
    let times: Vec<f64> = (0..MARK_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&times).unwrap_or(REFERENCE_KERNEL_NS)
}

/// An interval's slowdown against the reference speed, from the kernel
/// times at its two boundaries: their mean over the reference kernel
/// time. Above 1 when the host ran slow; 1 if the marks are unusable.
pub fn slowdown(before_ns: f64, after_ns: f64) -> f64 {
    let mean = (before_ns + after_ns) / 2.0;
    if mean > 0.0 && mean.is_finite() {
        mean / REFERENCE_KERNEL_NS
    } else {
        1.0
    }
}

/// One measured interval.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Interval {
    /// Wall seconds as measured.
    pub wall_s: f64,
    /// CPU seconds the measuring thread used, as measured.
    pub cpu_s: f64,
    /// The interval's host-speed factor ([`slowdown`]); divide a measured
    /// time by it to get the time at the reference speed.
    pub slowdown: f64,
}

impl Interval {
    /// Wall seconds at the reference speed.
    pub fn ref_wall_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }

    /// CPU seconds at the reference speed.
    pub fn ref_cpu_s(&self) -> f64 {
        self.cpu_s / self.slowdown
    }
}

/// Times intervals on the current thread, with a calibration mark at
/// every boundary.
pub struct Clock {
    last_mark_ns: f64,
}

impl Clock {
    /// Starts a clock with its first mark.
    pub fn start() -> Clock {
        Clock {
            last_mark_ns: mark(),
        }
    }

    /// Runs `f` as one interval, then marks its end.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Interval) {
        let cpu0 = thread_cpu_ns();
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = thread_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
        let end = mark();
        let slowdown = slowdown(self.last_mark_ns, end);
        self.last_mark_ns = end;
        (
            out,
            Interval {
                wall_s,
                cpu_s,
                slowdown,
            },
        )
    }
}

/// CPU nanoseconds the calling thread has used (0 where `/proc` is
/// unavailable).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| stats::parse_schedstat_runtime_ns(&s))
        .unwrap_or(0)
}
