//! The benchmark's own arithmetic: order statistics, the tail rule,
//! thread CPU and peak-memory parsing, and the worker idle fraction.
//! Pure functions, pinned by `tests/arithmetic.rs`.

/// Median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method) computes them. A single value is its own three
/// quartiles; `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..4usize) {
                let j = (i * m / 4).clamp(1, ld - 1);
                // Negative when `j` was clamped up: extrapolates, as Python does.
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// The median lap: laps that made the same sequence of timed calls,
/// reduced to each call's median over the laps. One lap's slow call is
/// outvoted by the others. `None` without laps or when laps made
/// different numbers of calls.
pub fn median_lap(laps: &[Vec<f64>]) -> Option<Vec<f64>> {
    let calls = laps.first()?.len();
    if laps.iter().any(|l| l.len() != calls) {
        return None;
    }
    (0..calls)
        .map(|j| median(&laps.iter().map(|l| l[j]).collect::<Vec<_>>()))
        .collect()
}

/// How many samples must lie beyond the reported tail value.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile with at least
/// [`TAIL_SAMPLES_BEYOND`] samples beyond it, i.e. the 11th-slowest
/// value, named by the nearest-rank percentile it really is.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// The percentile `value` is, by nearest rank: `100 * rank / n`.
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
}

/// The 11th-slowest of `values`, with its true percentile. With ten or
/// fewer samples no value has ten beyond it; the slowest is reported,
/// honestly named as the 100th percentile. `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let data = sorted(values);
    let n = data.len();
    if n == 0 {
        return None;
    }
    let rank = if n > TAIL_SAMPLES_BEYOND {
        n - TAIL_SAMPLES_BEYOND
    } else {
        n
    };
    Some(Tail {
        value: data[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    })
}

/// Peak resident set size in KiB: the `VmHWM:` line of a
/// `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// CPU nanoseconds a thread has run: the first field of a
/// `/proc/<pid>/task/<tid>/schedstat` text.
pub fn parse_schedstat_runtime_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Host-wide `(steal, total)` jiffies from the aggregate `cpu` line of
/// a `/proc/stat` text: time the hypervisor ran someone else while this
/// machine's CPUs wanted to run.
pub fn parse_steal_jiffies(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The share of worker time spent idle during a makespan: each worker
/// was available for `makespan_nanos` and busy for the summed service
/// time of the sessions it ran. `sessions` holds `(worker, wall_nanos)`
/// pairs. Clamped to `[0, 1]`; `0` for an empty fleet or makespan.
pub fn worker_idle_frac(makespan_nanos: u64, workers: usize, sessions: &[(usize, u64)]) -> f64 {
    if workers == 0 || makespan_nanos == 0 {
        return 0.0;
    }
    let mut busy = vec![0u64; workers];
    for &(worker, nanos) in sessions {
        if let Some(slot) = busy.get_mut(worker) {
            *slot += nanos;
        }
    }
    let idle: u64 = busy.iter().map(|&b| makespan_nanos.saturating_sub(b)).sum();
    (idle as f64 / (workers as u64 * makespan_nanos) as f64).clamp(0.0, 1.0)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
