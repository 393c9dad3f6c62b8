//! One benchmark run of one workload: set-up, measured laps, the
//! correctness gate, the determinism guard, and the end-to-end metrics.

use crate::calib::Interval;
use crate::fleet::{self, Lap};
use crate::sessions::{lap_inputs, SessionInput, Workload};
use crate::stats;
use crate::trace;
use engarde_crypto::sha256::Sha256;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest laps a run measures, however short `--seconds` is.
pub const MIN_LAPS: usize = 3;

/// Laps that fill about `seconds` of measured time on the reference
/// host, and never fewer than `min_laps`. The count depends only on the
/// arguments, never on how fast the host happens to be, so a run's work
/// is fixed by its workload, seed and seconds.
pub fn laps_for(workload: Workload, seconds: f64, min_laps: usize) -> usize {
    ((seconds / workload.nominal_lap_s()).round() as usize).max(min_laps)
}

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Root of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer run.
    pub trace: bool,
}

/// A metric as printed: name, value, unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Every check passed.
    pub correct: bool,
    /// Sessions attempted.
    pub attempted: usize,
    /// Sessions that missed their expected, client-verified verdict.
    pub failed: usize,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Where runs keep scratch state: store directories, span files and
/// the per-seed fingerprint records. Inside the build directory, so a
/// checkout's runs share it and nothing lands in the source tree.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-work")
}

/// A store directory private to this process, emptied on creation.
pub fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = work_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Laps measured so far, with the correctness tally.
#[derive(Default)]
pub struct Tally {
    /// Sessions attempted.
    pub attempted: usize,
    /// Sessions that failed the gate.
    pub failed: usize,
    /// Gate failures, described.
    pub problems: Vec<String>,
    /// Per-lap service fingerprints.
    pub fingerprints: Vec<String>,
    /// Per-lap verdict fingerprints.
    pub verdict_fingerprints: Vec<String>,
    /// Per-lap work digests ([`fleet::work_digest`]).
    pub work_digests: Vec<String>,
    /// Per-lap set-up seconds at the reference speed.
    pub setup_s: Vec<f64>,
    /// Per-lap sessions per second at the reference speed.
    pub sessions_per_s: Vec<f64>,
    /// Per-lap sessions per second as measured.
    pub raw_sessions_per_s: Vec<f64>,
    /// Per-lap worker idle share.
    pub idle_frac: Vec<f64>,
    /// Per lap, every session's service time at the reference speed,
    /// ms, in submission order.
    pub session_ms: Vec<Vec<f64>>,
    /// Per-session service time as measured, ms.
    pub raw_session_ms: Vec<f64>,
    /// Every measured call's slowdown.
    pub slowdowns: Vec<f64>,
    /// Summed measured seconds at the reference speed.
    pub measured_s: f64,
    /// Summed measured seconds as measured.
    pub raw_measured_s: f64,
    /// Per lap, every measured call's wall seconds at the reference
    /// speed.
    pub call_wall_s: Vec<Vec<f64>>,
    /// Per lap, every measured call's CPU seconds at the reference speed.
    pub call_cpu_s: Vec<Vec<f64>>,
    /// Summed model cycles.
    pub model_cycles: u64,
    /// Sessions reported.
    pub sessions: usize,
}

impl Tally {
    /// Folds one lap in, gating every session: expected verdict,
    /// client-verified, and a cache hit exactly when `want_hits`.
    pub fn add(&mut self, inputs: &[SessionInput], lap: &Lap, want_hits: bool) {
        let expected = fleet::expectations(inputs);
        self.attempted += inputs.len();
        self.failed += lap.rejected;
        if lap.rejected > 0 {
            self.problems
                .push(format!("{} sessions refused at admission", lap.rejected));
        }
        if lap.result.reports.len() + lap.rejected != inputs.len() {
            self.problems.push(format!(
                "{} reports for {} sessions",
                lap.result.reports.len(),
                inputs.len()
            ));
        }
        let mut session_ms = Vec::with_capacity(lap.result.reports.len());
        for (k, r) in lap.result.reports.iter().enumerate() {
            let ok = expected
                .get(r.name.as_str())
                .is_some_and(|&e| fleet::report_ok(r, e));
            if !ok {
                self.failed += 1;
                self.problems.push(format!(
                    "{}: outcome {:?}, client_verified {}",
                    r.name, r.outcome, r.client_verified
                ));
            }
            if r.cache_hit != want_hits {
                self.problems.push(format!(
                    "{}: cache_hit {} where {} was expected",
                    r.name, r.cache_hit, want_hits
                ));
            }
            let slowdown = match lap.call_of(k, r.wall_nanos) {
                Some(call) => call.slowdown,
                None => {
                    self.problems.push(format!(
                        "{}: ran {} ns, longer than any call that could have run it",
                        r.name, r.wall_nanos
                    ));
                    1.0
                }
            };
            let ms = r.wall_nanos as f64 / 1e6;
            self.raw_session_ms.push(ms);
            session_ms.push(ms / slowdown);
            self.model_cycles += r.cycles;
        }
        self.session_ms.push(session_ms);
        self.sessions += lap.result.reports.len();
        self.fingerprints.push(lap.result.fingerprint());
        self.verdict_fingerprints
            .push(lap.result.verdict_fingerprint());
        self.work_digests
            .push(fleet::work_digest(&lap.result.reports));
        let n = lap.result.reports.len() as f64;
        self.setup_s.push(lap.setup_ref_s);
        self.sessions_per_s.push(n / lap.ref_wall_s());
        self.raw_sessions_per_s.push(n / lap.wall_s());
        self.slowdowns.extend(lap.calls.iter().map(|c| c.slowdown));
        self.idle_frac.push(fleet::idle_frac(lap));
        self.measured_s += lap.ref_wall_s();
        self.raw_measured_s += lap.wall_s();
        self.call_wall_s
            .push(lap.calls.iter().map(Interval::ref_wall_s).collect());
        self.call_cpu_s
            .push(lap.calls.iter().map(Interval::ref_cpu_s).collect());
    }

    /// The eight end-to-end metrics, plus a note naming the tail.
    /// Times come from the median lap ([`stats::median_lap`]): each
    /// session's and each call's median over the run's laps.
    /// `peak_rss_mb` is the process's peak so far, read by the caller
    /// before the benchmark's own bookkeeping can raise it.
    pub fn end_to_end(&self, peak_rss_mb: f64, notes: &mut Vec<String>) -> Vec<Metric> {
        let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
        let median_lap = |laps: &[Vec<f64>]| stats::median_lap(laps).unwrap_or_default();
        let session_ms = median_lap(&self.session_ms);
        let lap_sessions = session_ms.len() as f64;
        let tail = stats::tail(&session_ms).unwrap_or(stats::Tail {
            value: f64::NAN,
            percentile: 0.0,
            n: 0,
        });
        notes.push(format!(
            "session_tail_ms is p{:.2} of the median lap's n={} sessions (the 11th-slowest, or the slowest of ten or fewer)",
            tail.percentile, tail.n
        ));
        let ok = self.attempted - self.failed.min(self.attempted);
        vec![
            Metric::new(
                "sessions_per_s",
                lap_sessions / median_lap(&self.call_wall_s).iter().sum::<f64>(),
                "1/s",
            ),
            Metric::new("session_p50_ms", med(&session_ms), "ms"),
            Metric::new("session_tail_ms", tail.value, "ms"),
            Metric::new(
                "cpu_ms_per_session",
                median_lap(&self.call_cpu_s).iter().sum::<f64>() * 1000.0 / lap_sessions,
                "ms",
            ),
            Metric::new("setup_s", med(&self.setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
            Metric::new(
                "verdict_frac",
                ok as f64 / self.attempted.max(1) as f64,
                "fraction",
            ),
            Metric::new(
                "model_cycles_per_session",
                self.model_cycles as f64 / self.sessions.max(1) as f64,
                "cycles",
            ),
        ]
    }
}

/// A warm workload's store, written by an untimed cold pass over the
/// same session list during set-up.
pub struct WarmStore {
    /// The store directory.
    pub dir: PathBuf,
    /// The cold pass's verdict fingerprint.
    pub verdict_fingerprint: String,
}

/// Writes the warm store: a cold lap of `inputs`, gated like any other.
pub fn prepare_warm(inputs: &[SessionInput], out: &mut RunOutput) -> Result<WarmStore, String> {
    let dir = fresh_dir("warm-store")?;
    let lap = fleet::run_lap(inputs, &dir);
    let mut cold = Tally::default();
    cold.add(inputs, &lap, false);
    if !cold.problems.is_empty() {
        return Err(format!(
            "warm-up cold pass failed: {}",
            cold.problems.join("; ")
        ));
    }
    out.notes.push(format!(
        "warm store written by a cold pass: {} sessions, verdict fingerprint {}",
        inputs.len(),
        lap.result.verdict_fingerprint()
    ));
    Ok(WarmStore {
        dir,
        verdict_fingerprint: lap.result.verdict_fingerprint(),
    })
}

/// Runs one workload and returns what to print.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let w = args.workload;
    let warm = match w {
        Workload::PaperWarm => Some(prepare_warm(&lap_inputs(w, args.seed, 0), &mut out)?),
        _ => None,
    };
    let result = if args.trace {
        trace::run_traced(args, warm.as_ref(), &mut out)
    } else {
        measure(args, warm.as_ref(), &mut out)
    };
    if let Some(warm) = &warm {
        let _ = std::fs::remove_dir_all(&warm.dir);
    }
    result?;
    Ok(out)
}

/// Runs `laps` laps of `args.workload`, folding each into `tally`.
/// `fixed_list` replays lap 0's session list every lap.
pub fn run_laps(
    args: &RunArgs,
    warm: Option<&WarmStore>,
    laps: usize,
    fixed_list: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    let w = args.workload;
    // (lap seed, list): regenerated only when the lap seed changes, so
    // warm and fixed-list laps generate their binaries once.
    let mut current: Option<(u64, Vec<SessionInput>)> = None;
    for lap in 0..laps as u64 {
        let list_lap = if fixed_list { 0 } else { lap };
        let lap_seed = w.lap_seed(args.seed, list_lap);
        if current.as_ref().map(|(s, _)| *s) != Some(lap_seed) {
            current = Some((lap_seed, lap_inputs(w, args.seed, list_lap)));
        }
        let inputs = current
            .as_ref()
            .map(|(_, l)| l.as_slice())
            .unwrap_or_default();
        let lap_result = match warm {
            Some(ws) => fleet::run_lap(inputs, &ws.dir),
            None => {
                let dir = fresh_dir("store")?;
                let lap_result = fleet::run_lap(inputs, &dir);
                let _ = std::fs::remove_dir_all(&dir);
                lap_result
            }
        };
        tally.add(inputs, &lap_result, warm.is_some());
        if let Some(ws) = warm {
            let vf = lap_result.result.verdict_fingerprint();
            if vf != ws.verdict_fingerprint {
                tally.problems.push(format!(
                    "warm verdict fingerprint {vf} differs from the cold pass's {}",
                    ws.verdict_fingerprint
                ));
            }
        }
    }
    Ok(())
}

fn measure(args: &RunArgs, warm: Option<&WarmStore>, out: &mut RunOutput) -> Result<(), String> {
    let start = Instant::now();
    let steal0 = fleet::steal_jiffies();
    let mut tally = Tally::default();
    let laps = laps_for(args.workload, args.seconds, MIN_LAPS);
    run_laps(args, warm, laps, false, &mut tally)?;
    // Before the determinism guard reads the executable into memory.
    let peak_rss_mb = fleet::peak_rss_mb();
    let steal1 = fleet::steal_jiffies();
    let guard = check_fingerprints(args, &tally.fingerprints);
    out.notes.push(format!(
        "{}: {} laps, {:.1} s measured ({:.1} s at the reference speed), {:.1} s wall; attempted {} succeeded {} failed {}",
        args.workload.name(),
        tally.fingerprints.len(),
        tally.raw_measured_s,
        tally.measured_s,
        start.elapsed().as_secs_f64(),
        tally.attempted,
        tally.attempted - tally.failed.min(tally.attempted),
        tally.failed
    ));
    out.notes.push(format!(
        "host steal time during the run: {:.1}%",
        100.0 * (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64
    ));
    let list = |v: &[f64]| {
        v.iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "per-lap sessions/s at the reference speed: {}; as measured: {}",
        list(&tally.sessions_per_s),
        list(&tally.raw_sessions_per_s)
    ));
    let q = stats::quartiles(&tally.slowdowns).unwrap_or([1.0; 3]);
    out.notes.push(format!(
        "host slowdown per call: median {:.3}, quartiles {:.3} {:.3}, range {:.3} to {:.3}",
        q[1],
        q[0],
        q[2],
        tally
            .slowdowns
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        tally.slowdowns.iter().copied().fold(0.0, f64::max)
    ));
    out.notes
        .push(format!("fingerprint lap0 {}", tally.fingerprints[0]));
    out.notes.push(format!(
        "verdict_fingerprint lap0 {}",
        tally.verdict_fingerprints[0]
    ));
    out.metrics = tally.end_to_end(peak_rss_mb, &mut out.notes);
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    let mut problems = tally.problems;
    if let Err(e) = guard {
        problems.push(e);
    }
    out.notes
        .extend(problems.iter().take(20).map(|p| format!("FAIL {p}")));
    out.correct = problems.is_empty();
    Ok(())
}

/// The determinism guard: lap `k` of a (workload, seed) pair must have
/// the same service fingerprint in every run of one build. Each run
/// compares its laps against the record earlier runs of the same
/// executable left, then extends the record.
pub fn check_fingerprints(args: &RunArgs, laps: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("read own executable: {e}"))?;
    let build = Sha256::digest(&exe).to_hex();
    let dir = work_dir().join("fingerprints").join(&build[..16]);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.txt", args.workload.name(), args.seed));
    let previous: Vec<String> = std::fs::read_to_string(&path)
        .map(|s| s.lines().map(str::to_owned).collect())
        .unwrap_or_default();
    for (k, (old, new)) in previous.iter().zip(laps).enumerate() {
        if old != new {
            return Err(format!(
                "determinism guard: lap {k} of {} seed {} fingerprinted {new}, an earlier run {old}",
                args.workload.name(),
                args.seed
            ));
        }
    }
    if laps.len() > previous.len() {
        write_file(&path, &(laps.join("\n") + "\n"))?;
    }
    Ok(())
}

/// Writes `contents` to `path`.
pub fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}
