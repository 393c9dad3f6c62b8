//! The untraced measurement: one lap is one provisioning service on
//! `engarde-serve`'s virtual-time backend with [`SHARDS`] shards,
//! stealing off, each session queued on its home shard. The virtual
//! backend runs every session on the calling thread, which is what lets
//! a [`Clock`] calibrate the host's speed between sessions (see
//! [`crate::calib`]). The work a lap does is a pure function of its
//! session list.

use crate::calib::{Clock, Interval};
use crate::sessions::{request_for, Expected, SessionInput, SHARDS};
use crate::stats;
use engarde_core::loader::LoaderConfig;
use engarde_core::provision::BootstrapSpec;
use engarde_crypto::sha256::Sha256;
use engarde_serve::persist::StoreConfig;
use engarde_serve::pool::{SessionOutcome, SessionReport, SessionRunConfig};
use engarde_serve::regimes;
use engarde_serve::service::{ProvisioningService, SchedMode, ServiceConfig, ServiceResult};
use engarde_sgx::machine::MachineConfig;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Verdict-cache bound: far above any lap's session count, so nothing
/// is ever evicted.
pub const CACHE_CAPACITY: usize = 4_096;

/// Model cycles between two arrivals: far beyond any session's cost,
/// so a shard is idle when a session arrives. Submitting session `k`
/// therefore runs it to its verdict on its home shard, and `drain()` is
/// left with the final store flush. (A warm fleet's hydration keeps each
/// shard busy past arrival 0, so its first session runs one call late.)
pub const ARRIVAL_GAP: u64 = 1 << 40;

/// The provider's machine. Its seed is fixed configuration, like the
/// deployment's hardware: only client inputs derive from the
/// command-line seed (see the benchmark doc for why).
pub fn machine() -> MachineConfig {
    MachineConfig::default()
}

/// The store configuration every fleet and traced pass uses: sealed
/// under a fixed inspector identity on [`machine`].
pub fn store_config(dir: &Path) -> StoreConfig {
    let inspector = BootstrapSpec::new("EnGarde-1.0", LoaderConfig::default(), &[], 64, 512);
    StoreConfig::sealed_at(dir, &machine(), &inspector)
}

/// One measured lap.
pub struct Lap {
    /// Provider set-up seconds at the reference speed: the policy
    /// databases plus service start (the shards' boot, store recovery
    /// and hydration).
    pub setup_ref_s: f64,
    /// The measured calls in order: every `submit`, then `drain()`.
    pub calls: Vec<Interval>,
    /// Sessions whose submission failed (admission is sized so none
    /// should).
    pub rejected: usize,
    /// The drained service.
    pub result: ServiceResult,
}

impl Lap {
    /// Measured wall seconds at the reference speed, first submit to the
    /// return of `drain()`.
    pub fn ref_wall_s(&self) -> f64 {
        self.calls.iter().map(Interval::ref_wall_s).sum()
    }

    /// Measured wall seconds as measured.
    pub fn wall_s(&self) -> f64 {
        self.calls.iter().map(|c| c.wall_s).sum()
    }

    /// The call that ran report `k`'s session, which took `wall_nanos`:
    /// the first call from `k` on that lasted at least that long.
    pub fn call_of(&self, k: usize, wall_nanos: u64) -> Option<&Interval> {
        self.calls
            .iter()
            .skip(k)
            .find(|c| c.wall_s * 1e9 >= wall_nanos as f64)
    }
}

/// Runs one lap of `inputs` against a store at `store_dir`, with a
/// calibration mark before and after every timed call.
pub fn run_lap(inputs: &[SessionInput], store_dir: &Path) -> Lap {
    let mut clock = Clock::start();
    let (musl, musl_t) = clock.time(|| Arc::new(regimes::musl_hashes()));
    let (requests, _) = clock.time(|| {
        inputs
            .iter()
            .map(|s| request_for(s, &musl))
            .collect::<Vec<_>>()
    });
    let (mut svc, start_t) = clock.time(|| {
        ProvisioningService::start(ServiceConfig {
            shards: SHARDS,
            mode: SchedMode::VirtualTime {
                arrival_gap: ARRIVAL_GAP,
            },
            machine: machine(),
            queue_capacity: requests.len().max(1),
            run: SessionRunConfig::default(),
            verdict_cache: Some(CACHE_CAPACITY),
            faults: None,
            store: Some(store_config(store_dir)),
            batch: None,
            steal: false,
        })
    });
    let setup_ref_s = musl_t.ref_wall_s() + start_t.ref_wall_s();

    let mut calls = Vec::with_capacity(requests.len() + 1);
    let mut rejected = 0;
    for r in requests {
        let (ok, t) = clock.time(|| svc.submit(r).is_ok());
        rejected += usize::from(!ok);
        calls.push(t);
    }
    let (result, t) = clock.time(|| svc.drain());
    calls.push(t);
    Lap {
        setup_ref_s,
        calls,
        rejected,
        result,
    }
}

/// Whether a report carries the expected verdict, verified by the client.
pub fn report_ok(report: &SessionReport, expected: Expected) -> bool {
    let outcome_ok = matches!(
        (&report.outcome, expected),
        (SessionOutcome::Compliant, Expected::Compliant)
            | (SessionOutcome::NonCompliant, Expected::Rejected)
    );
    outcome_ok && report.client_verified
}

/// Hex SHA-256 over the work a lap's sessions did, in name order: each
/// session's name, model cycles, outcome and signed verdict. Unlike
/// `ServiceResult::fingerprint()` it leaves out queueing (latency and
/// makespan), so any driver of the same sessions on the same providers
/// must reproduce it.
pub fn work_digest(reports: &[SessionReport]) -> String {
    let mut sorted: Vec<&SessionReport> = reports.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut h = Sha256::new();
    for r in sorted {
        h.update(r.name.as_bytes());
        h.update(&r.cycles.to_be_bytes());
        h.update(&[u8::from(matches!(r.outcome, SessionOutcome::Compliant))]);
        if let Some(v) = &r.verdict {
            h.update(&[u8::from(v.compliant)]);
            h.update(v.detail.as_bytes());
            h.update(&v.signature);
        }
    }
    h.finalize().to_hex()
}

/// Expected verdict by session name.
pub fn expectations(inputs: &[SessionInput]) -> HashMap<&str, Expected> {
    inputs
        .iter()
        .map(|s| (s.name.as_str(), s.expected))
        .collect()
}

/// Share of a lap's measured wall time in which no session ran: the
/// serving layer's own work (admission, scheduling, store flushes).
/// One thread runs every shard's sessions, so it is that one worker's
/// idle share.
pub fn idle_frac(lap: &Lap) -> f64 {
    let sessions: Vec<(usize, u64)> = lap
        .result
        .reports
        .iter()
        .map(|r| (0, r.wall_nanos))
        .collect();
    stats::worker_idle_frac((lap.wall_s() * 1e9) as u64, 1, &sessions)
}

/// Host-wide `(steal, total)` jiffies so far (zeros where `/proc` is
/// unavailable).
pub fn steal_jiffies() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| stats::parse_steal_jiffies(&s))
        .unwrap_or((0, 0))
}

/// Peak resident set size in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| stats::parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}
