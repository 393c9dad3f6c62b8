//! Fault-recovery benchmark: replays a compliant chaos fleet through
//! `engarde-serve` three times — fault-free baseline, fault-free with
//! the injection layer *enabled but idle* (the bit-identity check), and
//! under the default transient fault mix with the chaos-hardened run
//! profile (retries, exponential backoff with deterministic jitter,
//! session budget, circuit breaker). Writes `BENCH_faults.json`.
//!
//! The headline figures:
//!
//! - `recovery_rate` — injected faults whose sessions still reached a
//!   verdict, over faults injected. The transient mix is recoverable by
//!   construction, so the acceptance floor is 0.9.
//! - `throughput_retention` — faulted throughput over baseline
//!   throughput (both virtual-time; the gap is retry + backoff cost).
//! - `fault_free_identical` — the idle-layer run's fingerprint equals
//!   the baseline's, bit for bit.
//!
//! ```text
//! bench_fault_recovery [--sessions N] [--scale P] [--seed S]
//!                      [--per-mille N] [--out PATH]
//! ```

use engarde_bench::harness::{fleet_machine, per_model_second, write_json, Flags};
use engarde_serve::faults::{FaultKind, FaultMix, FaultPlan};
use engarde_serve::metrics::Json;
use engarde_serve::regimes;
use engarde_serve::service::{ProvisioningService, SchedMode, ServiceConfig, ServiceResult};
use engarde_serve::SessionRunConfig;
use engarde_workloads::traffic::{chaos_fleet, TrafficItem};
use std::collections::HashMap;
use std::sync::Arc;

struct Args {
    sessions: usize,
    scale_percent: usize,
    seed: u64,
    per_mille: u16,
    out: String,
}

fn parse_args() -> Args {
    let mut f = Flags::from_env();
    let args = Args {
        sessions: f.get("--sessions", 24),
        scale_percent: f.get("--scale", 3),
        seed: f.get("--seed", 0xFA_0175),
        per_mille: f.get("--per-mille", 500),
        out: f.get("--out", "BENCH_faults.json".into()),
    };
    f.finish();
    args
}

fn run(
    traffic: &[TrafficItem],
    musl: &Arc<HashMap<String, engarde_crypto::sha256::Digest>>,
    seed: u64,
    plan: Option<FaultPlan>,
) -> ServiceResult {
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 2,
        mode: SchedMode::VirtualTime {
            arrival_gap: 2_000_000,
        },
        machine: fleet_machine(seed),
        queue_capacity: 1024,
        run: SessionRunConfig::chaos_hardened(),
        verdict_cache: None,
        faults: plan,
        store: None,
        batch: None,
        steal: true,
    });
    for item in traffic {
        svc.submit(regimes::request_for(item, musl))
            .expect("chaos fleets are compliant and the queue is deep");
    }
    svc.drain()
}

fn throughput(result: &ServiceResult) -> f64 {
    per_model_second(result.metrics.counters().completed, result.makespan_cycles)
}

fn main() {
    let args = parse_args();
    let musl = Arc::new(regimes::musl_hashes());
    let traffic = chaos_fleet(args.sessions, args.scale_percent, args.seed);
    eprintln!(
        "bench_fault_recovery: {} sessions (scale {}%), transient mix {}‰",
        args.sessions, args.scale_percent, args.per_mille
    );

    let baseline = run(&traffic, &musl, args.seed, None);
    let idle = run(
        &traffic,
        &musl,
        args.seed,
        Some(FaultPlan::disabled(args.seed)),
    );
    let fault_free_identical = baseline.fingerprint() == idle.fingerprint();
    eprintln!(
        "  baseline: {:.2}/s model throughput, idle-layer identical: {fault_free_identical}",
        throughput(&baseline)
    );

    let plan = FaultPlan {
        seed: args.seed ^ 0x000F_A017_5EED,
        mix: FaultMix::transient(args.per_mille),
    };
    let faulted = run(&traffic, &musl, args.seed, Some(plan));
    let stats = faulted.metrics.fault_stats();
    let totals = stats.totals();
    let recovery_rate = if totals.injected == 0 {
        1.0
    } else {
        totals.recovered as f64 / totals.injected as f64
    };
    let throughput_retention = throughput(&faulted) / throughput(&baseline).max(1e-9);
    eprintln!(
        "  faulted: {} injected, {} recovered (rate {recovery_rate:.3}), throughput retention {throughput_retention:.3}",
        totals.injected, totals.recovered
    );

    let m = faulted.metrics.counters();
    let faults = FaultKind::ALL.map(|k| (k.name(), stats.kind(k).to_json()));
    let doc = Json::obj([
        ("sessions", args.sessions.into()),
        ("scale_percent", args.scale_percent.into()),
        ("seed", args.seed.into()),
        ("per_mille", u64::from(args.per_mille).into()),
        ("recovery_rate", Json::Fixed(recovery_rate, 4)),
        ("throughput_retention", Json::Fixed(throughput_retention, 4)),
        ("fault_free_identical", fault_free_identical.into()),
        (
            "baseline_throughput_per_sec",
            Json::Fixed(throughput(&baseline), 4),
        ),
        (
            "faulted_throughput_per_sec",
            Json::Fixed(throughput(&faulted), 4),
        ),
        ("completed", m.completed.into()),
        ("evicted", m.evicted.into()),
        ("retries", m.retries.into()),
        ("shed", m.shed.into()),
        ("workers_died", m.workers_died.into()),
        ("faults", Json::obj(faults)),
    ]);
    write_json(&args.out, &doc);
}
