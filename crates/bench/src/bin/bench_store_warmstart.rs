//! Warm-start effectiveness of the sealed verdict store: provisions a
//! fleet of distinct-binary tenants cold, restarts the service over the
//! same store directory, replays the identical traffic, and writes
//! `BENCH_store.json`.
//!
//! Three headline numbers:
//!
//! * `warmstart_speedup` — sessions per model-second of the restarted
//!   fleet over the cold fleet. The restart hydrates every sealed
//!   verdict at boot, so every known binary re-admits for cache-probe
//!   cost only (disassembly and policy checking skipped); the paper's
//!   load-time inspection cost is paid once per binary per fleet
//!   *lifetime*, not once per boot.
//! * `verdicts_bit_identical` — the restarted fleet must reproduce the
//!   cold run's signed outcomes byte-for-byte; persistence may only
//!   change *when* a verdict is computed, never *what* it says.
//! * `deterministic` — two warm restarts over the same store lineage
//!   agree on makespan, counters, and verdict bytes exactly.
//!
//! All measurements use the deterministic virtual-time scheduler with
//! hydration and write-behind flush costs charged to the model clock.
//!
//! ```text
//! bench_store_warmstart [--sessions N] [--scale P] [--seed S]
//!                       [--arrival-gap CYCLES] [--shards N]
//!                       [--dir PATH] [--out PATH]
//! ```

use engarde_bench::harness::{
    fleet_config, fleet_machine, per_model_second, run_fleet, write_json, Flags,
};
use engarde_core::loader::LoaderConfig;
use engarde_core::provision::BootstrapSpec;
use engarde_serve::metrics::Json;
use engarde_serve::persist::StoreConfig;
use engarde_serve::regimes;
use engarde_serve::service::ServiceConfig;
use engarde_sgx::perf::CLOCK_GHZ;
use engarde_workloads::traffic::{distinct_binary_traffic, TrafficItem};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    sessions: usize,
    scale_percent: usize,
    seed: u64,
    arrival_gap: u64,
    shards: usize,
    dir: Option<PathBuf>,
    out: String,
}

fn parse_args() -> Args {
    let mut f = Flags::from_env();
    let args = Args {
        sessions: f.get("--sessions", 12),
        scale_percent: f.get("--scale", 5),
        seed: f.get("--seed", 0x5708_E000),
        arrival_gap: f.get("--arrival-gap", 2_000_000),
        shards: f.get("--shards", 2),
        dir: f.opt("--dir"),
        out: f.get("--out", "BENCH_store.json".into()),
    };
    f.finish();
    args
}

/// One measured fleet generation over the persistent store.
struct FleetRun {
    label: &'static str,
    makespan_cycles: u64,
    sessions_per_model_sec: f64,
    compliant: u64,
    warm_hits: u64,
    report_hits: u64,
    hydrated: u64,
    flushed: u64,
    live_records: u64,
    segments: u64,
    verdict_fingerprint: String,
}

fn run(
    label: &'static str,
    traffic: &[TrafficItem],
    store: StoreConfig,
    args: &Args,
    musl: &Arc<HashMap<String, engarde_crypto::sha256::Digest>>,
) -> FleetRun {
    let cfg = ServiceConfig {
        shards: args.shards,
        store: Some(store),
        ..fleet_config(args.seed, args.arrival_gap, traffic.len().max(1) * 2)
    };
    let requests = traffic.iter().map(|item| regimes::request_for(item, musl));
    let (result, rejected) = run_fleet(cfg, requests);
    assert_eq!(rejected, 0, "{label}: the queue holds every session");
    let m = result.metrics.counters();
    let s = result.metrics.store_stats();
    let run = FleetRun {
        label,
        makespan_cycles: result.makespan_cycles,
        sessions_per_model_sec: per_model_second(m.completed, result.makespan_cycles),
        compliant: m.compliant,
        warm_hits: result.metrics.cache_stats().warm_hits,
        report_hits: result.reports.iter().filter(|r| r.cache_hit).count() as u64,
        hydrated: s.hydrated,
        flushed: s.flushed,
        live_records: s.stats.live_records,
        segments: s.stats.segments,
        verdict_fingerprint: result.verdict_fingerprint(),
    };
    eprintln!(
        "  {label}: makespan {} cycles, {:.2} sessions/model-s, hydrated {}, flushed {}, warm hits {}",
        run.makespan_cycles, run.sessions_per_model_sec, run.hydrated, run.flushed, run.warm_hits
    );
    run
}

fn fleet_json(r: &FleetRun) -> Json {
    Json::obj([
        ("makespan_cycles", r.makespan_cycles.into()),
        (
            "sessions_per_model_sec",
            Json::Fixed(r.sessions_per_model_sec, 4),
        ),
        ("compliant", r.compliant.into()),
        ("warm_hits", r.warm_hits.into()),
        ("report_hits", r.report_hits.into()),
        ("hydrated", r.hydrated.into()),
        ("flushed", r.flushed.into()),
        ("live_records", r.live_records.into()),
        ("segments", r.segments.into()),
        ("verdict_fingerprint", r.verdict_fingerprint.as_str().into()),
    ])
}

fn main() {
    let args = parse_args();
    let musl = Arc::new(regimes::musl_hashes());
    let traffic = distinct_binary_traffic(args.sessions, args.scale_percent, args.seed);

    let dir = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("engarde-bench-store-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let spec = BootstrapSpec::new("EnGarde-1.0", LoaderConfig::default(), &[], 64, 512);
    let store = StoreConfig::sealed_at(&dir, &fleet_machine(args.seed), &spec);
    eprintln!(
        "bench_store_warmstart: {}-tenant distinct-binary fleet (scale {}%), store at {}",
        args.sessions,
        args.scale_percent,
        dir.display()
    );

    // Generation 1: cold boot over an empty store. Every binary is
    // novel — full disassembly + policy per session, every verdict
    // sealed and flushed.
    let cold = run("cold", &traffic, store.clone(), &args, &musl);

    // Generation 2: service restart over the populated store.
    let warm = run("warm_restart", &traffic, store.clone(), &args, &musl);

    // Generation 3: a second restart, pinning determinism end-to-end
    // (the warm run appends nothing, so the lineage is unchanged).
    let warm_repeat = run("warm_repeat", &traffic, store, &args, &musl);

    let speedup = warm.sessions_per_model_sec / cold.sessions_per_model_sec;
    let identical = warm.verdict_fingerprint == cold.verdict_fingerprint;
    let all_warm = warm.report_hits == args.sessions as u64
        && warm.warm_hits == args.sessions as u64
        && warm.hydrated == args.sessions as u64;
    let deterministic = warm.makespan_cycles == warm_repeat.makespan_cycles
        && warm.verdict_fingerprint == warm_repeat.verdict_fingerprint
        && warm.warm_hits == warm_repeat.warm_hits;
    eprintln!(
        "  warm-start speedup: {speedup:.2}x; verdicts identical: {identical}; all warm hits: {all_warm}; deterministic: {deterministic}"
    );

    assert!(
        identical,
        "restart changed a verdict: {} != {}",
        warm.verdict_fingerprint, cold.verdict_fingerprint
    );
    assert!(
        all_warm,
        "restart must hydrate and re-admit every binary from the store"
    );
    assert!(
        deterministic,
        "warm restarts over the same lineage must be bit-identical"
    );
    assert_eq!(
        cold.flushed, args.sessions as u64,
        "cold run must flush every verdict"
    );
    assert!(
        speedup >= 2.0,
        "warm restart must be at least 2x cold, got {speedup:.2}x"
    );

    let mut doc = vec![
        ("sessions", args.sessions.into()),
        ("scale_percent", args.scale_percent.into()),
        ("seed", args.seed.into()),
        ("arrival_gap_cycles", args.arrival_gap.into()),
        ("shards", args.shards.into()),
        ("clock_ghz", Json::Float(CLOCK_GHZ)),
    ];
    doc.extend([&cold, &warm, &warm_repeat].map(|r| (r.label, fleet_json(r))));
    doc.extend([
        ("warmstart_speedup", Json::Fixed(speedup, 4)),
        ("verdicts_bit_identical", identical.into()),
        ("all_warm_hits", all_warm.into()),
        ("deterministic", deterministic.into()),
    ]);
    write_json(&args.out, &Json::obj(doc));
    if args.dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
