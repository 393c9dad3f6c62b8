//! Wall-clock service throughput: replays the mixed tenant workload of
//! `bench_serve_throughput` through the threaded scheduler (one real
//! worker thread per shard) and writes `BENCH_serve_threaded.json`.
//!
//! Unlike every other `BENCH_*.json`, this artifact depends on the host:
//! its wall time on core count and load, and its steal and batch counts
//! on thread timing. It shows the real concurrency works, not a figure
//! to reproduce bit for bit.
//!
//! ```text
//! bench_serve_threaded [--sessions N] [--shards N] [--scale P] [--seed S]
//!                      [--capacity N] [--out PATH]
//! ```

use engarde_bench::harness::{fleet_config, run_fleet, write_json, Flags};
use engarde_serve::metrics::Json;
use engarde_serve::regimes;
use engarde_serve::service::{SchedMode, ServiceConfig};
use engarde_workloads::traffic::{mixed_traffic, TrafficSpec};
use std::sync::Arc;

fn main() {
    let mut f = Flags::from_env();
    let sessions: usize = f.get("--sessions", 24);
    let shards: usize = f.get("--shards", 4);
    let scale_percent: usize = f.get("--scale", 5);
    let seed: u64 = f.get("--seed", 0x5E12_7E00);
    let capacity: usize = f.get("--capacity", 1024);
    let out: String = f.get("--out", "BENCH_serve_threaded.json".into());
    f.finish();

    let musl = Arc::new(regimes::musl_hashes());
    let traffic = mixed_traffic(&TrafficSpec {
        sessions,
        scale_percent,
        adversarial_every: 4,
        stall_every: 8,
        seed,
    });
    let cfg = ServiceConfig {
        shards,
        mode: SchedMode::Threaded,
        ..fleet_config(seed, 0, capacity)
    };
    let requests = traffic.iter().map(|item| regimes::request_for(item, &musl));
    let (result, rejected) = run_fleet(cfg, requests);
    let wall_secs = result.wall_nanos as f64 / 1e9;
    eprintln!(
        "bench_serve_threaded x{shards}: {} reports in {wall_secs:.2}s wall",
        result.reports.len()
    );

    // One service runs one backend, so the scheduler counters are the
    // threaded backend's own.
    let completed = result.metrics.counters().completed;
    let s = result.metrics.sched_stats();
    let doc = Json::obj([
        ("sessions", sessions.into()),
        ("scale_percent", scale_percent.into()),
        ("seed", seed.into()),
        ("shards", shards.into()),
        ("completed", completed.into()),
        ("rejected", rejected.into()),
        ("wall_seconds", Json::Fixed(wall_secs, 4)),
        (
            "wall_throughput_per_sec",
            Json::Fixed(completed as f64 / wall_secs.max(1e-9), 4),
        ),
        ("steals", s.steals.into()),
        ("stolen_sessions", s.stolen_sessions.into()),
        ("drained_from_dead", s.drained_from_dead.into()),
        ("batches", s.batches.into()),
        ("batched_sessions", s.batched_sessions.into()),
    ]);
    write_json(&out, &doc);
}
