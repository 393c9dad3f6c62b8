//! Multi-tenant service throughput: replays a mixed tenant workload
//! (all seven paper benchmarks plus adversarial and stalling fixtures)
//! through `engarde-serve` at several fleet sizes and writes
//! `BENCH_serve.json`.
//!
//! The headline numbers come from the deterministic virtual-time
//! scheduler: session durations are SGX cost-model cycle deltas, so
//! throughput, latency percentiles, and the speedup-vs-one-shard curve
//! are bit-reproducible and independent of the host's core count. A
//! threaded wall-clock run is recorded as auxiliary data, and an
//! overload run with a tiny admission queue exercises `Busy`
//! backpressure for the rejection-rate figure.
//!
//! ```text
//! bench_serve_throughput [--sessions N] [--shards 1,2,4] [--scale P]
//!                        [--seed S] [--arrival-gap CYCLES]
//!                        [--capacity N] [--out PATH] [--skip-threaded]
//! ```

use engarde_bench::harness::{fleet_machine, per_model_second, write_json, Flags};
use engarde_serve::metrics::Json;
use engarde_serve::regimes;
use engarde_serve::service::{ProvisioningService, SchedMode, ServiceConfig, ServiceResult};
use engarde_serve::{BatchPolicy, ServeError, SessionRunConfig};
use engarde_sgx::perf::CLOCK_GHZ;
use engarde_workloads::traffic::{
    mixed_traffic, repeated_binary_traffic, TrafficItem, TrafficSpec,
};
use std::collections::HashMap;
use std::sync::Arc;

struct Args {
    sessions: usize,
    shard_counts: Vec<usize>,
    scale_percent: usize,
    seed: u64,
    arrival_gap: u64,
    capacity: usize,
    out: String,
    skip_threaded: bool,
}

fn parse_args() -> Args {
    let mut f = Flags::from_env();
    let args = Args {
        sessions: f.get("--sessions", 24),
        shard_counts: f.list("--shards", vec![1, 2, 4]),
        scale_percent: f.get("--scale", 5),
        seed: f.get("--seed", 0x5E12_7E00),
        arrival_gap: f.get("--arrival-gap", 2_000_000),
        capacity: f.get("--capacity", 1024),
        out: f.get("--out", "BENCH_serve.json".into()),
        skip_threaded: f.switch("--skip-threaded"),
    };
    f.finish();
    assert!(
        !args.shard_counts.is_empty(),
        "need at least one fleet size"
    );
    args
}

/// One virtual-time measurement at a given fleet size.
struct VirtualRun {
    shards: usize,
    admitted: u64,
    rejected: u64,
    evicted: u64,
    compliant: u64,
    noncompliant: u64,
    makespan_cycles: u64,
    throughput_per_sec: f64,
    p50_latency_cycles: u64,
    p99_latency_cycles: u64,
    queue_depth_highwater: usize,
    /// Fingerprint of all verdicts + cycle totals, for determinism
    /// comparison across repeat runs.
    fingerprint: String,
}

fn submit_all(
    svc: &mut ProvisioningService,
    traffic: &[TrafficItem],
    musl: &Arc<HashMap<String, engarde_crypto::sha256::Digest>>,
) -> u64 {
    let mut rejected = 0;
    for item in traffic {
        match svc.submit(regimes::request_for(item, musl)) {
            Ok(()) => {}
            Err(ServeError::Busy { .. }) => rejected += 1,
            Err(e) => panic!("submit {}: {e}", item.name),
        }
    }
    rejected
}

fn run_virtual(
    shards: usize,
    args: &Args,
    traffic: &[TrafficItem],
    musl: &Arc<HashMap<String, engarde_crypto::sha256::Digest>>,
    capacity: usize,
) -> (VirtualRun, ServiceResult) {
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards,
        mode: SchedMode::VirtualTime {
            arrival_gap: args.arrival_gap,
        },
        machine: fleet_machine(args.seed),
        queue_capacity: capacity,
        run: SessionRunConfig::default(),
        verdict_cache: None,
        faults: None,
        store: None,
        batch: None,
        steal: true,
    });
    let rejected = submit_all(&mut svc, traffic, musl);
    let result = svc.drain();
    let m = result.metrics.counters();
    let run = VirtualRun {
        shards,
        admitted: m.admitted,
        rejected,
        evicted: m.evicted,
        compliant: m.compliant,
        noncompliant: m.noncompliant,
        makespan_cycles: result.makespan_cycles,
        throughput_per_sec: per_model_second(m.completed, result.makespan_cycles),
        p50_latency_cycles: result.metrics.latency_percentile(50).unwrap_or(0),
        p99_latency_cycles: result.metrics.latency_percentile(99).unwrap_or(0),
        queue_depth_highwater: m.queue_depth_highwater,
        fingerprint: result.fingerprint(),
    };
    (run, result)
}

/// One skewed-fleet measurement: a hot-shard configuration variant.
struct SkewedRun {
    label: &'static str,
    shards: usize,
    steal: bool,
    batch: bool,
    cache: bool,
    throughput_per_sec: f64,
    makespan_cycles: u64,
    steals: u64,
    stolen_sessions: u64,
    batches: u64,
    batched_sessions: u64,
    fingerprint: String,
}

/// One point on the skewed-fleet mechanism ladder.
#[derive(Clone, Copy)]
struct SkewPoint {
    label: &'static str,
    shards: usize,
    steal: bool,
    batch: bool,
    cache: bool,
}

/// Replays a same-binary fleet whose shard hints send 8 of every 11
/// sessions to shard 0 (an 8:1:1:1 hot-shard skew) through one
/// scheduler configuration. The 1-shard `steal=false, batch=false,
/// cache=false` point is the pre-stealing design's baseline: every
/// session pays a full inspection on the only worker.
fn run_skewed(
    point: SkewPoint,
    args: &Args,
    traffic: &[TrafficItem],
    musl: &Arc<HashMap<String, engarde_crypto::sha256::Digest>>,
) -> SkewedRun {
    let SkewPoint {
        label,
        shards,
        steal,
        batch,
        cache,
    } = point;
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards,
        mode: SchedMode::VirtualTime {
            arrival_gap: args.arrival_gap,
        },
        machine: fleet_machine(args.seed),
        queue_capacity: args.capacity,
        run: SessionRunConfig::default(),
        verdict_cache: cache.then_some(64),
        faults: None,
        store: None,
        batch: batch.then(BatchPolicy::default),
        steal,
    });
    for (i, item) in traffic.iter().enumerate() {
        let mut req = regimes::request_for(item, musl);
        req.shard_hint = Some(match i % 11 {
            n if n < 8 => 0,
            8 => 1,
            9 => 2,
            _ => 3,
        });
        svc.submit(req)
            .unwrap_or_else(|e| panic!("skewed submit {}: {e}", item.name));
    }
    let result = svc.drain();
    let m = result.metrics.counters();
    let sched = result.metrics.sched_stats();
    SkewedRun {
        label,
        shards,
        steal,
        batch,
        cache,
        throughput_per_sec: per_model_second(m.completed, result.makespan_cycles),
        makespan_cycles: result.makespan_cycles,
        steals: sched.steals,
        stolen_sessions: sched.stolen_sessions,
        batches: sched.batches,
        batched_sessions: sched.batched_sessions,
        fingerprint: result.fingerprint(),
    }
}

fn main() {
    let args = parse_args();
    let musl = Arc::new(regimes::musl_hashes());
    let traffic = mixed_traffic(&TrafficSpec {
        sessions: args.sessions,
        scale_percent: args.scale_percent,
        adversarial_every: 4,
        stall_every: 8,
        seed: args.seed,
    });
    eprintln!(
        "bench_serve_throughput: {} sessions (scale {}%), fleets {:?}",
        args.sessions, args.scale_percent, args.shard_counts
    );

    let mut runs = Vec::new();
    for &shards in &args.shard_counts {
        let (run, _) = run_virtual(shards, &args, &traffic, &musl, args.capacity);
        eprintln!(
            "  {} shard(s): makespan {} cycles, throughput {:.2}/s, p99 latency {} cycles",
            shards, run.makespan_cycles, run.throughput_per_sec, run.p99_latency_cycles
        );
        runs.push(run);
    }

    // Determinism: repeat the largest fleet and compare fingerprints
    // (verdict bytes, per-session cycle totals, makespan).
    let &largest = args.shard_counts.iter().max().expect("non-empty");
    let (repeat, _) = run_virtual(largest, &args, &traffic, &musl, args.capacity);
    let reference = runs
        .iter()
        .find(|r| r.shards == largest)
        .expect("largest fleet measured");
    let deterministic = repeat.fingerprint == reference.fingerprint;
    eprintln!("  deterministic at {largest} shard(s): {deterministic}");

    // Skewed fleet: one hot shard gets 8× its peers' traffic (8:1:1:1
    // shard hints over a same-binary fleet). The ladder isolates each
    // mechanism's contribution against the pre-stealing baseline — one
    // shard, no batching, no cache, every session a full inspection.
    let skew_traffic =
        repeated_binary_traffic(args.sessions, args.scale_percent, args.seed ^ 0x5A3D);
    let ladder = [
        SkewPoint {
            label: "baseline-1shard",
            shards: 1,
            steal: false,
            batch: false,
            cache: false,
        },
        SkewPoint {
            label: "4shard-pinned",
            shards: 4,
            steal: false,
            batch: false,
            cache: false,
        },
        SkewPoint {
            label: "4shard-steal",
            shards: 4,
            steal: true,
            batch: false,
            cache: false,
        },
        SkewPoint {
            label: "4shard-steal-batch-cache",
            shards: 4,
            steal: true,
            batch: true,
            cache: true,
        },
    ];
    let skewed: Vec<SkewedRun> = ladder
        .iter()
        .map(|&p| run_skewed(p, &args, &skew_traffic, &musl))
        .collect();
    let skew_base = skewed[0].throughput_per_sec;
    for r in &skewed {
        eprintln!(
            "  skewed {}: {:.2}/s ({:.2}x baseline), {} steals, {} batches",
            r.label,
            r.throughput_per_sec,
            r.throughput_per_sec / skew_base,
            r.steals,
            r.batches
        );
    }
    let skew_repeat = run_skewed(ladder[3], &args, &skew_traffic, &musl);
    let skew_deterministic = skew_repeat.fingerprint == skewed[3].fingerprint;
    eprintln!("  skewed deterministic: {skew_deterministic}");
    let skew_speedup = skewed[3].throughput_per_sec / skew_base;
    // The acceptance bound only holds once the fleet is big enough for
    // batches and cache hits to amortize (smoke runs use 6 sessions).
    if args.sessions >= 16 {
        assert!(
            skew_speedup > 4.0,
            "skewed steal+batch+cache fleet must beat 4x the single-shard \
             baseline, got {skew_speedup:.2}x"
        );
    }

    // Overload: tiny queue in front of one shard with back-to-back
    // arrivals — exercises Busy backpressure for the rejection figure.
    let overload_traffic = mixed_traffic(&TrafficSpec {
        sessions: args.sessions.min(8),
        scale_percent: args.scale_percent,
        adversarial_every: 0,
        stall_every: 0,
        seed: args.seed ^ 0xBAD_CAFE,
    });
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 1,
        mode: SchedMode::VirtualTime { arrival_gap: 1 },
        machine: fleet_machine(args.seed),
        queue_capacity: 2,
        run: SessionRunConfig::default(),
        verdict_cache: None,
        faults: None,
        store: None,
        batch: None,
        steal: true,
    });
    let overload_rejected = submit_all(&mut svc, &overload_traffic, &musl);
    let overload = svc.drain();
    let overload_total = overload_traffic.len() as u64;
    let rejection_rate = overload_rejected as f64 / overload_total as f64;
    eprintln!(
        "  overload: {overload_rejected}/{overload_total} rejected (rate {rejection_rate:.2})"
    );

    // Auxiliary: real threads, wall-clock throughput (host-dependent).
    let threaded = if args.skip_threaded {
        None
    } else {
        let mut svc = ProvisioningService::start(ServiceConfig {
            shards: largest,
            mode: SchedMode::Threaded,
            machine: fleet_machine(args.seed),
            queue_capacity: args.capacity,
            run: SessionRunConfig::default(),
            verdict_cache: None,
            faults: None,
            store: None,
            batch: None,
            steal: true,
        });
        let rejected = submit_all(&mut svc, &traffic, &musl);
        let result = svc.drain();
        let wall_secs = result.wall_nanos as f64 / 1e9;
        eprintln!(
            "  threaded x{largest}: {} reports in {wall_secs:.2}s wall",
            result.reports.len()
        );
        Some((result, rejected, wall_secs))
    };

    let base_makespan = runs
        .iter()
        .find(|r| r.shards == *args.shard_counts.iter().min().expect("non-empty"))
        .expect("base fleet measured")
        .makespan_cycles;

    let runs = runs.iter().map(|r| {
        Json::obj([
            ("shards", r.shards.into()),
            ("admitted", r.admitted.into()),
            ("rejected", r.rejected.into()),
            ("evicted", r.evicted.into()),
            ("compliant", r.compliant.into()),
            ("noncompliant", r.noncompliant.into()),
            ("makespan_cycles", r.makespan_cycles.into()),
            ("throughput_per_sec", Json::Fixed(r.throughput_per_sec, 4)),
            ("p50_latency_cycles", r.p50_latency_cycles.into()),
            ("p99_latency_cycles", r.p99_latency_cycles.into()),
            ("queue_depth_highwater", r.queue_depth_highwater.into()),
            (
                "speedup_vs_min_fleet",
                Json::Fixed(base_makespan as f64 / r.makespan_cycles.max(1) as f64, 4),
            ),
            ("fingerprint", r.fingerprint.as_str().into()),
        ])
    });
    let skewed_runs = skewed.iter().map(|r| {
        Json::obj([
            ("label", r.label.into()),
            ("shards", r.shards.into()),
            ("steal", r.steal.into()),
            ("batch", r.batch.into()),
            ("cache", r.cache.into()),
            ("throughput_per_sec", Json::Fixed(r.throughput_per_sec, 4)),
            ("makespan_cycles", r.makespan_cycles.into()),
            (
                "speedup_vs_baseline",
                Json::Fixed(r.throughput_per_sec / skew_base, 4),
            ),
            ("steals", r.steals.into()),
            ("stolen_sessions", r.stolen_sessions.into()),
            ("batches", r.batches.into()),
            ("batched_sessions", r.batched_sessions.into()),
            ("fingerprint", r.fingerprint.as_str().into()),
        ])
    });
    let skewed_block = Json::obj([
        ("hot_shard_ratio", "8:1:1:1".into()),
        ("runs", Json::Arr(skewed_runs.collect())),
        (
            "speedup_pinned",
            Json::Fixed(skewed[1].throughput_per_sec / skew_base, 4),
        ),
        (
            "speedup_steal",
            Json::Fixed(skewed[2].throughput_per_sec / skew_base, 4),
        ),
        ("speedup_steal_batch_cache", Json::Fixed(skew_speedup, 4)),
        ("deterministic", skew_deterministic.into()),
    ]);
    let overload_block = Json::obj([
        ("sessions", overload_total.into()),
        ("rejected", overload_rejected.into()),
        ("rejection_rate", Json::Fixed(rejection_rate, 4)),
        ("queue_capacity", 2u64.into()),
        ("completed", overload.metrics.counters().completed.into()),
    ]);
    // One service runs one backend, so the threaded run's scheduler
    // counters are the threaded backend's own.
    let threaded_block = threaded.map_or(Json::Null, |(result, rejected, wall_secs)| {
        let completed = result.metrics.counters().completed;
        let s = result.metrics.sched_stats();
        Json::obj([
            ("shards", largest.into()),
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
        ])
    });
    let doc = Json::obj([
        ("sessions", args.sessions.into()),
        ("scale_percent", args.scale_percent.into()),
        ("seed", args.seed.into()),
        ("arrival_gap_cycles", args.arrival_gap.into()),
        ("clock_ghz", Json::Float(CLOCK_GHZ)),
        ("runs", Json::Arr(runs.collect())),
        ("deterministic", deterministic.into()),
        ("skewed", skewed_block),
        ("overload", overload_block),
        ("threaded", threaded_block),
    ]);
    write_json(&args.out, &doc);
}
