//! Verdict-cache effectiveness: provisions a 16-tenant fleet that all
//! ship the *same* binary against the matched control fleet where every
//! tenant ships a *distinct* binary, and writes `BENCH_cache.json`.
//!
//! Three headline numbers:
//!
//! * `speedup_same_vs_distinct` — sessions per model-second of the
//!   cached same-binary fleet over the all-distinct fleet (which can
//!   never hit). This is the deployment win for homogeneous fleets
//!   (auto-scaled replicas of one service binary).
//! * `speedup_cached_vs_uncached` — the same fleet with the cache off,
//!   isolating the cache's own contribution.
//! * `verdicts_bit_identical` — cached and uncached runs of the same
//!   fleet at the same seed must produce byte-identical signed
//!   verdicts; the cache may only change *when* a verdict is computed,
//!   never *what* it says.
//!
//! All measurements use the deterministic virtual-time scheduler, so
//! cycle counts are bit-reproducible. A cross-shard run demonstrates
//! that one shard's verdict serves another shard's tenant.
//!
//! ```text
//! bench_verdict_cache [--sessions N] [--scale P] [--seed S]
//!                     [--arrival-gap CYCLES] [--cache-capacity N]
//!                     [--cross-shards N] [--out PATH]
//! ```

use engarde_bench::harness::{fleet_config, per_model_second, run_fleet, write_json, Flags};
use engarde_serve::metrics::Json;
use engarde_serve::regimes;
use engarde_serve::service::{ServiceConfig, ServiceResult};
use engarde_sgx::perf::CLOCK_GHZ;
use engarde_workloads::traffic::{distinct_binary_traffic, repeated_binary_traffic, TrafficItem};
use std::collections::HashMap;
use std::sync::Arc;

struct Args {
    sessions: usize,
    scale_percent: usize,
    seed: u64,
    arrival_gap: u64,
    cache_capacity: usize,
    cross_shards: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut f = Flags::from_env();
    let args = Args {
        sessions: f.get("--sessions", 16),
        scale_percent: f.get("--scale", 5),
        seed: f.get("--seed", 0x0CAC_4E00),
        arrival_gap: f.get("--arrival-gap", 2_000_000),
        cache_capacity: f.get("--cache-capacity", 64),
        cross_shards: f.get("--cross-shards", 2),
        out: f.get("--out", "BENCH_cache.json".into()),
    };
    f.finish();
    args
}

/// One measured fleet run.
struct FleetRun {
    label: &'static str,
    makespan_cycles: u64,
    sessions_per_model_sec: f64,
    compliant: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_insertions: u64,
    report_hits: u64,
    verdict_fingerprint: String,
}

/// Hash of *what* the service decided, not *how fast*: session names,
/// outcomes, and signed verdict bytes, sorted by name. Cycle counts,
/// latencies, and the cache-hit bit are deliberately excluded so a
/// cached and an uncached run of the same fleet hash identically iff
/// the cache never changed a verdict.
fn verdict_fingerprint(result: &ServiceResult) -> String {
    use engarde_crypto::sha256::Sha256;
    let mut reports: Vec<_> = result.reports.iter().collect();
    reports.sort_by(|a, b| a.name.cmp(&b.name));
    let mut h = Sha256::new();
    for r in reports {
        h.update(r.name.as_bytes());
        h.update(&[r.outcome.class_byte()]);
        if let Some(v) = &r.verdict {
            h.update(&[v.compliant as u8]);
            h.update(v.detail.as_bytes());
            h.update(&v.signature);
        }
    }
    h.finalize().to_hex()
}

fn run(
    label: &'static str,
    traffic: &[TrafficItem],
    cache: Option<usize>,
    shards: usize,
    args: &Args,
    musl: &Arc<HashMap<String, engarde_crypto::sha256::Digest>>,
) -> FleetRun {
    let cfg = ServiceConfig {
        shards,
        verdict_cache: cache,
        ..fleet_config(args.seed, args.arrival_gap, traffic.len().max(1) * 2)
    };
    let requests = traffic.iter().map(|item| regimes::request_for(item, musl));
    let (result, rejected) = run_fleet(cfg, requests);
    assert_eq!(rejected, 0, "{label}: the queue holds every session");
    let m = result.metrics.counters();
    let cache = result.metrics.cache_stats();
    let run = FleetRun {
        label,
        makespan_cycles: result.makespan_cycles,
        sessions_per_model_sec: per_model_second(m.completed, result.makespan_cycles),
        compliant: m.compliant,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        cache_insertions: cache.insertions,
        report_hits: result.reports.iter().filter(|r| r.cache_hit).count() as u64,
        verdict_fingerprint: verdict_fingerprint(&result),
    };
    eprintln!(
        "  {label}: makespan {} cycles, {:.2} sessions/model-s, hits {} misses {}",
        run.makespan_cycles, run.sessions_per_model_sec, run.cache_hits, run.cache_misses
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
        ("cache_hits", r.cache_hits.into()),
        ("cache_misses", r.cache_misses.into()),
        ("cache_evictions", r.cache_evictions.into()),
        ("cache_insertions", r.cache_insertions.into()),
        ("report_hits", r.report_hits.into()),
        ("verdict_fingerprint", r.verdict_fingerprint.as_str().into()),
    ])
}

fn main() {
    let args = parse_args();
    let musl = Arc::new(regimes::musl_hashes());
    let same = repeated_binary_traffic(args.sessions, args.scale_percent, args.seed);
    let distinct = distinct_binary_traffic(args.sessions, args.scale_percent, args.seed);
    eprintln!(
        "bench_verdict_cache: {}-tenant fleets (scale {}%), cache capacity {}",
        args.sessions, args.scale_percent, args.cache_capacity
    );

    // Single-shard runs: the cached/uncached comparison must pin every
    // session to the same provider position so verdict signatures are
    // byte-comparable.
    let cached = run(
        "same_binary_cached",
        &same,
        Some(args.cache_capacity),
        1,
        &args,
        &musl,
    );
    let uncached = run("same_binary_uncached", &same, None, 1, &args, &musl);
    let control = run(
        "distinct_binary_cached",
        &distinct,
        Some(args.cache_capacity),
        1,
        &args,
        &musl,
    );

    // Cross-shard sharing: one fleet-wide cache, several shards — the
    // first shard's verdict serves the other shards' tenants.
    let cross = run(
        "cross_shard_cached",
        &same,
        Some(args.cache_capacity),
        args.cross_shards,
        &args,
        &musl,
    );

    let speedup_vs_distinct = cached.sessions_per_model_sec / control.sessions_per_model_sec;
    let speedup_vs_uncached = cached.sessions_per_model_sec / uncached.sessions_per_model_sec;
    let identical = cached.verdict_fingerprint == uncached.verdict_fingerprint;
    eprintln!(
        "  speedup vs distinct fleet: {speedup_vs_distinct:.2}x; vs uncached: {speedup_vs_uncached:.2}x; verdicts identical: {identical}"
    );
    assert!(
        identical,
        "cache changed a verdict: {} != {}",
        cached.verdict_fingerprint, uncached.verdict_fingerprint
    );
    assert_eq!(
        cached.cache_hits,
        args.sessions as u64 - 1,
        "every session after the first must hit"
    );
    assert_eq!(control.cache_hits, 0, "distinct binaries must never hit");
    assert!(
        cross.cache_hits > 0,
        "cross-shard fleet must share verdicts"
    );

    let mut doc = vec![
        ("sessions", args.sessions.into()),
        ("scale_percent", args.scale_percent.into()),
        ("seed", args.seed.into()),
        ("arrival_gap_cycles", args.arrival_gap.into()),
        ("cache_capacity", args.cache_capacity.into()),
        ("clock_ghz", Json::Float(CLOCK_GHZ)),
    ];
    doc.extend([&cached, &uncached, &control].map(|r| (r.label, fleet_json(r))));
    let cross_shard = [
        ("shards", args.cross_shards.into()),
        ("run", fleet_json(&cross)),
    ];
    doc.extend([
        ("cross_shard", Json::obj(cross_shard)),
        (
            "speedup_same_vs_distinct",
            Json::Fixed(speedup_vs_distinct, 4),
        ),
        (
            "speedup_cached_vs_uncached",
            Json::Fixed(speedup_vs_uncached, 4),
        ),
        ("verdicts_bit_identical", identical.into()),
    ]);
    write_json(&args.out, &Json::obj(doc));
}
