//! Integration tests for the provisioning service: typed protocol
//! transitions, deterministic virtual-time scheduling, eviction with
//! EPC recycling, admission backpressure, threaded workers, and
//! retry-under-EPC-pressure with reclamation.

use engarde_core::provider::CloudProvider;
use engarde_serve::pool::SessionOutcome;
use engarde_serve::service::{ProvisioningService, SchedMode, ServiceConfig};
use engarde_serve::session::SessionFsm;
use engarde_serve::{regimes, ServeError, SessionRunConfig};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::MachineConfig;
use engarde_workloads::traffic::{
    mixed_traffic, repeated_binary_traffic, ExpectedOutcome, TrafficSpec,
};
use std::collections::HashMap;
use std::sync::Arc;

fn machine(seed: u64) -> MachineConfig {
    MachineConfig {
        epc_pages: 4_096,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    }
}

fn musl() -> Arc<HashMap<String, engarde_crypto::sha256::Digest>> {
    Arc::new(regimes::musl_hashes())
}

fn compliant_requests(n: usize, seed: u64) -> Vec<engarde_serve::SessionRequest> {
    let musl = musl();
    mixed_traffic(&TrafficSpec {
        sessions: n,
        scale_percent: 3,
        adversarial_every: 0,
        stall_every: 0,
        seed,
    })
    .iter()
    .map(|item| regimes::request_for(item, &musl))
    .collect()
}

#[test]
fn fsm_rejects_illegal_transitions_with_typed_errors() {
    let mut provider = CloudProvider::new(machine(0xF5A));
    let req = compliant_requests(1, 0xF5A).remove(0);
    let mut fsm = SessionFsm::create(&mut provider, &req).expect("create");

    // Channel and delivery before attestation are refused up front.
    assert!(matches!(
        fsm.open_channel(&mut provider),
        Err(ServeError::IllegalTransition {
            phase: "created",
            action: "open channel"
        })
    ));
    assert!(matches!(
        fsm.content_blocks(),
        Err(ServeError::IllegalTransition {
            phase: "created",
            ..
        })
    ));

    fsm.attest(&mut provider).expect("attest");
    // Double attestation is a typed error too.
    assert!(matches!(
        fsm.attest(&mut provider),
        Err(ServeError::IllegalTransition {
            phase: "attested",
            action: "attest"
        })
    ));
    // Inspection before the transfer even starts.
    assert!(matches!(
        fsm.inspect(&mut provider),
        Err(ServeError::IllegalTransition {
            phase: "attested",
            action: "inspect"
        })
    ));

    fsm.open_channel(&mut provider).expect("channel");
    let blocks = fsm.content_blocks().expect("blocks");
    assert!(blocks.len() > 2);
    fsm.deliver(&mut provider, &blocks[0]).expect("deliver");
    // Inspect mid-delivery: refused before the provider is touched.
    assert!(matches!(
        fsm.inspect(&mut provider),
        Err(ServeError::IllegalTransition {
            phase: "delivering",
            action: "inspect"
        })
    ));
    for block in &blocks[1..] {
        fsm.deliver(&mut provider, block).expect("deliver");
    }
    let verdict = fsm.inspect(&mut provider).expect("inspect");
    assert!(verdict.view.compliant);
    assert!(verdict.client_verified);
    // Double-inspection is refused: the first one finished the session.
    assert!(matches!(
        fsm.inspect(&mut provider),
        Err(ServeError::IllegalTransition {
            phase: "inspected",
            action: "inspect"
        })
    ));
    // Late delivery after inspection is likewise typed.
    assert!(matches!(
        fsm.deliver(&mut provider, &blocks[0]),
        Err(ServeError::IllegalTransition {
            phase: "inspected",
            action: "deliver content"
        })
    ));
}

fn run_virtual(seed: u64) -> engarde_serve::ServiceResult {
    let musl = musl();
    let traffic = mixed_traffic(&TrafficSpec {
        sessions: 6,
        scale_percent: 3,
        adversarial_every: 3,
        stall_every: 0,
        seed,
    });
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 2,
        mode: SchedMode::VirtualTime {
            arrival_gap: 1_000_000,
        },
        machine: machine(seed),
        queue_capacity: 16,
        run: SessionRunConfig::default(),
        verdict_cache: None,
        faults: None,
        store: None,
        batch: None,
        steal: true,
    });
    for item in &traffic {
        svc.submit(regimes::request_for(item, &musl))
            .expect("admit");
    }
    svc.drain()
}

#[test]
fn virtual_time_mode_is_bit_reproducible() {
    let a = run_virtual(0xD37);
    let b = run_virtual(0xD37);
    assert_eq!(a.reports.len(), 6);
    assert_eq!(a.makespan_cycles, b.makespan_cycles);
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.shard, y.shard);
        assert_eq!(x.outcome, y.outcome);
        assert_eq!(x.cycles, y.cycles, "{}: cycle totals must match", x.name);
        assert_eq!(x.latency_cycles, y.latency_cycles);
        assert_eq!(
            x.verdict, y.verdict,
            "{}: verdicts must be identical",
            x.name
        );
        assert_eq!(x.measurement, y.measurement);
    }
    // The mix contains both polarities and every verdict is client-valid.
    assert!(a
        .reports
        .iter()
        .any(|r| r.outcome == SessionOutcome::Compliant));
    assert!(a
        .reports
        .iter()
        .any(|r| r.outcome == SessionOutcome::NonCompliant));
    assert!(a
        .reports
        .iter()
        .filter(|r| r.reached_verdict())
        .all(|r| r.client_verified));
}

fn run_cached_fleet(seed: u64) -> engarde_serve::ServiceResult {
    let musl = musl();
    let traffic = repeated_binary_traffic(6, 3, seed);
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 2,
        mode: SchedMode::VirtualTime {
            arrival_gap: 1_000_000,
        },
        machine: machine(seed),
        queue_capacity: 16,
        run: SessionRunConfig::default(),
        verdict_cache: Some(16),
        faults: None,
        store: None,
        batch: None,
        steal: true,
    });
    for item in &traffic {
        svc.submit(regimes::request_for(item, &musl))
            .expect("admit");
    }
    svc.drain()
}

#[test]
fn verdict_cache_is_shared_across_shards_and_stays_reproducible() {
    let a = run_cached_fleet(0xCAC4E);
    let b = run_cached_fleet(0xCAC4E);
    // One fleet-wide cache: the first session inserts, every later
    // session replays — including the ones scheduled on the other shard.
    let m = a.metrics.cache_stats();
    assert_eq!(m.misses, 1);
    assert_eq!(m.hits, 5);
    assert_eq!(m.insertions, 1);
    assert_eq!(m.evictions, 0);
    let hits: Vec<_> = a.reports.iter().filter(|r| r.cache_hit).collect();
    assert_eq!(hits.len(), 5);
    let hit_shards: std::collections::BTreeSet<usize> = hits.iter().map(|r| r.shard).collect();
    assert!(
        hit_shards.len() > 1,
        "hits must land on more than one shard, got {hit_shards:?}"
    );
    // Caching must not cost virtual-time determinism: repeat runs are
    // bit-identical down to cycle counts and verdict bytes.
    assert_eq!(a.makespan_cycles, b.makespan_cycles);
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.cache_hit, y.cache_hit, "{}", x.name);
        assert_eq!(x.cycles, y.cycles, "{}", x.name);
        assert_eq!(x.verdict, y.verdict, "{}", x.name);
    }
    // Every session — cached or not — reaches a client-valid verdict.
    assert!(a
        .reports
        .iter()
        .all(|r| r.outcome == SessionOutcome::Compliant));
    assert!(a.reports.iter().all(|r| r.client_verified));
}

#[test]
fn stalled_client_is_evicted_and_epc_recycled() {
    let musl = musl();
    let traffic = mixed_traffic(&TrafficSpec {
        sessions: 1,
        scale_percent: 3,
        adversarial_every: 0,
        stall_every: 1,
        seed: 0xEE1,
    });
    assert_eq!(traffic[0].expected, ExpectedOutcome::Evicted);
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 1,
        machine: machine(0xEE1),
        ..ServiceConfig::default()
    });
    svc.submit(regimes::request_for(&traffic[0], &musl))
        .expect("admit");
    let result = svc.drain();
    assert!(matches!(
        result.reports[0].outcome,
        SessionOutcome::Evicted {
            reason: engarde_serve::EvictReason::ClientStalled
        }
    ));
    let m = result.metrics.counters();
    assert_eq!(m.evicted, 1);
    assert_eq!(m.completed, 0);
    // Eviction tears the enclave down: no sessions, no EPC pages held.
    let shard = &result.shards[0];
    assert_eq!(shard.provider().session_count(), 0);
    assert_eq!(shard.provider().host().machine().epc_used_pages(), 0);
}

#[test]
fn admission_control_rejects_when_queue_is_full() {
    let musl = musl();
    let traffic = mixed_traffic(&TrafficSpec {
        sessions: 4,
        scale_percent: 3,
        adversarial_every: 0,
        stall_every: 0,
        seed: 0xB5,
    });
    // One shard, one queue slot, arrivals every cycle: while session 0
    // runs (millions of cycles), session 1 takes the only waiting slot
    // and sessions 2 and 3 must bounce with `Busy`.
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 1,
        mode: SchedMode::VirtualTime { arrival_gap: 1 },
        machine: machine(0xB5),
        queue_capacity: 1,
        run: SessionRunConfig::default(),
        verdict_cache: None,
        faults: None,
        store: None,
        batch: None,
        steal: true,
    });
    let mut rejected = 0;
    for item in &traffic {
        match svc.submit(regimes::request_for(item, &musl)) {
            Ok(()) => {}
            Err(ServeError::Busy { queue_depth }) => {
                assert!(queue_depth >= 1);
                rejected += 1;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!(rejected, 2, "two of four arrivals must bounce");
    let result = svc.drain();
    let m = result.metrics.counters();
    assert_eq!(m.admitted, 2);
    assert_eq!(m.rejected_busy, 2);
    assert_eq!(m.queue_depth_highwater, 1);
    assert_eq!(result.reports.len(), 2);
}

#[test]
fn threaded_mode_completes_all_sessions() {
    let musl = musl();
    let traffic = mixed_traffic(&TrafficSpec {
        sessions: 3,
        scale_percent: 3,
        adversarial_every: 0,
        stall_every: 0,
        seed: 0x7E4,
    });
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 2,
        mode: SchedMode::Threaded,
        machine: machine(0x7E4),
        queue_capacity: 8,
        run: SessionRunConfig::default(),
        verdict_cache: None,
        faults: None,
        store: None,
        batch: None,
        steal: true,
    });
    for item in &traffic {
        svc.submit(regimes::request_for(item, &musl))
            .expect("admit");
    }
    let result = svc.drain();
    assert_eq!(result.reports.len(), 3);
    assert!(result.reports.iter().all(|r| r.reached_verdict()));
    assert!(result.reports.iter().all(|r| r.client_verified));
    assert!(result.makespan_cycles > 0);
    assert!(result.wall_nanos > 0);
    let m = result.metrics.counters();
    assert_eq!(m.admitted, 3);
    assert_eq!(m.completed, 3);
    // Submission after drain is refused.
}

#[test]
fn transient_epc_pressure_is_retried_with_reclamation() {
    // Stage 1: measure how many EPC pages one retained session occupies.
    let probe_cfg = SessionRunConfig {
        release_enclaves: false,
        ..SessionRunConfig::default()
    };
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 1,
        machine: machine(0xEC0),
        run: probe_cfg.clone(),
        ..ServiceConfig::default()
    });
    let reqs = compliant_requests(2, 0xEC0);
    svc.submit(reqs[0].clone()).expect("admit probe");
    let result = svc.drain();
    assert_eq!(result.reports[0].outcome, SessionOutcome::Compliant);
    let used = result.shards[0]
        .provider()
        .host()
        .machine()
        .epc_used_pages();
    assert!(used > 0, "retained enclave must hold EPC pages");

    // Stage 2: an EPC that fits one enclave but not two. The second
    // session hits OutOfPages, the retry path reclaims the retained
    // enclave, and both sessions still reach verdicts.
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 1,
        machine: MachineConfig {
            epc_pages: used + used / 2,
            ..machine(0xEC0)
        },
        run: probe_cfg,
        ..ServiceConfig::default()
    });
    for req in &reqs {
        svc.submit(req.clone()).expect("admit");
    }
    let result = svc.drain();
    assert!(result
        .reports
        .iter()
        .all(|r| r.outcome == SessionOutcome::Compliant));
    let m = result.metrics.counters();
    assert!(m.retries >= 1, "EPC pressure must trigger a retry");
    assert!(result.reports[1].retries >= 1);
}

#[test]
fn killed_worker_yields_typed_error_not_hang() {
    // One worker, and a fault plan that kills it on the first session.
    // Submission after the death must fail with a typed `PoolDead` —
    // not hang on a condvar nobody will ever signal — and drain must
    // still return, with typed reports for anything left behind.
    let reqs = compliant_requests(2, 0xDEAD);
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 1,
        mode: SchedMode::Threaded,
        machine: machine(0xDEAD),
        queue_capacity: 8,
        run: SessionRunConfig::default(),
        verdict_cache: None,
        faults: Some(engarde_serve::FaultPlan {
            seed: 7,
            mix: engarde_serve::FaultMix::only(engarde_serve::FaultKind::WorkerDeath, 1000),
        }),
        store: None,
        batch: None,
        steal: true,
    });
    svc.submit(reqs[0].clone())
        .expect("admit the doomed session");

    // The worker dies after reporting; wait for the liveness counter
    // (bounded — the drop guard runs even on panic exits).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while svc.live_workers() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker death was never detected"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Regression: this call used to enqueue onto a dead pool and the
    // caller would wait forever for a report. Now it is a typed error.
    match svc.submit(reqs[1].clone()) {
        Err(ServeError::PoolDead) => {}
        other => panic!("expected PoolDead, got {other:?}"),
    }

    let result = svc.drain();
    assert_eq!(result.reports.len(), 1);
    assert!(
        matches!(&result.reports[0].outcome, SessionOutcome::Failed { error } if error.contains("worker")),
        "the killed session must surface a typed failure: {:?}",
        result.reports[0].outcome
    );
    let m = result.metrics.counters();
    assert_eq!(m.workers_died, 1);
    assert_eq!(m.compliant, 0, "a dead worker must never sign a PASS");
}

#[test]
fn virtual_fleet_with_all_shards_dead_refuses_typed() {
    let reqs = compliant_requests(3, 0xD1E);
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 1,
        machine: machine(0xD1E),
        faults: Some(engarde_serve::FaultPlan {
            seed: 3,
            mix: engarde_serve::FaultMix::only(engarde_serve::FaultKind::WorkerDeath, 1000),
        }),
        ..ServiceConfig::default()
    });
    svc.submit(reqs[0].clone()).expect("first session admitted");
    assert_eq!(svc.live_workers(), 0);
    assert!(matches!(
        svc.submit(reqs[1].clone()),
        Err(ServeError::PoolDead)
    ));
    let result = svc.drain();
    assert_eq!(result.reports.len(), 1);
    assert!(matches!(
        result.reports[0].outcome,
        SessionOutcome::Failed { .. }
    ));
}

fn run_same_binary_fleet(
    seed: u64,
    batch: Option<engarde_serve::BatchPolicy>,
    verdict_cache: Option<usize>,
) -> engarde_serve::ServiceResult {
    let musl = musl();
    let traffic = repeated_binary_traffic(8, 3, seed);
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 1,
        mode: SchedMode::VirtualTime { arrival_gap: 1_000 },
        machine: machine(seed),
        queue_capacity: 16,
        run: SessionRunConfig::default(),
        verdict_cache,
        faults: None,
        store: None,
        batch,
        steal: true,
    });
    for item in &traffic {
        svc.submit(regimes::request_for(item, &musl))
            .expect("admit");
    }
    svc.drain()
}

#[test]
fn batch_admission_amortizes_one_inspection_across_same_key_followers() {
    let policy = engarde_serve::BatchPolicy::default();
    let batched = run_same_binary_fleet(0xBA7C4, Some(policy), Some(16));

    // Arrivals land every 1k cycles while a session costs millions:
    // session 0 is already running when session 1 arrives, so sessions
    // 1..=7 coalesce into a single same-admission-key batch item.
    let sched = batched.metrics.sched_stats();
    assert_eq!(sched.batches, 1, "one open item must absorb the tail");
    assert_eq!(sched.batched_sessions, 6, "six followers joined it");
    assert_eq!(sched.batch_size_highwater, 7);

    // The leader pays the one real inspection; every follower replays
    // the shared verdict for probe cost.
    let m = batched.metrics.cache_stats();
    assert_eq!(m.misses, 1);
    assert_eq!(m.hits, 7);
    assert!(batched
        .reports
        .iter()
        .all(|r| r.outcome == SessionOutcome::Compliant && r.client_verified));

    // Batching changes scheduling, never verdict content: the
    // verdict-only fingerprint matches a run with batching off.
    let unbatched = run_same_binary_fleet(0xBA7C4, None, Some(16));
    assert_eq!(
        batched.verdict_fingerprint(),
        unbatched.verdict_fingerprint()
    );

    // And the amortization is real: against a fleet that inspects every
    // session from scratch (no cache to share), the batched run's
    // makespan collapses.
    let from_scratch = run_same_binary_fleet(0xBA7C4, None, None);
    assert!(
        batched.makespan_cycles * 2 < from_scratch.makespan_cycles,
        "batched {} vs from-scratch {}: followers must not pay full inspection",
        batched.makespan_cycles,
        from_scratch.makespan_cycles
    );

    // Bit-reproducible, like every virtual-time schedule.
    let replay = run_same_binary_fleet(0xBA7C4, Some(policy), Some(16));
    assert_eq!(batched.fingerprint(), replay.fingerprint());
}

fn run_skewed_fleet(seed: u64, mode: SchedMode, steal: bool) -> engarde_serve::ServiceResult {
    let reqs = compliant_requests(12, seed);
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 4,
        mode,
        machine: machine(seed),
        queue_capacity: 32,
        run: SessionRunConfig::default(),
        verdict_cache: None,
        faults: None,
        store: None,
        batch: None,
        steal,
    });
    for mut req in reqs {
        // Every tenant hints the same home shard: the hot-shard skew
        // the work-stealing scheduler exists to absorb.
        req.shard_hint = Some(0);
        svc.submit(req).expect("admit");
    }
    svc.drain()
}

const SKEW_VIRTUAL_TIME: SchedMode = SchedMode::VirtualTime {
    arrival_gap: 500_000,
};

#[test]
fn skewed_fleet_spreads_hot_shard_load_by_stealing() {
    let stealing = run_skewed_fleet(0x5E3A, SKEW_VIRTUAL_TIME, true);
    let sched = stealing.metrics.sched_stats();
    assert!(sched.steals > 0, "idle peers must steal from the hot deque");
    let shards_used: std::collections::BTreeSet<usize> =
        stealing.reports.iter().map(|r| r.shard).collect();
    assert!(
        shards_used.len() > 1,
        "hinted-home sessions must spill to idle peers, got {shards_used:?}"
    );
    assert!(stealing
        .reports
        .iter()
        .all(|r| r.outcome == SessionOutcome::Compliant && r.client_verified));

    // The steal schedule is a pure function of the seeds.
    let replay = run_skewed_fleet(0x5E3A, SKEW_VIRTUAL_TIME, true);
    assert_eq!(stealing.fingerprint(), replay.fingerprint());

    // Stealing off: the hint pins everything to shard 0 and the other
    // three workers idle — same verdicts, but the makespan balloons.
    let pinned = run_skewed_fleet(0x5E3A, SKEW_VIRTUAL_TIME, false);
    assert_eq!(pinned.metrics.sched_stats().steals, 0);
    assert!(pinned.reports.iter().all(|r| r.shard == 0));
    assert_eq!(stealing.verdict_fingerprint(), pinned.verdict_fingerprint());
    assert!(
        pinned.makespan_cycles >= 2 * stealing.makespan_cycles,
        "pinned {} vs stealing {}: a hot shard without stealing must \
         serialize the fleet",
        pinned.makespan_cycles,
        stealing.makespan_cycles
    );
}

#[test]
fn threaded_skewed_fleet_records_its_steals_in_the_scheduler_block() {
    // Real threads steal in a racy order, so the count is not fixed.
    // But every tenant's home is shard 0, batching is off and no worker
    // dies: a session ran elsewhere exactly when a peer stole it, one
    // session per steal.
    let result = run_skewed_fleet(0x5E3B, SchedMode::Threaded, true);
    assert!(result
        .reports
        .iter()
        .all(|r| r.outcome == SessionOutcome::Compliant && r.client_verified));
    let sched = result.metrics.sched_stats();
    assert!(sched.stolen_sessions >= sched.steals);
    assert!(sched.stolen_sessions >= sched.drained_from_dead);
    let off_home = result.reports.iter().filter(|r| r.shard != 0).count() as u64;
    assert_eq!(sched.stolen_sessions, off_home, "{sched:?}");
    assert_eq!(sched.steals, off_home, "{sched:?}");
    assert_eq!(sched.drained_from_dead, 0);
}
