//! The fault-injection matrix: every fault kind, against compliant and
//! adversarial chaos fleets, must uphold the serve-path invariant —
//! a typed error or clean rejection, never a panic, never a hang, and
//! never a signed PASS verdict over faulted traffic. A second set of
//! tests pins the determinism contract: the fault schedule and the
//! resulting metrics are pure functions of the plan seed, and a
//! fault-free run with the layer enabled is bit-identical to a run
//! without it.

use engarde::loader::LoaderConfig;
use engarde::provision::BootstrapSpec;
use engarde::serve::faults::{FaultKind, FaultMix, FaultPlan};
use engarde::serve::persist::{store_seal_key, StoreConfig};
use engarde::serve::service::{ProvisioningService, SchedMode, ServiceConfig, ServiceResult};
use engarde::serve::{regimes, ServeError, SessionOutcome, SessionRunConfig};
use engarde::sgx::instr::SgxVersion;
use engarde::sgx::machine::MachineConfig;
use engarde::workloads::traffic::{adversarial_chaos_fleet, chaos_fleet, TrafficItem};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn machine(seed: u64) -> MachineConfig {
    MachineConfig {
        epc_pages: 4_096,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    }
}

/// Runs `traffic` through a two-shard virtual-time fleet under `plan`,
/// returning the result plus any typed submit rejections (a fully dead
/// fleet refuses admission with `PoolDead`; that is the invariant
/// working, not a failure of it).
fn run_with_plan(
    traffic: &[TrafficItem],
    seed: u64,
    plan: Option<FaultPlan>,
    run: SessionRunConfig,
) -> (ServiceResult, Vec<ServeError>) {
    let musl = Arc::new(regimes::musl_hashes());
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 2,
        mode: SchedMode::VirtualTime {
            arrival_gap: 1_500_000,
        },
        machine: machine(seed),
        queue_capacity: 64,
        run,
        verdict_cache: None,
        faults: plan,
        store: None,
        batch: None,
        steal: true,
    });
    let mut refused = Vec::new();
    for item in traffic {
        if let Err(e) = svc.submit(regimes::request_for(item, &musl)) {
            refused.push(e);
        }
    }
    (svc.drain(), refused)
}

/// A unique, self-cleaning scratch directory per store-fault test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "engarde-fault-store-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// [`run_with_plan`], with a persistent verdict store attached.
fn run_with_store(
    traffic: &[TrafficItem],
    seed: u64,
    plan: Option<FaultPlan>,
    run: SessionRunConfig,
    store: StoreConfig,
) -> (ServiceResult, Vec<ServeError>) {
    let musl = Arc::new(regimes::musl_hashes());
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 2,
        mode: SchedMode::VirtualTime {
            arrival_gap: 1_500_000,
        },
        machine: machine(seed),
        queue_capacity: 64,
        run,
        verdict_cache: None,
        faults: plan,
        store: Some(store),
        batch: None,
        steal: true,
    });
    let mut refused = Vec::new();
    for item in traffic {
        if let Err(e) = svc.submit(regimes::request_for(item, &musl)) {
            refused.push(e);
        }
    }
    (svc.drain(), refused)
}

#[test]
fn every_fault_kind_yields_typed_outcome_never_a_signed_pass() {
    let compliant = chaos_fleet(3, 3, 0xFA01);
    let adversarial = adversarial_chaos_fleet(3, 0xFA02);
    // No retries: the injected fault's first typed error is terminal,
    // so every kind's detection path is visible in the outcome.
    let run = SessionRunConfig {
        retry_budget: 0,
        ..SessionRunConfig::default()
    };

    for kind in FaultKind::ALL {
        if kind.is_store() {
            // Store faults damage verdicts at rest, never a session's
            // transport — a legitimately compliant session still earns
            // its signed PASS. Their invariant (typed recovery, no
            // unauthenticated verdict admitted) is pinned by the
            // dedicated store-fault tests below.
            continue;
        }
        for (fleet_name, traffic) in [("compliant", &compliant), ("adversarial", &adversarial)] {
            let plan = FaultPlan {
                seed: 0x5EED ^ kind.index() as u64,
                mix: FaultMix::only(kind, 1000),
            };
            let (result, refused) = run_with_plan(traffic, 0xFA03, Some(plan), run.clone());

            // Reaching this line at all is the no-panic / no-hang half
            // of the invariant; the outcomes are the no-signed-PASS half.
            for report in &result.reports {
                assert_ne!(
                    report.outcome,
                    SessionOutcome::Compliant,
                    "{} fault on {fleet_name} fleet signed a PASS for {}",
                    kind.name(),
                    report.name
                );
                match &report.outcome {
                    SessionOutcome::NonCompliant => {
                        // A signed REJECT is a clean rejection — legal
                        // only when the verdict is genuine (signature
                        // verified by the tenant's client).
                        assert!(
                            report.client_verified,
                            "{}: unverifiable rejection for {}",
                            kind.name(),
                            report.name
                        );
                    }
                    SessionOutcome::Evicted { .. }
                    | SessionOutcome::Failed { .. }
                    | SessionOutcome::Shed => {}
                    SessionOutcome::Compliant => unreachable!(),
                }
            }
            // Any refusals must be the typed dead-pool error (worker
            // deaths can exhaust the fleet), never anything else.
            for e in &refused {
                assert!(
                    matches!(e, ServeError::PoolDead),
                    "{}: unexpected submit refusal {e}",
                    kind.name()
                );
            }
            if kind != FaultKind::WorkerDeath {
                assert!(refused.is_empty(), "{}: fleet died", kind.name());
            }

            // No post-fault EPC residue: every enclave a faulted
            // session touched was torn down.
            for shard in &result.shards {
                assert_eq!(
                    shard.provider().session_count(),
                    0,
                    "{}: leaked session",
                    kind.name()
                );
                assert_eq!(
                    shard.provider().host().machine().epc_used_pages(),
                    0,
                    "{}: leaked EPC pages",
                    kind.name()
                );
            }

            // The lifecycle counters saw every injection and detection.
            let stats = result.metrics.fault_stats().kind(kind);
            assert!(stats.injected > 0, "{}: nothing injected", kind.name());
            assert_eq!(
                stats.detected,
                stats.injected,
                "{}: injected faults went undetected",
                kind.name()
            );
            assert_eq!(
                stats.recovered,
                0,
                "{}: recovery without retries",
                kind.name()
            );
        }
    }
}

#[test]
fn recoverable_faults_are_retried_to_verdicts() {
    let traffic = chaos_fleet(4, 3, 0xFA11);
    let run = SessionRunConfig {
        retry_budget: 3,
        backoff_base_cycles: 20_000,
        ..SessionRunConfig::default()
    };
    // Transport damage and EPC pressure (host allocator or in-enclave
    // working memory) both recover on a fresh attempt.
    for kind in [FaultKind::CorruptBlock, FaultKind::EpcPressure] {
        let plan = FaultPlan {
            seed: 11,
            mix: FaultMix::only(kind, 1000),
        };
        let (result, refused) = run_with_plan(&traffic, 0xFA12, Some(plan), run.clone());
        assert!(refused.is_empty());
        assert!(
            result.reports.iter().all(|r| r.reached_verdict()),
            "retries must recover every {kind:?} session"
        );
        assert!(result.reports.iter().all(|r| r.retries >= 1));
        let stats = result.metrics.fault_stats().kind(kind);
        assert_eq!(stats.injected, traffic.len() as u64);
        assert_eq!(stats.recovered, stats.injected);
        assert!(stats.retried >= stats.injected);
        assert_eq!(stats.evicted, 0);
    }
}

#[test]
fn fault_schedule_and_metrics_are_deterministic() {
    let traffic = chaos_fleet(4, 3, 0xFA21);
    let run = SessionRunConfig {
        retry_budget: 3,
        backoff_base_cycles: 20_000,
        ..SessionRunConfig::default()
    };
    let plan = FaultPlan {
        seed: 0xD00D,
        mix: FaultMix::transient(400),
    };
    let (a, _) = run_with_plan(&traffic, 0xFA22, Some(plan), run.clone());
    let (b, _) = run_with_plan(&traffic, 0xFA22, Some(plan), run);
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "same plan seed must replay the identical run"
    );
    assert_eq!(a.metrics.fault_stats(), b.metrics.fault_stats());
    assert_eq!(a.metrics.counters(), b.metrics.counters());
    assert_eq!(a.metrics.cache_stats(), b.metrics.cache_stats());
}

#[test]
fn fault_free_run_with_layer_enabled_is_bit_identical() {
    let traffic = chaos_fleet(4, 3, 0xFA31);
    let run = SessionRunConfig::default();
    let (without, _) = run_with_plan(&traffic, 0xFA32, None, run.clone());
    let (with_disabled, _) =
        run_with_plan(&traffic, 0xFA32, Some(FaultPlan::disabled(0xD15A)), run);
    assert_eq!(
        without.fingerprint(),
        with_disabled.fingerprint(),
        "an idle fault layer must not perturb verdict fingerprints"
    );
    assert_eq!(
        with_disabled.metrics.fault_stats().totals().injected,
        0,
        "a disabled plan must inject nothing"
    );
}

/// A store config sealed under the fleet machine's inspector identity,
/// with tiny batches so even small fleets rotate multiple segments.
fn store_cfg(dir: &std::path::Path, seed: u64) -> StoreConfig {
    let spec = BootstrapSpec::new("EnGarde-1.0", LoaderConfig::default(), &[], 64, 512);
    StoreConfig {
        dir: dir.to_path_buf(),
        seal_key: store_seal_key(&machine(seed), &spec),
        flush_batch: 2,
        segment_max_records: 2,
        compact_live_per_mille: 0,
    }
}

#[test]
fn store_faults_recover_typed_and_never_touch_session_verdicts() {
    let traffic = chaos_fleet(3, 3, 0xFA41);
    let run = SessionRunConfig::default();

    for kind in [
        FaultKind::StoreTornWrite,
        FaultKind::StoreBitFlip,
        FaultKind::StoreLostSegment,
    ] {
        let tmp = TempDir::new(kind.name());
        let cfg = store_cfg(tmp.path(), 0xFA42);

        // Seed the store with a clean run so there is something at rest
        // to damage, then replay the same fleet under the store fault.
        let (clean, _) = run_with_store(&traffic, 0xFA42, None, run.clone(), cfg.clone());
        let plan = FaultPlan {
            seed: 0x5EED ^ kind.index() as u64,
            mix: FaultMix::only(kind, 1000),
        };
        let (faulted, refused) =
            run_with_store(&traffic, 0xFA42, Some(plan), run.clone(), cfg.clone());

        // At-rest damage never perturbs the sessions that produced the
        // verdicts: same signed outcomes as the clean run, no refusals.
        assert!(refused.is_empty(), "{}: fleet refused traffic", kind.name());
        assert_eq!(
            faulted.verdict_fingerprint(),
            clean.verdict_fingerprint(),
            "{}: store damage leaked into session verdicts",
            kind.name()
        );
        assert!(
            faulted.reports.iter().all(|r| r.reached_verdict()),
            "{}: a session failed to reach a verdict",
            kind.name()
        );

        // Typed lifecycle counters: every applied fault recovered via a
        // clean reopen; detection is claimed only for damage the scan
        // can actually see (losing the final segment leaves no gap).
        let stats = faulted.metrics.fault_stats().kind(kind);
        assert!(stats.injected > 0, "{}: nothing injected", kind.name());
        assert_eq!(
            stats.recovered,
            stats.injected,
            "{}: store recovery incomplete",
            kind.name()
        );
        assert!(
            stats.detected <= stats.injected,
            "{}: detected more than injected",
            kind.name()
        );
        if kind != FaultKind::StoreLostSegment {
            assert_eq!(
                stats.detected,
                stats.injected,
                "{}: in-segment damage must always be detected",
                kind.name()
            );
        }
        assert!(
            clean.metrics.store_stats().flushed > 0,
            "{}: seeding run flushed nothing",
            kind.name()
        );
        let snap = faulted.metrics.store_stats();
        assert!(snap.enabled, "{}: store not marked enabled", kind.name());
        assert!(
            snap.hydrated > 0,
            "{}: replay run hydrated nothing from the seeded store",
            kind.name()
        );
        if kind != FaultKind::StoreLostSegment {
            let found = snap.stats.recovery;
            assert!(
                found.torn_tail_truncations + found.corrupt_records + found.garbage_segments > 0,
                "{}: recovery scan reported no damage",
                kind.name()
            );
        }

        // The survivors are exactly the authenticated prefix: a fresh
        // open with the genuine key is clean, panic-free, and admits
        // only MAC-verified records.
        let (recovered, report) = engarde::store::VerdictStore::open(
            tmp.path(),
            &cfg.seal_key,
            engarde::store::StoreOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: post-fault open failed: {e}", kind.name()));
        assert_eq!(
            report.records_recovered,
            recovered.len() as u64,
            "{}: recovery count drifted from live store",
            kind.name()
        );

        // A third fleet restart over the damaged store hydrates without
        // panicking and only from authenticated records.
        let (rerun, rerun_refused) = run_with_store(&traffic, 0xFA42, None, run.clone(), cfg);
        assert!(rerun_refused.is_empty());
        assert_eq!(
            rerun.verdict_fingerprint(),
            clean.verdict_fingerprint(),
            "{}: warm restart over damaged store changed verdicts",
            kind.name()
        );
    }
}

#[test]
fn store_damage_never_yields_unauthenticated_verdicts_or_plaintext() {
    let traffic = chaos_fleet(3, 3, 0xFA51);
    let run = SessionRunConfig::default();
    let tmp = TempDir::new("foreign");
    let cfg = store_cfg(tmp.path(), 0xFA52);

    let plan = FaultPlan {
        seed: 0xB17,
        mix: FaultMix::only(FaultKind::StoreBitFlip, 1000),
    };
    let (result, refused) = run_with_store(&traffic, 0xFA52, Some(plan), run, cfg.clone());
    assert!(refused.is_empty());
    assert!(result.reports.iter().all(|r| r.reached_verdict()));

    // No plaintext at rest: the sealed segments never expose session
    // names or verdict detail strings, damaged or not.
    let mut raw = Vec::new();
    for entry in std::fs::read_dir(tmp.path()).expect("store dir readable") {
        raw.extend(std::fs::read(entry.expect("dir entry").path()).expect("segment readable"));
    }
    assert!(!raw.is_empty(), "store wrote no segments");
    for report in &result.reports {
        assert!(
            !raw.windows(report.name.len())
                .any(|w| w == report.name.as_bytes()),
            "plaintext session name {:?} found in sealed store",
            report.name
        );
    }

    // A foreign inspector identity (different machine seal key) admits
    // nothing: every segment fails authentication, typed and panic-free.
    let foreign = store_cfg(tmp.path(), 0xFA52 ^ 0xFF);
    match engarde::store::VerdictStore::open(
        tmp.path(),
        &foreign.seal_key,
        engarde::store::StoreOptions::default(),
    ) {
        Ok((store, report)) => {
            assert_eq!(store.len(), 0, "foreign key admitted sealed verdicts");
            assert_eq!(report.records_recovered, 0);
            assert!(
                report.found_damage(),
                "wholesale authentication failure must read as damage"
            );
        }
        Err(e) => panic!("foreign-key open must degrade typed, not error: {e}"),
    }
}

/// A plan whose only injection is a `WorkerDeath` on the very first
/// arrival — found by scanning seeds, so the schedule stays a pure
/// function of the plan and the test needs no targeting backdoor.
fn death_on_first_arrival_only(sessions: u64) -> FaultPlan {
    let mix = FaultMix::only(FaultKind::WorkerDeath, 120);
    for seed in 0..u64::MAX {
        let plan = FaultPlan { seed, mix };
        let first = plan
            .directive_for(0)
            .is_some_and(|d| d.kind == FaultKind::WorkerDeath);
        if first && (1..sessions).all(|i| plan.directive_for(i).is_none()) {
            return plan;
        }
    }
    unreachable!("some seed kills only arrival 0");
}

/// Runs a compliant fleet whose every session is *home-pinned* to
/// shard 0 through a four-shard virtual-time fleet: the worker-death ×
/// work-stealing worst case, where the victim's deque holds everything.
fn run_pinned_to_shard_zero(
    traffic: &[TrafficItem],
    seed: u64,
    plan: Option<FaultPlan>,
) -> (ServiceResult, Vec<ServeError>) {
    let musl = Arc::new(regimes::musl_hashes());
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 4,
        mode: SchedMode::VirtualTime {
            arrival_gap: 1_500_000,
        },
        machine: machine(seed),
        queue_capacity: 64,
        run: SessionRunConfig::default(),
        verdict_cache: None,
        faults: plan,
        store: None,
        batch: None,
        steal: true,
    });
    let mut refused = Vec::new();
    for item in traffic {
        let mut req = regimes::request_for(item, &musl);
        req.shard_hint = Some(0);
        if let Err(e) = svc.submit(req) {
            refused.push(e);
        }
    }
    (svc.drain(), refused)
}

#[test]
fn worker_death_deque_is_drained_by_stealing_peers() {
    let traffic = chaos_fleet(6, 3, 0xFA61);
    let plan = death_on_first_arrival_only(traffic.len() as u64);

    let (result, refused) = run_pinned_to_shard_zero(&traffic, 0xFA62, Some(plan));
    assert!(refused.is_empty(), "live peers must keep admitting");

    // The session that carried the death fails typed; every session
    // queued behind it on the dead shard's deque completes on a peer.
    assert!(
        matches!(&result.reports[0].outcome, SessionOutcome::Failed { error } if error.contains("worker")),
        "arrival 0 must surface the typed worker loss: {:?}",
        result.reports[0].outcome
    );
    for report in &result.reports[1..] {
        assert_eq!(
            report.outcome,
            SessionOutcome::Compliant,
            "{} was queued on the dead shard and must still reach its verdict",
            report.name
        );
        assert!(report.client_verified, "{}", report.name);
        assert_ne!(
            report.shard, 0,
            "{} cannot have run on the dead shard",
            report.name
        );
    }

    // Every survivor moved through the steal path, and the counters
    // attribute the drain to the dead victim.
    let sched = result.metrics.sched_stats();
    assert_eq!(sched.steals, traffic.len() as u64 - 1);
    assert_eq!(sched.drained_from_dead, traffic.len() as u64 - 1);
    assert_eq!(result.metrics.counters().workers_died, 1);

    // Zero EPC residue fleet-wide — dead shard included.
    for shard in &result.shards {
        assert_eq!(shard.provider().session_count(), 0);
        assert_eq!(shard.provider().host().machine().epc_used_pages(), 0);
    }

    // The drained schedule is still a pure function of the seeds:
    // replaying the death produces bit-identical verdict fingerprints.
    let (replay, _) = run_pinned_to_shard_zero(&traffic, 0xFA62, Some(plan));
    assert_eq!(
        result.fingerprint(),
        replay.fingerprint(),
        "steal-drained worker death must replay bit-identically"
    );
}

#[test]
fn retry_backoff_is_charged_to_the_session_cycle_budget() {
    // One compliant session, corrupted on its first attempt so it must
    // retry. The backoff base dwarfs the session budget: if backoff
    // cycles (base + jitter) were charged to the shard clock alone, the
    // retry would proceed and the session would complete; because they
    // land on the session's own budget, the service must evict it with
    // a typed `SessionBudgetExceeded` right after the backoff charge.
    let traffic = chaos_fleet(1, 3, 0xFA71);
    let plan = FaultPlan {
        seed: 21,
        mix: FaultMix::only(FaultKind::CorruptBlock, 1000),
    };
    let budget = 200_000_000u64;
    let budgeted = SessionRunConfig {
        retry_budget: 3,
        backoff_base_cycles: 1_000_000_000,
        session_cycle_budget: Some(budget),
        ..SessionRunConfig::default()
    };
    let (result, refused) = run_with_plan(&traffic, 0xFA72, Some(plan), budgeted);
    assert!(refused.is_empty());
    let report = &result.reports[0];
    assert_eq!(
        report.outcome,
        SessionOutcome::Evicted {
            reason: engarde::serve::EvictReason::SessionBudgetExceeded
        },
        "a backoff larger than the budget must evict, got {:?}",
        report.outcome
    );
    assert_eq!(report.retries, 1, "evicted on the first backoff");
    assert!(
        report.cycles > budget,
        "the backoff charge must be visible in the session's own cycle \
         account ({} cycles <= {budget} budget)",
        report.cycles
    );

    // Control: the identical fault and budget with backoff disabled
    // retries straight to a verdict — the eviction above is therefore
    // attributable to the backoff-and-jitter charge alone.
    let control = SessionRunConfig {
        retry_budget: 3,
        backoff_base_cycles: 0,
        session_cycle_budget: Some(budget),
        ..SessionRunConfig::default()
    };
    let (result, refused) = run_with_plan(&traffic, 0xFA72, Some(plan), control);
    assert!(refused.is_empty());
    assert!(
        result.reports[0].reached_verdict(),
        "without backoff the same fault fits the budget: {:?}",
        result.reports[0].outcome
    );
    assert!(result.reports[0].retries >= 1);
}
