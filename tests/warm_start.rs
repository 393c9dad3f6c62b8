//! Warm-start integration: a fleet with a persistent verdict store,
//! restarted over the same directory, hydrates its cache from sealed
//! records and reproduces the cold run's signed verdicts bit-for-bit —
//! while re-admitting every known binary for cache-probe cost only
//! (disassembly and policy checking are skipped). A foreign inspector
//! identity hydrates nothing and silently falls back to cold-path
//! inspection.

use engarde::loader::LoaderConfig;
use engarde::provision::BootstrapSpec;
use engarde::serve::persist::StoreConfig;
use engarde::serve::service::{ProvisioningService, SchedMode, ServiceConfig, ServiceResult};
use engarde::serve::{regimes, SessionRunConfig};
use engarde::sgx::instr::SgxVersion;
use engarde::sgx::machine::MachineConfig;
use engarde::sgx::perf::costs;
use engarde::workloads::traffic::{distinct_binary_traffic, TrafficItem};
use std::path::{Path, PathBuf};
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

/// A unique, self-cleaning scratch directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "engarde-warm-start-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store_cfg(dir: &Path, machine_seed: u64) -> StoreConfig {
    let spec = BootstrapSpec::new("EnGarde-1.0", LoaderConfig::default(), &[], 64, 512);
    StoreConfig::sealed_at(dir, &machine(machine_seed), &spec)
}

/// One fleet generation: submit `traffic`, drain, return the result.
fn run_fleet(traffic: &[TrafficItem], seed: u64, store: StoreConfig) -> ServiceResult {
    let musl = Arc::new(regimes::musl_hashes());
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 2,
        mode: SchedMode::VirtualTime {
            arrival_gap: 1_500_000,
        },
        machine: machine(seed),
        queue_capacity: 64,
        run: SessionRunConfig::default(),
        verdict_cache: None,
        faults: None,
        store: Some(store),
        batch: None,
        steal: true,
    });
    for item in traffic {
        svc.submit(regimes::request_for(item, &musl))
            .expect("admit");
    }
    svc.drain()
}

#[test]
fn warm_restart_reproduces_verdicts_for_probe_cost_only() {
    let traffic = distinct_binary_traffic(6, 3, 0x3A21);
    let tmp = TempDir::new("probe");
    let cfg = store_cfg(tmp.path(), 0x3A22);

    // Generation 1: cold. Every binary is novel, so every session pays
    // the full disassembly + policy pipeline, and every verdict is
    // flushed to the sealed store during drain.
    let cold = run_fleet(&traffic, 0x3A22, cfg.clone());
    assert!(cold.reports.iter().all(|r| r.reached_verdict()));
    assert!(cold.reports.iter().all(|r| !r.cache_hit));
    assert_eq!(cold.metrics.cache_stats().warm_hits, 0);
    let cold_store = cold.metrics.store_stats();
    assert!(cold_store.enabled);
    assert_eq!(cold_store.hydrated, 0, "an empty store hydrates nothing");
    assert_eq!(
        cold_store.flushed,
        traffic.len() as u64,
        "every distinct verdict must be flushed"
    );

    // Generation 2: warm restart over the same directory and identity.
    let warm = run_fleet(&traffic, 0x3A22, cfg);
    assert_eq!(
        warm.verdict_fingerprint(),
        cold.verdict_fingerprint(),
        "a warm restart must reproduce the cold run's verdicts bit-for-bit"
    );
    let warm_store = warm.metrics.store_stats();
    assert_eq!(
        warm_store.hydrated,
        traffic.len() as u64,
        "every sealed verdict must hydrate"
    );
    assert_eq!(
        warm.metrics.cache_stats().warm_hits,
        traffic.len() as u64,
        "every session must hit a hydrated entry"
    );
    for report in &warm.reports {
        assert!(report.cache_hit, "{}: expected a warm hit", report.name);
        assert_eq!(
            report.stages.disassembly,
            costs::CACHE_PROBE,
            "{}: a warm hit pays the probe, nothing more",
            report.name
        );
        assert_eq!(
            report.stages.policy_checking, 0,
            "{}: policy checking must be skipped on a warm hit",
            report.name
        );
    }
    // Skipped analysis is visible in aggregate: each warm session is
    // strictly cheaper than its cold twin.
    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(c.name, w.name);
        assert!(
            w.stages.total() < c.stages.total(),
            "{}: warm inspection must cost less than cold",
            c.name
        );
    }
}

#[test]
fn warm_restart_is_deterministic_end_to_end() {
    let traffic = distinct_binary_traffic(4, 3, 0x3A31);
    let tmp = TempDir::new("determinism");
    let cfg = store_cfg(tmp.path(), 0x3A32);

    let _seed_run = run_fleet(&traffic, 0x3A32, cfg.clone());
    let a = run_fleet(&traffic, 0x3A32, cfg.clone());

    // A second independent lineage: same traffic, fresh directory.
    let tmp2 = TempDir::new("determinism-b");
    let cfg2 = store_cfg(tmp2.path(), 0x3A32);
    let _seed_run2 = run_fleet(&traffic, 0x3A32, cfg2.clone());
    let b = run_fleet(&traffic, 0x3A32, cfg2);

    // Warm restarts are a deterministic function of (traffic, machine,
    // store lineage): two identical lineages agree on everything the
    // virtual clock can see.
    assert_eq!(a.makespan_cycles, b.makespan_cycles);
    assert_eq!(a.verdict_fingerprint(), b.verdict_fingerprint());
    assert_eq!(a.metrics.counters(), b.metrics.counters());
    assert_eq!(a.metrics.cache_stats(), b.metrics.cache_stats());

    // And the restart run replays strictly faster than its cold seed,
    // hydration cost included in the makespan.
    assert!(
        a.makespan_cycles < _seed_run.makespan_cycles,
        "warm makespan {} must beat cold {}",
        a.makespan_cycles,
        _seed_run.makespan_cycles
    );
}

#[test]
fn foreign_identity_hydrates_nothing_and_falls_back_cold() {
    let traffic = distinct_binary_traffic(3, 3, 0x3A41);
    let tmp = TempDir::new("foreign");
    let genuine = store_cfg(tmp.path(), 0x3A42);

    let cold = run_fleet(&traffic, 0x3A42, genuine);
    assert!(cold.metrics.store_stats().flushed > 0);

    // Same directory, but the restarted fleet derives its seal key on a
    // different machine: every segment fails authentication, the store
    // opens empty, and the fleet silently does full cold-path work.
    let foreign = store_cfg(tmp.path(), 0x3A42 ^ 0xF00D);
    let restarted = run_fleet(&traffic, 0x3A42, foreign);
    let snap = restarted.metrics.store_stats();
    assert_eq!(snap.hydrated, 0, "foreign identity must hydrate nothing");
    assert_eq!(restarted.metrics.cache_stats().warm_hits, 0);
    assert!(restarted.reports.iter().all(|r| !r.cache_hit));
    assert!(restarted.reports.iter().all(|r| r.reached_verdict()));
    assert_eq!(
        restarted.verdict_fingerprint(),
        cold.verdict_fingerprint(),
        "cold-path inspection is deterministic regardless of the store"
    );
}
