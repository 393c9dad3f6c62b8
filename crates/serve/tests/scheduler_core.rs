//! The two scheduler backends against each other: the same traffic
//! through a virtual-time fleet and a threaded fleet must sign the same
//! verdicts and persist the same keys, and admission control must
//! refuse the same way in both.

use engarde_core::loader::LoaderConfig;
use engarde_core::provision::BootstrapSpec;
use engarde_serve::persist::StoreConfig;
use engarde_serve::service::{ProvisioningService, SchedMode, ServiceConfig, ServiceResult};
use engarde_serve::{regimes, BatchPolicy, ServeError, SessionRequest};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::MachineConfig;
use engarde_workloads::traffic::{distinct_binary_traffic, repeated_binary_traffic};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const VIRTUAL: SchedMode = SchedMode::VirtualTime {
    arrival_gap: 1_000_000,
};

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
            "engarde-scheduler-core-{tag}-{}-{n}",
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

fn store_cfg(dir: &Path, seed: u64) -> StoreConfig {
    let spec = BootstrapSpec::new("EnGarde-1.0", LoaderConfig::default(), &[], 64, 512);
    StoreConfig::sealed_at(dir, &machine(seed), &spec)
}

/// A same-binary burst followed by distinct binaries: batch joins and
/// cache hits on the burst, one fresh inspection per distinct binary.
fn burst_and_distinct(seed: u64) -> Vec<SessionRequest> {
    let musl = Arc::new(regimes::musl_hashes());
    repeated_binary_traffic(5, 3, seed)
        .iter()
        .chain(&distinct_binary_traffic(4, 3, seed))
        .map(|item| regimes::request_for(item, &musl))
        .collect()
}

fn fleet(mode: SchedMode, seed: u64, store: StoreConfig) -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        mode,
        machine: machine(seed),
        queue_capacity: 64,
        verdict_cache: Some(32),
        store: Some(store),
        batch: Some(BatchPolicy::default()),
        ..ServiceConfig::default()
    }
}

fn run(cfg: ServiceConfig, reqs: &[SessionRequest]) -> ServiceResult {
    let mut svc = ProvisioningService::start(cfg);
    for req in reqs {
        svc.submit(req.clone()).expect("admit");
    }
    svc.drain()
}

/// Per session name: outcome class, and the signed verdict's polarity
/// and detail.
fn signed(result: &ServiceResult) -> BTreeMap<String, (u8, Option<(bool, String)>)> {
    result
        .reports
        .iter()
        .map(|r| {
            let verdict = r.verdict.as_ref().map(|v| (v.compliant, v.detail.clone()));
            (r.name.clone(), (r.outcome.class_byte(), verdict))
        })
        .collect()
}

#[test]
fn virtual_and_threaded_backends_sign_and_persist_the_same_verdicts() {
    let seed = 0xB4C2;
    let reqs = burst_and_distinct(seed);
    let (vdir, tdir) = (TempDir::new("virtual"), TempDir::new("threaded"));
    let virt = run(fleet(VIRTUAL, seed, store_cfg(vdir.path(), seed)), &reqs);
    let thr = run(
        fleet(SchedMode::Threaded, seed, store_cfg(tdir.path(), seed)),
        &reqs,
    );
    assert_eq!(virt.reports.len(), reqs.len());
    assert!(virt.reports.iter().all(|r| r.reached_verdict()));
    assert_eq!(signed(&virt), signed(&thr));

    // A virtual restart over each store finds the same sealed keys: the
    // same record count hydrates, and the same sessions replay a
    // hydrated verdict.
    let restart = |dir: &TempDir| run(fleet(VIRTUAL, seed, store_cfg(dir.path(), seed)), &reqs);
    let (from_virt, from_thr) = (restart(&vdir), restart(&tdir));
    let distinct_keys = reqs
        .iter()
        .map(|r| *r.admission_key().as_bytes())
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    assert_eq!(from_virt.metrics.store_stats().hydrated, distinct_keys);
    assert_eq!(from_thr.metrics.store_stats().hydrated, distinct_keys);
    let warm = |r: &ServiceResult| -> BTreeMap<String, bool> {
        r.reports
            .iter()
            .map(|s| (s.name.clone(), s.cache_hit))
            .collect()
    };
    assert_eq!(warm(&from_virt), warm(&from_thr));
    assert!(from_thr.reports.iter().all(|r| r.cache_hit));
    assert_eq!(
        from_virt.metrics.cache_stats().warm_hits,
        from_thr.metrics.cache_stats().warm_hits
    );
    assert_eq!(signed(&from_virt), signed(&virt));
    assert_eq!(signed(&from_thr), signed(&virt));
}

#[test]
fn threaded_admission_with_no_queue_room_refuses_every_session_busy() {
    let seed = 0xB5B5;
    let reqs = burst_and_distinct(seed);
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 2,
        mode: SchedMode::Threaded,
        machine: machine(seed),
        queue_capacity: 0,
        ..ServiceConfig::default()
    });
    for req in &reqs {
        assert!(matches!(
            svc.submit(req.clone()),
            Err(ServeError::Busy { queue_depth: 0 })
        ));
    }
    let result = svc.drain();
    assert_eq!(result.metrics.counters().rejected_busy, reqs.len() as u64);
    assert_eq!(result.metrics.counters().admitted, 0);
    assert!(result.reports.is_empty());
}

#[test]
fn threaded_workers_flush_write_behind_while_the_service_runs() {
    let seed = 0xF1B2;
    let musl = Arc::new(regimes::musl_hashes());
    let tmp = TempDir::new("write-behind");
    let store = StoreConfig {
        flush_batch: 2,
        ..store_cfg(tmp.path(), seed)
    };
    let (flush_batch, shards) = (store.flush_batch as u64, 2);
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards,
        mode: SchedMode::Threaded,
        machine: machine(seed),
        queue_capacity: 64,
        store: Some(store),
        ..ServiceConfig::default()
    });
    for item in &distinct_binary_traffic(8, 3, seed) {
        svc.submit(regimes::request_for(item, &musl))
            .expect("admit");
    }
    let result = svc.drain();
    assert!(result.reports.iter().all(|r| r.reached_verdict()));
    // Each worker observes the dirty queue after every session and
    // flushes at `flush_batch`; between two observations a peer can add
    // at most one verdict of its own.
    let store = result.metrics.store_stats();
    assert!(
        (1..=flush_batch + shards as u64 - 1).contains(&store.flush_queue_highwater),
        "{store:?}"
    );
    assert_eq!(store.flushed, 8, "every verdict reaches the store");
}

#[test]
fn a_failed_write_behind_flush_stops_the_dirty_log() {
    let seed = 0xDE6A;
    let musl = Arc::new(regimes::musl_hashes());
    let tmp = TempDir::new("degrade");
    // One record per segment: the second append rotates into a new
    // segment file, which cannot be created once the directory is gone.
    let store = StoreConfig {
        flush_batch: 1,
        segment_max_records: 1,
        ..store_cfg(tmp.path(), seed)
    };
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 1,
        machine: machine(seed),
        queue_capacity: 64,
        store: Some(store),
        ..ServiceConfig::default()
    });
    std::fs::remove_dir_all(tmp.path()).expect("remove the store directory");
    for item in &distinct_binary_traffic(6, 3, seed) {
        svc.submit(regimes::request_for(item, &musl))
            .expect("admit");
    }
    let result = svc.drain();
    assert!(result.reports.iter().all(|r| r.reached_verdict()));
    let degraded = result
        .metrics
        .events()
        .iter()
        .filter(|e| e.kind == engarde_serve::metrics::EventKind::StoreDegraded)
        .count();
    assert_eq!(degraded, 1, "the store detaches at its first failed flush");
    let cache = result.shards[0].provider().verdict_cache().expect("cache");
    assert_eq!(
        engarde_core::cache::lock_cache(cache).dirty_len(),
        0,
        "a detached store leaves no dirty log behind"
    );
}
