//! Pins what a shard's protocol driver produces, bit for bit: a
//! virtual-time fleet of mixed tenants (compliant, adversarial and
//! stalling clients) under a fault plan that covers every non-store
//! fault kind, run once with the chaos-hardened retry profile and once
//! with no retries at all. The fleet and verdict fingerprints, a digest
//! over every report's outcome and protocol fields (once with and once
//! without the attested enclave key), and the lifecycle and fault
//! counters are compared against recorded literals, so any change to
//! the order of provider calls or to where a fault lands shows up here.
//! A change to key generation alone moves only the fleet fingerprint
//! and the key-bearing digest.

use engarde_crypto::sha256::Sha256;
use engarde_serve::faults::{FaultKind, FaultMix, FaultPlan};
use engarde_serve::service::{ProvisioningService, SchedMode, ServiceConfig, ServiceResult};
use engarde_serve::{regimes, SessionRunConfig};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::MachineConfig;
use engarde_workloads::traffic::{mixed_traffic, TrafficSpec};
use std::sync::Arc;

const SEED: u64 = 0x1D_E17;

/// Every non-store fault kind: the transport faults at 70‰ each, worker
/// death rarer so the fleet survives to run the rest.
fn plan() -> FaultPlan {
    let mut mix = FaultMix::none();
    for kind in FaultKind::ALL {
        if !kind.is_store() {
            mix.per_mille[kind.index()] = if kind == FaultKind::WorkerDeath {
                40
            } else {
                70
            };
        }
    }
    FaultPlan { seed: SEED, mix }
}

fn run(run: SessionRunConfig) -> ServiceResult {
    let musl = Arc::new(regimes::musl_hashes());
    let traffic = mixed_traffic(&TrafficSpec {
        sessions: 36,
        scale_percent: 3,
        adversarial_every: 4,
        stall_every: 7,
        seed: SEED,
    });
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 3,
        mode: SchedMode::VirtualTime {
            arrival_gap: 1_200_000,
        },
        machine: MachineConfig {
            epc_pages: 4_096,
            version: SgxVersion::V2,
            device_key_bits: 512,
            seed: SEED,
        },
        queue_capacity: 64,
        run,
        verdict_cache: Some(32),
        faults: Some(plan()),
        store: None,
        batch: None,
        steal: true,
    });
    for item in &traffic {
        // A fully dead fleet refuses admission with a typed error; the
        // refusal shows in the counters.
        let _ = svc.submit(regimes::request_for(item, &musl));
    }
    svc.drain()
}

/// SHA-256 over each report's name, rendered outcome, retries, blocks
/// delivered, whether a key was attested, client verification and cache
/// hit, plus the attested key's fingerprint when `with_key` is set.
/// Without it the digest is protocol-only: a change to how enclave keys
/// are generated must leave it alone.
fn reports_digest(result: &ServiceResult, with_key: bool) -> String {
    let mut h = Sha256::new();
    for r in &result.reports {
        h.update(r.name.as_bytes());
        h.update(format!("{:?}", r.outcome).as_bytes());
        h.update(&r.retries.to_be_bytes());
        h.update(&(r.blocks_delivered as u64).to_be_bytes());
        match &r.enclave_key_fp {
            Some(fp) => {
                h.update(&[1]);
                if with_key {
                    h.update(fp);
                }
            }
            None => h.update(&[0]),
        }
        h.update(&[u8::from(r.client_verified), u8::from(r.cache_hit)]);
    }
    h.finalize().to_hex()
}

/// What one recorded run produced.
struct Recorded {
    fingerprint: &'static str,
    verdict_fingerprint: &'static str,
    reports: &'static str,
    protocol: &'static str,
    counters: &'static str,
    faults: [[u64; 5]; NON_STORE_KINDS],
}

const NON_STORE_KINDS: usize = 10;

fn check(result: &ServiceResult, want: Recorded) {
    assert_eq!(result.fingerprint(), want.fingerprint);
    assert_eq!(result.verdict_fingerprint(), want.verdict_fingerprint);
    assert_eq!(reports_digest(result, true), want.reports);
    assert_eq!(reports_digest(result, false), want.protocol);
    assert_eq!(format!("{:?}", result.metrics.counters()), want.counters);
    let stats = result.metrics.fault_stats();
    for kind in FaultKind::ALL {
        let s = stats.kind(kind);
        let got = [s.injected, s.detected, s.retried, s.recovered, s.evicted];
        if kind.is_store() {
            assert_eq!(got, [0; 5], "{kind:?}");
        } else {
            assert_eq!(got, want.faults[kind.index()], "{kind:?}");
        }
    }
}

#[test]
fn chaos_hardened_fleet_replays_the_recorded_run() {
    check(
        &run(SessionRunConfig::chaos_hardened()),
        Recorded {
            fingerprint: "fae5743e7c8d5ed5d4df5c9d30d2e699439f49412347bd2b0635ace56d2af1bf",
            verdict_fingerprint: "c1fde62046e98744ee0071c584ae031b8028076b5cdd3a90df9eda56df3cf289",
            reports: "a50c8fcd99c22b3443c6574c75571340dd7184aa24d3221da0b03d75176ec196",
            protocol: "fd4a377bda1d673a9320c75c05efe58ea118e506bafa6c8cbc3a509b9d3fc94f",
            counters: "CounterSnapshot { admitted: 36, rejected_busy: 0, evicted: 6, completed: 28, compliant: 20, noncompliant: 8, failed: 2, retries: 21, shed: 0, workers_died: 2, queue_depth_highwater: 30 }",
            // (injected, detected, retried, recovered, evicted) per
            // non-store kind, in `FaultKind::ALL` order.
            faults: [
            [2, 2, 2, 2, 0],
            [4, 4, 4, 4, 0],
            [1, 1, 1, 1, 0],
            [6, 6, 5, 5, 1],
            [2, 2, 1, 1, 1],
            [2, 2, 2, 2, 0],
            [3, 3, 3, 2, 1],
            [1, 1, 0, 0, 1],
            [3, 3, 3, 3, 0],
            [2, 2, 0, 0, 2],
            ],
        },
    );
}

#[test]
fn no_retry_fleet_replays_the_recorded_run() {
    check(
        &run(SessionRunConfig {
            retry_budget: 0,
            ..SessionRunConfig::chaos_hardened()
        }),
        Recorded {
            fingerprint: "3715880f704d5419bf6d622542edae6055a454241d926cf5440bef2d4d041586",
            verdict_fingerprint: "0b361c226d9760ed96dfc0c6677c03f4fc6d439c9e8d750592d06eb104b8dc4a",
            reports: "67f6e161455c551f72fe97d71d672518fb314db94aadf44d29c2074f16d511c6",
            protocol: "09d6966a93da2a3418b526ffd7f16f90f9c4739381bf419a6b9a9f1e24544747",
            counters: "CounterSnapshot { admitted: 36, rejected_busy: 0, evicted: 2, completed: 3, compliant: 1, noncompliant: 2, failed: 8, retries: 0, shed: 23, workers_died: 0, queue_depth_highwater: 27 }",
            // (injected, detected, retried, recovered, evicted) per
            // non-store kind, in `FaultKind::ALL` order.
            faults: [
            [2, 0, 0, 0, 2],
            [4, 3, 0, 0, 4],
            [1, 0, 0, 0, 1],
            [6, 1, 0, 0, 6],
            [2, 1, 0, 0, 2],
            [2, 2, 0, 0, 2],
            [3, 1, 0, 0, 3],
            [1, 1, 0, 0, 1],
            [3, 1, 0, 0, 3],
            [2, 0, 0, 0, 2],
            ],
        },
    );
}
