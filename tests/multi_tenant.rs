//! Multi-tenant provisioning through the `engarde-serve` service layer:
//! a mixed fleet of compliant and hostile tenants runs end-to-end, with
//! adversarial sessions rejected by signed verdict and zero cross-tenant
//! leakage (per-session measurements, channel keys, and verdicts all
//! stay distinct and bound to their own tenant).

use engarde::client::Client;
use engarde::crypto::CryptoError;
use engarde::provider::CloudProvider;
use engarde::provision::DEFAULT_ENCLAVE_BASE;
use engarde::serve::service::{ProvisioningService, SchedMode, ServiceConfig};
use engarde::serve::{regimes, SessionOutcome, SessionRunConfig};
use engarde::sgx::instr::SgxVersion;
use engarde::sgx::machine::MachineConfig;
use engarde::workloads::traffic::{mixed_traffic, ExpectedOutcome, TrafficSpec};
use engarde::EngardeError;
use std::collections::HashSet;
use std::sync::Arc;

fn machine(seed: u64) -> MachineConfig {
    MachineConfig {
        epc_pages: 4_096,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    }
}

#[test]
fn mixed_tenant_fleet_isolates_sessions_and_rejects_adversaries() {
    let musl = Arc::new(regimes::musl_hashes());
    let traffic = mixed_traffic(&TrafficSpec {
        sessions: 8,
        scale_percent: 3,
        adversarial_every: 3,
        stall_every: 0,
        seed: 0x3E2A,
    });
    assert!(traffic
        .iter()
        .any(|t| t.expected == ExpectedOutcome::Rejected));

    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 2,
        mode: SchedMode::VirtualTime {
            arrival_gap: 1_500_000,
        },
        machine: machine(0x3E2A),
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
    let result = svc.drain();
    assert_eq!(result.reports.len(), traffic.len());

    // Every session ends exactly as the traffic mix predicts, and every
    // verdict carries a signature the tenant's own client accepted.
    for (item, report) in traffic.iter().zip(&result.reports) {
        assert_eq!(report.name, item.name);
        match item.expected {
            ExpectedOutcome::Compliant => {
                assert_eq!(
                    report.outcome,
                    SessionOutcome::Compliant,
                    "{} must pass inspection",
                    item.name
                );
            }
            ExpectedOutcome::Rejected => {
                assert_eq!(
                    report.outcome,
                    SessionOutcome::NonCompliant,
                    "{} must be rejected by signed verdict",
                    item.name
                );
            }
            ExpectedOutcome::Evicted => unreachable!("no stalls in this mix"),
        }
        let verdict = report.verdict.as_ref().expect("verdict present");
        assert_eq!(
            verdict.compliant,
            report.outcome == SessionOutcome::Compliant
        );
        assert!(
            report.client_verified,
            "{}: tenant must accept its verdict signature",
            item.name
        );
        // The attested measurement is the one this tenant's agreed spec
        // predicts — not some other tenant's enclave.
        let expected = regimes::spec_for(item.image.len(), item.regime, &musl)
            .expected_measurement(DEFAULT_ENCLAVE_BASE);
        assert_eq!(
            report.measurement,
            Some(expected),
            "{}: measurement bound to own spec",
            item.name
        );
    }

    // No cross-tenant leakage: channel identities (enclave key
    // fingerprints), verdict signatures, and verdict content digests are
    // pairwise distinct.
    let fps: HashSet<_> = result
        .reports
        .iter()
        .map(|r| r.enclave_key_fp.expect("attested key"))
        .collect();
    assert_eq!(
        fps.len(),
        traffic.len(),
        "every tenant gets a fresh channel key"
    );
    let sigs: HashSet<_> = result
        .reports
        .iter()
        .map(|r| r.verdict.as_ref().expect("verdict").signature.clone())
        .collect();
    assert_eq!(sigs.len(), traffic.len(), "verdict signatures never repeat");
    let digests: HashSet<_> = result
        .reports
        .iter()
        .map(|r| {
            *r.verdict
                .as_ref()
                .expect("verdict")
                .content_digest
                .as_bytes()
        })
        .collect();
    assert_eq!(
        digests.len(),
        traffic.len(),
        "verdicts bind distinct content"
    );

    // Service-level accounting matches the mix.
    let m = result.metrics.counters();
    let expected_rejections = traffic
        .iter()
        .filter(|t| t.expected == ExpectedOutcome::Rejected)
        .count() as u64;
    assert_eq!(m.completed, traffic.len() as u64);
    assert_eq!(m.noncompliant, expected_rejections);
    assert_eq!(m.compliant, traffic.len() as u64 - expected_rejections);
    assert_eq!(m.evicted, 0);

    // After drain with recycling on, no shard retains sessions or EPC
    // pages: tenants cannot observe each other through residue.
    for shard in &result.shards {
        assert_eq!(shard.provider().session_count(), 0);
        assert_eq!(shard.provider().host().machine().epc_used_pages(), 0);
    }
}

#[test]
fn threaded_tenants_complete_with_isolated_channels() {
    let musl = Arc::new(regimes::musl_hashes());
    let traffic = mixed_traffic(&TrafficSpec {
        sessions: 4,
        scale_percent: 3,
        adversarial_every: 4,
        stall_every: 0,
        seed: 0x7D11,
    });
    let mut svc = ProvisioningService::start(ServiceConfig {
        shards: 2,
        mode: SchedMode::Threaded,
        machine: machine(0x7D11),
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
    assert_eq!(result.reports.len(), 4);
    assert!(result.reports.iter().all(|r| r.reached_verdict()));
    assert!(result.reports.iter().all(|r| r.client_verified));
    let fps: HashSet<_> = result
        .reports
        .iter()
        .map(|r| r.enclave_key_fp.expect("attested"))
        .collect();
    assert_eq!(fps.len(), 4, "distinct channel keys across worker threads");
    // The mix's one adversarial session is rejected even under real
    // thread interleaving.
    assert!(result
        .reports
        .iter()
        .any(|r| r.outcome == SessionOutcome::NonCompliant));
}

#[test]
fn cross_tenant_block_delivery_fails_authentication() {
    // Provider-level isolation: a block sealed for tenant A's enclave is
    // cryptographically useless against tenant B's.
    let musl = Arc::new(regimes::musl_hashes());
    let traffic = mixed_traffic(&TrafficSpec {
        sessions: 2,
        scale_percent: 3,
        adversarial_every: 0,
        stall_every: 0,
        seed: 0x7E2B,
    });
    let mut provider = CloudProvider::new(machine(0x7E2B));
    let req_a = regimes::request_for(&traffic[0], &musl);
    let req_b = regimes::request_for(&traffic[1], &musl);
    // Each tenant's client attests its own enclave and opens its own
    // channel, exactly as a shard drives them.
    let mut tenants = [&req_a, &req_b].map(|req| {
        let id = provider
            .create_engarde_enclave(req.spec.clone(), (req.policies)())
            .expect("create");
        let mut client = Client::new(
            req.binary.clone(),
            &req.spec,
            DEFAULT_ENCLAVE_BASE,
            provider.device_public_key(),
            req.client_seed,
        );
        let nonce = client.challenge();
        let quote = provider.attest(id, nonce).expect("attest");
        let key = provider.enclave_public_key(id).expect("key");
        client.verify_quote(&quote, &key).expect("quote");
        let wrapped = client.establish_channel(&key).expect("channel");
        provider.open_channel(id, &wrapped).expect("open");
        (id, client)
    });
    let blocks_a = tenants[0].1.content_blocks().expect("blocks A");
    // A's first block delivered into B's enclave: wrong session keys.
    let err = provider.deliver(tenants[1].0, &blocks_a[0]).unwrap_err();
    assert!(matches!(
        err,
        EngardeError::Crypto(CryptoError::AuthenticationFailed)
    ));
}
