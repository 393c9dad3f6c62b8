//! The EnGarde enclave as the provider builds it: its MRENCLAVE and the
//! bus view of its pages, pinned for a layout the size of the paper's
//! fleets (a bootstrap page plus a 160-page client region).

use engarde::crypto::sha256::Sha256;
use engarde::loader::LoaderConfig;
use engarde::policy::{IfccPolicy, PolicyModule, StackProtectionPolicy};
use engarde::provider::CloudProvider;
use engarde::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
use engarde::sgx::epc::PAGE_SIZE;
use engarde::sgx::instr::SgxVersion;
use engarde::sgx::machine::{EnclaveId, MachineConfig};

const REGION_PAGES: usize = 160;

fn policies() -> Vec<Box<dyn PolicyModule>> {
    vec![
        Box::new(StackProtectionPolicy::new()),
        Box::new(IfccPolicy::new()),
    ]
}

fn spec() -> BootstrapSpec {
    BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &policies(),
        REGION_PAGES,
        512,
    )
}

fn built() -> (CloudProvider, EnclaveId) {
    let mut provider = CloudProvider::new(MachineConfig {
        epc_pages: 2_048,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 38,
    });
    let id = provider
        .create_engarde_enclave(spec(), policies())
        .expect("enclave builds");
    (provider, id)
}

#[test]
fn mrenclave_of_a_160_page_region_is_pinned() {
    let spec = spec();
    assert_eq!(spec.bootstrap_pages(), 1);
    let expected = spec.expected_measurement(DEFAULT_ENCLAVE_BASE);
    let (provider, id) = built();
    assert_eq!(provider.measurement(id), Some(expected));
    assert_eq!(
        expected.to_hex(),
        "170a8047adbd561f6463b8247abe5fecb00b9daa95c2c1ee6ee9320d28b47a61",
        "the client's expected MRENCLAVE moved"
    );
}

#[test]
fn untouched_region_page_ciphertext_is_pinned() {
    let (provider, id) = built();
    let region = spec().client_region_base(DEFAULT_ENCLAVE_BASE);
    let machine = provider.host().machine();
    let digest = |vaddr: u64| {
        let bus = machine.adversary_read_page(id, vaddr).expect("mapped");
        assert_eq!(bus.len(), PAGE_SIZE);
        assert!(bus.iter().any(|&b| b != 0), "a zero page is encrypted");
        Sha256::digest(&bus).to_hex()
    };
    let first = digest(region);
    let last = digest(region + ((REGION_PAGES - 1) * PAGE_SIZE) as u64);
    assert_ne!(first, last, "each EPC page has its own keystream");
    assert_eq!(
        first,
        "6c1194e0a7991381b2b979a9ac6cc9524939224c9eca813e1bafad2f2618b691"
    );
    assert_eq!(
        last,
        "3b4e2aeb58b4179669c923caa2adacc430481e0e1223a8146c555293f14ce168"
    );
}

#[test]
fn fresh_enclave_backs_only_its_nonzero_pages() {
    let (mut provider, id) = built();
    let machine = provider.host().machine();
    // The SECS, the bootstrap page and the client region are in use, but
    // only the bootstrap page holds anything but zeros.
    assert_eq!(machine.epc_used_pages(), 1 + 1 + REGION_PAGES);
    assert_eq!(machine.epc_backed_pages(), 1);
    let region = spec().client_region_base(DEFAULT_ENCLAVE_BASE);
    assert_eq!(
        machine.enclave_read(id, region, PAGE_SIZE).expect("region"),
        vec![0u8; PAGE_SIZE]
    );
    assert_eq!(
        provider.close_session(id).expect("teardown"),
        2 + REGION_PAGES
    );
    assert_eq!(provider.host().machine().epc_used_pages(), 0);
    assert_eq!(provider.host().machine().epc_backed_pages(), 0);
}
