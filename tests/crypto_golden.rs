//! Golden values for the bulk symmetric crypto: the AES-CTR memory
//! encryption engine, the SHA-256 measurement chain, the provisioning
//! channel and the sealed verdict store.
//!
//! `tests/determinism.rs` compares two runs of the same build, so a
//! kernel that is wrong but deterministic passes it. These digests were
//! recorded from the portable AES T-table and SHA-256 kernels before
//! the hardware (AES-NI / SHA-NI) kernels existed: a dispatched kernel
//! that moves a single ciphertext, tag or measurement bit fails here.

use engarde::crypto::channel::{ChannelClient, ChannelServer};
use engarde::crypto::rsa::RsaKeyPair;
use engarde::crypto::sha256::Sha256;
use engarde::rand::{SeedableRng, StdRng};
use engarde::sgx::epc::{Epc, EpcmEntry, PagePerms, PageType, PAGE_SIZE};
use engarde::sgx::instr::SgxVersion;
use engarde::sgx::machine::{MachineConfig, SgxMachine};
use engarde::store::{SealKey, StoreOptions, VerdictStore};
use engarde_core::cache::{CacheKey, CachedVerdict};
use engarde_core::policy::PolicyReport;
use std::path::PathBuf;

fn digest(bytes: &[u8]) -> String {
    Sha256::digest(bytes).to_hex()
}

/// `len` bytes of fixed, non-repeating filler.
fn filler(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_be_bytes()[0] ^ salt)
        .collect()
}

#[test]
fn mrenclave_of_a_fixed_build_is_pinned() {
    let mut machine = SgxMachine::new(MachineConfig {
        epc_pages: 64,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 0x60_1DE7,
    });
    let base = 0x40_0000;
    let id = machine
        .ecreate(base, 8 * PAGE_SIZE as u64)
        .expect("ecreate");
    // A full page, a short page (zero-extended), an empty page and a
    // second full page, at scattered offsets and mixed permissions.
    let pages: [(u64, Vec<u8>, PagePerms); 4] = [
        (0, filler(PAGE_SIZE, 0x11), PagePerms::RX),
        (2, filler(1_234, 0x22), PagePerms::RW),
        (5, Vec::new(), PagePerms::R),
        (7, filler(PAGE_SIZE, 0x33), PagePerms::RWX),
    ];
    for (page, data, perms) in &pages {
        let vaddr = base + page * PAGE_SIZE as u64;
        machine.eadd(id, vaddr, data, *perms).expect("eadd");
        machine.eextend(id, vaddr).expect("eextend");
    }
    let mrenclave = machine.einit(id).expect("einit");
    assert_eq!(
        mrenclave.to_hex(),
        "fd868c5a71d322559ad4f32a0ab2e315d076346c4a896a18f60e8b4b3dbc0ff8"
    );
}

#[test]
fn epc_page_ciphertext_is_pinned() {
    let mut epc = Epc::new(4, *Sha256::digest(b"golden MEE key").as_bytes());
    let entry = EpcmEntry {
        valid: true,
        page_type: PageType::Reg,
        enclave_id: 1,
        vaddr: 0x1000,
        perms: PagePerms::RW,
        perms_locked: false,
    };
    // Page 1, so the nonce's page index is not zero; then an unaligned
    // in-enclave write re-encrypts a head, a body and a tail.
    epc.alloc(entry, &filler(PAGE_SIZE, 0x44)).expect("alloc");
    let idx = epc.alloc(entry, &filler(3_000, 0x55)).expect("alloc");
    assert_eq!(idx, 1);
    epc.write_plaintext(idx, 1_001, &filler(777, 0x66))
        .expect("write");
    assert_eq!(
        digest(&epc.read_ciphertext(idx).expect("page")),
        "01b09f59b60479c8e1e854b19cd8da329e484f54397e74d1e6e7e27056d36bca"
    );
}

#[test]
fn sealed_channel_block_is_pinned() {
    let mut rng = StdRng::seed_from_u64(0xC4A7_601D);
    let server = ChannelServer::new(RsaKeyPair::generate(&mut rng, 512));
    let (_wrapped, mut client) =
        ChannelClient::establish(&mut rng, server.public_key()).expect("establish");
    // Skip one block so the pinned block's sequence, nonce and MAC
    // input are not the first ones.
    client.seal(b"first");
    let block = client.seal(&filler(1_000, 0x77));
    assert_eq!(block.sequence, 1);
    assert_eq!(
        digest(&block.ciphertext),
        "a67dc945e27345a7f8c504a413cb4ce4056fed960fcfe91d7111d090c3f8c6ba"
    );
    assert_eq!(
        digest(&block.tag),
        "f974f694711757226e8f6c89159128518ce944ec6f8723ad74be8f8d3ce7b8c6"
    );
}

/// A unique, self-cleaning scratch directory.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn sealed_store_record_is_pinned() {
    let dir =
        TempDir(std::env::temp_dir().join(format!("engarde-crypto-golden-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let key = CacheKey::derive(b"golden bootstrap", &Sha256::digest(b"golden content"));
    let verdict = CachedVerdict {
        compliant: true,
        detail: "compliant: golden".to_string(),
        policy_reports: vec![PolicyReport {
            policy: "stack-protection",
            items_checked: 3,
            detail: "guards=3".to_string(),
        }],
        disassembly_cycles: 1_000,
        policy_cycles: 500,
        instructions: 42,
        taint: None,
    };
    {
        let (mut store, _) =
            VerdictStore::open(&dir.0, &SealKey::new([0x5A; 32]), StoreOptions::default())
                .expect("open");
        store.append(&key, &verdict).expect("append");
    }
    // The one segment file: authenticated header, then the sealed record.
    let segment = std::fs::read(dir.0.join("seg-00000000.seg")).expect("segment");
    assert_eq!(
        digest(&segment),
        "0259db7d88f3213032609b8102dda5f2d642d4d32db4a91c589882bf88f95d90"
    );
}
