//! Cross-enclave isolation properties of the simulated machine.

use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::{EnclaveId, MachineConfig, SgxMachine};
use engarde_sgx::SgxError;

fn machine() -> SgxMachine {
    SgxMachine::new(MachineConfig {
        epc_pages: 64,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 0x150,
    })
}

fn enclave_with_secret(m: &mut SgxMachine, base: u64, secret: &[u8]) -> EnclaveId {
    let id = m.ecreate(base, 2 * PAGE_SIZE as u64).expect("ecreate");
    m.eadd(id, base, secret, PagePerms::RWX).expect("eadd");
    m.eextend(id, base).expect("eextend");
    m.einit(id).expect("einit");
    id
}

#[test]
fn enclaves_cannot_address_each_other() {
    let mut m = machine();
    let a = enclave_with_secret(&mut m, 0x100000, b"alpha secret");
    let b = enclave_with_secret(&mut m, 0x200000, b"bravo secret");
    // Each enclave reads its own memory fine.
    assert_eq!(
        m.enclave_read(a, 0x100000, 12).expect("own read"),
        b"alpha secret"
    );
    // Reading the *other* enclave's addresses through one's own mapping
    // fails: the linear ranges are disjoint per enclave.
    assert!(matches!(
        m.enclave_read(a, 0x200000, 12),
        Err(SgxError::BadAddress { .. })
    ));
    assert!(matches!(
        m.enclave_read(b, 0x100000, 12),
        Err(SgxError::BadAddress { .. })
    ));
}

#[test]
fn same_content_different_enclaves_different_ciphertext() {
    let mut m = machine();
    let secret = vec![0xabu8; PAGE_SIZE];
    let a = enclave_with_secret(&mut m, 0x100000, &secret);
    let b = enclave_with_secret(&mut m, 0x200000, &secret);
    let ca = m.adversary_read_page(a, 0x100000).expect("bus view a");
    let cb = m.adversary_read_page(b, 0x200000).expect("bus view b");
    assert_ne!(ca, cb, "per-page tweaks must differ across enclaves");
    assert_ne!(&ca[..], &secret[..]);
}

#[test]
fn measurements_differ_by_content_and_layout() {
    let mut m = machine();
    let a = enclave_with_secret(&mut m, 0x100000, b"same");
    let b = enclave_with_secret(&mut m, 0x200000, b"same"); // different base
    let c = enclave_with_secret(&mut m, 0x300000, b"diff");
    let ma = m.enclave(a).expect("a").measurement().expect("ma");
    let mb = m.enclave(b).expect("b").measurement().expect("mb");
    let mc = m.enclave(c).expect("c").measurement().expect("mc");
    assert_ne!(ma, mb, "base address is measured (ECREATE record)");
    assert_ne!(ma, mc, "content is measured (EEXTEND records)");
}

#[test]
fn seal_keys_are_enclave_specific_but_stable() {
    let mut m = machine();
    let a = enclave_with_secret(&mut m, 0x100000, b"alpha");
    let b = enclave_with_secret(&mut m, 0x200000, b"bravo");
    let ka1 = m.egetkey(a, b"storage").expect("key");
    let ka2 = m.egetkey(a, b"storage").expect("key");
    let kb = m.egetkey(b, b"storage").expect("key");
    assert_eq!(ka1, ka2);
    assert_ne!(ka1, kb);
}

#[test]
fn local_attestation_between_enclaves_is_target_bound() {
    use engarde_sgx::machine::ReportTarget;
    let mut m = machine();
    let a = enclave_with_secret(&mut m, 0x100000, b"alpha");
    let b = enclave_with_secret(&mut m, 0x200000, b"bravo");
    let c = enclave_with_secret(&mut m, 0x300000, b"charlie");
    let mb = m.enclave(b).expect("b").measurement().expect("measured");
    let mc = m.enclave(c).expect("c").measurement().expect("measured");

    // A attests itself *to B* specifically.
    let report = m
        .ereport_to(a, ReportTarget::Enclave(mb), [3u8; 64])
        .expect("report");
    // B (knowing its own measurement) verifies it…
    assert!(m.verify_report_as(&report, &ReportTarget::Enclave(mb)));
    // …but C cannot, and neither can the quoting enclave.
    assert!(!m.verify_report_as(&report, &ReportTarget::Enclave(mc)));
    assert!(!m.verify_report(&report));
    // Retargeting the report without re-MACing is detected.
    let mut forged = report.clone();
    forged.target = ReportTarget::Enclave(mc);
    assert!(!m.verify_report_as(&forged, &ReportTarget::Enclave(mc)));
}

#[test]
fn reports_are_not_transferable_across_machines() {
    let mut m1 = machine();
    let a = enclave_with_secret(&mut m1, 0x100000, b"alpha");
    let report = m1.ereport(a, [7u8; 64]).expect("report");
    assert!(m1.verify_report(&report));
    // A second machine (different report key) rejects it.
    let m2 = SgxMachine::new(MachineConfig {
        epc_pages: 64,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 0x151,
    });
    assert!(!m2.verify_report(&report));
}

#[test]
fn removing_one_enclaves_pages_does_not_disturb_another() {
    let mut m = machine();
    let a = enclave_with_secret(&mut m, 0x100000, b"alpha");
    let b = enclave_with_secret(&mut m, 0x200000, b"bravo");
    m.eremove(a, 0x100000).expect("remove a's page");
    assert_eq!(
        m.enclave_read(b, 0x200000, 5).expect("b unaffected"),
        b"bravo"
    );
}
