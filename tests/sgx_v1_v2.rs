//! The SGX1-vs-SGX2 distinction the paper hinges on (§3–4).
//!
//! "While the current version of SGX hardware allows for page
//! permissions to be set/cleared by the host OS, it does not yet offer
//! support for page permissions at the hardware level … Although EnGarde
//! can be implemented readily even on SGX version 1 processors, the
//! permission check can only be enforced in software within the host OS,
//! and this has been shown to be open to attack. Thus, EnGarde requires
//! the features of SGX version 2 for security."

use engarde::sgx::epc::{PagePerms, PAGE_SIZE};
use engarde::sgx::host::HostOs;
use engarde::sgx::instr::{SgxInstr, SgxVersion};
use engarde::sgx::machine::{EnclaveId, MachineConfig, SgxMachine};
use engarde::sgx::SgxError;

fn host(version: SgxVersion) -> HostOs {
    HostOs::new(SgxMachine::new(MachineConfig {
        epc_pages: 128,
        version,
        device_key_bits: 512,
        seed: 0x51,
    }))
}

fn provisioned_enclave(h: &mut HostOs) -> (EnclaveId, u64, u64) {
    let base = 0x200000;
    let id = h
        .create_enclave(base, 8 * PAGE_SIZE as u64)
        .expect("create");
    let code = base;
    let data = base + PAGE_SIZE as u64;
    h.add_page(id, code, &[0x90, 0xc3], PagePerms::RWX)
        .expect("code");
    h.add_page(id, data, &[0u8; 16], PagePerms::RWX)
        .expect("data");
    h.machine_mut().einit(id).expect("einit");
    h.finalize_provisioned_enclave(id, &[code])
        .expect("finalize");
    (id, code, data)
}

#[test]
fn v1_software_only_enforcement_is_bypassable() {
    let mut h = host(SgxVersion::V1);
    let (id, code, _) = provisioned_enclave(&mut h);
    // Honest state: W^X holds at the page-table level.
    assert_eq!(h.effective_perms(id, code), Some(PagePerms::RX));
    // Malicious host flips the PTE: nothing stops it on V1.
    let after = h.attack_flip_pte(id, code, PagePerms::RWX).expect("attack");
    assert_eq!(after, PagePerms::RWX);
    assert!(!after.is_wx_exclusive(), "code page writable again on SGX1");
}

#[test]
fn v2_epcm_enforcement_survives_pte_attack() {
    let mut h = host(SgxVersion::V2);
    let (id, code, data) = provisioned_enclave(&mut h);
    let after = h.attack_flip_pte(id, code, PagePerms::RWX).expect("attack");
    assert_eq!(after, PagePerms::RX, "EPCM caps the attack on SGX2");
    // Data pages equally cannot become executable.
    let after = h.attack_flip_pte(id, data, PagePerms::RWX).expect("attack");
    assert_eq!(after, PagePerms::RW);
}

#[test]
fn v2_blocks_writes_at_the_machine_level() {
    let mut h = host(SgxVersion::V2);
    let (id, code, _) = provisioned_enclave(&mut h);
    h.attack_flip_pte(id, code, PagePerms::RWX).expect("attack");
    // Even with the PTE flipped, the machine refuses the write because
    // the EPCM says the page is not writable.
    let err = h
        .machine_mut()
        .enclave_write(id, code, &[0xcc])
        .unwrap_err();
    assert!(matches!(err, SgxError::PermissionDenied { .. }));
}

#[test]
fn emodpr_cannot_extend_a_locked_code_page() {
    let mut h = host(SgxVersion::V2);
    let (id, code, _) = provisioned_enclave(&mut h);
    assert_eq!(h.machine().epcm_perms(id, code), Some(PagePerms::RX));
    // A malicious host asks the hardware itself for RWX; both leaves
    // succeed, but EMODPR only ever restricts.
    h.machine_mut()
        .emodpr(id, code, PagePerms::RWX)
        .expect("emodpr");
    h.machine_mut().eaccept(id, code).expect("eaccept");
    assert_eq!(h.machine().epcm_perms(id, code), Some(PagePerms::RX));
    let after = h.attack_flip_pte(id, code, PagePerms::RWX).expect("attack");
    assert_eq!(after, PagePerms::RX);
    let err = h
        .machine_mut()
        .enclave_write(id, code, &[0xcc])
        .unwrap_err();
    assert!(matches!(err, SgxError::PermissionDenied { .. }));
}

#[test]
fn finalization_leaves_a_read_execute_non_code_page_read_only() {
    // The provider's bootstrap pages are added RX and are not client
    // code, so finalization asks for RW: the EPCM grants only R.
    let mut h = host(SgxVersion::V2);
    let base = 0x200000;
    let id = h
        .create_enclave(base, 2 * PAGE_SIZE as u64)
        .expect("create");
    h.add_page(id, base, b"bootstrap", PagePerms::RX)
        .expect("bootstrap");
    h.machine_mut().einit(id).expect("einit");
    h.finalize_provisioned_enclave(id, &[]).expect("finalize");
    assert_eq!(h.machine().epcm_perms(id, base), Some(PagePerms::R));
    assert_eq!(h.effective_perms(id, base), Some(PagePerms::R));
}

#[test]
fn v1_machine_rejects_sgx2_leaves() {
    let mut h = host(SgxVersion::V1);
    let (id, code, _) = provisioned_enclave(&mut h);
    for result in [
        h.machine_mut().emodpr(id, code, PagePerms::RX),
        h.machine_mut().eaccept(id, code),
    ] {
        assert!(matches!(result, Err(SgxError::NotSupported { .. })));
    }
}

#[test]
fn sgx2_leaves_appear_in_the_instruction_log_only_on_v2() {
    let mut h2 = host(SgxVersion::V2);
    provisioned_enclave(&mut h2);
    let m2 = h2.machine();
    assert!(m2.instr_count(SgxInstr::Emodpr) > 0);
    assert!(m2.instr_count(SgxInstr::Eaccept) > 0);

    let mut h1 = host(SgxVersion::V1);
    provisioned_enclave(&mut h1);
    let m1 = h1.machine();
    assert_eq!(m1.instr_count(SgxInstr::Emodpr), 0);
    assert_eq!(m1.instr_count(SgxInstr::Eaccept), 0);

    // Every leaf a fresh machine executes is counted exactly once.
    for m in [m1, m2] {
        let counted: u64 = SgxInstr::ALL.iter().map(|&i| m.instr_count(i)).sum();
        assert_eq!(counted, m.counter().sgx_instructions());
    }
}

#[test]
fn extension_lockout_holds_on_both_versions() {
    for version in [SgxVersion::V1, SgxVersion::V2] {
        let mut h = host(version);
        let (id, _, _) = provisioned_enclave(&mut h);
        let vaddr = 0x200000 + 4 * PAGE_SIZE as u64;
        let err = h.add_page(id, vaddr, &[0x90], PagePerms::RWX).unwrap_err();
        assert!(
            matches!(err, SgxError::ExtensionLocked { .. }),
            "{version:?}: post-provisioning EADD must be refused"
        );
    }
}

#[test]
fn asyncshock_style_exec_revocation_is_host_power_on_both() {
    // AsyncShock removes read/execute permissions to interrupt threads.
    // That direction (restricting) is always within the host's power —
    // the EPCM only prevents *escalation*. The enclave's defence is that
    // its code cannot be modified, not that it cannot be paused.
    for version in [SgxVersion::V1, SgxVersion::V2] {
        let mut h = host(version);
        let (id, code, _) = provisioned_enclave(&mut h);
        let after = h.attack_flip_pte(id, code, PagePerms::R).expect("restrict");
        assert_eq!(after, PagePerms::R, "{version:?}");
    }
}
