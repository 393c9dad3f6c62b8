//! Named rejection tests: each adversarial fixture from
//! `engarde_workloads::adversarial` passes the load-time NaCl validator
//! (it *loads*) and is then rejected by the analysis-backed policies
//! with a structured `PolicyViolation`.

use engarde_core::error::EngardeError;
use engarde_core::loader::{load, LoadedBinary, LoaderConfig};
use engarde_core::policy::{run_policies, CodeReachability, PolicyModule, WxSegments};
use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::{EnclaveId, MachineConfig, SgxMachine};
use engarde_workloads::adversarial;

fn load_image(image: &[u8]) -> (SgxMachine, EnclaveId, LoadedBinary) {
    let mut m = SgxMachine::new(MachineConfig {
        epc_pages: 64,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 31,
    });
    let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
    m.eadd(id, 0x10000, b"engarde", PagePerms::RWX)
        .expect("eadd");
    m.eextend(id, 0x10000).expect("eextend");
    m.einit(id).expect("einit");
    m.eenter(id).expect("enter");
    let loaded = load(&mut m, id, image, &LoaderConfig::default())
        .expect("adversarial image passes load-time validation");
    (m, id, loaded)
}

fn expect_violation(
    image: &[u8],
    policies: Vec<Box<dyn PolicyModule>>,
    policy_name: &str,
    reason_substr: &str,
) {
    let (mut m, _, loaded) = load_image(image);
    let err = run_policies(&policies, &loaded, m.counter_mut())
        .expect_err("adversarial image must be rejected at policy time");
    match err {
        EngardeError::PolicyViolation { policy, reason } => {
            assert_eq!(policy, policy_name);
            assert!(
                reason.contains(reason_substr),
                "reason {reason:?} should mention {reason_substr:?}"
            );
        }
        e => panic!("expected a policy violation, got {e}"),
    }
}

#[test]
fn mid_instruction_jump_is_rejected_by_code_reachability() {
    let adv = adversarial::mid_instruction_jump();
    expect_violation(
        &adv.image,
        vec![Box::new(CodeReachability::new())],
        "code-reachability",
        "middle of an instruction",
    );
}

#[test]
fn overlapping_instruction_stream_is_rejected_by_code_reachability() {
    let adv = adversarial::overlapping_instructions();
    expect_violation(
        &adv.image,
        vec![Box::new(CodeReachability::new())],
        "code-reachability",
        "middle of an instruction",
    );
}

#[test]
fn wx_segment_is_rejected_by_wx_segments() {
    let adv = adversarial::wx_segment();
    expect_violation(
        &adv.image,
        vec![Box::new(WxSegments::new())],
        "wx-segments",
        "writable and executable",
    );
}
