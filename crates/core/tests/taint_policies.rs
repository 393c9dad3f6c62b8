//! Named rejection/pass tests for the interprocedural taint engine:
//! every leaking fixture from `engarde_workloads::adversarial` is
//! rejected by name, every compliant near-miss twin passes, and taint
//! verdicts flow (and replay) through the full provisioning pipeline
//! and the content-addressed verdict cache.

use engarde_core::cache::shared_cache;
use engarde_core::client::Client;
use engarde_core::error::EngardeError;
use engarde_core::loader::{load, LoadedBinary, LoaderConfig};
use engarde_core::policy::{
    run_policies, run_policies_with_cache, AnalysisCache, PolicyModule, SecretDependentBranch,
    SecretLeakage,
};
use engarde_core::provider::{CloudProvider, ProviderView};
use engarde_core::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::{EnclaveId, MachineConfig, SgxMachine};
use engarde_sgx::perf::costs;
use engarde_workloads::adversarial;
use engarde_x86::insn::Width;
use engarde_x86::reg::Reg;

// The direct-harness enclave lives at [0x10000, 0x11000): the loader
// places the channel-key state at base + 0x100.
const SECRET: u64 = 0x10100;
const SINK_OUT: u64 = 0x20000;
const SINK_IN: u64 = 0x10800;

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
        .expect("leakage fixtures pass load-time validation");
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
        .expect_err("leaking image must be rejected at policy time");
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

fn expect_pass(image: &[u8], policies: Vec<Box<dyn PolicyModule>>) {
    let (mut m, _, loaded) = load_image(image);
    let reports =
        run_policies(&policies, &loaded, m.counter_mut()).expect("compliant twin must pass");
    assert_eq!(reports.len(), policies.len());
}

// ---- named rejections and their compliant twins ------------------------

#[test]
fn register_leak_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::secret_register_leak(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "channel-key",
    );
}

#[test]
fn register_leak_names_the_out_of_enclave_write() {
    expect_violation(
        &adversarial::secret_register_leak(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn register_leak_compliant_twin_passes() {
    expect_pass(
        &adversarial::secret_register_leak(SECRET, SINK_IN),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn secret_branch_is_rejected_by_secret_dependent_branch() {
    expect_violation(
        &adversarial::secret_branch(SECRET),
        vec![Box::new(SecretDependentBranch::new())],
        "secret-dependent-branch",
        "channel-key",
    );
}

#[test]
fn constant_branch_twin_passes_secret_dependent_branch() {
    expect_pass(
        &adversarial::constant_branch(),
        vec![Box::new(SecretDependentBranch::new())],
    );
}

#[test]
fn secret_branch_fixture_passes_secret_leakage() {
    // Near-miss discrimination: the branch fixture touches the secret
    // but leaks nothing out of the enclave.
    expect_pass(
        &adversarial::secret_branch(SECRET),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn interprocedural_leak_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::interprocedural_leak(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "channel-key",
    );
}

#[test]
fn interprocedural_compliant_twin_passes() {
    expect_pass(
        &adversarial::interprocedural_leak(SECRET, SINK_IN),
        vec![
            Box::new(SecretLeakage::new()),
            Box::new(SecretDependentBranch::new()),
        ],
    );
}

#[test]
fn taint_stats_survive_a_rejecting_run() {
    let (mut m, _, loaded) = load_image(&adversarial::secret_register_leak(SECRET, SINK_OUT));
    let policies: Vec<Box<dyn PolicyModule>> = vec![Box::new(SecretLeakage::new())];
    let cache = AnalysisCache::new();
    run_policies_with_cache(&policies, &loaded, m.counter_mut(), &cache)
        .expect_err("leaking image rejects");
    let stats = cache
        .taint_stats()
        .expect("the rejecting run still memoized the taint analysis");
    assert!(stats.leaks_found >= 1);
    assert!(stats.cycles_charged > 0);
}

#[test]
fn shared_memo_charges_the_taint_analysis_once() {
    let (mut m, _, loaded) = load_image(&adversarial::constant_branch());
    let policies: Vec<Box<dyn PolicyModule>> = vec![
        Box::new(SecretLeakage::new()),
        Box::new(SecretDependentBranch::new()),
    ];
    let cache = AnalysisCache::new();
    let snap = *m.counter();
    run_policies_with_cache(&policies, &loaded, m.counter_mut(), &cache).expect("passes");
    let both = m.counter().since(&snap);

    let (mut m2, _, loaded2) = load_image(&adversarial::constant_branch());
    let solo_policies: Vec<Box<dyn PolicyModule>> = vec![Box::new(SecretLeakage::new())];
    let cache2 = AnalysisCache::new();
    let snap2 = *m2.counter();
    run_policies_with_cache(&solo_policies, &loaded2, m2.counter_mut(), &cache2).expect("passes");
    let solo = m2.counter().since(&snap2);

    // The second taint-backed policy rides the memo: no re-analysis.
    assert_eq!(both, solo, "second policy must not re-pay the taint pass");
}

// ---- spill laundering: the PR-10 soundness fixtures --------------------

/// In-enclave scratch address `f` parks the secret at (not a source,
/// not a sink — just memory).
const SCRATCH: u64 = 0x10900;
/// In-enclave address holding the unresolvable pointer.
const PTR: u64 = 0x10a00;

#[test]
fn stack_spill_leak_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::stack_spill_leak(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn stack_spill_leak_regression_register_only_taint_signed_a_false_pass() {
    // Pinned regression for the DESIGN.md §13 soundness hole: before
    // the memory domain, the spill dropped the label, the zeroing xor
    // destroyed the register copy, and the reload came back clean —
    // this exact image was signed PASS. It must stay rejected, and the
    // verdict must name the secret's class.
    expect_violation(
        &adversarial::stack_spill_leak(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "channel-key",
    );
}

#[test]
fn stack_spill_compliant_twin_passes() {
    expect_pass(
        &adversarial::stack_spill_leak(SECRET, SINK_IN),
        vec![
            Box::new(SecretLeakage::new()),
            Box::new(SecretDependentBranch::new()),
        ],
    );
}

#[test]
fn spill_branch_is_rejected_by_secret_dependent_branch() {
    expect_violation(
        &adversarial::spill_branch(SECRET),
        vec![Box::new(SecretDependentBranch::new())],
        "secret-dependent-branch",
        "channel-key",
    );
}

#[test]
fn spill_branch_fixture_passes_secret_leakage() {
    // Near-miss discrimination: the reloaded spill feeds only the
    // flags, nothing leaves the enclave.
    expect_pass(
        &adversarial::spill_branch(SECRET),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn constant_spill_branch_twin_passes() {
    expect_pass(
        &adversarial::constant_spill_branch(),
        vec![
            Box::new(SecretLeakage::new()),
            Box::new(SecretDependentBranch::new()),
        ],
    );
}

#[test]
fn interprocedural_spill_escape_is_rejected_by_secret_leakage() {
    // `f` scrubs every register it touches before returning — only the
    // caller-visible spill-escape component of its summary carries the
    // secret to the caller's reload.
    expect_violation(
        &adversarial::interprocedural_spill_escape(SECRET, SCRATCH, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "channel-key",
    );
}

#[test]
fn interprocedural_spill_escape_compliant_twin_passes() {
    expect_pass(
        &adversarial::interprocedural_spill_escape(SECRET, SCRATCH, SINK_IN),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn unresolved_tainted_store_is_rejected_in_strict_mode() {
    expect_violation(
        &adversarial::unresolved_pointer_store(SECRET, PTR),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "unresolved-address store",
    );
}

#[test]
fn unresolved_store_clean_twin_passes_strict_mode() {
    expect_pass(
        &adversarial::unresolved_pointer_store_clean(PTR),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn rejected_unresolved_store_is_counted_in_the_shared_stats() {
    // The rejection is not the only trace: the shared memo still counts
    // the unresolved sink and the weak update that keeps the label
    // alive ambiently.
    let (mut m, _, loaded) = load_image(&adversarial::unresolved_pointer_store(SECRET, PTR));
    let policies: Vec<Box<dyn PolicyModule>> = vec![Box::new(SecretLeakage::new())];
    let cache = AnalysisCache::new();
    let err = run_policies_with_cache(&policies, &loaded, m.counter_mut(), &cache)
        .expect_err("a tainted store through an unresolved address rejects");
    assert!(
        matches!(&err, EngardeError::PolicyViolation { policy: "secret-leakage", reason }
            if reason.contains("unresolved-address store")),
        "{err}"
    );
    let stats = cache.taint_stats().expect("taint ran");
    assert!(
        stats.unresolved_store_sinks >= 1,
        "the conservative flag must be counted, not dropped"
    );
    assert!(stats.weak_updates >= 1, "the label stays alive ambiently");
}

#[test]
fn spill_stats_count_cells_and_unresolved_sinks() {
    let (mut m, _, loaded) = load_image(&adversarial::stack_spill_leak(SECRET, SINK_OUT));
    let policies: Vec<Box<dyn PolicyModule>> = vec![Box::new(SecretLeakage::new())];
    let cache = AnalysisCache::new();
    run_policies_with_cache(&policies, &loaded, m.counter_mut(), &cache)
        .expect_err("spill leak rejects");
    let stats = cache.taint_stats().expect("taint ran");
    assert!(stats.spill_cells >= 1, "the spill slot is a tracked cell");
    assert_eq!(
        stats.unresolved_store_sinks, 0,
        "a resolvable frame slot is not an unresolved store"
    );
    assert!(stats.leaks_found >= 1);
}

// ---- stack aliases: one slot, several base registers -------------------
//
// The first three rejections below were false PASSes while `%rbp`
// slots and `%rsp`-relative slots were keyed apart and only `%rsp`
// itself could name a frame slot.

/// The reload displacement that names the spilled slot (the leak) and
/// one that names an untouched neighbour (the compliant twin).
const ALIASED: i8 = -8;
const NEIGHBOUR: i8 = -16;

#[test]
fn rbp_spill_rsp_reload_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::rbp_spill_rsp_reload(SECRET, SINK_OUT, ALIASED),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn rbp_spill_rsp_reload_compliant_twin_passes() {
    expect_pass(
        &adversarial::rbp_spill_rsp_reload(SECRET, SINK_OUT, NEIGHBOUR),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn rsp_spill_copy_reload_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::rsp_spill_copy_reload(SECRET, SINK_OUT, ALIASED),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn rsp_spill_copy_reload_compliant_twin_passes() {
    expect_pass(
        &adversarial::rsp_spill_copy_reload(SECRET, SINK_OUT, NEIGHBOUR),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn untrusted_rbp_store_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::untrusted_rbp_store(SECRET, PTR),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "unresolved-address store",
    );
}

#[test]
fn untrusted_rbp_store_compliant_twin_passes() {
    expect_pass(
        &adversarial::framed_rbp_store(SECRET),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn rbp_spill_reload_across_other_is_rejected_by_secret_leakage() {
    // The unclassified `movzx` writes only `%rcx`: `%rbp` still names
    // the spilled slot.
    expect_violation(
        &adversarial::rbp_spill_reload_across_other(SECRET, SINK_OUT, Reg::Rcx),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn rbp_spill_reload_after_rbp_clobber_is_rejected_by_secret_leakage() {
    // The unclassified `movzx` writes `%rbp`, so the reload is an
    // unresolved pointer: it must observe the tracked spill.
    expect_violation(
        &adversarial::rbp_spill_reload_across_other(SECRET, SINK_OUT, Reg::Rbp),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn rbp_spill_reload_across_other_compliant_twin_passes() {
    for clobbered in [Reg::Rcx, Reg::Rbp] {
        expect_pass(
            &adversarial::rbp_spill_reload_across_other(SECRET, SINK_IN, clobbered),
            vec![Box::new(SecretLeakage::new())],
        );
    }
}

// More shapes of the same rule: an `Other` forgets only the offsets of
// the registers it writes, a callee that does not give `%rbp` back
// makes the caller forget it, a callee's tainted write into its
// caller's frame reaches the caller, `push`/`pop` through a constant
// `%rsp` are resolved accesses, and a truncating `lea` leaves no stack
// address. Each rejection or twin here failed under an
// earlier revision (CHANGES.md names which).

#[test]
fn rbp_store_after_other_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::rbp_store_after_other(SECRET, true),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "unresolved-address store",
    );
}

#[test]
fn rbp_store_after_other_compliant_twin_passes() {
    // `test` writes no register: the spill stays a frame slot.
    expect_pass(
        &adversarial::rbp_store_after_other(SECRET, false),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn callee_untrusted_rbp_store_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::callee_untrusted_rbp_store(SECRET, PTR, false),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "unresolved-address store",
    );
}

#[test]
fn callee_untrusted_rbp_store_compliant_twin_passes() {
    expect_pass(
        &adversarial::callee_untrusted_rbp_store(SECRET, PTR, true),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn caller_frame_spill_by_callee_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::caller_frame_spill_by_callee(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn caller_frame_spill_by_callee_compliant_twin_passes() {
    expect_pass(
        &adversarial::caller_frame_spill_by_callee(SECRET, SINK_IN),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn constant_rsp_push_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::constant_rsp_push(SECRET, SINK_OUT + 8),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn constant_rsp_push_compliant_twin_passes() {
    expect_pass(
        &adversarial::constant_rsp_push(SECRET, SINK_IN + 8),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn constant_rsp_pop_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::constant_rsp_pop(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn constant_rsp_pop_compliant_twin_passes() {
    expect_pass(
        &adversarial::constant_rsp_pop(SECRET, SINK_IN),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn narrow_lea_store_is_rejected_by_secret_leakage() {
    for width in [Width::W16, Width::W32] {
        expect_violation(
            &adversarial::narrow_lea_store(SECRET, SINK_OUT, width),
            vec![Box::new(SecretLeakage::new())],
            "secret-leakage",
            "unresolved-address store",
        );
    }
}

#[test]
fn narrow_rip_lea_store_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::narrow_rip_lea_store(SECRET, SINK_OUT, SINK_IN, Width::W16),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "unresolved-address store",
    );
}

#[test]
fn narrow_rip_lea_store_compliant_twin_passes() {
    for width in [Width::W32, Width::W64] {
        expect_pass(
            &adversarial::narrow_rip_lea_store(SECRET, SINK_OUT, SINK_IN, width),
            vec![Box::new(SecretLeakage::new())],
        );
    }
}

#[test]
fn narrow_lea_store_compliant_twin_passes() {
    expect_pass(
        &adversarial::narrow_lea_store(SECRET, SINK_OUT, Width::W64),
        vec![Box::new(SecretLeakage::new())],
    );
}

// ---- data effects: what each instruction reads and writes --------------
//
// Every rejection below was a false PASS while the taint pass modelled
// only the typed instruction forms: the unclassified ones left taint
// alone, an 8-bit write replaced the whole register, `%ah` decoded as
// `%rsp`, a no-base operand was unresolved (so its load was clean) and
// a segment override was ignored.

#[test]
fn movzx_load_leak_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::movzx_load_leak(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn movzx_load_leak_compliant_twin_passes() {
    expect_pass(
        &adversarial::movzx_load_leak(SECRET, SINK_IN),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn xchg_store_leak_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::xchg_store_leak(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn xchg_store_leak_compliant_twin_passes() {
    expect_pass(
        &adversarial::xchg_store_leak(SECRET, SINK_IN),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn setcc_leak_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::setcc_leak(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn setcc_leak_compliant_twin_passes() {
    expect_pass(
        &adversarial::setcc_leak(SECRET, SINK_IN),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn high_byte_load_leak_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::high_byte_load_leak(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn high_byte_load_leak_compliant_twin_passes() {
    expect_pass(
        &adversarial::high_byte_load_leak(SECRET, SINK_IN),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn partial_write_leak_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::partial_write_leak(SECRET, SINK_OUT, Width::W8),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn partial_write_leak_compliant_twin_passes() {
    // A 32-bit write zero-extends: nothing secret is left in `%rax`.
    expect_pass(
        &adversarial::partial_write_leak(SECRET, SINK_OUT, Width::W32),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn absolute_load_leak_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::absolute_load_leak(SECRET, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
}

#[test]
fn absolute_load_leak_compliant_twin_passes() {
    expect_pass(
        &adversarial::absolute_load_leak(SCRATCH, SINK_OUT),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn absolute_load_branch_is_rejected_by_secret_dependent_branch() {
    expect_violation(
        &adversarial::absolute_load_branch(SECRET),
        vec![Box::new(SecretDependentBranch::new())],
        "secret-dependent-branch",
        "channel-key",
    );
}

#[test]
fn absolute_load_branch_compliant_twin_passes() {
    expect_pass(
        &adversarial::absolute_load_branch(SCRATCH),
        vec![Box::new(SecretDependentBranch::new())],
    );
}

#[test]
fn segment_store_leak_is_rejected_by_secret_leakage() {
    expect_violation(
        &adversarial::segment_store_leak(SECRET, SINK_IN, true),
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "unresolved-address store",
    );
}

#[test]
fn segment_store_leak_compliant_twin_passes() {
    expect_pass(
        &adversarial::segment_store_leak(SECRET, SINK_IN, false),
        vec![Box::new(SecretLeakage::new())],
    );
}

#[test]
fn leave_epilogue_spill_is_rejected_by_secret_leakage() {
    // The caller's `-8(%rbp)` is a frame slot after a `leave; ret`
    // callee: the leak is the out-of-enclave store, not an unresolved
    // spill.
    let image = adversarial::leave_epilogue_spill(SECRET, SINK_OUT);
    expect_violation(
        &image,
        vec![Box::new(SecretLeakage::new())],
        "secret-leakage",
        "out-of-enclave write",
    );
    let (mut m, _, loaded) = load_image(&image);
    let cache = AnalysisCache::new();
    let policies: Vec<Box<dyn PolicyModule>> = vec![Box::new(SecretLeakage::new())];
    run_policies_with_cache(&policies, &loaded, m.counter_mut(), &cache)
        .expect_err("the leak rejects");
    let stats = cache.taint_stats().expect("taint ran");
    assert_eq!(stats.unresolved_store_sinks, 0, "the spill slot is named");
}

#[test]
fn leave_epilogue_spill_compliant_twin_passes() {
    expect_pass(
        &adversarial::leave_epilogue_spill(SECRET, SINK_IN),
        vec![Box::new(SecretLeakage::new())],
    );
}

// ---- end-to-end provisioning + verdict cache ---------------------------

fn machine_config(seed: u64) -> MachineConfig {
    MachineConfig {
        epc_pages: 1024,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    }
}

fn taint_policies() -> Vec<Box<dyn PolicyModule>> {
    vec![
        Box::new(SecretLeakage::new()),
        Box::new(SecretDependentBranch::new()),
    ]
}

fn provision(
    provider: &mut CloudProvider,
    spec: &BootstrapSpec,
    policies: Vec<Box<dyn PolicyModule>>,
    image: Vec<u8>,
) -> ProviderView {
    let enclave = provider
        .create_engarde_enclave(spec.clone(), policies)
        .expect("create enclave");
    let mut client = Client::new(
        image,
        spec,
        DEFAULT_ENCLAVE_BASE,
        provider.device_public_key(),
        7,
    );
    let nonce = client.challenge();
    let quote = provider.attest(enclave, nonce).expect("attest");
    let key = provider.enclave_public_key(enclave).expect("enclave key");
    client.verify_quote(&quote, &key).expect("quote verifies");
    let wrapped = client.establish_channel(&key).expect("channel");
    provider.open_channel(enclave, &wrapped).expect("open");
    for block in client.content_blocks().expect("blocks") {
        provider.deliver(enclave, &block).expect("deliver");
    }
    let view = provider.inspect_and_provision(enclave).expect("inspect");
    provider.close_session(enclave).expect("close");
    view
}

#[test]
fn taint_verdict_replays_on_cache_hit_for_probe_cost() {
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &taint_policies(),
        64,
        512,
    );
    let cache = shared_cache(8);
    let mut provider = CloudProvider::new(machine_config(42));
    provider.set_verdict_cache(cache.clone());

    // The provisioning enclave sits at DEFAULT_ENCLAVE_BASE; its
    // channel-key state is at base + 0x100, and 0x200000 lies outside
    // any enclave this spec can map.
    let image = adversarial::secret_register_leak(DEFAULT_ENCLAVE_BASE + 0x100, 0x0020_0000);
    let cold = provision(&mut provider, &spec, taint_policies(), image.clone());
    let hit = provision(&mut provider, &spec, taint_policies(), image);

    assert!(!cold.compliant, "the leaking fixture must be rejected");
    assert!(!cold.cache_hit);
    let cold_taint = cold.taint.expect("taint ran cold");
    assert!(cold_taint.leaks_found >= 1);
    assert!(cold_taint.cycles_charged > 0);

    // The second inspection of the same binary charges only the probe:
    // the taint verdict (stats included) is replayed, not recomputed.
    assert!(hit.cache_hit, "identical content must hit the cache");
    assert!(!hit.compliant);
    assert_eq!(hit.taint, Some(cold_taint));
    assert_eq!(hit.stages.disassembly, costs::CACHE_PROBE);
    assert_eq!(hit.stages.policy_checking, 0);
}

#[test]
fn compliant_twin_provisions_with_zero_leak_counters() {
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &taint_policies(),
        64,
        512,
    );
    let mut provider = CloudProvider::new(machine_config(43));
    // In-enclave sink: the key-state page itself is a legal store target.
    let image = adversarial::secret_register_leak(
        DEFAULT_ENCLAVE_BASE + 0x100,
        DEFAULT_ENCLAVE_BASE + 0x108,
    );
    let view = provision(&mut provider, &spec, taint_policies(), image);
    assert!(view.compliant, "the in-enclave twin must provision");
    let taint = view.taint.expect("taint ran");
    assert_eq!(taint.leaks_found, 0);
    assert_eq!(taint.tainted_branches, 0);
    assert!(taint.cycles_charged > 0);
}
