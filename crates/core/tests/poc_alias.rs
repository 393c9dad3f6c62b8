//! Reviewer PoC (throwaway): can a secret be laundered by storing via
//! one stack-naming family and reloading via the other?

use engarde_core::error::EngardeError;
use engarde_core::loader::{load, LoadedBinary, LoaderConfig};
use engarde_core::policy::{run_policies, PolicyModule, SecretLeakage};
use engarde_elf::build::ElfBuilder;
use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::{EnclaveId, MachineConfig, SgxMachine};
use engarde_x86::encode::Assembler;
use engarde_x86::reg::Reg;

const SECRET: u64 = 0x10100;
const SINK_OUT: u64 = 0x20000;

fn wrap(text: Vec<u8>) -> Vec<u8> {
    let len = text.len() as u64;
    ElfBuilder::new()
        .text(text)
        .function("_start", 0, len)
        .entry(0)
        .build()
}

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
    let loaded = load(&mut m, id, image, &LoaderConfig::default()).expect("loads");
    (m, id, loaded)
}

/// mov rbp, rsp; spill the secret via [rbp-8]; scrub; reload via
/// [rsp-8] — the SAME physical slot — and store it out of the enclave.
#[test]
fn mixed_rbp_rsp_naming_launders_the_spill() {
    let mut asm = Assembler::new();
    asm.mov_rr64(Reg::Rbp, Reg::Rsp); // rbp := rsp  (alias)
    asm.movabs(Reg::Rbx, SECRET);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx); // rax = *secret
    asm.mov_reg_to_rbp_disp8(Reg::Rax, -8); // spill via rbp-naming
    asm.xor_rr32(Reg::Rax, Reg::Rax); // scrub
    asm.mov_rsp_disp8_to_reg(Reg::Rcx, -8); // reload via rsp-naming (same addr!)
    asm.movabs(Reg::Rdx, SINK_OUT);
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rdx); // *sink = rcx
    asm.ret();
    let image = wrap(asm.finish());

    let (mut m, _, loaded) = load_image(&image);
    let policies: Vec<Box<dyn PolicyModule>> = vec![Box::new(SecretLeakage::new())];
    match run_policies(&policies, &loaded, m.counter_mut()) {
        Err(EngardeError::PolicyViolation { reason, .. }) => {
            panic!("SOUND: rejected with {reason}")
        }
        Err(e) => panic!("other error: {e}"),
        Ok(_) => panic!("UNSOUND: strict SecretLeakage signed a PASS on a laundered spill leak"),
    }
}
