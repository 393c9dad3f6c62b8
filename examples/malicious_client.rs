//! Malicious-client and cheating-provider scenarios.
//!
//! Run with `cargo run --release --example malicious_client`.
//!
//! Demonstrates EnGarde rejecting the SLA-violating inputs the paper's
//! threat model (§3) worries about:
//!
//! 1. a client linking a **tampered libc** (library-linking violation),
//! 2. a client shipping code **without stack protection** when the SLA
//!    requires `-fstack-protector-all`,
//! 3. a client shipping a **stripped** binary (auto-rejected),
//! 4. a client shipping code containing a **syscall** (illegal inside an
//!    enclave, caught by NaCl-style validation),
//! 5. a **cheating provider** flipping the verdict — detected by the
//!    client through the enclave signature.

use engarde::client::Client;
use engarde::loader::LoaderConfig;
use engarde::policy::{LibraryLinkingPolicy, PolicyModule, StackProtectionPolicy};
use engarde::provider::CloudProvider;
use engarde::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
use engarde::sgx::instr::SgxVersion;
use engarde::sgx::machine::MachineConfig;
use engarde::workloads::generator::{generate, WorkloadSpec};
use engarde::workloads::libc::{Instrumentation, LibcLibrary};
use engarde::EngardeError;

fn machine_config(seed: u64) -> MachineConfig {
    MachineConfig {
        epc_pages: 1_024,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    }
}

/// Runs the full protocol for `binary` under `policies`; returns the
/// provider's verdict (or the protocol error).
fn provision(
    binary: Vec<u8>,
    make_policies: &dyn Fn() -> Vec<Box<dyn PolicyModule>>,
    seed: u64,
) -> Result<(bool, String), EngardeError> {
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &make_policies(),
        128,
        512,
    );
    let mut provider = CloudProvider::new(machine_config(seed));
    let enclave = provider.create_engarde_enclave(spec.clone(), make_policies())?;
    let mut client = Client::new(
        binary,
        &spec,
        DEFAULT_ENCLAVE_BASE,
        provider.device_public_key(),
        seed ^ 1,
    );
    let nonce = client.challenge();
    let quote = provider.attest(enclave, nonce)?;
    let key = provider.enclave_public_key(enclave)?;
    client.verify_quote(&quote, &key)?;
    let wrapped = client.establish_channel(&key)?;
    provider.open_channel(enclave, &wrapped)?;
    for block in client.content_blocks()? {
        provider.deliver(enclave, &block)?;
    }
    let view = provider.inspect_and_provision(enclave)?;
    let verdict = provider.signed_verdict(enclave).expect("verdict").clone();
    client.verify_verdict(&verdict, &key)?;
    Ok((view.compliant, verdict.detail))
}

fn main() -> Result<(), EngardeError> {
    println!("== EnGarde vs. malicious clients ==\n");

    // ---- 1. Tampered libc ------------------------------------------------
    // The SLA's hash database is genuine musl 1.0.5; the client's binary
    // embeds a patched strlen (e.g. a backdoored allocator would look the
    // same to this check).
    let musl_policy = || -> Vec<Box<dyn PolicyModule>> {
        let lib = LibcLibrary::build(Instrumentation::None);
        // The *agreed* database is built from a tampered copy standing in
        // for "the client patched its libc": the binary embeds genuine
        // blocks, the database expects the patched ones → mismatch.
        vec![Box::new(LibraryLinkingPolicy::new(
            "musl-libc",
            lib.tampered("strlen").function_hashes(),
        ))]
    };
    let binary = generate(&WorkloadSpec {
        name: "patched_libc_app".into(),
        target_instructions: 15_000,
        libc_functions_used: 120,
        ..WorkloadSpec::default()
    });
    let (compliant, detail) = provision(binary.image, &musl_policy, 0xA)?;
    println!("1. tampered libc        → compliant = {compliant}");
    println!("   verdict: {detail}\n");
    assert!(!compliant);

    // ---- 2. Missing stack protection ----------------------------------------
    let sp_policy =
        || -> Vec<Box<dyn PolicyModule>> { vec![Box::new(StackProtectionPolicy::new())] };
    let unprotected = generate(&WorkloadSpec {
        name: "unprotected_app".into(),
        target_instructions: 12_000,
        instrumentation: Instrumentation::None, // compiled WITHOUT the flag
        ..WorkloadSpec::default()
    });
    let (compliant, detail) = provision(unprotected.image, &sp_policy, 0xB)?;
    println!("2. no -fstack-protector → compliant = {compliant}");
    println!("   verdict: {detail}\n");
    assert!(!compliant);

    // ---- 3. Stripped binary ----------------------------------------------------
    let mut spec = WorkloadSpec {
        name: "stripped_app".into(),
        target_instructions: 12_000,
        ..WorkloadSpec::default()
    };
    spec.seed ^= 77;
    let stripped = {
        // Rebuild the image without its symbol table.
        let w = generate(&spec);
        let elf = engarde::elf::parse::ElfFile::parse(&w.image).expect("parses");
        let text = elf.exec_segment().file_bytes(&w.image).expect("text");
        let mut b = engarde::elf::build::ElfBuilder::new();
        b.text(text.to_vec())
            .entry(elf.header().e_entry - 0x1000)
            .strip();
        b.build()
    };
    let (compliant, detail) = provision(stripped, &sp_policy, 0xC)?;
    println!("3. stripped binary      → compliant = {compliant}");
    println!("   verdict: {detail}\n");
    assert!(!compliant);
    // Stripped binaries die one of two ways: no symbols for the policy,
    // or — without symbol reachability roots — NaCl validation itself.
    assert!(
        detail.contains("stripped") || detail.contains("unreachable"),
        "{detail}"
    );

    // ---- 4. Syscall smuggled into enclave code ------------------------------------
    let mut asm = engarde::x86::encode::Assembler::new();
    asm.mov_ri32(engarde::x86::reg::Reg::Rax, 60); // exit(2) syscall number
    asm.raw_bytes(&[0x0f, 0x05]); // syscall
    asm.ret();
    let text = asm.finish();
    let len = text.len() as u64;
    let mut b = engarde::elf::build::ElfBuilder::new();
    b.text(text).function("main", 0, len).entry(0);
    let (compliant, detail) = provision(b.build(), &sp_policy, 0xD)?;
    println!("4. syscall in code      → compliant = {compliant}");
    println!("   verdict: {detail}\n");
    assert!(!compliant);
    assert!(detail.contains("syscall"));

    // ---- 5. Cheating provider -------------------------------------------------------
    // The provider cannot forge a "non-compliant" verdict for compliant
    // code: the verdict is signed by the enclave key the client attested.
    let honest_policy = || -> Vec<Box<dyn PolicyModule>> {
        let lib = LibcLibrary::build(Instrumentation::None);
        vec![Box::new(LibraryLinkingPolicy::new(
            "musl-libc",
            lib.function_hashes(),
        ))]
    };
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &honest_policy(),
        128,
        512,
    );
    let mut provider = CloudProvider::new(machine_config(0xE));
    let enclave = provider.create_engarde_enclave(spec.clone(), honest_policy())?;
    let good = generate(&WorkloadSpec {
        name: "honest_app".into(),
        target_instructions: 10_000,
        ..WorkloadSpec::default()
    });
    let mut client = Client::new(
        good.image,
        &spec,
        DEFAULT_ENCLAVE_BASE,
        provider.device_public_key(),
        0xF,
    );
    let nonce = client.challenge();
    let quote = provider.attest(enclave, nonce)?;
    let key = provider.enclave_public_key(enclave)?;
    client.verify_quote(&quote, &key)?;
    let wrapped = client.establish_channel(&key)?;
    provider.open_channel(enclave, &wrapped)?;
    for block in client.content_blocks()? {
        provider.deliver(enclave, &block)?;
    }
    provider.inspect_and_provision(enclave)?;
    let mut forged = provider.signed_verdict(enclave).expect("verdict").clone();
    forged.compliant = false; // the provider lies
    forged.detail = "policy violated (trust me)".into();
    match client.verify_verdict(&forged, &key) {
        Err(e) => {
            println!("5. provider flips the verdict → client detects it: {e}");
        }
        Ok(v) => panic!("forged verdict accepted as {v}!"),
    }
    println!("\nall five scenarios behaved as the paper's threat model requires");
    Ok(())
}
