//! Writing a custom policy module.
//!
//! Run with `cargo run --release --example custom_policy`.
//!
//! The paper's introduction motivates provider-side inspection with
//! SLA-violating clients "using [the cloud] to host a botnet command
//! and control server". This example implements exactly that check as a
//! **custom** `PolicyModule` — a network-function blocklist: the
//! enclave's code may not call `socket`, `connect`, `listen`, `accept`,
//! `bind`, … — and runs the full provisioning protocol with it.
//!
//! It also shows that the policy's configuration (the blocklist) is
//! bound into the enclave measurement: provider and client must agree
//! on the exact list or attestation fails.

use engarde::client::Client;
use engarde::error::EngardeError;
use engarde::loader::LoaderConfig;
use engarde::policy::{PolicyContext, PolicyModule, PolicyReport};
use engarde::provider::CloudProvider;
use engarde::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
use engarde::sgx::instr::SgxVersion;
use engarde::sgx::machine::MachineConfig;
use engarde::sgx::perf::costs;
use engarde::workloads::generator::{generate, WorkloadSpec};
use engarde::x86::insn::InsnKind;

/// Rejects binaries that call any function on a name blocklist.
#[derive(Clone, Debug)]
struct NetworkBlocklistPolicy {
    forbidden: Vec<&'static str>,
}

impl NetworkBlocklistPolicy {
    fn new() -> Self {
        NetworkBlocklistPolicy {
            forbidden: vec![
                "socket", "bind", "listen", "accept", "connect", "send", "recv", "sendto",
                "recvfrom",
            ],
        }
    }
}

impl PolicyModule for NetworkBlocklistPolicy {
    fn name(&self) -> &'static str {
        "network-blocklist"
    }

    fn descriptor(&self) -> Vec<u8> {
        // The blocklist is part of the agreed configuration: it lands in
        // the enclave measurement via the bootstrap spec.
        let mut out = b"network-blocklist:".to_vec();
        for f in &self.forbidden {
            out.extend_from_slice(f.as_bytes());
            out.push(b',');
        }
        out
    }

    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
        let binary = ctx.binary();
        ctx.charge(binary.insns.len() as u64 * costs::SCAN_PER_INSN);
        let mut calls_checked = 0usize;
        for insn in &binary.insns {
            let InsnKind::DirectCall { target } = insn.kind else {
                continue;
            };
            calls_checked += 1;
            ctx.charge(costs::HASHTABLE_PROBE);
            if let Some(name) = binary.symbols.name_at(target) {
                if self.forbidden.contains(&name) {
                    return Err(EngardeError::PolicyViolation {
                        policy: self.name(),
                        reason: format!(
                            "call to forbidden network function '{name}' at {:#x}",
                            insn.addr
                        ),
                    });
                }
            }
        }
        Ok(PolicyReport {
            policy: self.name(),
            items_checked: calls_checked,
            detail: format!("{} functions on the blocklist", self.forbidden.len()),
        })
    }
}

fn provision(binary: Vec<u8>, seed: u64) -> Result<(bool, String), EngardeError> {
    let make = || -> Vec<Box<dyn PolicyModule>> { vec![Box::new(NetworkBlocklistPolicy::new())] };
    let spec = BootstrapSpec::new("EnGarde-1.0", LoaderConfig::default(), &make(), 256, 512);
    let mut provider = CloudProvider::new(MachineConfig {
        epc_pages: 2_048,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    });
    let enclave = provider.create_engarde_enclave(spec.clone(), make())?;
    let mut client = Client::new(
        binary,
        &spec,
        DEFAULT_ENCLAVE_BASE,
        provider.device_public_key(),
        seed ^ 2,
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
    let detail = provider
        .signed_verdict(enclave)
        .map(|v| v.detail.clone())
        .unwrap_or_default();
    Ok((view.compliant, detail))
}

/// Does this binary contain a direct call to any of `names`?
fn calls_any(image: &[u8], names: &[&str]) -> bool {
    let elf = engarde::elf::parse::ElfFile::parse(image).expect("parses");
    let text = elf.exec_segment();
    let bytes = text.file_bytes(image).expect("text");
    let insns = engarde::x86::decode::decode_all(bytes, text.p_vaddr).expect("decodes");
    let by_addr: std::collections::HashMap<u64, String> = elf
        .function_symbols()
        .map(|s| (s.symbol.st_value, s.name.clone()))
        .collect();
    insns.iter().any(|i| match i.kind {
        InsnKind::DirectCall { target } => by_addr
            .get(&target)
            .is_some_and(|n| names.contains(&n.as_str())),
        _ => false,
    })
}

fn main() -> Result<(), EngardeError> {
    println!("== custom policy: no network functions in enclave code ==\n");
    let forbidden = [
        "socket", "bind", "listen", "accept", "connect", "send", "recv", "sendto", "recvfrom",
    ];

    // A compute-only app: links a small libc subset (string/stdlib), no
    // networking.
    let quiet = generate(&WorkloadSpec {
        name: "batch_compute".into(),
        target_instructions: 12_000,
        libc_functions_used: 60,
        ..WorkloadSpec::default()
    });
    assert!(!calls_any(&quiet.image, &forbidden));
    let (compliant, detail) = provision(quiet.image, 0xF00)?;
    println!("batch_compute (no sockets) → compliant = {compliant}");
    println!("  verdict: {detail}\n");
    assert!(compliant);

    // A "command and control server": links the full libc including the
    // socket API, and calls it.
    let mut spec = WorkloadSpec {
        name: "c2_server".into(),
        target_instructions: 30_000,
        libc_functions_used: 300, // pulls in the network section
        calls_per_app_fn: 12,
        ..WorkloadSpec::default()
    };
    let mut image = generate(&spec).image;
    // Re-seed until the generated call mix actually exercises a
    // forbidden function (deterministic once found).
    while !calls_any(&image, &forbidden) {
        spec.seed = spec.seed.wrapping_add(1);
        image = generate(&spec).image;
    }
    let (compliant, detail) = provision(image, 0xF01)?;
    println!("c2_server (uses socket API) → compliant = {compliant}");
    println!("  verdict: {detail}\n");
    assert!(!compliant);

    println!("the blocklist is measurement-bound: a provider running a different");
    println!("list produces a different enclave measurement and fails attestation");
    Ok(())
}
