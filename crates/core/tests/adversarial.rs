//! Named rejection tests.
//!
//! - Each instruction-level fixture from `engarde_workloads::adversarial`
//!   passes the load-time NaCl validator (it *loads*) and is then
//!   rejected by the analysis-backed policies with a structured
//!   `PolicyViolation`.
//! - Each structural fixture (segments, entry point, relocations) goes
//!   through the full protocol, delivered byte for byte over a
//!   hand-rolled channel session so that no client-side parse can mask
//!   a gap in the enclave. The hostile image must end in a signed
//!   rejection the client verifies; its twin in a signed PASS whose
//!   mapped executable pages hold exactly the inspected text.
//! - A bounded structural adversary mutates program headers, `e_entry`,
//!   the section table and relocation entries of small generated
//!   workloads: every image is either refused with an error the enclave
//!   signs as a rejection, or maps exactly the bytes it inspected, with
//!   the entry at a decoded instruction start.

use engarde_core::client::Client;
use engarde_core::error::EngardeError;
use engarde_core::loader::{load, LoadedBinary, LoaderConfig};
use engarde_core::policy::{
    run_policies, CodeReachability, IfccPolicy, PolicyModule, SecretDependentBranch, SecretLeakage,
    WxSegments,
};
use engarde_core::protocol::{classify_pages, ContentManifest, PageKind, PagePayload};
use engarde_core::provider::CloudProvider;
use engarde_core::provision::{BootstrapSpec, DEFAULT_ENCLAVE_BASE};
use engarde_core::relocate::map_and_relocate;
use engarde_crypto::channel::ChannelClient;
use engarde_elf::build::TEXT_VADDR;
use engarde_elf::parse::ElfFile;
use engarde_rand::harness::{pick, Property};
use engarde_rand::{Rng, SeedableRng, StdRng};
use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::{EnclaveId, MachineConfig, SgxMachine};
use engarde_workloads::adversarial;
use engarde_workloads::generator::{generate, WorkloadSpec};
use std::cell::RefCell;

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

// ---- structural fixtures, through the full protocol ------------------

fn structural_policies() -> Vec<Box<dyn PolicyModule>> {
    vec![
        Box::new(WxSegments::new()),
        Box::new(CodeReachability::new()),
        Box::new(IfccPolicy::new()),
        Box::new(SecretLeakage::new()),
        Box::new(SecretDependentBranch::new()),
    ]
}

fn structural_spec() -> BootstrapSpec {
    BootstrapSpec::new(
        "EnGarde-1.0",
        LoaderConfig::default(),
        &structural_policies(),
        16,
        512,
    )
}

/// A verdict the client has verified, plus the bytes of the executable
/// pages it left mapped.
struct Signed {
    compliant: bool,
    detail: String,
    exec_bytes: Vec<u8>,
}

/// Delivers `image` byte for byte over a hand-rolled session and
/// returns the verdict the enclave signed, as the client verifies it.
/// Any unsigned failure (an `Err` from inspection) fails the test.
fn provision_raw(image: &[u8], seed: u64) -> Signed {
    let mut p = CloudProvider::new(MachineConfig {
        epc_pages: 256,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed,
    });
    let id = p
        .create_engarde_enclave(structural_spec(), structural_policies())
        .expect("create");
    let key = p.enclave_public_key(id).expect("enclave key");
    let mut rng = StdRng::seed_from_u64(seed);
    let (wrapped, mut session) = ChannelClient::establish(&mut rng, &key).expect("establish");
    p.open_channel(id, &wrapped).expect("open channel");
    // The page kinds the enclave derives when it can parse the image;
    // an image it cannot parse is refused before the kinds are read.
    let page_kinds = ElfFile::parse(image)
        .ok()
        .and_then(|elf| classify_pages(&elf, image.len()).ok())
        .unwrap_or_else(|| vec![PageKind::Data; image.len().div_ceil(PAGE_SIZE)]);
    let manifest = ContentManifest {
        total_len: image.len(),
        page_kinds,
    };
    p.deliver(id, &session.seal(&manifest.to_bytes()))
        .expect("manifest");
    for (index, chunk) in image.chunks(PAGE_SIZE).enumerate() {
        let page = PagePayload {
            index,
            data: chunk.to_vec(),
        };
        p.deliver(id, &session.seal(&page.to_bytes()))
            .expect("page");
    }
    let view = p
        .inspect_and_provision(id)
        .expect("the enclave signs a verdict");
    let verdict = p.signed_verdict(id).expect("verdict").clone();
    let client = Client::new(
        image.to_vec(),
        &structural_spec(),
        DEFAULT_ENCLAVE_BASE,
        p.device_public_key(),
        seed,
    );
    let compliant = client
        .verify_verdict(&verdict, &key)
        .expect("the client verifies signature and digest");
    assert_eq!(compliant, view.compliant);
    let machine = p.host().machine();
    let exec_bytes = view
        .exec_pages
        .iter()
        .flat_map(|&page| {
            machine
                .enclave_read(id, page, PAGE_SIZE)
                .expect("exec page")
        })
        .collect();
    Signed {
        compliant,
        detail: verdict.detail,
        exec_bytes,
    }
}

/// The twin passes and maps exactly its inspected text; the hostile
/// image is a verified, signed rejection whose detail names `reason`.
fn assert_signed_rejection(fixture: fn(bool) -> Vec<u8>, reason: &str) {
    let twin = fixture(false);
    let signed = provision_raw(&twin, 0x5E6);
    assert!(signed.compliant, "twin must pass: {}", signed.detail);
    let elf = ElfFile::parse(&twin).expect("twin parses");
    let mut text = elf.exec_segment().file_bytes(&twin).expect("text").to_vec();
    assert!(!signed.exec_bytes.is_empty());
    text.resize(signed.exec_bytes.len(), 0);
    assert_eq!(
        signed.exec_bytes, text,
        "the twin's exec pages must hold exactly the inspected text"
    );

    let signed = provision_raw(&fixture(true), 0x5E6);
    assert!(!signed.compliant, "hostile image signed PASS");
    assert!(
        signed.detail.contains(reason),
        "detail {:?} should mention {reason:?}",
        signed.detail
    );
    assert!(signed.exec_bytes.is_empty());
}

#[test]
fn relocation_into_text_is_a_signed_rejection() {
    assert_signed_rejection(
        adversarial::relocation_into_text,
        "target bytes lie outside every writable data segment",
    );
}

#[test]
fn exec_bytes_past_a_one_byte_text_are_inspected() {
    // The segment, not the section, is the text: the bytes after the
    // one-byte `.text` are decoded, and their `ud2` is refused.
    assert_signed_rejection(
        adversarial::exec_bytes_past_text,
        "privileged instruction at 0x1001",
    );
}

#[test]
fn entry_past_the_inspected_text_is_a_signed_rejection() {
    assert_signed_rejection(
        adversarial::entry_past_text,
        "entry point 0x1001 is not an instruction start",
    );
}

#[test]
fn data_segment_over_text_is_a_signed_rejection() {
    assert_signed_rejection(
        adversarial::data_segment_over_text,
        "shares a page with another segment",
    );
}

#[test]
fn segment_past_image_end_is_a_signed_rejection() {
    assert_signed_rejection(
        adversarial::segment_past_image_end,
        "file range lies outside the image",
    );
}

#[test]
fn segment_offset_near_u64_max_is_a_signed_rejection() {
    assert_signed_rejection(
        adversarial::segment_offset_near_u64_max,
        "file range lies outside the image",
    );
}

#[test]
fn wrapping_relocation_offset_is_a_signed_rejection() {
    assert_signed_rejection(
        adversarial::wrapping_relocation_offset,
        "target bytes lie outside every writable data segment",
    );
}

// ---- structural adversary --------------------------------------------

const PROP_BASE: u64 = 0x10_0000;
const PROP_REGION_PAGES: usize = 32;

/// Small generated workloads plus the structural fixtures' base.
fn mutation_bases() -> Vec<Vec<u8>> {
    let mut bases: Vec<Vec<u8>> = (0..3u64)
        .map(|i| {
            generate(&WorkloadSpec {
                target_instructions: 300 + 100 * i as usize,
                libc_functions_used: 6,
                jump_table_entries: 8,
                relocation_count: 2 + i as usize,
                data_bytes: 64,
                bss_bytes: 64,
                seed: 0x5EC + i,
                ..WorkloadSpec::default()
            })
            .image
        })
        .collect();
    bases.push(adversarial::structural_base());
    bases
}

/// A value a hostile client would try for a field that holds `old`.
fn interesting<R: Rng + ?Sized>(rng: &mut R, old: u64, image_len: u64) -> u64 {
    let small = rng.gen_range(0u64..64);
    match rng.gen_range(0u32..8) {
        0 => old.wrapping_add(small),
        1 => old.wrapping_sub(small),
        2 => old ^ (1 << rng.gen_range(0u32..64)),
        3 => TEXT_VADDR + rng.gen_range(0u64..0x3000),
        4 => rng.gen_range(0u64..8) * PAGE_SIZE as u64,
        5 => image_len.wrapping_add(small).wrapping_sub(32),
        6 => u64::MAX - small,
        _ => rng.gen(),
    }
}

fn read_u64(image: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(image[off..off + 8].try_into().expect("8 bytes"))
}

/// Overwrites the `width`-byte little-endian field at `off` with a
/// value chosen from its old one.
fn mutate_field<R: Rng + ?Sized>(rng: &mut R, image: &mut [u8], off: usize, width: usize) {
    let old = read_u64(image, off) & (u64::MAX >> (64 - 8 * width));
    let new = interesting(rng, old, image.len() as u64).to_le_bytes();
    image[off..off + width].copy_from_slice(&new[..width]);
}

/// Applies one to three mutations to program headers, `e_entry`, the
/// section table or the relocation entries of a well-formed `image`.
fn mutate<R: Rng + ?Sized>(rng: &mut R, image: &mut [u8]) {
    use engarde_elf::types::{PHDR_SIZE, RELA_SIZE, SHDR_SIZE};
    let elf = ElfFile::parse(image).expect("base parses");
    let phdrs = (elf.header().e_phoff as usize, elf.program_headers().len());
    let shdrs = (elf.header().e_shoff as usize, elf.sections().len());
    let relas = elf.section(".rela.dyn").map(|s| {
        (
            s.header.sh_offset as usize,
            s.header.sh_size as usize / RELA_SIZE,
        )
    });
    // (offset, width) of each field a mutation may target.
    const PHDR_FIELDS: [(usize, usize); 6] = [(0, 4), (4, 4), (8, 8), (16, 8), (32, 8), (40, 8)];
    const SHDR_FIELDS: [(usize, usize); 5] = [(4, 4), (8, 8), (16, 8), (24, 8), (32, 8)];
    const RELA_FIELDS: [(usize, usize); 3] = [(0, 8), (8, 8), (16, 8)];
    for _ in 0..rng.gen_range(1usize..4) {
        let (table, count, entry_size, fields): (usize, usize, usize, &[(usize, usize)]) =
            match (rng.gen_range(0u32..4), relas) {
                (0, _) => (phdrs.0, phdrs.1, PHDR_SIZE, &PHDR_FIELDS),
                (1, _) => (shdrs.0, shdrs.1, SHDR_SIZE, &SHDR_FIELDS),
                (2, Some((off, n))) if n > 0 => (off, n, RELA_SIZE, &RELA_FIELDS),
                _ => (24, 1, 0, &[(0, 8)]), // e_entry
            };
        let entry = rng.gen_range(0..count);
        let &(field, width) = pick(rng, fields);
        mutate_field(rng, image, table + entry * entry_size + field, width);
    }
}

fn fresh_enclave(m: &mut SgxMachine) -> EnclaveId {
    let size = ((1 + PROP_REGION_PAGES) * PAGE_SIZE) as u64;
    let id = m.ecreate(PROP_BASE, size).expect("ecreate");
    for p in 0..=PROP_REGION_PAGES {
        let va = PROP_BASE + (p * PAGE_SIZE) as u64;
        m.eadd(id, va, &[], PagePerms::RWX).expect("eadd");
    }
    m.einit(id).expect("einit");
    m.eenter(id).expect("eenter");
    id
}

/// A refusal the enclave signs as a rejection: not a protocol or SGX
/// failure, which inspection returns unsigned.
fn assert_signed_kind(stage: &str, err: &EngardeError) {
    assert!(
        !matches!(err, EngardeError::Protocol { .. } | EngardeError::Sgx(_)),
        "{stage} refused the image with an unsigned error: {err}"
    );
}

/// Either a signed-kind refusal, or an image whose executable pages
/// hold exactly the inspected text and whose entry the index knows.
fn load_and_map(m: &mut SgxMachine, id: EnclaveId, image: &[u8]) {
    let loaded = match load(m, id, image, &LoaderConfig::default()) {
        Ok(loaded) => loaded,
        Err(e) => return assert_signed_kind("load", &e),
    };
    let e_entry = loaded.elf.header().e_entry;
    assert!(
        loaded.index.contains(e_entry),
        "entry {e_entry:#x} not decoded"
    );
    let region_base = PROP_BASE + PAGE_SIZE as u64;
    let mapped = match map_and_relocate(
        m,
        id,
        &loaded.elf,
        &loaded.raw_image,
        region_base,
        PROP_REGION_PAGES,
    ) {
        Ok(mapped) => mapped,
        Err(e) => return assert_signed_kind("map", &e),
    };
    assert_eq!(mapped.entry, region_base + e_entry);
    let start = region_base + loaded.text_base();
    let lead = (start % PAGE_SIZE as u64) as usize;
    let mut want = vec![0u8; lead];
    want.extend_from_slice(loaded.text());
    want.resize(mapped.exec_pages.len() * PAGE_SIZE, 0);
    let got: Vec<u8> = mapped
        .exec_pages
        .iter()
        .flat_map(|&page| m.enclave_read(id, page, PAGE_SIZE).expect("exec page"))
        .collect();
    assert_eq!(
        mapped.exec_pages.first(),
        Some(&(start - lead as u64)),
        "exec pages start at the text's page"
    );
    assert!(
        got == want,
        "mapped exec bytes differ from the inspected text"
    );
}

#[test]
fn structural_mutations_are_refused_or_mapped_as_inspected() {
    let bases = mutation_bases();
    let machine = RefCell::new(SgxMachine::new(MachineConfig {
        epc_pages: 2 * (PROP_REGION_PAGES + 1),
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 0x5A,
    }));
    Property::new("structural_mutations_are_refused_or_mapped_as_inspected")
        .cases(512)
        .run(|rng| {
            let mut image = pick(rng, &bases).clone();
            mutate(rng, &mut image);
            let m = &mut *machine.borrow_mut();
            let id = fresh_enclave(m);
            load_and_map(m, id, &image);
            m.destroy_enclave(id).expect("destroy");
        });
}
