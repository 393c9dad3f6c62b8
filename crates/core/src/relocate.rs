//! Loading and relocation (§4, "Loading").
//!
//! "After the executable has been checked and confirmed to follow certain
//! policies the loader takes over. The loader maps the text, data and bss
//! segments to the enclave memory … It then locates the sections that
//! require relocations … The loader acquires all the information that it
//! needs for relocations from the .dynamic section of the executable …
//! Upon completing relocation, the loader sets up a call stack and
//! transfers control to the executable."
//!
//! The segments this stage writes are the ones [`ElfFile::parse`]
//! validated, and the executable one holds exactly the bytes the loader
//! decoded and the policies judged: no other view of the image decides
//! what lands in the enclave. Each relocation patches 8 bytes inside a
//! writable, non-executable segment ([`ElfFile::rela_entries`]), so no
//! entry can rewrite inspected code, and `B + A` is computed with
//! checked arithmetic. The parsed [`ElfFile`] holds ranges, not bytes:
//! segment contents and the relocation table are read out of the
//! received image here, and an image that does not hold them is a
//! typed error.
//!
//! This stage's cycle cost is the paper's "Loading and Relocation"
//! column: tiny next to disassembly and policy checking, dominated by
//! per-page mapping work and per-entry relocation application (Nginx's
//! larger number comes from its relocation count).

// Offsets, sizes and addends here come from the client's image.
#![deny(clippy::indexing_slicing)]

use crate::error::EngardeError;
use engarde_elf::parse::ElfFile;
use engarde_elf::ElfError;
use engarde_sgx::epc::PAGE_SIZE;
use engarde_sgx::machine::{EnclaveId, SgxMachine};
use engarde_sgx::perf::costs;
use engarde_x86::DisasmError;

/// Result of mapping the client binary into the enclave.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MappedSegments {
    /// Enclave-linear addresses of executable pages (reported to the
    /// host so it can mark them X-not-W).
    pub exec_pages: Vec<u64>,
    /// Enclave-linear addresses of writable (data/bss) pages.
    pub rw_pages: Vec<u64>,
    /// Enclave-linear entry point.
    pub entry: u64,
    /// Relocation entries applied.
    pub relocations_applied: usize,
}

/// Maps the binary's `PT_LOAD` segments into the enclave's client region
/// at `region_base`, applies `R_X86_64_RELATIVE` relocations, and
/// returns the page lists for permission finalization.
///
/// Takes the parsed ELF and the raw received image directly (rather
/// than a full `LoadedBinary`) because this stage needs nothing from
/// disassembly — which is exactly what lets a verdict-cache hit skip
/// disassembly yet still pay for a fresh mapping.
///
/// # Errors
///
/// - [`EngardeError::OutOfEnclaveMemory`] if segments exceed
///   `region_pages`,
/// - [`EngardeError::Elf`] for relocation entries the parser refuses, a
///   `B + A` that overflows, or a `raw_image` other than the one `elf`
///   was parsed from: `elf` holds only validated ranges, and a segment
///   or relocation table that does not lie inside `raw_image` is
///   [`ElfError::Truncated`] rather than a read past its end,
/// - [`EngardeError::Disasm`] for an entry point outside the text,
/// - SGX errors for writes outside the committed region.
pub fn map_and_relocate(
    machine: &mut SgxMachine,
    enclave: EnclaveId,
    elf: &ElfFile,
    raw_image: &[u8],
    region_base: u64,
    region_pages: usize,
) -> Result<MappedSegments, EngardeError> {
    machine.counter_mut().charge_native(costs::LOAD_BASE);
    let page_size = PAGE_SIZE as u64;
    let region_bytes = (region_pages as u64).saturating_mul(page_size);
    let outside = || EngardeError::OutOfEnclaveMemory {
        what: "client segments exceed the committed client region",
    };

    // No two segments share a page (the parser checked), so each page
    // lands in exactly one of the two lists.
    let mut exec_pages = Vec::new();
    let mut rw_pages = Vec::new();
    for ph in elf.load_segments() {
        let seg_start = region_base.checked_add(ph.p_vaddr).ok_or_else(outside)?;
        let seg_end_mem = ph
            .p_vaddr
            .checked_add(ph.p_memsz)
            .filter(|&end| end <= region_bytes)
            .and_then(|end| region_base.checked_add(end))
            .ok_or_else(outside)?;
        // Copy file-backed bytes (bss is already zero in fresh pages).
        if ph.p_filesz > 0 {
            let data = ph.file_bytes(raw_image).ok_or(ElfError::Truncated {
                what: "loadable segment",
            })?;
            machine.enclave_write(enclave, seg_start, data)?;
        }
        // Record the segment's pages.
        let mut page = seg_start & !(page_size - 1);
        while page < seg_end_mem {
            machine.counter_mut().charge_native(costs::LOAD_PER_PAGE);
            if ph.is_executable() {
                exec_pages.push(page);
            } else {
                rw_pages.push(page);
            }
            page += page_size;
        }
    }

    // ---- relocations -----------------------------------------------------
    let relas = elf.rela_entries(raw_image)?;
    for rela in &relas {
        machine
            .counter_mut()
            .charge_native(costs::LOAD_PER_RELOCATION);
        let bad = |reason| ElfError::BadRelocation {
            r_offset: rela.r_offset,
            reason,
        };
        // B + A: the image's load base is the client region base.
        let value = region_base
            .checked_add_signed(rela.r_addend)
            .ok_or(bad("B + A overflows"))?;
        let slot = region_base
            .checked_add(rela.r_offset)
            .ok_or(bad("target address overflows"))?;
        machine.enclave_write(enclave, slot, &value.to_le_bytes())?;
    }

    // The validator checked that the entry is a decoded instruction
    // start; a mapping without that judgement (a cache hit) still never
    // computes an entry outside the mapped text.
    let e_entry = elf.header().e_entry;
    let entry = region_base
        .checked_add(e_entry)
        .filter(|_| elf.exec_segment().contains_range(e_entry, 1))
        .ok_or(DisasmError::BadEntry { addr: e_entry })?;
    Ok(MappedSegments {
        exec_pages,
        rw_pages,
        entry,
        relocations_applied: relas.len(),
    })
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::loader::{load, LoadedBinary, LoaderConfig};
    use engarde_sgx::epc::PagePerms;
    use engarde_sgx::instr::SgxVersion;
    use engarde_sgx::machine::MachineConfig;
    use engarde_workloads::generator::{generate, WorkloadSpec};

    const ENCLAVE_BASE: u64 = 0x100000;
    const REGION_PAGES: usize = 64;

    fn setup(image: &[u8]) -> (SgxMachine, EnclaveId, LoadedBinary, u64) {
        let mut m = SgxMachine::new(MachineConfig {
            epc_pages: 256,
            version: SgxVersion::V2,
            device_key_bits: 512,
            seed: 21,
        });
        let region_base = ENCLAVE_BASE + PAGE_SIZE as u64;
        let size = (1 + REGION_PAGES) * PAGE_SIZE;
        let id = m.ecreate(ENCLAVE_BASE, size as u64).expect("ecreate");
        m.eadd(id, ENCLAVE_BASE, b"bootstrap", PagePerms::RWX)
            .expect("eadd");
        m.eextend(id, ENCLAVE_BASE).expect("eextend");
        for p in 0..REGION_PAGES {
            let va = region_base + (p * PAGE_SIZE) as u64;
            m.eadd(id, va, &[], PagePerms::RWX).expect("eadd region");
            m.eextend(id, va).expect("eextend region");
        }
        m.einit(id).expect("einit");
        m.eenter(id).expect("enter");
        let loaded = load(&mut m, id, image, &LoaderConfig::default()).expect("loads");
        (m, id, loaded, region_base)
    }

    fn workload(relocs: usize) -> Vec<u8> {
        generate(&WorkloadSpec {
            target_instructions: 6_000,
            relocation_count: relocs,
            data_bytes: 2048,
            bss_bytes: 4096,
            ..WorkloadSpec::default()
        })
        .image
    }

    #[test]
    fn maps_segments_and_applies_relocations() {
        let image = workload(8);
        let (mut m, id, loaded, region_base) = setup(&image);
        let mapped = map_and_relocate(
            &mut m,
            id,
            &loaded.elf,
            &loaded.raw_image,
            region_base,
            REGION_PAGES,
        )
        .expect("maps");
        assert!(!mapped.exec_pages.is_empty());
        assert!(!mapped.rw_pages.is_empty());
        assert_eq!(mapped.relocations_applied, 8);
        assert_eq!(mapped.entry, region_base + loaded.elf.header().e_entry);
        // Text bytes landed at the mapped location.
        let got = m
            .enclave_read(id, region_base + loaded.text_base(), 16)
            .expect("read");
        assert_eq!(got, loaded.text()[..16]);
        // No page is both executable and writable.
        for p in &mapped.exec_pages {
            assert!(!mapped.rw_pages.contains(p));
        }
    }

    #[test]
    fn relocation_slots_contain_rebased_pointers() {
        let image = workload(4);
        let (mut m, id, loaded, region_base) = setup(&image);
        map_and_relocate(
            &mut m,
            id,
            &loaded.elf,
            &loaded.raw_image,
            region_base,
            REGION_PAGES,
        )
        .expect("maps");
        let relas = loaded.elf.rela_entries(&loaded.raw_image).expect("relas");
        for rela in relas {
            let got = m
                .enclave_read(id, region_base + rela.r_offset, 8)
                .expect("read slot");
            let value = u64::from_le_bytes(got.try_into().expect("8 bytes"));
            assert_eq!(value, (region_base as i64 + rela.r_addend) as u64);
        }
    }

    #[test]
    fn a_shorter_image_than_the_parsed_one_is_a_typed_error() {
        // The parse holds ranges, not bytes: every byte this stage
        // writes is read from `raw_image` afterwards. An image shorter
        // than the parsed one must fail with a typed error, or map the
        // same bytes when the cut loses none of them.
        let image = workload(8);
        let (mut m, id, loaded, region_base) = setup(&image);
        let full = map_and_relocate(&mut m, id, &loaded.elf, &image, region_base, REGION_PAGES)
            .expect("maps");
        let needed = loaded
            .elf
            .load_segments()
            .map(|ph| (ph.p_offset + ph.p_filesz) as usize)
            .max()
            .expect("segments");
        let text = loaded.elf.exec_segment();
        let mid_text = (text.p_offset + text.p_filesz / 2) as usize;
        for cut in [0, mid_text, needed - 1, needed] {
            let got = map_and_relocate(
                &mut m,
                id,
                &loaded.elf,
                &image[..cut],
                region_base,
                REGION_PAGES,
            );
            if cut < needed {
                assert!(
                    matches!(got, Err(EngardeError::Elf(ElfError::Truncated { .. }))),
                    "cut at {cut}: {got:?}"
                );
            } else {
                assert_eq!(got.expect("every mapped byte is present"), full);
            }
        }
    }

    #[test]
    fn oversized_binary_rejected() {
        let image = workload(0);
        let (mut m, id, loaded, region_base) = setup(&image);
        let err = map_and_relocate(&mut m, id, &loaded.elf, &loaded.raw_image, region_base, 2)
            .unwrap_err();
        assert!(matches!(err, EngardeError::OutOfEnclaveMemory { .. }));
    }

    #[test]
    fn loading_cost_scales_with_relocations() {
        let cost = |relocs: usize| {
            let image = workload(relocs);
            let (mut m, id, loaded, region_base) = setup(&image);
            let before = m.counter().total_cycles();
            map_and_relocate(
                &mut m,
                id,
                &loaded.elf,
                &loaded.raw_image,
                region_base,
                REGION_PAGES,
            )
            .expect("maps");
            m.counter().total_cycles() - before
        };
        let few = cost(0);
        let many = cost(200);
        assert!(many > few + 190 * costs::LOAD_PER_RELOCATION);
    }
}
