//! EnGarde's in-enclave loader: ELF validation, disassembly into the
//! dynamic instruction buffer, and symbol-hash-table construction (§4).
//!
//! The paper's loader checks the executable's header ("the signature as
//! well as the ELF class"), disassembles the text with the NaCl-derived
//! disassembler into "a dynamically allocated buffer that can hold all
//! the instructions", and reads the symbol tables into a hash table for
//! the policy modules.
//!
//! The text is the image's one executable `PT_LOAD`, as
//! [`ElfFile::parse`] validated it: the same bytes
//! [`crate::relocate::map_and_relocate`] maps executable and the same
//! file range [`crate::protocol::classify_pages`] calls code. Section
//! headers never decide what is decoded. [`LoadedBinary`] keeps no copy
//! of the text; [`LoadedBinary::text`] reads it out of the received
//! image. The entry point must be a decoded instruction start
//! ([`Validator::validate`]).
//!
//! The received image is parsed once and held once. An inspection parses
//! it, checks the declared page kinds against that parse, and hands the
//! same [`ElfFile`] and the buffer itself to the loader, which moves the
//! buffer into [`LoadedBinary::raw_image`]. [`load`] is the same loader
//! behind a parse of a borrowed image, for callers that hold no parse.
//!
//! Because in-enclave `malloc` exits the enclave through a trampoline,
//! the paper "reduce\[s\] the involved overhead by restricting the calls to
//! malloc by allocating a memory page at a time instead of just a memory
//! region for an instruction" — [`AllocationStrategy`] exposes both
//! choices so the ablation benchmark can quantify that decision.

// Offsets and sizes here come from the client's image.
#![deny(clippy::indexing_slicing)]

use crate::analysis::taint::{SecretClass, SecretRange};
use crate::error::EngardeError;
use crate::symbols::SymbolHashTable;
use engarde_elf::parse::ElfFile;
use engarde_sgx::epc::PAGE_SIZE;
use engarde_sgx::machine::{EnclaveId, SgxMachine};
use engarde_sgx::perf::costs;
use engarde_x86::index::InsnIndex;
use engarde_x86::insn::Insn;
use engarde_x86::validate::{ValidationReport, Validator};

/// How the instruction buffer grows.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AllocationStrategy {
    /// One `malloc` trampoline per buffer page (the paper's choice).
    #[default]
    PagePerCall,
    /// One `malloc` trampoline per instruction record (the naïve
    /// baseline the paper optimised away).
    PerInstruction,
}

/// Loader configuration.
#[derive(Clone, Copy, Debug)]
pub struct LoaderConfig {
    /// Heap pages available for the instruction buffer. The paper raises
    /// OpenSGX's initial heap from 300 to 5,000 pages.
    pub heap_pages: usize,
    /// Buffer growth strategy.
    pub allocation: AllocationStrategy,
    /// Recover function boundaries for stripped binaries instead of
    /// leaving the symbol table empty (the paper's §6 enhancement;
    /// boundary-based policies can then run, name-based ones still
    /// cannot).
    pub recover_stripped_symbols: bool,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        LoaderConfig {
            heap_pages: 5_000,
            allocation: AllocationStrategy::PagePerCall,
            recover_stripped_symbols: false,
        }
    }
}

/// OpenSGX's stock initial heap size in pages (the value the paper
/// found insufficient).
pub const OPENSGX_DEFAULT_HEAP_PAGES: usize = 300;

/// Offset of the channel-key/AES state block from the enclave base —
/// where EnGarde's bootstrap keeps the unwrapped session key and cipher
/// state. The taint pass treats this range as a secret source.
pub const KEY_STATE_OFFSET: u64 = 0x100;

/// Size of the channel-key/AES state block in bytes (RSA-unwrapped AES
/// key, CTR state, HMAC state).
pub const KEY_STATE_BYTES: u64 = 0x200;

/// The loader's output: everything the policy modules and the
/// relocation stage consume.
#[derive(Clone, Debug)]
pub struct LoadedBinary {
    /// The parsed ELF.
    pub elf: ElfFile,
    /// The instruction buffer (decoded text, in address order).
    pub insns: Vec<Insn>,
    /// Address → index into [`LoadedBinary::insns`], built once right
    /// after decoding. The validator, symbol recovery, the CFG and the
    /// policies all ask it instead of building their own maps.
    pub index: InsnIndex,
    /// The symbol hash table (addr → function name).
    pub symbols: SymbolHashTable,
    /// NaCl validation statistics.
    pub validation: ValidationReport,
    /// Instruction-buffer pages allocated.
    pub buffer_pages: usize,
    /// The received ELF image. [`LoadedBinary::text`] and the relocation
    /// stage read segment file ranges straight out of it.
    pub raw_image: Vec<u8>,
    /// The enclave's mapped virtual range `[base, end)`. The taint pass
    /// treats resolved stores outside it as leak sinks.
    pub enclave_range: (u64, u64),
    /// Secret-holding ranges known at load time (the channel-key state
    /// block). Provisioning extends this with the decrypted-content
    /// staging region; the taint policies judge exactly this set.
    pub secret_ranges: Vec<SecretRange>,
}

impl LoadedBinary {
    /// The inspected text: the executable segment's bytes, which are
    /// exactly the bytes mapped executable (hashing input for the
    /// library-linking policy).
    pub fn text(&self) -> &[u8] {
        self.elf
            .exec_segment()
            .file_bytes(&self.raw_image)
            .unwrap_or_default()
    }

    /// Virtual address of the text's first byte.
    pub fn text_base(&self) -> u64 {
        self.elf.exec_segment().p_vaddr
    }

    /// End of the text (exclusive virtual address). The parser checked
    /// that it does not overflow.
    pub fn text_end(&self) -> u64 {
        let text = self.elf.exec_segment();
        text.p_vaddr + text.p_memsz
    }
}

/// Runs the in-enclave loader over a received ELF image, charging all
/// work to `machine`'s cycle counter on behalf of `enclave`.
///
/// # Errors
///
/// Any header, format, PIE/static-linking, decode, or NaCl-validation
/// failure rejects the binary, as does an instruction buffer larger than
/// the configured heap.
pub fn load(
    machine: &mut SgxMachine,
    enclave: EnclaveId,
    image: &[u8],
    config: &LoaderConfig,
) -> Result<LoadedBinary, EngardeError> {
    let elf = ElfFile::parse(image)?;
    load_parsed(machine, enclave, elf, image.to_vec(), config)
}

/// [`load`] over an image already parsed into `elf`; `image` becomes
/// [`LoadedBinary::raw_image`] without a copy.
pub(crate) fn load_parsed(
    machine: &mut SgxMachine,
    enclave: EnclaveId,
    elf: ElfFile,
    image: Vec<u8>,
    config: &LoaderConfig,
) -> Result<LoadedBinary, EngardeError> {
    // ---- enclave geometry ---------------------------------------------
    // The loader runs inside the enclave, so its own mapped range and
    // key-state location are known facts, not guesses.
    let (encl_base, encl_size) = machine
        .enclave(enclave)
        .map(|e| (e.base(), e.size()))
        .ok_or_else(|| EngardeError::Protocol {
            what: format!("loader invoked for unknown enclave {enclave}"),
        })?;
    let enclave_range = (encl_base, encl_base + encl_size);
    let secret_ranges = vec![SecretRange {
        start: encl_base + KEY_STATE_OFFSET,
        end: encl_base + KEY_STATE_OFFSET + KEY_STATE_BYTES,
        class: SecretClass::ChannelKey,
    }];

    // ---- header checks -----------------------------------------------
    machine.counter_mut().charge_native(500); // header parse + checks
    elf.require_pie()?;
    elf.require_static()?;

    // ---- disassembly of the executable segment into the buffer ----------
    let text_base = elf.exec_segment().p_vaddr;
    let text = elf.exec_segment().file_bytes(&image).unwrap_or_default();
    let mut insns: Vec<Insn> = Vec::new();
    let mut offset = 0usize;
    let mut buffer_bytes = 0u64;
    let mut buffer_pages = 0usize;
    while let Some(rest) = text.get(offset..).filter(|rest| !rest.is_empty()) {
        let insn = engarde_x86::decode::decode_one(rest, text_base + offset as u64)?;
        machine
            .counter_mut()
            .charge_native(costs::DECODE_PER_INSN + costs::DECODE_PER_BYTE * insn.len as u64);
        // Grow the instruction buffer.
        match config.allocation {
            AllocationStrategy::PagePerCall => {
                if buffer_bytes.is_multiple_of(PAGE_SIZE as u64) {
                    buffer_pages += 1;
                    if buffer_pages > config.heap_pages {
                        return Err(EngardeError::OutOfEnclaveMemory {
                            what: "instruction buffer exceeds enclave heap",
                        });
                    }
                    machine.out_call(enclave)?; // malloc trampoline
                }
            }
            AllocationStrategy::PerInstruction => {
                machine.out_call(enclave)?; // malloc per record
                buffer_pages = (buffer_bytes / PAGE_SIZE as u64) as usize + 1;
                if buffer_pages > config.heap_pages {
                    return Err(EngardeError::OutOfEnclaveMemory {
                        what: "instruction buffer exceeds enclave heap",
                    });
                }
            }
        }
        buffer_bytes += costs::INSN_RECORD_BYTES;
        offset += insn.len as usize;
        insns.push(insn);
    }

    let index = InsnIndex::new(&insns);

    // ---- symbol hash table --------------------------------------------------
    let mut symbols = SymbolHashTable::from_elf(&elf);
    if symbols.is_empty() && config.recover_stripped_symbols {
        // §6 enhancement: structural function recovery. One extra pass
        // over the instruction buffer.
        machine
            .counter_mut()
            .charge_native(insns.len() as u64 * costs::SCAN_PER_INSN);
        symbols = SymbolHashTable::recover(&insns, &index, elf.header().e_entry);
    }
    machine
        .counter_mut()
        .charge_native(symbols.len() as u64 * costs::HASHTABLE_PROBE);

    // ---- NaCl structural validation ------------------------------------------
    machine.counter_mut().charge_native(insns.len() as u64 * 10);
    let validation =
        Validator::new().validate(&insns, &index, elf.header().e_entry, symbols.addresses())?;

    Ok(LoadedBinary {
        elf,
        insns,
        index,
        symbols,
        validation,
        buffer_pages,
        raw_image: image,
        enclave_range,
        secret_ranges,
    })
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use engarde_sgx::epc::PagePerms;
    use engarde_sgx::instr::SgxVersion;
    use engarde_sgx::machine::MachineConfig;
    use engarde_sgx::perf::SGX_INSTRUCTION_CYCLES;
    use engarde_workloads::generator::{generate, WorkloadSpec};

    fn machine_and_enclave() -> (SgxMachine, EnclaveId) {
        let mut m = SgxMachine::new(MachineConfig {
            epc_pages: 64,
            version: SgxVersion::V2,
            device_key_bits: 512,
            seed: 5,
        });
        let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
        m.eadd(id, 0x10000, b"engarde bootstrap", PagePerms::RWX)
            .expect("eadd");
        m.eextend(id, 0x10000).expect("eextend");
        m.einit(id).expect("einit");
        m.eenter(id).expect("enter");
        (m, id)
    }

    fn workload_image() -> Vec<u8> {
        generate(&WorkloadSpec {
            target_instructions: 6_000,
            ..WorkloadSpec::default()
        })
        .image
    }

    #[test]
    fn loads_generated_workload() {
        let (mut m, id) = machine_and_enclave();
        let image = workload_image();
        let loaded = load(&mut m, id, &image, &LoaderConfig::default()).expect("loads");
        assert_eq!(loaded.insns.len(), 6_000);
        assert!(!loaded.symbols.is_empty());
        assert_eq!(loaded.validation.instructions, 6_000);
        // 6000 records × 64 B = 384 KB = 94 pages.
        assert_eq!(loaded.buffer_pages, 94);
    }

    #[test]
    fn charges_one_trampoline_per_buffer_page() {
        let (mut m, id) = machine_and_enclave();
        let image = workload_image();
        let before_sgx = m.counter().sgx_instructions();
        let loaded = load(&mut m, id, &image, &LoaderConfig::default()).expect("loads");
        let sgx_delta = m.counter().sgx_instructions() - before_sgx;
        assert_eq!(
            sgx_delta as usize,
            loaded.buffer_pages * 2,
            "EEXIT+EENTER per page"
        );
    }

    #[test]
    fn per_instruction_allocation_is_far_more_expensive() {
        let image = workload_image();
        let (mut m1, id1) = machine_and_enclave();
        let base1 = m1.counter().total_cycles();
        load(&mut m1, id1, &image, &LoaderConfig::default()).expect("page-per-call");
        let page_cost = m1.counter().total_cycles() - base1;

        let (mut m2, id2) = machine_and_enclave();
        let base2 = m2.counter().total_cycles();
        load(
            &mut m2,
            id2,
            &image,
            &LoaderConfig {
                allocation: AllocationStrategy::PerInstruction,
                ..LoaderConfig::default()
            },
        )
        .expect("per-instruction");
        let insn_cost = m2.counter().total_cycles() - base2;
        assert!(
            insn_cost > page_cost * 5,
            "per-instruction {insn_cost} should dwarf page-per-call {page_cost}"
        );
        // The naïve strategy pays 2 SGX instructions per record.
        assert!(insn_cost > 6_000 * 2 * SGX_INSTRUCTION_CYCLES);
    }

    #[test]
    fn stock_heap_rejects_large_binaries() {
        // A 6,000-instruction binary needs 94 buffer pages — fine even
        // for the stock heap; shrink the heap to force the failure the
        // paper hit with OpenSGX's defaults on real workloads.
        let (mut m, id) = machine_and_enclave();
        let image = workload_image();
        let err = load(
            &mut m,
            id,
            &image,
            &LoaderConfig {
                heap_pages: 50,
                ..LoaderConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, EngardeError::OutOfEnclaveMemory { .. }));
    }

    #[test]
    fn rejects_non_pie() {
        let (mut m, id) = machine_and_enclave();
        let mut image = workload_image();
        image[16..18].copy_from_slice(&engarde_elf::types::ET_EXEC.to_le_bytes());
        let err = load(&mut m, id, &image, &LoaderConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            EngardeError::Elf(engarde_elf::ElfError::NotPie { .. })
        ));
    }

    #[test]
    fn rejects_garbage() {
        let (mut m, id) = machine_and_enclave();
        let err = load(&mut m, id, b"not an elf", &LoaderConfig::default()).unwrap_err();
        assert!(matches!(err, EngardeError::Elf(_)));
    }

    #[test]
    fn rejects_undecodable_text() {
        use engarde_elf::build::ElfBuilder;
        let (mut m, id) = machine_and_enclave();
        // 0x06 is invalid in 64-bit mode.
        let image = ElfBuilder::new().text(vec![0x06]).build();
        let err = load(&mut m, id, &image, &LoaderConfig::default()).unwrap_err();
        assert!(matches!(err, EngardeError::Disasm(_)));
    }

    #[test]
    fn rejects_syscall_in_text() {
        use engarde_elf::build::ElfBuilder;
        let (mut m, id) = machine_and_enclave();
        let image = ElfBuilder::new()
            .text(vec![0x0f, 0x05, 0xc3])
            .function("main", 0, 3)
            .build();
        let err = load(&mut m, id, &image, &LoaderConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            EngardeError::Disasm(engarde_x86::DisasmError::ForbiddenInstruction { .. })
        ));
    }

    #[test]
    fn stripped_binary_symbol_recovery() {
        let (mut m, id) = machine_and_enclave();
        // A stripped twin of a generated workload: same text, no symtab.
        let w = generate(&WorkloadSpec {
            target_instructions: 6_000,
            ..WorkloadSpec::default()
        });
        let elf = engarde_elf::parse::ElfFile::parse(&w.image).expect("parses");
        let text = elf.exec_segment().file_bytes(&w.image).expect("text");
        let mut b = engarde_elf::build::ElfBuilder::new();
        b.text(text.to_vec())
            .entry(elf.header().e_entry - engarde_elf::build::TEXT_VADDR)
            .strip();
        let stripped = b.build();

        // Default: without symbols there are no reachability roots.
        // Depending on how padding bridges the layout, the stripped
        // binary either loads with an empty symbol table (and gets
        // auto-rejected at policy time) or fails reachability outright.
        match load(&mut m, id, &stripped, &LoaderConfig::default()) {
            Ok(loaded) => assert!(loaded.symbols.is_empty()),
            Err(e) => assert!(matches!(
                e,
                EngardeError::Disasm(engarde_x86::DisasmError::Unreachable { .. })
            )),
        }

        // With recovery: boundaries come back with synthetic names
        // before validation runs, so the binary loads.
        let loaded = load(
            &mut m,
            id,
            &stripped,
            &LoaderConfig {
                recover_stripped_symbols: true,
                ..LoaderConfig::default()
            },
        )
        .expect("loads with recovery");
        assert!(loaded.symbols.len() > 50);
        assert!(loaded
            .symbols
            .iter()
            .all(|(_, name)| name.starts_with("recovered_fn_")));
    }
}
