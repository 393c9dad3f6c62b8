//! ELF64 on-disk structures and constants (System V ABI, x86-64 psABI).
//!
//! Only the subset needed by EnGarde's loader and the workload generator
//! is modelled: file header, program headers, section headers, symbols,
//! RELA relocations and `.dynamic` entries — all little-endian ELF64.

/// ELF magic bytes.
pub const ELF_MAGIC: [u8; 4] = [0x7f, b'E', b'L', b'F'];
/// 64-bit ELF class.
pub const ELFCLASS64: u8 = 2;
/// Little-endian data encoding.
pub const ELFDATA2LSB: u8 = 1;
/// Current ELF version.
pub const EV_CURRENT: u8 = 1;
/// System V OS ABI.
pub const ELFOSABI_SYSV: u8 = 0;

/// Shared-object file type (PIE executables are `ET_DYN`).
pub const ET_DYN: u16 = 3;
/// Fixed-address executable (rejected by the loader: not PIE).
pub const ET_EXEC: u16 = 2;
/// Relocatable object file.
pub const ET_REL: u16 = 1;

/// AMD x86-64 machine.
pub const EM_X86_64: u16 = 62;
/// Intel 80386 machine (rejected: EnGarde supports x86-64 only).
pub const EM_386: u16 = 3;

/// The page size segments are laid out in: no two `PT_LOAD`s may share
/// one.
pub const PAGE_SIZE: u64 = 0x1000;

/// Size of the ELF64 file header.
pub const EHDR_SIZE: usize = 64;
/// Size of one ELF64 program header.
pub const PHDR_SIZE: usize = 56;
/// Size of one ELF64 section header.
pub const SHDR_SIZE: usize = 64;
/// Size of one ELF64 symbol-table entry.
pub const SYM_SIZE: usize = 24;
/// Size of one ELF64 RELA relocation entry.
pub const RELA_SIZE: usize = 24;
/// Size of one `.dynamic` entry.
pub const DYN_SIZE: usize = 16;

// Program header types.
/// Loadable segment.
pub const PT_LOAD: u32 = 1;
/// Dynamic-linking information segment.
pub const PT_DYNAMIC: u32 = 2;
/// Interpreter path segment (its presence means dynamic linking —
/// EnGarde requires statically-linked PIEs and rejects it).
pub const PT_INTERP: u32 = 3;

// Program header flags.
/// Executable segment.
pub const PF_X: u32 = 1;
/// Writable segment.
pub const PF_W: u32 = 2;
/// Readable segment.
pub const PF_R: u32 = 4;

// Section header types.
/// Inactive section header.
pub const SHT_NULL: u32 = 0;
/// Program-defined contents (e.g. `.text`, `.data`).
pub const SHT_PROGBITS: u32 = 1;
/// Symbol table.
pub const SHT_SYMTAB: u32 = 2;
/// String table.
pub const SHT_STRTAB: u32 = 3;
/// RELA relocation table.
pub const SHT_RELA: u32 = 4;
/// Dynamic-linking information.
pub const SHT_DYNAMIC: u32 = 6;
/// Zero-initialised section occupying no file space (`.bss`).
pub const SHT_NOBITS: u32 = 8;

// Section flags.
/// Section is writable at runtime.
pub const SHF_WRITE: u64 = 0x1;
/// Section occupies memory at runtime.
pub const SHF_ALLOC: u64 = 0x2;
/// Section contains executable instructions.
pub const SHF_EXECINSTR: u64 = 0x4;

// Symbol binding / type.
/// Local symbol binding.
pub const STB_LOCAL: u8 = 0;
/// Global symbol binding.
pub const STB_GLOBAL: u8 = 1;
/// Untyped symbol.
pub const STT_NOTYPE: u8 = 0;
/// Data-object symbol.
pub const STT_OBJECT: u8 = 1;
/// Function symbol.
pub const STT_FUNC: u8 = 2;

// Dynamic tags.
/// End of the `.dynamic` array.
pub const DT_NULL: i64 = 0;
/// Address of the RELA relocation table.
pub const DT_RELA: i64 = 7;
/// Total size in bytes of the RELA table.
pub const DT_RELASZ: i64 = 8;
/// Size in bytes of one RELA entry.
pub const DT_RELAENT: i64 = 9;
/// Shared library dependency (its presence means dynamic linking).
pub const DT_NEEDED: i64 = 1;

// x86-64 relocation types.
/// `B + A`: base-relative relocation, the one static PIEs need.
pub const R_X86_64_RELATIVE: u32 = 8;
/// `S + A`: direct 64-bit relocation.
pub const R_X86_64_64: u32 = 1;

/// ELF64 file header.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Elf64Header {
    /// Object file type (`ET_DYN` for PIE).
    pub e_type: u16,
    /// Target machine (`EM_X86_64`).
    pub e_machine: u16,
    /// Entry point virtual address.
    pub e_entry: u64,
    /// Program header table file offset.
    pub e_phoff: u64,
    /// Section header table file offset.
    pub e_shoff: u64,
    /// Processor-specific flags.
    pub e_flags: u32,
    /// Number of program headers.
    pub e_phnum: u16,
    /// Number of section headers.
    pub e_shnum: u16,
    /// Index of the section-name string table.
    pub e_shstrndx: u16,
}

impl Elf64Header {
    /// Serialises the header (with identification bytes) to 64 bytes.
    pub fn to_bytes(&self) -> [u8; EHDR_SIZE] {
        let mut out = [0u8; EHDR_SIZE];
        out[0..4].copy_from_slice(&ELF_MAGIC);
        out[4] = ELFCLASS64;
        out[5] = ELFDATA2LSB;
        out[6] = EV_CURRENT;
        out[7] = ELFOSABI_SYSV;
        out[16..18].copy_from_slice(&self.e_type.to_le_bytes());
        out[18..20].copy_from_slice(&self.e_machine.to_le_bytes());
        out[20..24].copy_from_slice(&1u32.to_le_bytes()); // e_version
        out[24..32].copy_from_slice(&self.e_entry.to_le_bytes());
        out[32..40].copy_from_slice(&self.e_phoff.to_le_bytes());
        out[40..48].copy_from_slice(&self.e_shoff.to_le_bytes());
        out[48..52].copy_from_slice(&self.e_flags.to_le_bytes());
        out[52..54].copy_from_slice(&(EHDR_SIZE as u16).to_le_bytes());
        out[54..56].copy_from_slice(&(PHDR_SIZE as u16).to_le_bytes());
        out[56..58].copy_from_slice(&self.e_phnum.to_le_bytes());
        out[58..60].copy_from_slice(&(SHDR_SIZE as u16).to_le_bytes());
        out[60..62].copy_from_slice(&self.e_shnum.to_le_bytes());
        out[62..64].copy_from_slice(&self.e_shstrndx.to_le_bytes());
        out
    }
}

/// ELF64 program (segment) header.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProgramHeader {
    /// Segment type (`PT_LOAD`, `PT_DYNAMIC`, …).
    pub p_type: u32,
    /// Permission flags (`PF_R | PF_W | PF_X`).
    pub p_flags: u32,
    /// File offset of the segment image.
    pub p_offset: u64,
    /// Virtual address of the segment.
    pub p_vaddr: u64,
    /// Physical address (unused; mirrors `p_vaddr`).
    pub p_paddr: u64,
    /// Bytes in the file image.
    pub p_filesz: u64,
    /// Bytes in memory (may exceed `p_filesz` for `.bss`).
    pub p_memsz: u64,
    /// Alignment.
    pub p_align: u64,
}

impl ProgramHeader {
    /// Whether this is a loadable (`PT_LOAD`) segment.
    pub fn is_load(&self) -> bool {
        self.p_type == PT_LOAD
    }

    /// Whether the segment is mapped writable (`PF_W`).
    pub fn is_writable(&self) -> bool {
        self.p_flags & PF_W != 0
    }

    /// Whether the segment is mapped executable (`PF_X`).
    pub fn is_executable(&self) -> bool {
        self.p_flags & PF_X != 0
    }

    /// The segment's file bytes within `image`, or `None` when they do
    /// not lie inside it. [`crate::parse::ElfFile::parse`] has checked
    /// every `PT_LOAD` against the image it parsed.
    pub fn file_bytes<'a>(&self, image: &'a [u8]) -> Option<&'a [u8]> {
        let start = usize::try_from(self.p_offset).ok()?;
        let end = start.checked_add(usize::try_from(self.p_filesz).ok()?)?;
        image.get(start..end)
    }

    /// Whether the segment's memory image holds the `len` bytes at
    /// virtual address `vaddr`, computed without overflow.
    pub fn contains_range(&self, vaddr: u64, len: u64) -> bool {
        match (
            vaddr.checked_add(len),
            self.p_vaddr.checked_add(self.p_memsz),
        ) {
            (Some(end), Some(seg_end)) => self.p_vaddr <= vaddr && end <= seg_end,
            _ => false,
        }
    }

    /// Whether the segment is simultaneously writable and executable —
    /// the W^X violation EnGarde's dynamic-code-generation ban targets.
    pub fn is_wx(&self) -> bool {
        self.is_writable() && self.is_executable()
    }

    /// Serialises the program header to 56 bytes.
    pub fn to_bytes(&self) -> [u8; PHDR_SIZE] {
        let mut out = [0u8; PHDR_SIZE];
        out[0..4].copy_from_slice(&self.p_type.to_le_bytes());
        out[4..8].copy_from_slice(&self.p_flags.to_le_bytes());
        out[8..16].copy_from_slice(&self.p_offset.to_le_bytes());
        out[16..24].copy_from_slice(&self.p_vaddr.to_le_bytes());
        out[24..32].copy_from_slice(&self.p_paddr.to_le_bytes());
        out[32..40].copy_from_slice(&self.p_filesz.to_le_bytes());
        out[40..48].copy_from_slice(&self.p_memsz.to_le_bytes());
        out[48..56].copy_from_slice(&self.p_align.to_le_bytes());
        out
    }
}

/// ELF64 section header.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SectionHeader {
    /// Offset of the section name in `.shstrtab`.
    pub sh_name: u32,
    /// Section type (`SHT_PROGBITS`, …).
    pub sh_type: u32,
    /// Section flags (`SHF_ALLOC`, …).
    pub sh_flags: u64,
    /// Virtual address.
    pub sh_addr: u64,
    /// File offset.
    pub sh_offset: u64,
    /// Section size in bytes.
    pub sh_size: u64,
    /// Link to another section (interpretation depends on type).
    pub sh_link: u32,
    /// Extra information (interpretation depends on type).
    pub sh_info: u32,
    /// Alignment.
    pub sh_addralign: u64,
    /// Entry size for table sections.
    pub sh_entsize: u64,
}

impl SectionHeader {
    /// Serialises the section header to 64 bytes.
    pub fn to_bytes(&self) -> [u8; SHDR_SIZE] {
        let mut out = [0u8; SHDR_SIZE];
        out[0..4].copy_from_slice(&self.sh_name.to_le_bytes());
        out[4..8].copy_from_slice(&self.sh_type.to_le_bytes());
        out[8..16].copy_from_slice(&self.sh_flags.to_le_bytes());
        out[16..24].copy_from_slice(&self.sh_addr.to_le_bytes());
        out[24..32].copy_from_slice(&self.sh_offset.to_le_bytes());
        out[32..40].copy_from_slice(&self.sh_size.to_le_bytes());
        out[40..44].copy_from_slice(&self.sh_link.to_le_bytes());
        out[44..48].copy_from_slice(&self.sh_info.to_le_bytes());
        out[48..56].copy_from_slice(&self.sh_addralign.to_le_bytes());
        out[56..64].copy_from_slice(&self.sh_entsize.to_le_bytes());
        out
    }
}

/// ELF64 symbol-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Symbol {
    /// Offset of the symbol name in the linked string table.
    pub st_name: u32,
    /// Binding and type (`(binding << 4) | type`).
    pub st_info: u8,
    /// Visibility (unused here).
    pub st_other: u8,
    /// Index of the section the symbol is defined in.
    pub st_shndx: u16,
    /// Symbol value (virtual address for functions).
    pub st_value: u64,
    /// Symbol size in bytes.
    pub st_size: u64,
}

impl Symbol {
    /// Packs binding and type into `st_info`.
    pub fn info(binding: u8, typ: u8) -> u8 {
        (binding << 4) | (typ & 0xf)
    }

    /// The symbol's type (`STT_FUNC`, …).
    pub fn sym_type(&self) -> u8 {
        self.st_info & 0xf
    }

    /// The symbol's binding (`STB_GLOBAL`, …).
    pub fn binding(&self) -> u8 {
        self.st_info >> 4
    }

    /// Serialises the symbol to 24 bytes.
    pub fn to_bytes(&self) -> [u8; SYM_SIZE] {
        let mut out = [0u8; SYM_SIZE];
        out[0..4].copy_from_slice(&self.st_name.to_le_bytes());
        out[4] = self.st_info;
        out[5] = self.st_other;
        out[6..8].copy_from_slice(&self.st_shndx.to_le_bytes());
        out[8..16].copy_from_slice(&self.st_value.to_le_bytes());
        out[16..24].copy_from_slice(&self.st_size.to_le_bytes());
        out
    }
}

/// ELF64 RELA relocation entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Rela {
    /// Virtual address the relocation patches.
    pub r_offset: u64,
    /// Symbol index (high 32 bits) and relocation type (low 32 bits).
    pub r_info: u64,
    /// Constant addend.
    pub r_addend: i64,
}

impl Rela {
    /// Builds `r_info` from a symbol index and relocation type.
    pub fn info(sym: u32, typ: u32) -> u64 {
        ((sym as u64) << 32) | typ as u64
    }

    /// The relocation type (`R_X86_64_RELATIVE`, …).
    pub fn rel_type(&self) -> u32 {
        self.r_info as u32
    }

    /// The symbol index.
    pub fn sym_index(&self) -> u32 {
        (self.r_info >> 32) as u32
    }

    /// Serialises the relocation to 24 bytes.
    pub fn to_bytes(&self) -> [u8; RELA_SIZE] {
        let mut out = [0u8; RELA_SIZE];
        out[0..8].copy_from_slice(&self.r_offset.to_le_bytes());
        out[8..16].copy_from_slice(&self.r_info.to_le_bytes());
        out[16..24].copy_from_slice(&self.r_addend.to_le_bytes());
        out
    }
}

/// ELF64 `.dynamic` entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Dyn {
    /// Entry tag (`DT_RELA`, …).
    pub d_tag: i64,
    /// Entry value or pointer.
    pub d_val: u64,
}

impl Dyn {
    /// Serialises the entry to 16 bytes.
    pub fn to_bytes(&self) -> [u8; DYN_SIZE] {
        let mut out = [0u8; DYN_SIZE];
        out[0..8].copy_from_slice(&self.d_tag.to_le_bytes());
        out[8..16].copy_from_slice(&self.d_val.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_serialisation_layout() {
        let h = Elf64Header {
            e_type: ET_DYN,
            e_machine: EM_X86_64,
            e_entry: 0x1000,
            e_phoff: 64,
            e_shoff: 0x2000,
            e_flags: 0,
            e_phnum: 4,
            e_shnum: 9,
            e_shstrndx: 8,
        };
        let b = h.to_bytes();
        assert_eq!(&b[0..4], &ELF_MAGIC);
        assert_eq!(b[4], ELFCLASS64);
        assert_eq!(u16::from_le_bytes([b[16], b[17]]), ET_DYN);
        assert_eq!(u16::from_le_bytes([b[18], b[19]]), EM_X86_64);
        assert_eq!(u64::from_le_bytes(b[24..32].try_into().unwrap()), 0x1000);
        assert_eq!(u16::from_le_bytes([b[52], b[53]]), EHDR_SIZE as u16);
    }

    #[test]
    fn symbol_info_packing() {
        let info = Symbol::info(STB_GLOBAL, STT_FUNC);
        let s = Symbol {
            st_info: info,
            ..Default::default()
        };
        assert_eq!(s.binding(), STB_GLOBAL);
        assert_eq!(s.sym_type(), STT_FUNC);
    }

    #[test]
    fn rela_info_packing() {
        let r = Rela {
            r_offset: 0x4000,
            r_info: Rela::info(7, R_X86_64_RELATIVE),
            r_addend: -16,
        };
        assert_eq!(r.rel_type(), R_X86_64_RELATIVE);
        assert_eq!(r.sym_index(), 7);
        let b = r.to_bytes();
        assert_eq!(i64::from_le_bytes(b[16..24].try_into().unwrap()), -16);
    }

    #[test]
    fn struct_sizes_match_abi() {
        assert_eq!(Elf64Header::default().to_bytes().len(), 64);
        assert_eq!(ProgramHeader::default().to_bytes().len(), 56);
        assert_eq!(SectionHeader::default().to_bytes().len(), 64);
        assert_eq!(Symbol::default().to_bytes().len(), 24);
        assert_eq!(Rela::default().to_bytes().len(), 24);
        assert_eq!(Dyn::default().to_bytes().len(), 16);
    }
}
