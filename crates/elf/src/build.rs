//! Programmatic ELF64 writer.
//!
//! The EnGarde paper evaluates on real binaries compiled with clang/LLVM;
//! this reproduction generates equivalent binaries synthetically (see
//! `engarde-workloads`). [`ElfBuilder`] produces genuine ELF64 PIE images
//! — file header, program headers, sections, symbol table, `.dynamic`
//! and RELA relocations — that [`crate::parse::ElfFile`] and EnGarde's
//! loader consume exactly as they would a compiler-produced binary.
//!
//! # Examples
//!
//! ```
//! use engarde_elf::build::ElfBuilder;
//! use engarde_elf::parse::ElfFile;
//!
//! # fn main() -> Result<(), engarde_elf::ElfError> {
//! let image = ElfBuilder::new()
//!     .text(vec![0x90, 0xc3])          // nop; ret
//!     .data(b"hello".to_vec())
//!     .function("entry", 0, 2)
//!     .entry(0)
//!     .build();
//! let parsed = ElfFile::parse(&image)?;
//! assert_eq!(parsed.function_symbols().count(), 1);
//! # Ok(())
//! # }
//! ```

use crate::types::*;

/// The default virtual address of `.text` in generated images.
pub const TEXT_VADDR: u64 = 0x1000;

fn align_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

#[derive(Clone, Debug)]
struct PendingSymbol {
    name: String,
    text_offset: u64,
    size: u64,
    typ: u8,
}

/// Builder for ELF64 position-independent executables.
///
/// Non-consuming: configuration methods take `&mut self` and return
/// `&mut Self`, and [`ElfBuilder::build`] takes `&self`, so one-liner and
/// incremental configuration both work.
#[derive(Clone, Debug, Default)]
pub struct ElfBuilder {
    text: Vec<u8>,
    data: Vec<u8>,
    bss_size: u64,
    entry_offset: u64,
    symbols: Vec<PendingSymbol>,
    relocations: Vec<(u64, i64)>,
    needed: Vec<u64>,
    strip: bool,
    e_machine: Option<u16>,
    wx_text: bool,
}

impl ElfBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the `.text` section contents.
    pub fn text(&mut self, bytes: Vec<u8>) -> &mut Self {
        self.text = bytes;
        self
    }

    /// Sets the `.data` section contents.
    pub fn data(&mut self, bytes: Vec<u8>) -> &mut Self {
        self.data = bytes;
        self
    }

    /// Sets the `.bss` size in bytes.
    pub fn bss_size(&mut self, size: u64) -> &mut Self {
        self.bss_size = size;
        self
    }

    /// Sets the entry point as an offset into `.text`.
    pub fn entry(&mut self, text_offset: u64) -> &mut Self {
        self.entry_offset = text_offset;
        self
    }

    /// Adds a function symbol at `text_offset` with the given size.
    pub fn function(&mut self, name: &str, text_offset: u64, size: u64) -> &mut Self {
        self.symbols.push(PendingSymbol {
            name: name.to_string(),
            text_offset,
            size,
            typ: STT_FUNC,
        });
        self
    }

    /// Adds an untyped (non-function) symbol at `text_offset`.
    pub fn notype_symbol(&mut self, name: &str, text_offset: u64, size: u64) -> &mut Self {
        self.symbols.push(PendingSymbol {
            name: name.to_string(),
            text_offset,
            size,
            typ: STT_NOTYPE,
        });
        self
    }

    /// Adds an `R_X86_64_RELATIVE` relocation patching eight bytes at
    /// `data_offset` (an offset into the data segment, which may fall in
    /// `.bss`) to `base + addend`.
    pub fn relative_relocation(&mut self, data_offset: u64, addend: i64) -> &mut Self {
        self.relocations.push((data_offset, addend));
        self
    }

    /// Adds a `DT_NEEDED` entry, marking the binary dynamically linked
    /// (used in tests: EnGarde rejects such binaries).
    pub fn needed_library(&mut self, strtab_offset: u64) -> &mut Self {
        self.needed.push(strtab_offset);
        self
    }

    /// Omits the symbol table (EnGarde auto-rejects stripped binaries
    /// when a policy needs symbols).
    pub fn strip(&mut self) -> &mut Self {
        self.strip = true;
        self
    }

    /// Marks the text segment writable as well as executable (W|X), for
    /// building binaries the `WxSegments` policy must reject.
    pub fn wx_text(&mut self) -> &mut Self {
        self.wx_text = true;
        self
    }

    /// Overrides `e_machine` (default `EM_X86_64`), for building invalid
    /// inputs.
    pub fn machine(&mut self, e_machine: u16) -> &mut Self {
        self.e_machine = Some(e_machine);
        self
    }

    /// Serialises the configured image.
    pub fn build(&self) -> Vec<u8> {
        // ----- layout ------------------------------------------------
        let text_off = TEXT_VADDR; // offset == vaddr for alloc content
        let text_size = self.text.len() as u64;

        let rw_off = align_up(text_off + text_size, PAGE_SIZE);
        let rela_bytes: Vec<u8> = {
            let data_vaddr_for_reloc = self.data_vaddr_internal(rw_off);
            self.relocations
                .iter()
                .flat_map(|&(off, addend)| {
                    Rela {
                        r_offset: data_vaddr_for_reloc + off,
                        r_info: Rela::info(0, R_X86_64_RELATIVE),
                        r_addend: addend,
                    }
                    .to_bytes()
                })
                .collect()
        };
        let has_dynamic = !self.relocations.is_empty() || !self.needed.is_empty();
        let rela_off = rw_off;
        let rela_size = rela_bytes.len() as u64;

        let dyn_entries: Vec<Dyn> = if has_dynamic {
            let mut v = Vec::new();
            for &n in &self.needed {
                v.push(Dyn {
                    d_tag: DT_NEEDED,
                    d_val: n,
                });
            }
            if !self.relocations.is_empty() {
                v.push(Dyn {
                    d_tag: DT_RELA,
                    d_val: rela_off,
                });
                v.push(Dyn {
                    d_tag: DT_RELASZ,
                    d_val: rela_size,
                });
                v.push(Dyn {
                    d_tag: DT_RELAENT,
                    d_val: RELA_SIZE as u64,
                });
            }
            v.push(Dyn {
                d_tag: DT_NULL,
                d_val: 0,
            });
            v
        } else {
            Vec::new()
        };
        let dyn_off = rela_off + rela_size;
        let dyn_size = (dyn_entries.len() * DYN_SIZE) as u64;
        let data_off = dyn_off + dyn_size;
        let data_size = self.data.len() as u64;
        let bss_vaddr = data_off + data_size;

        // Non-alloc tables follow the file image of the RW segment.
        let symtab_off = bss_vaddr; // file offset only
        let (symtab_bytes, strtab_bytes) = self.build_symtab();
        let strtab_off = symtab_off + symtab_bytes.len() as u64;

        // Section name string table.
        let mut shstrtab: Vec<u8> = vec![0];
        let mut name_off = |name: &str| -> u32 {
            let off = shstrtab.len() as u32;
            shstrtab.extend_from_slice(name.as_bytes());
            shstrtab.push(0);
            off
        };

        // ----- sections ----------------------------------------------
        let mut sections: Vec<SectionHeader> = vec![SectionHeader::default()]; // NULL
        let text_name = name_off(".text");
        sections.push(SectionHeader {
            sh_name: text_name,
            sh_type: SHT_PROGBITS,
            sh_flags: SHF_ALLOC | SHF_EXECINSTR,
            sh_addr: text_off,
            sh_offset: text_off,
            sh_size: text_size,
            sh_addralign: 16,
            ..Default::default()
        });
        let mut symtab_link_strtab = 0u32;
        let mut dynamic_index = None;
        if has_dynamic {
            if !self.relocations.is_empty() {
                let n = name_off(".rela.dyn");
                sections.push(SectionHeader {
                    sh_name: n,
                    sh_type: SHT_RELA,
                    sh_flags: SHF_ALLOC,
                    sh_addr: rela_off,
                    sh_offset: rela_off,
                    sh_size: rela_size,
                    sh_entsize: RELA_SIZE as u64,
                    sh_addralign: 8,
                    ..Default::default()
                });
            }
            let n = name_off(".dynamic");
            dynamic_index = Some(sections.len());
            sections.push(SectionHeader {
                sh_name: n,
                sh_type: SHT_DYNAMIC,
                sh_flags: SHF_ALLOC | SHF_WRITE,
                sh_addr: dyn_off,
                sh_offset: dyn_off,
                sh_size: dyn_size,
                sh_entsize: DYN_SIZE as u64,
                sh_addralign: 8,
                ..Default::default()
            });
        }
        let n = name_off(".data");
        sections.push(SectionHeader {
            sh_name: n,
            sh_type: SHT_PROGBITS,
            sh_flags: SHF_ALLOC | SHF_WRITE,
            sh_addr: data_off,
            sh_offset: data_off,
            sh_size: data_size,
            sh_addralign: 8,
            ..Default::default()
        });
        let n = name_off(".bss");
        sections.push(SectionHeader {
            sh_name: n,
            sh_type: SHT_NOBITS,
            sh_flags: SHF_ALLOC | SHF_WRITE,
            sh_addr: bss_vaddr,
            sh_offset: bss_vaddr,
            sh_size: self.bss_size,
            sh_addralign: 8,
            ..Default::default()
        });
        if !self.strip {
            let n = name_off(".symtab");
            let symtab_index = sections.len();
            sections.push(SectionHeader {
                sh_name: n,
                sh_type: SHT_SYMTAB,
                sh_flags: 0,
                sh_addr: 0,
                sh_offset: symtab_off,
                sh_size: symtab_bytes.len() as u64,
                sh_link: symtab_index as u32 + 1, // .strtab follows
                sh_info: 1,                       // one local (null) symbol
                sh_entsize: SYM_SIZE as u64,
                sh_addralign: 8,
            });
            symtab_link_strtab = symtab_index as u32 + 1;
            let n = name_off(".strtab");
            sections.push(SectionHeader {
                sh_name: n,
                sh_type: SHT_STRTAB,
                sh_offset: strtab_off,
                sh_size: strtab_bytes.len() as u64,
                sh_addralign: 1,
                ..Default::default()
            });
        }
        let shstr_name = name_off(".shstrtab");
        let shstrtab_off = strtab_off + strtab_bytes.len() as u64;
        let shstrtab_index = sections.len();
        sections.push(SectionHeader {
            sh_name: shstr_name,
            sh_type: SHT_STRTAB,
            sh_offset: shstrtab_off,
            sh_size: shstrtab.len() as u64,
            sh_addralign: 1,
            ..Default::default()
        });
        let _ = symtab_link_strtab;

        let shoff = align_up(shstrtab_off + shstrtab.len() as u64, 8);

        // ----- program headers ----------------------------------------
        let mut phdrs: Vec<ProgramHeader> = Vec::new();
        let phoff = EHDR_SIZE as u64;
        // Headers segment (R).
        phdrs.push(ProgramHeader {
            p_type: PT_LOAD,
            p_flags: PF_R,
            p_offset: 0,
            p_vaddr: 0,
            p_paddr: 0,
            p_filesz: 0, // fixed up below once we know the count
            p_memsz: 0,
            p_align: PAGE_SIZE,
        });
        // Text segment (RX; RWX only when a test explicitly asks for a
        // W^X violation via `wx_text`).
        phdrs.push(ProgramHeader {
            p_type: PT_LOAD,
            p_flags: if self.wx_text {
                PF_R | PF_W | PF_X
            } else {
                PF_R | PF_X
            },
            p_offset: text_off,
            p_vaddr: text_off,
            p_paddr: text_off,
            p_filesz: text_size,
            p_memsz: text_size,
            p_align: PAGE_SIZE,
        });
        // RW segment (.rela.dyn + .dynamic + .data + .bss).
        let rw_filesz = (dyn_off + dyn_size + data_size) - rw_off;
        phdrs.push(ProgramHeader {
            p_type: PT_LOAD,
            p_flags: PF_R | PF_W,
            p_offset: rw_off,
            p_vaddr: rw_off,
            p_paddr: rw_off,
            p_filesz: rw_filesz,
            p_memsz: rw_filesz + self.bss_size,
            p_align: PAGE_SIZE,
        });
        if dynamic_index.is_some() {
            phdrs.push(ProgramHeader {
                p_type: PT_DYNAMIC,
                p_flags: PF_R | PF_W,
                p_offset: dyn_off,
                p_vaddr: dyn_off,
                p_paddr: dyn_off,
                p_filesz: dyn_size,
                p_memsz: dyn_size,
                p_align: 8,
            });
        }
        let headers_size = EHDR_SIZE as u64 + (phdrs.len() * PHDR_SIZE) as u64;
        phdrs[0].p_filesz = headers_size;
        phdrs[0].p_memsz = headers_size;

        // ----- emit ----------------------------------------------------
        let header = Elf64Header {
            e_type: ET_DYN,
            e_machine: self.e_machine.unwrap_or(EM_X86_64),
            e_entry: TEXT_VADDR + self.entry_offset,
            e_phoff: phoff,
            e_shoff: shoff,
            e_flags: 0,
            e_phnum: phdrs.len() as u16,
            e_shnum: sections.len() as u16,
            e_shstrndx: shstrtab_index as u16,
        };

        let total = shoff as usize + sections.len() * SHDR_SIZE;
        let mut out = vec![0u8; total];
        out[..EHDR_SIZE].copy_from_slice(&header.to_bytes());
        for (i, p) in phdrs.iter().enumerate() {
            let off = phoff as usize + i * PHDR_SIZE;
            out[off..off + PHDR_SIZE].copy_from_slice(&p.to_bytes());
        }
        out[text_off as usize..(text_off + text_size) as usize].copy_from_slice(&self.text);
        out[rela_off as usize..(rela_off + rela_size) as usize].copy_from_slice(&rela_bytes);
        for (i, d) in dyn_entries.iter().enumerate() {
            let off = dyn_off as usize + i * DYN_SIZE;
            out[off..off + DYN_SIZE].copy_from_slice(&d.to_bytes());
        }
        out[data_off as usize..(data_off + data_size) as usize].copy_from_slice(&self.data);
        out[symtab_off as usize..symtab_off as usize + symtab_bytes.len()]
            .copy_from_slice(&symtab_bytes);
        out[strtab_off as usize..strtab_off as usize + strtab_bytes.len()]
            .copy_from_slice(&strtab_bytes);
        out[shstrtab_off as usize..shstrtab_off as usize + shstrtab.len()]
            .copy_from_slice(&shstrtab);
        for (i, s) in sections.iter().enumerate() {
            let off = shoff as usize + i * SHDR_SIZE;
            out[off..off + SHDR_SIZE].copy_from_slice(&s.to_bytes());
        }
        out
    }

    fn data_vaddr_internal(&self, rw_off: u64) -> u64 {
        // Mirrors the layout computed in build(): relocations target
        // offsets within the data+bss region, which begins after
        // .rela.dyn and .dynamic.
        let rela_size = (self.relocations.len() * RELA_SIZE) as u64;
        let has_dynamic = !self.relocations.is_empty() || !self.needed.is_empty();
        let dyn_count = if has_dynamic {
            let mut c = self.needed.len() + 1; // + DT_NULL
            if !self.relocations.is_empty() {
                c += 3;
            }
            c
        } else {
            0
        };
        rw_off + rela_size + (dyn_count * DYN_SIZE) as u64
    }

    fn build_symtab(&self) -> (Vec<u8>, Vec<u8>) {
        if self.strip {
            return (Vec::new(), Vec::new());
        }
        let mut strtab: Vec<u8> = vec![0];
        let mut symtab: Vec<u8> = Symbol::default().to_bytes().to_vec(); // null symbol
        for s in &self.symbols {
            let name_off = strtab.len() as u32;
            strtab.extend_from_slice(s.name.as_bytes());
            strtab.push(0);
            let sym = Symbol {
                st_name: name_off,
                st_info: Symbol::info(STB_GLOBAL, s.typ),
                st_other: 0,
                st_shndx: 1, // .text
                st_value: TEXT_VADDR + s.text_offset,
                st_size: s.size,
            };
            symtab.extend_from_slice(&sym.to_bytes());
        }
        (symtab, strtab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::ElfFile;

    #[test]
    fn empty_text_builds_and_parses() {
        let img = ElfBuilder::new().build();
        let elf = ElfFile::parse(&img).expect("parse");
        assert_eq!(elf.exec_segment().file_bytes(&img), Some(&[][..]));
    }

    #[test]
    fn entry_point_offset_applied() {
        let img = ElfBuilder::new().text(vec![0x90; 64]).entry(32).build();
        let elf = ElfFile::parse(&img).expect("parse");
        assert_eq!(elf.header().e_entry, TEXT_VADDR + 32);
    }

    #[test]
    fn load_segments_have_distinct_permissions() {
        let img = ElfBuilder::new()
            .text(vec![0xc3])
            .data(vec![0u8; 8])
            .build();
        let elf = ElfFile::parse(&img).expect("parse");
        let loads: Vec<_> = elf
            .program_headers()
            .iter()
            .filter(|p| p.p_type == PT_LOAD)
            .collect();
        assert_eq!(loads.len(), 3);
        assert!(loads.iter().any(|p| p.p_flags == PF_R));
        assert!(loads.iter().any(|p| p.p_flags == (PF_R | PF_X)));
        assert!(loads.iter().any(|p| p.p_flags == (PF_R | PF_W)));
        // No segment is both writable and executable.
        assert!(loads
            .iter()
            .all(|p| p.p_flags & (PF_W | PF_X) != (PF_W | PF_X)));
    }

    #[test]
    fn wx_text_builds_a_wx_segment() {
        let img = ElfBuilder::new()
            .text(vec![0xc3])
            .data(vec![0u8; 8])
            .wx_text()
            .build();
        let elf = ElfFile::parse(&img).expect("parse");
        let wx: Vec<_> = elf.wx_segments().collect();
        assert_eq!(wx.len(), 1);
        assert_eq!(wx[0].p_flags, PF_R | PF_W | PF_X);
        assert!(wx[0].is_wx() && wx[0].is_load());
        // The default build has none.
        let clean = ElfFile::parse(&ElfBuilder::new().text(vec![0xc3]).build()).expect("parse");
        assert_eq!(clean.wx_segments().count(), 0);
    }

    #[test]
    fn text_larger_than_a_page() {
        let text: Vec<u8> = (0..10_000).map(|i| (i % 256) as u8).collect();
        let img = ElfBuilder::new().text(text.clone()).build();
        let elf = ElfFile::parse(&img).expect("parse");
        assert_eq!(elf.exec_segment().file_bytes(&img), Some(&text[..]));
        // The RW segment begins on the next page boundary.
        let rw = elf
            .program_headers()
            .iter()
            .find(|p| p.p_type == PT_LOAD && p.p_flags == (PF_R | PF_W))
            .expect("rw segment");
        assert_eq!(rw.p_vaddr % 0x1000, 0);
        assert!(rw.p_vaddr >= TEXT_VADDR + 10_000);
    }

    #[test]
    fn multiple_symbols_in_order() {
        let img = ElfBuilder::new()
            .text(vec![0x90; 100])
            .function("f1", 0, 10)
            .function("f2", 10, 20)
            .notype_symbol("marker", 30, 0)
            .build();
        let elf = ElfFile::parse(&img).expect("parse");
        // Null symbol + 3.
        assert_eq!(elf.symbols().len(), 4);
        assert_eq!(elf.function_symbols().count(), 2);
        let f2 = elf.symbols().iter().find(|s| s.name == "f2").expect("f2");
        assert_eq!(f2.symbol.st_value, TEXT_VADDR + 10);
    }

    #[test]
    fn relocation_entries_round_trip() {
        let mut b = ElfBuilder::new();
        b.text(vec![0xc3]).data(vec![0u8; 64]);
        for i in 0..8 {
            b.relative_relocation(i * 8, (i * 0x100) as i64);
        }
        let img = b.build();
        let elf = ElfFile::parse(&img).expect("parse");
        let relas = elf.rela_entries(&img).expect("relas");
        assert_eq!(relas.len(), 8);
        for (i, r) in relas.iter().enumerate() {
            assert_eq!(r.r_addend, (i as i64) * 0x100);
            assert_eq!(r.rel_type(), R_X86_64_RELATIVE);
        }
        // Offsets are inside the RW segment.
        let rw = elf
            .program_headers()
            .iter()
            .find(|p| p.p_type == PT_LOAD && p.p_flags == (PF_R | PF_W))
            .expect("rw");
        for r in &relas {
            assert!(r.r_offset >= rw.p_vaddr);
            assert!(r.r_offset < rw.p_vaddr + rw.p_memsz);
        }
    }

    #[test]
    fn dynamic_segment_emitted_with_relocations() {
        let img = ElfBuilder::new()
            .text(vec![0xc3])
            .relative_relocation(0, 0)
            .build();
        let elf = ElfFile::parse(&img).expect("parse");
        assert!(elf.dynamic_value(DT_RELA).is_some());
        assert_eq!(elf.dynamic_value(DT_RELAENT), Some(RELA_SIZE as u64));
        assert!(elf.program_headers().iter().any(|p| p.p_type == PT_DYNAMIC));
    }

    #[test]
    fn no_dynamic_section_without_content() {
        let img = ElfBuilder::new().text(vec![0xc3]).build();
        let elf = ElfFile::parse(&img).expect("parse");
        assert!(elf.dynamic().is_empty());
        assert!(elf.section(".dynamic").is_none());
    }

    #[test]
    fn builder_is_reusable_and_chainable() {
        let mut b = ElfBuilder::new();
        b.text(vec![0x90]).data(vec![1]);
        let img1 = b.build();
        b.data(vec![2]);
        let img2 = b.build();
        assert_ne!(img1, img2);
        let elf2 = ElfFile::parse(&img2).expect("parse");
        let data = elf2.section(".data").expect(".data");
        assert_eq!(data.file_bytes(&img2), Some(&[2][..]));
    }
}
