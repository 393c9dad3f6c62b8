//! ELF64 reader with the validation EnGarde's loader performs (§4).
//!
//! The paper's loader "checks its header to verify that the executable is
//! correctly formatted", including "checking the signature as well as the
//! ELF class of the executable", requires position-independent,
//! statically-linked x86-64 executables, and then walks the segments,
//! symbol tables and the `.dynamic` section for relocation metadata.
//!
//! The `PT_LOAD` segments are the one view of what the image is: the
//! enclave decodes the bytes of the single executable segment, the page
//! kinds come from the segments' file ranges, and the mapper writes
//! exactly those ranges. [`ElfFile::parse`] validates every `PT_LOAD`
//! once, with checked arithmetic, and [`ElfFile::rela_entries`] refuses
//! any relocation that would patch bytes outside a writable,
//! non-executable segment. Sections only name things (symbols,
//! `.dynamic`); they never decide what is code.
//!
//! The parser copies no contents. A [`Section`] is a name and a header
//! whose file range `parse` checked against the image; its bytes are
//! read back out of that one image with [`Section::file_bytes`], the way
//! a segment's are with [`ProgramHeader::file_bytes`]. The symbol,
//! string and `.dynamic` tables are decoded straight from the borrowed
//! image, and [`ElfFile::rela_entries`] reads the relocation table from
//! the image it is given.
//!
//! # Examples
//!
//! ```
//! use engarde_elf::build::ElfBuilder;
//! use engarde_elf::parse::ElfFile;
//!
//! # fn main() -> Result<(), engarde_elf::ElfError> {
//! let image = ElfBuilder::new()
//!     .text(vec![0xc3])            // ret
//!     .entry(0)
//!     .build();
//! let elf = ElfFile::parse(&image)?;
//! let text = elf.exec_segment();
//! assert_eq!((text.p_vaddr, text.p_filesz), (0x1000, 1));
//! # Ok(())
//! # }
//! ```

// Every offset and size here comes from the client's image.
#![deny(clippy::indexing_slicing)]

use crate::types::*;
use crate::ElfError;

/// A parsed section: its name and header. It holds no bytes; its
/// contents are the file range the header names, which
/// [`ElfFile::parse`] checked lies inside the image.
#[derive(Clone, Debug)]
pub struct Section {
    /// Section name (e.g. `.text`).
    pub name: String,
    /// The raw section header.
    pub header: SectionHeader,
}

impl Section {
    /// The section's contents within `image`: empty for `SHT_NOBITS`
    /// and `SHT_NULL`, `None` when the file range does not lie inside
    /// `image` (which cannot happen for the image the section was
    /// parsed from).
    pub fn file_bytes<'a>(&self, image: &'a [u8]) -> Option<&'a [u8]> {
        if matches!(self.header.sh_type, SHT_NOBITS | SHT_NULL) {
            Some(&[])
        } else {
            header_bytes(&self.header, image)
        }
    }
}

/// A parsed symbol with its resolved name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedSymbol {
    /// Symbol name.
    pub name: String,
    /// The raw symbol entry.
    pub symbol: Symbol,
}

impl NamedSymbol {
    /// True for function symbols (`STT_FUNC`).
    pub fn is_function(&self) -> bool {
        self.symbol.sym_type() == STT_FUNC
    }
}

/// A fully parsed and validated ELF64 file.
#[derive(Clone, Debug)]
pub struct ElfFile {
    header: Elf64Header,
    program_headers: Vec<ProgramHeader>,
    exec: ProgramHeader,
    sections: Vec<Section>,
    symbols: Vec<NamedSymbol>,
    dynamic: Vec<Dyn>,
}

impl ElfFile {
    /// Parses and validates an ELF64 image.
    ///
    /// Performs the checks EnGarde's loader performs before disassembly:
    /// magic, 64-bit class, little-endian encoding, x86-64 machine,
    /// well-formed header tables, and a sound segment layout. Every
    /// `PT_LOAD` must have its file range inside the image, no more file
    /// bytes than memory bytes, a virtual range that does not overflow
    /// and no page shared with another `PT_LOAD`; exactly one of them is
    /// executable, and it has no zero-filled tail.
    ///
    /// # Errors
    ///
    /// Returns a descriptive [`ElfError`] for any malformed or unsupported
    /// structure. Policy-level requirements (PIE, static linking, symbol
    /// presence) are separate checks: see [`ElfFile::require_pie`],
    /// [`ElfFile::require_static`] and [`ElfFile::symbols`].
    pub fn parse(data: &[u8]) -> Result<Self, ElfError> {
        if data.len() < EHDR_SIZE {
            return Err(ElfError::Truncated {
                what: "file header",
            });
        }
        const FH: &str = "file header";
        let [m0, m1, m2, m3, class, encoding, version] = read_array(data, 0, FH)?;
        if [m0, m1, m2, m3] != ELF_MAGIC {
            return Err(ElfError::BadMagic);
        }
        if class != ELFCLASS64 {
            return Err(ElfError::BadClass { class });
        }
        if encoding != ELFDATA2LSB {
            return Err(ElfError::BadEncoding { encoding });
        }
        if version != EV_CURRENT {
            return Err(ElfError::BadVersion { version });
        }
        let header = Elf64Header {
            e_type: read_u16(data, 16, FH)?,
            e_machine: read_u16(data, 18, FH)?,
            e_entry: read_u64(data, 24, FH)?,
            e_phoff: read_u64(data, 32, FH)?,
            e_shoff: read_u64(data, 40, FH)?,
            e_flags: read_u32(data, 48, FH)?,
            e_phnum: read_u16(data, 56, FH)?,
            e_shnum: read_u16(data, 60, FH)?,
            e_shstrndx: read_u16(data, 62, FH)?,
        };
        if header.e_machine != EM_X86_64 {
            return Err(ElfError::BadMachine {
                machine: header.e_machine,
            });
        }
        let phentsize = read_u16(data, 54, FH)? as usize;
        if header.e_phnum > 0 && phentsize != PHDR_SIZE {
            return Err(ElfError::BadTableEntry {
                what: "program header",
                size: phentsize,
            });
        }
        let shentsize = read_u16(data, 58, FH)? as usize;
        if header.e_shnum > 0 && shentsize != SHDR_SIZE {
            return Err(ElfError::BadTableEntry {
                what: "section header",
                size: shentsize,
            });
        }

        // Program headers.
        const PHT: &str = "program header table";
        let mut program_headers = Vec::with_capacity(header.e_phnum as usize);
        for i in 0..header.e_phnum as usize {
            let off = usize::try_from(header.e_phoff)
                .ok()
                .and_then(|base| base.checked_add(i * PHDR_SIZE))
                .ok_or(ElfError::Truncated { what: PHT })?;
            let p: [u8; PHDR_SIZE] = read_array(data, off, PHT)?;
            program_headers.push(ProgramHeader {
                p_type: read_u32(&p, 0, PHT)?,
                p_flags: read_u32(&p, 4, PHT)?,
                p_offset: read_u64(&p, 8, PHT)?,
                p_vaddr: read_u64(&p, 16, PHT)?,
                p_paddr: read_u64(&p, 24, PHT)?,
                p_filesz: read_u64(&p, 32, PHT)?,
                p_memsz: read_u64(&p, 40, PHT)?,
                p_align: read_u64(&p, 48, PHT)?,
            });
        }
        let exec = validate_load_segments(&program_headers, data)?;

        // Section headers.
        const SHT: &str = "section header table";
        let mut raw_sections = Vec::with_capacity(header.e_shnum as usize);
        for i in 0..header.e_shnum as usize {
            let off = usize::try_from(header.e_shoff)
                .ok()
                .and_then(|base| base.checked_add(i * SHDR_SIZE))
                .ok_or(ElfError::Truncated { what: SHT })?;
            let s: [u8; SHDR_SIZE] = read_array(data, off, SHT)?;
            raw_sections.push(SectionHeader {
                sh_name: read_u32(&s, 0, SHT)?,
                sh_type: read_u32(&s, 4, SHT)?,
                sh_flags: read_u64(&s, 8, SHT)?,
                sh_addr: read_u64(&s, 16, SHT)?,
                sh_offset: read_u64(&s, 24, SHT)?,
                sh_size: read_u64(&s, 32, SHT)?,
                sh_link: read_u32(&s, 40, SHT)?,
                sh_info: read_u32(&s, 44, SHT)?,
                sh_addralign: read_u64(&s, 48, SHT)?,
                sh_entsize: read_u64(&s, 56, SHT)?,
            });
        }

        // Section name string table.
        let shstrtab: &[u8] = if header.e_shnum > 0 {
            let sh = raw_sections
                .get(header.e_shstrndx as usize)
                .ok_or(ElfError::BadStringTable)?;
            header_bytes(sh, data).ok_or(ElfError::Truncated { what: "section" })?
        } else {
            &[]
        };

        // Every section's file range is checked here, once, so that
        // `Section::file_bytes` on this image never fails.
        let mut sections = Vec::with_capacity(raw_sections.len());
        for sh in raw_sections {
            let section = Section {
                name: str_at(shstrtab, sh.sh_name as usize)?,
                header: sh,
            };
            if section.file_bytes(data).is_none() {
                return Err(ElfError::Truncated { what: "section" });
            }
            sections.push(section);
        }
        let contents = |s: &Section| s.file_bytes(data).unwrap_or_default();

        // Symbol table (the paper's loader "reads the symbol tables to
        // keep track of the address and name of all the functions").
        let mut symbols = Vec::new();
        if let Some(symtab) = sections.iter().find(|s| s.header.sh_type == SHT_SYMTAB) {
            let strtab = sections
                .get(symtab.header.sh_link as usize)
                .map(contents)
                .ok_or(ElfError::BadStringTable)?;
            let table = contents(symtab);
            if table.len() % SYM_SIZE != 0 {
                return Err(ElfError::BadTableEntry {
                    what: "symbol",
                    size: table.len() % SYM_SIZE,
                });
            }
            const SYM: &str = "symbol table";
            for chunk in table.chunks(SYM_SIZE) {
                let sym = Symbol {
                    st_name: read_u32(chunk, 0, SYM)?,
                    st_info: read_u8(chunk, 4, SYM)?,
                    st_other: read_u8(chunk, 5, SYM)?,
                    st_shndx: read_u16(chunk, 6, SYM)?,
                    st_value: read_u64(chunk, 8, SYM)?,
                    st_size: read_u64(chunk, 16, SYM)?,
                };
                let name = str_at(strtab, sym.st_name as usize)?;
                symbols.push(NamedSymbol { name, symbol: sym });
            }
        }

        // .dynamic entries.
        let mut dynamic = Vec::new();
        if let Some(dyn_sec) = sections.iter().find(|s| s.header.sh_type == SHT_DYNAMIC) {
            let table = contents(dyn_sec);
            if table.len() % DYN_SIZE != 0 {
                return Err(ElfError::BadTableEntry {
                    what: "dynamic",
                    size: table.len() % DYN_SIZE,
                });
            }
            const DYN: &str = "dynamic section";
            for chunk in table.chunks(DYN_SIZE) {
                let d = Dyn {
                    d_tag: read_i64(chunk, 0, DYN)?,
                    d_val: read_u64(chunk, 8, DYN)?,
                };
                if d.d_tag == DT_NULL {
                    break;
                }
                dynamic.push(d);
            }
        }

        Ok(ElfFile {
            header,
            program_headers,
            exec,
            sections,
            symbols,
            dynamic,
        })
    }

    /// The parsed file header.
    pub fn header(&self) -> &Elf64Header {
        &self.header
    }

    /// All program headers.
    pub fn program_headers(&self) -> &[ProgramHeader] {
        &self.program_headers
    }

    /// Iterates over loadable (`PT_LOAD`) segments.
    pub fn load_segments(&self) -> impl Iterator<Item = &ProgramHeader> {
        self.program_headers.iter().filter(|ph| ph.is_load())
    }

    /// The one executable `PT_LOAD`: the bytes the loader decodes and
    /// the mapper maps executable. Its `p_filesz` equals its `p_memsz`.
    pub fn exec_segment(&self) -> &ProgramHeader {
        &self.exec
    }

    /// Iterates over loadable segments mapped both writable and
    /// executable — the W^X violations the `WxSegments` policy rejects.
    pub fn wx_segments(&self) -> impl Iterator<Item = &ProgramHeader> {
        self.load_segments().filter(|ph| ph.is_wx())
    }

    /// All sections (including the null section).
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Looks up a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// All symbols (empty when the binary is stripped).
    pub fn symbols(&self) -> &[NamedSymbol] {
        &self.symbols
    }

    /// Iterates over function symbols.
    pub fn function_symbols(&self) -> impl Iterator<Item = &NamedSymbol> {
        self.symbols.iter().filter(|s| s.is_function())
    }

    /// All `.dynamic` entries (up to but excluding `DT_NULL`).
    pub fn dynamic(&self) -> &[Dyn] {
        &self.dynamic
    }

    /// Returns the value of a `.dynamic` entry by tag.
    pub fn dynamic_value(&self, tag: i64) -> Option<u64> {
        self.dynamic
            .iter()
            .find(|d| d.d_tag == tag)
            .map(|d| d.d_val)
    }

    /// Ensures the binary is a position-independent executable (`ET_DYN`),
    /// as EnGarde requires.
    ///
    /// # Errors
    ///
    /// Returns [`ElfError::NotPie`] otherwise.
    pub fn require_pie(&self) -> Result<(), ElfError> {
        if self.header.e_type == ET_DYN {
            Ok(())
        } else {
            Err(ElfError::NotPie {
                e_type: self.header.e_type,
            })
        }
    }

    /// Ensures the binary is statically linked (no `PT_INTERP` segment,
    /// no `DT_NEEDED` dependencies), as EnGarde requires.
    ///
    /// # Errors
    ///
    /// Returns [`ElfError::NotStatic`] otherwise.
    pub fn require_static(&self) -> Result<(), ElfError> {
        if self.program_headers.iter().any(|p| p.p_type == PT_INTERP)
            || self.dynamic.iter().any(|d| d.d_tag == DT_NEEDED)
        {
            Err(ElfError::NotStatic)
        } else {
            Ok(())
        }
    }

    /// Parses the RELA relocation table referenced from `.dynamic`
    /// (`DT_RELA`/`DT_RELASZ`/`DT_RELAENT`), the way the paper's loader
    /// "acquires all the information that it needs for relocations from
    /// the .dynamic section".
    ///
    /// The table is read out of `image`, which must be the image this
    /// file was parsed from. Returns an empty vector when the binary has
    /// no relocations.
    ///
    /// # Errors
    ///
    /// Returns [`ElfError::BadRelocationTable`] if the `.dynamic` entries
    /// are inconsistent with the file contents,
    /// [`ElfError::BadRelocation`] for an entry that is not
    /// `R_X86_64_RELATIVE` or whose 8 target bytes do not lie inside one
    /// writable, non-executable `PT_LOAD` (relocation runs after
    /// inspection, so it must never touch code), and
    /// [`ElfError::Truncated`] when the table's section does not lie
    /// inside `image`.
    pub fn rela_entries(&self, image: &[u8]) -> Result<Vec<Rela>, ElfError> {
        let Some(rela_addr) = self.dynamic_value(DT_RELA) else {
            return Ok(Vec::new());
        };
        let size = self
            .dynamic_value(DT_RELASZ)
            .ok_or(ElfError::BadRelocationTable)?;
        let ent = self
            .dynamic_value(DT_RELAENT)
            .ok_or(ElfError::BadRelocationTable)?;
        if ent as usize != RELA_SIZE || size % ent != 0 {
            return Err(ElfError::BadRelocationTable);
        }
        let table_end = rela_addr
            .checked_add(size)
            .ok_or(ElfError::BadRelocationTable)?;
        // Find the section that contains the table by virtual address.
        let sec = self
            .sections
            .iter()
            .find(|s| {
                s.header.sh_addr <= rela_addr
                    && s.header
                        .sh_addr
                        .checked_add(s.header.sh_size)
                        .is_some_and(|sec_end| table_end <= sec_end)
                    && s.header.sh_type != SHT_NOBITS
            })
            .ok_or(ElfError::BadRelocationTable)?;
        let sec_bytes = sec
            .file_bytes(image)
            .ok_or(ElfError::Truncated { what: "section" })?;
        // The table's declared extent must lie inside the section's
        // actual bytes: a hostile sh_size larger than the file contents
        // fails closed here.
        let start = usize::try_from(rela_addr - sec.header.sh_addr)
            .map_err(|_| ElfError::BadRelocationTable)?;
        let table = usize::try_from(size)
            .ok()
            .and_then(|s| start.checked_add(s))
            .and_then(|end| sec_bytes.get(start..end))
            .ok_or(ElfError::BadRelocationTable)?;
        // Non-empty segments share no page, so the only one that can
        // hold an address is the last to start at or below it.
        let mut targets: Vec<&ProgramHeader> = self
            .load_segments()
            .filter(|ph| ph.is_writable() && !ph.is_executable() && ph.p_memsz > 0)
            .collect();
        targets.sort_unstable_by_key(|ph| ph.p_vaddr);
        const RELA: &str = "relocation table";
        table
            .chunks(RELA_SIZE)
            .map(|c| {
                let rela = Rela {
                    r_offset: read_u64(c, 0, RELA)?,
                    r_info: read_u64(c, 8, RELA)?,
                    r_addend: read_i64(c, 16, RELA)?,
                };
                let bad = |reason| ElfError::BadRelocation {
                    r_offset: rela.r_offset,
                    reason,
                };
                if rela.rel_type() != R_X86_64_RELATIVE {
                    return Err(bad("unsupported relocation type"));
                }
                let at = targets.partition_point(|ph| ph.p_vaddr <= rela.r_offset);
                let seg = at.checked_sub(1).and_then(|i| targets.get(i));
                if !seg.is_some_and(|ph| ph.contains_range(rela.r_offset, 8)) {
                    return Err(bad("target bytes lie outside every writable data segment"));
                }
                Ok(rela)
            })
            .collect()
    }
}

/// Checks every `PT_LOAD` and returns the one executable segment.
fn validate_load_segments(
    phdrs: &[ProgramHeader],
    image: &[u8],
) -> Result<ProgramHeader, ElfError> {
    let bad = |index, reason| ElfError::BadSegment { index, reason };
    // (first page, last page, index) of every non-empty segment.
    let mut pages = Vec::new();
    let mut exec = Vec::new();
    for (index, ph) in phdrs.iter().enumerate().filter(|(_, ph)| ph.is_load()) {
        if ph.file_bytes(image).is_none() {
            return Err(bad(index, "file range lies outside the image"));
        }
        if ph.p_filesz > ph.p_memsz {
            return Err(bad(index, "more file bytes than memory bytes"));
        }
        let end = ph
            .p_vaddr
            .checked_add(ph.p_memsz)
            .ok_or(bad(index, "virtual range overflows"))?;
        if ph.p_memsz > 0 {
            pages.push((ph.p_vaddr / PAGE_SIZE, (end - 1) / PAGE_SIZE, index));
        }
        if ph.is_executable() {
            exec.push((index, *ph));
        }
    }
    // Sorted by first page, two segments overlap only if some adjacent
    // pair does.
    pages.sort_unstable();
    let shared = pages.windows(2).find_map(|w| match w {
        [a, b] if b.0 <= a.1 => Some(b.2),
        _ => None,
    });
    if let Some(index) = shared {
        return Err(bad(index, "shares a page with another segment"));
    }
    match *exec.as_slice() {
        [(index, ph)] if ph.p_filesz != ph.p_memsz => {
            Err(bad(index, "executable segment has a zero-filled tail"))
        }
        [(_, ph)] => Ok(ph),
        _ => Err(ElfError::ExecSegmentCount { count: exec.len() }),
    }
}

/// The file range a section header names, whatever its type.
fn header_bytes<'a>(sh: &SectionHeader, image: &'a [u8]) -> Option<&'a [u8]> {
    let start = usize::try_from(sh.sh_offset).ok()?;
    let end = start.checked_add(usize::try_from(sh.sh_size).ok()?)?;
    image.get(start..end)
}

fn str_at(strtab: &[u8], offset: usize) -> Result<String, ElfError> {
    let rest = strtab.get(offset..).ok_or(ElfError::BadStringTable)?;
    let nul = rest
        .iter()
        .position(|&b| b == 0)
        .ok_or(ElfError::BadStringTable)?;
    let name = rest.get(..nul).ok_or(ElfError::BadStringTable)?;
    String::from_utf8(name.to_vec()).map_err(|_| ElfError::BadStringTable)
}

/// Fetches `N` bytes at `off`, failing closed on any out-of-range or
/// overflowing access. Every multi-byte read in this module goes through
/// here: a truncated or hostile image yields `ElfError::Truncated`, never
/// a slice-index panic inside the enclave.
fn read_array<const N: usize>(
    data: &[u8],
    off: usize,
    what: &'static str,
) -> Result<[u8; N], ElfError> {
    off.checked_add(N)
        .and_then(|end| data.get(off..end))
        .and_then(|bytes| bytes.try_into().ok())
        .ok_or(ElfError::Truncated { what })
}

fn read_u16(data: &[u8], off: usize, what: &'static str) -> Result<u16, ElfError> {
    Ok(u16::from_le_bytes(read_array(data, off, what)?))
}

fn read_u32(data: &[u8], off: usize, what: &'static str) -> Result<u32, ElfError> {
    Ok(u32::from_le_bytes(read_array(data, off, what)?))
}

fn read_u64(data: &[u8], off: usize, what: &'static str) -> Result<u64, ElfError> {
    Ok(u64::from_le_bytes(read_array(data, off, what)?))
}

fn read_i64(data: &[u8], off: usize, what: &'static str) -> Result<i64, ElfError> {
    Ok(i64::from_le_bytes(read_array(data, off, what)?))
}

fn read_u8(data: &[u8], off: usize, what: &'static str) -> Result<u8, ElfError> {
    data.get(off).copied().ok_or(ElfError::Truncated { what })
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::build::ElfBuilder;

    fn sample() -> Vec<u8> {
        ElfBuilder::new()
            .text(vec![0x90, 0x90, 0xc3]) // nop; nop; ret
            .data(vec![1, 2, 3, 4])
            .bss_size(32)
            .entry(0)
            .function("main", 0, 3)
            .relative_relocation(0x10, 0x20)
            .build()
    }

    #[test]
    fn parse_round_trip_basics() {
        let img = sample();
        let elf = ElfFile::parse(&img).expect("parse");
        assert_eq!(elf.header().e_type, ET_DYN);
        assert_eq!(elf.header().e_machine, EM_X86_64);
        elf.require_pie().expect("is PIE");
        elf.require_static().expect("is static");
        let text = elf.exec_segment();
        assert_eq!((text.p_vaddr, text.p_filesz), (0x1000, 3));
        let bytes = |name| elf.section(name).expect(name).file_bytes(&img);
        assert_eq!(bytes(".text"), Some(&[0x90, 0x90, 0xc3][..]));
        assert_eq!(bytes(".data"), Some(&[1, 2, 3, 4][..]));
        let bss = elf.section(".bss").expect("has .bss");
        assert_eq!(bss.header.sh_size, 32);
        assert_eq!(bss.file_bytes(&img), Some(&[][..]));
    }

    #[test]
    fn reads_against_a_shorter_image_fail_cleanly() {
        // Sections hold ranges, so their bytes are read after parsing;
        // an image other than the parsed one must give None or a typed
        // error, never a panic.
        let img = sample();
        let elf = ElfFile::parse(&img).expect("parse");
        let rela = elf.section(".rela.dyn").expect(".rela.dyn").header;
        let rela_end = (rela.sh_offset + rela.sh_size) as usize;
        let relas = elf.rela_entries(&img).expect("relocates");
        for cut in [0, EHDR_SIZE, rela_end - 1, rela_end, img.len() - 1] {
            let short = &img[..cut];
            for sec in elf.sections() {
                let whole = sec.file_bytes(&img).expect("in the parsed image");
                match sec.file_bytes(short) {
                    Some(bytes) => assert_eq!(bytes, whole, "{} at {cut}", sec.name),
                    None => assert!(sec.header.sh_offset + sec.header.sh_size > cut as u64),
                }
            }
            let want = if cut < rela_end {
                Err(ElfError::Truncated { what: "section" })
            } else {
                Ok(relas.clone())
            };
            assert_eq!(elf.rela_entries(short), want, "cut at {cut}");
        }
        // Zero-filled and null sections read as empty from any image.
        let bss = elf.section(".bss").expect("has .bss");
        assert_eq!(bss.file_bytes(&[]), Some(&[][..]));
        assert_eq!(elf.sections()[0].file_bytes(&[]), Some(&[][..]));
    }

    #[test]
    fn symbols_resolved() {
        let elf = ElfFile::parse(&sample()).expect("parse");
        let main = elf
            .function_symbols()
            .find(|s| s.name == "main")
            .expect("main symbol");
        assert!(main.is_function());
        assert_eq!(main.symbol.st_size, 3);
    }

    #[test]
    fn relocations_resolved() {
        let elf = ElfFile::parse(&sample()).expect("parse");
        let relas = elf.rela_entries(&sample()).expect("relas");
        assert_eq!(relas.len(), 1);
        assert_eq!(relas[0].rel_type(), R_X86_64_RELATIVE);
        assert_eq!(relas[0].r_addend, 0x20);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut img = sample();
        img[0] = 0x7e;
        assert!(matches!(ElfFile::parse(&img), Err(ElfError::BadMagic)));
    }

    #[test]
    fn rejects_32_bit_class() {
        let mut img = sample();
        img[4] = 1;
        assert!(matches!(
            ElfFile::parse(&img),
            Err(ElfError::BadClass { class: 1 })
        ));
    }

    #[test]
    fn rejects_big_endian() {
        let mut img = sample();
        img[5] = 2;
        assert!(matches!(
            ElfFile::parse(&img),
            Err(ElfError::BadEncoding { encoding: 2 })
        ));
    }

    #[test]
    fn rejects_wrong_machine() {
        let mut img = sample();
        img[18..20].copy_from_slice(&EM_386.to_le_bytes());
        assert!(matches!(
            ElfFile::parse(&img),
            Err(ElfError::BadMachine { machine: EM_386 })
        ));
    }

    #[test]
    fn rejects_truncated_file() {
        let img = sample();
        assert!(ElfFile::parse(&img[..40]).is_err());
        assert!(ElfFile::parse(&[]).is_err());
    }

    #[test]
    fn hostile_truncation_at_every_length_returns_err_not_panic() {
        // The fail-closed contract: a prefix of a valid image is hostile
        // input the in-enclave parser must answer with Err — a panic
        // would crash the inspector and fail open. Exhaustive over every
        // truncation point of the sample.
        let img = sample();
        for len in 0..img.len() {
            assert!(
                ElfFile::parse(&img[..len]).is_err(),
                "truncation to {len} bytes must be rejected"
            );
        }
        // The untruncated image still parses.
        assert!(ElfFile::parse(&img).is_ok());
    }

    #[test]
    fn hostile_rela_extent_is_rejected_not_panicking() {
        // Inflate DT_RELASZ so the declared table overruns its section:
        // the extent check must refuse it before any slice is taken.
        let img = sample();
        let elf = ElfFile::parse(&img).expect("parses");
        let dyn_sec = elf.section(".dynamic").expect(".dynamic");
        let dyn_off = dyn_sec.header.sh_offset as usize;
        let mut evil = img.clone();
        for entry in 0..dyn_sec.header.sh_size as usize / DYN_SIZE {
            let off = dyn_off + entry * DYN_SIZE;
            let tag = i64::from_le_bytes(evil[off..off + 8].try_into().expect("tag"));
            if tag == DT_RELASZ {
                // Huge but RELA_SIZE-aligned, so only the extent check
                // can stop it.
                let huge = (u64::MAX / RELA_SIZE as u64) * RELA_SIZE as u64;
                evil[off + 8..off + 16].copy_from_slice(&huge.to_le_bytes());
            }
        }
        let elf = ElfFile::parse(&evil).expect("header still parses");
        assert!(matches!(
            elf.rela_entries(&evil),
            Err(ElfError::BadRelocationTable)
        ));
    }

    #[test]
    fn hostile_section_extents_are_rejected_not_panicking() {
        // Point a section header's file extent past the end of the
        // image. Sections hold only ranges, so parse must still refuse
        // the range itself, not leave it to a later read.
        let img = sample();
        let header_shoff = u64::from_le_bytes(img[40..48].try_into().expect("shoff")) as usize;
        let truncated = Err(ElfError::Truncated { what: "section" });
        let mut evil = img.clone();
        // Section header 1: sh_offset at +24, sh_size at +32.
        let sh1 = header_shoff + SHDR_SIZE;
        evil[sh1 + 24..sh1 + 32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(ElfFile::parse(&evil).map(|_| ()), truncated);
        let mut evil = img;
        evil[sh1 + 32..sh1 + 40].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(ElfFile::parse(&evil).map(|_| ()), truncated);
    }

    /// Rewrites program header `index` of a built image in place.
    fn patch_phdr(img: &mut [u8], index: usize, f: impl FnOnce(&mut ProgramHeader)) {
        let elf = ElfFile::parse(img).expect("unpatched image parses");
        let mut ph = elf.program_headers()[index];
        f(&mut ph);
        let off = elf.header().e_phoff as usize + index * PHDR_SIZE;
        img[off..off + PHDR_SIZE].copy_from_slice(&ph.to_bytes());
    }

    fn segment_error(img: &[u8]) -> (usize, &'static str) {
        match ElfFile::parse(img) {
            Err(ElfError::BadSegment { index, reason }) => (index, reason),
            other => panic!("expected a segment error, got {other:?}"),
        }
    }

    // The sample's PT_LOADs: 0 = headers (R), 1 = text (RX), 2 = RW.

    #[test]
    fn segment_file_range_must_lie_inside_the_image() {
        let mut img = sample();
        let len = img.len() as u64;
        patch_phdr(&mut img, 0, |ph| {
            ph.p_filesz = len + 1;
            ph.p_memsz = len + 1;
        });
        assert_eq!(
            segment_error(&img),
            (0, "file range lies outside the image")
        );
        let mut img = sample();
        patch_phdr(&mut img, 0, |ph| ph.p_offset = u64::MAX - 4);
        assert_eq!(
            segment_error(&img),
            (0, "file range lies outside the image")
        );
    }

    #[test]
    fn segment_file_bytes_must_fit_its_memory() {
        let mut img = sample();
        patch_phdr(&mut img, 2, |ph| ph.p_memsz = ph.p_filesz - 1);
        assert_eq!(
            segment_error(&img),
            (2, "more file bytes than memory bytes")
        );
    }

    #[test]
    fn segment_virtual_range_must_not_overflow() {
        let mut img = sample();
        patch_phdr(&mut img, 2, |ph| ph.p_vaddr = u64::MAX - 8);
        assert_eq!(segment_error(&img), (2, "virtual range overflows"));
    }

    #[test]
    fn segments_must_not_share_a_page() {
        // The RW segment moved onto the text page.
        let mut img = sample();
        patch_phdr(&mut img, 2, |ph| ph.p_vaddr = 0x1800);
        assert_eq!(
            segment_error(&img),
            (2, "shares a page with another segment")
        );
        // A segment spanning past another one's page.
        let mut img = sample();
        patch_phdr(&mut img, 0, |ph| ph.p_memsz = 0x4000);
        assert_eq!(segment_error(&img).1, "shares a page with another segment");
    }

    #[test]
    fn exactly_one_executable_segment_without_a_tail() {
        let mut img = sample();
        patch_phdr(&mut img, 1, |ph| ph.p_flags = PF_R);
        assert!(matches!(
            ElfFile::parse(&img),
            Err(ElfError::ExecSegmentCount { count: 0 })
        ));
        let mut img = sample();
        patch_phdr(&mut img, 2, |ph| ph.p_flags |= PF_X);
        assert!(matches!(
            ElfFile::parse(&img),
            Err(ElfError::ExecSegmentCount { count: 2 })
        ));
        let mut img = sample();
        patch_phdr(&mut img, 1, |ph| ph.p_memsz += 1);
        assert_eq!(
            segment_error(&img),
            (1, "executable segment has a zero-filled tail")
        );
    }

    /// Rewrites the sample's one relocation entry.
    fn sample_with_rela(f: impl FnOnce(&mut Rela)) -> Result<Vec<Rela>, ElfError> {
        let mut img = sample();
        let elf = ElfFile::parse(&img).expect("parses");
        let rela = elf.section(".rela.dyn").expect(".rela.dyn");
        let off = rela.header.sh_offset as usize;
        let mut entry = elf.rela_entries(&img).expect("sample relocates")[0];
        f(&mut entry);
        img[off..off + RELA_SIZE].copy_from_slice(&entry.to_bytes());
        ElfFile::parse(&img)
            .expect("still parses")
            .rela_entries(&img)
    }

    #[test]
    fn relocations_only_patch_writable_data() {
        let reason = |r: Result<Vec<Rela>, ElfError>| match r {
            Err(ElfError::BadRelocation { reason, .. }) => reason,
            other => panic!("expected a relocation error, got {other:?}"),
        };
        let outside = "target bytes lie outside every writable data segment";
        // Into the text, into the read-only headers, wrapping, and
        // straddling the end of the RW segment.
        assert_eq!(reason(sample_with_rela(|r| r.r_offset = 0x1001)), outside);
        assert_eq!(reason(sample_with_rela(|r| r.r_offset = 0x10)), outside);
        assert_eq!(
            reason(sample_with_rela(|r| r.r_offset = 0xffff_ffff_ffff_f100)),
            outside
        );
        assert_eq!(
            reason(sample_with_rela(|r| r.r_offset = u64::MAX - 3)),
            outside
        );
        let elf = ElfFile::parse(&sample()).expect("parses");
        let rw = elf.load_segments().find(|p| p.is_writable()).expect("rw");
        let last = rw.p_vaddr + rw.p_memsz - 8;
        assert!(sample_with_rela(|r| r.r_offset = last).is_ok());
        assert_eq!(reason(sample_with_rela(|r| r.r_offset = last + 1)), outside);
        assert_eq!(
            reason(sample_with_rela(|r| r.r_info = Rela::info(0, R_X86_64_64))),
            "unsupported relocation type"
        );
    }

    #[test]
    fn rejects_non_pie() {
        let mut img = sample();
        img[16..18].copy_from_slice(&ET_EXEC.to_le_bytes());
        let elf = ElfFile::parse(&img).expect("parses");
        assert!(matches!(
            elf.require_pie(),
            Err(ElfError::NotPie { e_type: ET_EXEC })
        ));
    }

    #[test]
    fn detects_dynamic_linking() {
        let img = ElfBuilder::new()
            .text(vec![0xc3])
            .entry(0)
            .needed_library(1) // fake DT_NEEDED
            .build();
        let elf = ElfFile::parse(&img).expect("parses");
        assert!(matches!(elf.require_static(), Err(ElfError::NotStatic)));
    }

    #[test]
    fn stripped_binary_has_no_symbols() {
        let img = ElfBuilder::new().text(vec![0xc3]).entry(0).strip().build();
        let elf = ElfFile::parse(&img).expect("parses");
        assert!(elf.symbols().is_empty());
    }
}
