//! The symbol hash table EnGarde builds while loading (§4).
//!
//! "Along with disassembling the executable, the loader also reads the
//! symbol tables to keep track of the address and name of all the
//! functions in the executable. It constructs a symbol hash table whose
//! key is the address of a function and value is the name of the
//! function. This symbol hash table could be used by the policy checking
//! component when it performs policy checks."

//! The module also carries EnGarde's *stripped-binary enhancement*
//! (paper §6, "Recognizing Functions in Binary Code"): binaries without
//! symbol tables are auto-rejected by default, but
//! [`SymbolHashTable::recover`] implements a structural
//! function-boundary recogniser so policies that only need *boundaries*
//! (stack protection, IFCC) can still run.

use engarde_elf::parse::ElfFile;
use engarde_x86::index::InsnIndex;
use engarde_x86::insn::{Insn, InsnKind};
use engarde_x86::reg::Reg;
use std::collections::HashMap;

/// Address-keyed function-name table plus the reverse index.
#[derive(Clone, Debug, Default)]
pub struct SymbolHashTable {
    by_addr: HashMap<u64, String>,
    by_name: HashMap<String, u64>,
    sorted_addrs: Vec<u64>,
}

impl SymbolHashTable {
    /// Builds the table from an ELF's function symbols.
    pub fn from_elf(elf: &ElfFile) -> Self {
        let mut t = SymbolHashTable::default();
        for sym in elf.function_symbols() {
            t.insert(sym.symbol.st_value, sym.name.clone());
        }
        t.finalize();
        t
    }

    /// Inserts one function. Call [`SymbolHashTable::finalize`] after the
    /// last insertion.
    pub fn insert(&mut self, addr: u64, name: String) {
        self.by_name.insert(name.clone(), addr);
        self.by_addr.insert(addr, name);
    }

    /// Rebuilds the sorted-address index (needed by
    /// [`SymbolHashTable::function_end`]).
    pub fn finalize(&mut self) {
        self.sorted_addrs = self.by_addr.keys().copied().collect();
        self.sorted_addrs.sort_unstable();
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.by_addr.len()
    }

    /// True when no functions are known (stripped binary).
    pub fn is_empty(&self) -> bool {
        self.by_addr.is_empty()
    }

    /// The function name at exactly `addr` — the paper's hash-table
    /// probe (policies charge [`engarde_sgx::perf::costs::HASHTABLE_PROBE`]
    /// per call).
    pub fn name_at(&self, addr: u64) -> Option<&str> {
        self.by_addr.get(&addr).map(String::as_str)
    }

    /// The address of a named function.
    pub fn addr_of(&self, name: &str) -> Option<u64> {
        self.by_name.get(name).copied()
    }

    /// True iff `addr` is the start of some function — the check the
    /// library-linking policy uses to stop hashing.
    pub fn is_function_start(&self, addr: u64) -> bool {
        self.by_addr.contains_key(&addr)
    }

    /// The start of the next function strictly after `addr`, if any —
    /// the natural end of the function beginning at `addr`.
    pub fn function_end(&self, addr: u64) -> Option<u64> {
        match self.sorted_addrs.binary_search(&(addr + 1)) {
            Ok(i) => Some(self.sorted_addrs[i]),
            Err(i) => self.sorted_addrs.get(i).copied(),
        }
    }

    /// All function start addresses, sorted.
    pub fn addresses(&self) -> &[u64] {
        &self.sorted_addrs
    }

    /// Iterates `(addr, name)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &str)> {
        self.sorted_addrs
            .iter()
            .map(move |&a| (a, self.by_addr[&a].as_str()))
    }

    /// Recovers function boundaries from a **stripped** binary's
    /// instruction stream — the enhancement the paper sketches in §6:
    /// "As these techniques [function recognition in stripped binaries]
    /// develop and improve … EnGarde can be enhanced to even consider
    /// stripped binaries as enclave code."
    ///
    /// The recogniser is structural (no learning): a function start is
    ///
    /// 1. the entry point,
    /// 2. any direct-call target,
    /// 3. any address-taken code (`lea … (%rip)` target), or
    /// 4. a frame-setup prologue (`push %rbp; mov %rsp, %rbp`)
    ///    following a flow break (`ret`/`jmp`, possibly across padding
    ///    `nop`s).
    ///
    /// Recovered functions get synthetic names (`recovered_fn_<addr>`),
    /// so policies that match *names* (library linking) still cannot
    /// run — only boundary-based policies benefit.
    pub fn recover(insns: &[Insn], index: &InsnIndex, entry: u64) -> Self {
        // Every recovered start is an instruction start: mark it by
        // instruction index, then name the marks in address order.
        let mut starts = vec![false; insns.len()];
        let mut mark = |addr: u64| {
            if let Some(s) = index.get(addr).and_then(|i| starts.get_mut(i)) {
                *s = true;
            }
        };
        mark(entry);
        let mut flow_broken = true; // region start counts as a break
        for (i, insn) in insns.iter().enumerate() {
            if let InsnKind::DirectCall { target } | InsnKind::LeaRipRel { target, .. } = insn.kind
            {
                mark(target);
            }
            // Prologue after a flow break.
            if flow_broken && matches!(insn.kind, InsnKind::PushReg { reg: Reg::Rbp }) {
                let followed_by_frame_setup = insns.get(i + 1).is_some_and(|n| {
                    matches!(
                        n.kind,
                        InsnKind::MovRegToReg {
                            dest: Reg::Rbp,
                            src: Reg::Rsp,
                            ..
                        }
                    )
                });
                if followed_by_frame_setup {
                    mark(insn.addr);
                }
            }
            flow_broken = match insn.kind {
                InsnKind::Nop => flow_broken, // padding keeps the break alive
                k => k.ends_flow(),
            };
        }
        let mut table = SymbolHashTable::default();
        for (insn, _) in insns.iter().zip(&starts).filter(|(_, &s)| s) {
            let addr = insn.addr;
            table.insert(addr, format!("recovered_fn_{addr:#x}"));
        }
        table.finalize();
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SymbolHashTable {
        let mut t = SymbolHashTable::default();
        t.insert(0x1000, "alpha".into());
        t.insert(0x1040, "beta".into());
        t.insert(0x10c0, "gamma".into());
        t.finalize();
        t
    }

    #[test]
    fn lookups_both_ways() {
        let t = table();
        assert_eq!(t.name_at(0x1040), Some("beta"));
        assert_eq!(t.name_at(0x1041), None);
        assert_eq!(t.addr_of("gamma"), Some(0x10c0));
        assert_eq!(t.addr_of("delta"), None);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn function_boundaries() {
        let t = table();
        assert!(t.is_function_start(0x1000));
        assert!(!t.is_function_start(0x1001));
        assert_eq!(t.function_end(0x1000), Some(0x1040));
        assert_eq!(t.function_end(0x1040), Some(0x10c0));
        assert_eq!(
            t.function_end(0x10c0),
            None,
            "last function has no successor"
        );
    }

    #[test]
    fn iteration_in_address_order() {
        let t = table();
        let names: Vec<_> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
        assert_eq!(t.addresses(), &[0x1000, 0x1040, 0x10c0]);
    }

    #[test]
    fn empty_table() {
        let t = SymbolHashTable::default();
        assert!(t.is_empty());
        assert_eq!(t.function_end(0), None);
    }

    mod recovery {
        use super::super::*;
        use engarde_x86::decode::decode_all;
        use engarde_x86::encode::Assembler;
        use engarde_x86::reg::Reg;

        #[test]
        fn recovers_call_targets_and_prologues() {
            let mut asm = Assembler::new();
            let f1 = asm.label();
            let f2 = asm.label();
            // entry: calls f1, returns.
            asm.call_label(f1);
            asm.ret();
            // f1: canonical prologue, calls f2.
            asm.align_to(32);
            asm.bind(f1);
            asm.push_reg(Reg::Rbp);
            asm.mov_rr64(Reg::Rbp, Reg::Rsp);
            asm.call_label(f2);
            asm.pop_reg(Reg::Rbp);
            asm.ret();
            // f2: prologue after padding — found by the prologue rule
            // too, but here it is a call target anyway.
            asm.align_to(32);
            asm.bind(f2);
            asm.push_reg(Reg::Rbp);
            asm.mov_rr64(Reg::Rbp, Reg::Rsp);
            asm.pop_reg(Reg::Rbp);
            asm.ret();
            let f1_off = asm.label_offset(f1).expect("bound");
            let f2_off = asm.label_offset(f2).expect("bound");
            let code = asm.finish();
            let insns = decode_all(&code, 0).expect("decodes");
            let table = SymbolHashTable::recover(&insns, &InsnIndex::new(&insns), 0);
            assert!(table.is_function_start(0), "entry recovered");
            assert!(table.is_function_start(f1_off), "call target recovered");
            assert!(table.is_function_start(f2_off), "nested target recovered");
            assert!(table
                .name_at(f1_off)
                .expect("named")
                .starts_with("recovered_fn_"));
        }

        #[test]
        fn does_not_invent_starts_mid_flow() {
            // push %rbp; mov %rsp,%rbp in the MIDDLE of a function (no
            // preceding flow break) is not a function start.
            let mut asm = Assembler::new();
            asm.xor_rr32(Reg::Rax, Reg::Rax);
            asm.push_reg(Reg::Rbp);
            asm.mov_rr64(Reg::Rbp, Reg::Rsp);
            asm.pop_reg(Reg::Rbp);
            asm.ret();
            let code = asm.finish();
            let insns = decode_all(&code, 0).expect("decodes");
            let table = SymbolHashTable::recover(&insns, &InsnIndex::new(&insns), 0);
            assert_eq!(table.len(), 1, "only the entry: {:?}", table.addresses());
        }

        #[test]
        fn recovery_on_generated_workload_covers_real_functions() {
            use engarde_workloads::generator::{generate, WorkloadSpec};
            let w = generate(&WorkloadSpec {
                target_instructions: 6_000,
                ..WorkloadSpec::default()
            });
            let elf = engarde_elf::parse::ElfFile::parse(&w.image).expect("parses");
            let text = elf.exec_segment();
            let bytes = text.file_bytes(&w.image).expect("text in image");
            let insns = decode_all(bytes, text.p_vaddr).expect("decodes");
            let recovered =
                SymbolHashTable::recover(&insns, &InsnIndex::new(&insns), elf.header().e_entry);
            // Every real function with a frame prologue or a caller is
            // recovered; dispatcher-only coverage would already be >90%.
            let real: Vec<u64> = elf.function_symbols().map(|s| s.symbol.st_value).collect();
            let hits = real
                .iter()
                .filter(|a| recovered.is_function_start(**a))
                .count();
            assert!(
                hits * 100 >= real.len() * 90,
                "recovered {hits}/{} function starts",
                real.len()
            );
        }
    }
}
