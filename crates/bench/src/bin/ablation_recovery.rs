//! Ablation: the stripped-binary function-recovery enhancement
//! (paper §6, "Recognizing Functions in Binary Code").
//!
//! For each benchmark, strips the symbol table from the Fig. 4
//! (stack-protected) binary, runs the structural recogniser, and
//! reports coverage of the true function starts plus the recovery
//! cost in the cycle model — quantifying what the paper's "enhanced to
//! even consider stripped binaries" future work costs and delivers.

use engarde_core::loader::{load, LoaderConfig};
use engarde_core::symbols::SymbolHashTable;
use engarde_elf::build::{ElfBuilder, TEXT_VADDR};
use engarde_elf::parse::ElfFile;
use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::{MachineConfig, SgxMachine};
use engarde_sgx::perf::costs;
use engarde_workloads::bench_suite::{PolicyFigure, PAPER_BENCHMARKS};

fn main() {
    println!("Ablation — stripped-binary function recovery (paper §6 enhancement)\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>9} {:>14}",
        "Benchmark", "functions", "recovered", "matched", "coverage", "cost (cycles)"
    );
    for bench in &PAPER_BENCHMARKS {
        let w = bench.generate(PolicyFigure::Fig4StackProtection);
        let elf = ElfFile::parse(&w.image).expect("parses");
        let truth: Vec<u64> = elf.function_symbols().map(|s| s.symbol.st_value).collect();
        // Strip: rebuild with the same text, no symtab.
        let text = elf.exec_segment().file_bytes(&w.image).expect("text");
        let mut b = ElfBuilder::new();
        b.text(text.to_vec())
            .entry(elf.header().e_entry - TEXT_VADDR)
            .strip();
        let stripped = b.build();

        let mut m = SgxMachine::new(MachineConfig {
            epc_pages: 64,
            version: SgxVersion::V2,
            device_key_bits: 512,
            seed: 7,
        });
        let id = m.ecreate(0x10000, PAGE_SIZE as u64).expect("ecreate");
        m.eadd(id, 0x10000, b"engarde", PagePerms::RWX)
            .expect("eadd");
        m.eextend(id, 0x10000).expect("eextend");
        m.einit(id).expect("einit");
        m.eenter(id).expect("enter");
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

        let recovered: &SymbolHashTable = &loaded.symbols;
        let matched = truth
            .iter()
            .filter(|a| recovered.is_function_start(**a))
            .count();
        // Recovery cost per the loader's charge: one scan pass.
        let cost = loaded.insns.len() as u64 * costs::SCAN_PER_INSN;
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>8.1}% {:>14}",
            bench.name,
            truth.len(),
            recovered.len(),
            matched,
            matched as f64 * 100.0 / truth.len() as f64,
            cost,
        );
    }
    println!("\ncoverage is the fraction of true function starts the structural");
    println!("recogniser finds (entry + call targets + address-taken + prologues);");
    println!("cost is one linear scan — negligible next to disassembly.");
}
