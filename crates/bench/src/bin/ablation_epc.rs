//! Ablation: OpenSGX's stock limits vs the paper's configuration (§4).
//!
//! The paper raises OpenSGX's EPC from 2,000 to 32,000 pages and the
//! initial heap from 300 to 5,000 pages because "the client enclave
//! holds the client executable as well as its decoded instructions".
//! This ablation shows which benchmarks fit under which configuration.

use engarde_bench::{run_pipeline, PipelineError};
use engarde_core::loader::{LoaderConfig, OPENSGX_DEFAULT_HEAP_PAGES};
use engarde_workloads::bench_suite::{PolicyFigure, PAPER_BENCHMARKS};

fn main() {
    println!("Ablation — enclave heap for the instruction buffer\n");
    println!(
        "{:<12} {:>9} {:>14} {:>22} {:>22}",
        "Benchmark", "#Inst", "buffer pages", "stock heap (300 pg)", "paper heap (5000 pg)"
    );
    // Each rejection's cause, printed in full below the table.
    let mut causes = Vec::new();
    let mut cell = |result: Result<_, PipelineError>| match result {
        Ok(_) => "fits".to_string(),
        Err(e) => {
            causes.push(e.to_string());
            format!("REJECTED [{}]", causes.len())
        }
    };
    for bench in &PAPER_BENCHMARKS {
        let insns = bench.insns_fig5;
        // 64-byte records, 4096-byte pages.
        let buffer_pages = (insns * 64).div_ceil(4096);
        let stock = cell(run_pipeline(
            bench,
            PolicyFigure::Fig5Ifcc,
            Some(LoaderConfig {
                heap_pages: OPENSGX_DEFAULT_HEAP_PAGES,
                ..LoaderConfig::default()
            }),
            None,
        ));
        let paper = cell(run_pipeline(bench, PolicyFigure::Fig5Ifcc, None, None));
        println!(
            "{:<12} {:>9} {:>14} {:>22} {:>22}",
            bench.name, insns, buffer_pages, stock, paper
        );
    }
    println!();
    for (i, cause) in causes.iter().enumerate() {
        println!("[{}] {cause}", i + 1);
    }
    println!("\nevery benchmark above 300×64 = 19,200 instructions overflows OpenSGX's");
    println!("stock heap — exactly why the paper raised the limits.");
}
