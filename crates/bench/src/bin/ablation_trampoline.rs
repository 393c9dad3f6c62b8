//! Ablation: malloc-trampoline batching granularity (§4).
//!
//! The paper's loader "reduce\[s\] the involved overhead by restricting
//! the calls to malloc by allocating a memory page at a time instead of
//! just a memory region for an instruction". This ablation measures the
//! disassembly stage under both strategies on every benchmark.

use engarde_bench::run_pipeline;
use engarde_core::loader::{AllocationStrategy, LoaderConfig};
use engarde_workloads::bench_suite::{PolicyFigure, PAPER_BENCHMARKS};

fn main() -> Result<(), engarde_bench::PipelineError> {
    println!("Ablation — instruction-buffer allocation strategy (disassembly cycles)\n");
    println!(
        "{:<12} {:>16} {:>16} {:>8}",
        "Benchmark", "page-per-call", "per-instruction", "slowdown"
    );
    for bench in &PAPER_BENCHMARKS {
        let paged = run_pipeline(
            bench,
            PolicyFigure::Fig5Ifcc, // cheapest policy: isolates the loader
            Some(LoaderConfig::default()),
            None,
        )?;
        let naive = run_pipeline(
            bench,
            PolicyFigure::Fig5Ifcc,
            Some(LoaderConfig {
                allocation: AllocationStrategy::PerInstruction,
                ..LoaderConfig::default()
            }),
            None,
        )?;
        println!(
            "{:<12} {:>16} {:>16} {:>7.1}x",
            bench.name,
            paged.stages.disassembly,
            naive.stages.disassembly,
            naive.stages.disassembly as f64 / paged.stages.disassembly as f64,
        );
    }
    println!("\nper-instruction malloc pays an EEXIT+EENTER (20K cycles) per record —");
    println!("the paper's page-at-a-time batching is what keeps disassembly viable.");
    Ok(())
}
