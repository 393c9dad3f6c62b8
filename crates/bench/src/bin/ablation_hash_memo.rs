//! Ablation: per-call-site vs memoised function hashing in the
//! library-linking policy.
//!
//! The paper's policy re-hashes the callee for every direct call site
//! (Fig. 3's policy column dwarfs disassembly because of it). The
//! obvious fix is memoising per target; this ablation quantifies it.

use engarde_bench::run_pipeline;
use engarde_core::policy::{LibraryLinkingPolicy, PolicyModule};
use engarde_workloads::bench_suite::{PolicyFigure, PAPER_BENCHMARKS};
use engarde_workloads::libc::{Instrumentation, LibcLibrary};

fn main() -> Result<(), engarde_bench::PipelineError> {
    println!("Ablation — library-linking hashing strategy (policy-checking cycles)\n");
    println!(
        "{:<12} {:>16} {:>16} {:>8}",
        "Benchmark", "per-call-site", "memoised", "speedup"
    );
    let db = || LibcLibrary::build(Instrumentation::None).function_hashes();
    for bench in &PAPER_BENCHMARKS {
        let plain: Vec<Box<dyn PolicyModule>> =
            vec![Box::new(LibraryLinkingPolicy::new("musl-libc", db()))];
        let memo: Vec<Box<dyn PolicyModule>> = vec![Box::new(
            LibraryLinkingPolicy::new("musl-libc", db()).with_memoization(),
        )];
        let a = run_pipeline(bench, PolicyFigure::Fig3LibraryLinking, None, Some(plain))?;
        let b = run_pipeline(bench, PolicyFigure::Fig3LibraryLinking, None, Some(memo))?;
        println!(
            "{:<12} {:>16} {:>16} {:>7.1}x",
            bench.name,
            a.stages.policy_checking,
            b.stages.policy_checking,
            a.stages.policy_checking as f64 / b.stages.policy_checking as f64,
        );
    }
    println!("\nmemoisation preserves the verdict (same hashes compared) while removing");
    println!("the per-call-site rehashing the paper's implementation performs.");
    Ok(())
}
