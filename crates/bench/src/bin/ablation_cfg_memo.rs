//! Ablation: shared memoized CFG/dataflow analysis vs per-policy
//! rescans.
//!
//! Both the IFCC policy and the code-reachability policy consume the
//! static-analysis engine (CFG, constant propagation, reachability).
//! With the shared `AnalysisCache`, the first policy pays the full
//! analysis cost and the second reads the memo for free. The baseline
//! runs each policy alone, in its own pipeline with its own cache, so
//! each pays for the analysis in full; its cost is the sum of those
//! runs' policy-checking stages. This ablation quantifies the
//! memoization win on the combined ifcc + reachability
//! policy-checking stage.

use engarde_bench::run_pipeline;
use engarde_core::policy::{CodeReachability, IfccPolicy, PolicyModule};
use engarde_workloads::bench_suite::{PolicyFigure, PAPER_BENCHMARKS};

fn policies() -> Vec<Box<dyn PolicyModule>> {
    vec![
        Box::new(IfccPolicy::new()),
        Box::new(CodeReachability::new()),
    ]
}

fn main() -> Result<(), engarde_bench::PipelineError> {
    println!("Ablation — shared memoized analysis vs per-policy rescans");
    println!("(ifcc + code-reachability policy-checking cycles)\n");
    println!(
        "{:<12} {:>16} {:>16} {:>8}",
        "Benchmark", "per-policy", "shared-memo", "speedup"
    );
    for bench in &PAPER_BENCHMARKS {
        let mut rescans = 0;
        for policy in policies() {
            let run = run_pipeline(bench, PolicyFigure::Fig5Ifcc, None, Some(vec![policy]))?;
            rescans += run.stages.policy_checking;
        }
        let shared = run_pipeline(bench, PolicyFigure::Fig5Ifcc, None, Some(policies()))?
            .stages
            .policy_checking;
        println!(
            "{:<12} {:>16} {:>16} {:>7.1}x",
            bench.name,
            rescans,
            shared,
            rescans as f64 / shared as f64,
        );
    }
    println!("\nthe shared cache charges the CFG, dataflow, and reachability passes once");
    println!("per binary; every additional analysis-backed policy then checks for free.");
    Ok(())
}
