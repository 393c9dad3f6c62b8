//! Regenerates Fig. 4: performance of EnGarde checking the
//! stack-protection policy across the seven paper benchmarks.

use engarde_bench::{print_figure, run_figure};
use engarde_workloads::bench_suite::PolicyFigure;

fn main() -> Result<(), engarde_bench::PipelineError> {
    let rows = run_figure(PolicyFigure::Fig4StackProtection)?;
    print_figure(
        "Fig. 4 — Stack-protection policy (cycles; paper columns for comparison)",
        &rows,
    );
    Ok(())
}
