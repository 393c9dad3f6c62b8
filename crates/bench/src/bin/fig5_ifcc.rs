//! Regenerates Fig. 5: performance of EnGarde checking the indirect
//! function-call (IFCC) policy across the seven paper benchmarks.

use engarde_bench::{print_figure, run_figure};
use engarde_workloads::bench_suite::PolicyFigure;

fn main() -> Result<(), engarde_bench::PipelineError> {
    let rows = run_figure(PolicyFigure::Fig5Ifcc)?;
    print_figure(
        "Fig. 5 — Indirect function-call policy (cycles; paper columns for comparison)",
        &rows,
    );
    Ok(())
}
