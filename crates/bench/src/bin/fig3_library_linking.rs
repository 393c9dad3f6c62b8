//! Regenerates Fig. 3: performance of EnGarde checking the
//! library-linking policy across the seven paper benchmarks.

use engarde_bench::{print_figure, run_figure};
use engarde_workloads::bench_suite::PolicyFigure;

fn main() -> Result<(), engarde_bench::PipelineError> {
    let rows = run_figure(PolicyFigure::Fig3LibraryLinking)?;
    print_figure(
        "Fig. 3 — Library-linking policy (cycles; paper columns for comparison)",
        &rows,
    );
    Ok(())
}
