//! Emits the Fig. 3–5 comparison tables as EXPERIMENTS.md-ready
//! markdown (used to regenerate the documentation after recalibration).

use engarde_bench::{markdown_row, run_figure};
use engarde_workloads::bench_suite::PolicyFigure;

fn main() -> Result<(), engarde_bench::PipelineError> {
    for (title, figure) in [
        (
            "Fig. 3 — Library-linking policy",
            PolicyFigure::Fig3LibraryLinking,
        ),
        (
            "Fig. 4 — Stack-protection policy",
            PolicyFigure::Fig4StackProtection,
        ),
        (
            "Fig. 5 — Indirect function-call policy",
            PolicyFigure::Fig5Ifcc,
        ),
    ] {
        println!("## {title} (cycles)\n");
        println!("| Benchmark | #Inst (ours = paper) | Disassembly (ours) | (paper) | Policy (ours) | (paper) | Loading (ours) | (paper) | P/D ours | P/D paper |");
        println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
        for row in run_figure(figure)? {
            println!("{}", markdown_row(&row));
        }
        println!();
    }
    Ok(())
}
