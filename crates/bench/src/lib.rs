//! # engarde-bench
//!
//! Harness regenerating every table and figure of the EnGarde paper's
//! evaluation (§5), plus ablations of the design choices DESIGN.md calls
//! out.
//!
//! Binaries:
//!
//! - `fig2_components` — the component-size table (Fig. 2),
//! - `fig3_library_linking` — the library-linking policy table (Fig. 3),
//! - `fig4_stack_protection` — the stack-protection table (Fig. 4),
//! - `fig5_ifcc` — the indirect-function-call table (Fig. 5),
//! - `ablation_trampoline` — malloc batching granularity,
//! - `ablation_hash_memo` — per-call-site vs memoised function hashing,
//! - `ablation_cfg_memo` — shared memoized CFG/dataflow analysis vs
//!   per-policy rescans,
//! - `ablation_epc` — stock OpenSGX limits vs the paper's configuration.
//!
//! The `bench_*` binaries (serve throughput, verdict cache, fault
//! recovery, taint analysis, store warm start) each write a
//! `BENCH_*.json`; they share the [`harness`] module.
//!
//! Every number comes out of the same full client↔provider protocol the
//! examples run, measured with the OpenSGX cost model (10K cycles per
//! SGX instruction, calibrated native costs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use engarde_core::client::Client;
use engarde_core::loader::LoaderConfig;
use engarde_core::policy::{IfccPolicy, LibraryLinkingPolicy, PolicyModule, StackProtectionPolicy};
use engarde_core::provider::CloudProvider;
use engarde_core::provision::{BootstrapSpec, StageCycles, DEFAULT_ENCLAVE_BASE};
use engarde_core::EngardeError;
use engarde_sgx::instr::SgxVersion;
use engarde_sgx::machine::MachineConfig;
use engarde_workloads::bench_suite::{PaperBenchmark, PolicyFigure, PAPER_BENCHMARKS};
use engarde_workloads::libc::{Instrumentation, LibcLibrary};

/// One row of the paper's Figs. 3–5: per-stage cycles for a benchmark.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Benchmark name.
    pub name: &'static str,
    /// `#Inst` (instructions in the loaded binary).
    pub instructions: usize,
    /// Measured stage cycles.
    pub stages: StageCycles,
    /// The paper's `(disassembly, policy, loading)` cycles for this row.
    pub paper: (u64, u64, u64),
}

/// The paper's Fig. 3 numbers: `(name, #inst, disassembly, policy,
/// loading)`.
pub const PAPER_FIG3: [(&str, usize, u64, u64, u64); 7] = [
    ("Nginx", 262_228, 694_405_019, 1_307_411_662, 128_696),
    ("401.bzip2", 24_112, 34_071_240, 148_922_245, 4_239),
    ("Graph-500", 100_411, 140_307_017, 246_669_796, 4_582),
    ("429.mcf", 12_903, 18_242_127, 123_895_553, 4_363),
    ("Memcached", 71_437, 137_372_517, 489_914_732, 8_115),
    ("Netperf", 51_403, 90_616_563, 367_356_878, 18_090),
    ("Otp-gen", 28_125, 42_823_024, 198_587_525, 5_388),
];

/// The paper's Fig. 4 numbers.
pub const PAPER_FIG4: [(&str, usize, u64, u64, u64); 7] = [
    ("Nginx", 271_106, 719_360_640, 713_772_098, 128_662),
    ("401.bzip2", 24_226, 34_292_136, 862_023_613, 4_206),
    ("Graph-500", 100_488, 140_588_361, 195_218_892, 4_548),
    ("429.mcf", 12_985, 18_288_921, 31_459_881, 4_330),
    ("Memcached", 71_677, 137_877_497, 325_442_403, 8_081),
    ("Netperf", 51_868, 91_577_335, 183_274_713, 18_057),
    ("Otp-gen", 28_217, 43_053_386, 217_302_816, 5_355),
];

/// The paper's Fig. 5 numbers.
pub const PAPER_FIG5: [(&str, usize, u64, u64, u64); 7] = [
    ("Nginx", 267_669, 821_734_999, 20_843_253, 128_668),
    ("401.bzip2", 24_201, 34_235_817, 1_751_276, 4_206),
    ("Graph-500", 100_424, 140_429_738, 7_014_913, 4_548),
    ("429.mcf", 12_903, 18_242_127, 1_177_429, 4_330),
    ("Memcached", 71_508, 138_231_446, 5_301_168, 8_081),
    ("Netperf", 51_431, 91_161_601, 3_775_318, 18_057),
    ("Otp-gen", 28_132, 42_829_680, 2_334_847, 5_355),
];

/// The paper's numbers for one figure row.
///
/// # Panics
///
/// Panics if `name` is not one of the seven paper benchmarks.
pub fn paper_row(figure: PolicyFigure, name: &str) -> (u64, u64, u64) {
    let table = match figure {
        PolicyFigure::Fig3LibraryLinking => &PAPER_FIG3,
        PolicyFigure::Fig4StackProtection => &PAPER_FIG4,
        PolicyFigure::Fig5Ifcc => &PAPER_FIG5,
    };
    table
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(_, _, d, p, l)| (d, p, l))
        .expect("benchmark in paper table")
}

/// The policy modules each figure's table measures.
pub fn policies_for(figure: PolicyFigure) -> Vec<Box<dyn PolicyModule>> {
    match figure {
        PolicyFigure::Fig3LibraryLinking => {
            let lib = LibcLibrary::build(Instrumentation::None);
            vec![Box::new(LibraryLinkingPolicy::new(
                "musl-libc",
                lib.function_hashes(),
            ))]
        }
        PolicyFigure::Fig4StackProtection => vec![Box::new(StackProtectionPolicy::new())],
        PolicyFigure::Fig5Ifcc => vec![Box::new(IfccPolicy::new())],
    }
}

/// Runs the full provisioning protocol for one benchmark binary under
/// one figure's policy, with optional loader and policy overrides.
///
/// # Errors
///
/// Propagates protocol failures (none are expected for the paper suite).
pub fn run_pipeline(
    bench: &PaperBenchmark,
    figure: PolicyFigure,
    loader: Option<LoaderConfig>,
    policies_override: Option<Vec<Box<dyn PolicyModule>>>,
) -> Result<FigureRow, EngardeError> {
    let workload = bench.generate(figure);
    let policies = policies_override.unwrap_or_else(|| policies_for(figure));
    let loader = loader.unwrap_or_default();
    let spec = BootstrapSpec::new(
        "EnGarde-1.0",
        loader,
        &policies,
        (workload.image.len() / 4096) * 2 + 64,
        512,
    );
    let mut provider = CloudProvider::new(MachineConfig {
        epc_pages: 16_384,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 0xBE7C,
    });
    let enclave = provider.create_engarde_enclave(spec.clone(), policies)?;
    let mut client = Client::new(
        workload.image,
        &spec,
        DEFAULT_ENCLAVE_BASE,
        provider.device_public_key(),
        0xBE7C ^ 1,
    );
    let nonce = client.challenge();
    let quote = provider.attest(enclave, nonce)?;
    let key = provider.enclave_public_key(enclave)?;
    client.verify_quote(&quote, &key)?;
    let wrapped = client.establish_channel(&key)?;
    provider.open_channel(enclave, &wrapped)?;
    for block in client.content_blocks()? {
        provider.deliver(enclave, &block)?;
    }
    let view = provider.inspect_and_provision(enclave)?;
    if !view.compliant {
        let detail = provider
            .signed_verdict(enclave)
            .map(|v| v.detail.clone())
            .unwrap_or_default();
        return Err(EngardeError::Protocol {
            what: format!("{} unexpectedly non-compliant: {detail}", bench.name),
        });
    }
    Ok(FigureRow {
        name: bench.name,
        instructions: view.instructions,
        stages: view.stages,
        paper: paper_row(figure, bench.name),
    })
}

/// Runs a whole figure's table (all seven benchmarks).
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn run_figure(figure: PolicyFigure) -> Result<Vec<FigureRow>, EngardeError> {
    PAPER_BENCHMARKS
        .iter()
        .map(|b| run_pipeline(b, figure, None, None))
        .collect()
}

/// Pretty-prints a figure's table next to the paper's numbers.
pub fn print_figure(title: &str, rows: &[FigureRow]) {
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
    println!(
        "{:<12} {:>8} | {:>13} {:>13} {:>7} | {:>13} {:>13} {:>7} | {:>5} {:>5}",
        "Benchmark",
        "#Inst",
        "Disasm",
        "Policy",
        "Load",
        "Disasm(ppr)",
        "Policy(ppr)",
        "Ld(ppr)",
        "P/D",
        "p/d",
    );
    for r in rows {
        let (pd, pp, pl) = r.paper;
        println!(
            "{:<12} {:>8} | {:>13} {:>13} {:>7} | {:>13} {:>13} {:>7} | {:>5.2} {:>5.2}",
            r.name,
            r.instructions,
            r.stages.disassembly,
            r.stages.policy_checking,
            r.stages.loading_relocation,
            pd,
            pp,
            pl,
            r.stages.policy_checking as f64 / r.stages.disassembly as f64,
            pp as f64 / pd as f64,
        );
    }
    println!();
}

/// Formats a row in EXPERIMENTS.md-friendly markdown.
pub fn markdown_row(r: &FigureRow) -> String {
    let (pd, pp, pl) = r.paper;
    format!(
        "| {} | {} | {} | {} | {} | {} | {} | {} | {:.2} | {:.2} |",
        r.name,
        r.instructions,
        r.stages.disassembly,
        pd,
        r.stages.policy_checking,
        pp,
        r.stages.loading_relocation,
        pl,
        r.stages.policy_checking as f64 / r.stages.disassembly as f64,
        pp as f64 / pd as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_have_seven_rows_each() {
        assert_eq!(PAPER_FIG3.len(), 7);
        assert_eq!(PAPER_FIG4.len(), 7);
        assert_eq!(PAPER_FIG5.len(), 7);
    }

    #[test]
    fn paper_row_lookup() {
        let (d, p, l) = paper_row(PolicyFigure::Fig3LibraryLinking, "Nginx");
        assert_eq!(d, 694_405_019);
        assert_eq!(p, 1_307_411_662);
        assert_eq!(l, 128_696);
    }

    #[test]
    fn mcf_pipeline_matches_paper_shape() {
        let mcf = PaperBenchmark::by_name("429.mcf").expect("mcf");
        let row =
            run_pipeline(mcf, PolicyFigure::Fig3LibraryLinking, None, None).expect("pipeline runs");
        assert_eq!(row.instructions, 12_903);
        // Shape: policy checking dominates disassembly for mcf (paper
        // ratio 6.8); loading is orders of magnitude below both.
        assert!(row.stages.policy_checking > row.stages.disassembly);
        assert!(row.stages.loading_relocation < row.stages.disassembly / 100);
    }

    #[test]
    fn ifcc_policy_is_cheap_for_mcf() {
        let mcf = PaperBenchmark::by_name("429.mcf").expect("mcf");
        let row = run_pipeline(mcf, PolicyFigure::Fig5Ifcc, None, None).expect("pipeline runs");
        // IFCC now pays the one-time CFG/dataflow analysis on top of its
        // scan, but policy checking stays well below disassembly.
        assert!(row.stages.policy_checking * 5 < row.stages.disassembly);
        // ...and the analysis really is charged (not an order of
        // magnitude cheaper than the scan it powers).
        assert!(row.stages.policy_checking * 100 > row.stages.disassembly);
    }
}
