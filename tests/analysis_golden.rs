//! Golden digests of everything cold inspection produces, for every
//! paper binary and every adversarial fixture and twin.
//!
//! `tests/determinism.rs` compares two runs of one build, so a change
//! to the loader, the CFG, constant propagation, taint or a policy that
//! is deterministic but moves a block, an edge, a resolved target, a
//! finding, a metered count or a model-cycle charge passes it. These
//! digests were recorded before the analyses shared one instruction
//! index, and they pin per subject:
//!
//! - `cfg`: blocks, edges, successor lists, indirect sites and wild
//!   branches;
//! - `reach`: per-block reachability, the analysis roots and the
//!   constant-resolved indirect targets;
//! - `valid`: the load-time `ValidationReport`;
//! - `taint`: findings and every taint counter;
//! - `cycles`: the loader's, the analysis's and the taint pass's
//!   model-cycle charges, and each policy's own;
//! - `policy`: each policy's report or rejection;
//! - `recover` (paper binaries): the stripped twin loaded with
//!   structural symbol recovery — recovered starts and validation.
//!
//! On a mismatch the test prints every line that moved. Regenerate the
//! file only for a change that is meant to move inspection output, and
//! say so where the change is described.

use engarde::crypto::sha256::Sha256;
use engarde::elf::build::{ElfBuilder, TEXT_VADDR};
use engarde::elf::parse::ElfFile;
use engarde::sgx::epc::{PagePerms, PAGE_SIZE};
use engarde::sgx::instr::SgxVersion;
use engarde::sgx::machine::{MachineConfig, SgxMachine};
use engarde::sgx::perf::CycleCounter;
use engarde::workloads::adversarial;
use engarde::workloads::bench_suite::{PolicyFigure, PAPER_BENCHMARKS};
use engarde::workloads::libc::{Instrumentation, LibcLibrary};
use engarde::x86::insn::Width;
use engarde::x86::reg::Reg;
use engarde_core::analysis::{ProgramAnalysis, TaintAnalysis};
use engarde_core::loader::{load, LoadedBinary, LoaderConfig};
use engarde_core::policy::{
    AnalysisCache, CodeReachability, IfccPolicy, LibraryLinkingPolicy, PolicyContext, PolicyModule,
    SecretDependentBranch, SecretLeakage, StackProtectionPolicy, WxSegments,
};
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("expected/analysis_golden.txt");

/// Enclave geometry of every subject: the loader's key-state block is
/// the secret source at `0x10100..0x10300`; `0x20000` lies outside
/// the enclave and `0x10800` inside it.
const ENCLAVE_BASE: u64 = 0x10000;
const SECRET: u64 = 0x10100;
const SINK_OUT: u64 = 0x20000;
const SINK_IN: u64 = 0x10800;
const SCRATCH: u64 = 0x10900;
const PTR: u64 = 0x10a00;

/// Accumulates one category's canonical bytes.
#[derive(Default)]
struct Pin(Vec<u8>);

impl Pin {
    fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    fn hex(&self) -> String {
        Sha256::digest(&self.0).to_hex()
    }
}

fn machine() -> (SgxMachine, engarde::sgx::machine::EnclaveId) {
    let mut m = SgxMachine::new(MachineConfig {
        epc_pages: 64,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 0x601D,
    });
    let id = m.ecreate(ENCLAVE_BASE, PAGE_SIZE as u64).expect("ecreate");
    m.eadd(id, ENCLAVE_BASE, b"engarde golden", PagePerms::RWX)
        .expect("eadd");
    m.eextend(id, ENCLAVE_BASE).expect("eextend");
    m.einit(id).expect("einit");
    m.eenter(id).expect("eenter");
    (m, id)
}

/// Loads `image`, returning the binary and the loader's model cycles.
fn load_with_cycles(image: &[u8], config: &LoaderConfig) -> Result<(LoadedBinary, u64), String> {
    let (mut m, id) = machine();
    let before = m.counter().total_cycles();
    let loaded = load(&mut m, id, image, config).map_err(|e| e.to_string())?;
    Ok((loaded, m.counter().total_cycles() - before))
}

fn validation_pin(pin: &mut Pin, loaded: &LoadedBinary) {
    let v = &loaded.validation;
    pin.usize(v.instructions)
        .usize(v.targets_checked)
        .usize(v.reachable)
        .usize(v.padding);
}

/// Every digest line for one subject.
fn pin_subject(out: &mut String, name: &str, image: &[u8], policies: &[Box<dyn PolicyModule>]) {
    let (loaded, load_cycles) = match load_with_cycles(image, &LoaderConfig::default()) {
        Ok(x) => x,
        Err(e) => {
            let mut pin = Pin::default();
            pin.str(&e);
            writeln!(out, "{name} load-error {}", pin.hex()).expect("write");
            return;
        }
    };

    // ---- CFG ----------------------------------------------------------
    let (analysis, analysis_cost) = ProgramAnalysis::compute(&loaded);
    let cfg = &analysis.cfg;
    let mut pin = Pin::default();
    pin.usize(cfg.blocks.len());
    for b in &cfg.blocks {
        pin.u64(b.start)
            .u64(b.end)
            .usize(b.insns.start)
            .usize(b.insns.end);
    }
    pin.usize(cfg.edges.len());
    for e in &cfg.edges {
        pin.usize(e.from).usize(e.to).str(&format!("{:?}", e.kind));
    }
    // Per block, its successor count and edge indices; a block's edges
    // are the next contiguous run of `cfg.edges`.
    pin.usize(cfg.blocks.len());
    let mut e = 0usize;
    for b in 0..cfg.blocks.len() {
        let succs = cfg.successors(b);
        pin.usize(succs.len());
        for _ in succs {
            pin.usize(e);
            e += 1;
        }
    }
    pin.usize(cfg.indirect_sites.len());
    for &i in &cfg.indirect_sites {
        pin.usize(i);
    }
    pin.usize(cfg.wild_branches.len());
    for &(i, t) in &cfg.wild_branches {
        pin.usize(i).u64(t);
    }
    writeln!(out, "{name} cfg {}", pin.hex()).expect("write");

    // ---- reachability + constants -------------------------------------
    let mut pin = Pin::default();
    pin.usize(analysis.reachable.len());
    for &r in &analysis.reachable {
        pin.u64(u64::from(r));
    }
    pin.usize(analysis.roots.len());
    for &r in &analysis.roots {
        pin.u64(r);
    }
    pin.usize(analysis.constants.resolved.len());
    for &(i, t) in &analysis.constants.resolved {
        pin.usize(i).u64(t);
    }
    pin.u64(analysis.constants.steps);
    writeln!(out, "{name} reach {}", pin.hex()).expect("write");

    // ---- validation -----------------------------------------------------
    let mut pin = Pin::default();
    validation_pin(&mut pin, &loaded);
    writeln!(out, "{name} valid {}", pin.hex()).expect("write");

    // ---- taint ------------------------------------------------------------
    let (taint, taint_cost) = TaintAnalysis::compute(&loaded, &analysis, &loaded.secret_ranges);
    let mut pin = Pin::default();
    pin.usize(taint.findings.len());
    for f in &taint.findings {
        pin.str(f.kind.name()).u64(f.addr).u64(f.sources.bits());
    }
    pin.u64(taint.scc_count)
        .u64(taint.fixpoint_iterations)
        .u64(taint.summaries_computed)
        .u64(taint.steps)
        .u64(taint.cell_steps)
        .u64(taint.spill_cells)
        .u64(taint.weak_updates);
    writeln!(out, "{name} taint {}", pin.hex()).expect("write");

    // ---- policies, each on its own meter over one shared memo ----------
    let cache = AnalysisCache::new();
    let mut memo_counter = CycleCounter::new();
    let mut ctx = PolicyContext::new(&loaded, &mut memo_counter, &cache);
    ctx.analysis();
    ctx.taint();
    let mut cycles = Pin::default();
    cycles
        .u64(load_cycles)
        .u64(analysis_cost)
        .u64(taint_cost)
        .u64(memo_counter.total_cycles());
    let mut outcomes = Pin::default();
    for policy in policies {
        let mut counter = CycleCounter::new();
        let mut ctx = PolicyContext::new(&loaded, &mut counter, &cache);
        match policy.check(&mut ctx) {
            Ok(report) => outcomes
                .str(report.policy)
                .usize(report.items_checked)
                .str(&report.detail),
            Err(e) => outcomes.str(policy.name()).str(&e.to_string()),
        };
        cycles.u64(counter.total_cycles());
    }
    writeln!(out, "{name} cycles {}", cycles.hex()).expect("write");
    writeln!(out, "{name} policy {}", outcomes.hex()).expect("write");
}

/// The stripped twin of `image`, loaded with structural recovery.
fn pin_recovery(out: &mut String, name: &str, image: &[u8]) {
    let elf = ElfFile::parse(image).expect("parses");
    let text = elf.exec_segment().file_bytes(image).expect("text");
    let mut b = ElfBuilder::new();
    b.text(text.to_vec())
        .entry(elf.header().e_entry - TEXT_VADDR)
        .strip();
    let stripped = b.build();
    let config = LoaderConfig {
        recover_stripped_symbols: true,
        ..LoaderConfig::default()
    };
    let mut pin = Pin::default();
    match load_with_cycles(&stripped, &config) {
        Ok((loaded, cycles)) => {
            pin.u64(cycles).usize(loaded.symbols.len());
            for &a in loaded.symbols.addresses() {
                pin.u64(a);
            }
            validation_pin(&mut pin, &loaded);
        }
        Err(e) => {
            pin.str(&e);
        }
    }
    writeln!(out, "{name} recover {}", pin.hex()).expect("write");
}

fn taint_policies() -> Vec<Box<dyn PolicyModule>> {
    vec![
        Box::new(CodeReachability::new()),
        Box::new(SecretLeakage::new()),
        Box::new(SecretDependentBranch::new()),
    ]
}

fn figure_policy(figure: PolicyFigure) -> Box<dyn PolicyModule> {
    match figure {
        PolicyFigure::Fig3LibraryLinking => Box::new(LibraryLinkingPolicy::new(
            "musl-libc",
            LibcLibrary::build(Instrumentation::None).function_hashes(),
        )),
        PolicyFigure::Fig4StackProtection => Box::new(StackProtectionPolicy::new()),
        PolicyFigure::Fig5Ifcc => Box::new(IfccPolicy::new()),
    }
}

fn fixtures() -> Vec<(String, Vec<u8>)> {
    use adversarial::*;
    let mut v: Vec<(String, Vec<u8>)> = vec![
        ("mid_instruction_jump".into(), mid_instruction_jump().image),
        (
            "overlapping_instructions".into(),
            overlapping_instructions().image,
        ),
        ("wx_segment".into(), wx_segment().image),
    ];
    let mut add = |name: &str, image: Vec<u8>| v.push((name.to_string(), image));
    add(
        "secret_register_leak/out",
        secret_register_leak(SECRET, SINK_OUT),
    );
    add(
        "secret_register_leak/in",
        secret_register_leak(SECRET, SINK_IN),
    );
    add("secret_branch", secret_branch(SECRET));
    add("constant_branch", constant_branch());
    add(
        "interprocedural_leak/out",
        interprocedural_leak(SECRET, SINK_OUT),
    );
    add(
        "interprocedural_leak/in",
        interprocedural_leak(SECRET, SINK_IN),
    );
    add("stack_spill_leak/out", stack_spill_leak(SECRET, SINK_OUT));
    add("stack_spill_leak/in", stack_spill_leak(SECRET, SINK_IN));
    add("spill_branch", spill_branch(SECRET));
    add("constant_spill_branch", constant_spill_branch());
    add(
        "interprocedural_spill_escape/out",
        interprocedural_spill_escape(SECRET, SCRATCH, SINK_OUT),
    );
    add(
        "interprocedural_spill_escape/in",
        interprocedural_spill_escape(SECRET, SCRATCH, SINK_IN),
    );
    add(
        "unresolved_pointer_store",
        unresolved_pointer_store(SECRET, PTR),
    );
    add(
        "unresolved_pointer_store_clean",
        unresolved_pointer_store_clean(PTR),
    );
    add(
        "rbp_spill_rsp_reload/aliased",
        rbp_spill_rsp_reload(SECRET, SINK_OUT, -8),
    );
    add(
        "rbp_spill_rsp_reload/neighbour",
        rbp_spill_rsp_reload(SECRET, SINK_OUT, -16),
    );
    add(
        "rsp_spill_copy_reload/aliased",
        rsp_spill_copy_reload(SECRET, SINK_OUT, -8),
    );
    add(
        "rsp_spill_copy_reload/neighbour",
        rsp_spill_copy_reload(SECRET, SINK_OUT, -16),
    );
    add("untrusted_rbp_store", untrusted_rbp_store(SECRET, PTR));
    add("framed_rbp_store", framed_rbp_store(SECRET));
    add(
        "rbp_spill_reload_across_other/rcx",
        rbp_spill_reload_across_other(SECRET, SINK_OUT, Reg::Rcx),
    );
    add(
        "rbp_spill_reload_across_other/rbp",
        rbp_spill_reload_across_other(SECRET, SINK_OUT, Reg::Rbp),
    );
    add(
        "rbp_spill_reload_across_other/in",
        rbp_spill_reload_across_other(SECRET, SINK_IN, Reg::Rcx),
    );
    add(
        "rbp_store_after_other/clobber",
        rbp_store_after_other(SECRET, true),
    );
    add(
        "rbp_store_after_other/keep",
        rbp_store_after_other(SECRET, false),
    );
    add(
        "callee_untrusted_rbp_store/clobber",
        callee_untrusted_rbp_store(SECRET, PTR, false),
    );
    add(
        "callee_untrusted_rbp_store/restore",
        callee_untrusted_rbp_store(SECRET, PTR, true),
    );
    add(
        "caller_frame_spill_by_callee/out",
        caller_frame_spill_by_callee(SECRET, SINK_OUT),
    );
    add(
        "caller_frame_spill_by_callee/in",
        caller_frame_spill_by_callee(SECRET, SINK_IN),
    );
    add(
        "constant_rsp_push/out",
        constant_rsp_push(SECRET, SINK_OUT + 8),
    );
    add(
        "constant_rsp_push/in",
        constant_rsp_push(SECRET, SINK_IN + 8),
    );
    add("constant_rsp_pop/out", constant_rsp_pop(SECRET, SINK_OUT));
    add("constant_rsp_pop/in", constant_rsp_pop(SECRET, SINK_IN));
    for (tag, width) in [
        ("w16", Width::W16),
        ("w32", Width::W32),
        ("w64", Width::W64),
    ] {
        add(
            &format!("narrow_lea_store/{tag}"),
            narrow_lea_store(SECRET, SINK_OUT, width),
        );
        add(
            &format!("narrow_rip_lea_store/{tag}"),
            narrow_rip_lea_store(SECRET, SINK_OUT, SINK_IN, width),
        );
    }
    add(
        "partial_write_leak/w8",
        partial_write_leak(SECRET, SINK_OUT, Width::W8),
    );
    add(
        "partial_write_leak/w32",
        partial_write_leak(SECRET, SINK_OUT, Width::W32),
    );
    add("movzx_load_leak/out", movzx_load_leak(SECRET, SINK_OUT));
    add("movzx_load_leak/in", movzx_load_leak(SECRET, SINK_IN));
    add("xchg_store_leak/out", xchg_store_leak(SECRET, SINK_OUT));
    add("xchg_store_leak/in", xchg_store_leak(SECRET, SINK_IN));
    add("setcc_leak/out", setcc_leak(SECRET, SINK_OUT));
    add("setcc_leak/in", setcc_leak(SECRET, SINK_IN));
    add(
        "high_byte_load_leak/out",
        high_byte_load_leak(SECRET, SINK_OUT),
    );
    add(
        "high_byte_load_leak/in",
        high_byte_load_leak(SECRET, SINK_IN),
    );
    add(
        "absolute_load_leak/secret",
        absolute_load_leak(SECRET, SINK_OUT),
    );
    add(
        "absolute_load_leak/clean",
        absolute_load_leak(SCRATCH, SINK_OUT),
    );
    add("absolute_load_branch/secret", absolute_load_branch(SECRET));
    add("absolute_load_branch/clean", absolute_load_branch(SCRATCH));
    add(
        "segment_store_leak/gs",
        segment_store_leak(SECRET, SINK_IN, true),
    );
    add(
        "segment_store_leak/fs",
        segment_store_leak(SECRET, SINK_IN, false),
    );
    add(
        "leave_epilogue_spill/out",
        leave_epilogue_spill(SECRET, SINK_OUT),
    );
    add(
        "leave_epilogue_spill/in",
        leave_epilogue_spill(SECRET, SINK_IN),
    );
    v
}

fn check(actual: &str) {
    if actual == EXPECTED {
        return;
    }
    let expected: Vec<&str> = EXPECTED.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let mut report = String::new();
    for line in &got {
        if !expected.contains(line) {
            writeln!(report, "  moved: {line}").expect("write");
        }
    }
    for line in &expected {
        if !got.contains(line) {
            writeln!(report, "  was:   {line}").expect("write");
        }
    }
    panic!(
        "inspection output moved ({} expected lines, {} actual):\n{report}",
        expected.len(),
        got.len()
    );
}

#[test]
fn inspection_output_is_pinned() {
    let mut out = String::new();
    for bench in &PAPER_BENCHMARKS {
        for (tag, figure) in [
            ("fig3", PolicyFigure::Fig3LibraryLinking),
            ("fig4", PolicyFigure::Fig4StackProtection),
            ("fig5", PolicyFigure::Fig5Ifcc),
        ] {
            let name = format!("{}/{tag}", bench.name);
            let image = bench.generate(figure).image;
            let mut policies = vec![figure_policy(figure)];
            policies.extend(taint_policies());
            pin_subject(&mut out, &name, &image, &policies);
            pin_recovery(&mut out, &name, &image);
        }
    }
    for (name, image) in fixtures() {
        let mut policies: Vec<Box<dyn PolicyModule>> = vec![
            Box::new(WxSegments::new()),
            Box::new(StackProtectionPolicy::new()),
            Box::new(IfccPolicy::new()),
        ];
        policies.extend(taint_policies());
        pin_subject(&mut out, &name, &image, &policies);
    }
    check(&out);
}
