//! Compliance for indirect function-call checks (the paper's third
//! policy, Fig. 5).
//!
//! Verifies that the binary carries Google's IFCC instrumentation: every
//! indirect call site must compute its target through a bounds-masked
//! jump-table index —
//!
//! ```text
//! 1b459: lea 0x85c70(%rip), %rax   ; jump-table base
//! 1b460: sub %eax, %ecx
//! 1b462: and $0x1ff8, %rcx         ; mask to a table slot
//! 1b469: add %rax, %rcx
//! 1b475: callq *%rcx
//! ```
//!
//! and the jump table itself is a run of 8-byte entries of the form
//! `jmpq <fn>; nopl (%rax)`. The policy discovers table ranges from that
//! pattern, then checks each indirect call site for the `lea/sub/and/add`
//! sequence with the register data dependences above and a mask that
//! stays within the discovered table.
//!
//! The site list comes from the shared [`crate::analysis`] engine's CFG
//! (no per-policy rescan), and the engine's constant-propagation pass
//! adds a check the structural pattern alone cannot make: when the call
//! operand folds to a concrete address, that address must be a CFG block
//! leader inside the claimed jump table — a computed target that lands
//! outside the table, or in the middle of an instruction, is rejected
//! even if the `lea/sub/and/add` shape is present.

use crate::analysis::ProgramAnalysis;
use crate::error::EngardeError;
use crate::policy::{PolicyContext, PolicyModule, PolicyReport};
use engarde_sgx::perf::costs;
use engarde_x86::insn::{AluOp, Insn, InsnKind, Width};

/// A discovered IFCC jump table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JumpTable {
    /// Virtual address of the first entry.
    pub start: u64,
    /// Number of 8-byte entries.
    pub entries: usize,
}

impl JumpTable {
    /// Table size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.entries as u64 * 8
    }
}

/// Verifies IFCC instrumentation on all indirect calls.
#[derive(Clone, Debug)]
pub struct IfccPolicy {
    /// Also reject indirect *jumps* (IFCC covers calls; tail-call
    /// dispatch through registers would evade it).
    pub reject_indirect_jumps: bool,
    /// Read the CFG from the shared [`crate::policy::AnalysisCache`]
    /// (the default). When false the policy computes — and pays for —
    /// a private analysis, which is the baseline arm of the
    /// `ablation_cfg_memo` benchmark.
    pub use_shared_analysis: bool,
}

impl Default for IfccPolicy {
    fn default() -> Self {
        IfccPolicy::new()
    }
}

impl IfccPolicy {
    /// Creates the policy with indirect-jump rejection on (the strict
    /// reading the paper's threat model wants).
    pub fn new() -> Self {
        IfccPolicy {
            reject_indirect_jumps: true,
            use_shared_analysis: true,
        }
    }

    /// The per-policy-rescan baseline: a private analysis is computed
    /// and charged on every check instead of sharing the memoized one.
    pub fn without_shared_analysis() -> Self {
        IfccPolicy {
            use_shared_analysis: false,
            ..IfccPolicy::new()
        }
    }

    /// Scans the instruction buffer for `jmpq; nopl` runs — the jump
    /// tables. Exposed for the benchmark harness.
    pub fn discover_tables(insns: &[Insn]) -> Vec<JumpTable> {
        let mut tables = Vec::new();
        let mut i = 0usize;
        while i + 1 < insns.len() {
            let is_entry = |a: &Insn, b: &Insn| {
                a.addr.is_multiple_of(8)
                    && a.len == 5
                    && matches!(a.kind, InsnKind::DirectJmp { .. })
                    && b.len == 3
                    && b.kind == InsnKind::Nop
                    && b.addr == a.addr + 5
            };
            if is_entry(&insns[i], &insns[i + 1]) {
                let start = insns[i].addr;
                let mut entries = 0usize;
                while i + 1 < insns.len() && is_entry(&insns[i], &insns[i + 1]) {
                    entries += 1;
                    i += 2;
                }
                // A lone jmp+nop pair is ordinary code; real IFCC tables
                // have at least a handful of entries.
                if entries >= 4 {
                    tables.push(JumpTable { start, entries });
                }
            } else {
                i += 1;
            }
        }
        tables
    }
}

/// Walks backwards from `from`, skipping nops, returning the previous
/// real instruction's index.
fn prev_non_nop(insns: &[Insn], from: usize) -> Option<usize> {
    let mut i = from;
    while i > 0 {
        i -= 1;
        if insns[i].kind != InsnKind::Nop {
            return Some(i);
        }
    }
    None
}

impl PolicyModule for IfccPolicy {
    fn name(&self) -> &'static str {
        "indirect-function-call"
    }

    fn descriptor(&self) -> Vec<u8> {
        let mut out = b"ifcc:".to_vec();
        out.push(self.reject_indirect_jumps as u8);
        out
    }

    fn requires_symbols(&self) -> bool {
        // Table discovery is purely structural.
        false
    }

    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
        // CFG + dataflow: shared memo by default, a private (fully
        // charged) computation in the ablation baseline.
        let private;
        let analysis: &ProgramAnalysis = if self.use_shared_analysis {
            ctx.analysis()
        } else {
            let (computed, cost) = ProgramAnalysis::compute(ctx.binary());
            ctx.charge(cost);
            private = computed;
            &private
        };
        let insns = &ctx.binary().insns;
        // One linear scan for table discovery; the call sites come from
        // the CFG's indirect-site index, not a rescan.
        ctx.charge(insns.len() as u64 * costs::SCAN_PER_INSN);
        let tables = Self::discover_tables(insns);

        let mut sites_checked = 0usize;
        let mut sites_resolved = 0usize;
        for &i in &analysis.cfg.indirect_sites {
            let insn = &insns[i];
            let reg = match insn.kind {
                InsnKind::IndirectCallReg { reg } => reg,
                InsnKind::IndirectCallMem { .. } => {
                    return Err(EngardeError::PolicyViolation {
                        policy: self.name(),
                        reason: format!(
                            "indirect call through memory at {:#x} cannot be IFCC-checked",
                            insn.addr
                        ),
                    })
                }
                InsnKind::IndirectJmpReg { .. } | InsnKind::IndirectJmpMem { .. }
                    if self.reject_indirect_jumps =>
                {
                    return Err(EngardeError::PolicyViolation {
                        policy: self.name(),
                        reason: format!("unchecked indirect jump at {:#x}", insn.addr),
                    })
                }
                _ => continue,
            };
            sites_checked += 1;
            ctx.charge(costs::SCAN_PER_INSN * 8); // back-matching work
            let violation = |what: &str| EngardeError::PolicyViolation {
                policy: self.name(),
                reason: format!(
                    "indirect call at {:#x}: {what} (expected lea/sub/and/add IFCC sequence)",
                    insn.addr
                ),
            };

            // callq *R  ⇐  add R, B  ⇐  and $mask, R  ⇐  sub B32, R32 ⇐ lea table(%rip), B
            let add_i = prev_non_nop(insns, i).ok_or_else(|| violation("no preceding add"))?;
            let InsnKind::AluRegReg {
                op: AluOp::Add,
                dest,
                src: base,
                width: Width::W64,
            } = insns[add_i].kind
            else {
                return Err(violation("missing add of table base"));
            };
            if dest != reg {
                return Err(violation("add does not feed the called register"));
            }
            let and_i = prev_non_nop(insns, add_i).ok_or_else(|| violation("no preceding and"))?;
            let InsnKind::AluImmReg {
                op: AluOp::And,
                dest: and_dest,
                imm: mask,
                ..
            } = insns[and_i].kind
            else {
                return Err(violation("missing bounds mask"));
            };
            if and_dest != reg {
                return Err(violation("mask does not cover the called register"));
            }
            let sub_i = prev_non_nop(insns, and_i).ok_or_else(|| violation("no preceding sub"))?;
            let sub_matches = matches!(
                insns[sub_i].kind,
                InsnKind::AluRegReg { op: AluOp::Sub, dest: d, src: s, width: Width::W32 }
                    if d == reg && s == base
            );
            if !sub_matches {
                return Err(violation("missing sub of table base"));
            }
            let lea_i = prev_non_nop(insns, sub_i).ok_or_else(|| violation("no preceding lea"))?;
            let InsnKind::LeaRipRel {
                dest: lea_dest,
                target,
                width: Width::W64,
            } = insns[lea_i].kind
            else {
                return Err(violation("missing RIP-relative lea of the jump table"));
            };
            if lea_dest != base {
                return Err(violation("lea does not define the table base register"));
            }

            // The masked target must land inside a discovered table.
            if mask < 0 || mask % 8 != 0 {
                return Err(violation("mask is not a multiple of the 8-byte entry size"));
            }
            let table = tables
                .iter()
                .find(|t| t.start == target)
                .ok_or_else(|| violation("lea target is not a jump table"))?;
            if (mask as u64) + 8 > table.len_bytes() {
                return Err(violation("mask range exceeds the jump table"));
            }

            // CFG-backed target validation: when dataflow folds the
            // operand to a concrete address, that address must be a
            // decoded instruction start inside the claimed table. The
            // structural pattern alone cannot see a computed target
            // that skips past the table or lands mid-instruction.
            if let Some(resolved) = analysis.constants.target_of(i) {
                sites_resolved += 1;
                if resolved < table.start || resolved >= table.start + table.len_bytes() {
                    return Err(violation(
                        "computed target resolves outside the claimed jump table",
                    ));
                }
                if analysis.cfg.block_containing(resolved).is_none()
                    || insns.binary_search_by_key(&resolved, |x| x.addr).is_err()
                {
                    return Err(violation(
                        "computed target is not an instruction start (mid-instruction target)",
                    ));
                }
            }
        }

        Ok(PolicyReport {
            policy: self.name(),
            items_checked: sites_checked,
            detail: format!(
                "{} jump table(s), {} total entries, {sites_resolved} site(s) constant-resolved",
                tables.len(),
                tables.iter().map(|t| t.entries).sum::<usize>()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::run_policies;
    use crate::policy::test_support::load_image;
    use engarde_elf::build::ElfBuilder;
    use engarde_workloads::bench_suite::{PaperBenchmark, PolicyFigure};
    use engarde_workloads::generator::{generate, WorkloadSpec};
    use engarde_workloads::libc::Instrumentation;
    use engarde_x86::encode::Assembler;

    fn policy() -> Vec<Box<dyn PolicyModule>> {
        vec![Box::new(IfccPolicy::new())]
    }

    #[test]
    fn ifcc_build_passes() {
        let w = generate(&WorkloadSpec {
            target_instructions: 8_000,
            instrumentation: Instrumentation::Ifcc,
            ..WorkloadSpec::default()
        });
        let (mut m, _, loaded) = load_image(&w.image);
        let reports = run_policies(&policy(), &loaded, m.counter_mut()).expect("ifcc clean");
        assert!(reports[0].items_checked > 0);
        assert!(reports[0].detail.contains("jump table"));
    }

    #[test]
    fn paper_benchmark_fig5_passes() {
        let w = PaperBenchmark::by_name("429.mcf")
            .expect("mcf")
            .generate(PolicyFigure::Fig5Ifcc);
        let (mut m, _, loaded) = load_image(&w.image);
        run_policies(&policy(), &loaded, m.counter_mut()).expect("fig5 mcf compliant");
    }

    #[test]
    fn uninstrumented_indirect_call_rejected() {
        let mut asm = Assembler::new();
        asm.mov_ri32(engarde_x86::reg::Reg::Rcx, 0x100);
        asm.call_reg(engarde_x86::reg::Reg::Rcx); // bare indirect call
        asm.ret();
        let text = asm.finish();
        let len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("f", 0, len)
            .entry(0)
            .build();
        let (mut m, _, loaded) = load_image(&image);
        let err = run_policies(&policy(), &loaded, m.counter_mut()).unwrap_err();
        assert!(err.to_string().contains("IFCC"), "{err}");
    }

    #[test]
    fn mask_exceeding_table_rejected() {
        use engarde_x86::reg::Reg;
        let mut asm = Assembler::new();
        let table = asm.label();
        let f = asm.label();
        asm.mov_ri32(Reg::Rcx, 0);
        asm.lea_rip_label(Reg::Rax, table);
        asm.sub_rr32(Reg::Rcx, Reg::Rax);
        asm.and_ri64(Reg::Rcx, 0xff8); // 512 entries claimed
        asm.add_rr64(Reg::Rcx, Reg::Rax);
        asm.call_reg(Reg::Rcx);
        asm.ret();
        asm.bind(f);
        asm.ret();
        asm.align_to(32);
        asm.bind(table);
        for _ in 0..8 {
            // only 8 real entries
            asm.jmp_label(f);
            asm.nopl_rax();
        }
        let text = asm.finish();
        let len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("f", 0, len)
            .entry(0)
            .build();
        let (mut m, _, loaded) = load_image(&image);
        let err = run_policies(&policy(), &loaded, m.counter_mut()).unwrap_err();
        assert!(err.to_string().contains("exceeds the jump table"), "{err}");
    }

    #[test]
    fn table_discovery_finds_generated_tables() {
        let w = generate(&WorkloadSpec {
            target_instructions: 8_000,
            instrumentation: Instrumentation::Ifcc,
            jump_table_entries: 64,
            ..WorkloadSpec::default()
        });
        let (_m, _, loaded) = load_image(&w.image);
        let tables = IfccPolicy::discover_tables(&loaded.insns);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].entries, 64);
    }

    #[test]
    fn short_jmp_nop_runs_are_not_tables() {
        let mut asm = Assembler::new();
        let f = asm.label();
        asm.align_to(8);
        asm.jmp_label(f); // a single jmp+nopl pair, not a table
        asm.nopl_rax();
        asm.bind(f);
        asm.ret();
        let text = asm.finish();
        let insns = engarde_x86::decode::decode_all(&text, 0).expect("decodes");
        assert!(IfccPolicy::discover_tables(&insns).is_empty());
    }

    #[test]
    fn plain_build_with_no_indirect_calls_passes_vacuously() {
        let w = generate(&WorkloadSpec {
            target_instructions: 8_000,
            instrumentation: Instrumentation::None,
            ..WorkloadSpec::default()
        });
        let (mut m, _, loaded) = load_image(&w.image);
        let reports = run_policies(&policy(), &loaded, m.counter_mut()).expect("vacuous pass");
        assert_eq!(reports[0].items_checked, 0);
    }

    #[test]
    fn works_without_symbols() {
        assert!(!IfccPolicy::new().requires_symbols());
        let w = generate(&WorkloadSpec {
            target_instructions: 8_000,
            instrumentation: Instrumentation::Ifcc,
            ..WorkloadSpec::default()
        });
        // Strip the symbols out of the parsed representation by building
        // a stripped twin image.
        let (mut m, _, loaded) = load_image(&w.image);
        run_policies(&policy(), &loaded, m.counter_mut()).expect("structural check only");
    }
}
