//! Compliance for stack protection (the paper's second policy, Fig. 4).
//!
//! Verifies that the binary was compiled with clang's
//! `-fstack-protector(-all)`: each function that spills to the stack must
//! carry the canary sequence from the paper's §5 listing —
//!
//! ```text
//! 19311: mov %fs:0x28, %rax      ; canary load
//! 1931a: mov %rax, (%rsp)        ; canary store
//!        …
//! 193fe: mov %fs:0x28, %rax      ; canary reload
//! 19407: cmp (%rsp), %rax        ; canary check
//! 1940b: jne 1941f
//! 1941f: callq <__stack_chk_fail>
//! ```
//!
//! Per the paper, the module "looks for instructions that affect the
//! stack's variables", "identifies the source operand … and figures out
//! the value of the source operand" by scanning backwards for the
//! defining `mov %fs:0x28` — a scan that runs to the function start when
//! no canary load exists, which is what makes this policy's cost grow
//! superlinearly with function size (the paper's 401.bzip2 row, whose
//! giant SPEC functions make policy checking 25× the disassembly cost).

use crate::error::EngardeError;
use crate::policy::{PolicyContext, PolicyModule, PolicyReport};
use engarde_sgx::perf::costs;
use engarde_x86::encode::CANARY_FS_OFFSET;
use engarde_x86::insn::{AluOp, Cc, Insn, InsnKind};
use engarde_x86::reg::Reg;

/// Verifies `-fstack-protector-all` instrumentation.
#[derive(Clone, Debug)]
pub struct StackProtectionPolicy {
    /// Function names exempt from the check (`__stack_chk_fail` itself,
    /// compiler-generated jump-table thunks).
    exempt_prefixes: Vec<String>,
}

impl Default for StackProtectionPolicy {
    fn default() -> Self {
        StackProtectionPolicy {
            exempt_prefixes: vec!["__stack_chk_fail".into(), "__llvm_jump_instr_table".into()],
        }
    }
}

impl StackProtectionPolicy {
    /// Creates the policy with the default exemptions.
    pub fn new() -> Self {
        Self::default()
    }

    fn is_exempt(&self, name: &str) -> bool {
        self.exempt_prefixes.iter().any(|p| name.starts_with(p))
    }

    fn is_stack_store(insn: &Insn) -> Option<Reg> {
        match insn.kind {
            InsnKind::MovRegToMem { src, mem, .. }
                if mem.base == Some(Reg::Rsp) || mem.base == Some(Reg::Rbp) =>
            {
                Some(src)
            }
            _ => None,
        }
    }
}

impl PolicyModule for StackProtectionPolicy {
    fn name(&self) -> &'static str {
        "stack-protection"
    }

    fn descriptor(&self) -> Vec<u8> {
        let mut out = b"stack-protection:".to_vec();
        for p in &self.exempt_prefixes {
            out.extend_from_slice(p.as_bytes());
            out.push(0);
        }
        out
    }

    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
        let insns = &ctx.binary().insns;
        let symbols = &ctx.binary().symbols;
        let mut functions_checked = 0usize;
        let mut backscan_steps = 0u64;
        let mut scan_charge = 0u64;

        for (fn_addr, fn_name) in symbols.iter() {
            if self.is_exempt(fn_name) {
                continue;
            }
            let fn_end = symbols
                .function_end(fn_addr)
                .unwrap_or_else(|| ctx.text_end());
            let Some(start_idx) = ctx.insn_index_at(fn_addr) else {
                return Err(EngardeError::PolicyViolation {
                    policy: self.name(),
                    reason: format!("function '{fn_name}' does not start on an instruction"),
                });
            };
            let fn_insns: Vec<Insn> = insns[start_idx..]
                .iter()
                .take_while(|i| i.addr < fn_end)
                .copied()
                .collect();
            scan_charge += fn_insns.len() as u64 * costs::STACKSCAN_PER_INSN;

            // Pass 1: find stack stores and, for each, scan backwards for
            // the defining canary load. The scan stops only at a canary
            // load or the function start — this is the superlinear step.
            let mut store_count = 0usize;
            let mut canary_store = None;
            for (i, insn) in fn_insns.iter().enumerate() {
                let Some(src) = Self::is_stack_store(insn) else {
                    continue;
                };
                store_count += 1;
                // Every stack-affecting instruction gets its source
                // operand's value resolved (the paper's wording); only
                // the store whose value turns out to be the canary
                // triggers the epilogue check below.
                for j in (0..i).rev() {
                    backscan_steps += 1;
                    if matches!(
                        fn_insns[j].kind,
                        InsnKind::MovFsToReg { dest, fs_offset: CANARY_FS_OFFSET }
                            if dest == src
                    ) {
                        canary_store.get_or_insert(i);
                        break;
                    }
                }
            }
            if store_count == 0 {
                // Leaf functions with no stack traffic have nothing the
                // canary would protect.
                continue;
            }
            functions_checked += 1;
            let Some(store_idx) = canary_store else {
                ctx.charge(scan_charge + backscan_steps * costs::BACKSCAN_PER_INSN);
                return Err(EngardeError::PolicyViolation {
                    policy: self.name(),
                    reason: format!(
                        "function '{fn_name}' spills to the stack without a canary store"
                    ),
                });
            };

            // Pass 2: the epilogue check — canary reload, cmp against the
            // stack slot, jne, and a callq to __stack_chk_fail at the jne
            // target.
            let mut ok = false;
            for k in store_idx + 1..fn_insns.len() {
                let InsnKind::MovFsToReg {
                    dest,
                    fs_offset: CANARY_FS_OFFSET,
                } = fn_insns[k].kind
                else {
                    continue;
                };
                // "just preceding the cmp instruction, there is an
                // instruction that computes the original value" — the
                // cmp must directly follow the reload (nops aside).
                let Some(cmp_pos) = next_non_nop(&fn_insns, k + 1) else {
                    continue;
                };
                let cmp_matches = matches!(
                    fn_insns[cmp_pos].kind,
                    InsnKind::AluMemReg { op: AluOp::Cmp, dest: d, mem, .. }
                        if d == dest && mem.base == Some(Reg::Rsp)
                );
                if !cmp_matches {
                    continue;
                }
                let Some(jne_pos) = next_non_nop(&fn_insns, cmp_pos + 1) else {
                    continue;
                };
                let InsnKind::CondJmp { cc: Cc::Ne, target } = fn_insns[jne_pos].kind else {
                    continue;
                };
                // At the jne target: callq __stack_chk_fail.
                ctx.charge(costs::HASHTABLE_PROBE);
                let Some(fail_idx) = ctx.insn_index_at(target) else {
                    continue;
                };
                let Some(call_idx) = next_non_nop(insns, fail_idx) else {
                    continue;
                };
                if let InsnKind::DirectCall { target: fail_fn } = insns[call_idx].kind {
                    if symbols.name_at(fail_fn) == Some("__stack_chk_fail") {
                        ok = true;
                        break;
                    }
                }
            }
            if !ok {
                ctx.charge(scan_charge + backscan_steps * costs::BACKSCAN_PER_INSN);
                return Err(EngardeError::PolicyViolation {
                    policy: self.name(),
                    reason: format!(
                        "function '{fn_name}' lacks the canary check epilogue \
                         (cmp/jne/callq __stack_chk_fail)"
                    ),
                });
            }
        }
        ctx.charge(scan_charge + backscan_steps * costs::BACKSCAN_PER_INSN);
        Ok(PolicyReport {
            policy: self.name(),
            items_checked: functions_checked,
            detail: format!("{backscan_steps} backward dataflow steps"),
        })
    }
}

fn next_non_nop(insns: &[Insn], mut i: usize) -> Option<usize> {
    while i < insns.len() {
        if insns[i].kind != InsnKind::Nop {
            return Some(i);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::run_policies;
    use crate::policy::test_support::load_image;
    use engarde_workloads::bench_suite::{PaperBenchmark, PolicyFigure};
    use engarde_workloads::generator::{generate, WorkloadSpec};
    use engarde_workloads::libc::Instrumentation;

    fn policy() -> Vec<Box<dyn PolicyModule>> {
        vec![Box::new(StackProtectionPolicy::new())]
    }

    #[test]
    fn protected_build_passes() {
        let w = generate(&WorkloadSpec {
            target_instructions: 8_000,
            instrumentation: Instrumentation::StackProtector,
            ..WorkloadSpec::default()
        });
        let (mut m, _, loaded) = load_image(&w.image);
        let reports = run_policies(&policy(), &loaded, m.counter_mut()).expect("protected");
        assert!(reports[0].items_checked > 10);
        assert!(reports[0].detail.contains("backward dataflow"));
    }

    #[test]
    fn paper_benchmark_fig4_passes() {
        let w = PaperBenchmark::by_name("429.mcf")
            .expect("mcf")
            .generate(PolicyFigure::Fig4StackProtection);
        let (mut m, _, loaded) = load_image(&w.image);
        run_policies(&policy(), &loaded, m.counter_mut()).expect("fig4 mcf compliant");
    }

    #[test]
    fn unprotected_build_rejected() {
        let w = generate(&WorkloadSpec {
            target_instructions: 8_000,
            instrumentation: Instrumentation::None,
            ..WorkloadSpec::default()
        });
        let (mut m, _, loaded) = load_image(&w.image);
        let err = run_policies(&policy(), &loaded, m.counter_mut()).unwrap_err();
        match err {
            EngardeError::PolicyViolation { policy, reason } => {
                assert_eq!(policy, "stack-protection");
                assert!(reason.contains("canary"), "{reason}");
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn hand_built_canary_function_passes() {
        use engarde_elf::build::ElfBuilder;
        use engarde_x86::encode::Assembler;
        let mut asm = Assembler::new();
        let fail = asm.label();
        let chk = asm.label();
        // protected_fn:
        asm.push_reg(Reg::Rbp);
        asm.mov_rr64(Reg::Rbp, Reg::Rsp);
        asm.mov_fs_to_reg(Reg::Rax, 0x28);
        asm.mov_reg_to_rsp(Reg::Rax);
        asm.mov_reg_to_rbp_disp8(Reg::Rdi, -8); // a spill
        asm.mov_fs_to_reg(Reg::Rax, 0x28);
        asm.cmp_rsp_reg(Reg::Rax);
        asm.jne_label(fail);
        asm.pop_reg(Reg::Rbp);
        asm.ret();
        asm.bind(fail);
        asm.call_label(chk);
        asm.ret();
        // __stack_chk_fail:
        asm.align_to(32);
        asm.bind(chk);
        let chk_off = asm.label_offset(chk).expect("bound");
        asm.ret();
        let text = asm.finish();
        let text_len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("protected_fn", 0, chk_off)
            .function("__stack_chk_fail", chk_off, text_len - chk_off)
            .entry(0)
            .build();
        let (mut m, _, loaded) = load_image(&image);
        let reports = run_policies(&policy(), &loaded, m.counter_mut()).expect("passes");
        assert_eq!(reports[0].items_checked, 1);
    }

    #[test]
    fn missing_epilogue_rejected() {
        use engarde_elf::build::ElfBuilder;
        use engarde_x86::encode::Assembler;
        let mut asm = Assembler::new();
        // Canary store but no reload/cmp/jne epilogue.
        asm.push_reg(Reg::Rbp);
        asm.mov_rr64(Reg::Rbp, Reg::Rsp);
        asm.mov_fs_to_reg(Reg::Rax, 0x28);
        asm.mov_reg_to_rsp(Reg::Rax);
        asm.pop_reg(Reg::Rbp);
        asm.ret();
        let text = asm.finish();
        let text_len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("f", 0, text_len)
            .entry(0)
            .build();
        let (mut m, _, loaded) = load_image(&image);
        let err = run_policies(&policy(), &loaded, m.counter_mut()).unwrap_err();
        assert!(matches!(err, EngardeError::PolicyViolation { .. }));
        assert!(err.to_string().contains("epilogue"));
    }

    #[test]
    fn leaf_function_without_stack_traffic_passes() {
        use engarde_elf::build::ElfBuilder;
        use engarde_x86::encode::Assembler;
        let mut asm = Assembler::new();
        asm.xor_rr32(Reg::Rax, Reg::Rax);
        asm.ret();
        let text = asm.finish();
        let len = text.len() as u64;
        let image = ElfBuilder::new()
            .text(text)
            .function("leaf", 0, len)
            .entry(0)
            .build();
        let (mut m, _, loaded) = load_image(&image);
        let reports = run_policies(&policy(), &loaded, m.counter_mut()).expect("leaf ok");
        assert_eq!(reports[0].items_checked, 0);
    }

    #[test]
    fn cost_grows_superlinearly_with_function_size() {
        // Two protected builds of equal total size: one with huge
        // functions (SPEC-like), one with small functions. The huge-
        // function build must cost disproportionately more — the bzip2
        // effect from Fig. 4.
        let cost = |avg: usize| {
            let w = generate(&WorkloadSpec {
                target_instructions: 20_000,
                instrumentation: Instrumentation::StackProtector,
                avg_app_fn_insns: avg,
                calls_per_app_fn: 2,
                libc_functions_used: 10,
                ..WorkloadSpec::default()
            });
            let (mut m, _, loaded) = load_image(&w.image);
            let before = m.counter().total_cycles();
            run_policies(&policy(), &loaded, m.counter_mut()).expect("compliant");
            m.counter().total_cycles() - before
        };
        let small = cost(40);
        let huge = cost(3_000);
        assert!(
            huge > small * 4,
            "huge-function cost {huge} vs small-function cost {small}"
        );
    }

    #[test]
    fn descriptor_stable() {
        assert_eq!(
            StackProtectionPolicy::new().descriptor(),
            StackProtectionPolicy::default().descriptor()
        );
    }
}
