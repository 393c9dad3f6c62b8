//! Binary rewriting: EnGarde's runtime-instrumentation extension.
//!
//! The paper (§1): "One can also imagine an extension of EnGarde that
//! instruments client code to enforce policies at runtime, but our
//! current implementation only implements support for static code
//! inspection." This module implements that extension for the
//! stack-protection policy: instead of *rejecting* an uninstrumented
//! binary, EnGarde can *rewrite* it — inserting the clang-style canary
//! prologue and check epilogue into every function — so the result
//! passes [`crate::policy::StackProtectionPolicy`].
//!
//! The rewriter is a function-granular binary recompiler built on the
//! stack's decoder and encoder:
//!
//! 1. decode every instruction and give each address a label,
//! 2. re-emit instructions in order — position-independent bytes are
//!    copied verbatim, control transfers (`call`/`jmp`/`jcc`) and
//!    RIP-relative `lea` are re-encoded against the labels, so all
//!    displacements heal after layout changes,
//! 3. splice instrumentation at function entries and before every
//!    `ret`,
//! 4. rebuild the ELF (symbols at their new addresses, relocations
//!    rebased, a synthetic `__stack_chk_fail` appended when the client
//!    never linked one).
//!
//! # Limitations
//!
//! Rewriting refuses binaries with indirect control flow (IFCC jump
//! tables, `call *%reg`): moving address-taken code would require
//! updating function pointers materialised in data, which static
//! rewriting cannot do soundly. Such binaries get the ordinary
//! reject-verdict path.

use crate::error::EngardeError;
use crate::loader::LoadedBinary;
use engarde_elf::build::ElfBuilder;
use engarde_elf::ElfError;
use engarde_x86::encode::{Assembler, Label};
use engarde_x86::insn::{InsnKind, Width};
use engarde_x86::reg::Reg;
use engarde_x86::validate::BUNDLE_SIZE;
use std::collections::HashMap;

/// Statistics from a successful rewrite.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RewriteReport {
    /// Functions instrumented.
    pub functions_instrumented: usize,
    /// `ret` sites that received a canary check.
    pub rets_instrumented: usize,
    /// Instructions copied from the original binary.
    pub instructions_copied: usize,
    /// Whether a synthetic `__stack_chk_fail` was appended.
    pub added_stack_chk_fail: bool,
}

/// Rewrites binaries to satisfy the stack-protection policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackProtectorRewriter;

impl StackProtectorRewriter {
    /// Creates the rewriter.
    pub fn new() -> Self {
        StackProtectorRewriter
    }

    /// Rewrites `binary`, returning the instrumented ELF image and a
    /// report.
    ///
    /// # Errors
    ///
    /// - [`EngardeError::StrippedBinary`] when there are no function
    ///   symbols (function granularity is required),
    /// - [`EngardeError::Protocol`] for binaries the rewriter cannot
    ///   transform soundly (indirect control flow, unsupported
    ///   RIP-relative data references).
    pub fn rewrite(&self, binary: &LoadedBinary) -> Result<(Vec<u8>, RewriteReport), EngardeError> {
        if binary.symbols.is_empty() {
            return Err(EngardeError::StrippedBinary);
        }
        let insns = &binary.insns;

        // Refuse what we cannot move soundly.
        for insn in insns {
            match insn.kind {
                InsnKind::IndirectCallReg { .. }
                | InsnKind::IndirectCallMem { .. }
                | InsnKind::IndirectJmpReg { .. }
                | InsnKind::IndirectJmpMem { .. } => {
                    return Err(EngardeError::Protocol {
                        what: format!(
                            "cannot rewrite binary with indirect control flow at {:#x}",
                            insn.addr
                        ),
                    })
                }
                kind if is_rip_data_reference(kind) => {
                    return Err(EngardeError::Protocol {
                        what: format!(
                            "cannot rewrite RIP-relative data reference at {:#x}",
                            insn.addr
                        ),
                    })
                }
                _ => {}
            }
        }

        let mut report = RewriteReport::default();
        let mut asm = Assembler::new();

        // A label for every original instruction address, so any branch
        // target can be re-expressed after layout changes.
        let mut addr_label: HashMap<u64, Label> = HashMap::new();
        for insn in insns {
            addr_label.insert(insn.addr, asm.label());
        }

        // The failure handler: reuse the client's __stack_chk_fail if
        // linked, otherwise append a synthetic one at the end.
        let existing_fail = binary.symbols.addr_of("__stack_chk_fail");
        let fail_label = match existing_fail {
            Some(addr) => *addr_label
                .get(&addr)
                .ok_or_else(|| EngardeError::Protocol {
                    what: "__stack_chk_fail symbol does not start an instruction".into(),
                })?,
            None => asm.label(),
        };

        let function_starts: Vec<(u64, String)> = binary
            .symbols
            .iter()
            .map(|(a, n)| (a, n.to_string()))
            .collect();
        let is_function_start: HashMap<u64, &str> = function_starts
            .iter()
            .map(|(a, n)| (*a, n.as_str()))
            .collect();

        let mut new_symbols: Vec<(String, u64)> = Vec::new();
        let mut fn_fail_label: Option<Label> = None;
        let mut pending_fail_blocks: Vec<(Label, Label)> = Vec::new(); // (block, handler)

        for insn in insns {
            // Function boundary: bind padding-friendly alignment, emit
            // the canary store after recording the symbol.
            if let Some(name) = is_function_start.get(&insn.addr) {
                // Flush the previous function's failure block.
                for (block, handler) in pending_fail_blocks.drain(..) {
                    asm.bind(block);
                    asm.call_label(handler);
                    asm.ret();
                }
                asm.align_to(BUNDLE_SIZE);
                new_symbols.push((name.to_string(), asm.offset()));
                let exempt = *name == "__stack_chk_fail";
                asm.bind(addr_label[&insn.addr]);
                if !exempt {
                    // Canary store at function entry (clang places it
                    // after the frame setup; the policy accepts either).
                    asm.canary_store();
                    report.functions_instrumented += 1;
                    let l = asm.label();
                    fn_fail_label = Some(l);
                } else {
                    fn_fail_label = None;
                }
            } else {
                asm.bind(addr_label[&insn.addr]);
            }

            // Splice the check before every ret of an instrumented fn.
            if matches!(insn.kind, InsnKind::Ret) {
                if let Some(fail) = fn_fail_label {
                    asm.canary_check(fail);
                    asm.canary_release();
                    report.rets_instrumented += 1;
                    // One shared failure block per function; emit after
                    // the function body (collected and flushed at the
                    // next function start).
                    if !pending_fail_blocks.iter().any(|(b, _)| *b == fail) {
                        pending_fail_blocks.push((fail, fail_label));
                    }
                }
            }

            // Re-emit the instruction itself.
            let bytes = self::insn_bytes(binary, insn.addr, insn.len);
            match insn.kind {
                InsnKind::DirectCall { target } => {
                    let l = lookup_target(&addr_label, target, insn.addr)?;
                    asm.call_label(l);
                }
                InsnKind::DirectJmp { target } => {
                    let l = lookup_target(&addr_label, target, insn.addr)?;
                    asm.jmp_label(l);
                }
                InsnKind::CondJmp { cc, target } => {
                    let l = lookup_target(&addr_label, target, insn.addr)?;
                    asm.jcc_label(cc, l);
                }
                InsnKind::LeaRipRel {
                    dest,
                    target,
                    width: Width::W64,
                } => {
                    let l = lookup_target(&addr_label, target, insn.addr)?;
                    asm.lea_rip_label(dest, l);
                }
                _ => asm.emit_raw_insn(bytes),
            }
            report.instructions_copied += 1;
        }
        // Flush the last function's failure block.
        for (block, handler) in pending_fail_blocks.drain(..) {
            asm.bind(block);
            asm.call_label(handler);
            asm.ret();
        }

        // Synthetic __stack_chk_fail if the client never linked one.
        if existing_fail.is_none() {
            asm.align_to(BUNDLE_SIZE);
            new_symbols.push(("__stack_chk_fail".to_string(), asm.offset()));
            asm.bind(fail_label);
            asm.push_reg(Reg::Rbp);
            asm.mov_rr64(Reg::Rbp, Reg::Rsp);
            asm.pop_reg(Reg::Rbp);
            asm.ret();
            report.added_stack_chk_fail = true;
        }

        // New entry offset.
        let old_entry = binary.elf.header().e_entry;
        let entry_label =
            addr_label
                .get(&old_entry)
                .copied()
                .ok_or_else(|| EngardeError::Protocol {
                    what: "entry point is not an instruction start".into(),
                })?;
        let entry_offset = asm
            .label_offset(entry_label)
            .ok_or_else(|| EngardeError::Protocol {
                what: "entry point was not emitted".into(),
            })?;

        let text = asm.finish();
        let text_len = text.len() as u64;

        // ---- rebuild the ELF ------------------------------------------
        let mut builder = ElfBuilder::new();
        builder.text(text).entry(entry_offset);
        if let Some(bss) = binary.elf.section(".bss") {
            builder.bss_size(bss.header.sh_size);
        }
        if let Some(data) = binary.elf.section(".data") {
            let bytes = data
                .file_bytes(&binary.raw_image)
                .ok_or(ElfError::Truncated { what: "section" })?;
            builder.data(bytes.to_vec());
            // Rebase relocations: same data-relative slots and addends.
            for rela in binary.elf.rela_entries(&binary.raw_image)? {
                let slot = rela.r_offset.saturating_sub(data.header.sh_addr);
                builder.relative_relocation(slot, rela.r_addend);
            }
        }
        // Symbols: sizes are gaps between new starts.
        new_symbols.sort_by_key(|(_, off)| *off);
        for (i, (name, off)) in new_symbols.iter().enumerate() {
            let end = new_symbols.get(i + 1).map(|(_, o)| *o).unwrap_or(text_len);
            builder.function(name, *off, end - off);
        }
        Ok((builder.build(), report))
    }
}

/// A RIP-relative data reference the rewriter cannot re-emit against a
/// label: a load or store, or a `lea` narrower than 64 bits (which keeps
/// only the low bits of the address).
fn is_rip_data_reference(kind: InsnKind) -> bool {
    match kind {
        InsnKind::MovMemToReg { mem, .. } | InsnKind::MovRegToMem { mem, .. } => mem.rip_relative,
        InsnKind::LeaRipRel { width, .. } => width != Width::W64,
        _ => false,
    }
}

fn insn_bytes(binary: &LoadedBinary, addr: u64, len: u8) -> &[u8] {
    let off = (addr - binary.text_base()) as usize;
    &binary.text()[off..off + len as usize]
}

fn lookup_target(
    labels: &HashMap<u64, Label>,
    target: u64,
    from: u64,
) -> Result<Label, EngardeError> {
    labels
        .get(&target)
        .copied()
        .ok_or_else(|| EngardeError::Protocol {
            what: format!("branch at {from:#x} targets {target:#x} outside the instruction set"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{load, LoaderConfig};
    use crate::policy::test_support::load_image;
    use crate::policy::{run_policies, PolicyModule, StackProtectionPolicy};
    use engarde_workloads::generator::{generate, WorkloadSpec};
    use engarde_workloads::libc::Instrumentation;

    fn sp_policy() -> Vec<Box<dyn PolicyModule>> {
        vec![Box::new(StackProtectionPolicy::new())]
    }

    #[test]
    fn narrow_rip_relative_lea_is_a_data_reference() {
        let kind = |bytes: &[u8]| {
            engarde_x86::decode::decode_one(bytes, 0x1000)
                .expect("decodes")
                .kind
        };
        // lea 0x10(%rip), %rax / %ax; mov 0x10(%rip), %rax
        assert!(!is_rip_data_reference(kind(&[
            0x48, 0x8d, 0x05, 0x10, 0, 0, 0
        ])));
        assert!(is_rip_data_reference(kind(&[
            0x66, 0x8d, 0x05, 0x10, 0, 0, 0
        ])));
        assert!(is_rip_data_reference(kind(&[
            0x48, 0x8b, 0x05, 0x10, 0, 0, 0
        ])));
    }

    fn plain_workload() -> Vec<u8> {
        generate(&WorkloadSpec {
            target_instructions: 6_000,
            instrumentation: Instrumentation::None,
            ..WorkloadSpec::default()
        })
        .image
    }

    #[test]
    fn rewritten_binary_passes_the_policy_it_failed() {
        let image = plain_workload();
        let (mut m, id, loaded) = load_image(&image);
        // Fails before rewriting.
        assert!(run_policies(&sp_policy(), &loaded, m.counter_mut()).is_err());

        let (new_image, report) = StackProtectorRewriter::new()
            .rewrite(&loaded)
            .expect("rewrites");
        assert!(report.functions_instrumented > 50);
        assert!(report.rets_instrumented >= report.functions_instrumented);
        assert!(
            report.added_stack_chk_fail || loaded.symbols.addr_of("__stack_chk_fail").is_some()
        );

        // The rewritten binary loads (decodes + NaCl-validates) and
        // passes the policy.
        let reloaded =
            load(&mut m, id, &new_image, &LoaderConfig::default()).expect("rewritten binary loads");
        run_policies(&sp_policy(), &reloaded, m.counter_mut())
            .expect("rewritten binary is compliant");
    }

    #[test]
    fn rewriting_preserves_call_graph_shape() {
        let image = plain_workload();
        let (mut m, id, loaded) = load_image(&image);
        let (new_image, _) = StackProtectorRewriter::new()
            .rewrite(&loaded)
            .expect("rewrites");
        let reloaded = load(&mut m, id, &new_image, &LoaderConfig::default()).expect("loads");

        // Every original function symbol survives at some new address.
        for (_, name) in loaded.symbols.iter() {
            assert!(
                reloaded.symbols.addr_of(name).is_some(),
                "symbol {name} lost in rewrite"
            );
        }
        // Direct-call count is preserved (plus the per-function failure
        // blocks' calls to __stack_chk_fail).
        let count_calls = |b: &crate::loader::LoadedBinary| {
            b.insns
                .iter()
                .filter(|i| matches!(i.kind, engarde_x86::insn::InsnKind::DirectCall { .. }))
                .count()
        };
        assert!(count_calls(&reloaded) >= count_calls(&loaded));
    }

    #[test]
    fn rewriting_grows_but_does_not_explode_the_binary() {
        let image = plain_workload();
        let (_m, _id, loaded) = load_image(&image);
        let (new_image, report) = StackProtectorRewriter::new()
            .rewrite(&loaded)
            .expect("rewrites");
        assert!(new_image.len() > image.len(), "instrumentation adds bytes");
        assert!(
            new_image.len() < image.len() * 2,
            "rewrite overhead should stay bounded ({} -> {})",
            image.len(),
            new_image.len()
        );
        assert_eq!(report.instructions_copied, loaded.insns.len());
    }

    #[test]
    fn refuses_indirect_control_flow() {
        let image = generate(&WorkloadSpec {
            target_instructions: 6_000,
            instrumentation: Instrumentation::Ifcc,
            ..WorkloadSpec::default()
        })
        .image;
        let (_m, _id, loaded) = load_image(&image);
        let err = StackProtectorRewriter::new().rewrite(&loaded).unwrap_err();
        assert!(err.to_string().contains("indirect control flow"));
    }

    #[test]
    fn refuses_stripped_binaries() {
        use engarde_elf::build::ElfBuilder;
        let image = ElfBuilder::new().text(vec![0xc3]).strip().build();
        let (_m, _id, loaded) = load_image(&image);
        assert!(matches!(
            StackProtectorRewriter::new().rewrite(&loaded),
            Err(EngardeError::StrippedBinary)
        ));
    }

    #[test]
    fn already_protected_binary_stays_compliant_after_rewrite() {
        // Rewriting an already-protected binary double-instruments but
        // must stay policy-clean and loadable.
        let image = generate(&WorkloadSpec {
            target_instructions: 6_000,
            instrumentation: Instrumentation::StackProtector,
            ..WorkloadSpec::default()
        })
        .image;
        let (mut m, id, loaded) = load_image(&image);
        let (new_image, _) = StackProtectorRewriter::new()
            .rewrite(&loaded)
            .expect("rewrites");
        let reloaded = load(&mut m, id, &new_image, &LoaderConfig::default()).expect("loads");
        run_policies(&sp_policy(), &reloaded, m.counter_mut()).expect("still compliant");
    }
}
