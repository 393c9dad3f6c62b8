//! The code-reachability policy: rejects the linear-sweep-evasion
//! tricks the load-time validator cannot see.
//!
//! The NaCl-derived validator checks *direct* branch targets and marks
//! reachability with nop-bridging, but it never resolves an indirect
//! branch — so a binary can pass load-time validation while carrying
//!
//! 1. an indirect jump whose constant-computed target lands in the
//!    **middle** of a decoded instruction (revealing a hidden,
//!    overlapping instruction stream the sweep never decoded),
//! 2. an indirect jump whose computed target leaves the text section
//!    entirely, or
//! 3. non-`nop` code in a block the CFG cannot reach from any root
//!    (dead droppings that only a hidden control transfer could use).
//!
//! This policy closes those gaps with the shared analysis engine: the
//! dataflow pass resolves `lea`/`mov`-fed indirect branches, and the
//! CFG's reachability fixpoint flags orphaned code.

use crate::error::EngardeError;
use crate::policy::{PolicyContext, PolicyModule, PolicyReport};
use engarde_x86::insn::InsnKind;

/// Rejects unreachable code regions and indirect branches that resolve
/// to mid-instruction or out-of-text targets.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodeReachability;

impl CodeReachability {
    /// Creates the policy.
    pub fn new() -> Self {
        CodeReachability
    }
}

impl PolicyModule for CodeReachability {
    fn name(&self) -> &'static str {
        "code-reachability"
    }

    fn descriptor(&self) -> Vec<u8> {
        // v2: the constant lattice folds `lea`s through the one address
        // resolver and decodes `%ah`–`%bh` writes, which can change the
        // indirect targets it resolves; no v1 verdict may replay.
        b"code-reachability:v2".to_vec()
    }

    fn requires_symbols(&self) -> bool {
        // Reachability roots degrade gracefully to the entry point and
        // address-taken code when the symbol table is empty.
        false
    }

    fn check(&self, ctx: &mut PolicyContext<'_>) -> Result<PolicyReport, EngardeError> {
        let analysis = ctx.analysis();
        let insns = &ctx.binary().insns;
        let text_start = ctx.binary().text_base();
        let text_end = ctx.text_end();

        // ---- resolved indirect targets must be decoded insn starts ----
        let mut resolved_checked = 0usize;
        for &(site, target) in &analysis.constants.resolved {
            resolved_checked += 1;
            if target < text_start || target >= text_end {
                return Err(EngardeError::PolicyViolation {
                    policy: self.name(),
                    reason: format!(
                        "indirect branch at {:#x} resolves to {target:#x}, outside the text \
                         section {text_start:#x}..{text_end:#x}",
                        insns[site].addr
                    ),
                });
            }
            if !ctx.binary().index.contains(target) {
                return Err(EngardeError::PolicyViolation {
                    policy: self.name(),
                    reason: format!(
                        "indirect branch at {:#x} resolves to {target:#x}, the middle of an \
                         instruction — hidden overlapping instruction stream",
                        insns[site].addr
                    ),
                });
            }
        }

        // ---- direct branches into undecoded bytes ---------------------
        if let Some(&(site, target)) = analysis.cfg.wild_branches.first() {
            return Err(EngardeError::PolicyViolation {
                policy: self.name(),
                reason: format!(
                    "direct branch at {:#x} targets {target:#x}, which is not an instruction \
                     start",
                    insns[site].addr
                ),
            });
        }

        // ---- no non-nop code outside the reachable region --------------
        let mut unreachable_nop_blocks = 0usize;
        for (id, block) in analysis.cfg.blocks.iter().enumerate() {
            if analysis.reachable[id] {
                continue;
            }
            let all_nops = insns[block.insns.clone()]
                .iter()
                .all(|i| matches!(i.kind, InsnKind::Nop));
            if all_nops {
                unreachable_nop_blocks += 1;
                continue;
            }
            return Err(EngardeError::PolicyViolation {
                policy: self.name(),
                reason: format!(
                    "code block at {:#x}..{:#x} is unreachable from every analysis root",
                    block.start, block.end
                ),
            });
        }

        Ok(PolicyReport {
            policy: self.name(),
            items_checked: analysis.cfg.blocks.len(),
            detail: format!(
                "{} block(s), {resolved_checked} resolved indirect target(s), \
                 {unreachable_nop_blocks} padding-only unreachable block(s)",
                analysis.cfg.blocks.len()
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::run_policies;
    use crate::policy::test_support::load_image;
    use engarde_workloads::generator::{generate, WorkloadSpec};
    use engarde_workloads::libc::Instrumentation;

    fn policy() -> Vec<Box<dyn PolicyModule>> {
        vec![Box::new(CodeReachability::new())]
    }

    #[test]
    fn generated_workloads_pass() {
        for instrumentation in [Instrumentation::None, Instrumentation::Ifcc] {
            let w = generate(&WorkloadSpec {
                target_instructions: 6_000,
                instrumentation,
                ..WorkloadSpec::default()
            });
            let (mut m, _, loaded) = load_image(&w.image);
            let reports =
                run_policies(&policy(), &loaded, m.counter_mut()).expect("clean workload");
            assert!(reports[0].items_checked > 0);
        }
    }

    #[test]
    fn does_not_require_symbols() {
        assert!(!CodeReachability::new().requires_symbols());
    }
}
