//! The shared static-analysis engine: basic blocks, CFG, reachability,
//! and constant propagation — computed **once** per provisioned binary
//! and consumed by every policy module.
//!
//! The paper's policy modules each re-scan the instruction buffer;
//! anything needing control-flow context (indirect-branch targets,
//! reachability, jump-into-instruction evasions) was approximated or
//! unchecked. This engine runs the analyses a single time inside the
//! cycle model and memoizes the result: [`ProgramAnalysis::compute`]
//! returns the analysis plus its total native-cycle cost, and
//! [`crate::policy::AnalysisCache`] charges that cost to whichever
//! policy touches the engine first — later consumers get it for free,
//! which is exactly the effect the `ablation_cfg_memo` benchmark
//! measures.
//!
//! Analysis *roots* — where control can enter the CFG from outside its
//! static edges — are the load-time validator's reachability roots
//! ([`engarde_x86::validate::roots`]: the ELF entry point, every
//! symbol-table function start, and every `lea …(%rip)` target), so a
//! binary that loads cleanly does not suddenly become "unreachable" at
//! policy time.
//!
//! Constant propagation and the taint pass ([`taint`]) run through one
//! forward worklist solver ([`dataflow`]); each keeps only its own
//! transfer.

pub mod cfg;
pub mod dataflow;
pub mod taint;

pub use cfg::{BasicBlock, BlockId, Cfg, Edge, EdgeKind};
pub use dataflow::{ConstProp, RegState};
pub use taint::{
    AbsTaint, CellKey, MemEnv, SecretClass, SecretRange, SinkKind, TaintAnalysis, TaintFinding,
    TaintSet, TaintStats, SINK_KINDS,
};

use crate::loader::LoadedBinary;
use engarde_sgx::perf::costs;
use engarde_x86::validate;

/// Everything the analysis engine derives from one loaded binary.
#[derive(Clone, Debug)]
pub struct ProgramAnalysis {
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Constant-propagation results (resolved indirect branches).
    pub constants: ConstProp,
    /// Per-block reachability from the analysis roots (indexed by
    /// [`BlockId`]), including resolved indirect targets that land on
    /// block leaders.
    pub reachable: Vec<bool>,
    /// The root addresses the analysis started from.
    pub roots: Vec<u64>,
}

impl ProgramAnalysis {
    /// Runs the full engine over `binary`. Returns the analysis and the
    /// native-cycle cost of computing it (the caller charges it — see
    /// [`crate::policy::AnalysisCache`]).
    pub fn compute(binary: &LoadedBinary) -> (ProgramAnalysis, u64) {
        let insns = &binary.insns;

        // ---- roots + CFG --------------------------------------------------
        let roots = validate::roots(
            insns,
            binary.elf.header().e_entry,
            binary.symbols.addresses(),
        );
        let index = &binary.index;
        let (cfg, mut cost) = Cfg::build(insns, index, &roots);

        // ---- constant propagation ---------------------------------------
        let root_blocks: Vec<BlockId> = roots
            .iter()
            .filter_map(|&a| cfg.block_at_addr(index, a))
            .collect();
        let constants = dataflow::constant_propagation(&cfg, insns, &root_blocks);
        cost += constants.steps * costs::DATAFLOW_PER_STEP;

        // ---- reachability fixpoint --------------------------------------
        // Resolved indirect targets that land on a leader extend the
        // root set (the jump really goes there); targets that do NOT
        // land on a leader are the evasions the reachability policy
        // rejects — they contribute no reachability.
        let mut seeds = root_blocks;
        for &(_, target) in &constants.resolved {
            if let Some(b) = cfg.block_at_addr(index, target) {
                seeds.push(b);
            }
        }
        let mut reachable = vec![false; cfg.blocks.len()];
        let mut stack: Vec<BlockId> = Vec::new();
        for b in seeds {
            if !reachable[b] {
                reachable[b] = true;
                stack.push(b);
            }
        }
        while let Some(b) = stack.pop() {
            for edge in cfg.successors(b) {
                if !reachable[edge.to] {
                    reachable[edge.to] = true;
                    stack.push(edge.to);
                }
            }
        }
        cost += cfg.blocks.len() as u64 * costs::REACH_PER_BLOCK;

        (
            ProgramAnalysis {
                cfg,
                constants,
                reachable,
                roots,
            },
            cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::load_image;
    use engarde_workloads::generator::{generate, WorkloadSpec};
    use engarde_x86::insn::{Insn, InsnKind};

    fn analyzed(spec: &WorkloadSpec) -> (LoadedBinary, ProgramAnalysis, u64) {
        let image = generate(spec).image;
        let (_, _, loaded) = load_image(&image);
        let (analysis, cost) = ProgramAnalysis::compute(&loaded);
        (loaded, analysis, cost)
    }

    fn plain(target_instructions: usize) -> WorkloadSpec {
        WorkloadSpec {
            target_instructions,
            ..WorkloadSpec::default()
        }
    }

    fn ifcc(target_instructions: usize) -> WorkloadSpec {
        WorkloadSpec {
            target_instructions,
            instrumentation: engarde_workloads::libc::Instrumentation::Ifcc,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn blocks_partition_the_instruction_buffer() {
        let (loaded, analysis, _) = analyzed(&plain(6_000));
        let total: usize = analysis.cfg.blocks.iter().map(|b| b.insns.len()).sum();
        assert_eq!(total, loaded.insns.len());
        // Blocks are contiguous and in order.
        let mut next = 0usize;
        for b in &analysis.cfg.blocks {
            assert_eq!(b.insns.start, next);
            next = b.insns.end;
            assert_eq!(b.start, loaded.insns[b.insns.start].addr);
            assert_eq!(b.end, loaded.insns[b.insns.end - 1].end());
        }
    }

    #[test]
    fn edges_target_leaders() {
        let (loaded, analysis, _) = analyzed(&plain(6_000));
        assert!(!analysis.cfg.edges.is_empty());
        for e in &analysis.cfg.edges {
            let target = &analysis.cfg.blocks[e.to];
            assert_eq!(
                analysis.cfg.block_at_addr(&loaded.index, target.start),
                Some(e.to),
                "edge {e:?} targets a leader"
            );
        }
    }

    #[test]
    fn generated_workload_is_fully_reachable_and_resolves_ifcc_sites() {
        let (loaded, analysis, cost) = analyzed(&ifcc(8_000));
        assert!(cost > 0, "analysis work is charged");
        // Every non-nop block is reachable: the generator emits no dead
        // code, and padding nops may or may not be bridged in.
        for (id, block) in analysis.cfg.blocks.iter().enumerate() {
            let all_nops = loaded.insns[block.insns.clone()]
                .iter()
                .all(|i| matches!(i.kind, InsnKind::Nop));
            assert!(
                analysis.reachable[id] || all_nops,
                "block {id} at {:#x} unreachable",
                block.start
            );
        }
        // Every IFCC indirect call resolves to an 8-aligned address
        // inside the text section.
        let call_sites: Vec<usize> = analysis
            .cfg
            .indirect_sites
            .iter()
            .copied()
            .filter(|&i| loaded.insns[i].kind.is_call())
            .collect();
        assert!(!call_sites.is_empty(), "workload has IFCC call sites");
        for &site in &call_sites {
            let target = analysis
                .constants
                .target_of(site)
                .expect("IFCC operand folds to a constant");
            assert_eq!(target % 8, 0, "IFCC target is bundle-entry aligned");
            let is_insn_start = loaded
                .insns
                .binary_search_by_key(&target, |i: &Insn| i.addr)
                .is_ok();
            assert!(
                is_insn_start,
                "resolved target {target:#x} is an insn start"
            );
        }
    }

    #[test]
    fn analysis_is_deterministic_and_idempotent() {
        let (loaded, analysis, cost) = analyzed(&plain(2_000));
        let (again, cost2) = ProgramAnalysis::compute(&loaded);
        assert_eq!(cost, cost2);
        assert_eq!(analysis.reachable, again.reachable);
        assert_eq!(analysis.constants.resolved, again.constants.resolved);
        assert_eq!(analysis.cfg.blocks.len(), again.cfg.blocks.len());
    }
}
