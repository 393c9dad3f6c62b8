//! A small forward-dataflow framework over the CFG, instantiated for
//! constant propagation.
//!
//! The lattice per register is `Option<u64>`: `Some(c)` means "always
//! holds `c` on entry to this point", `None` means unknown. The join is
//! pointwise (`Some(a) ⊔ Some(a) = Some(a)`, anything else `None`);
//! block in-states join over all *visited* predecessors, and the
//! worklist iterates until the fixpoint. Every transfer step charges
//! [`engarde_sgx::perf::costs::DATAFLOW_PER_STEP`], so revisits — not
//! just instruction count — show up in the cycle model.
//!
//! The pass exists to resolve `lea`/`mov`-fed indirect branches: the
//! IFCC instrumentation computes its target as
//! `((imm32 - low32(table)) & mask) + table`, which folds to a concrete
//! jump-table entry; a linear-sweep evasion computes a hidden
//! mid-instruction address the same way. Both land in
//! [`ConstProp::resolved`] for the policies to judge.

use super::cfg::{BlockId, Cfg};
use engarde_x86::insn::{AluOp, Insn, InsnKind, Width};
use engarde_x86::reg::Reg;
use std::collections::VecDeque;

/// Per-program-point register state: `regs[r as usize]` is the known
/// constant in `r`, if any.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegState {
    regs: [Option<u64>; 16],
}

impl RegState {
    /// The all-unknown state (function/analysis entry).
    pub fn unknown() -> Self {
        RegState { regs: [None; 16] }
    }

    /// The known constant in `reg`, if any.
    pub fn get(&self, reg: Reg) -> Option<u64> {
        self.regs[reg as usize]
    }

    fn set(&mut self, reg: Reg, v: Option<u64>) {
        self.regs[reg as usize] = v;
    }

    fn clobber_all(&mut self) {
        self.regs = [None; 16];
    }

    /// Pointwise join; returns true when `self` changed (lost
    /// information), i.e. the fixpoint has not been reached yet.
    pub(crate) fn join(&mut self, other: &RegState) -> bool {
        let mut changed = false;
        for i in 0..16 {
            if self.regs[i].is_some() && self.regs[i] != other.regs[i] {
                self.regs[i] = None;
                changed = true;
            }
        }
        changed
    }
}

/// The result of the constant-propagation pass.
#[derive(Clone, Debug, Default)]
pub struct ConstProp {
    /// Resolved indirect-branch targets: `(insn index, target address)`,
    /// in site order. Sites whose operand never folds to a constant are
    /// absent (conservatively unresolved).
    pub resolved: Vec<(usize, u64)>,
    /// Transfer steps executed before the fixpoint (each charged
    /// [`engarde_sgx::perf::costs::DATAFLOW_PER_STEP`]).
    pub steps: u64,
}

impl ConstProp {
    /// The resolved target of the indirect branch at `insn_index`.
    pub fn target_of(&self, insn_index: usize) -> Option<u64> {
        self.resolved
            .binary_search_by_key(&insn_index, |&(i, _)| i)
            .ok()
            .map(|i| self.resolved[i].1)
    }
}

/// Transfer function for one instruction. Only register effects matter;
/// memory is untracked (loads clobber the destination). Shared with the
/// taint pass, which runs the same constant lattice alongside its taint
/// sets to resolve store/load effective addresses.
pub(crate) fn transfer(state: &mut RegState, insn: &Insn) {
    match insn.kind {
        InsnKind::MovImmToReg { dest, imm, width } => {
            state.set(dest, imm_value(imm, width));
        }
        InsnKind::LeaRipRel {
            dest,
            target,
            width,
        } => state.set(dest, lea_value(Some(target), width)),
        InsnKind::Lea { dest, mem, width } => {
            let folded = match (mem.base, mem.index) {
                (Some(b), None) => state.get(b).map(|v| v.wrapping_add(mem.disp as i64 as u64)),
                _ => None,
            };
            state.set(dest, lea_value(folded, width));
        }
        InsnKind::MovRegToReg { dest, src, width } => {
            let v = match width {
                Width::W64 => state.get(src),
                // 32-bit moves zero-extend into the full register.
                Width::W32 => state.get(src).map(|v| v & 0xffff_ffff),
                _ => None,
            };
            state.set(dest, v);
        }
        // `cmp` writes no register, so it falls through to the no-op arm.
        InsnKind::AluRegReg {
            op,
            dest,
            src,
            width,
        } if op != AluOp::Cmp => {
            let v = match (state.get(dest), state.get(src)) {
                (Some(a), Some(b)) => alu_fold(op, a, b, width),
                _ => None,
            };
            state.set(dest, v);
        }
        InsnKind::AluImmReg {
            op,
            dest,
            imm,
            width,
        } if op != AluOp::Cmp => {
            let v = state
                .get(dest)
                .and_then(|a| alu_fold(op, a, imm as u64, width));
            state.set(dest, v);
        }
        // Loads from untracked memory, canary reads.
        InsnKind::MovMemToReg { dest, .. } | InsnKind::MovFsToReg { dest, .. } => {
            state.set(dest, None)
        }
        // `push`/`pop` move a constant `%rsp` by one slot.
        InsnKind::PushReg { .. } => {
            state.set(Reg::Rsp, state.get(Reg::Rsp).map(|sp| sp.wrapping_sub(8)));
        }
        InsnKind::PopReg { reg } => {
            state.set(Reg::Rsp, state.get(Reg::Rsp).map(|sp| sp.wrapping_add(8)));
            state.set(reg, None);
        }
        // Calls may write any register in the callee.
        InsnKind::DirectCall { .. }
        | InsnKind::IndirectCallReg { .. }
        | InsnKind::IndirectCallMem { .. } => state.clobber_all(),
        // Unclassified semantics: every register it may write is lost.
        InsnKind::Other { writes, .. } => {
            for r in writes.iter() {
                state.set(r, None);
            }
        }
        // Pure memory writes, compares, branches, nops: no register
        // effect.
        _ => {}
    }
}

/// The value a `lea` of `addr` leaves in its destination: a 32-bit
/// `lea` zero-extends the truncated address, a 16-bit one merges it
/// into the old register (unknown here).
fn lea_value(addr: Option<u64>, width: Width) -> Option<u64> {
    match width {
        Width::W64 => addr,
        Width::W32 => addr.map(|v| v & 0xffff_ffff),
        _ => None,
    }
}

fn imm_value(imm: i64, width: Width) -> Option<u64> {
    match width {
        // `mov $imm32, %r32` zero-extends; `movabs`/REX.W forms carry
        // the sign-extended immediate already.
        Width::W32 => Some(imm as u32 as u64),
        Width::W64 => Some(imm as u64),
        _ => None,
    }
}

fn alu_fold(op: AluOp, a: u64, b: u64, width: Width) -> Option<u64> {
    let full = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        // Carry-dependent ops need flag tracking; stay unknown.
        AluOp::Adc | AluOp::Sbb | AluOp::Cmp => return None,
    };
    match width {
        Width::W64 => Some(full),
        // 32-bit ALU results zero-extend into the full register.
        Width::W32 => Some(full & 0xffff_ffff),
        _ => None,
    }
}

/// Runs constant propagation to a fixpoint. `roots` are the block ids
/// seeded with the all-unknown entry state (entry point, function
/// starts, address-taken code — any place control can arrive from
/// outside the CFG's static edges).
pub fn constant_propagation(cfg: &Cfg, insns: &[Insn], roots: &[BlockId]) -> ConstProp {
    let n = cfg.blocks.len();
    let mut in_states: Vec<Option<RegState>> = vec![None; n];
    let mut worklist: VecDeque<BlockId> = VecDeque::new();
    let mut queued = vec![false; n];
    for &r in roots {
        if in_states[r].is_none() {
            in_states[r] = Some(RegState::unknown());
        }
        if !queued[r] {
            queued[r] = true;
            worklist.push_back(r);
        }
    }

    let mut out = ConstProp::default();
    let mut site_values: std::collections::HashMap<usize, Option<u64>> =
        std::collections::HashMap::new();

    while let Some(b) = worklist.pop_front() {
        queued[b] = false;
        // Every queued block was given a state before queueing; a bare
        // `continue` keeps the loop panic-free if that invariant ever
        // breaks on hostile input.
        let Some(mut state) = in_states[b].clone() else {
            continue;
        };
        for i in cfg.blocks[b].insns.clone() {
            out.steps += 1;
            let insn = &insns[i];
            // Record the operand value at each indirect-branch site;
            // joins across visits degrade to unknown, mirroring the
            // lattice (a site that sees two targets is unresolved).
            if let InsnKind::IndirectJmpReg { reg } | InsnKind::IndirectCallReg { reg } = insn.kind
            {
                let v = state.get(reg);
                site_values
                    .entry(i)
                    .and_modify(|prev| {
                        if *prev != v {
                            *prev = None;
                        }
                    })
                    .or_insert(v);
            }
            transfer(&mut state, insn);
        }
        for edge in cfg.successors(b) {
            // A nop bridge is padding adjacency, not a real control
            // transfer (the predecessor ended in `ret`/`jmp`): whoever
            // actually enters the bridged block arrives with an
            // arbitrary state, so seed it with unknown.
            let carried = if edge.kind == super::cfg::EdgeKind::NopBridge {
                RegState::unknown()
            } else {
                state.clone()
            };
            let changed = match &mut in_states[edge.to] {
                Some(existing) => existing.join(&carried),
                slot @ None => {
                    *slot = Some(carried);
                    true
                }
            };
            if changed && !queued[edge.to] {
                queued[edge.to] = true;
                worklist.push_back(edge.to);
            }
        }
    }

    out.resolved = site_values
        .into_iter()
        .filter_map(|(i, v)| v.map(|t| (i, t)))
        .collect();
    out.resolved.sort_unstable();
    out
}
