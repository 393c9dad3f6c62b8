//! A small forward-dataflow framework over the CFG, instantiated for
//! constant propagation.
//!
//! The lattice per register is `Option<Val>`: `Some(Const(c))` means
//! "always holds `c` on entry to this point", `Some(Frame(off))`
//! "always holds the function-entry `%rsp` plus `off`", `None` means
//! unknown. The join is pointwise (`Some(a) ⊔ Some(a) = Some(a)`,
//! anything else `None`); block in-states join over all *visited*
//! predecessors, and the worklist iterates until the fixpoint. Every
//! transfer step charges [`engarde_sgx::perf::costs::DATAFLOW_PER_STEP`],
//! so revisits — not just instruction count — show up in the cycle
//! model.
//!
//! Constant propagation seeds its roots all-unknown, so it sees only
//! constants; it resolves `lea`/`mov`-fed indirect branches (the IFCC
//! target `((imm32 - low32(table)) & mask) + table`, or a hidden
//! mid-instruction address) into [`ConstProp::resolved`]. The taint
//! pass runs the same lattice with `%rsp = Frame(0)` at function entry
//! and resolves every memory operand with `RegState::address`.

use super::cfg::{BlockId, Cfg};
use engarde_x86::insn::{AluOp, Insn, InsnKind, MemOperand, Stack, Width};
use engarde_x86::reg::Reg;
use std::collections::VecDeque;

/// A known register value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Val {
    /// A constant.
    Const(u64),
    /// The function-entry `%rsp` plus this offset: a stack address.
    Frame(i64),
}

impl Val {
    /// The value `k` bytes on.
    fn shift(self, k: i64) -> Val {
        match self {
            Val::Const(c) => Val::Const(c.wrapping_add(k as u64)),
            Val::Frame(off) => Val::Frame(off.wrapping_add(k)),
        }
    }
}

/// Where a memory operand points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Addr {
    /// A constant address.
    Abs(u64),
    /// The function-entry `%rsp` plus this offset.
    Frame(i64),
    /// A `%rsp`-based slot whose offset was lost: somewhere in the frame.
    Lost,
    /// Anything else, including every segment-overridden operand.
    Unresolved,
}

/// Per-program-point register state: `regs[r as usize]` is the known
/// value of `r`, if any.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegState {
    regs: [Option<Val>; 16],
}

impl RegState {
    /// The all-unknown state (constant-propagation roots).
    pub fn unknown() -> Self {
        RegState { regs: [None; 16] }
    }

    /// The known constant in `reg`, if any.
    pub fn get(&self, reg: Reg) -> Option<u64> {
        match self.val(reg)? {
            Val::Const(c) => Some(c),
            Val::Frame(_) => None,
        }
    }

    /// The known value of `reg`, if any.
    pub(crate) fn val(&self, reg: Reg) -> Option<Val> {
        self.regs[reg as usize]
    }

    pub(crate) fn set(&mut self, reg: Reg, v: Option<Val>) {
        self.regs[reg as usize] = v;
    }

    /// Where `mem` of `insn` points: a constant address, a frame slot
    /// (a base holding a stack address, no index), a lost `%rsp` slot,
    /// or unresolved.
    pub(crate) fn address(&self, mem: &MemOperand, insn: &Insn) -> Addr {
        let disp = i64::from(mem.disp);
        if mem.segment.is_some() {
            return Addr::Unresolved;
        }
        if mem.rip_relative {
            return Addr::Abs(insn.end().wrapping_add(disp as u64));
        }
        let index = match mem.index.map(|i| self.val(i)) {
            None => 0,
            Some(Some(Val::Const(i))) => i.wrapping_mul(u64::from(mem.scale)),
            Some(_) => return Addr::Unresolved,
        };
        let Some(base) = mem.base else {
            return Addr::Abs(index.wrapping_add(disp as u64));
        };
        match self.val(base) {
            Some(Val::Const(b)) => Addr::Abs(b.wrapping_add(index).wrapping_add(disp as u64)),
            Some(Val::Frame(off)) if mem.index.is_none() => Addr::Frame(off.wrapping_add(disp)),
            None if base == Reg::Rsp && mem.index.is_none() => Addr::Lost,
            _ => Addr::Unresolved,
        }
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

/// Transfer function for one of an instruction's [`Insn::steps`];
/// memory is untracked (loads make their destination unknown). Shared
/// with the taint pass, which runs the same lattice alongside its taint
/// sets to resolve store/load effective addresses.
///
/// A stack address survives a 64-bit `mov`, a 64-bit `lea` of it plus a
/// displacement, a 64-bit `add`/`sub $imm` and `push`/`pop`; a call
/// keeps `%rsp`'s and `%rbp`'s (the ABI preserves both; the taint pass
/// forgets `%rbp` across a callee that may not) and forgets every other
/// register.
pub(crate) fn transfer(state: &mut RegState, insn: &Insn) {
    debug_assert_ne!(insn.kind, InsnKind::Leave, "run `leave` as its steps");
    match insn.kind {
        InsnKind::MovImmToReg { dest, imm, width } => {
            state.set(dest, narrow(Val::Const(imm as u64), width));
        }
        InsnKind::LeaRipRel {
            dest,
            target,
            width,
        } => state.set(dest, narrow(Val::Const(target), width)),
        InsnKind::Lea { dest, mem, width } => {
            let v = match state.address(&mem, insn) {
                Addr::Abs(a) => narrow(Val::Const(a), width),
                Addr::Frame(off) => narrow(Val::Frame(off), width),
                Addr::Lost | Addr::Unresolved => None,
            };
            state.set(dest, v);
        }
        InsnKind::MovRegToReg { dest, src, width } => {
            state.set(dest, state.val(src).and_then(|v| narrow(v, width)));
        }
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
            let v = match (state.val(dest), op, width) {
                (Some(Val::Const(a)), ..) => alu_fold(op, a, imm as u64, width),
                (Some(v), AluOp::Add, Width::W64) => Some(v.shift(imm)),
                (Some(v), AluOp::Sub, Width::W64) => Some(v.shift(imm.wrapping_neg())),
                _ => None,
            };
            state.set(dest, v);
        }
        kind if kind.is_call() => {
            for r in Reg::ALL {
                if !matches!(
                    (r, state.val(r)),
                    (Reg::Rsp | Reg::Rbp, Some(Val::Frame(_)))
                ) {
                    state.set(r, None);
                }
            }
        }
        // Everything else: a push or pop moves `%rsp` by one slot, and
        // every register written is lost.
        kind => {
            let e = kind.effects();
            if let Some(op) = e.stack {
                let step = if op == Stack::Push { -8 } else { 8 };
                state.set(Reg::Rsp, state.val(Reg::Rsp).map(|sp| sp.shift(step)));
            }
            for r in e.writes.iter() {
                state.set(r, None);
            }
        }
    }
}

/// The value a write of `v` at `width` leaves in the full register: a
/// 32-bit write zero-extends (no longer a stack address), a narrower
/// one merges into the old register (unknown here).
fn narrow(v: Val, width: Width) -> Option<Val> {
    match (width, v) {
        (Width::W64, v) => Some(v),
        (Width::W32, Val::Const(c)) => Some(Val::Const(c & 0xffff_ffff)),
        _ => None,
    }
}

fn alu_fold(op: AluOp, a: u64, b: u64, width: Width) -> Option<Val> {
    let full = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        // Carry-dependent ops need flag tracking; stay unknown.
        AluOp::Adc | AluOp::Sbb | AluOp::Cmp => return None,
    };
    narrow(Val::Const(full), width)
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
            for step in insn.steps() {
                transfer(&mut state, &step);
            }
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
