//! The forward-dataflow framework over the CFG: one worklist solver,
//! which constant propagation and the taint pass both run on, and the
//! register lattice they share.
//!
//! The solver (`solve`) works over a range of blocks: FIFO worklist,
//! in-states joined by reference over every *visited* predecessor, a
//! fresh state across each [`EdgeKind::NopBridge`], until the fixpoint.
//! A pass supplies only its state type, join and per-block transfer.
//!
//! The lattice per register is `Option<Val>`: `Some(Const(c))` means
//! "always holds `c` on entry to this point", `Some(Frame(off))`
//! "always holds the function-entry `%rsp` plus `off`", `None` means
//! unknown. The join is pointwise (`Some(a) ⊔ Some(a) = Some(a)`,
//! anything else `None`). Every constant-propagation transfer step
//! charges [`engarde_sgx::perf::costs::DATAFLOW_PER_STEP`], so revisits
//! — not just instruction count — show up in the cycle model.
//!
//! Constant propagation seeds its roots all-unknown, so it sees only
//! constants; it resolves `lea`/`mov`-fed indirect branches (the IFCC
//! target `((imm32 - low32(table)) & mask) + table`, or a hidden
//! mid-instruction address) into [`ConstProp::resolved`]. The taint
//! pass runs the same lattice with `%rsp = Frame(0)` at function entry
//! and resolves every memory operand with `RegState::address`.

use super::cfg::{BlockId, Cfg, EdgeKind};
use engarde_x86::insn::{AluOp, Insn, InsnKind, MemOperand, Stack, Width};
use engarde_x86::reg::Reg;
use std::collections::VecDeque;
use std::ops::Range;

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

/// The one forward worklist solver both passes run on: blocks in
/// `range` of `cfg`, seeded with `seeds` (a block's first seed state
/// wins, and each seed is queued once). A popped block's in-state is
/// cloned and handed to `visit`, which runs the block's transfer over
/// it; the out-state then flows along each edge that stays in `range`,
/// in [`Cfg::edges`] order. A [`EdgeKind::NopBridge`] carries `bridge`
/// instead: it is padding adjacency, not a control transfer (the
/// predecessor ended in `ret`/`jmp`), so whoever really enters the
/// bridged block arrives with a fresh state. The first state to reach
/// a block is cloned; later ones `join` into it by reference, and a
/// block is re-queued, FIFO, when its in-state changed and it is not
/// already queued.
pub(super) fn solve<S: Clone>(
    cfg: &Cfg,
    range: Range<BlockId>,
    seeds: impl IntoIterator<Item = (BlockId, S)>,
    bridge: &S,
    join: impl Fn(&mut S, &S) -> bool,
    mut visit: impl FnMut(BlockId, &mut S),
) {
    let first = range.start;
    let mut in_states: Vec<Option<S>> = vec![None; range.len()];
    let mut queued = vec![false; range.len()];
    let mut worklist: VecDeque<BlockId> = VecDeque::new();
    for (b, state) in seeds {
        if !range.contains(&b) {
            continue;
        }
        in_states[b - first].get_or_insert(state);
        if !queued[b - first] {
            queued[b - first] = true;
            worklist.push_back(b);
        }
    }

    while let Some(b) = worklist.pop_front() {
        queued[b - first] = false;
        // Every queued block was given a state before queueing; a bare
        // `continue` keeps the loop panic-free if that invariant ever
        // breaks on hostile input.
        let Some(mut state) = in_states[b - first].clone() else {
            continue;
        };
        visit(b, &mut state);
        for edge in cfg.successors(b) {
            if !range.contains(&edge.to) {
                continue;
            }
            let to = edge.to - first;
            let carried = if edge.kind == EdgeKind::NopBridge {
                bridge
            } else {
                &state
            };
            let changed = match &mut in_states[to] {
                Some(existing) => join(existing, carried),
                slot @ None => {
                    *slot = Some(carried.clone());
                    true
                }
            };
            if changed && !queued[to] {
                queued[to] = true;
                worklist.push_back(edge.to);
            }
        }
    }
}

/// Runs constant propagation to a fixpoint. `roots` are the block ids
/// seeded with the all-unknown entry state (entry point, function
/// starts, address-taken code — any place control can arrive from
/// outside the CFG's static edges).
pub fn constant_propagation(cfg: &Cfg, insns: &[Insn], roots: &[BlockId]) -> ConstProp {
    let mut out = ConstProp::default();
    // One slot per `cfg.indirect_sites` entry (every indirect branch is
    // one): unvisited, or the operand value every visit agreed on.
    let mut site_values: Vec<Option<Option<u64>>> = vec![None; cfg.indirect_sites.len()];
    solve(
        cfg,
        0..cfg.blocks.len(),
        roots.iter().map(|&r| (r, RegState::unknown())),
        &RegState::unknown(),
        RegState::join,
        |b, state| {
            for i in cfg.blocks[b].insns.clone() {
                out.steps += 1;
                let insn = &insns[i];
                // Record the operand value at each indirect-branch site;
                // joins across visits degrade to unknown, mirroring the
                // lattice (a site that sees two targets is unresolved).
                if let InsnKind::IndirectJmpReg { reg } | InsnKind::IndirectCallReg { reg } =
                    insn.kind
                {
                    let v = state.get(reg);
                    if let Ok(k) = cfg.indirect_sites.binary_search(&i) {
                        let slot = &mut site_values[k];
                        *slot = match *slot {
                            Some(prev) if prev != v => Some(None),
                            _ => Some(v),
                        };
                    }
                }
                for step in insn.steps() {
                    transfer(state, &step);
                }
            }
        },
    );

    out.resolved = cfg
        .indirect_sites
        .iter()
        .zip(site_values)
        .filter_map(|(&i, v)| v.flatten().map(|t| (i, t)))
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use engarde_x86::decode::decode_all;
    use engarde_x86::index::InsnIndex;

    /// Five blocks: a diamond 0 → {2, 1} → 3, then `nop` padding after
    /// block 3's `ret`, bridged into block 4.
    ///
    /// ```text
    /// 0x0: jz 0x5    b0   Conditional → b2, FallThrough → b1
    /// 0x2: nop       b1
    /// 0x3: jmp 0x6        Direct → b3
    /// 0x5: push rax  b2   FallThrough → b3
    /// 0x6: ret       b3   NopBridge → b4
    /// 0x7: nop       b4
    /// 0x8: ret
    /// ```
    fn diamond() -> Cfg {
        let code = [0x74, 0x03, 0x90, 0xeb, 0x01, 0x50, 0xc3, 0x90, 0xc3];
        let insns = decode_all(&code, 0).expect("decodes");
        let (cfg, _) = Cfg::build(&insns, &InsnIndex::new(&insns), &[]);
        let kinds: Vec<_> = cfg.edges.iter().map(|e| (e.from, e.to, e.kind)).collect();
        assert_eq!(
            kinds,
            [
                (0, 2, EdgeKind::Conditional),
                (0, 1, EdgeKind::FallThrough),
                (1, 3, EdgeKind::Direct),
                (2, 3, EdgeKind::FallThrough),
                (3, 4, EdgeKind::NopBridge),
            ]
        );
        cfg
    }

    /// Runs the solver with a bitmask state (join = union): each visit
    /// records `(block, in-state)` and adds the block's own bit.
    fn visits(cfg: &Cfg, range: Range<BlockId>) -> Vec<(BlockId, u32)> {
        const BRIDGE: u32 = 1 << 31;
        let join = |a: &mut u32, b: &u32| {
            let old = *a;
            *a |= *b;
            *a != old
        };
        let mut seen = Vec::new();
        solve(cfg, range, [(0, 0u32)], &BRIDGE, join, |b, st| {
            seen.push((b, *st));
            *st |= 1 << b;
        });
        seen
    }

    #[test]
    fn the_solver_is_fifo_bridges_padding_and_stays_in_its_range() {
        let cfg = diamond();
        // FIFO: block 0 queues 2 then 1 (edge order), and both are
        // visited before 3. Block 3 is queued once, and joins what both
        // arms carry. The bridged block 4 sees only the bridge state.
        assert_eq!(
            visits(&cfg, 0..5),
            [(0, 0), (2, 0b1), (1, 0b1), (3, 0b111), (4, 1 << 31)]
        );
        // An edge that leaves the range is not followed.
        assert_eq!(visits(&cfg, 0..4), [(0, 0), (2, 0b1), (1, 0b1), (3, 0b111)]);
    }
}
