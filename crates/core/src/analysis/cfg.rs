//! Basic-block recovery and the control-flow graph.
//!
//! Block recovery runs over the loader's instruction buffer
//! ([`crate::loader::LoadedBinary::insns`], already in address order)
//! and its instruction index ([`crate::loader::LoadedBinary::index`]):
//! every address lookup is an O(1) index probe, leaders are marked by
//! instruction index, and "which block does instruction `i` lead?" is a
//! rank query on the block starts. A *leader* — the first instruction
//! of a basic block — is:
//!
//! 1. the first decoded instruction,
//! 2. any statically-known branch target (`jmp rel`, `jcc rel`,
//!    `call rel` — call targets start blocks even though calls do not
//!    end them, so every called function head leads a block),
//! 3. the instruction after any block terminator (`jmp`, `jcc`,
//!    `jmp *`, `ret`), and
//! 4. any analysis *root*: the entry point, every symbol-table
//!    function start, and every `lea …(%rip)` target — the load-time
//!    validator's own reachability roots
//!    ([`engarde_x86::validate::roots`]).
//!
//! Edges are typed ([`EdgeKind`]): every static edge targets a leader
//! by construction — a property the test suite pins. They are stored
//! once, block by block, so a block's outgoing edges are one contiguous
//! run of [`Cfg::edges`] that [`Cfg::successors`] slices. Indirect
//! branches contribute *no* static edge; [`Cfg::indirect_sites`] lists
//! every indirect jump and call, in instruction order, for the dataflow
//! pass to resolve. A direct branch whose target is not a decoded
//! instruction start gets no edge either and is recorded in
//! [`Cfg::wild_branches`]. The load-time validator already rejects
//! such a branch, so a loaded binary has none; the CFG records them
//! rather than relying on that, so it stays total over any instruction
//! buffer and the reachability policy rejects them on its own.

use engarde_x86::index::{InsnIndex, RankBitmap};
use engarde_x86::insn::{Insn, InsnKind};

/// Index of a basic block within [`Cfg::blocks`].
pub type BlockId = usize;

/// Why a CFG edge exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// Unconditional `jmp rel`.
    Direct,
    /// Taken side of a `jcc rel`.
    Conditional,
    /// Straight-line flow into the next leader (including the not-taken
    /// side of a `jcc` and the return site of a call).
    FallThrough,
    /// Padding bridge: the predecessor ends in a flow-ender but the next
    /// block starts with a `nop`, so the region continues across
    /// alignment padding (the same rule the load-time validator uses).
    NopBridge,
}

/// One CFG edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Target block (always a leader).
    pub to: BlockId,
    /// Edge type.
    pub kind: EdgeKind,
}

/// A maximal straight-line run of instructions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BasicBlock {
    /// Address of the leader.
    pub start: u64,
    /// Address one past the last instruction.
    pub end: u64,
    /// Index range into the instruction buffer.
    pub insns: std::ops::Range<usize>,
}

/// The intraprocedural control-flow graph.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    /// Blocks in address order.
    pub blocks: Vec<BasicBlock>,
    /// All edges.
    pub edges: Vec<Edge>,
    /// Per-block start offsets into [`Cfg::edges`], one more than
    /// there are blocks: a block's edges are contiguous, since they are
    /// pushed block by block.
    succs: Vec<usize>,
    /// Instruction-buffer indices of indirect jumps and calls, in
    /// order: the sites the constant-propagation pass tries to resolve.
    pub indirect_sites: Vec<usize>,
    /// Direct branches whose target is not a decoded instruction start:
    /// `(insn index, target)`. Policies treat these as violations.
    pub wild_branches: Vec<(usize, u64)>,
    /// The first instruction of every block, over instruction indices:
    /// the rank of a block's first instruction is its [`BlockId`].
    block_starts: RankBitmap,
}

impl Cfg {
    /// Builds the CFG over the instruction buffer and its index.
    /// `roots` are extra leader addresses (entry point, symbol starts,
    /// `lea` targets); addresses that are not instruction starts are
    /// ignored here (the reachability pass surfaces them as violations
    /// via resolution).
    ///
    /// Returns the graph plus the native-cycle cost of building it
    /// (per-instruction leader marking + per-edge construction).
    pub fn build(insns: &[Insn], index: &InsnIndex, roots: &[u64]) -> (Cfg, u64) {
        use engarde_sgx::perf::costs;

        // ---- leader marking ---------------------------------------------
        let mut leaders = vec![false; insns.len()];
        let mut mark = |addr: u64| {
            if let Some(l) = index.get(addr).and_then(|i| leaders.get_mut(i)) {
                *l = true;
            }
        };
        if let Some(first) = insns.first() {
            mark(first.addr);
        }
        for insn in insns {
            if let Some(target) = insn.kind.branch_target() {
                mark(target);
            }
            if insn.kind.ends_block() {
                mark(insn.end());
            }
        }
        for &root in roots {
            mark(root);
        }

        // ---- block assembly ---------------------------------------------
        let mut cfg = Cfg::default();
        let mut block_start: Option<usize> = None;
        for (i, insn) in insns.iter().enumerate() {
            if block_start.is_none() {
                block_start = Some(i);
            }
            let next_is_leader = leaders.get(i + 1).is_some_and(|&l| l);
            if insn.kind.ends_block() || next_is_leader || i + 1 == insns.len() {
                // `block_start` was seeded at the top of this iteration,
                // so `i` is a sound (if degenerate) fallback.
                let s = block_start.take().unwrap_or(i);
                cfg.blocks.push(BasicBlock {
                    start: insns[s].addr,
                    end: insn.end(),
                    insns: s..i + 1,
                });
            }
        }
        cfg.block_starts = RankBitmap::new(insns.len(), cfg.blocks.iter().map(|b| b.insns.start));
        cfg.indirect_sites = insns
            .iter()
            .enumerate()
            .filter(|(_, insn)| insn.kind.is_indirect_branch())
            .map(|(i, _)| i)
            .collect();

        // ---- edges -------------------------------------------------------
        for id in 0..cfg.blocks.len() {
            cfg.succs.push(cfg.edges.len());
            let last = insns[cfg.blocks[id].insns.end - 1];
            let succ = last.successors();
            if let Some(t) = succ.branch {
                match cfg.block_at_addr(index, t) {
                    Some(to) => {
                        let kind = if matches!(last.kind, InsnKind::CondJmp { .. }) {
                            EdgeKind::Conditional
                        } else {
                            EdgeKind::Direct
                        };
                        cfg.edges.push(Edge { from: id, to, kind });
                    }
                    None => cfg.wild_branches.push((cfg.blocks[id].insns.end - 1, t)),
                }
            }
            if let Some(t) = succ.fall_through {
                if let Some(to) = cfg.block_at_addr(index, t) {
                    cfg.edges.push(Edge {
                        from: id,
                        to,
                        kind: EdgeKind::FallThrough,
                    });
                }
            } else {
                // Flow-ender: bridge across `nop` padding, as the
                // load-time validator does, so alignment filler and
                // back-to-back jump-table entries stay connected.
                if let Some(next) = insns.get(cfg.blocks[id].insns.end) {
                    if matches!(next.kind, InsnKind::Nop) {
                        if let Some(to) = cfg.block_at(cfg.blocks[id].insns.end) {
                            cfg.edges.push(Edge {
                                from: id,
                                to,
                                kind: EdgeKind::NopBridge,
                            });
                        }
                    }
                }
            }
        }
        cfg.succs.push(cfg.edges.len());

        let cost =
            insns.len() as u64 * costs::CFG_PER_INSN + cfg.edges.len() as u64 * costs::CFG_PER_EDGE;
        (cfg, cost)
    }

    /// The block whose first instruction is instruction `insn`.
    pub fn block_at(&self, insn: usize) -> Option<BlockId> {
        self.block_starts.rank(insn)
    }

    /// The block whose leader is exactly `addr`, by way of the `index`
    /// the graph was built over.
    pub fn block_at_addr(&self, index: &InsnIndex, addr: u64) -> Option<BlockId> {
        self.block_at(index.get(addr)?)
    }

    /// Outgoing edges of `block`, in [`Cfg::edges`] order.
    pub fn successors(&self, block: BlockId) -> &[Edge] {
        &self.edges[self.succs[block]..self.succs[block + 1]]
    }
}
