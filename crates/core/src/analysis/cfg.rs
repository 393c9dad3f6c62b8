//! Basic-block recovery, the control-flow graph, and the call graph.
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
//!    end them, so the call graph and CFG agree on function heads),
//! 3. the instruction after any block terminator (`jmp`, `jcc`,
//!    `jmp *`, `ret`), and
//! 4. any analysis *root*: the entry point, every symbol-table
//!    function start, and every `lea …(%rip)` target (address-taken
//!    code, mirroring the load-time validator's reachability roots).
//!
//! Edges are typed ([`EdgeKind`]): every static edge targets a leader
//! by construction — a property the test suite pins. Indirect branches
//! contribute *no* static edge; they are recorded as
//! [`Cfg::indirect_sites`] for the dataflow pass to resolve. A direct
//! branch whose target is not a decoded instruction start gets no edge
//! either and is recorded in [`Cfg::wild_branches`]. The load-time
//! validator already rejects such a branch, so a loaded binary has
//! none; the CFG records them rather than relying on that, so it stays
//! total over any instruction buffer and the reachability policy
//! rejects them on its own.

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
    /// Per-block outgoing edge indices (into [`Cfg::edges`]).
    pub succs: Vec<Vec<usize>>,
    /// Instruction-buffer indices of indirect jumps and calls — the
    /// sites the constant-propagation pass tries to resolve.
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
        cfg.succs = vec![Vec::new(); cfg.blocks.len()];

        // ---- edges -------------------------------------------------------
        for id in 0..cfg.blocks.len() {
            let last = insns[cfg.blocks[id].insns.end - 1];
            let succ = last.successors();
            if succ.indirect {
                cfg.indirect_sites.push(cfg.blocks[id].insns.end - 1);
            }
            if let Some(t) = succ.branch {
                match cfg.block_at_addr(index, t) {
                    Some(to) => {
                        let kind = if matches!(last.kind, InsnKind::CondJmp { .. }) {
                            EdgeKind::Conditional
                        } else {
                            EdgeKind::Direct
                        };
                        cfg.push_edge(id, to, kind);
                    }
                    None => cfg.wild_branches.push((cfg.blocks[id].insns.end - 1, t)),
                }
            }
            if let Some(t) = succ.fall_through {
                if let Some(to) = cfg.block_at_addr(index, t) {
                    cfg.push_edge(id, to, EdgeKind::FallThrough);
                }
            } else {
                // Flow-ender: bridge across `nop` padding, as the
                // load-time validator does, so alignment filler and
                // back-to-back jump-table entries stay connected.
                if let Some(next) = insns.get(cfg.blocks[id].insns.end) {
                    if matches!(next.kind, InsnKind::Nop) {
                        if let Some(to) = cfg.block_at(cfg.blocks[id].insns.end) {
                            cfg.push_edge(id, to, EdgeKind::NopBridge);
                        }
                    }
                }
            }
            // Indirect calls also record as sites (they fall through, so
            // the edge above covers the return path).
            if last.kind.is_indirect_branch() && !succ.indirect {
                cfg.indirect_sites.push(cfg.blocks[id].insns.end - 1);
            }
        }
        // Indirect *calls* in the middle of a block are sites too.
        for id in 0..cfg.blocks.len() {
            let r = cfg.blocks[id].insns.clone();
            for (i, insn) in insns.iter().enumerate().take(r.end - 1).skip(r.start) {
                if insn.kind.is_indirect_branch() {
                    cfg.indirect_sites.push(i);
                }
            }
        }
        cfg.indirect_sites.sort_unstable();
        cfg.indirect_sites.dedup();

        let cost =
            insns.len() as u64 * costs::CFG_PER_INSN + cfg.edges.len() as u64 * costs::CFG_PER_EDGE;
        (cfg, cost)
    }

    fn push_edge(&mut self, from: BlockId, to: BlockId, kind: EdgeKind) {
        self.succs[from].push(self.edges.len());
        self.edges.push(Edge { from, to, kind });
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

    /// The block containing `addr` (anywhere inside it).
    pub fn block_containing(&self, addr: u64) -> Option<BlockId> {
        let i = self
            .blocks
            .partition_point(|b| b.start <= addr)
            .checked_sub(1)?;
        (addr < self.blocks[i].end).then_some(i)
    }

    /// Outgoing edges of `block`.
    pub fn successors(&self, block: BlockId) -> impl Iterator<Item = &Edge> {
        self.succs[block].iter().map(move |&e| &self.edges[e])
    }
}

/// One call-graph edge: a direct call from the function containing the
/// call site to the function starting at the target.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CallEdge {
    /// Start address of the calling function (`None` when the call site
    /// lies outside every known function, e.g. dispatcher glue).
    pub caller: Option<u64>,
    /// Call target address.
    pub callee: u64,
    /// Instruction-buffer index of the call site.
    pub site: usize,
}

/// The symbol-keyed call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Direct-call edges in site order.
    pub edges: Vec<CallEdge>,
    /// Instruction-buffer indices of indirect call sites (unknown
    /// callee until dataflow resolves them).
    pub indirect_sites: Vec<usize>,
}

impl CallGraph {
    /// Builds the call graph: `function_starts` is the sorted
    /// symbol-table address list.
    pub fn build(insns: &[Insn], function_starts: &[u64]) -> CallGraph {
        let containing = |addr: u64| -> Option<u64> {
            let i = function_starts.partition_point(|&s| s <= addr);
            i.checked_sub(1).map(|i| function_starts[i])
        };
        let mut g = CallGraph::default();
        for (i, insn) in insns.iter().enumerate() {
            match insn.kind {
                InsnKind::DirectCall { target } => g.edges.push(CallEdge {
                    caller: containing(insn.addr),
                    callee: target,
                    site: i,
                }),
                k if k.is_call() => g.indirect_sites.push(i),
                _ => {}
            }
        }
        g
    }

    /// Direct callees of the function starting at `func`.
    pub fn callees_of(&self, func: u64) -> impl Iterator<Item = u64> + '_ {
        self.edges
            .iter()
            .filter(move |e| e.caller == Some(func))
            .map(|e| e.callee)
    }
}
