//! Interprocedural taint analysis: tracks secret-derived data from the
//! loader's secret ranges to leak sinks, over the recovered CFG.
//!
//! **Sources** are the memory ranges holding secrets ([`SecretRange`])
//! passed to [`TaintAnalysis::compute`]: the loader's record of the
//! enclave's channel-key/AES state block and the decrypted-content
//! staging region. A load whose resolved effective address lands in a
//! source range produces a tainted value.
//!
//! **The domain** is a join-semilattice per abstract value
//! ([`AbsTaint`]): a bitmask of concrete sources already acquired
//! ([`TaintSet`], join = union) plus a bitmask over the enclosing
//! function's *input registers* — the symbolic half that makes the
//! analysis interprocedural. Per program point the state tracks all 16
//! registers, the flags, an abstract memory environment ([`MemEnv`]) of
//! tracked cells ([`CellKey`]: entry-`%rsp`-relative frame slots and
//! constant in-enclave addresses), and the one register lattice of
//! [`super::dataflow`] — a constant or an entry-`%rsp` offset per
//! register, `%rsp` at offset 0 on entry. A tainted store followed by a
//! load from the same cell restores the label, so spills do not launder.
//!
//! **One transfer** serves every data instruction, driven by the
//! decoder's [`Effects`]: the result joins the registers it reads (a
//! partial register write reads its destination), the flags if it
//! reads them and what it loads; it sets the flags, is stored, and is
//! written to each destination. Only control flow, the saved-`%rbp`
//! bookkeeping of `push`/`pop`, the `xor r, r` zeroing idiom and the
//! canary load have arms of their own; `leave` runs as its
//! [`Insn::steps`], `mov rsp, rbp; pop rbp`.
//!
//! **One resolver** (`RegState::address`) names every memory operand:
//! a constant address is a source, an `Abs` cell or an out-of-enclave
//! sink; a base holding a stack offset (no index) names
//! `Frame(offset + disp)`; a `%rsp` base whose offset was lost is a
//! widened read / weak store in the frame; anything else — a
//! segment-overridden operand included — is an unresolved pointer,
//! whose loads observe every tracked cell.
//!
//! **Summaries**: functions are processed callee-first over the SCCs of
//! the direct-call graph, read straight off the instruction buffer
//! (iterative Tarjan; cyclic SCCs to a fixpoint). Each function runs to
//! its local fixpoint on the solver constant propagation uses
//! ([`super::dataflow`]), over its own block range. A [`FnSummary`]
//! holds each register's taint at return, per sink kind the input
//! registers that reach it, the caller-visible spill escape, and
//! whether `%rbp` may come back changed (it does not when every `ret`
//! sees `%rbp` unwritten or popped from the slot its own `push rbp`
//! saved it in; otherwise callers forget `%rbp`'s offset). At a call
//! site the summary is resolved against the caller's register taints,
//! so a leak laundered through any number of calls surfaces at the call
//! site that supplied the secret. An unknown callee smears every
//! argument everywhere and may change `%rbp`.
//!
//! **Sinks** ([`SinkKind`]): stores whose resolved target lies outside
//! the enclave, tainted operands feeding indirect jumps/calls,
//! conditional branches on tainted flags, and tainted stores through
//! unresolved addresses ([`SinkKind::UnresolvedStore`]) — flagged *and*
//! escaped into the environment's ambient component, which every later
//! load joins in, so a label is never silently dropped.
//!
//! Model limits (deliberate): a load through a *tainted pointer* is not
//! itself a sink; callees are assumed to preserve `%rsp` and to leave
//! their caller's saved `%rbp` slot alone; a callee's loads do not
//! observe the caller's memory, and its own frame slots are dead after
//! return; cells are keyed by their start address, so overlapping
//! accesses of different widths name different cells. These err toward
//! fewer reports, which keeps "removing a source never adds a finding"
//! true.
//!
//! Cost model: every instruction visit charges [`costs::TAINT_PER_STEP`]
//! (`leave` two), every memory *cell touched* (strong read/write, or the
//! full-environment scan a weak update performs) another, and every
//! function-summary computation [`costs::TAINT_PER_SUMMARY`];
//! [`TaintAnalysis::compute`] returns the total for the caller to
//! charge (memoized once per binary by [`crate::policy::AnalysisCache`]).

use super::cfg::{BlockId, Cfg};
use super::dataflow::{self, Addr, RegState, Val};
use super::ProgramAnalysis;
use crate::loader::LoadedBinary;
use engarde_sgx::perf::costs;
use engarde_x86::insn::{AluOp, Effects, Insn, InsnKind, MemOperand, Stack, Width};
use engarde_x86::reg::Reg;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// What kind of secret a [`SecretRange`] holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SecretClass {
    /// The enclave's channel-key/AES state block (loader-known).
    ChannelKey,
    /// The decrypted client-content staging region (loader/provision).
    DecryptedContent,
}

impl SecretClass {
    /// Human-readable class name used in violation reasons.
    pub fn name(self) -> &'static str {
        match self {
            SecretClass::ChannelKey => "channel-key",
            SecretClass::DecryptedContent => "decrypted-content",
        }
    }
}

/// One secret-holding memory range `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SecretRange {
    /// First byte of the range.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
    /// What the range holds.
    pub class: SecretClass,
}

/// A set of concrete taint sources, as a bitmask over the source list
/// handed to [`TaintAnalysis::compute`]. Join is union; bottom is the
/// empty set. Sources beyond index 63 collapse into bit 63 (a join, so
/// still sound — merely less precise).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct TaintSet(u64);

impl TaintSet {
    /// The empty (bottom) set.
    pub const EMPTY: TaintSet = TaintSet(0);

    /// The singleton set for source index `i`.
    pub fn source(i: usize) -> TaintSet {
        TaintSet(1u64 << i.min(63))
    }

    /// A set from a raw bitmask (tests and property harness).
    pub fn from_bits(bits: u64) -> TaintSet {
        TaintSet(bits)
    }

    /// The raw bitmask.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Least upper bound (union).
    #[must_use]
    pub fn join(self, other: TaintSet) -> TaintSet {
        TaintSet(self.0 | other.0)
    }

    /// True when no source has tainted the value.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when every source in `self` is also in `other`.
    pub fn is_subset(self, other: TaintSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates the source indices present in the set.
    pub fn iter_sources(self) -> impl Iterator<Item = usize> {
        (0..64usize).filter(move |i| self.0 & (1u64 << i) != 0)
    }
}

/// The abstract taint of one value: concrete sources already acquired
/// plus dependence on the enclosing function's input registers (bit
/// `r` set means "tainted iff input register `r` was tainted at
/// entry"). Join is pointwise union — monotone and idempotent, which
/// the property tests pin.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AbsTaint {
    /// Concrete sources reaching this value.
    pub concrete: TaintSet,
    /// Input-register dependence mask (interprocedural half).
    pub inputs: u16,
}

impl AbsTaint {
    /// The untainted (bottom) value.
    pub const EMPTY: AbsTaint = AbsTaint {
        concrete: TaintSet::EMPTY,
        inputs: 0,
    };

    /// The symbolic taint of input register `r` at function entry.
    pub fn input(r: usize) -> AbsTaint {
        AbsTaint {
            concrete: TaintSet::EMPTY,
            inputs: 1 << (r & 15),
        }
    }

    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: AbsTaint) -> AbsTaint {
        AbsTaint {
            concrete: self.concrete.join(other.concrete),
            inputs: self.inputs | other.inputs,
        }
    }

    /// True for the bottom value.
    pub fn is_empty(self) -> bool {
        self.concrete.is_empty() && self.inputs == 0
    }

    fn join_in(&mut self, other: AbsTaint) -> bool {
        let joined = self.join(other);
        let changed = joined != *self;
        *self = joined;
        changed
    }
}

/// The kind of sink a tainted value reached.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SinkKind {
    /// A store whose resolved target lies outside the enclave's mapped
    /// range.
    OutOfEnclaveWrite = 0,
    /// A tainted operand feeding an indirect jump/call (exit or
    /// trampoline site).
    ExitOperand = 1,
    /// A conditional branch whose condition is tainted (side-channel
    /// shape).
    TaintedBranch = 2,
    /// A tainted value stored through an address the analysis could
    /// not resolve: the write may land anywhere, so it is a sink
    /// *candidate* rather than a silent taint drop.
    UnresolvedStore = 3,
}

/// Number of sink kinds (the length of per-kind summary arrays).
pub const SINK_KINDS: usize = 4;

impl SinkKind {
    /// Human-readable sink name used in violation reasons.
    pub fn name(self) -> &'static str {
        match self {
            SinkKind::OutOfEnclaveWrite => "out-of-enclave write",
            SinkKind::ExitOperand => "exit/trampoline operand",
            SinkKind::TaintedBranch => "secret-dependent branch",
            SinkKind::UnresolvedStore => "unresolved-address store",
        }
    }
}

/// One concrete taint flow: a source set reaching a sink instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaintFinding {
    /// What kind of sink was reached.
    pub kind: SinkKind,
    /// Address of the sink instruction (for an interprocedural flow,
    /// the call site that supplied the concrete secret).
    pub addr: u64,
    /// Which sources reach the sink.
    pub sources: TaintSet,
}

/// Verdict-level counters for one taint analysis, mirrored through the
/// provisioning outcome into the serve fleet's metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TaintStats {
    /// Findings whose sink leaks data out of the enclave
    /// (out-of-enclave writes + exit operands).
    pub leaks_found: u64,
    /// Secret-dependent conditional branches found.
    pub tainted_branches: u64,
    /// Call-graph SCCs processed.
    pub scc_count: u64,
    /// Total worklist block visits across all function analyses (the
    /// fixpoint's revisit count).
    pub fixpoint_iterations: u64,
    /// Distinct memory cells the abstract environment ever tracked a
    /// strong update for (stack spills + constant-address stores).
    pub spill_cells: u64,
    /// Weak-update events: tainted stores whose target cell could not
    /// be pinned down, folded into the ambient escaped component
    /// (counted per propagation visit, so fixpoint revisits count).
    pub weak_updates: u64,
    /// Distinct [`SinkKind::UnresolvedStore`] findings — tainted
    /// stores through fully unresolved addresses, flagged rather than
    /// silently dropped.
    pub unresolved_store_sinks: u64,
    /// Native cycles charged for the analysis.
    pub cycles_charged: u64,
}

/// A tracked memory cell in the abstract environment.
///
/// The two families cover the addresses the analysis can pin down:
/// stack slots through any base register with a known entry-`%rsp`
/// offset, and constant-resolved addresses. Everything else degrades
/// to the ambient escaped component (a weak update — sound, merely
/// imprecise).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum CellKey {
    /// An entry-`%rsp`-relative frame slot: the offset of the cell
    /// from the stack pointer *at function entry* (negative = below
    /// the return address), whatever base register named it.
    Frame(i64),
    /// A constant-resolved absolute in-enclave address.
    Abs(u64),
}

impl CellKey {
    /// True for stack slots.
    pub fn is_stack(self) -> bool {
        matches!(self, CellKey::Frame(_))
    }

    /// True for cells that outlive the function's own frame: absolute
    /// addresses, and stack slots that overlap the return address or
    /// the caller's frame (at or above the entry `%rsp`). These make up
    /// a summary's spill escape; the slots below die on return.
    pub fn outlives_frame(self) -> bool {
        match self {
            CellKey::Frame(off) => off > -8,
            CellKey::Abs(_) => true,
        }
    }
}

/// The abstract memory environment: a finite map of tracked cells plus
/// an *ambient escaped* component — the join of every tainted value
/// stored somewhere we could not name. Every load joins the ambient
/// component in, so an unresolved store weakly updates all cells at
/// once without enumerating them.
///
/// Absent cells are untainted (bottom); the join is pointwise union,
/// which keeps the whole environment a join-semilattice (the property
/// tests pin the laws).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MemEnv {
    cells: BTreeMap<CellKey, AbsTaint>,
    escaped: AbsTaint,
}

impl MemEnv {
    /// The empty (bottom) environment.
    pub fn new() -> MemEnv {
        MemEnv::default()
    }

    /// The taint a load from `key` observes: the cell's own label
    /// joined with the ambient escaped component.
    pub fn read(&self, key: CellKey) -> AbsTaint {
        self.cells
            .get(&key)
            .copied()
            .unwrap_or(AbsTaint::EMPTY)
            .join(self.escaped)
    }

    /// Strong update: the cell now holds exactly `t` (empty removes
    /// the cell — absent is bottom).
    pub fn write_strong(&mut self, key: CellKey, t: AbsTaint) {
        if t.is_empty() {
            self.cells.remove(&key);
        } else {
            self.cells.insert(key, t);
        }
    }

    /// Weak update: `t` may have landed in any cell. Folds into the
    /// ambient component, which every read joins in.
    pub fn escape(&mut self, t: AbsTaint) {
        self.escaped = self.escaped.join(t);
    }

    /// The ambient escaped component.
    pub fn escaped(&self) -> AbsTaint {
        self.escaped
    }

    /// Join of every tracked stack cell plus the ambient component —
    /// what a stack load with an unresolvable offset observes.
    pub fn frame_read(&self) -> AbsTaint {
        self.cells
            .iter()
            .filter(|(k, _)| k.is_stack())
            .fold(self.escaped, |acc, (_, v)| acc.join(*v))
    }

    /// Join of every tracked cell plus the ambient component — what a
    /// load through an unresolved pointer observes (it may alias any
    /// cell).
    pub fn any_read(&self) -> AbsTaint {
        self.cells
            .values()
            .fold(self.escaped, |acc, v| acc.join(*v))
    }

    /// Join of every cell that outlives the frame plus the ambient
    /// component — the caller-visible spill escape a summary carries.
    pub fn caller_escape(&self) -> AbsTaint {
        self.cells
            .iter()
            .filter(|(k, _)| k.outlives_frame())
            .fold(self.escaped, |acc, (_, v)| acc.join(*v))
    }

    /// Number of tracked cells (the weak-update scan width, metered).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Least upper bound; returns true when `self` grew.
    pub fn join(&mut self, other: &MemEnv) -> bool {
        let mut changed = false;
        for (k, v) in &other.cells {
            if v.is_empty() {
                continue;
            }
            changed |= self.cells.entry(*k).or_insert(AbsTaint::EMPTY).join_in(*v);
        }
        changed |= self.escaped.join_in(other.escaped);
        changed
    }
}

/// A function summary: register taint at return as a function of the
/// inputs, plus the input registers that reach each sink kind, plus
/// the caller-visible spill escape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FnSummary {
    /// Taint of each register at every `ret`, joined.
    pub ret: [AbsTaint; 16],
    /// Per [`SinkKind`] (by discriminant), the input registers whose
    /// taint reaches that sink inside the function or its callees.
    pub sink_inputs: [u16; SINK_KINDS],
    /// The spill escape: taint the function left behind in memory the
    /// caller can still observe (absolute-address cells, slots in the
    /// caller's frame, and anything folded into the ambient escaped
    /// component). Callers join the resolved escape into their own
    /// ambient component at the call site, so a secret parked in memory
    /// by a callee and reloaded by the caller keeps its label.
    pub escape: AbsTaint,
    /// True when some `ret` may be reached with `%rbp` changed: the
    /// function wrote `%rbp` and did not restore it by a `pop` from the
    /// slot its own `push rbp` saved it in. Callers then forget
    /// `%rbp`'s stack offset across the call.
    pub clobbers_rbp: bool,
}

impl FnSummary {
    /// The bottom summary (returns nothing tainted, reaches no sink).
    pub const BOTTOM: FnSummary = FnSummary {
        ret: [AbsTaint::EMPTY; 16],
        sink_inputs: [0; SINK_KINDS],
        escape: AbsTaint::EMPTY,
        clobbers_rbp: false,
    };
}

/// The result of one interprocedural taint analysis.
#[derive(Clone, Debug)]
pub struct TaintAnalysis {
    /// All concrete findings, ordered by (kind, address).
    pub findings: Vec<TaintFinding>,
    /// The source list the analysis ran with (finding bitmasks index
    /// into it).
    pub sources: Vec<SecretRange>,
    /// Call-graph SCCs processed.
    pub scc_count: u64,
    /// Total worklist block visits (fixpoint revisit count).
    pub fixpoint_iterations: u64,
    /// Function-summary computations performed.
    pub summaries_computed: u64,
    /// Taint-transfer steps executed (one per instruction visit).
    pub steps: u64,
    /// Memory cells touched (strong reads/writes plus weak-update scan
    /// widths) — each charged [`costs::TAINT_PER_STEP`] on top of the
    /// per-instruction charge.
    pub cell_steps: u64,
    /// Distinct cells ever strong-updated across the whole analysis.
    pub spill_cells: u64,
    /// Weak-update events (tainted stores folded into the ambient
    /// escaped component).
    pub weak_updates: u64,
}

impl TaintAnalysis {
    /// Runs the interprocedural analysis over `binary` using the
    /// already-computed `analysis` (its CFG) and the given
    /// source ranges. Returns the analysis and its native-cycle cost.
    pub fn compute(
        binary: &LoadedBinary,
        analysis: &ProgramAnalysis,
        sources: &[SecretRange],
    ) -> (TaintAnalysis, u64) {
        let insns = &binary.insns;
        let text_end = binary.text_end();

        // ---- function partition ---------------------------------------
        // Function starts: every symbol plus the entry point; extents run
        // to the next start (or text end).
        let mut fn_starts: Vec<u64> = binary.symbols.addresses().to_vec();
        fn_starts.push(binary.elf.header().e_entry);
        fn_starts.retain(|&a| a < text_end);
        fn_starts.sort_unstable();
        fn_starts.dedup();

        // Function `f` owns the blocks starting in `fn_starts[f]..` up to
        // the next start: a contiguous run of block ids, blocks being in
        // address order.
        let blocks = &analysis.cfg.blocks;
        let first_block_at = |a: u64| blocks.partition_point(|b| b.start < a);
        let fn_blocks: Vec<Range<BlockId>> = fn_starts
            .iter()
            .enumerate()
            .map(|(f, &s)| {
                let end = fn_starts
                    .get(f + 1)
                    .map_or(blocks.len(), |&n| first_block_at(n));
                first_block_at(s)..end
            })
            .collect();

        // ---- call-graph condensation ----------------------------------
        let adj = call_adjacency(
            &fn_starts,
            insns.iter().filter_map(|insn| match insn.kind {
                InsnKind::DirectCall { target } => Some((insn.addr, target)),
                _ => None,
            }),
        );
        let sccs = tarjan_sccs(fn_starts.len(), &adj);

        let mut pass = Pass {
            insns,
            cfg: &analysis.cfg,
            fn_starts: &fn_starts,
            fn_blocks: &fn_blocks,
            enclave: binary.enclave_range,
            sources,
            summaries: vec![FnSummary::BOTTOM; fn_starts.len()],
            findings: BTreeSet::new(),
            steps: 0,
            pops: 0,
            summaries_computed: 0,
            cell_steps: 0,
            weak_updates: 0,
            written_cells: BTreeSet::new(),
        };

        // ---- bottom-up summary fixpoint -------------------------------
        // Tarjan emits SCCs callee-first; cyclic SCCs iterate until
        // their member summaries stabilise (the lattice is finite, so
        // the guard is belt-and-braces, not load-bearing).
        for scc in &sccs {
            let cyclic = is_cyclic(scc, &adj);
            for _guard in 0..64 {
                let mut changed = false;
                for &f in scc {
                    changed |= pass.analyze_function(f);
                }
                if !cyclic || !changed {
                    break;
                }
            }
        }

        let findings: Vec<TaintFinding> = pass
            .findings
            .iter()
            .map(|&(kind, addr, bits)| TaintFinding {
                kind,
                addr,
                sources: TaintSet::from_bits(bits),
            })
            .collect();
        let cost = (pass.steps + pass.cell_steps) * costs::TAINT_PER_STEP
            + pass.summaries_computed * costs::TAINT_PER_SUMMARY;
        (
            TaintAnalysis {
                findings,
                sources: sources.to_vec(),
                scc_count: sccs.len() as u64,
                fixpoint_iterations: pass.pops,
                summaries_computed: pass.summaries_computed,
                steps: pass.steps,
                cell_steps: pass.cell_steps,
                spill_cells: pass.written_cells.len() as u64,
                weak_updates: pass.weak_updates,
            },
            cost,
        )
    }

    /// Findings that definitely leak data out of the enclave
    /// (out-of-enclave writes and exit operands).
    pub fn leaks(&self) -> impl Iterator<Item = &TaintFinding> {
        self.findings
            .iter()
            .filter(|f| matches!(f.kind, SinkKind::OutOfEnclaveWrite | SinkKind::ExitOperand))
    }

    /// Secret-dependent branch findings.
    pub fn branch_findings(&self) -> impl Iterator<Item = &TaintFinding> {
        self.findings
            .iter()
            .filter(|f| f.kind == SinkKind::TaintedBranch)
    }

    /// Sink-candidate findings: tainted stores through unresolved
    /// addresses (`SecretLeakage` rejects these).
    pub fn unresolved_stores(&self) -> impl Iterator<Item = &TaintFinding> {
        self.findings
            .iter()
            .filter(|f| f.kind == SinkKind::UnresolvedStore)
    }

    /// Human-readable description of a finding's source classes, e.g.
    /// `"channel-key+decrypted-content"`.
    pub fn describe_sources(&self, set: TaintSet) -> String {
        let mut names: Vec<&str> = set
            .iter_sources()
            .filter_map(|i| self.sources.get(i).map(|r| r.class.name()))
            .collect();
        names.sort_unstable();
        names.dedup();
        if names.is_empty() {
            "unknown-source".to_string()
        } else {
            names.join("+")
        }
    }

    /// Verdict-level counters, with the caller-supplied charged cost.
    pub fn stats(&self, cycles_charged: u64) -> TaintStats {
        TaintStats {
            leaks_found: self.leaks().count() as u64,
            tainted_branches: self.branch_findings().count() as u64,
            scc_count: self.scc_count,
            fixpoint_iterations: self.fixpoint_iterations,
            spill_cells: self.spill_cells,
            weak_updates: self.weak_updates,
            unresolved_store_sinks: self.unresolved_stores().count() as u64,
            cycles_charged,
        }
    }
}

// ---- per-program-point state ------------------------------------------

#[derive(Clone, PartialEq, Debug)]
struct TaintState {
    regs: [AbsTaint; 16],
    flags: AbsTaint,
    /// The abstract memory environment (tracked cells + ambient
    /// escaped component).
    mem: MemEnv,
    /// True while `%rbp` still holds its value at function entry.
    rbp_entry: bool,
    /// The frame slot a `push rbp` saved the entry `%rbp` in, while no
    /// store may have overwritten it.
    rbp_saved: Option<i64>,
    /// The register lattice (constants and entry-`%rsp` offsets), used
    /// to resolve effective addresses.
    vals: RegState,
}

impl TaintState {
    fn entry() -> TaintState {
        let mut vals = RegState::unknown();
        vals.set(Reg::Rsp, Some(Val::Frame(0)));
        let mut regs = [AbsTaint::EMPTY; 16];
        for (r, slot) in regs.iter_mut().enumerate() {
            *slot = AbsTaint::input(r);
        }
        TaintState {
            regs,
            flags: AbsTaint::EMPTY,
            mem: MemEnv::new(),
            rbp_entry: true,
            rbp_saved: None,
            vals,
        }
    }

    fn join(&mut self, other: &TaintState) -> bool {
        let mut changed = false;
        for (slot, v) in self.regs.iter_mut().zip(other.regs) {
            changed |= slot.join_in(v);
        }
        changed |= self.flags.join_in(other.flags);
        changed |= self.mem.join(&other.mem);
        if self.rbp_entry && !other.rbp_entry {
            self.rbp_entry = false;
            changed = true;
        }
        if self.rbp_saved.is_some() && self.rbp_saved != other.rbp_saved {
            self.rbp_saved = None;
            changed = true;
        }
        changed |= self.vals.join(&other.vals);
        changed
    }

    fn reg(&self, r: Reg) -> AbsTaint {
        self.regs[r as usize]
    }

    /// Writes `r` with taint `t` (its value comes from the lattice).
    fn set_reg(&mut self, r: Reg, t: AbsTaint) {
        self.regs[r as usize] = t;
        self.rbp_entry &= r != Reg::Rbp;
    }

    /// A callee may have changed `%rbp`: it is no stack address now.
    fn forget_rbp(&mut self) {
        self.vals.set(Reg::Rbp, None);
        self.rbp_entry = false;
    }

    /// A store landed at entry-`%rsp` offset `at` (`None`: anywhere).
    /// The saved `%rbp` survives only a store that cannot overlap it.
    fn frame_written(&mut self, at: Option<i64>) {
        if let Some(saved) = self.rbp_saved {
            if at.is_none_or(|k| k.abs_diff(saved) < 8) {
                self.rbp_saved = None;
            }
        }
    }
}

/// The join of the register taints an input mask selects, visiting only
/// its set bits.
fn resolve(mut mask: u16, regs: &[AbsTaint; 16]) -> AbsTaint {
    let mut t = AbsTaint::EMPTY;
    while mask != 0 {
        t = t.join(regs[mask.trailing_zeros() as usize]);
        mask &= mask - 1;
    }
    t
}

// ---- the interprocedural pass -----------------------------------------

struct Pass<'a> {
    insns: &'a [Insn],
    cfg: &'a Cfg,
    fn_starts: &'a [u64],
    fn_blocks: &'a [Range<BlockId>],
    enclave: (u64, u64),
    sources: &'a [SecretRange],
    summaries: Vec<FnSummary>,
    /// (kind, sink address, source bits) — a set so fixpoint revisits
    /// never duplicate findings.
    findings: BTreeSet<(SinkKind, u64, u64)>,
    steps: u64,
    pops: u64,
    summaries_computed: u64,
    /// Memory cells touched (metered at [`costs::TAINT_PER_STEP`]
    /// each).
    cell_steps: u64,
    /// Weak-update events (tainted store, unnameable target cell).
    weak_updates: u64,
    /// Every cell a strong update ever wrote, analysis-wide.
    written_cells: BTreeSet<CellKey>,
}

impl Pass<'_> {
    /// A metered strong cell read: the cell's label joined with the
    /// ambient escaped component.
    fn read_cell(&mut self, st: &TaintState, key: CellKey) -> AbsTaint {
        self.cell_steps += 1;
        st.mem.read(key)
    }

    /// A metered strong cell write.
    fn write_cell(&mut self, st: &mut TaintState, key: CellKey, t: AbsTaint) {
        self.cell_steps += 1;
        if let CellKey::Frame(k) = key {
            st.frame_written(Some(k));
        }
        self.written_cells.insert(key);
        st.mem.write_strong(key, t);
    }

    /// A metered weak update: `t` was stored somewhere we cannot name,
    /// so it escapes into the ambient component (every cell is weakly
    /// updated at once — charged as a scan over the tracked cells).
    fn weak_store(&mut self, st: &mut TaintState, t: AbsTaint) {
        if t.is_empty() {
            return;
        }
        self.weak_updates += 1;
        self.cell_steps += st.mem.cell_count() as u64 + 1;
        st.mem.escape(t);
    }

    /// The taint of the value a memory read produces.
    fn load_taint(&mut self, mem: &MemOperand, insn: &Insn, st: &TaintState) -> AbsTaint {
        match st.vals.address(mem, insn) {
            Addr::Abs(addr) => {
                let mut t = AbsTaint::EMPTY;
                let mut hit = false;
                for (i, r) in self.sources.iter().enumerate() {
                    if addr >= r.start && addr < r.end {
                        t.concrete = t.concrete.join(TaintSet::source(i));
                        hit = true;
                    }
                }
                if hit {
                    t
                } else if addr >= self.enclave.0 && addr < self.enclave.1 {
                    self.read_cell(st, CellKey::Abs(addr))
                } else {
                    // Resolved out-of-enclave load: untrusted data, but a
                    // previously escaped secret may sit behind it.
                    st.mem.escaped()
                }
            }
            Addr::Frame(off) => self.read_cell(st, CellKey::Frame(off)),
            // Scans: somewhere in the frame, or — through an unresolved
            // pointer — any tracked cell.
            Addr::Lost => {
                self.cell_steps += st.mem.cell_count() as u64;
                st.mem.frame_read()
            }
            Addr::Unresolved => {
                self.cell_steps += st.mem.cell_count() as u64;
                st.mem.any_read()
            }
        }
    }

    /// Records a value reaching a sink: concrete sources become findings,
    /// input dependence flows into the function summary (an untainted
    /// value does neither).
    fn sink(&mut self, kind: SinkKind, addr: u64, t: AbsTaint, summary: &mut FnSummary) {
        if !t.concrete.is_empty() {
            self.findings.insert((kind, addr, t.concrete.bits()));
        }
        summary.sink_inputs[kind as usize] |= t.inputs;
    }

    /// A store of value-taint `t` to `mem`: out-of-enclave sink check
    /// for resolved targets, strong update for nameable cells, weak
    /// update + [`SinkKind::UnresolvedStore`] flag for everything else
    /// — a tainted store never silently drops its label.
    fn store(
        &mut self,
        mem: &MemOperand,
        insn: &Insn,
        t: AbsTaint,
        st: &mut TaintState,
        summary: &mut FnSummary,
    ) {
        let at = st.vals.address(mem, insn);
        if matches!(at, Addr::Lost | Addr::Unresolved) {
            st.frame_written(None);
        }
        match at {
            Addr::Abs(addr) if addr < self.enclave.0 || addr >= self.enclave.1 => {
                self.sink(SinkKind::OutOfEnclaveWrite, insn.addr, t, summary);
            }
            Addr::Abs(addr) => self.write_cell(st, CellKey::Abs(addr), t),
            Addr::Frame(off) => self.write_cell(st, CellKey::Frame(off), t),
            // A stack slot at an unknown offset: stays in-frame, but we
            // no longer know which cell — weak update.
            Addr::Lost => self.weak_store(st, t),
            // Unresolved target: flag as a sink candidate *and* keep
            // the label alive ambiently.
            Addr::Unresolved => {
                self.sink(SinkKind::UnresolvedStore, insn.addr, t, summary);
                self.weak_store(st, t);
            }
        }
    }

    /// Substitutes a callee summary at a call site: resolves the
    /// callee's input-dependence masks against the caller's current
    /// register taints.
    fn apply_summary(
        &mut self,
        callee: usize,
        insn: &Insn,
        st: &mut TaintState,
        summary: &mut FnSummary,
    ) {
        let callee_summary = self.summaries[callee];
        // A callee taint with its input dependence replaced by the
        // caller's register taints.
        let subst = |t: AbsTaint, st: &TaintState| {
            resolve(t.inputs, &st.regs).join(AbsTaint {
                concrete: t.concrete,
                inputs: 0,
            })
        };
        for kind in [
            SinkKind::OutOfEnclaveWrite,
            SinkKind::ExitOperand,
            SinkKind::TaintedBranch,
            SinkKind::UnresolvedStore,
        ] {
            let reached = resolve(callee_summary.sink_inputs[kind as usize], &st.regs);
            self.sink(kind, insn.addr, reached, summary);
        }
        // The callee's spill escape, resolved against the caller's
        // registers, lands in the caller's ambient memory: a secret
        // the callee parked in memory is observable by any later load.
        let escape = subst(callee_summary.escape, st);
        self.weak_store(st, escape);
        st.regs = callee_summary.ret.map(|t| subst(t, st));
        if callee_summary.clobbers_rbp {
            st.forget_rbp();
        }
        st.flags = AbsTaint::EMPTY;
    }

    /// An unknown callee (indirect call or direct call outside the
    /// function set): assume it may move any argument anywhere —
    /// including into memory, so the argument join escapes ambiently —
    /// and may change `%rbp`.
    fn smear_call(&mut self, st: &mut TaintState) {
        let all = st
            .regs
            .iter()
            .copied()
            .fold(AbsTaint::EMPTY, AbsTaint::join);
        self.weak_store(st, all);
        st.regs = [all; 16];
        st.forget_rbp();
        st.flags = AbsTaint::EMPTY;
    }

    /// The taint transfer of one of an instruction's [`Insn::steps`]
    /// (sinks checked against the pre-instruction state, then the state
    /// update).
    fn transfer(&mut self, insn: &Insn, st: &mut TaintState, summary: &mut FnSummary) {
        self.steps += 1;
        let sp = match st.vals.val(Reg::Rsp) {
            Some(Val::Frame(off)) => Some(off),
            _ => None,
        };
        match insn.kind {
            InsnKind::CondJmp { .. } => {
                self.sink(SinkKind::TaintedBranch, insn.addr, st.flags, summary);
            }
            kind if kind.is_indirect_branch() => {
                let t = self.value(&kind.effects(), insn, st);
                self.sink(SinkKind::ExitOperand, insn.addr, t, summary);
                if kind.is_call() {
                    self.smear_call(st);
                }
            }
            InsnKind::DirectCall { target } => match self.fn_starts.binary_search(&target).ok() {
                Some(callee) => self.apply_summary(callee, insn, st, summary),
                None => self.smear_call(st),
            },
            InsnKind::Ret => {
                for (slot, v) in summary.ret.iter_mut().zip(st.regs) {
                    slot.join_in(v);
                }
                summary.clobbers_rbp |= !st.rbp_entry;
                // Caller-visible spill escape: absolute-address cells and
                // slots in the caller's frame outlive the function (its
                // own stack cells die with it).
                summary.escape.join_in(st.mem.caller_escape());
            }
            // The stack-protector canary: no secret, and a store that
            // could plant one there goes through a segment override,
            // which is an unresolved store.
            InsnKind::MovFsToReg { dest, .. } => st.set_reg(dest, AbsTaint::EMPTY),
            // The zeroing idiom destroys the value entirely (a narrower
            // `xor` keeps the upper bits).
            InsnKind::AluRegReg {
                op: AluOp::Xor,
                dest,
                src,
                width: Width::W32 | Width::W64,
            } if dest == src => {
                st.set_reg(dest, AbsTaint::EMPTY);
                st.flags = AbsTaint::EMPTY;
            }
            // `push rbp` at entry saves `%rbp` in its slot; popping that
            // slot gives `%rbp` its entry value back.
            InsnKind::PushReg { reg } => {
                self.data(insn, st, summary);
                if reg == Reg::Rbp && st.rbp_entry {
                    st.rbp_saved = sp.map(|sp| sp.wrapping_sub(8));
                }
            }
            InsnKind::PopReg { reg } => {
                let restores_rbp = reg == Reg::Rbp && sp.is_some() && st.rbp_saved == sp;
                self.data(insn, st, summary);
                st.rbp_entry |= restores_rbp;
            }
            _ => self.data(insn, st, summary),
        }
        // The register lattice follows, exactly as in the dataflow pass.
        dataflow::transfer(&mut st.vals, insn);
    }

    /// The transfer every data instruction shares: its [`Self::value`]
    /// sets the flags, is stored, and is written to each destination
    /// register.
    fn data(&mut self, insn: &Insn, st: &mut TaintState, summary: &mut FnSummary) {
        let e = insn.kind.effects();
        let t = self.value(&e, insn, st);
        if e.sets_flags() {
            st.flags = t;
        }
        if let Some(mem) = e.mem.filter(|_| e.store()) {
            self.store(&mem, insn, t, st, summary);
        }
        if e.stack == Some(Stack::Push) {
            self.store(&MemOperand::base_disp(Reg::Rsp, -8), insn, t, st, summary);
        }
        for r in e.writes.iter() {
            st.set_reg(r, t);
        }
    }

    /// The taint of the value an instruction with effects `e` computes:
    /// the registers it reads, the flags if it reads them, and what it
    /// loads.
    fn value(&mut self, e: &Effects, insn: &Insn, st: &TaintState) -> AbsTaint {
        let mut t = e
            .reads
            .iter()
            .fold(AbsTaint::EMPTY, |t, r| t.join(st.reg(r)));
        if e.reads_flags() {
            t = t.join(st.flags);
        }
        if let Some(mem) = e.mem.filter(|_| e.load()) {
            t = t.join(self.load_taint(&mem, insn, st));
        }
        if e.stack == Some(Stack::Pop) {
            t = t.join(self.load_taint(&MemOperand::base_disp(Reg::Rsp, 0), insn, st));
        }
        t
    }

    /// Analyzes one function to its local fixpoint under the current
    /// summary table; returns true when the function's summary grew.
    fn analyze_function(&mut self, f: usize) -> bool {
        self.summaries_computed += 1;
        // The function's entry block leads its block range.
        let blocks = self.fn_blocks[f].clone();
        let first = blocks.start;
        if self
            .cfg
            .blocks
            .get(first)
            .is_none_or(|b| b.start != self.fn_starts[f])
        {
            return false;
        }
        let mut summary = self.summaries[f];
        let (cfg, insns) = (self.cfg, self.insns);
        // Stay inside the function; a nop bridge is padding adjacency,
        // entered from outside with a fresh frame.
        dataflow::solve(
            cfg,
            blocks,
            [(first, TaintState::entry())],
            &TaintState::entry(),
            TaintState::join,
            |b, st| {
                self.pops += 1;
                for i in cfg.blocks[b].insns.clone() {
                    for step in insns[i].steps() {
                        self.transfer(&step, st, &mut summary);
                    }
                }
            },
        );

        // `summary` started from the stored value and only grew, so a
        // plain inequality detects growth.
        let grew = summary != self.summaries[f];
        self.summaries[f] = summary;
        grew
    }
}

// ---- SCC computation ---------------------------------------------------

/// The call graph over function indices from `(site address, callee
/// address)` pairs in ascending site order: `adj[f]` lists each
/// function `f` calls directly once, in first-call-site order. A site's
/// caller is the last function starting at or below it, so entry-only
/// functions attribute correctly; a callee that starts no function is
/// dropped.
///
/// Sites ascend, so the caller only moves forward, and each function
/// is one address range, so a caller's sites are contiguous: a callee
/// whose last caller is `f` is already in `adj[f]`, and one stamp per
/// callee replaces a scan of the list. The list order fixes Tarjan's
/// visit order, and so the member order a cyclic SCC iterates in.
fn call_adjacency(fn_starts: &[u64], calls: impl Iterator<Item = (u64, u64)>) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); fn_starts.len()];
    let mut last_caller = vec![usize::MAX; fn_starts.len()];
    // Functions starting at or below the current site.
    let mut started = 0;
    for (site, callee) in calls {
        while fn_starts.get(started).is_some_and(|&s| s <= site) {
            started += 1;
        }
        let (Some(caller), Ok(callee)) = (started.checked_sub(1), fn_starts.binary_search(&callee))
        else {
            continue;
        };
        if last_caller[callee] != caller {
            last_caller[callee] = caller;
            adj[caller].push(callee);
        }
    }
    adj
}

/// True when an SCC must iterate to a fixpoint: it has several members,
/// or its one member calls itself.
fn is_cyclic(scc: &[usize], adj: &[Vec<usize>]) -> bool {
    scc.len() > 1 || scc.iter().any(|&f| adj[f].contains(&f))
}

/// Iterative Tarjan: returns SCCs in emission order, which for a
/// caller→callee edge orientation is callee-first (each SCC precedes
/// every SCC that calls into it).
fn tarjan_sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if index[start] != UNSEEN {
            continue;
        }
        // (node, next child position) call frames.
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, child)) = frames.last() {
            if index[v] == UNSEEN {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(child) {
                if let Some(frame) = frames.last_mut() {
                    frame.1 += 1;
                }
                if index[w] == UNSEEN {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(scc);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taint_set_join_is_union() {
        let a = TaintSet::source(0);
        let b = TaintSet::source(3);
        let j = a.join(b);
        assert!(a.is_subset(j) && b.is_subset(j));
        assert_eq!(j.join(j), j);
        assert_eq!(j.iter_sources().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn source_indices_saturate_at_63() {
        assert_eq!(TaintSet::source(80), TaintSet::source(63));
    }

    #[test]
    fn abs_taint_join_is_monotone_and_idempotent() {
        let a = AbsTaint {
            concrete: TaintSet::source(1),
            inputs: 0b0101,
        };
        let b = AbsTaint::input(7);
        let j = a.join(b);
        assert_eq!(j.join(a), j);
        assert_eq!(j.join(j), j);
        assert!(a.concrete.is_subset(j.concrete));
        assert_eq!(j.inputs, 0b0101 | (1 << 7));
    }

    #[test]
    fn tarjan_finds_cycles_and_orders_callees_first() {
        // 0 → 1 → 2 → 1 (cycle {1,2}), 0 → 3.
        let adj = vec![vec![1, 3], vec![2], vec![1], vec![]];
        let sccs = tarjan_sccs(4, &adj);
        assert_eq!(sccs.len(), 3);
        let pos = |node: usize| sccs.iter().position(|s| s.contains(&node)).unwrap();
        // Callees emitted before callers.
        assert!(pos(1) < pos(0));
        assert!(pos(3) < pos(0));
        assert_eq!(pos(1), pos(2), "cycle collapses into one SCC");
    }

    #[test]
    fn self_loop_is_a_cyclic_scc() {
        let adj = vec![vec![0]];
        let sccs = tarjan_sccs(1, &adj);
        assert_eq!(sccs, vec![vec![0]]);
    }

    const FNS: [u64; 3] = [0x100, 0x200, 0x300];

    #[test]
    fn repeated_calls_to_one_callee_give_one_edge() {
        let calls = [
            (0x110, 0x200),
            (0x120, 0x200),
            (0x130, 0x300),
            (0x140, 0x200),
        ];
        let adj = call_adjacency(&FNS, calls.into_iter());
        assert_eq!(adj, vec![vec![1, 2], vec![], vec![]]);
    }

    #[test]
    fn callees_keep_first_call_site_order() {
        let calls = [
            // Before every function, and a callee that starts none.
            (0x50, 0x200),
            (0x108, 0x250),
            (0x110, 0x300),
            (0x120, 0x200),
            (0x130, 0x300),
            (0x210, 0x300),
            (0x220, 0x100),
            (0x230, 0x300),
        ];
        let adj = call_adjacency(&FNS, calls.into_iter());
        assert_eq!(adj, vec![vec![2, 1], vec![2, 0], vec![]]);
    }

    #[test]
    fn a_self_call_marks_its_scc_cyclic() {
        // 0 → 1, 1 → 1 (recursive), 1 → 2.
        let calls = [(0x110, 0x200), (0x210, 0x200), (0x220, 0x300)];
        let adj = call_adjacency(&FNS, calls.into_iter());
        let sccs = tarjan_sccs(FNS.len(), &adj);
        assert_eq!(sccs, vec![vec![2], vec![1], vec![0]]);
        let cyclic: Vec<bool> = sccs.iter().map(|s| is_cyclic(s, &adj)).collect();
        assert_eq!(cyclic, vec![false, true, false]);
    }

    #[test]
    fn apply_summary_resolves_exactly_the_masked_registers() {
        let cfg = Cfg::default();
        let mut pass = Pass {
            insns: &[],
            cfg: &cfg,
            fn_starts: &[0x1000],
            fn_blocks: &[],
            enclave: (0x1000, 0x2000),
            sources: &[],
            summaries: vec![FnSummary::BOTTOM],
            findings: BTreeSet::new(),
            steps: 0,
            pops: 0,
            summaries_computed: 0,
            cell_steps: 0,
            weak_updates: 0,
            written_cells: BTreeSet::new(),
        };
        let two = (1 << Reg::Rdi as u16) | (1 << Reg::R9 as u16);
        pass.summaries[0].sink_inputs[SinkKind::OutOfEnclaveWrite as usize] = two;
        pass.summaries[0].ret[Reg::Rax as usize] = AbsTaint {
            concrete: TaintSet::source(5),
            inputs: two | (1 << Reg::Rsi as u16),
        };
        // Every caller register carries its own source on top of its
        // entry input dependence.
        let mut st = TaintState::entry();
        for (r, slot) in st.regs.iter_mut().enumerate() {
            slot.concrete = TaintSet::source(r + 16);
        }
        let call = Insn {
            addr: 0x1800,
            len: 5,
            prefix_len: 0,
            opcode_len: 1,
            modrm_len: 0,
            disp_len: 0,
            imm_len: 4,
            kind: InsnKind::DirectCall { target: 0x1000 },
        };
        let mut caller = FnSummary::BOTTOM;
        pass.apply_summary(0, &call, &mut st, &mut caller);

        let src = |r: Reg| TaintSet::source(r as usize + 16);
        let sink_bits = src(Reg::Rdi).join(src(Reg::R9)).bits();
        assert_eq!(
            pass.findings.iter().copied().collect::<Vec<_>>(),
            vec![(SinkKind::OutOfEnclaveWrite, 0x1800, sink_bits)]
        );
        assert_eq!(caller.sink_inputs, [two, 0, 0, 0]);
        assert_eq!(
            st.regs[Reg::Rax as usize],
            AbsTaint {
                concrete: TaintSet::source(5)
                    .join(src(Reg::Rdi))
                    .join(src(Reg::R9))
                    .join(src(Reg::Rsi)),
                inputs: two | (1 << Reg::Rsi as u16),
            }
        );
        assert!(st.regs[Reg::Rcx as usize].is_empty());
    }
}
