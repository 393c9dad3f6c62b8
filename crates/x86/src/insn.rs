//! Decoded x86-64 instructions and the metadata EnGarde's policies use.
//!
//! The paper's disassembler (built on NaCl's) parses "the byte sequence of
//! the text sections into instructions and associated metadata information,
//! e.g., the number of prefix bytes, number of opcode bytes and number of
//! displacement bytes". [`Insn`] carries exactly that, plus a semantic
//! [`InsnKind`] classification rich enough for the three policy modules.

use crate::reg::{Reg, RegSet};
use std::fmt;

/// Condition codes for conditional branches (`jcc`) — the low nibble of
/// the opcode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Cc {
    /// Overflow.
    O = 0x0,
    /// Not overflow.
    No = 0x1,
    /// Below (carry).
    B = 0x2,
    /// Above or equal (not carry).
    Ae = 0x3,
    /// Equal (zero).
    E = 0x4,
    /// Not equal (not zero).
    Ne = 0x5,
    /// Below or equal.
    Be = 0x6,
    /// Above.
    A = 0x7,
    /// Sign.
    S = 0x8,
    /// Not sign.
    Ns = 0x9,
    /// Parity.
    P = 0xa,
    /// Not parity.
    Np = 0xb,
    /// Less.
    L = 0xc,
    /// Greater or equal.
    Ge = 0xd,
    /// Less or equal.
    Le = 0xe,
    /// Greater.
    G = 0xf,
}

impl Cc {
    /// Builds a condition code from an opcode's low nibble.
    pub fn from_nibble(n: u8) -> Cc {
        const ALL: [Cc; 16] = [
            Cc::O,
            Cc::No,
            Cc::B,
            Cc::Ae,
            Cc::E,
            Cc::Ne,
            Cc::Be,
            Cc::A,
            Cc::S,
            Cc::Ns,
            Cc::P,
            Cc::Np,
            Cc::L,
            Cc::Ge,
            Cc::Le,
            Cc::G,
        ];
        ALL[(n & 0xf) as usize]
    }

    /// The mnemonic suffix (`e` for `je`, `ne` for `jne`, …).
    pub fn suffix(self) -> &'static str {
        match self {
            Cc::O => "o",
            Cc::No => "no",
            Cc::B => "b",
            Cc::Ae => "ae",
            Cc::E => "e",
            Cc::Ne => "ne",
            Cc::Be => "be",
            Cc::A => "a",
            Cc::S => "s",
            Cc::Ns => "ns",
            Cc::P => "p",
            Cc::Np => "np",
            Cc::L => "l",
            Cc::Ge => "ge",
            Cc::Le => "le",
            Cc::G => "g",
        }
    }
}

/// The arithmetic/logic group opcodes share an encoding family; this
/// names which operation an ALU instruction performs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Integer addition.
    Add,
    /// Bitwise or.
    Or,
    /// Add with carry.
    Adc,
    /// Subtract with borrow.
    Sbb,
    /// Bitwise and.
    And,
    /// Integer subtraction.
    Sub,
    /// Bitwise exclusive or.
    Xor,
    /// Compare (subtract, discard result).
    Cmp,
}

impl AluOp {
    /// Maps the `/digit` group-1 extension or `0x00..0x3f` family index.
    pub fn from_index(i: u8) -> AluOp {
        const ALL: [AluOp; 8] = [
            AluOp::Add,
            AluOp::Or,
            AluOp::Adc,
            AluOp::Sbb,
            AluOp::And,
            AluOp::Sub,
            AluOp::Xor,
            AluOp::Cmp,
        ];
        ALL[(i & 7) as usize]
    }

    /// AT&T mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Or => "or",
            AluOp::Adc => "adc",
            AluOp::Sbb => "sbb",
            AluOp::And => "and",
            AluOp::Sub => "sub",
            AluOp::Xor => "xor",
            AluOp::Cmp => "cmp",
        }
    }
}

/// A memory operand: `disp(base, index, scale)` with optional parts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MemOperand {
    /// Base register, if any.
    pub base: Option<Reg>,
    /// Index register, if any (never `%rsp`).
    pub index: Option<Reg>,
    /// Scale factor (1, 2, 4, 8).
    pub scale: u8,
    /// Displacement.
    pub disp: i32,
    /// True when the operand is RIP-relative (`disp(%rip)`).
    pub rip_relative: bool,
    /// An `%fs`/`%gs` segment override: the address is relative to a
    /// segment base the analyses do not know.
    pub segment: Option<Segment>,
}

/// A segment register whose base applies in 64-bit mode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Segment {
    /// `%fs` (`0x64` prefix).
    Fs,
    /// `%gs` (`0x65` prefix).
    Gs,
}

impl MemOperand {
    /// A plain `disp(%reg)` operand.
    pub fn base_disp(base: Reg, disp: i32) -> Self {
        MemOperand {
            base: Some(base),
            disp,
            scale: 1,
            ..Default::default()
        }
    }
}

/// Operand width of an instruction (distinct from address width).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    /// 8-bit operands.
    W8,
    /// 16-bit operands (`0x66` prefix).
    W16,
    /// 32-bit operands (default).
    W32,
    /// 64-bit operands (REX.W).
    W64,
}

/// What one instruction does to data — the single model every analysis
/// reads ([`InsnKind::effects`]). The value an instruction produces
/// depends on the registers in `reads` (and the flags when
/// [`Self::reads_flags`]) and on what it [`Self::load`]s; it goes to
/// each register in `writes`, to memory when [`Self::store`], to the
/// flags when [`Self::sets_flags`], and to the new stack top on a push.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Effects {
    /// Registers whose values flow into the result. An 8- or 16-bit
    /// register write lists its destination here: the old bits survive.
    pub reads: RegSet,
    /// Registers written (not `%rsp`'s own push/pop adjustment).
    pub writes: RegSet,
    /// The explicit memory operand, if any (`lea` and `nop` compute it
    /// but neither load nor store it).
    pub mem: Option<MemOperand>,
    /// The implicit stack access of a push or pop.
    pub stack: Option<Stack>,
    /// The four yes/no effects, one bit each, so that `Other(Effects)`
    /// keeps an [`InsnKind`] at 24 bytes.
    bits: u8,
}

/// The implicit stack slot a push writes or a pop reads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stack {
    /// Stores the result at `-8(%rsp)`, then moves `%rsp` down by 8.
    Push,
    /// Loads `(%rsp)` into the result, then moves `%rsp` up by 8.
    Pop,
}

impl Effects {
    const READS_FLAGS: u8 = 1;
    const SETS_FLAGS: u8 = 2;
    const LOAD: u8 = 4;
    const STORE: u8 = 8;

    /// True when the result depends on the flags (`adc`, `cmov`, `setcc`).
    pub fn reads_flags(&self) -> bool {
        self.bits & Self::READS_FLAGS != 0
    }

    /// True when the flags are set from the result.
    pub fn sets_flags(&self) -> bool {
        self.bits & Self::SETS_FLAGS != 0
    }

    /// True when the instruction loads from `mem`.
    pub fn load(&self) -> bool {
        self.bits & Self::LOAD != 0
    }

    /// True when the instruction stores the result to `mem`.
    pub fn store(&self) -> bool {
        self.bits & Self::STORE != 0
    }

    fn set(mut self, bit: u8, on: bool) -> Self {
        if on {
            self.bits |= bit;
        }
        self
    }

    pub(crate) fn read(mut self, r: Reg) -> Self {
        self.reads = self.reads.with(r);
        self
    }

    /// Writes `r` at `width`; a narrow write also reads it.
    pub(crate) fn write(mut self, r: Reg, width: Width) -> Self {
        self.writes = self.writes.with(r);
        match width {
            Width::W8 | Width::W16 => self.read(r),
            _ => self,
        }
    }

    pub(crate) fn flags(self, reads: bool, sets: bool) -> Self {
        self.set(Self::READS_FLAGS, reads)
            .set(Self::SETS_FLAGS, sets)
    }

    /// Accesses `mem`: `load` and `store` add to any earlier access.
    pub(crate) fn access(mut self, mem: MemOperand, load: bool, store: bool) -> Self {
        self.mem = Some(mem);
        self.set(Self::LOAD, load).set(Self::STORE, store)
    }

    /// An ALU `op` on `dest`: reads it, sets the flags, and writes it
    /// unless it is a `cmp`.
    fn alu(self, op: AluOp, dest: Reg, width: Width) -> Self {
        let carry = matches!(op, AluOp::Adc | AluOp::Sbb);
        let e = self.read(dest).flags(carry, true);
        match op {
            AluOp::Cmp => e,
            _ => e.write(dest, width),
        }
    }

    /// An ALU `op` on `mem`: loads it, sets the flags, and stores it
    /// unless it is a `cmp`.
    fn alu_mem(self, op: AluOp, mem: MemOperand) -> Self {
        self.flags(matches!(op, AluOp::Adc | AluOp::Sbb), true)
            .access(mem, true, op != AluOp::Cmp)
    }

    pub(crate) fn stack(mut self, op: Stack) -> Self {
        self.stack = Some(op);
        self
    }

    /// Reads every register as a REX-less 8-bit operand: encodings
    /// 4–7 name `%ah`–`%bh`, bits 8–15 of `%rax`–`%rbx`.
    pub(crate) fn legacy_bytes(self) -> Self {
        Effects {
            reads: self.reads.legacy_bytes(),
            writes: self.writes.legacy_bytes(),
            ..self
        }
    }
}

/// Semantic classification of a decoded instruction.
///
/// Only the shapes EnGarde's policy modules inspect get dedicated
/// variants; everything else decodes to a generic variant that still
/// carries exact length metadata.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum InsnKind {
    /// `call rel32` — target is the resolved absolute address.
    DirectCall {
        /// Absolute target address.
        target: u64,
    },
    /// `call *%reg` — the IFCC policy inspects these.
    IndirectCallReg {
        /// The register holding the target.
        reg: Reg,
    },
    /// `call *mem`.
    IndirectCallMem {
        /// The memory operand.
        mem: MemOperand,
    },
    /// `jmp rel8/rel32`.
    DirectJmp {
        /// Absolute target address.
        target: u64,
    },
    /// `jcc rel8/rel32`.
    CondJmp {
        /// Condition.
        cc: Cc,
        /// Absolute target address.
        target: u64,
    },
    /// `jmp *%reg`.
    IndirectJmpReg {
        /// The register holding the target.
        reg: Reg,
    },
    /// `jmp *mem`.
    IndirectJmpMem {
        /// The memory operand.
        mem: MemOperand,
    },
    /// `ret` / `ret imm16`.
    Ret,
    /// Any `nop` form (`0x90`, `0f 1f /0` multi-byte).
    Nop,
    /// `lea disp(%rip), %reg` — computes an absolute address; the IFCC
    /// policy reads the jump-table base from this.
    LeaRipRel {
        /// Destination register.
        dest: Reg,
        /// The resolved absolute address.
        target: u64,
        /// Operand width: a narrower `lea` keeps only the low bits of
        /// `target`.
        width: Width,
    },
    /// Other `lea mem, %reg`.
    Lea {
        /// Destination register.
        dest: Reg,
        /// Source memory operand.
        mem: MemOperand,
        /// Operand width: a 32-bit `lea` zero-extends the truncated
        /// address, a 16-bit one merges it into the low word.
        width: Width,
    },
    /// `mov %fs:disp, %reg` — the stack-protector canary load.
    MovFsToReg {
        /// Destination register.
        dest: Reg,
        /// Offset within the `%fs` segment (0x28 for the canary).
        fs_offset: u32,
    },
    /// `mov %reg, mem` — register store.
    MovRegToMem {
        /// Source register.
        src: Reg,
        /// Destination memory operand.
        mem: MemOperand,
        /// Operand width.
        width: Width,
    },
    /// `mov mem, %reg` — register load.
    MovMemToReg {
        /// Destination register.
        dest: Reg,
        /// Source memory operand.
        mem: MemOperand,
        /// Operand width.
        width: Width,
    },
    /// `mov %reg, %reg`.
    MovRegToReg {
        /// Destination register.
        dest: Reg,
        /// Source register.
        src: Reg,
        /// Operand width.
        width: Width,
    },
    /// `mov $imm, %reg` (including `movabs`).
    MovImmToReg {
        /// Destination register.
        dest: Reg,
        /// Immediate value (sign-extended).
        imm: i64,
        /// Operand width (W32 zero-extends at runtime, W64 sign-extends
        /// the 32-bit immediate forms).
        width: Width,
    },
    /// `mov $imm, mem`.
    MovImmToMem {
        /// Destination memory operand.
        mem: MemOperand,
        /// Immediate value (sign-extended).
        imm: i64,
        /// Operand width.
        width: Width,
    },
    /// ALU op, register-to-register (e.g. `sub %eax, %ecx`).
    AluRegReg {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dest: Reg,
        /// Source register.
        src: Reg,
        /// Operand width.
        width: Width,
    },
    /// ALU op with immediate (e.g. `and $0x1ff8, %rcx`).
    AluImmReg {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dest: Reg,
        /// Immediate (sign-extended).
        imm: i64,
        /// Operand width.
        width: Width,
    },
    /// ALU op, memory source (e.g. `cmp (%rsp), %rax` — canary check).
    AluMemReg {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dest: Reg,
        /// Source memory operand.
        mem: MemOperand,
        /// Operand width.
        width: Width,
    },
    /// ALU op, memory destination.
    AluRegMem {
        /// Operation.
        op: AluOp,
        /// Destination memory operand.
        mem: MemOperand,
        /// Source register.
        src: Reg,
        /// Operand width.
        width: Width,
    },
    /// ALU op with immediate against memory.
    AluImmMem {
        /// Operation.
        op: AluOp,
        /// Destination memory operand.
        mem: MemOperand,
        /// Immediate (sign-extended).
        imm: i64,
        /// Operand width.
        width: Width,
    },
    /// `leave`: `mov %rbp, %rsp; pop %rbp` ([`InsnKind::LEAVE`], run
    /// through [`Insn::steps`]).
    Leave,
    /// `push %reg`.
    PushReg {
        /// The pushed register.
        reg: Reg,
    },
    /// `pop %reg`.
    PopReg {
        /// The popped register.
        reg: Reg,
    },
    /// `test`, `xchg`, shifts, `movzx`, `cmov`, `setcc`, 8-bit forms
    /// naming `%ah`–`%bh`, and other decoded but unclassified
    /// instructions, described by their data effects alone.
    Other(Effects),
    /// `syscall` — forbidden inside an enclave; the validator rejects it.
    Syscall,
    /// `int`, `int3`, `hlt`, `cpuid` and other instructions illegal in
    /// enclave mode.
    Privileged,
}

/// The statically-enumerable successors of one instruction — the edge
/// material the CFG builder consumes.
///
/// Direct calls are *not* successors here: a `call` falls through to the
/// return site within its own function, and the callee edge belongs to
/// the call graph, not the intraprocedural CFG.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Successors {
    /// The next-instruction address when execution can fall through
    /// (straight-line code, `jcc` not taken, the return site of a call).
    pub fall_through: Option<u64>,
    /// The statically-known branch target (`jmp rel`, `jcc rel`).
    pub branch: Option<u64>,
    /// True when the instruction transfers control to a target that is
    /// not statically encoded (`jmp *%reg`, `jmp *mem`): the successor
    /// set is open until dataflow analysis resolves the operand.
    pub indirect: bool,
}

impl InsnKind {
    /// `leave` as the two instructions it stands for.
    pub const LEAVE: [InsnKind; 2] = [
        InsnKind::MovRegToReg {
            dest: Reg::Rsp,
            src: Reg::Rbp,
            width: Width::W64,
        },
        InsnKind::PopReg { reg: Reg::Rbp },
    ];

    /// The instruction's data effects. Control flow is not an effect:
    /// calls, returns and jumps report only the operands they read.
    /// `leave` has none of its own: it runs as [`Insn::steps`].
    pub fn effects(&self) -> Effects {
        let e = Effects::default();
        match *self {
            InsnKind::Other(e) => e,
            InsnKind::MovRegToReg { dest, src, width } => e.read(src).write(dest, width),
            InsnKind::MovImmToReg { dest, width, .. } | InsnKind::LeaRipRel { dest, width, .. } => {
                e.write(dest, width)
            }
            InsnKind::Lea { dest, mem, width } => {
                let e = mem.base.into_iter().chain(mem.index).fold(e, Effects::read);
                e.access(mem, false, false).write(dest, width)
            }
            InsnKind::MovFsToReg { dest, fs_offset } => {
                let mem = MemOperand {
                    disp: fs_offset as i32,
                    segment: Some(Segment::Fs),
                    ..MemOperand::default()
                };
                e.access(mem, true, false).write(dest, Width::W64)
            }
            InsnKind::MovMemToReg { dest, mem, width } => {
                e.access(mem, true, false).write(dest, width)
            }
            InsnKind::MovRegToMem { src, mem, .. } => e.read(src).access(mem, false, true),
            InsnKind::MovImmToMem { mem, .. } => e.access(mem, false, true),
            InsnKind::AluRegReg {
                op,
                dest,
                src,
                width,
            } => e.read(src).alu(op, dest, width),
            InsnKind::AluImmReg {
                op, dest, width, ..
            } => e.alu(op, dest, width),
            InsnKind::AluMemReg {
                op,
                dest,
                mem,
                width,
            } => e.access(mem, true, false).alu(op, dest, width),
            InsnKind::AluRegMem { op, mem, src, .. } => e.read(src).alu_mem(op, mem),
            InsnKind::AluImmMem { op, mem, .. } => e.alu_mem(op, mem),
            InsnKind::PushReg { reg } => e.read(reg).stack(Stack::Push),
            InsnKind::PopReg { reg } => e.stack(Stack::Pop).write(reg, Width::W64),
            InsnKind::IndirectCallReg { reg } | InsnKind::IndirectJmpReg { reg } => e.read(reg),
            InsnKind::IndirectCallMem { mem } | InsnKind::IndirectJmpMem { mem } => {
                e.access(mem, true, false)
            }
            InsnKind::CondJmp { .. } => e.flags(true, false),
            _ => e,
        }
    }

    /// True for instructions that never fall through (`ret`,
    /// unconditional `jmp`).
    pub fn ends_flow(&self) -> bool {
        matches!(
            self,
            InsnKind::Ret
                | InsnKind::DirectJmp { .. }
                | InsnKind::IndirectJmpReg { .. }
                | InsnKind::IndirectJmpMem { .. }
        )
    }

    /// The statically-known control-transfer target, if any.
    pub fn branch_target(&self) -> Option<u64> {
        match self {
            InsnKind::DirectCall { target }
            | InsnKind::DirectJmp { target }
            | InsnKind::CondJmp { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// True for calls, direct or indirect (the call-graph edge sources).
    pub fn is_call(&self) -> bool {
        matches!(
            self,
            InsnKind::DirectCall { .. }
                | InsnKind::IndirectCallReg { .. }
                | InsnKind::IndirectCallMem { .. }
        )
    }

    /// True for control transfers whose target is not statically encoded
    /// (indirect jumps and calls).
    pub fn is_indirect_branch(&self) -> bool {
        matches!(
            self,
            InsnKind::IndirectCallReg { .. }
                | InsnKind::IndirectCallMem { .. }
                | InsnKind::IndirectJmpReg { .. }
                | InsnKind::IndirectJmpMem { .. }
        )
    }

    /// True when this instruction terminates a basic block: any jump
    /// (direct, conditional, indirect) or `ret`. Calls do *not* end a
    /// block — they fall through to their return site.
    pub fn ends_block(&self) -> bool {
        matches!(
            self,
            InsnKind::DirectJmp { .. }
                | InsnKind::CondJmp { .. }
                | InsnKind::IndirectJmpReg { .. }
                | InsnKind::IndirectJmpMem { .. }
                | InsnKind::Ret
        )
    }
}

/// A decoded instruction with full length metadata.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Insn {
    /// Virtual address of the first byte.
    pub addr: u64,
    /// Total encoded length in bytes (1–15).
    pub len: u8,
    /// Number of legacy + REX prefix bytes.
    pub prefix_len: u8,
    /// Number of opcode bytes (1–3).
    pub opcode_len: u8,
    /// Number of ModRM + SIB bytes (0–2).
    pub modrm_len: u8,
    /// Number of displacement bytes (0, 1, or 4).
    pub disp_len: u8,
    /// Number of immediate bytes (0, 1, 2, 4, or 8).
    pub imm_len: u8,
    /// Semantic classification.
    pub kind: InsnKind,
}

impl Insn {
    /// Address of the byte after this instruction (fall-through target).
    pub fn end(&self) -> u64 {
        self.addr + self.len as u64
    }

    /// The instructions this one runs as, at its own address: `leave`
    /// as the two of [`InsnKind::LEAVE`], any other as itself. Every
    /// analysis steps through these, so `leave` is described once.
    pub fn steps(&self) -> impl Iterator<Item = Insn> + '_ {
        let kinds = match &self.kind {
            InsnKind::Leave => &InsnKind::LEAVE[..],
            kind => std::slice::from_ref(kind),
        };
        kinds.iter().map(move |&kind| Insn { kind, ..*self })
    }

    /// The instruction's intraprocedural successors — the CFG edge
    /// material (fall-through, direct branch target, indirect marker).
    pub fn successors(&self) -> Successors {
        match self.kind {
            InsnKind::Ret => Successors::default(),
            InsnKind::DirectJmp { target } => Successors {
                branch: Some(target),
                ..Default::default()
            },
            InsnKind::CondJmp { target, .. } => Successors {
                fall_through: Some(self.end()),
                branch: Some(target),
                indirect: false,
            },
            InsnKind::IndirectJmpReg { .. } | InsnKind::IndirectJmpMem { .. } => Successors {
                indirect: true,
                ..Default::default()
            },
            // Calls (direct and indirect) fall through to the return
            // site; the callee edge lives in the call graph.
            _ => Successors {
                fall_through: Some(self.end()),
                ..Default::default()
            },
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}: {:?} ({} bytes)", self.addr, self.kind, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_round_trip() {
        for n in 0..16u8 {
            let cc = Cc::from_nibble(n);
            assert_eq!(cc as u8, n);
            assert!(!cc.suffix().is_empty());
        }
        assert_eq!(Cc::from_nibble(0x5), Cc::Ne);
        assert_eq!(Cc::Ne.suffix(), "ne");
    }

    #[test]
    fn alu_op_round_trip() {
        for i in 0..8u8 {
            let op = AluOp::from_index(i);
            assert!(!op.mnemonic().is_empty());
        }
        assert_eq!(AluOp::from_index(5), AluOp::Sub);
        assert_eq!(AluOp::from_index(7), AluOp::Cmp);
    }

    #[test]
    fn ends_flow_classification() {
        assert!(InsnKind::Ret.ends_flow());
        assert!(InsnKind::DirectJmp { target: 0 }.ends_flow());
        assert!(!InsnKind::DirectCall { target: 0 }.ends_flow());
        assert!(!InsnKind::CondJmp {
            cc: Cc::Ne,
            target: 0
        }
        .ends_flow());
        assert!(!InsnKind::Nop.ends_flow());
    }

    #[test]
    fn branch_targets() {
        assert_eq!(
            InsnKind::DirectCall { target: 0x40 }.branch_target(),
            Some(0x40)
        );
        assert_eq!(InsnKind::Ret.branch_target(), None);
    }

    #[test]
    fn block_and_call_classification() {
        assert!(InsnKind::Ret.ends_block());
        assert!(InsnKind::DirectJmp { target: 0 }.ends_block());
        assert!(InsnKind::CondJmp {
            cc: Cc::E,
            target: 0
        }
        .ends_block());
        assert!(InsnKind::IndirectJmpReg { reg: Reg::Rax }.ends_block());
        assert!(!InsnKind::DirectCall { target: 0 }.ends_block());
        assert!(!InsnKind::Nop.ends_block());
        assert!(InsnKind::DirectCall { target: 0 }.is_call());
        assert!(InsnKind::IndirectCallReg { reg: Reg::Rcx }.is_call());
        assert!(!InsnKind::DirectJmp { target: 0 }.is_call());
        assert!(InsnKind::IndirectJmpReg { reg: Reg::Rax }.is_indirect_branch());
        assert!(InsnKind::IndirectCallMem {
            mem: MemOperand::base_disp(Reg::Rbx, 8)
        }
        .is_indirect_branch());
        assert!(!InsnKind::DirectCall { target: 0 }.is_indirect_branch());
    }

    #[test]
    fn successor_enumeration() {
        let at = |kind, len| Insn {
            addr: 0x100,
            len,
            prefix_len: 0,
            opcode_len: 1,
            modrm_len: 0,
            disp_len: 0,
            imm_len: 0,
            kind,
        };
        let ret = at(InsnKind::Ret, 1).successors();
        assert_eq!(ret, Successors::default());
        let jmp = at(InsnKind::DirectJmp { target: 0x40 }, 5).successors();
        assert_eq!(jmp.branch, Some(0x40));
        assert_eq!(jmp.fall_through, None);
        let jcc = at(
            InsnKind::CondJmp {
                cc: Cc::Ne,
                target: 0x40,
            },
            2,
        )
        .successors();
        assert_eq!(jcc.branch, Some(0x40));
        assert_eq!(jcc.fall_through, Some(0x102));
        let ind = at(InsnKind::IndirectJmpReg { reg: Reg::Rax }, 2).successors();
        assert!(ind.indirect);
        assert_eq!(ind.branch, None);
        let call = at(InsnKind::DirectCall { target: 0x40 }, 5).successors();
        assert_eq!(call.fall_through, Some(0x105));
        assert_eq!(call.branch, None, "callee edge belongs to the call graph");
    }

    #[test]
    fn insn_end() {
        let i = Insn {
            addr: 0x1000,
            len: 5,
            prefix_len: 0,
            opcode_len: 1,
            modrm_len: 0,
            disp_len: 0,
            imm_len: 4,
            kind: InsnKind::DirectCall { target: 0x2000 },
        };
        assert_eq!(i.end(), 0x1005);
        assert!(i.to_string().contains("0x1000"));
    }

    #[test]
    fn leave_runs_as_mov_and_pop() {
        let at = |kind| Insn {
            addr: 0x100,
            len: 1,
            prefix_len: 0,
            opcode_len: 1,
            modrm_len: 0,
            disp_len: 0,
            imm_len: 0,
            kind,
        };
        let kinds = |i: Insn| i.steps().map(|s| (s.addr, s.kind)).collect::<Vec<_>>();
        assert_eq!(
            kinds(at(InsnKind::Leave)),
            InsnKind::LEAVE.map(|k| (0x100, k))
        );
        assert_eq!(kinds(at(InsnKind::Ret)), [(0x100, InsnKind::Ret)]);
        assert_eq!(InsnKind::Leave.effects(), Effects::default());
    }

    #[test]
    fn effects_keep_an_insn_at_forty_bytes() {
        // `decode_all` builds one `Insn` per instruction of every text
        // section; the packed flag bits hold it to the size it had
        // before `Other` carried an `Effects`.
        assert_eq!(std::mem::size_of::<Effects>(), 20);
        assert_eq!(std::mem::size_of::<Insn>(), 40);
    }
}
