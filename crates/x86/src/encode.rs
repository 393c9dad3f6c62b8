//! x86-64 assembler used by the synthetic-workload generator.
//!
//! Emits exactly the encodings clang produces for the patterns the paper's
//! policies recognise (stack-protector canary sequences, IFCC call-site
//! instrumentation, jump tables) plus general-purpose integer code for
//! function bodies.
//!
//! The assembler is **bundle-aware**: before each instruction it inserts
//! `nop` padding whenever the encoding would straddle a 32-byte boundary,
//! so generated code always satisfies the NaCl constraint EnGarde checks.
//!
//! # Examples
//!
//! ```
//! use engarde_x86::encode::Assembler;
//! use engarde_x86::decode::decode_all;
//! use engarde_x86::reg::Reg;
//!
//! let mut asm = Assembler::new();
//! let f = asm.label();
//! asm.bind(f);
//! asm.push_reg(Reg::Rbp);
//! asm.mov_rr64(Reg::Rbp, Reg::Rsp);
//! asm.pop_reg(Reg::Rbp);
//! asm.ret();
//! let code = asm.finish();
//! assert_eq!(decode_all(&code, 0).unwrap().len(), 4);
//! ```

use crate::insn::{Cc, Width};
use crate::reg::Reg;
use crate::validate::BUNDLE_SIZE;

/// A forward-referenceable code position.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(usize);

#[derive(Clone, Copy, Debug)]
enum FixupKind {
    /// 32-bit PC-relative, patched at `at`, relative to `at + 4`.
    Rel32,
}

#[derive(Clone, Copy, Debug)]
struct Fixup {
    at: usize,
    label: Label,
    kind: FixupKind,
}

/// An x86-64 assembler producing NaCl-bundle-clean code.
#[derive(Clone, Debug, Default)]
pub struct Assembler {
    code: Vec<u8>,
    labels: Vec<Option<u64>>,
    fixups: Vec<Fixup>,
    insns: u64,
}

const REX_W: u8 = 0x48;

fn modrm(mode: u8, reg: u8, rm: u8) -> u8 {
    (mode << 6) | ((reg & 7) << 3) | (rm & 7)
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current offset (the address the next instruction will start at,
    /// modulo bundle padding).
    pub fn offset(&self) -> u64 {
        self.code.len() as u64
    }

    /// Number of instructions emitted so far, **including** bundle- and
    /// alignment-padding nops (which are real instructions to a linear
    /// disassembler). Raw bytes are not counted unless reported via
    /// [`Assembler::note_raw_instructions`].
    pub fn insn_count(&self) -> u64 {
        self.insns
    }

    /// Records that `n` instructions were appended through
    /// [`Assembler::raw_bytes`] (e.g. a pre-assembled function block).
    pub fn note_raw_instructions(&mut self, n: u64) {
        self.insns += n;
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current offset.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label {label:?} bound twice"
        );
        self.labels[label.0] = Some(self.code.len() as u64);
    }

    /// Returns the bound offset of `label`, if bound.
    pub fn label_offset(&self, label: Label) -> Option<u64> {
        self.labels[label.0]
    }

    /// Emits one instruction, padding with `nop` first if the encoding
    /// would straddle a 32-byte bundle boundary. Returns the start offset.
    fn emit(&mut self, bytes: &[u8]) -> u64 {
        debug_assert!(bytes.len() <= BUNDLE_SIZE as usize);
        let pos = self.code.len() as u64;
        let room = BUNDLE_SIZE - pos % BUNDLE_SIZE;
        if (bytes.len() as u64) > room {
            for _ in 0..room {
                self.code.push(0x90);
                self.insns += 1;
            }
        }
        let start = self.code.len() as u64;
        self.code.extend_from_slice(bytes);
        self.insns += 1;
        start
    }

    /// Emits raw bytes verbatim with **no** bundle padding — an escape
    /// hatch for building deliberately-invalid inputs in tests.
    pub fn raw_bytes(&mut self, bytes: &[u8]) {
        self.code.extend_from_slice(bytes);
    }

    /// Emits one pre-encoded instruction with normal bundle padding and
    /// instruction counting — the building block of binary rewriting
    /// (copying position-independent instructions between layouts).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the 15-byte instruction limit.
    pub fn emit_raw_insn(&mut self, bytes: &[u8]) {
        assert!(bytes.len() <= 15, "not a single x86 instruction");
        self.emit(bytes);
    }

    /// Pads with one-byte `nop`s until the offset is `align`-aligned.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    pub fn align_to(&mut self, align: u64) {
        assert!(align > 0, "alignment must be positive");
        while !(self.code.len() as u64).is_multiple_of(align) {
            self.code.push(0x90);
            self.insns += 1;
        }
    }

    /// Resolves all fixups and returns the final code.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Vec<u8> {
        for fixup in &self.fixups {
            let target = self.labels[fixup.label.0]
                .unwrap_or_else(|| panic!("unbound label {:?}", fixup.label));
            match fixup.kind {
                FixupKind::Rel32 => {
                    let rel = target as i64 - (fixup.at as i64 + 4);
                    let rel32 = i32::try_from(rel).expect("relative branch out of range");
                    self.code[fixup.at..fixup.at + 4].copy_from_slice(&rel32.to_le_bytes());
                }
            }
        }
        self.code
    }

    fn rel32_fixup(&mut self, label: Label) {
        self.fixups.push(Fixup {
            at: self.code.len(),
            label,
            kind: FixupKind::Rel32,
        });
        self.code.extend_from_slice(&[0, 0, 0, 0]);
    }

    // ---- control transfer -------------------------------------------

    /// `ret`.
    pub fn ret(&mut self) {
        self.emit(&[0xc3]);
    }

    /// `nop` (one byte).
    pub fn nop(&mut self) {
        self.emit(&[0x90]);
    }

    /// `nopl (%rax)` — the 3-byte nop the IFCC jump tables use.
    pub fn nopl_rax(&mut self) {
        self.emit(&[0x0f, 0x1f, 0x00]);
    }

    /// `call label` (rel32).
    pub fn call_label(&mut self, label: Label) {
        // Reserve the full 5 bytes for bundle accounting, then rewrite.
        self.emit(&[0xe8, 0, 0, 0, 0]);
        self.code.truncate(self.code.len() - 4);
        self.rel32_fixup(label);
    }

    /// `jmp label` (rel32).
    pub fn jmp_label(&mut self, label: Label) {
        self.emit(&[0xe9, 0, 0, 0, 0]);
        self.code.truncate(self.code.len() - 4);
        self.rel32_fixup(label);
    }

    /// `jcc label` (rel32 form, `0f 8x`).
    pub fn jcc_label(&mut self, cc: Cc, label: Label) {
        self.emit(&[0x0f, 0x80 | cc as u8, 0, 0, 0, 0]);
        self.code.truncate(self.code.len() - 4);
        self.rel32_fixup(label);
    }

    /// `jne label` — the canary-check branch.
    pub fn jne_label(&mut self, label: Label) {
        self.jcc_label(Cc::Ne, label);
    }

    /// `call *%reg` — indirect call (IFCC call sites use `*%rcx`).
    pub fn call_reg(&mut self, reg: Reg) {
        if reg.needs_rex_bit() {
            self.emit(&[0x41, 0xff, modrm(3, 2, reg.low3())]);
        } else {
            self.emit(&[0xff, modrm(3, 2, reg.low3())]);
        }
    }

    /// `jmp *%reg` — indirect jump (`ff /4`), the linear-sweep-evasion
    /// primitive the adversarial workloads use.
    pub fn jmp_reg(&mut self, reg: Reg) {
        if reg.needs_rex_bit() {
            self.emit(&[0x41, 0xff, modrm(3, 4, reg.low3())]);
        } else {
            self.emit(&[0xff, modrm(3, 4, reg.low3())]);
        }
    }

    // ---- moves --------------------------------------------------------

    fn rex_rr(&self, w: bool, reg: Reg, rm: Reg) -> Option<u8> {
        let mut rex = 0x40u8;
        if w {
            rex |= 8;
        }
        if reg.needs_rex_bit() {
            rex |= 4;
        }
        if rm.needs_rex_bit() {
            rex |= 1;
        }
        (rex != 0x40).then_some(rex)
    }

    fn emit_rr(&mut self, opcode: u8, w: bool, reg: Reg, rm: Reg) {
        let mut bytes = Vec::with_capacity(4);
        if let Some(rex) = self.rex_rr(w, reg, rm) {
            bytes.push(rex);
        }
        bytes.push(opcode);
        bytes.push(modrm(3, reg.low3(), rm.low3()));
        self.emit(&bytes);
    }

    /// `mov %src, %dest` (64-bit).
    pub fn mov_rr64(&mut self, dest: Reg, src: Reg) {
        self.emit_rr(0x89, true, src, dest);
    }

    /// `mov $imm32, %reg` (32-bit destination, zero-extended).
    pub fn mov_ri32(&mut self, dest: Reg, imm: u32) {
        let mut bytes = Vec::with_capacity(6);
        if dest.needs_rex_bit() {
            bytes.push(0x41);
        }
        bytes.push(0xb8 | dest.low3());
        bytes.extend_from_slice(&imm.to_le_bytes());
        self.emit(&bytes);
    }

    /// `movabs $imm64, %reg`.
    pub fn movabs(&mut self, dest: Reg, imm: u64) {
        let rex = if dest.needs_rex_bit() { 0x49 } else { REX_W };
        let mut bytes = vec![rex, 0xb8 | dest.low3()];
        bytes.extend_from_slice(&imm.to_le_bytes());
        self.emit(&bytes);
    }

    /// `mov %fs:offset, %dest` — the stack-protector canary load
    /// (`64 48 8b 04 25 <off32>` for `%rax`).
    pub fn mov_fs_to_reg(&mut self, dest: Reg, fs_offset: u32) {
        let rex = if dest.needs_rex_bit() { 0x4c } else { REX_W };
        let mut bytes = vec![0x64, rex, 0x8b, modrm(0, dest.low3(), 4), 0x25];
        bytes.extend_from_slice(&fs_offset.to_le_bytes());
        self.emit(&bytes);
    }

    /// `mov %src, (%rsp)` — the canary store (`48 89 04 24` for `%rax`).
    pub fn mov_reg_to_rsp(&mut self, src: Reg) {
        let rex = if src.needs_rex_bit() { 0x4c } else { REX_W };
        self.emit(&[rex, 0x89, modrm(0, src.low3(), 4), 0x24]);
    }

    /// `cmp (%rsp), %reg` — the canary check (`48 3b 04 24` for `%rax`).
    pub fn cmp_rsp_reg(&mut self, reg: Reg) {
        let rex = if reg.needs_rex_bit() { 0x4c } else { REX_W };
        self.emit(&[rex, 0x3b, modrm(0, reg.low3(), 4), 0x24]);
    }

    /// `mov %src, disp8(%rbp)` — spill to a frame slot.
    pub fn mov_reg_to_rbp_disp8(&mut self, src: Reg, disp: i8) {
        let rex = if src.needs_rex_bit() { 0x4c } else { REX_W };
        self.emit(&[rex, 0x89, modrm(1, src.low3(), 5), disp as u8]);
    }

    /// `mov disp8(%rbp), %dest` — reload from a frame slot.
    pub fn mov_rbp_disp8_to_reg(&mut self, dest: Reg, disp: i8) {
        let rex = if dest.needs_rex_bit() { 0x4c } else { REX_W };
        self.emit(&[rex, 0x8b, modrm(1, dest.low3(), 5), disp as u8]);
    }

    /// `mov %src, disp8(%rsp)` — spill to a stack slot (SIB with
    /// `%rsp` base, the frame-pointer-omitted spill shape).
    pub fn mov_reg_to_rsp_disp8(&mut self, src: Reg, disp: i8) {
        let rex = if src.needs_rex_bit() { 0x4c } else { REX_W };
        self.emit(&[rex, 0x89, modrm(1, src.low3(), 4), 0x24, disp as u8]);
    }

    /// `mov disp8(%rsp), %dest` — reload from a stack slot.
    pub fn mov_rsp_disp8_to_reg(&mut self, dest: Reg, disp: i8) {
        let rex = if dest.needs_rex_bit() { 0x4c } else { REX_W };
        self.emit(&[rex, 0x8b, modrm(1, dest.low3(), 4), 0x24, disp as u8]);
    }

    fn rex_mem(&self, reg: Reg, base: Reg) -> u8 {
        let mut rex = REX_W;
        if reg.needs_rex_bit() {
            rex |= 4;
        }
        if base.needs_rex_bit() {
            rex |= 1;
        }
        rex
    }

    /// `mov (%base), %dest` — 64-bit load through a register-held
    /// pointer (mod=00). `base` must not be rsp/rbp/r12/r13, whose rm
    /// encodings mean SIB or disp32 instead of a bare base.
    pub fn mov_mem_to_reg64(&mut self, dest: Reg, base: Reg) {
        debug_assert!(!matches!(base, Reg::Rsp | Reg::Rbp | Reg::R12 | Reg::R13));
        let rex = self.rex_mem(dest, base);
        self.emit(&[rex, 0x8b, modrm(0, dest.low3(), base.low3())]);
    }

    /// `mov %src, (%base)` — 64-bit store through a register-held
    /// pointer (mod=00). Same base-register restriction as
    /// [`Assembler::mov_mem_to_reg64`].
    pub fn mov_reg_to_mem64(&mut self, src: Reg, base: Reg) {
        debug_assert!(!matches!(base, Reg::Rsp | Reg::Rbp | Reg::R12 | Reg::R13));
        let rex = self.rex_mem(src, base);
        self.emit(&[rex, 0x89, modrm(0, src.low3(), base.low3())]);
    }

    /// `lea label(%rip), %dest` — address-taken code/data (IFCC table base).
    pub fn lea_rip_label(&mut self, dest: Reg, label: Label) {
        let rex = if dest.needs_rex_bit() { 0x4c } else { REX_W };
        self.emit(&[rex, 0x8d, modrm(0, dest.low3(), 5), 0, 0, 0, 0]);
        self.code.truncate(self.code.len() - 4);
        self.rel32_fixup(label);
    }

    // ---- ALU ----------------------------------------------------------

    /// `add %src, %dest` (64-bit).
    pub fn add_rr64(&mut self, dest: Reg, src: Reg) {
        self.emit_rr(0x01, true, src, dest);
    }

    /// `sub %src, %dest` (64-bit).
    pub fn sub_rr64(&mut self, dest: Reg, src: Reg) {
        self.emit_rr(0x29, true, src, dest);
    }

    /// `sub %src, %dest` (32-bit — the IFCC sequence uses `sub %eax, %ecx`).
    pub fn sub_rr32(&mut self, dest: Reg, src: Reg) {
        self.emit_rr(0x29, false, src, dest);
    }

    /// `xor %src, %dest` (32-bit; `xor %eax, %eax` zeroing idiom).
    pub fn xor_rr32(&mut self, dest: Reg, src: Reg) {
        self.emit_rr(0x31, false, src, dest);
    }

    /// `cmp %src, %dest` (64-bit).
    pub fn cmp_rr64(&mut self, dest: Reg, src: Reg) {
        self.emit_rr(0x39, true, src, dest);
    }

    /// `and $imm32, %reg` (64-bit — IFCC mask, e.g. `and $0x1ff8, %rcx`).
    pub fn and_ri64(&mut self, dest: Reg, imm: u32) {
        let rex = if dest.needs_rex_bit() { 0x49 } else { REX_W };
        let mut bytes = vec![rex, 0x81, modrm(3, 4, dest.low3())];
        bytes.extend_from_slice(&imm.to_le_bytes());
        self.emit(&bytes);
    }

    /// `add $imm8, %reg` (64-bit, sign-extended imm8).
    pub fn add_ri8(&mut self, dest: Reg, imm: i8) {
        let rex = if dest.needs_rex_bit() { 0x49 } else { REX_W };
        self.emit(&[rex, 0x83, modrm(3, 0, dest.low3()), imm as u8]);
    }

    /// `lea disp8(%rsp), %dest` at operand width `width`: a 16- or
    /// 32-bit `lea` keeps only the low bits of the address.
    ///
    /// # Panics
    ///
    /// Panics for [`Width::W8`] (there is no 8-bit `lea`).
    pub fn lea_rsp_disp8(&mut self, dest: Reg, disp: i8, width: Width) {
        let r = if dest.needs_rex_bit() { 0x44 } else { 0 };
        let mut bytes = match width {
            Width::W64 => vec![REX_W | r],
            Width::W32 => vec![],
            Width::W16 => vec![0x66],
            Width::W8 => panic!("there is no 8-bit lea"),
        };
        if r != 0 && width != Width::W64 {
            bytes.push(r);
        }
        bytes.extend([0x8d, modrm(1, dest.low3(), 4), 0x24, disp as u8]);
        self.emit(&bytes);
    }

    /// `sub $imm8, %reg` (64-bit, sign-extended imm8) — stack adjustment.
    pub fn sub_ri8(&mut self, dest: Reg, imm: i8) {
        let rex = if dest.needs_rex_bit() { 0x49 } else { REX_W };
        self.emit(&[rex, 0x83, modrm(3, 5, dest.low3()), imm as u8]);
    }

    /// `push %reg`.
    pub fn push_reg(&mut self, reg: Reg) {
        if reg.needs_rex_bit() {
            self.emit(&[0x41, 0x50 | reg.low3()]);
        } else {
            self.emit(&[0x50 | reg.low3()]);
        }
    }

    /// `pop %reg`.
    pub fn pop_reg(&mut self, reg: Reg) {
        if reg.needs_rex_bit() {
            self.emit(&[0x41, 0x58 | reg.low3()]);
        } else {
            self.emit(&[0x58 | reg.low3()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode_all, decode_one};
    use crate::insn::{AluOp, Insn, InsnKind, Width};
    use crate::validate::Validator;

    fn roundtrip(f: impl FnOnce(&mut Assembler)) -> Vec<Insn> {
        let mut asm = Assembler::new();
        f(&mut asm);
        let code = asm.finish();
        decode_all(&code, 0).expect("assembled code decodes")
    }

    #[test]
    fn canary_sequence_encodes_to_paper_bytes() {
        let mut asm = Assembler::new();
        asm.mov_fs_to_reg(Reg::Rax, 0x28);
        asm.mov_reg_to_rsp(Reg::Rax);
        let code = asm.finish();
        // Exactly the bytes from the paper's §5 listing.
        assert_eq!(
            code,
            vec![
                0x64, 0x48, 0x8b, 0x04, 0x25, 0x28, 0x00, 0x00, 0x00, // mov %fs:0x28,%rax
                0x48, 0x89, 0x04, 0x24, // mov %rax,(%rsp)
            ]
        );
    }

    #[test]
    fn canary_check_encodes_to_paper_bytes() {
        let mut asm = Assembler::new();
        asm.mov_fs_to_reg(Reg::Rax, 0x28);
        asm.cmp_rsp_reg(Reg::Rax);
        let code = asm.finish();
        assert_eq!(&code[9..], &[0x48, 0x3b, 0x04, 0x24]);
    }

    #[test]
    fn lea_rsp_disp8_round_trips_at_every_width() {
        for width in [Width::W16, Width::W32, Width::W64] {
            for dest in [Reg::Rax, Reg::R9] {
                let insns = roundtrip(|a| a.lea_rsp_disp8(dest, -8, width));
                assert_eq!(
                    insns[0].kind,
                    InsnKind::Lea {
                        dest,
                        mem: crate::insn::MemOperand::base_disp(Reg::Rsp, -8),
                        width
                    }
                );
            }
        }
    }

    #[test]
    fn call_and_label_fixup() {
        let mut asm = Assembler::new();
        let f = asm.label();
        asm.call_label(f);
        asm.ret();
        asm.bind(f);
        asm.ret();
        let code = asm.finish();
        let insns = decode_all(&code, 0).expect("decodes");
        let call_target = insns[0].kind.branch_target().expect("call has target");
        assert_eq!(call_target, insns[2].addr);
    }

    #[test]
    fn jmp_reg_decodes_as_indirect_jump() {
        let insns = roundtrip(|asm| {
            asm.jmp_reg(Reg::Rax);
            asm.jmp_reg(Reg::R11);
            asm.ret();
        });
        assert_eq!(insns[0].kind, InsnKind::IndirectJmpReg { reg: Reg::Rax });
        assert_eq!(insns[1].kind, InsnKind::IndirectJmpReg { reg: Reg::R11 });
    }

    #[test]
    fn backward_jump_fixup() {
        let mut asm = Assembler::new();
        let top = asm.label();
        asm.bind(top);
        asm.nop();
        asm.jmp_label(top);
        let insns = decode_all(&asm.finish(), 0).expect("decodes");
        assert_eq!(insns[1].kind, InsnKind::DirectJmp { target: 0 });
    }

    #[test]
    fn jcc_encodes_condition() {
        let insns = roundtrip(|asm| {
            let l = asm.label();
            asm.jne_label(l);
            asm.bind(l);
            asm.ret();
        });
        match insns[0].kind {
            InsnKind::CondJmp { cc, target } => {
                assert_eq!(cc, Cc::Ne);
                assert_eq!(target, insns[1].addr);
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn ifcc_callsite_decodes_as_expected() {
        let insns = roundtrip(|asm| {
            let table = asm.label();
            asm.lea_rip_label(Reg::Rax, table);
            asm.sub_rr32(Reg::Rcx, Reg::Rax);
            asm.and_ri64(Reg::Rcx, 0x1ff8);
            asm.add_rr64(Reg::Rcx, Reg::Rax);
            asm.call_reg(Reg::Rcx);
            asm.ret();
            asm.bind(table);
            asm.ret();
        });
        assert!(matches!(
            insns[0].kind,
            InsnKind::LeaRipRel { dest: Reg::Rax, .. }
        ));
        assert_eq!(
            insns[1].kind,
            InsnKind::AluRegReg {
                op: AluOp::Sub,
                dest: Reg::Rcx,
                src: Reg::Rax,
                width: Width::W32
            }
        );
        assert_eq!(
            insns[2].kind,
            InsnKind::AluImmReg {
                op: AluOp::And,
                dest: Reg::Rcx,
                imm: 0x1ff8,
                width: Width::W64
            }
        );
        assert_eq!(
            insns[3].kind,
            InsnKind::AluRegReg {
                op: AluOp::Add,
                dest: Reg::Rcx,
                src: Reg::Rax,
                width: Width::W64
            }
        );
        assert_eq!(insns[4].kind, InsnKind::IndirectCallReg { reg: Reg::Rcx });
    }

    #[test]
    fn bundle_padding_keeps_code_valid() {
        // Emit enough variable-length instructions to force straddles
        // without padding, then check the validator accepts the result.
        let mut asm = Assembler::new();
        let entry = asm.label();
        asm.bind(entry);
        for i in 0..200u32 {
            asm.mov_ri32(Reg::Rax, i);
            asm.mov_fs_to_reg(Reg::Rcx, 0x28); // 9 bytes: will hit boundaries
        }
        asm.ret();
        let code = asm.finish();
        let insns = decode_all(&code, 0).expect("decodes");
        Validator::new()
            .validate(&insns, 0, &[])
            .expect("bundle-clean");
    }

    #[test]
    fn mem_movs_roundtrip() {
        use crate::insn::MemOperand;
        let insns = roundtrip(|asm| {
            asm.mov_mem_to_reg64(Reg::Rbx, Reg::Rax);
            asm.mov_reg_to_mem64(Reg::R9, Reg::Rsi);
            asm.ret();
        });
        let bare = |base| MemOperand {
            base: Some(base),
            index: None,
            scale: 1,
            disp: 0,
            rip_relative: false,
            segment: None,
        };
        assert_eq!(
            insns[0].kind,
            InsnKind::MovMemToReg {
                dest: Reg::Rbx,
                mem: bare(Reg::Rax),
                width: Width::W64
            }
        );
        assert_eq!(
            insns[1].kind,
            InsnKind::MovRegToMem {
                src: Reg::R9,
                mem: bare(Reg::Rsi),
                width: Width::W64
            }
        );
    }

    #[test]
    fn rex_extended_registers() {
        let insns = roundtrip(|asm| {
            asm.push_reg(Reg::R12);
            asm.mov_rr64(Reg::R8, Reg::R15);
            asm.pop_reg(Reg::R12);
            asm.ret();
        });
        assert_eq!(insns[0].kind, InsnKind::PushReg { reg: Reg::R12 });
        assert_eq!(
            insns[1].kind,
            InsnKind::MovRegToReg {
                dest: Reg::R8,
                src: Reg::R15,
                width: Width::W64
            }
        );
        assert_eq!(insns[2].kind, InsnKind::PopReg { reg: Reg::R12 });
    }

    #[test]
    fn rbp_frame_slots_round_trip() {
        let insns = roundtrip(|asm| {
            asm.mov_reg_to_rbp_disp8(Reg::Rdi, -8);
            asm.mov_rbp_disp8_to_reg(Reg::Rax, -8);
            asm.ret();
        });
        match insns[0].kind {
            InsnKind::MovRegToMem { src, mem, .. } => {
                assert_eq!(src, Reg::Rdi);
                assert_eq!(mem.base, Some(Reg::Rbp));
                assert_eq!(mem.disp, -8);
            }
            k => panic!("unexpected {k:?}"),
        }
        match insns[1].kind {
            InsnKind::MovMemToReg { dest, mem, .. } => {
                assert_eq!(dest, Reg::Rax);
                assert_eq!(mem.disp, -8);
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn rsp_stack_slots_round_trip() {
        let insns = roundtrip(|asm| {
            asm.mov_reg_to_rsp_disp8(Reg::Rax, 8);
            asm.mov_rsp_disp8_to_reg(Reg::R9, 8);
            asm.ret();
        });
        match insns[0].kind {
            InsnKind::MovRegToMem { src, mem, .. } => {
                assert_eq!(src, Reg::Rax);
                assert_eq!(mem.base, Some(Reg::Rsp));
                assert_eq!(mem.index, None);
                assert_eq!(mem.disp, 8);
            }
            k => panic!("unexpected {k:?}"),
        }
        match insns[1].kind {
            InsnKind::MovMemToReg { dest, mem, .. } => {
                assert_eq!(dest, Reg::R9);
                assert_eq!(mem.base, Some(Reg::Rsp));
                assert_eq!(mem.disp, 8);
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn movabs_and_stack_adjustment() {
        let insns = roundtrip(|asm| {
            asm.movabs(Reg::Rbx, 0xdead_beef_cafe_f00d);
            asm.sub_ri8(Reg::Rsp, 0x20);
            asm.add_ri8(Reg::Rsp, 0x20);
            asm.ret();
        });
        match insns[0].kind {
            InsnKind::MovImmToReg { dest, imm, .. } => {
                assert_eq!(dest, Reg::Rbx);
                assert_eq!(imm as u64, 0xdead_beef_cafe_f00d);
            }
            k => panic!("unexpected {k:?}"),
        }
        assert_eq!(
            insns[1].kind,
            InsnKind::AluImmReg {
                op: AluOp::Sub,
                dest: Reg::Rsp,
                imm: 0x20,
                width: Width::W64
            }
        );
    }

    #[test]
    fn align_to_pads_with_nops() {
        let mut asm = Assembler::new();
        asm.ret();
        asm.align_to(8);
        assert_eq!(asm.offset(), 8);
        asm.ret();
        let code = asm.finish();
        assert_eq!(code.len(), 9);
        assert!(code[1..8].iter().all(|&b| b == 0x90));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut asm = Assembler::new();
        let l = asm.label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics_at_finish() {
        let mut asm = Assembler::new();
        let l = asm.label();
        asm.call_label(l);
        let _ = asm.finish();
    }

    #[test]
    fn nopl_is_three_bytes() {
        let mut asm = Assembler::new();
        asm.nopl_rax();
        let code = asm.finish();
        assert_eq!(code, vec![0x0f, 0x1f, 0x00]);
        assert_eq!(decode_one(&code, 0).expect("decodes").kind, InsnKind::Nop);
    }
}
