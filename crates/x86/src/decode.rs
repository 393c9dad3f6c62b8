//! x86-64 instruction decoder (linear sweep, NaCl-style).
//!
//! Implements the subset of the x86-64 instruction set that statically
//! linked, compiler-generated integer code uses — exactly the repertoire
//! the EnGarde paper's NaCl-derived disassembler handles: legacy + REX
//! prefixes, one- and two-byte opcode maps, full ModRM/SIB/displacement
//! addressing, and precise length metadata (prefix/opcode/disp/imm byte
//! counts, §4 of the paper).
//!
//! Unknown opcodes are decode errors: EnGarde *rejects* code it cannot
//! disassemble unambiguously rather than skipping bytes.
//!
//! # Examples
//!
//! ```
//! use engarde_x86::decode::decode_one;
//! use engarde_x86::insn::InsnKind;
//!
//! // call rel32 (target = next_rip + 0x10)
//! let insn = decode_one(&[0xe8, 0x10, 0x00, 0x00, 0x00], 0x1000)?;
//! assert_eq!(insn.kind, InsnKind::DirectCall { target: 0x1015 });
//! assert_eq!(insn.len, 5);
//! # Ok::<(), engarde_x86::DisasmError>(())
//! ```

use crate::insn::{AluOp, Cc, Effects, Insn, InsnKind, MemOperand, Segment, Stack, Width};
use crate::reg::Reg;
use crate::DisasmError;

/// Longest legal x86 instruction.
const MAX_INSN_LEN: usize = 15;

#[derive(Clone, Copy, Default)]
struct Rex {
    present: bool,
    w: bool,
    r: bool,
    x: bool,
    b: bool,
}

/// Cursor over the byte stream of one instruction.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    addr: u64,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, DisasmError> {
        let b = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or(DisasmError::UnexpectedEof { addr: self.addr })?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DisasmError> {
        Ok(u16::from_le_bytes([self.u8()?, self.u8()?]))
    }

    fn u32(&mut self) -> Result<u32, DisasmError> {
        Ok(u32::from_le_bytes([
            self.u8()?,
            self.u8()?,
            self.u8()?,
            self.u8()?,
        ]))
    }

    fn u64(&mut self) -> Result<u64, DisasmError> {
        let lo = self.u32()? as u64;
        let hi = self.u32()? as u64;
        Ok((hi << 32) | lo)
    }
}

/// Decoded ModRM/SIB result: either a register or a memory operand.
enum RmOperand {
    Reg(Reg),
    Mem(MemOperand),
}

struct ModRm {
    reg_field: u8,
    rm: RmOperand,
    modrm_len: u8,
    disp_len: u8,
}

fn parse_modrm(
    cur: &mut Cursor<'_>,
    rex: Rex,
    segment: Option<Segment>,
) -> Result<ModRm, DisasmError> {
    let modrm = cur.u8()?;
    let mode = modrm >> 6;
    let reg_field = (modrm >> 3) & 7;
    let rm_field = modrm & 7;
    let mut modrm_len = 1u8;
    let mut disp_len = 0u8;

    if mode == 3 {
        return Ok(ModRm {
            reg_field,
            rm: RmOperand::Reg(Reg::from_bits(rex.b, rm_field)),
            modrm_len,
            disp_len,
        });
    }

    let mut mem = MemOperand {
        scale: 1,
        segment,
        ..Default::default()
    };

    if rm_field == 4 {
        // SIB byte follows.
        let sib = cur.u8()?;
        modrm_len += 1;
        let scale_bits = sib >> 6;
        let index_field = (sib >> 3) & 7;
        let base_field = sib & 7;
        mem.scale = 1 << scale_bits;
        if index_field != 4 || rex.x {
            mem.index = Some(Reg::from_bits(rex.x, index_field));
        }
        if base_field == 5 && mode == 0 {
            // No base, disp32 follows.
            mem.base = None;
            disp_len = 4;
        } else {
            mem.base = Some(Reg::from_bits(rex.b, base_field));
        }
    } else if rm_field == 5 && mode == 0 {
        // RIP-relative, disp32.
        mem.rip_relative = true;
        disp_len = 4;
    } else {
        mem.base = Some(Reg::from_bits(rex.b, rm_field));
    }

    match mode {
        0 => {}
        1 => disp_len = 1,
        2 => disp_len = 4,
        _ => unreachable!("mode 3 handled above"),
    }

    mem.disp = match disp_len {
        0 => 0,
        1 => cur.u8()? as i8 as i32,
        4 => cur.u32()? as i32,
        _ => unreachable!("disp is 0, 1 or 4 bytes"),
    };

    Ok(ModRm {
        reg_field,
        rm: RmOperand::Mem(mem),
        modrm_len,
        disp_len,
    })
}

/// `e` plus the r/m operand as a source: its register, or a load.
fn src(e: Effects, m: &ModRm) -> Effects {
    match m.rm {
        RmOperand::Reg(r) => e.read(r),
        RmOperand::Mem(mem) => e.access(mem, true, false),
    }
}

/// `e` plus the r/m operand as the destination: its register written
/// at `width`, or a store.
fn dst(e: Effects, m: &ModRm, width: Width) -> Effects {
    match m.rm {
        RmOperand::Reg(r) => e.write(r, width),
        RmOperand::Mem(mem) => e.access(mem, false, true),
    }
}

/// `kind` with REX-less 8-bit register operands: 4–7 name `%ah`–`%bh`,
/// which no typed form can, so it becomes an `Other` reading and
/// writing `%rax`–`%rbx`. Rare in compiled code.
#[cold]
fn legacy_bytes(kind: InsnKind) -> InsnKind {
    let e = kind.effects();
    match e.legacy_bytes() {
        bytes if bytes != e => InsnKind::Other(bytes),
        _ => kind,
    }
}

/// True when a REX-less byte-register form can name `%ah`–`%bh`: its
/// ModRM reg field, its register r/m field, or (`b4`–`b7`) its opcode
/// register is 4–7. `modrm_at` is the ModRM byte's offset.
fn names_high_byte(bytes: &[u8], op: u8, modrm_at: u8, modrm_len: u8) -> bool {
    if modrm_len == 0 {
        return op & 4 != 0;
    }
    bytes
        .get(modrm_at as usize)
        .is_none_or(|&m| m & 0x20 != 0 || (m >= 0xc0 && m & 4 != 0))
}

/// Decodes a single instruction starting at `bytes[0]`, which lives at
/// virtual address `addr`.
///
/// # Errors
///
/// - [`DisasmError::UnexpectedEof`] if the stream ends mid-instruction,
/// - [`DisasmError::UnknownOpcode`] for opcodes outside the supported
///   repertoire (EnGarde rejects such code),
/// - [`DisasmError::UnsupportedAddressSize`] for the `0x67` prefix,
/// - [`DisasmError::TooLong`] if the encoding exceeds 15 bytes.
pub fn decode_one(bytes: &[u8], addr: u64) -> Result<Insn, DisasmError> {
    let mut cur = Cursor {
        bytes,
        pos: 0,
        addr,
    };

    // ---- prefixes ---------------------------------------------------
    let mut segment = None;
    let mut opsize16 = false;
    let mut prefix_len = 0u8;
    loop {
        let b = cur.u8()?;
        match b {
            0xf0 | 0xf2 | 0xf3 | 0x2e | 0x36 | 0x3e | 0x26 => {
                prefix_len += 1;
            }
            0x64 | 0x65 => {
                segment = Some(if b == 0x64 { Segment::Fs } else { Segment::Gs });
                prefix_len += 1;
            }
            0x66 => {
                opsize16 = true;
                prefix_len += 1;
            }
            0x67 => return Err(DisasmError::UnsupportedAddressSize { addr }),
            _ => {
                cur.pos -= 1;
                break;
            }
        }
        if prefix_len as usize > 4 {
            return Err(DisasmError::TooLong { addr });
        }
    }

    // ---- REX ---------------------------------------------------------
    let mut rex = Rex::default();
    if let Some(&b) = cur.bytes.get(cur.pos) {
        if (0x40..=0x4f).contains(&b) {
            rex = Rex {
                present: true,
                w: b & 8 != 0,
                r: b & 4 != 0,
                x: b & 2 != 0,
                b: b & 1 != 0,
            };
            cur.pos += 1;
            prefix_len += 1;
        }
    }

    // REX.W takes precedence over `0x66`; immZ is 16-bit only at 16-bit
    // operand width.
    let width = if rex.w {
        Width::W64
    } else if opsize16 {
        Width::W16
    } else {
        Width::W32
    };
    let imm_z: u8 = if width == Width::W16 { 2 } else { 4 };

    // ---- opcode + operands --------------------------------------------
    let op = cur.u8()?;
    // Opcodes with only 8-bit register operands (and `setcc`, below).
    let mut byte_regs = (op < 0x40 && op & 5 == 0)
        || matches!(
            op,
            0x80 | 0x84 | 0x86 | 0x88 | 0x8a | 0xc0 | 0xc6 | 0xd0 | 0xd2 | 0xf6 | 0xfe
        )
        || (0xb0..0xb8).contains(&op);
    // The byte/full-width opcode pairs (`00`/`01`, `88`/`89`, `f6`/`f7`,
    // …): operand width and immediate size.
    let w = if op & 1 == 0 { Width::W8 } else { width };
    let imm_w = if op & 1 == 0 { 1 } else { imm_z };
    let mut opcode_len = 1u8;
    let mut modrm_len = 0u8;
    let mut disp_len = 0u8;
    let mut imm_len = 0u8;

    // Helper to read a sign-extended immediate of n bytes.
    macro_rules! simm {
        ($n:expr) => {{
            imm_len = $n;
            match $n {
                1 => cur.u8()? as i8 as i64,
                2 => cur.u16()? as i16 as i64,
                4 => cur.u32()? as i32 as i64,
                8 => cur.u64()? as i64,
                _ => unreachable!("immediate is 1, 2, 4 or 8 bytes"),
            }
        }};
    }

    macro_rules! modrm {
        () => {{
            let m = parse_modrm(&mut cur, rex, segment)?;
            modrm_len = m.modrm_len;
            disp_len = m.disp_len;
            m
        }};
    }

    // The register a ModRM form names in its reg field.
    let reg_of = |m: &ModRm| Reg::from_bits(rex.r, m.reg_field);
    let e = Effects::default();

    let kind: InsnKind = match op {
        // ---- ALU family 0x00-0x3D --------------------------------------
        0x00..=0x3d if (op & 7) <= 5 && (op & 0x27) != 0x26 => {
            let alu = AluOp::from_index(op >> 3);
            if op & 7 >= 4 {
                // op %al/%eax, imm
                let imm = simm!(imm_w);
                InsnKind::AluImmReg {
                    op: alu,
                    dest: Reg::Rax,
                    imm,
                    width: w,
                }
            } else {
                let m = modrm!();
                let r = reg_of(&m);
                // Bit 1 set: the reg field is the destination.
                match (m.rm, op & 2 != 0) {
                    (RmOperand::Reg(rm), to_reg) => {
                        let (dest, src) = if to_reg { (r, rm) } else { (rm, r) };
                        InsnKind::AluRegReg {
                            op: alu,
                            dest,
                            src,
                            width: w,
                        }
                    }
                    (RmOperand::Mem(mem), false) => InsnKind::AluRegMem {
                        op: alu,
                        mem,
                        src: r,
                        width: w,
                    },
                    (RmOperand::Mem(mem), true) => InsnKind::AluMemReg {
                        op: alu,
                        dest: r,
                        mem,
                        width: w,
                    },
                }
            }
        }

        // ---- push/pop -----------------------------------------------
        0x50..=0x57 => InsnKind::PushReg {
            reg: Reg::from_bits(rex.b, op & 7),
        },
        0x58..=0x5f => InsnKind::PopReg {
            reg: Reg::from_bits(rex.b, op & 7),
        },

        // movsxd
        0x63 => {
            let m = modrm!();
            InsnKind::Other(src(e, &m).write(reg_of(&m), width))
        }

        // push imm
        0x68 | 0x6a => {
            let _ = simm!(if op == 0x68 { imm_z } else { 1 });
            InsnKind::Other(e.stack(Stack::Push))
        }
        // imul r, r/m, imm
        0x69 | 0x6b => {
            let m = modrm!();
            let _ = simm!(if op == 0x69 { imm_z } else { 1 });
            InsnKind::Other(src(e.flags(false, true), &m).write(reg_of(&m), width))
        }

        // ---- jcc rel8 -------------------------------------------------
        0x70..=0x7f => {
            let rel = simm!(1);
            InsnKind::CondJmp {
                cc: Cc::from_nibble(op & 0xf),
                target: (addr as i64 + (cur.pos as i64) + rel) as u64,
            }
        }

        // ---- group 1: ALU with immediate --------------------------------
        0x80 | 0x81 | 0x83 => {
            let m = modrm!();
            let alu = AluOp::from_index(m.reg_field);
            // 0x83: imm8 sign-extended to the full width.
            let imm = simm!(if op == 0x83 { 1 } else { imm_w });
            match m.rm {
                RmOperand::Reg(dest) => InsnKind::AluImmReg {
                    op: alu,
                    dest,
                    imm,
                    width: w,
                },
                RmOperand::Mem(mem) => InsnKind::AluImmMem {
                    op: alu,
                    mem,
                    imm,
                    width: w,
                },
            }
        }

        // test (sets only the flags) / xchg (writes both operands)
        0x84..=0x87 => {
            let m = modrm!();
            let e = src(e.read(reg_of(&m)), &m);
            InsnKind::Other(if op <= 0x85 {
                e.flags(false, true)
            } else {
                dst(e.write(reg_of(&m), w), &m, w)
            })
        }

        // ---- mov ------------------------------------------------------
        0x88..=0x8b => {
            let m = modrm!();
            let r = reg_of(&m);
            // Bit 1 set: the reg field is the destination.
            match (m.rm, op & 2 != 0) {
                (RmOperand::Reg(rm), to_reg) => {
                    let (dest, src) = if to_reg { (r, rm) } else { (rm, r) };
                    InsnKind::MovRegToReg {
                        dest,
                        src,
                        width: w,
                    }
                }
                (RmOperand::Mem(mem), false) => InsnKind::MovRegToMem {
                    src: r,
                    mem,
                    width: w,
                },
                // mov %fs:disp32, %reg — the canary load.
                (RmOperand::Mem(mem), true)
                    if op == 0x8b
                        && width != Width::W16
                        && mem.segment == Some(Segment::Fs)
                        && mem.base.is_none()
                        && mem.index.is_none()
                        && !mem.rip_relative =>
                {
                    InsnKind::MovFsToReg {
                        dest: r,
                        fs_offset: mem.disp as u32,
                    }
                }
                (RmOperand::Mem(mem), true) => InsnKind::MovMemToReg {
                    dest: r,
                    mem,
                    width: w,
                },
            }
        }
        0x8d => {
            let m = modrm!();
            let dest = Reg::from_bits(rex.r, m.reg_field);
            match m.rm {
                RmOperand::Mem(mem) if mem.rip_relative => InsnKind::LeaRipRel {
                    dest,
                    target: (addr as i64 + cur.pos as i64 + mem.disp as i64) as u64,
                    width,
                },
                RmOperand::Mem(mem) => InsnKind::Lea { dest, mem, width },
                // lea with a register operand is undefined.
                RmOperand::Reg(_) => {
                    return Err(DisasmError::UnknownOpcode {
                        addr,
                        opcode: op as u16,
                    })
                }
            }
        }

        0x90 => InsnKind::Nop,
        0x98 => InsnKind::Other(e.read(Reg::Rax).write(Reg::Rax, width)), // cdqe
        0x99 => InsnKind::Other(e.read(Reg::Rax).write(Reg::Rdx, width)), // cqo

        // test al/eax, imm
        0xa8 | 0xa9 => {
            let _ = simm!(imm_w);
            InsnKind::Other(e.read(Reg::Rax).flags(false, true))
        }

        // mov imm to register (imm64 with REX.W)
        0xb0..=0xbf => {
            let w = if op < 0xb8 { Width::W8 } else { width };
            let imm = match (w, rex.w) {
                (Width::W8, _) => simm!(1),
                (_, true) => simm!(8),
                _ => simm!(imm_z),
            };
            InsnKind::MovImmToReg {
                dest: Reg::from_bits(rex.b, op & 7),
                imm,
                width: w,
            }
        }

        // ---- shift group: by imm8, 1 or %cl; rcl/rcr read the carry -----
        0xc0 | 0xc1 | 0xd0..=0xd3 => {
            let m = modrm!();
            if op <= 0xc1 {
                let _ = simm!(1);
            }
            let e = if op >= 0xd2 { e.read(Reg::Rcx) } else { e };
            let e = src(e.flags(matches!(m.reg_field, 2 | 3), true), &m);
            InsnKind::Other(dst(e, &m, w))
        }

        0xc2 => {
            let _ = simm!(2);
            InsnKind::Ret
        }
        0xc3 => InsnKind::Ret,

        0xc6 | 0xc7 => {
            let m = modrm!();
            if m.reg_field != 0 {
                return Err(DisasmError::UnknownOpcode {
                    addr,
                    opcode: op as u16,
                });
            }
            let imm = simm!(imm_w);
            match m.rm {
                RmOperand::Reg(dest) => InsnKind::MovImmToReg {
                    dest,
                    imm,
                    width: w,
                },
                RmOperand::Mem(mem) => InsnKind::MovImmToMem { mem, imm, width: w },
            }
        }

        0xc9 => InsnKind::Leave,

        0xcc => InsnKind::Privileged, // int3
        0xcd => {
            let _ = simm!(1);
            InsnKind::Privileged // int imm8
        }

        // ---- control transfer ------------------------------------------
        0xe8 => {
            let rel = simm!(4);
            InsnKind::DirectCall {
                target: (addr as i64 + cur.pos as i64 + rel) as u64,
            }
        }
        0xe9 | 0xeb => {
            let rel = simm!(if op == 0xe9 { 4 } else { 1 });
            InsnKind::DirectJmp {
                target: (addr as i64 + cur.pos as i64 + rel) as u64,
            }
        }

        0xf4 => InsnKind::Privileged, // hlt

        // group 3
        0xf6 | 0xf7 => {
            let m = modrm!();
            InsnKind::Other(match m.reg_field {
                // test r/m, imm
                0 | 1 => {
                    let _ = simm!(imm_w);
                    src(e.flags(false, true), &m)
                }
                // not / neg
                2 | 3 => dst(src(e.flags(false, m.reg_field == 3), &m), &m, w),
                // mul / imul / div / idiv r/m8: %ax op r/m8 into %ax
                _ if op == 0xf6 => src(e.flags(false, true), &m).write(Reg::Rax, Width::W16),
                // mul / imul / div / idiv: %rdx:%rax op r/m; division
                // also reads %rdx
                f => {
                    let e = if f >= 6 { e.read(Reg::Rdx) } else { e };
                    let e = src(e.flags(false, true).read(Reg::Rax), &m);
                    e.write(Reg::Rax, w).write(Reg::Rdx, w)
                }
            })
        }

        // inc/dec r/m8; the CPU raises #UD on every other reg field
        0xfe => {
            let m = modrm!();
            if m.reg_field > 1 {
                return Err(DisasmError::UnknownOpcode {
                    addr,
                    opcode: op as u16,
                });
            }
            InsnKind::Other(dst(src(e.flags(false, true), &m), &m, Width::W8))
        }
        0xff => {
            let m = modrm!();
            match m.reg_field {
                0 | 1 => InsnKind::Other(dst(src(e.flags(false, true), &m), &m, width)), // inc/dec
                6 => InsnKind::Other(src(e.stack(Stack::Push), &m)),                     // push r/m
                2 => match m.rm {
                    RmOperand::Reg(reg) => InsnKind::IndirectCallReg { reg },
                    RmOperand::Mem(mem) => InsnKind::IndirectCallMem { mem },
                },
                4 => match m.rm {
                    RmOperand::Reg(reg) => InsnKind::IndirectJmpReg { reg },
                    RmOperand::Mem(mem) => InsnKind::IndirectJmpMem { mem },
                },
                // far call/jmp: never emitted by compilers for user code.
                _ => InsnKind::Privileged,
            }
        }

        // ---- two-byte map ------------------------------------------------
        0x0f => {
            let op2 = cur.u8()?;
            opcode_len = 2;
            match op2 {
                0x05 => InsnKind::Syscall,
                0x0b => InsnKind::Privileged, // ud2
                0x1f => {
                    let _ = modrm!();
                    InsnKind::Nop // multi-byte nop
                }
                0x31 => InsnKind::Privileged, // rdtsc (illegal in enclaves)
                0xa2 => InsnKind::Privileged, // cpuid (illegal in enclaves)
                // cmovcc: the destination keeps its value if the
                // condition fails
                0x40..=0x4f => {
                    let m = modrm!();
                    let e = src(e.flags(true, false).read(reg_of(&m)), &m);
                    InsnKind::Other(e.write(reg_of(&m), width))
                }
                0x80..=0x8f => {
                    let rel = simm!(4);
                    InsnKind::CondJmp {
                        cc: Cc::from_nibble(op2 & 0xf),
                        target: (addr as i64 + cur.pos as i64 + rel) as u64,
                    }
                }
                0x90..=0x9f => {
                    let m = modrm!();
                    byte_regs = true;
                    InsnKind::Other(dst(e.flags(true, false), &m, Width::W8)) // setcc
                }
                0xaf => {
                    let m = modrm!();
                    let e = src(e.flags(false, true).read(reg_of(&m)), &m);
                    InsnKind::Other(e.write(reg_of(&m), width)) // imul r, r/m
                }
                // movzx / movsx
                0xb6 | 0xb7 | 0xbe | 0xbf => {
                    let m = modrm!();
                    // An even `op2` reads an 8-bit source register.
                    let bytes = op2 & 1 == 0 && !rex.present;
                    let e = if bytes {
                        src(e, &m).legacy_bytes()
                    } else {
                        src(e, &m)
                    };
                    InsnKind::Other(e.write(reg_of(&m), width))
                }
                _ => {
                    return Err(DisasmError::UnknownOpcode {
                        addr,
                        opcode: 0x0f00 | op2 as u16,
                    })
                }
            }
        }

        _ => {
            return Err(DisasmError::UnknownOpcode {
                addr,
                opcode: op as u16,
            })
        }
    };

    if cur.pos > MAX_INSN_LEN {
        return Err(DisasmError::TooLong { addr });
    }

    let mut insn = Insn {
        addr,
        len: cur.pos as u8,
        prefix_len,
        opcode_len,
        modrm_len,
        disp_len,
        imm_len,
        kind,
    };
    if byte_regs && !rex.present && names_high_byte(bytes, op, prefix_len + opcode_len, modrm_len) {
        insn.kind = legacy_bytes(insn.kind);
    }
    Ok(insn)
}

/// Linear-sweep disassembly of an entire code region at base address
/// `base`.
///
/// # Errors
///
/// Fails on the first undecodable instruction — EnGarde rejects binaries
/// it cannot disassemble completely.
pub fn decode_all(code: &[u8], base: u64) -> Result<Vec<Insn>, DisasmError> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < code.len() {
        let insn = decode_one(&code[off..], base + off as u64)?;
        off += insn.len as usize;
        out.push(insn);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::RegSet;

    fn one(bytes: &[u8]) -> Insn {
        decode_one(bytes, 0x1000).expect("decodes")
    }

    #[test]
    fn ret_and_nop() {
        assert_eq!(one(&[0xc3]).kind, InsnKind::Ret);
        assert_eq!(one(&[0xc3]).len, 1);
        assert_eq!(one(&[0x90]).kind, InsnKind::Nop);
        // ret imm16
        let r = one(&[0xc2, 0x08, 0x00]);
        assert_eq!(r.kind, InsnKind::Ret);
        assert_eq!(r.len, 3);
        assert_eq!(r.imm_len, 2);
    }

    #[test]
    fn direct_call_rel32() {
        // e8 10 00 00 00 => call 0x1015
        let i = one(&[0xe8, 0x10, 0x00, 0x00, 0x00]);
        assert_eq!(i.kind, InsnKind::DirectCall { target: 0x1015 });
        assert_eq!(i.imm_len, 4);
        // Negative displacement.
        let i = one(&[0xe8, 0xfb, 0xff, 0xff, 0xff]);
        assert_eq!(i.kind, InsnKind::DirectCall { target: 0x1000 });
    }

    #[test]
    fn jumps() {
        let i = one(&[0xeb, 0x02]);
        assert_eq!(i.kind, InsnKind::DirectJmp { target: 0x1004 });
        let i = one(&[0xe9, 0x00, 0x01, 0x00, 0x00]);
        assert_eq!(i.kind, InsnKind::DirectJmp { target: 0x1105 });
        // jne rel8
        let i = one(&[0x75, 0x14]);
        assert_eq!(
            i.kind,
            InsnKind::CondJmp {
                cc: Cc::Ne,
                target: 0x1016
            }
        );
        // jne rel32 (0f 85)
        let i = one(&[0x0f, 0x85, 0x00, 0x02, 0x00, 0x00]);
        assert_eq!(
            i.kind,
            InsnKind::CondJmp {
                cc: Cc::Ne,
                target: 0x1206
            }
        );
        assert_eq!(i.opcode_len, 2);
    }

    #[test]
    fn push_pop() {
        assert_eq!(one(&[0x55]).kind, InsnKind::PushReg { reg: Reg::Rbp });
        assert_eq!(one(&[0x5d]).kind, InsnKind::PopReg { reg: Reg::Rbp });
        // REX.B extends to r12.
        let i = one(&[0x41, 0x54]);
        assert_eq!(i.kind, InsnKind::PushReg { reg: Reg::R12 });
        assert_eq!(i.prefix_len, 1);
    }

    #[test]
    fn mov_reg_reg_64() {
        // 48 89 e5 => mov %rsp, %rbp
        let i = one(&[0x48, 0x89, 0xe5]);
        assert_eq!(
            i.kind,
            InsnKind::MovRegToReg {
                dest: Reg::Rbp,
                src: Reg::Rsp,
                width: Width::W64
            }
        );
        assert_eq!(i.len, 3);
    }

    #[test]
    fn canary_load_mov_fs() {
        // 64 48 8b 04 25 28 00 00 00 => mov %fs:0x28, %rax
        let i = one(&[0x64, 0x48, 0x8b, 0x04, 0x25, 0x28, 0x00, 0x00, 0x00]);
        assert_eq!(
            i.kind,
            InsnKind::MovFsToReg {
                dest: Reg::Rax,
                fs_offset: 0x28
            }
        );
        assert_eq!(i.len, 9);
        assert_eq!(i.prefix_len, 2);
        assert_eq!(i.disp_len, 4);
    }

    #[test]
    fn canary_store_to_stack() {
        // 48 89 04 24 => mov %rax, (%rsp)
        let i = one(&[0x48, 0x89, 0x04, 0x24]);
        match i.kind {
            InsnKind::MovRegToMem { src, mem, width } => {
                assert_eq!(src, Reg::Rax);
                assert_eq!(mem.base, Some(Reg::Rsp));
                assert_eq!(mem.disp, 0);
                assert_eq!(width, Width::W64);
            }
            k => panic!("unexpected kind {k:?}"),
        }
        assert_eq!(i.modrm_len, 2); // ModRM + SIB
    }

    #[test]
    fn canary_check_cmp() {
        // 48 3b 04 24 => cmp (%rsp), %rax
        let i = one(&[0x48, 0x3b, 0x04, 0x24]);
        match i.kind {
            InsnKind::AluMemReg {
                op,
                dest,
                mem,
                width,
            } => {
                assert_eq!(op, AluOp::Cmp);
                assert_eq!(dest, Reg::Rax);
                assert_eq!(mem.base, Some(Reg::Rsp));
                assert_eq!(width, Width::W64);
            }
            k => panic!("unexpected kind {k:?}"),
        }
    }

    #[test]
    fn ifcc_sequence() {
        // lea 0x85c70(%rip), %rax => 48 8d 05 70 5c 08 00
        let i = one(&[0x48, 0x8d, 0x05, 0x70, 0x5c, 0x08, 0x00]);
        assert_eq!(
            i.kind,
            InsnKind::LeaRipRel {
                dest: Reg::Rax,
                target: 0x1007 + 0x85c70,
                width: Width::W64
            }
        );
        // sub %eax, %ecx => 29 c1
        let i = one(&[0x29, 0xc1]);
        assert_eq!(
            i.kind,
            InsnKind::AluRegReg {
                op: AluOp::Sub,
                dest: Reg::Rcx,
                src: Reg::Rax,
                width: Width::W32
            }
        );
        // and $0x1ff8, %rcx => 48 81 e1 f8 1f 00 00
        let i = one(&[0x48, 0x81, 0xe1, 0xf8, 0x1f, 0x00, 0x00]);
        assert_eq!(
            i.kind,
            InsnKind::AluImmReg {
                op: AluOp::And,
                dest: Reg::Rcx,
                imm: 0x1ff8,
                width: Width::W64
            }
        );
        // add %rax, %rcx => 48 01 c1
        let i = one(&[0x48, 0x01, 0xc1]);
        assert_eq!(
            i.kind,
            InsnKind::AluRegReg {
                op: AluOp::Add,
                dest: Reg::Rcx,
                src: Reg::Rax,
                width: Width::W64
            }
        );
        // callq *%rcx => ff d1
        let i = one(&[0xff, 0xd1]);
        assert_eq!(i.kind, InsnKind::IndirectCallReg { reg: Reg::Rcx });
    }

    #[test]
    fn multi_byte_nop() {
        // 0f 1f 00 => nopl (%rax)
        let i = one(&[0x0f, 0x1f, 0x00]);
        assert_eq!(i.kind, InsnKind::Nop);
        assert_eq!(i.len, 3);
        // 0f 1f 44 00 00 => nopl 0x0(%rax,%rax,1)
        let i = one(&[0x0f, 0x1f, 0x44, 0x00, 0x00]);
        assert_eq!(i.kind, InsnKind::Nop);
        assert_eq!(i.len, 5);
    }

    #[test]
    fn mov_imm_variants() {
        // b8 2a 00 00 00 => mov $42, %eax
        let i = one(&[0xb8, 0x2a, 0x00, 0x00, 0x00]);
        assert_eq!(
            i.kind,
            InsnKind::MovImmToReg {
                dest: Reg::Rax,
                imm: 42,
                width: Width::W32
            }
        );
        // 48 b8 imm64 => movabs
        let i = one(&[0x48, 0xb8, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(i.len, 10);
        assert_eq!(i.imm_len, 8);
        match i.kind {
            InsnKind::MovImmToReg { imm, .. } => {
                assert_eq!(imm as u64, 0x0807060504030201);
            }
            k => panic!("unexpected {k:?}"),
        }
        // c7 45 fc 01 00 00 00 => movl $1, -4(%rbp)
        let i = one(&[0xc7, 0x45, 0xfc, 0x01, 0x00, 0x00, 0x00]);
        match i.kind {
            InsnKind::MovImmToMem { mem, imm, .. } => {
                assert_eq!(mem.base, Some(Reg::Rbp));
                assert_eq!(mem.disp, -4);
                assert_eq!(imm, 1);
            }
            k => panic!("unexpected {k:?}"),
        }
        assert_eq!(i.disp_len, 1);
        assert_eq!(i.imm_len, 4);
    }

    #[test]
    fn alu_imm8_sign_extended() {
        // 48 83 c0 ff => add $-1, %rax
        let i = one(&[0x48, 0x83, 0xc0, 0xff]);
        assert_eq!(
            i.kind,
            InsnKind::AluImmReg {
                op: AluOp::Add,
                dest: Reg::Rax,
                imm: -1,
                width: Width::W64
            }
        );
    }

    #[test]
    fn sib_full_addressing() {
        // 8b 44 8a 08 => mov 0x8(%rdx,%rcx,4), %eax
        let i = one(&[0x8b, 0x44, 0x8a, 0x08]);
        match i.kind {
            InsnKind::MovMemToReg { dest, mem, .. } => {
                assert_eq!(dest, Reg::Rax);
                assert_eq!(mem.base, Some(Reg::Rdx));
                assert_eq!(mem.index, Some(Reg::Rcx));
                assert_eq!(mem.scale, 4);
                assert_eq!(mem.disp, 8);
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn rip_relative_load() {
        // 48 8b 05 10 00 00 00 => mov 0x10(%rip), %rax
        let i = one(&[0x48, 0x8b, 0x05, 0x10, 0x00, 0x00, 0x00]);
        match i.kind {
            InsnKind::MovMemToReg { mem, .. } => {
                assert!(mem.rip_relative);
                assert_eq!(mem.disp, 0x10);
            }
            k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn forbidden_instructions_classified() {
        assert_eq!(one(&[0x0f, 0x05]).kind, InsnKind::Syscall);
        assert_eq!(one(&[0xcc]).kind, InsnKind::Privileged);
        assert_eq!(one(&[0xf4]).kind, InsnKind::Privileged);
        assert_eq!(one(&[0x0f, 0xa2]).kind, InsnKind::Privileged);
        assert_eq!(one(&[0x0f, 0x31]).kind, InsnKind::Privileged);
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(matches!(
            decode_one(&[0x0f, 0xff], 0),
            Err(DisasmError::UnknownOpcode { .. })
        ));
        // 0x06 is invalid in 64-bit mode (was push es).
        assert!(matches!(
            decode_one(&[0x06], 0),
            Err(DisasmError::UnknownOpcode { .. })
        ));
    }

    #[test]
    fn byte_inc_dec_group_rejects_reg_fields_two_to_seven() {
        // fe /0 and /1 are inc/dec r/m8; /2–/7 raise #UD on the CPU,
        // so the inspector must not judge them as instructions.
        for reg in 0..8u8 {
            for modrm in [0xc0 | reg << 3, 0x03 | reg << 3] {
                let got = decode_one(&[0xfe, modrm], 0x1000);
                if reg < 2 {
                    assert_eq!(got.map(|i| i.len), Ok(2), "fe {modrm:02x}");
                } else {
                    assert_eq!(
                        got,
                        Err(DisasmError::UnknownOpcode {
                            addr: 0x1000,
                            opcode: 0xfe
                        }),
                        "fe {modrm:02x}"
                    );
                }
            }
        }
    }

    #[test]
    fn operand_size_prefix_leaves_near_branches_rel32() {
        // Intel 64 ignores 66 on call/jmp/jcc rel32 in 64-bit mode (AMD
        // reads rel16); SGX is Intel-only, so the displacement stays
        // four bytes and the length is the prefix plus 5, 5 or 6.
        let at = 0x1000u64;
        let rel = [0x10, 0x00, 0x00, 0x00];
        let mut cases = vec![
            ([&[0x66, 0xe8][..], &rel].concat(), 6),
            ([&[0x66, 0xe9][..], &rel].concat(), 6),
        ];
        for cc in 0x80..=0x8fu8 {
            cases.push(([&[0x66, 0x0f, cc][..], &rel].concat(), 7));
        }
        for (bytes, len) in cases {
            let i = decode_one(&bytes, at).expect("decodes");
            assert_eq!(i.len as usize, len, "{bytes:x?}");
            assert_eq!(
                i.kind.branch_target(),
                Some(at + len as u64 + 0x10),
                "{bytes:x?}"
            );
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        assert!(matches!(
            decode_one(&[0xe8, 0x01], 0),
            Err(DisasmError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            decode_one(&[0x48], 0),
            Err(DisasmError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            decode_one(&[], 0),
            Err(DisasmError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn address_size_prefix_rejected() {
        assert!(matches!(
            decode_one(&[0x67, 0x8b, 0x00], 0),
            Err(DisasmError::UnsupportedAddressSize { .. })
        ));
    }

    #[test]
    fn decode_all_linear_sweep() {
        // push %rbp; mov %rsp,%rbp; nop; pop %rbp; ret
        let code = [0x55, 0x48, 0x89, 0xe5, 0x90, 0x5d, 0xc3];
        let insns = decode_all(&code, 0x2000).expect("decodes");
        assert_eq!(insns.len(), 5);
        assert_eq!(insns[0].addr, 0x2000);
        assert_eq!(insns[4].addr, 0x2006);
        assert_eq!(insns[4].kind, InsnKind::Ret);
        let total: usize = insns.iter().map(|i| i.len as usize).sum();
        assert_eq!(total, code.len());
    }

    #[test]
    fn decode_all_fails_on_garbage() {
        let code = [0x90, 0x06, 0x90];
        assert!(decode_all(&code, 0).is_err());
    }

    #[test]
    fn length_metadata_accounts_for_every_byte() {
        let cases: Vec<Vec<u8>> = vec![
            vec![0xc3],
            vec![0x64, 0x48, 0x8b, 0x04, 0x25, 0x28, 0x00, 0x00, 0x00],
            vec![0x48, 0x81, 0xe1, 0xf8, 0x1f, 0x00, 0x00],
            vec![0xe8, 0x00, 0x00, 0x00, 0x00],
            vec![0x0f, 0x1f, 0x44, 0x00, 0x00],
            vec![0xc7, 0x45, 0xfc, 0x01, 0x00, 0x00, 0x00],
        ];
        for bytes in cases {
            let i = one(&bytes);
            assert_eq!(
                i.prefix_len + i.opcode_len + i.modrm_len + i.disp_len + i.imm_len,
                i.len,
                "byte accounting for {bytes:x?}"
            );
            assert_eq!(i.len as usize, bytes.len());
        }
    }

    #[test]
    fn operand_size_prefix_yields_imm16() {
        // 66 81 c0 34 12 => add $0x1234, %ax
        let i = one(&[0x66, 0x81, 0xc0, 0x34, 0x12]);
        assert_eq!(i.imm_len, 2);
        assert_eq!(
            i.kind,
            InsnKind::AluImmReg {
                op: AluOp::Add,
                dest: Reg::Rax,
                imm: 0x1234,
                width: Width::W16
            }
        );
    }

    #[test]
    fn rex_w_takes_precedence_over_the_operand_size_prefix() {
        // 66 48 81 c0 78 56 34 12 => add $0x12345678, %rax (imm32, not imm16)
        let i = one(&[0x66, 0x48, 0x81, 0xc0, 0x78, 0x56, 0x34, 0x12]);
        assert_eq!((i.len, i.imm_len), (8, 4));
        assert_eq!(
            i.kind,
            InsnKind::AluImmReg {
                op: AluOp::Add,
                dest: Reg::Rax,
                imm: 0x12345678,
                width: Width::W64
            }
        );
        // 66 48 89 c3 => mov %rax, %rbx: a full write, no merge.
        let e = one(&[0x66, 0x48, 0x89, 0xc3]).kind.effects();
        assert_eq!(e.reads, RegSet::of(&[Reg::Rax]));
    }

    #[test]
    fn lea_carries_its_operand_width() {
        // 48 8d 44 24 f8 / 8d 44 24 f8 / 66 8d 44 24 f8 => lea -8(%rsp), %rax/%eax/%ax
        for (bytes, width) in [
            (&[0x48, 0x8d, 0x44, 0x24, 0xf8][..], Width::W64),
            (&[0x8d, 0x44, 0x24, 0xf8][..], Width::W32),
            (&[0x66, 0x8d, 0x44, 0x24, 0xf8][..], Width::W16),
        ] {
            assert_eq!(
                one(bytes).kind,
                InsnKind::Lea {
                    dest: Reg::Rax,
                    mem: MemOperand::base_disp(Reg::Rsp, -8),
                    width
                }
            );
        }
        // 66 8d 05 10 00 00 00 => lea 0x10(%rip), %ax
        assert_eq!(
            one(&[0x66, 0x8d, 0x05, 0x10, 0x00, 0x00, 0x00]).kind,
            InsnKind::LeaRipRel {
                dest: Reg::Rax,
                target: 0x1017,
                width: Width::W16
            }
        );
    }

    #[test]
    fn unclassified_forms_report_what_they_write() {
        let fx = |bytes: &[u8]| match one(bytes).kind {
            InsnKind::Other(e) => e,
            k => panic!("unexpected {k:?}"),
        };
        let regs = |r: &[Reg]| RegSet::of(r);
        let (rax, rcx, rdx, rbx) = (Reg::Rax, Reg::Rcx, Reg::Rdx, Reg::Rbx);
        // test %eax, %eax / test $1, %al: read, set the flags, write
        // and access nothing.
        for bytes in [&[0x85, 0xc0][..], &[0xa8, 0x01]] {
            let e = fx(bytes);
            assert_eq!(
                (e.reads, e.writes, e.sets_flags()),
                (regs(&[rax]), regs(&[]), true)
            );
            assert!(!e.load() && !e.store() && e.mem.is_none());
        }
        // movzx (%rbx), %eax: a load into %rax.
        let e = fx(&[0x0f, 0xb6, 0x03]);
        assert_eq!(e.mem, Some(MemOperand::base_disp(rbx, 0)));
        assert!(e.load() && !e.store());
        assert_eq!((e.reads, e.writes), (regs(&[]), regs(&[rax])));
        // movzx %cl, %ebp / movzx %cl, %r8d / movzx %ah, %ecx (REX-less
        // source 4 is %ah).
        let e = fx(&[0x0f, 0xb6, 0xe9]);
        assert_eq!((e.reads, e.writes), (regs(&[rcx]), regs(&[Reg::Rbp])));
        assert_eq!(fx(&[0x44, 0x0f, 0xb6, 0xc1]).writes, regs(&[Reg::R8]));
        assert_eq!(fx(&[0x0f, 0xb6, 0xcc]).reads, regs(&[rax]));
        // xchg %rax, (%rdx): loads, stores, reads and writes %rax.
        let e = fx(&[0x48, 0x87, 0x02]);
        assert!(e.load() && e.store());
        assert_eq!((e.reads, e.writes), (regs(&[rax]), regs(&[rax])));
        // xchg %rbx, (%rcx): the same through %rbx.
        let e = fx(&[0x48, 0x87, 0x19]);
        assert!(e.load() && e.store());
        assert_eq!((e.reads, e.writes), (regs(&[rbx]), regs(&[rbx])));
        // xchg %rbx, %rcx: both read, both written.
        let e = fx(&[0x48, 0x87, 0xd9]);
        assert_eq!((e.reads, e.writes), (regs(&[rcx, rbx]), regs(&[rcx, rbx])));
        // sete %dl: reads the flags, merges into %rdx.
        let e = fx(&[0x0f, 0x94, 0xc2]);
        assert!(e.reads_flags());
        assert_eq!((e.reads, e.writes), (regs(&[rdx]), regs(&[rdx])));
        // sete (%rax): a store, no load.
        let e = fx(&[0x0f, 0x94, 0x00]);
        assert!(e.store() && !e.load() && e.writes == regs(&[]));
        // cmovne %rcx, %rax: the destination survives a failed condition.
        let e = fx(&[0x48, 0x0f, 0x45, 0xc1]);
        assert!(e.reads_flags());
        assert_eq!((e.reads, e.writes), (regs(&[rax, rcx]), regs(&[rax])));
        // shl $3, %rbp / shl %cl, %rbp: the shifted register is written.
        let e = fx(&[0x48, 0xc1, 0xe5, 0x03]);
        assert_eq!((e.reads, e.writes), (regs(&[Reg::Rbp]), regs(&[Reg::Rbp])));
        let e = fx(&[0x48, 0xd3, 0xe5]);
        assert_eq!(
            (e.reads, e.writes),
            (regs(&[rcx, Reg::Rbp]), regs(&[Reg::Rbp]))
        );
        // div %rcx.
        let e = fx(&[0x48, 0xf7, 0xf1]);
        assert_eq!(
            (e.reads, e.writes),
            (regs(&[rax, rcx, rdx]), regs(&[rax, rdx]))
        );
        // push $1 / push (%rbx): the value goes to the new stack top.
        assert_eq!(fx(&[0x6a, 0x01]).stack, Some(Stack::Push));
        let e = fx(&[0xff, 0x33]);
        assert!(e.load() && e.stack == Some(Stack::Push) && e.writes == regs(&[]));
    }

    #[test]
    fn legacy_high_byte_registers_are_not_rsp_through_rdi() {
        let fx = |bytes: &[u8]| match one(bytes).kind {
            InsnKind::Other(e) => e,
            k => panic!("unexpected {k:?}"),
        };
        let rax = RegSet::of(&[Reg::Rax]);
        // mov (%rbx), %ah: a load merged into %rax.
        let e = fx(&[0x8a, 0x23]);
        assert!(e.load() && e.reads == rax && e.writes == rax);
        // mov $0x5a, %ah / mov %ah, %al.
        assert_eq!(fx(&[0xb4, 0x5a]).writes, rax);
        assert_eq!(fx(&[0x88, 0xe0]).reads, rax);
        // With a REX prefix, 4 is %spl: still a typed move.
        assert_eq!(
            one(&[0x40, 0x88, 0xe0]).kind,
            InsnKind::MovRegToReg {
                dest: Reg::Rax,
                src: Reg::Rsp,
                width: Width::W8
            }
        );
        // mov $0x5a, %al stays typed, and keeps %rax's upper bits.
        let e = one(&[0xb0, 0x5a]).kind.effects();
        assert_eq!((e.reads, e.writes), (rax, rax));
    }

    #[test]
    fn segment_overrides_are_recorded() {
        // 65 48 89 02 => mov %rax, %gs:(%rdx)
        match one(&[0x65, 0x48, 0x89, 0x02]).kind {
            InsnKind::MovRegToMem { mem, .. } => assert_eq!(mem.segment, Some(Segment::Gs)),
            k => panic!("unexpected {k:?}"),
        }
        // 64 8a 04 25 28 00 00 00 => mov %fs:0x28, %al is no canary load.
        match one(&[0x64, 0x8a, 0x04, 0x25, 0x28, 0, 0, 0]).kind {
            InsnKind::MovMemToReg { mem, width, .. } => {
                assert_eq!((mem.segment, width), (Some(Segment::Fs), Width::W8));
            }
            k => panic!("unexpected {k:?}"),
        }
        assert_eq!(one(&[0xc9]).kind, InsnKind::Leave);
    }

    #[test]
    fn indirect_jmp_through_memory() {
        // ff 24 c5 00 10 00 00 => jmp *0x1000(,%rax,8)
        let i = one(&[0xff, 0x24, 0xc5, 0x00, 0x10, 0x00, 0x00]);
        match i.kind {
            InsnKind::IndirectJmpMem { mem } => {
                assert_eq!(mem.base, None);
                assert_eq!(mem.index, Some(Reg::Rax));
                assert_eq!(mem.scale, 8);
                assert_eq!(mem.disp, 0x1000);
            }
            k => panic!("unexpected {k:?}"),
        }
    }
}
