//! AT&T-style formatting of decoded instructions — objdump-like
//! listings for diagnostics, examples, and policy-violation messages.
//!
//! The formatter renders the classification the decoder produced; kinds
//! the classifier keeps generic ([`InsnKind::Other`]) render as a byte
//! comment, which is exactly the honesty a reviewer wants from a
//! security tool's diagnostics.

use crate::insn::{Insn, InsnKind, MemOperand, Segment, Width};
use std::fmt::Write as _;

/// Renders one memory operand in AT&T syntax.
fn mem(m: &MemOperand) -> String {
    let mut out = match m.segment {
        Some(Segment::Fs) => "%fs:".to_string(),
        Some(Segment::Gs) => "%gs:".to_string(),
        None => String::new(),
    };
    if m.rip_relative {
        let _ = write!(out, "{:#x}(%rip)", m.disp);
        return out;
    }
    if m.disp != 0 {
        let _ = write!(out, "{:#x}", m.disp);
    }
    out.push('(');
    if let Some(b) = m.base {
        out.push_str(b.name64());
    }
    if let Some(i) = m.index {
        let _ = write!(out, ",{},{}", i.name64(), m.scale);
    }
    out.push(')');
    out
}

/// Width-appropriate register name (64-bit and 32-bit forms; narrower
/// widths keep the 32-bit name, which is close enough for diagnostics).
fn reg_name(r: crate::reg::Reg, w: Width) -> &'static str {
    match w {
        Width::W64 => r.name64(),
        _ => r.name32(),
    }
}

fn width_suffix(w: Width) -> &'static str {
    match w {
        Width::W8 => "b",
        Width::W16 => "w",
        Width::W32 => "l",
        Width::W64 => "q",
    }
}

/// Formats one instruction in AT&T syntax, resolving branch targets
/// through `symbol` when provided.
pub fn format_insn(insn: &Insn, symbol: impl Fn(u64) -> Option<String>) -> String {
    let target = |t: u64| match symbol(t) {
        Some(name) => format!("{t:#x} <{name}>"),
        None => format!("{t:#x}"),
    };
    match insn.kind {
        InsnKind::DirectCall { target: t } => format!("callq {}", target(t)),
        InsnKind::IndirectCallReg { reg } => format!("callq *{reg}"),
        InsnKind::IndirectCallMem { mem: m } => format!("callq *{}", mem(&m)),
        InsnKind::DirectJmp { target: t } => format!("jmpq {}", target(t)),
        InsnKind::CondJmp { cc, target: t } => format!("j{} {}", cc.suffix(), target(t)),
        InsnKind::IndirectJmpReg { reg } => format!("jmpq *{reg}"),
        InsnKind::IndirectJmpMem { mem: m } => format!("jmpq *{}", mem(&m)),
        InsnKind::Ret => "retq".to_string(),
        InsnKind::Nop => {
            if insn.len == 1 {
                "nop".to_string()
            } else {
                "nopl (%rax)".to_string()
            }
        }
        InsnKind::LeaRipRel {
            dest, target: t, ..
        } => {
            format!("lea {}(%rip), {dest}    # {}", 0, target(t))
        }
        InsnKind::Lea { dest, mem: m, .. } => format!("lea {}, {dest}", mem(&m)),
        InsnKind::MovFsToReg { dest, fs_offset } => {
            format!("mov %fs:{fs_offset:#x}, {dest}")
        }
        InsnKind::MovRegToMem { src, mem: m, width } => {
            format!("mov{} {src}, {}", width_suffix(width), mem(&m))
        }
        InsnKind::MovMemToReg {
            dest,
            mem: m,
            width,
        } => {
            format!("mov{} {}, {dest}", width_suffix(width), mem(&m))
        }
        InsnKind::MovRegToReg { dest, src, width } => {
            format!(
                "mov{} {}, {}",
                width_suffix(width),
                reg_name(src, width),
                reg_name(dest, width)
            )
        }
        InsnKind::MovImmToReg { dest, imm, .. } => format!("mov ${imm:#x}, {dest}"),
        InsnKind::MovImmToMem { mem: m, imm, .. } => format!("mov ${imm:#x}, {}", mem(&m)),
        InsnKind::AluRegReg {
            op,
            dest,
            src,
            width,
        } => format!(
            "{}{} {}, {}",
            op.mnemonic(),
            width_suffix(width),
            reg_name(src, width),
            reg_name(dest, width)
        ),
        InsnKind::AluImmReg { op, dest, imm, .. } => format!("{} ${imm:#x}, {dest}", op.mnemonic()),
        InsnKind::AluMemReg {
            op, dest, mem: m, ..
        } => {
            format!("{} {}, {dest}", op.mnemonic(), mem(&m))
        }
        InsnKind::AluRegMem {
            op, mem: m, src, ..
        } => {
            format!("{} {src}, {}", op.mnemonic(), mem(&m))
        }
        InsnKind::AluImmMem {
            op, mem: m, imm, ..
        } => {
            format!("{} ${imm:#x}, {}", op.mnemonic(), mem(&m))
        }
        InsnKind::Leave => "leave".to_string(),
        InsnKind::PushReg { reg } => format!("push {reg}"),
        InsnKind::PopReg { reg } => format!("pop {reg}"),
        InsnKind::Syscall => "syscall".to_string(),
        InsnKind::Privileged => "(privileged)".to_string(),
        _ => format!("(unclassified, {} bytes)", insn.len),
    }
}

/// Produces an objdump-style listing of `insns`, with function labels
/// from `symbol`.
pub fn listing(insns: &[Insn], symbol: impl Fn(u64) -> Option<String>) -> String {
    let mut out = String::new();
    for insn in insns {
        if let Some(name) = symbol(insn.addr) {
            let _ = writeln!(out, "\n{:016x} <{name}>:", insn.addr);
        }
        let _ = writeln!(out, "  {:6x}: {}", insn.addr, format_insn(insn, &symbol));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_all;
    use crate::encode::Assembler;
    use crate::reg::Reg;

    fn fmt_one(bytes: &[u8]) -> String {
        let insn = crate::decode::decode_one(bytes, 0x1000).expect("decodes");
        format_insn(&insn, |_| None)
    }

    #[test]
    fn formats_the_paper_listing_instructions() {
        // The §5 stack-protector snippet renders recognisably.
        assert_eq!(
            fmt_one(&[0x64, 0x48, 0x8b, 0x04, 0x25, 0x28, 0, 0, 0]),
            "mov %fs:0x28, %rax"
        );
        assert_eq!(fmt_one(&[0x48, 0x89, 0x04, 0x24]), "movq %rax, (%rsp)");
        assert_eq!(fmt_one(&[0x48, 0x3b, 0x04, 0x24]), "cmp (%rsp), %rax");
        assert_eq!(fmt_one(&[0xc3]), "retq");
        // The IFCC snippet.
        assert_eq!(fmt_one(&[0x29, 0xc1]), "subl %eax, %ecx");
        assert_eq!(
            fmt_one(&[0x48, 0x81, 0xe1, 0xf8, 0x1f, 0x00, 0x00]),
            "and $0x1ff8, %rcx"
        );
        assert_eq!(fmt_one(&[0xff, 0xd1]), "callq *%rcx");
    }

    #[test]
    fn branch_targets_resolve_through_symbols() {
        let insn = crate::decode::decode_one(&[0xe8, 0x10, 0, 0, 0], 0x1000).expect("decodes");
        let with = format_insn(&insn, |a| (a == 0x1015).then(|| "strlen".to_string()));
        assert_eq!(with, "callq 0x1015 <strlen>");
        let without = format_insn(&insn, |_| None);
        assert_eq!(without, "callq 0x1015");
    }

    #[test]
    fn listing_includes_function_headers() {
        let mut asm = Assembler::new();
        let f = asm.label();
        asm.call_label(f);
        asm.ret();
        asm.align_to(32);
        asm.bind(f);
        asm.ret();
        let f_off = asm.label_offset(f).expect("bound");
        let code = asm.finish();
        let insns = decode_all(&code, 0).expect("decodes");
        let text = listing(&insns, |a| (a == f_off).then(|| "helper".to_string()));
        assert!(text.contains("<helper>:"));
        assert!(text.contains("callq"));
        assert!(text.contains("retq"));
    }

    #[test]
    fn memory_operands_render_all_shapes() {
        // disp(base,index,scale)
        let i = crate::decode::decode_one(&[0x8b, 0x44, 0x8a, 0x08], 0).expect("decodes");
        assert_eq!(format_insn(&i, |_| None), "movl 0x8(%rdx,%rcx,4), %rax");
        // absolute via SIB, no base/index
        let i = crate::decode::decode_one(&[0xff, 0x24, 0xc5, 0, 0x10, 0, 0], 0).expect("decodes");
        assert_eq!(format_insn(&i, |_| None), "jmpq *0x1000(,%rax,8)");
        // a segment override
        let i = crate::decode::decode_one(&[0x65, 0x48, 0x89, 0x02], 0).expect("decodes");
        assert_eq!(format_insn(&i, |_| None), "movq %rax, %gs:(%rdx)");
        let i = crate::decode::decode_one(&[0xc9], 0).expect("decodes");
        assert_eq!(format_insn(&i, |_| None), "leave");
    }

    #[test]
    fn every_generated_instruction_formats_nonempty() {
        let mut asm = Assembler::new();
        asm.push_reg(Reg::Rbp);
        asm.mov_rr64(Reg::Rbp, Reg::Rsp);
        asm.mov_fs_to_reg(Reg::Rax, 0x28);
        asm.mov_reg_to_rsp(Reg::Rax);
        asm.mov_ri32(Reg::Rcx, 7);
        asm.movabs(Reg::Rdx, 0x1122334455667788);
        asm.add_ri8(Reg::Rsp, 8);
        asm.nopl_rax();
        asm.pop_reg(Reg::Rbp);
        asm.ret();
        let insns = decode_all(&asm.finish(), 0).expect("decodes");
        for insn in &insns {
            let s = format_insn(insn, |_| None);
            assert!(!s.is_empty());
            assert!(!s.contains("unclassified"), "{s}");
        }
    }
}
