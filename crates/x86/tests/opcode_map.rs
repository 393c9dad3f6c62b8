//! Exhaustive sweep of the one-byte opcode map: every byte value either
//! decodes to a classified instruction or is rejected with a precise
//! error — never a panic, never a silent skip. This pins the decoder's
//! supported repertoire so accidental regressions show up as diffs here.

use engarde_x86::decode::decode_one;
use engarde_x86::insn::{InsnKind, MemOperand};
use engarde_x86::reg::Reg;
use engarde_x86::DisasmError;

/// Feeds `op` followed by enough operand bytes for any encoding.
fn probe(prefix: &[u8], op: u8) -> Result<engarde_x86::insn::Insn, DisasmError> {
    let mut bytes = prefix.to_vec();
    bytes.push(op);
    // Generous operand tail: ModRM (register-direct), SIB, disp32, imm64.
    bytes.extend_from_slice(&[0xc0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    decode_one(&bytes, 0x1000)
}

#[test]
fn every_one_byte_opcode_decodes_or_rejects_cleanly() {
    let mut decoded = 0usize;
    let mut rejected = 0usize;
    for op in 0u16..=0xff {
        let op = op as u8;
        if op == 0x0f {
            continue; // two-byte escape, swept separately
        }
        match probe(&[], op) {
            Ok(insn) => {
                decoded += 1;
                assert!(insn.len >= 1);
            }
            Err(DisasmError::UnknownOpcode { opcode, .. }) => {
                rejected += 1;
                assert_eq!(opcode, op as u16);
            }
            Err(DisasmError::UnsupportedAddressSize { .. }) => {
                assert_eq!(op, 0x67);
                rejected += 1;
            }
            Err(e) => panic!("opcode {op:#x}: unexpected error {e}"),
        }
    }
    // The supported repertoire is stable: a meaningful majority of the
    // map decodes (ALU families, movs, stack ops, branches, …).
    assert!(decoded >= 140, "decoded {decoded} one-byte opcodes");
    assert!(rejected >= 30, "rejected {rejected} one-byte opcodes");
}

#[test]
fn every_two_byte_opcode_decodes_or_rejects_cleanly() {
    let mut decoded = 0usize;
    for op2 in 0u16..=0xff {
        match probe(&[0x0f], op2 as u8) {
            Ok(_) => decoded += 1,
            Err(DisasmError::UnknownOpcode { opcode, .. }) => {
                assert_eq!(opcode, 0x0f00 | op2);
            }
            Err(e) => panic!("0f {op2:#x}: unexpected error {e}"),
        }
    }
    // jcc (16) + setcc (16) + cmov (16) + nop + movzx/movsx (4) +
    // syscall/ud2/rdtsc/cpuid/imul …
    assert!(decoded >= 55, "decoded {decoded} two-byte opcodes");
}

#[test]
fn rex_prefixes_compose_with_the_whole_map() {
    // Every REX value before a known opcode still decodes.
    for rex in 0x40u8..=0x4f {
        let insn = probe(&[rex], 0x89).expect("REX + mov decodes");
        assert_eq!(insn.prefix_len, 1);
        assert!(matches!(insn.kind, InsnKind::MovRegToReg { .. }));
    }
}

#[test]
fn classified_kinds_cover_the_policy_surface() {
    // The kinds the three policies rely on are all reachable from the
    // byte level (regression canary for classification).
    type KindCheck = fn(&InsnKind) -> bool;
    let cases: Vec<(Vec<u8>, KindCheck)> = vec![
        (vec![0xe8, 0, 0, 0, 0], |k| {
            matches!(k, InsnKind::DirectCall { .. })
        }),
        (vec![0xff, 0xd1], |k| {
            matches!(k, InsnKind::IndirectCallReg { .. })
        }),
        (vec![0x64, 0x48, 0x8b, 0x04, 0x25, 0x28, 0, 0, 0], |k| {
            matches!(
                k,
                InsnKind::MovFsToReg {
                    fs_offset: 0x28,
                    ..
                }
            )
        }),
        (vec![0x48, 0x8d, 0x05, 0, 0, 0, 0], |k| {
            matches!(k, InsnKind::LeaRipRel { .. })
        }),
        (vec![0x48, 0x3b, 0x04, 0x24], |k| {
            matches!(k, InsnKind::AluMemReg { .. })
        }),
        (vec![0x0f, 0x85, 0, 0, 0, 0], |k| {
            matches!(k, InsnKind::CondJmp { .. })
        }),
        (vec![0x0f, 0x1f, 0x00], |k| matches!(k, InsnKind::Nop)),
    ];
    for (bytes, check) in cases {
        let insn = decode_one(&bytes, 0).expect("decodes");
        assert!(
            check(&insn.kind),
            "{bytes:x?} classified as {:?}",
            insn.kind
        );
    }
}

#[test]
fn decode_is_deterministic_and_length_stable() {
    // Same bytes at different addresses: identical length metadata,
    // branch targets shift with the base.
    let bytes = [0xe8, 0x10, 0x00, 0x00, 0x00];
    let a = decode_one(&bytes, 0x1000).expect("decodes");
    let b = decode_one(&bytes, 0x9000).expect("decodes");
    assert_eq!(a.len, b.len);
    assert_eq!(
        a.kind.branch_target().expect("target") + 0x8000,
        b.kind.branch_target().expect("target")
    );
}

#[test]
fn every_memory_form_reports_its_operand() {
    // ModRM `01 rrr 011` + disp8 0x10 names 0x10(%rbx) with every reg
    // field; the tail covers any immediate.
    let want = Some(MemOperand::base_disp(Reg::Rbx, 0x10));
    let prefix_or_escape = |op: u8| matches!(op, 0x0f | 0x26 | 0x2e | 0x36 | 0x3e | 0x40..=0x4f | 0x64..=0x67 | 0xf0 | 0xf2 | 0xf3);
    let mut checked = 0usize;
    for rex in [&[][..], &[0x48]] {
        for escape in [&[][..], &[0x0f]] {
            for op in (0u8..=0xff).filter(|&op| !escape.is_empty() || !prefix_or_escape(op)) {
                for reg in 0..8u8 {
                    let mut bytes = [rex, escape, &[op, 0x43 | reg << 3, 0x10]].concat();
                    bytes.extend([0; 8]);
                    let Ok(insn) = decode_one(&bytes, 0x1000) else {
                        continue;
                    };
                    // Far transfers (`ff /3`, `/5`) are privileged: the
                    // validator rejects them whatever they access.
                    if insn.modrm_len == 0 || insn.kind == InsnKind::Privileged {
                        continue;
                    }
                    checked += 1;
                    let e = insn.kind.effects();
                    let accesses = e.load() || e.store();
                    match insn.kind {
                        // An address computed, never accessed.
                        InsnKind::Lea { .. } => assert!(e.mem == want && !accesses, "{bytes:x?}"),
                        InsnKind::Nop => assert!(!accesses, "{bytes:x?}"),
                        k => assert!(e.mem == want && accesses, "{bytes:x?}: {k:?} {e:?}"),
                    }
                }
            }
        }
    }
    assert_eq!(checked, 1518, "memory forms decoded");
}

#[test]
fn no_rex_less_byte_operand_names_rsp_through_rdi() {
    // Without REX, 8-bit register 4–7 is %ah–%bh: bits of %rax–%rbx.
    let legacy = |regs: engarde_x86::reg::RegSet| regs.iter().all(|r| (r as u8) < 4);
    let mut checked = 0usize;
    let mut check = |bytes: &[u8], source_only: bool| {
        let Ok(insn) = decode_one(&[bytes, &[0; 4]].concat(), 0x1000) else {
            return;
        };
        let e = insn.kind.effects();
        assert!(legacy(e.reads), "{bytes:x?} reads {:?}", e.reads);
        assert!(
            source_only || legacy(e.writes),
            "{bytes:x?} writes {:?}",
            e.writes
        );
        checked += 1;
    };
    // Every register operand 8-bit: ALU r/m8 forms, group 1/2/3,
    // test, xchg, mov, inc/dec, setcc.
    let byte_ops = (0u8..0x40)
        .filter(|op| op & 7 == 0 || op & 7 == 2)
        .map(|op| vec![op])
        .chain(
            [
                0x80, 0x84, 0x86, 0x88, 0x8a, 0xc0, 0xc6, 0xd0, 0xd2, 0xf6, 0xfe,
            ]
            .map(|op| vec![op]),
        )
        .chain((0x90..=0x9f).map(|op| vec![0x0f, op]));
    for op in byte_ops {
        for modrm in 0xc0..=0xffu8 {
            check(&[&op[..], &[modrm]].concat(), false);
        }
    }
    for op in 0xb0..=0xb7u8 {
        check(&[op, 0x5a], false); // mov $imm8, %r8
    }
    // movzx / movsx: only the source is 8-bit.
    for op in [0xb6u8, 0xbe] {
        for modrm in 0xc0..=0xffu8 {
            check(&[0x0f, op, modrm], true);
        }
    }
    assert_eq!(checked, 2832, "register forms decoded");
}
