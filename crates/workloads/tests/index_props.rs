//! Property tests on the instruction index (`engarde_x86::index`): for
//! every byte address from 16 before a text to 16 past its end —
//! instruction starts, interior bytes and the bytes around the text —
//! `InsnIndex::get` must answer exactly what a binary search over the
//! decoded buffer answers, and no address may panic or overflow.
//!
//! Runs on the in-tree harness (`engarde_rand::harness`).

use engarde_elf::parse::ElfFile;
use engarde_rand::harness::{pick, Property};
use engarde_rand::Rng;
use engarde_workloads::generator::{generate, WorkloadSpec};
use engarde_workloads::libc::Instrumentation;
use engarde_x86::decode::{decode_all, decode_one};
use engarde_x86::index::InsnIndex;
use engarde_x86::insn::Insn;

/// The exclusive end of the bytes `insns` cover (every case here keeps
/// the byte at `u64::MAX` outside the text, so this cannot overflow).
fn text_end(insns: &[Insn]) -> u64 {
    insns.last().map_or(0, |i| i.addr + u64::from(i.len))
}

/// Compares the index with a binary search at every address from
/// `base - 16` to `end + 16` (clamped to the address space), and at the
/// extremes of the address space.
fn check_against_binary_search(insns: &[Insn]) {
    let index = InsnIndex::new(insns);
    assert_eq!(index.len(), insns.len());
    let oracle = |a: u64| insns.binary_search_by_key(&a, |i| i.addr).ok();
    let base = insns.first().map_or(0, |i| i.addr);
    let end = text_end(insns);
    let lo = base.saturating_sub(16);
    let hi = end.saturating_add(16);
    for a in (lo..=hi).chain([0, 1, u64::MAX - 1, u64::MAX]) {
        assert_eq!(index.get(a), oracle(a), "address {a:#x}");
        assert_eq!(index.contains(a), oracle(a).is_some(), "address {a:#x}");
        let inside = !insns.is_empty() && a >= base && a < end;
        assert_eq!(index.covers(a), inside, "address {a:#x}");
    }
}

/// A contiguous run of `lens.len()` instructions starting at `base`,
/// each a copy of a decoded `nop` with the given length: the index
/// reads only addresses and lengths.
fn hand_built(base: u64, lens: &[u8]) -> Vec<Insn> {
    let nop = decode_one(&[0x90], 0).expect("nop decodes");
    let mut addr = base;
    lens.iter()
        .map(|&len| {
            let insn = Insn { addr, len, ..nop };
            addr = addr.wrapping_add(u64::from(len));
            insn
        })
        .collect()
}

#[test]
fn index_matches_binary_search_on_generated_workloads() {
    let instrumentations = [
        Instrumentation::None,
        Instrumentation::StackProtector,
        Instrumentation::Ifcc,
    ];
    Property::new("index_matches_binary_search_on_generated_workloads")
        .cases(8) // generation is heavyweight
        .run(|rng| {
            let w = generate(&WorkloadSpec {
                target_instructions: rng.gen_range(6_000usize..12_000),
                instrumentation: *pick(rng, &instrumentations),
                seed: rng.gen(),
                ..WorkloadSpec::default()
            });
            let elf = ElfFile::parse(&w.image).expect("parses");
            let text = elf.exec_segment();
            let bytes = text.file_bytes(&w.image).expect("text in image");
            let insns = decode_all(bytes, text.p_vaddr).expect("decodes");
            check_against_binary_search(&insns);
        });
}

#[test]
fn index_matches_binary_search_at_the_edges_of_the_address_space() {
    Property::new("index_matches_binary_search_at_the_edges_of_the_address_space")
        .cases(32)
        .run(|rng| {
            let mut lens: Vec<u8> = (0..rng.gen_range(0usize..40))
                .map(|_| rng.gen_range(1u8..16))
                .collect();
            if rng.gen_range(0u8..2) == 0 {
                lens.push(15); // the longest encoding, last
            }
            let span: u64 = lens.iter().map(|&l| u64::from(l)).sum();
            let slack = rng.gen_range(0u64..24);
            let base = match rng.gen_range(0u8..3) {
                0 => slack,                   // near 0
                1 => u64::MAX - span - slack, // ending at or near the top
                _ => rng.gen_range(0x1000u64..0x1_0000_0000),
            };
            check_against_binary_search(&hand_built(base, &lens));
        });
}

#[test]
fn index_edge_cases() {
    // Empty text.
    check_against_binary_search(&[]);
    // One instruction, at 0 and at the very top of the address space.
    check_against_binary_search(&hand_built(0, &[1]));
    check_against_binary_search(&hand_built(u64::MAX - 1, &[1]));
    // A 15-byte instruction last, the last byte at u64::MAX - 1.
    check_against_binary_search(&hand_built(u64::MAX - 20, &[1, 4, 15]));
    // A 15-byte instruction alone, starting at 0.
    check_against_binary_search(&hand_built(0, &[15]));
    // Decoded code whose 64-bit bitmap words split instructions.
    let code: Vec<u8> = [0x48, 0xb8, 1, 2, 3, 4, 5, 6, 7, 8] // movabs $imm, %rax
        .into_iter()
        .cycle()
        .take(10 * 20)
        .chain([0xc3])
        .collect();
    check_against_binary_search(&decode_all(&code, 0x40_0003).expect("decodes"));
}
