//! Property tests for the fail-closed parsing contract.
//!
//! The parser runs *inside* the enclave over attacker-supplied bytes: a
//! panic there crashes the inspector before a verdict is signed — a
//! fail-open outcome. These properties drive the parser (and every
//! accessor that re-reads raw bytes) with random truncations and random
//! bit flips of structurally rich images; the only acceptable behaviours
//! are `Ok` or a descriptive `Err`, never a panic.

use engarde_elf::build::ElfBuilder;
use engarde_elf::parse::ElfFile;
use engarde_rand::harness::Property;
use engarde_rand::Rng;

/// A structurally rich image: text, data, bss, symbols, relocations —
/// every table the parser walks is present.
fn rich_image(text_len: usize, relocs: usize) -> Vec<u8> {
    let mut text = vec![0x90u8; text_len]; // nops
    if let Some(last) = text.last_mut() {
        *last = 0xc3; // ret
    }
    let mut b = ElfBuilder::new();
    b.text(text)
        .data(vec![0xAB; 128])
        .bss_size(64)
        .entry(0)
        .function("main", 0, text_len as u64);
    for r in 0..relocs {
        b.relative_relocation(8 * r as u64, r as i64);
    }
    b.build()
}

/// Exercises every byte-reading code path on a (possibly corrupt) image.
/// Returns normally whether parsing succeeds or fails; panics propagate.
fn poke(image: &[u8]) {
    let Ok(elf) = ElfFile::parse(image) else {
        return;
    };
    let _ = elf.require_pie();
    let _ = elf.require_static();
    let _ = elf.rela_entries(image);
    let _ = elf.exec_segment().file_bytes(image);
    let _ = elf.function_symbols().count();
    let _ = elf.wx_segments().count();
}

#[test]
fn random_truncations_fail_closed_without_panicking() {
    Property::new("random_truncations_fail_closed")
        .cases(192)
        .run(|rng| {
            let text_len = rng.gen_range(1usize..512);
            let relocs = rng.gen_range(0usize..12);
            let img = rich_image(text_len, relocs);
            let len = rng.gen_range(0usize..img.len());
            let truncated = &img[..len];
            // Any truncation removes part of the section-header table or
            // the section contents it points to, so parsing must reject.
            assert!(
                ElfFile::parse(truncated).is_err(),
                "truncation to {len}/{} bytes must be rejected",
                img.len()
            );
            poke(truncated);
        });
}

#[test]
fn random_byte_flips_never_panic() {
    Property::new("random_byte_flips_never_panic")
        .cases(192)
        .run(|rng| {
            let mut img = rich_image(rng.gen_range(1usize..256), rng.gen_range(0usize..8));
            // Corrupt up to 8 positions anywhere in the image, header
            // included — offsets, sizes, counts, tags are all fair game.
            for _ in 0..rng.gen_range(1usize..8) {
                let pos = rng.gen_range(0usize..img.len());
                img[pos] = rng.gen();
            }
            poke(&img);
        });
}

#[test]
fn random_garbage_never_panics() {
    Property::new("random_garbage_never_panics")
        .cases(256)
        .run(|rng| {
            let len = rng.gen_range(0usize..4096);
            let garbage: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            poke(&garbage);
            // Garbage wearing a valid 4-byte magic still may not panic.
            let mut magicked = garbage;
            if magicked.len() >= 4 {
                magicked[..4].copy_from_slice(b"\x7fELF");
            }
            poke(&magicked);
        });
}
