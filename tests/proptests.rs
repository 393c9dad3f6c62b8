//! Property-based tests on the stack's core data structures and
//! invariants, running on the in-tree harness
//! (`engarde::rand::harness`) — seeded case generation with
//! regression-seed replay, no external dependencies.
//!
//! When a property fails, the harness prints the failing case seed;
//! pin it by appending to that property's `.regressions(&[…])` list.

use engarde::crypto::aes::{ctr_xor, AesKey};
use engarde::crypto::bignum::BigUint;
use engarde::crypto::channel::{ChannelClient, ChannelServer};
use engarde::crypto::hmac::hmac_sha256;
use engarde::crypto::rsa::RsaKeyPair;
use engarde::crypto::sha256::Sha256;
use engarde::elf::build::ElfBuilder;
use engarde::elf::parse::ElfFile;
use engarde::rand::harness::{vec_u8, Property};
use engarde::rand::{Rng, SeedableRng, StdRng};
use engarde::sgx::epc::{Epc, EpcmEntry, PagePerms, PageType, PAGE_SIZE};
use engarde::sgx::instr::SgxVersion;
use engarde::sgx::machine::{MachineConfig, SgxMachine};
use engarde::x86::decode::{decode_all, decode_one};
use engarde::x86::encode::Assembler;
use engarde::x86::reg::Reg;

// ---- bignum ------------------------------------------------------

#[test]
fn bignum_add_sub_round_trip() {
    Property::new("bignum_add_sub_round_trip").run(|rng| {
        let a = vec_u8(rng, 0..40);
        let b = vec_u8(rng, 0..40);
        let x = BigUint::from_bytes_be(&a);
        let y = BigUint::from_bytes_be(&b);
        let sum = x.add(&y);
        assert_eq!(sum.sub(&y), x.clone());
        assert_eq!(sum.sub(&x), y);
    });
}

#[test]
fn bignum_divrem_reconstructs() {
    Property::new("bignum_divrem_reconstructs").run(|rng| {
        let a = vec_u8(rng, 0..48);
        let b = vec_u8(rng, 1..32);
        let x = BigUint::from_bytes_be(&a);
        let y = BigUint::from_bytes_be(&b);
        if y.is_zero() {
            return; // divisor bytes were all zero: skip, like prop_assume!
        }
        let (q, r) = x.divrem(&y);
        assert!(r < y);
        assert_eq!(q.mul(&y).add(&r), x);
    });
}

#[test]
fn bignum_mul_commutative_and_distributive() {
    Property::new("bignum_mul_commutative_and_distributive").run(|rng| {
        let x = BigUint::from_bytes_be(&vec_u8(rng, 0..24));
        let y = BigUint::from_bytes_be(&vec_u8(rng, 0..24));
        let z = BigUint::from_bytes_be(&vec_u8(rng, 0..24));
        assert_eq!(x.mul(&y), y.mul(&x));
        assert_eq!(x.mul(&y.add(&z)), x.mul(&y).add(&x.mul(&z)));
    });
}

#[test]
fn bignum_byte_round_trip() {
    Property::new("bignum_byte_round_trip").run(|rng| {
        let a = vec_u8(rng, 0..64);
        let x = BigUint::from_bytes_be(&a);
        let bytes = x.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), x);
        // Canonical form: no leading zero.
        if let Some(&first) = bytes.first() {
            assert_ne!(first, 0);
        }
    });
}

#[test]
fn bignum_shifts_are_mul_div_by_powers() {
    Property::new("bignum_shifts_are_mul_div_by_powers").run(|rng| {
        let a = vec_u8(rng, 0..32);
        let s = rng.gen_range(0usize..100);
        let x = BigUint::from_bytes_be(&a);
        let two_s = BigUint::one().shl(s);
        assert_eq!(x.shl(s), x.mul(&two_s));
        assert_eq!(x.shl(s).shr(s), x);
    });
}

/// `base^exp mod m` by right-to-left square-and-multiply over the public
/// `mul`/`rem`/`bit` operations, the reference `modpow` must match.
fn modpow_reference(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let mut result = BigUint::one().rem(m);
    let mut square = base.rem(m);
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            result = result.mul(&square).rem(m);
        }
        square = square.mul(&square).rem(m);
    }
    result
}

#[test]
fn bignum_modpow_matches_square_and_multiply() {
    Property::new("bignum_modpow_matches_square_and_multiply").run(|rng| {
        let one = BigUint::one();
        // A modulus of 1–20 limbs: odd (Montgomery), even (fallback) or 1.
        // Half fill the top limb, where the Montgomery accumulator
        // carries past n limbs; 2^(64n) - 1 is the extreme.
        let limbs = rng.gen_range(1usize..21);
        let spare = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(0usize..64)
        };
        let m = BigUint::random_with_bits(rng, 64 * limbs - spare);
        let m = match rng.gen_range(0u8..9) {
            0 => one.clone(),
            8 => one.shl(64 * limbs).sub(&one),
            1..=4 if m.is_even() => m.add(&one),
            5..=7 if !m.is_even() => m.add(&one),
            _ => m,
        };
        // Base 0, below m, or at least m; exponents wide enough to reach
        // every window width, plus exponent 0.
        let base = match rng.gen_range(0u8..6) {
            0 => BigUint::zero(),
            1 => m.clone(),
            2 => m
                .mul(&BigUint::from_u64(rng.gen()))
                .add(&BigUint::from_u64(rng.gen())),
            _ => BigUint::random_below(rng, &m),
        };
        let exp_bits = rng.gen_range(0usize..800);
        let exp = if exp_bits == 0 || rng.gen_range(0u8..16) == 0 {
            BigUint::zero()
        } else {
            BigUint::random_with_bits(rng, exp_bits)
        };
        assert_eq!(
            base.modpow(&exp, &m),
            modpow_reference(&base, &exp, &m),
            "{base:?}^{exp:?} mod {m:?}"
        );
    });
}

// ---- symmetric crypto -------------------------------------------------

#[test]
fn aes_ctr_is_involutive() {
    Property::new("aes_ctr_is_involutive").run(|rng| {
        let key_bytes: [u8; 32] = rng.gen();
        let nonce: [u8; 16] = rng.gen();
        let counter: u64 = rng.gen();
        let mut data = vec_u8(rng, 0..512);
        let original = data.clone();
        let key = AesKey::new_256(&key_bytes);
        ctr_xor(&key, &nonce, counter, &mut data);
        ctr_xor(&key, &nonce, counter, &mut data);
        assert_eq!(data, original);
    });
}

#[test]
fn aes_block_decrypt_inverts_encrypt() {
    Property::new("aes_block_decrypt_inverts_encrypt").run(|rng| {
        let key_bytes: [u8; 32] = rng.gen();
        let block: [u8; 16] = rng.gen();
        let key = AesKey::new_256(&key_bytes);
        let mut b = block;
        key.encrypt_block(&mut b);
        key.decrypt_block(&mut b);
        assert_eq!(b, block);
    });
}

// ---- EPC memory encryption -------------------------------------------

/// A byte range inside one page, biased toward short, unaligned spans
/// (the relocation-sized writes) while still covering whole-page ones.
fn page_range<R: Rng + ?Sized>(rng: &mut R) -> (usize, usize) {
    let offset = rng.gen_range(0..=PAGE_SIZE);
    let room = PAGE_SIZE - offset;
    let len = if rng.gen_bool(0.5) {
        rng.gen_range(0..=room.min(40))
    } else {
        rng.gen_range(0..=room)
    };
    (offset, len)
}

#[test]
fn epc_ciphertext_is_page_ctr_under_the_mee_key() {
    // Oracle: after any sequence of ranged writes, the stored page is
    // exactly AES-256-CTR(mee_key, nonce = idx‖0, counter 0) of the
    // plaintext model, and every ranged read is a slice of that model.
    Property::new("epc_ciphertext_is_page_ctr_under_the_mee_key").run(|rng| {
        let mee_key: [u8; 32] = rng.gen();
        let oracle = AesKey::new_256(&mee_key);
        let mut epc = Epc::new(8, mee_key);
        let entry = EpcmEntry {
            valid: true,
            page_type: PageType::Reg,
            enclave_id: 1,
            vaddr: 0,
            perms: PagePerms::RW,
            perms_locked: false,
        };
        // Burn a random number of slots so the page index (the nonce)
        // varies across cases.
        for _ in 0..rng.gen_range(0..8usize) {
            epc.alloc(entry, &[]).expect("filler page");
        }
        let init = vec_u8(rng, 0..PAGE_SIZE + 1);
        let idx = epc.alloc(entry, &init).expect("page under test");
        let mut model = [0u8; PAGE_SIZE];
        model[..init.len()].copy_from_slice(&init);
        let mut nonce = [0u8; 16];
        nonce[0..8].copy_from_slice(&(idx as u64).to_be_bytes());
        for _ in 0..rng.gen_range(1..24usize) {
            let (offset, len) = page_range(rng);
            let data = vec_u8(rng, len..len + 1);
            epc.write_plaintext(idx, offset, &data)
                .expect("in-page write");
            model[offset..offset + len].copy_from_slice(&data);

            let mut expected = model;
            ctr_xor(&oracle, &nonce, 0, &mut expected);
            assert_eq!(
                epc.read_ciphertext(idx).expect("ciphertext"),
                expected,
                "write [{offset}, +{len})"
            );

            let (offset, len) = page_range(rng);
            let mut out = vec![0u8; len];
            epc.read_plaintext_at(idx, offset, &mut out)
                .expect("in-page read");
            assert_eq!(out, &model[offset..offset + len], "read [{offset}, +{len})");
        }
        assert_eq!(epc.read_plaintext(idx).expect("page"), model);
    });
}

#[test]
fn enclave_access_across_a_page_boundary() {
    let mut m = SgxMachine::new(MachineConfig {
        epc_pages: 16,
        version: SgxVersion::V2,
        device_key_bits: 512,
        seed: 0xb0da,
    });
    let base = 0x100000;
    let page = PAGE_SIZE as u64;
    let id = m.ecreate(base, 2 * page).expect("ecreate");
    for vaddr in [base, base + page] {
        m.eadd(id, vaddr, &[0x5a; PAGE_SIZE], PagePerms::RW)
            .expect("eadd");
        m.eextend(id, vaddr).expect("eextend");
    }
    m.einit(id).expect("einit");

    let data: Vec<u8> = (0..=40u8).collect();
    let at = base + page - 13;
    m.enclave_write(id, at, &data).expect("straddling write");
    assert_eq!(m.enclave_read(id, at, data.len()).expect("read"), data);
    let whole = m.enclave_read(id, base, 2 * PAGE_SIZE).expect("both pages");
    let split = PAGE_SIZE - 13;
    assert!(whole[..split].iter().all(|&b| b == 0x5a));
    assert_eq!(&whole[split..split + data.len()], &data[..]);
    assert!(whole[split + data.len()..].iter().all(|&b| b == 0x5a));
    // One byte short of the window on either side is unmapped.
    assert!(m.enclave_read(id, base - 1, 2).is_err());
    assert!(m.enclave_write(id, base + 2 * page - 1, &[0, 0]).is_err());
}

#[test]
fn sha256_incremental_equals_oneshot() {
    Property::new("sha256_incremental_equals_oneshot").run(|rng| {
        let data = vec_u8(rng, 0..1024);
        let split = rng.gen_range(0usize..1024).min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    });
}

#[test]
fn hmac_is_key_and_message_sensitive() {
    Property::new("hmac_is_key_and_message_sensitive").run(|rng| {
        let key = vec_u8(rng, 1..64);
        let msg = vec_u8(rng, 0..256);
        let tag = hmac_sha256(&key, &msg);
        let mut key2 = key.clone();
        key2[0] ^= 1;
        assert_ne!(hmac_sha256(&key2, &msg), tag);
        let mut msg2 = msg.clone();
        msg2.push(0);
        assert_ne!(hmac_sha256(&key, &msg2), tag);
    });
}

// ---- channel -------------------------------------------------------------

#[test]
fn channel_round_trips_arbitrary_payload_sequences() {
    // RSA keygen dominates each case; keep the batch small.
    Property::new("channel_round_trips_arbitrary_payload_sequences")
        .cases(8)
        .run(|rng| {
            let kp = RsaKeyPair::generate(rng, 512);
            let server = ChannelServer::new(kp);
            let (wrapped, mut client) =
                ChannelClient::establish(rng, server.public_key()).expect("establish");
            let mut session = server.accept(&wrapped).expect("accept");
            let payload_count = rng.gen_range(1usize..8);
            for _ in 0..payload_count {
                let p = vec_u8(rng, 0..200);
                let block = client.seal(&p);
                assert_eq!(session.open(&block).expect("opens"), p);
            }
        });
}

// ---- provisioning protocol frames ----------------------------------------

#[test]
fn manifest_parser_never_panics_on_arbitrary_bytes() {
    use engarde::protocol::ContentManifest;
    Property::new("manifest_parser_never_panics_on_arbitrary_bytes")
        .cases(512)
        .run(|rng| {
            let bytes = vec_u8(rng, 0..256);
            let _ = ContentManifest::from_bytes(&bytes); // must never panic
        });
}

#[test]
fn manifest_round_trips_and_corruption_fails_closed() {
    use engarde::protocol::{ContentManifest, PageKind};
    Property::new("manifest_round_trips_and_corruption_fails_closed").run(|rng| {
        // A consistent manifest: page count matching total_len.
        let pages = rng.gen_range(1usize..64);
        let last_page_bytes = rng.gen_range(1usize..=4096);
        let total_len = (pages - 1) * 4096 + last_page_bytes;
        let page_kinds: Vec<PageKind> = (0..pages)
            .map(|_| {
                if rng.gen_range(0u8..2) == 1 {
                    PageKind::Code
                } else {
                    PageKind::Data
                }
            })
            .collect();
        let m = ContentManifest {
            total_len,
            page_kinds,
        };
        let bytes = m.to_bytes();
        assert_eq!(ContentManifest::from_bytes(&bytes).expect("round trip"), m);
        // Any single-byte corruption must parse to a *different but
        // consistent* manifest or fail — never panic, never alias the
        // original.
        let mut corrupted = bytes.clone();
        let at = rng.gen_range(0usize..corrupted.len());
        let flip: u8 = rng.gen::<u8>() | 1;
        corrupted[at] ^= flip;
        if let Ok(parsed) = ContentManifest::from_bytes(&corrupted) {
            assert_ne!(parsed, m, "corruption at byte {at} went unnoticed");
            assert_eq!(parsed.page_count(), parsed.total_len.div_ceil(4096));
        }
    });
}

#[test]
fn page_payload_parser_never_panics_on_arbitrary_bytes() {
    use engarde::protocol::PagePayload;
    Property::new("page_payload_parser_never_panics_on_arbitrary_bytes")
        .cases(512)
        .run(|rng| {
            let bytes = vec_u8(rng, 0..5000);
            if let Ok(p) = PagePayload::from_bytes(&bytes) {
                // Accepted payloads always satisfy the size invariant.
                assert!(!p.data.is_empty() && p.data.len() <= 4096);
            }
        });
}

#[test]
fn page_payload_round_trips() {
    use engarde::protocol::PagePayload;
    Property::new("page_payload_round_trips").run(|rng| {
        let p = PagePayload {
            index: rng.gen_range(0usize..100_000),
            data: vec_u8(rng, 1..4097),
        };
        assert_eq!(
            PagePayload::from_bytes(&p.to_bytes()).expect("round trip"),
            p
        );
        // Oversized and empty payloads are refused symmetrically.
        let oversized = PagePayload {
            index: 0,
            data: vec![0xAB; 4097],
        };
        assert!(PagePayload::from_bytes(&oversized.to_bytes()).is_err());
    });
}

// ---- ELF ------------------------------------------------------------------

#[test]
fn elf_round_trips_arbitrary_sections() {
    Property::new("elf_round_trips_arbitrary_sections").run(|rng| {
        let text = vec_u8(rng, 0..4096);
        let data = vec_u8(rng, 0..2048);
        let bss = rng.gen_range(0u64..10_000);
        let image = ElfBuilder::new()
            .text(text.clone())
            .data(data.clone())
            .bss_size(bss)
            .build();
        let elf = ElfFile::parse(&image).expect("generated ELF parses");
        assert_eq!(&elf.section(".text").expect(".text").data, &text);
        assert_eq!(&elf.section(".data").expect(".data").data, &data);
        assert_eq!(elf.section(".bss").expect(".bss").header.sh_size, bss);
        assert!(elf.require_pie().is_ok());
        assert!(elf.require_static().is_ok());
    });
}

#[test]
fn elf_parser_never_panics_on_garbage() {
    Property::new("elf_parser_never_panics_on_garbage")
        .cases(256)
        .run(|rng| {
            let bytes = vec_u8(rng, 0..512);
            let _ = ElfFile::parse(&bytes); // must never panic
        });
}

#[test]
fn elf_parser_never_panics_on_corrupted_valid_images() {
    Property::new("elf_parser_never_panics_on_corrupted_valid_images")
        .cases(256)
        .run(|rng| {
            let mut image = ElfBuilder::new()
                .text(vec![0x90; 64])
                .data(vec![1, 2, 3])
                .function("f", 0, 64)
                .relative_relocation(0, 8)
                .build();
            let at = rng.gen_range(0usize..2048) % image.len();
            let flip_with: u8 = rng.gen();
            image[at] ^= flip_with | 1;
            if let Ok(elf) = ElfFile::parse(&image) {
                let _ = elf.rela_entries(); // must never panic either
            }
        });
}

// ---- x86 -------------------------------------------------------------------

#[test]
fn decoder_never_panics() {
    Property::new("decoder_never_panics").cases(512).run(|rng| {
        let bytes = vec_u8(rng, 0..32);
        let _ = decode_one(&bytes, 0x1000); // must never panic
    });
}

#[test]
fn decoder_length_accounting_is_exact() {
    Property::new("decoder_length_accounting_is_exact")
        .cases(512)
        .run(|rng| {
            let bytes = vec_u8(rng, 1..20);
            if let Ok(insn) = decode_one(&bytes, 0) {
                assert!(insn.len as usize <= bytes.len());
                assert_eq!(
                    insn.prefix_len
                        + insn.opcode_len
                        + insn.modrm_len
                        + insn.disp_len
                        + insn.imm_len,
                    insn.len
                );
                assert!(insn.len >= 1);
            }
        });
}

#[test]
fn assembler_output_always_decodes() {
    Property::new("assembler_output_always_decodes").run(|rng| {
        let scratch = [
            Reg::Rax,
            Reg::Rcx,
            Reg::Rdx,
            Reg::Rbx,
            Reg::Rsi,
            Reg::Rdi,
            Reg::R8,
            Reg::R9,
        ];
        let op_count = rng.gen_range(1usize..64);
        let regs: Vec<usize> = (0..64).map(|_| rng.gen_range(0usize..8)).collect();
        let mut asm = Assembler::new();
        for i in 0..op_count {
            let a = scratch[regs[i % regs.len()]];
            let b = scratch[regs[(i + 1) % regs.len()]];
            match rng.gen_range(0u8..12) {
                0 => asm.mov_rr64(a, b),
                1 => asm.add_rr64(a, b),
                2 => asm.sub_rr64(a, b),
                3 => asm.xor_rr32(a, b),
                4 => asm.cmp_rr64(a, b),
                5 => asm.mov_ri32(a, 0xdead),
                6 => asm.movabs(a, 0x1122334455667788),
                7 => asm.push_reg(a),
                8 => asm.pop_reg(a),
                9 => asm.nop(),
                10 => asm.mov_fs_to_reg(a, 0x28),
                _ => asm.add_ri8(a, 5),
            }
        }
        asm.ret();
        let expected = asm.insn_count();
        let code = asm.finish();
        let insns = decode_all(&code, 0).expect("assembled code decodes");
        assert_eq!(insns.len() as u64, expected);
    });
}

#[test]
fn rsa_round_trip_nonproptest() {
    // RSA keygen is too slow to run under many property cases; one
    // deterministic round here.
    let mut rng = StdRng::seed_from_u64(0xAAA);
    let kp = RsaKeyPair::generate(&mut rng, 512);
    for msg in [&b""[..], b"x", &[0u8; 53]] {
        let ct = kp.public().encrypt(&mut rng, msg).expect("encrypt");
        assert_eq!(kp.decrypt(&ct).expect("decrypt"), msg);
    }
}
