//! Known-answer tests for the AES block cipher and CTR mode, through the
//! public `engarde::crypto::aes` API: FIPS 197 Appendix C.1 (AES-128) and
//! C.3 (AES-256) single blocks, and the full four-block NIST SP 800-38A
//! F.5.1 (CTR-AES128) and F.5.5 (CTR-AES256) encryptions.

use engarde::crypto::aes::{ctr_xor, AesKey};

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn block(s: &str) -> [u8; 16] {
    hex(s).try_into().expect("16-byte block")
}

fn check_block(key: &AesKey, plain: &str, cipher: &str) {
    let mut b = block(plain);
    key.encrypt_block(&mut b);
    assert_eq!(b, block(cipher), "encrypt");
    key.decrypt_block(&mut b);
    assert_eq!(b, block(plain), "decrypt");
}

#[test]
fn fips197_c1_aes128() {
    let key = AesKey::new_128(&hex("000102030405060708090a0b0c0d0e0f"));
    check_block(
        &key,
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    );
}

#[test]
fn fips197_c3_aes256() {
    let key = AesKey::new_256(&hex(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
    ));
    check_block(
        &key,
        "00112233445566778899aabbccddeeff",
        "8ea2b7ca516745bfeafc49904b496089",
    );
}

/// The SP 800-38A F.5 plaintext: four blocks shared by every CTR vector.
const SP800_38A_PLAINTEXT: &str = concat!(
    "6bc1bee22e409f96e93d7e117393172a",
    "ae2d8a571e03ac9c9eb76fac45af8e51",
    "30c81c46a35ce411e5fbc1191a0a52ef",
    "f69f2445df4f9b17ad2b417be66c3710",
);

/// The SP 800-38A F.5 initial counter block. Block 2's counter carries
/// out of the low byte (`…feff` → `…ff00`).
const SP800_38A_COUNTER: &str = "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff";

fn check_ctr(key: &AesKey, ciphertext: &str) {
    let nonce = block(SP800_38A_COUNTER);
    let mut data = hex(SP800_38A_PLAINTEXT);
    ctr_xor(key, &nonce, 0, &mut data);
    assert_eq!(data, hex(ciphertext), "one call over all four blocks");
    // Block by block, seeking the counter: the same keystream.
    let mut data = hex(SP800_38A_PLAINTEXT);
    for (i, chunk) in data.chunks_mut(16).enumerate() {
        ctr_xor(key, &nonce, i as u64, chunk);
    }
    assert_eq!(data, hex(ciphertext), "block-wise with seeked counter");
    ctr_xor(key, &nonce, 0, &mut data);
    assert_eq!(data, hex(SP800_38A_PLAINTEXT), "decrypt");
}

#[test]
fn sp800_38a_f51_ctr_aes128() {
    let key = AesKey::new_128(&hex("2b7e151628aed2a6abf7158809cf4f3c"));
    check_ctr(
        &key,
        concat!(
            "874d6191b620e3261bef6864990db6ce",
            "9806f66b7970fdff8617187bb9fffdff",
            "5ae4df3edbd5d35e5b4f09020db03eab",
            "1e031dda2fbe03d1792170a0f3009cee",
        ),
    );
}

#[test]
fn sp800_38a_f55_ctr_aes256() {
    let key = AesKey::new_256(&hex(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
    ));
    check_ctr(
        &key,
        concat!(
            "601ec313775789a5b7a7f504bbf3d228",
            "f443e3ca4d62b59aca84e990cacaf5c5",
            "2b0930daa23de94ce87017ba2d84988d",
            "dfc9c58db67aada613c2dd08457941a6",
        ),
    );
}
