//! AES-128/256 block cipher (FIPS 197) with CTR mode.
//!
//! The paper's provisioning protocol wraps a 256-bit AES key under the
//! enclave's RSA public key and then streams the client binary in
//! AES-encrypted blocks; [`crate::channel`] builds that protocol on top of
//! this module's [`AesKey`] + [`ctr_xor`].
//!
//! # Examples
//!
//! ```
//! use engarde_crypto::aes::{AesKey, ctr_xor};
//!
//! let key = AesKey::new_256(&[0u8; 32]);
//! let nonce = [0u8; 16];
//! let mut data = b"attack at dawn".to_vec();
//! ctr_xor(&key, &nonce, 0, &mut data);   // encrypt
//! ctr_xor(&key, &nonce, 0, &mut data);   // decrypt (CTR is an involution)
//! assert_eq!(&data, b"attack at dawn");
//! ```

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse AES S-box.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const RCON: [u8; 11] = [
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
];

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

fn gmul(a: u8, b: u8) -> u8 {
    let mut a = a;
    let mut b = b;
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Forward round tables: `TE[r][x]` is the MixColumns column that S-box
/// output `SBOX[x]` contributes from state row `r`, packed big-endian
/// (row 0 in the high byte). One round of SubBytes + ShiftRows +
/// MixColumns is then four lookups and four XORs per column.
const TE: [[u32; 256]; 4] = {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let col = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        let mut r = 0;
        while r < 4 {
            te[r][x] = col.rotate_right(8 * r as u32);
            r += 1;
        }
        x += 1;
    }
    te
};

/// Key size / variant selector for [`AesKey`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AesVariant {
    /// AES-128: 16-byte key, 10 rounds.
    Aes128,
    /// AES-256: 32-byte key, 14 rounds.
    Aes256,
}

impl AesVariant {
    fn rounds(self) -> usize {
        match self {
            AesVariant::Aes128 => 10,
            AesVariant::Aes256 => 14,
        }
    }

    fn key_words(self) -> usize {
        match self {
            AesVariant::Aes128 => 4,
            AesVariant::Aes256 => 8,
        }
    }
}

/// An expanded AES key schedule.
#[derive(Clone)]
pub struct AesKey {
    round_keys: Vec<[u8; 16]>,
    variant: AesVariant,
}

impl std::fmt::Debug for AesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "AesKey({:?})", self.variant)
    }
}

impl AesKey {
    /// Expands a 16-byte AES-128 key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not 16 bytes.
    pub fn new_128(key: &[u8]) -> Self {
        assert_eq!(key.len(), 16, "AES-128 key must be 16 bytes");
        Self::expand(key, AesVariant::Aes128)
    }

    /// Expands a 32-byte AES-256 key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not 32 bytes.
    pub fn new_256(key: &[u8]) -> Self {
        assert_eq!(key.len(), 32, "AES-256 key must be 32 bytes");
        Self::expand(key, AesVariant::Aes256)
    }

    /// The variant of this key.
    pub fn variant(&self) -> AesVariant {
        self.variant
    }

    fn expand(key: &[u8], variant: AesVariant) -> Self {
        let nk = variant.key_words();
        let nr = variant.rounds();
        let total_words = 4 * (nr + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        for i in 0..nk {
            w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk];
            } else if nk > 6 && i % nk == 4 {
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
            }
            let prev = w[i - nk];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }
        let mut round_keys = Vec::with_capacity(nr + 1);
        for r in 0..=nr {
            let mut rk = [0u8; 16];
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
            round_keys.push(rk);
        }
        AesKey {
            round_keys,
            variant,
        }
    }

    /// Encrypts a single 16-byte block in place.
    ///
    /// The state is held as four big-endian column words; each inner
    /// round is one `TE` lookup per state byte, and the final round
    /// (no MixColumns) is the plain S-box with ShiftRows.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.variant.rounds();
        let mut s = columns(block);
        xor_round_key(&mut s, &self.round_keys[0]);
        for rk in &self.round_keys[1..nr] {
            let b = s.map(u32::to_be_bytes);
            for (c, col) in s.iter_mut().enumerate() {
                *col = TE[0][b[c][0] as usize]
                    ^ TE[1][b[(c + 1) % 4][1] as usize]
                    ^ TE[2][b[(c + 2) % 4][2] as usize]
                    ^ TE[3][b[(c + 3) % 4][3] as usize];
            }
            xor_round_key(&mut s, rk);
        }
        let b = s.map(u32::to_be_bytes);
        for (c, col) in s.iter_mut().enumerate() {
            *col = u32::from_be_bytes([
                SBOX[b[c][0] as usize],
                SBOX[b[(c + 1) % 4][1] as usize],
                SBOX[b[(c + 2) % 4][2] as usize],
                SBOX[b[(c + 3) % 4][3] as usize],
            ]);
        }
        xor_round_key(&mut s, &self.round_keys[nr]);
        for (out, col) in block.chunks_exact_mut(4).zip(s) {
            out.copy_from_slice(&col.to_be_bytes());
        }
    }

    /// Decrypts a single 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.variant.rounds();
        add_round_key(block, &self.round_keys[nr]);
        for r in (1..nr).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(block, &self.round_keys[r]);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &self.round_keys[0]);
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

// State layout: state[c*4 + r] is row r, column c (column-major, as FIPS 197).
fn columns(bytes: &[u8; 16]) -> [u32; 4] {
    let mut cols = [0u32; 4];
    for (col, b) in cols.iter_mut().zip(bytes.chunks_exact(4)) {
        *col = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
    }
    cols
}

fn xor_round_key(state: &mut [u32; 4], rk: &[u8; 16]) {
    for (col, k) in state.iter_mut().zip(columns(rk)) {
        *col ^= k;
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[((c + r) % 4) * 4 + r] = s[c * 4 + r];
        }
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[c * 4],
            state[c * 4 + 1],
            state[c * 4 + 2],
            state[c * 4 + 3],
        ];
        state[c * 4] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
        state[c * 4 + 1] = gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
        state[c * 4 + 2] = gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
        state[c * 4 + 3] = gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
    }
}

/// XORs `data` with the AES-CTR keystream derived from `nonce` and the
/// starting block counter `counter0`.
///
/// CTR mode is its own inverse: calling this twice with the same
/// parameters round-trips the data. The 128-bit counter block is the
/// big-endian sum of `nonce` (interpreted as a 128-bit integer) and the
/// running block index.
///
/// Runs the AES-NI kernel when the CPU has it, else the portable
/// T-table cipher; both produce the same bytes.
pub fn ctr_xor(key: &AesKey, nonce: &[u8; 16], counter0: u64, data: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(aes) = crate::hw::Aes::detect() {
        return aes.ctr_xor(&key.round_keys, nonce, counter0, data);
    }
    ctr_xor_portable(key, nonce, counter0, data);
}

/// [`ctr_xor`] on the portable T-table cipher: the only path on CPUs
/// without AES-NI, and the reference the hardware kernel is tested
/// against.
pub(crate) fn ctr_xor_portable(key: &AesKey, nonce: &[u8; 16], counter0: u64, data: &mut [u8]) {
    let mut counter = counter0;
    for chunk in data.chunks_mut(16) {
        let mut block = counter_block(nonce, counter);
        key.encrypt_block(&mut block);
        for (d, k) in chunk.iter_mut().zip(block.iter()) {
            *d ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

fn counter_block(nonce: &[u8; 16], counter: u64) -> [u8; 16] {
    // 128-bit big-endian addition of the counter to the nonce.
    u128::from_be_bytes(*nonce)
        .wrapping_add(u128::from(counter))
        .to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engarde_rand::harness::{pick, Property};
    use engarde_rand::{Rng, RngCore, SeedableRng, StdRng};

    /// The byte-oriented forward cipher the T-table round replaced, kept
    /// as an independent reference: FIPS 197 §5.1 step by step.
    fn reference_encrypt_block(key: &AesKey, block: &mut [u8; 16]) {
        let nr = key.variant.rounds();
        add_round_key(block, &key.round_keys[0]);
        for r in 1..=nr {
            for b in block.iter_mut() {
                *b = SBOX[*b as usize];
            }
            let s = *block;
            for row in 1..4 {
                for c in 0..4 {
                    block[c * 4 + row] = s[((c + row) % 4) * 4 + row];
                }
            }
            if r < nr {
                for col in block.chunks_exact_mut(4) {
                    let [a0, a1, a2, a3] = [col[0], col[1], col[2], col[3]];
                    col[0] = gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3;
                    col[1] = a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3;
                    col[2] = a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3);
                    col[3] = gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2);
                }
            }
            add_round_key(block, &key.round_keys[r]);
        }
    }

    #[test]
    fn table_round_matches_byte_oriented_reference() {
        let mut rng = StdRng::seed_from_u64(0xae5);
        for case in 0..512 {
            let key = if case % 2 == 0 {
                AesKey::new_128(&rng.gen::<[u8; 16]>())
            } else {
                AesKey::new_256(&rng.gen::<[u8; 32]>())
            };
            let block: [u8; 16] = rng.gen();
            let (mut fast, mut slow) = (block, block);
            key.encrypt_block(&mut fast);
            reference_encrypt_block(&key, &mut slow);
            assert_eq!(fast, slow, "case {case}: {:?}", key.variant());
        }
    }

    #[test]
    fn ctr_xor_matches_portable_ctr() {
        // The dispatched kernel (AES-NI where the CPU has it) against the
        // portable cipher, over both key sizes, lengths with and without
        // a partial tail, and counters that carry from the nonce's low
        // word into its high word, or wrap, partway through a call.
        Property::new("ctr_xor_matches_portable_ctr")
            .cases(256)
            .run(|rng| {
                let key = if rng.gen_bool(0.5) {
                    AesKey::new_128(&rng.gen::<[u8; 16]>())
                } else {
                    AesKey::new_256(&rng.gen::<[u8; 32]>())
                };
                let mut nonce: [u8; 16] = rng.gen();
                let mut counter0: u64 = rng.gen();
                match rng.gen_range(0..3) {
                    0 => {
                        let lo = u64::MAX - rng.gen_range(0..32u64);
                        nonce[8..].copy_from_slice(&lo.to_be_bytes());
                        counter0 = rng.gen_range(0..16);
                    }
                    1 => counter0 = u64::MAX - rng.gen_range(0..32u64),
                    _ => {}
                }
                let len = match rng.gen_range(0..8) {
                    0 => *pick(rng, &[4095, 4096]),
                    _ => rng.gen_range(0..=300),
                };
                let mut data = vec![0u8; len];
                rng.fill_bytes(&mut data);
                let mut expected = data.clone();
                ctr_xor_portable(&key, &nonce, counter0, &mut expected);
                ctr_xor(&key, &nonce, counter0, &mut data);
                assert_eq!(data, expected, "{:?}, len {len}", key.variant());
            });
    }

    #[test]
    fn ctr_round_trip_unaligned_lengths() {
        let key = AesKey::new_256(&[7u8; 32]);
        let nonce = [9u8; 16];
        for len in [0usize, 1, 15, 16, 17, 100, 4096] {
            let original: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let mut data = original.clone();
            ctr_xor(&key, &nonce, 5, &mut data);
            if len > 0 {
                assert_ne!(data, original, "len={len} should be scrambled");
            }
            ctr_xor(&key, &nonce, 5, &mut data);
            assert_eq!(data, original, "len={len}");
        }
    }

    #[test]
    fn ctr_counter_continuity() {
        // Encrypting [a|b] in one call equals encrypting a then b with the
        // counter advanced by a's block count.
        let key = AesKey::new_128(&[1u8; 16]);
        let nonce = [2u8; 16];
        let mut whole: Vec<u8> = (0..64).collect();
        let mut part1: Vec<u8> = (0..32).collect();
        let mut part2: Vec<u8> = (32..64).collect();
        ctr_xor(&key, &nonce, 0, &mut whole);
        ctr_xor(&key, &nonce, 0, &mut part1);
        ctr_xor(&key, &nonce, 2, &mut part2);
        assert_eq!(&whole[..32], &part1[..]);
        assert_eq!(&whole[32..], &part2[..]);
    }

    #[test]
    fn counter_block_carries() {
        let mut nonce = [0u8; 16];
        nonce[15] = 0xff;
        assert_eq!(counter_block(&nonce, 1)[15], 0x00);
        assert_eq!(counter_block(&nonce, 1)[14], 0x01);
        // Carry across the 64-bit boundary.
        let nonce_max_lo = {
            let mut n = [0u8; 16];
            n[8..16].copy_from_slice(&u64::MAX.to_be_bytes());
            n
        };
        let blk = counter_block(&nonce_max_lo, 1);
        assert_eq!(&blk[8..16], &[0u8; 8]);
        assert_eq!(blk[7], 1);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let key = AesKey::new_128(&[0xaa; 16]);
        let s = format!("{key:?}");
        assert!(!s.contains("aa"), "Debug output must not contain key bytes");
    }

    #[test]
    #[should_panic(expected = "16 bytes")]
    fn wrong_key_size_panics() {
        AesKey::new_128(&[0u8; 15]);
    }
}
