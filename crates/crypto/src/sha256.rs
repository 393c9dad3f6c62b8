//! SHA-256 (FIPS 180-4).
//!
//! Used throughout the stack: enclave measurement in `engarde-sgx`, the
//! musl-libc function-hash database of the library-linking policy, and the
//! HMAC in the provisioning channel.
//!
//! # Examples
//!
//! ```
//! use engarde_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use std::fmt;

/// A 256-bit SHA-256 digest.
///
/// # Examples
///
/// ```
/// use engarde_crypto::sha256::Sha256;
/// let d = Sha256::digest(b"");
/// assert_eq!(d.as_bytes().len(), 32);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The digest as raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex encoding of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

/// The FIPS 180-4 round constants.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use engarde_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Whole blocks are compressed straight from `data`, one kernel call
    /// per run; only a partial block is buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffered = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, 64-bit big-endian bit
        // length.
        let zeros = (55 + 64 - self.buffered) % 64;
        let mut padding = [0u8; 1 + 63 + 8];
        padding[0] = 0x80;
        padding[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&padding[..9 + zeros]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Number of 64-byte compression blocks processed so far (including
    /// the final padding blocks if called after `finalize`-style padding).
    ///
    /// Exposed so the SGX cycle model can charge hashing work accurately.
    pub fn blocks_for_len(len: usize) -> usize {
        // message + 1 byte 0x80 + 8 byte length, rounded up to 64.
        (len + 9).div_ceil(64)
    }
}

/// The SHA-256 compression function over every block in turn: the
/// SHA-NI kernel when the CPU has it, else the portable rounds; both
/// produce the same state.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(sha) = crate::hw::Sha::detect() {
        return sha.compress(state, blocks);
    }
    compress_portable(state, blocks);
}

/// [`compress`] in portable code: the only path on CPUs without SHA-NI,
/// and the reference the hardware kernel is tested against.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (w, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *w = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engarde_rand::harness::{vec_u8, Property};
    use engarde_rand::Rng;

    /// SHA-256 of `msg` on the portable compression function, padded
    /// by hand: the reference for the dispatched streaming hasher.
    fn portable_digest(msg: &[u8]) -> Digest {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_portable(&mut state, padded.as_chunks::<64>().0);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }

    #[test]
    fn sha256_matches_portable_compress() {
        // The dispatched kernel (SHA-NI where the CPU has it) against the
        // portable rounds, on messages up to 10 KiB fed in random splits:
        // arbitrary cuts, or EEXTEND's shape of a 15-byte header then a
        // 256-byte chunk.
        Property::new("sha256_matches_portable_compress")
            .cases(128)
            .run(|rng| {
                let msg = vec_u8(rng, 0..10 * 1024 + 1);
                let eextend_shaped = rng.gen_bool(0.25);
                let mut h = Sha256::new();
                let (mut rest, mut header) = (&msg[..], true);
                while !rest.is_empty() {
                    let take = if eextend_shaped {
                        header = !header;
                        if header {
                            256
                        } else {
                            15
                        }
                    } else {
                        rng.gen_range(0..=300)
                    };
                    let (part, tail) = rest.split_at(take.min(rest.len()));
                    h.update(part);
                    rest = tail;
                }
                assert_eq!(h.finalize(), portable_digest(&msg), "len {}", msg.len());
            });
    }

    // NIST FIPS 180-4 test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            Sha256::digest(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            Sha256::digest(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            Sha256::digest(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding around the 55/56/64-byte boundaries.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xa5u8; len];
            let d1 = Sha256::digest(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len={len}");
        }
    }

    #[test]
    fn blocks_for_len_model() {
        assert_eq!(Sha256::blocks_for_len(0), 1);
        assert_eq!(Sha256::blocks_for_len(55), 1);
        assert_eq!(Sha256::blocks_for_len(56), 2);
        assert_eq!(Sha256::blocks_for_len(64), 2);
        assert_eq!(Sha256::blocks_for_len(119), 2);
        assert_eq!(Sha256::blocks_for_len(120), 3);
    }

    #[test]
    fn digest_traits() {
        let d = Sha256::digest(b"x");
        assert_eq!(d.as_ref().len(), 32);
        assert!(format!("{d:?}").starts_with("Digest("));
        assert_eq!(format!("{d}"), d.to_hex());
        let raw: [u8; 32] = *d.as_bytes();
        assert_eq!(Digest::from(raw), d);
    }
}
