//! Hardware AES-CTR and SHA-256 kernels (x86_64 AES-NI and SHA-NI).
//!
//! The only module of the workspace allowed to use `unsafe`. Each
//! kernel is a `#[target_feature]` function; calling one is sound only
//! on a CPU that has the feature. The zero-sized tokens [`Aes`] and
//! [`Sha`] are the only way to reach them, and only their `detect`
//! constructors build a token, after the CPU reported the feature, so
//! holding a token is the proof the call needs.
//!
//! Both kernels are drop-in replacements for the portable code in
//! [`crate::aes`] and [`crate::sha256`], which stays the reference:
//! same inputs, bit-identical outputs.

use std::arch::x86_64::*;

/// AES blocks kept in flight per step of the CTR kernel. AESENC has a
/// latency of several cycles but issues every cycle, so independent
/// counter blocks fill the pipeline.
const LANES: usize = 8;

/// Proof that this CPU executes AES-NI.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Aes(());

impl Aes {
    /// A token if the CPU has AES-NI.
    pub(crate) fn detect() -> Option<Aes> {
        is_x86_feature_detected!("aes").then_some(Aes(()))
    }

    /// [`crate::aes::ctr_xor`] under the expanded key `round_keys`
    /// (FIPS 197 byte order, one entry per round plus the whitening key).
    pub(crate) fn ctr_xor(
        self,
        round_keys: &[[u8; 16]],
        nonce: &[u8; 16],
        counter0: u64,
        data: &mut [u8],
    ) {
        // SAFETY: `self` exists only if `detect` saw AES-NI on this CPU,
        // the one feature `ctr_xor_aesni` enables.
        unsafe { ctr_xor_aesni(round_keys, nonce, counter0, data) }
    }
}

/// Proof that this CPU executes the SHA extensions and SSE4.1 (and so
/// SSSE3).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sha(());

impl Sha {
    /// A token if the CPU has SHA-NI, SSSE3 and SSE4.1.
    pub(crate) fn detect() -> Option<Sha> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(Sha(()))
    }

    /// Runs the SHA-256 compression function over every block in turn.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: `self` exists only if `detect` saw SHA-NI, SSSE3 and
        // SSE4.1 on this CPU, the features `compress_sha_ni` enables.
        unsafe { compress_sha_ni(state, blocks) }
    }
}

/// Loads 16 bytes.
#[inline]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: SSE2 is part of x86_64; `bytes` is one in-bounds 16-byte
    // chunk, and the unaligned load has no alignment requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Stores 16 bytes.
#[inline]
fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: SSE2 is part of x86_64; `bytes` is one in-bounds,
    // exclusively borrowed 16-byte chunk, and the unaligned store has no
    // alignment requirement.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// The counter block `nonce + counter` (a 128-bit big-endian sum), with
/// the nonce split into its high and low big-endian halves.
#[target_feature(enable = "sse2")]
#[inline]
fn counter_block(hi: u64, lo: u64, counter: u64) -> __m128i {
    let (lo, carry) = lo.overflowing_add(counter);
    let hi = hi.wrapping_add(carry as u64);
    // Memory order is hi‖lo, each big-endian; lanes are little-endian.
    _mm_set_epi64x(lo.swap_bytes() as i64, hi.swap_bytes() as i64)
}

/// One AES encryption of `block` under `rk[..=nr]`.
#[target_feature(enable = "aes")]
#[inline]
fn encrypt(rk: &[__m128i; 15], nr: usize, block: __m128i) -> __m128i {
    let mut x = _mm_xor_si128(block, rk[0]);
    for k in &rk[1..nr] {
        x = _mm_aesenc_si128(x, *k);
    }
    _mm_aesenclast_si128(x, rk[nr])
}

#[target_feature(enable = "aes")]
fn ctr_xor_aesni(round_keys: &[[u8; 16]], nonce: &[u8; 16], counter0: u64, data: &mut [u8]) {
    let mut rk = [_mm_setzero_si128(); 15];
    for (k, bytes) in rk.iter_mut().zip(round_keys) {
        *k = load(bytes);
    }
    let nr = round_keys.len() - 1;
    let (hi, lo) = nonce.split_at(8);
    let hi = u64::from_be_bytes(hi.try_into().expect("8 bytes"));
    let lo = u64::from_be_bytes(lo.try_into().expect("8 bytes"));
    let mut counter = counter0;

    let (wide, rest) = data.as_chunks_mut::<{ 16 * LANES }>();
    for chunk in wide {
        let mut x = [_mm_setzero_si128(); LANES];
        for (j, x) in x.iter_mut().enumerate() {
            *x = _mm_xor_si128(counter_block(hi, lo, counter.wrapping_add(j as u64)), rk[0]);
        }
        for k in &rk[1..nr] {
            for x in &mut x {
                *x = _mm_aesenc_si128(*x, *k);
            }
        }
        for (block, x) in chunk.as_chunks_mut::<16>().0.iter_mut().zip(x) {
            let ks = _mm_aesenclast_si128(x, rk[nr]);
            store(block, _mm_xor_si128(load(block), ks));
        }
        counter = counter.wrapping_add(LANES as u64);
    }

    let (blocks, tail) = rest.as_chunks_mut::<16>();
    for block in blocks {
        let ks = encrypt(&rk, nr, counter_block(hi, lo, counter));
        store(block, _mm_xor_si128(load(block), ks));
        counter = counter.wrapping_add(1);
    }
    if !tail.is_empty() {
        let mut ks = [0u8; 16];
        store(&mut ks, encrypt(&rk, nr, counter_block(hi, lo, counter)));
        for (d, k) in tail.iter_mut().zip(ks) {
            *d ^= k;
        }
    }
}

/// Four SHA-256 round constants, starting at `K[4 * group]`, as lanes.
#[target_feature(enable = "sse2")]
#[inline]
fn round_constants(group: usize) -> __m128i {
    let k = &crate::sha256::K[4 * group..4 * group + 4];
    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32)
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    // Big-endian message words: reverse the bytes of each 32-bit lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SHA-NI keeps the state as ABEF and CDGH.
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    for block in blocks {
        let (abef0, cdgh0) = (abef, cdgh);
        // The message schedule, four words per group, in a ring of four.
        let mut w = [_mm_setzero_si128(); 4];
        for (group, words) in block.as_chunks::<16>().0.iter().enumerate() {
            w[group] = _mm_shuffle_epi8(load(words), bswap);
        }
        for group in 0..16 {
            if group >= 4 {
                // W[t..t+4] from W[t-16..t]: σ0 terms, the W[t-7] terms,
                // then the σ1 terms.
                let (w16, w12, w8, w4) = (
                    w[group % 4],
                    w[(group + 1) % 4],
                    w[(group + 2) % 4],
                    w[(group + 3) % 4],
                );
                let x = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                w[group % 4] = _mm_sha256msg2_epu32(x, w4);
            }
            let wk = _mm_add_epi32(w[group % 4], round_constants(group));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }

    let mut abef_words = [0u8; 16];
    let mut cdgh_words = [0u8; 16];
    store(&mut abef_words, abef);
    store(&mut cdgh_words, cdgh);
    let lane = |bytes: &[u8; 16], i: usize| {
        u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"))
    };
    // Lanes are little-endian: ABEF holds F, E, B, A from lane 0 up.
    *state = [
        lane(&abef_words, 3),
        lane(&abef_words, 2),
        lane(&cdgh_words, 3),
        lane(&cdgh_words, 2),
        lane(&abef_words, 1),
        lane(&abef_words, 0),
        lane(&cdgh_words, 1),
        lane(&cdgh_words, 0),
    ];
}
