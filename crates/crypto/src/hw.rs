//! Hardware AES-CTR, SHA-256 and Montgomery-multiply kernels (x86_64
//! AES-NI, SHA-NI, and BMI2 with ADX).
//!
//! The only module of the workspace allowed to use `unsafe`. Each
//! kernel is a private `#[target_feature]` function; calling one is
//! sound only on a CPU that has the feature. The zero-sized tokens
//! [`Aes`], [`Sha`] and [`Mulx`] are the only way to reach them, and
//! only their `detect` constructors build a token, after the CPU
//! reported the feature, so holding a token is the proof the call needs.
//!
//! All three kernels are drop-in replacements for the portable code in
//! [`crate::aes`], [`crate::sha256`] and [`crate::bignum`], which stays
//! the reference: same inputs, bit-identical outputs.

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

/// Proof that this CPU executes MULX (BMI2) and ADCX/ADOX (ADX).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Mulx(());

impl Mulx {
    /// A token if the CPU has BMI2 and ADX.
    pub(crate) fn detect() -> Option<Mulx> {
        (is_x86_feature_detected!("bmi2") && is_x86_feature_detected!("adx")).then_some(Mulx(()))
    }

    /// The Montgomery product `out = a·b·R⁻¹ mod m` of `bignum`'s CIOS
    /// multiply, with `m_inv = -m⁻¹ mod 2⁶⁴` and every slice as long as
    /// `m`. Runs for 4, 8 and 16 limbs (the primes of 512-, 1024- and
    /// 2048-bit keys and the 512- and 1024-bit moduli) and returns true;
    /// at any other width, or on mismatched lengths, it leaves `out`
    /// untouched and returns false. Wider moduli stay portable: a fully
    /// unrolled 32-limb kernel ran slower than the portable loop.
    pub(crate) fn mont_mul(
        self,
        m: &[u64],
        m_inv: u64,
        a: &[u64],
        b: &[u64],
        out: &mut [u64],
    ) -> bool {
        match m.len() {
            4 => self.mont_mul_fixed::<4>(m, m_inv, a, b, out),
            8 => self.mont_mul_fixed::<8>(m, m_inv, a, b, out),
            16 => self.mont_mul_fixed::<16>(m, m_inv, a, b, out),
            _ => false,
        }
    }

    fn mont_mul_fixed<const N: usize>(
        self,
        m: &[u64],
        m_inv: u64,
        a: &[u64],
        b: &[u64],
        out: &mut [u64],
    ) -> bool {
        let (Ok(m), Ok(a), Ok(b), Ok(out)) =
            (m.try_into(), a.try_into(), b.try_into(), out.try_into())
        else {
            return false;
        };
        // SAFETY: `self` exists only if `detect` saw BMI2 and ADX on this
        // CPU, the features `mont_mul_mulx` enables.
        unsafe { mont_mul_mulx::<N>(m, m_inv, a, b, out) };
        true
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
    let nonce = u128::from_be_bytes(*nonce);
    let (hi, lo) = ((nonce >> 64) as u64, nonce as u64);
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

    // ABEF holds F, E, B, A from lane 0 up.
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|w| w as u32);
}

/// `bignum`'s CIOS Montgomery multiply at a fixed width of `N` limbs,
/// step for step: the same accumulator, the same quotient digit per
/// limb of `b`, and the same final conditional subtraction, so every
/// output equals the portable one. MULX leaves the flags alone, so each
/// row keeps two carry chains: the low product halves enter the
/// accumulator at their own limb, the high halves one limb up.
#[target_feature(enable = "bmi2,adx")]
fn mont_mul_mulx<const N: usize>(
    m: &[u64; N],
    m_inv: u64,
    a: &[u64; N],
    b: &[u64; N],
    out: &mut [u64; N],
) {
    // The accumulator: `t` is limbs 0..N and `t_n` limb N; `t_top`,
    // limb N + 1, lives only from a row's product to its reduction.
    let mut t = [0u64; N];
    let mut t_n = 0u64;
    for &bi in b {
        // t += a·bi
        let (mut c, mut o, mut hi) = (0u8, 0u8, 0u64);
        for (tj, &aj) in t.iter_mut().zip(a) {
            let mut next = 0;
            let lo = _mulx_u64(aj, bi, &mut next);
            c = _addcarryx_u64(c, *tj, lo, tj);
            o = _addcarryx_u64(o, *tj, hi, tj);
            hi = next;
        }
        c = _addcarryx_u64(c, t_n, hi, &mut t_n);
        o = _addcarryx_u64(o, t_n, 0, &mut t_n);
        let t_top = u64::from(c) + u64::from(o);
        // t = (t + q·m) / 2⁶⁴, with q chosen so the low limb cancels.
        let q = t[0].wrapping_mul(m_inv);
        let mut hi = 0;
        let mut cancelled = 0;
        let mut c = _addcarryx_u64(0, t[0], _mulx_u64(m[0], q, &mut hi), &mut cancelled);
        let mut o = 0u8;
        for j in 1..N {
            let mut next = 0;
            let lo = _mulx_u64(m[j], q, &mut next);
            let mut s = 0;
            c = _addcarryx_u64(c, t[j], lo, &mut s);
            o = _addcarryx_u64(o, s, hi, &mut t[j - 1]);
            hi = next;
        }
        let mut s = 0;
        c = _addcarryx_u64(c, t_n, hi, &mut s);
        o = _addcarryx_u64(o, s, 0, &mut t[N - 1]);
        t_n = t_top + u64::from(c) + u64::from(o);
    }
    // out = t - m, kept unless it borrowed past t's top limb.
    let mut diff = [0u64; N];
    let mut borrow = 0u8;
    for ((d, &tj), &mj) in diff.iter_mut().zip(&t).zip(m) {
        borrow = _subborrow_u64(borrow, tj, mj, d);
    }
    *out = if borrow != 0 && t_n == 0 { t } else { diff };
}
