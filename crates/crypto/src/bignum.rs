//! Arbitrary-precision unsigned integer arithmetic.
//!
//! [`BigUint`] is the number-theoretic workhorse behind the RSA
//! implementation in [`crate::rsa`]. It stores magnitudes as little-endian
//! `u64` limbs and provides exactly the operations RSA needs: ring
//! arithmetic, modular exponentiation, modular inverses, GCD, random
//! generation and Miller–Rabin primality testing.
//!
//! # Examples
//!
//! ```
//! use engarde_crypto::bignum::BigUint;
//!
//! let a = BigUint::from_u64(1 << 40);
//! let b = BigUint::from_u64(3);
//! let m = BigUint::from_u64(1_000_003);
//! // (2^40)^3 mod 1000003
//! assert_eq!(a.modpow(&b, &m), BigUint::from_u64(226_575));
//! ```

use engarde_rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian 64-bit limbs with no leading zero limbs
/// (the canonical representation of zero is an empty limb vector).
///
/// # Examples
///
/// ```
/// use engarde_crypto::bignum::BigUint;
///
/// let n = BigUint::from_bytes_be(&[0x01, 0x00]);
/// assert_eq!(n, BigUint::from_u64(256));
/// assert_eq!(n.to_bytes_be(), vec![0x01, 0x00]);
/// ```
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct BigUint {
    /// Little-endian limbs; invariant: no trailing zero limb.
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{:x})", self)
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for limb in self.limbs.iter().rev() {
            if first {
                write!(f, "{:x}", limb)?;
                first = false;
            } else {
                write!(f, "{:016x}", limb)?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal conversion via repeated division; adequate for the
        // debugging/display contexts this type appears in.
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut n = self.clone();
        let ten = BigUint::from_u64(10);
        while !n.is_zero() {
            let (q, r) = n.divrem(&ten);
            digits.push(b'0' + r.to_u64().unwrap_or(0) as u8);
            n = q;
        }
        digits.reverse();
        f.write_str(std::str::from_utf8(&digits).expect("digits are ASCII"))
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs a value from big-endian bytes (leading zeros permitted).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialises to big-endian bytes with no leading zeros
    /// (zero serialises to an empty vector; see [`BigUint::to_bytes_be_padded`]
    /// for fixed-width output).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.split_off(skip)
    }

    /// Serialises to exactly `width` big-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `width` bytes.
    pub fn to_bytes_be_padded(&self, width: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= width, "value does not fit in {width} bytes");
        let mut out = vec![0u8; width - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(hi) => self.limbs.len() * 64 - hi.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Sum of `self` and `other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (magnitudes are unsigned).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint::sub would underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Product of `self` and `other` (schoolbook multiplication).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).map_or(0, |&n| n << (64 - bit_shift));
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder of `self / divisor` (binary long division).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            // Fast path: single-limb divisor.
            let d = divisor.limbs[0];
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d as u128) as u64;
                rem = cur % d as u128;
            }
            let mut quo = BigUint { limbs: q };
            quo.normalize();
            return (quo, BigUint::from_u64(rem as u64));
        }
        // General case: Knuth Algorithm D (limb-based long division).
        // Normalise so the divisor's top limb has its high bit set.
        let shift = divisor
            .limbs
            .last()
            .expect("non-zero divisor")
            .leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // extra high limb for the algorithm
        let vn = &v.limbs;
        let v_hi = vn[n - 1];
        let v_lo = if n >= 2 { vn[n - 2] } else { 0 };
        let mut q = vec![0u64; m + 1];
        const B: u128 = 1 << 64;
        for j in (0..=m).rev() {
            // Estimate q̂ from the top two limbs of the current remainder
            // (n >= 2 here: single-limb divisors take the fast path above).
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_hi as u128;
            let mut rhat = num % v_hi as u128;
            while qhat >= B || qhat * v_lo as u128 > ((rhat << 64) | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_hi as u128;
                if rhat >= B {
                    break;
                }
            }
            // Multiply-and-subtract: un[j..=j+n] -= qhat * vn.
            let mut k: i128 = 0;
            for i in 0..n {
                let p = qhat * vn[i] as u128;
                let t = un[i + j] as i128 - k - (p as u64) as i128;
                un[i + j] = t as u64;
                k = (p >> 64) as i128 - (t >> 64);
            }
            let t = un[j + n] as i128 - k;
            un[j + n] = t as u64;
            let mut qj = qhat as u64;
            if t < 0 {
                // q̂ was one too large: add the divisor back.
                qj -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q[j] = qj;
        }
        let mut quo = BigUint { limbs: q };
        quo.normalize();
        un.truncate(n);
        let mut rem = BigUint { limbs: un };
        rem.normalize();
        rem = rem.shr(shift);
        (quo, rem)
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.divrem(m).1
    }

    /// `self mod d` for a single-limb divisor, without allocating.
    fn rem_u64(&self, d: u64) -> u64 {
        self.limbs.iter().rev().fold(0u64, |r, &limb| {
            (((r as u128) << 64 | limb as u128) % d as u128) as u64
        })
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Odd moduli (every RSA modulus and prime candidate) run a
    /// Montgomery sliding-window exponentiation; even moduli fall back
    /// to right-to-left square-and-multiply.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be non-zero");
        if m.is_one() {
            return BigUint::zero();
        }
        if m.is_even() {
            return self.modpow_square_and_multiply(exp, m);
        }
        let mut mont = Mont::new(m);
        let x = mont.pow(&self.rem(m), exp);
        mont.decode(&x)
    }

    /// Right-to-left square-and-multiply with a full reduction per step:
    /// the even-modulus fallback of [`BigUint::modpow`], and the oracle
    /// its tests compare against.
    fn modpow_square_and_multiply(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut base = self.rem(m);
        let mut result = BigUint::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul(&base).rem(m);
            }
            base = base.mul(&base).rem(m);
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                return a.shl(shift);
            }
        }
    }

    /// Modular inverse of `self` modulo `m`, if it exists
    /// (extended Euclid over signed cofactors).
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || self.is_zero() {
            return None;
        }
        // Extended Euclid tracking only the coefficient of `self`, with a
        // sign flag since magnitudes are unsigned.
        let (mut old_r, mut r) = (self.rem(m), m.clone());
        let (mut old_s, mut s) = (BigUint::one(), BigUint::zero());
        let (mut old_neg, mut neg) = (false, false);
        while !r.is_zero() {
            let (q, rem) = old_r.divrem(&r);
            old_r = std::mem::replace(&mut r, rem);
            // old_s - q*s with sign tracking.
            let qs = q.mul(&s);
            let (new_s, new_neg) = match (old_neg, neg) {
                (false, false) => {
                    if old_s >= qs {
                        (old_s.sub(&qs), false)
                    } else {
                        (qs.sub(&old_s), true)
                    }
                }
                (false, true) => (old_s.add(&qs), false),
                (true, false) => (old_s.add(&qs), true),
                (true, true) => {
                    if old_s >= qs {
                        (old_s.sub(&qs), true)
                    } else {
                        (qs.sub(&old_s), false)
                    }
                }
            };
            old_s = std::mem::replace(&mut s, new_s);
            old_neg = std::mem::replace(&mut neg, new_neg);
        }
        if !old_r.is_one() {
            return None;
        }
        let inv = if old_neg {
            m.sub(&old_s.rem(m))
        } else {
            old_s.rem(m)
        };
        Some(inv.rem(m))
    }

    /// Uniformly random value with exactly `bits` significant bits
    /// (top bit forced to one).
    pub fn random_with_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0, "bit count must be positive");
        let limbs_needed = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng.gen()).collect();
        let top_bits = bits - (limbs_needed - 1) * 64;
        // Mask excess bits and force the top bit so the width is exact.
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        let last = limbs.last_mut().expect("at least one limb");
        *last &= mask;
        *last |= 1 << (top_bits - 1);
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bit_len();
        loop {
            let limbs_needed = bits.div_ceil(64);
            let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng.gen()).collect();
            let top_bits = bits - (limbs_needed - 1) * 64;
            let mask = if top_bits == 64 {
                u64::MAX
            } else {
                (1u64 << top_bits) - 1
            };
            *limbs.last_mut().expect("at least one limb") &= mask;
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` witnesses.
    ///
    /// Returns `true` if `self` is probably prime (error probability at
    /// most `4^-rounds`), `false` if definitely composite.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rng: &mut R, rounds: u32) -> bool {
        // Small primes: handle directly and use for cheap trial division.
        const SMALL_PRIMES: [u64; 15] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47];
        if let Some(v) = self.to_u64() {
            if v < 2 {
                return false;
            }
            if SMALL_PRIMES.contains(&v) {
                return true;
            }
        }
        // Trial division by the odd primes above as one single-limb
        // remainder against their product. The list must not grow: a
        // composite it rejects skips the Miller–Rabin witness draw below,
        // so a larger sieve would shift the RNG stream and with it every
        // seeded key.
        const ODD_PRIMORIAL: u64 = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47;
        if self.is_even() {
            return false;
        }
        let r = self.rem_u64(ODD_PRIMORIAL);
        if SMALL_PRIMES[1..].iter().any(|&p| r.is_multiple_of(p)) {
            return false;
        }
        // Write self - 1 = d * 2^s.
        let two = BigUint::from_u64(2);
        let n_minus_1 = self.sub(&BigUint::one());
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        // Witnesses run in the Montgomery domain of one context: `x == 1`
        // and `x == n - 1` become comparisons against `R` and `R·(n-1)`.
        let mut mont = Mont::new(self);
        let one = mont.encode(&BigUint::one());
        let minus_one = mont.encode(&n_minus_1);
        let mut sq = vec![0u64; one.len()];
        let bound = self.sub(&BigUint::from_u64(3));
        'witness: for _ in 0..rounds {
            let a = BigUint::random_below(rng, &bound).add(&two);
            let mut x = mont.pow(&a, &d);
            if x == one || x == minus_one {
                continue;
            }
            for _ in 0..s - 1 {
                mont.mul(&x, &x, &mut sq);
                std::mem::swap(&mut x, &mut sq);
                if x == minus_one {
                    continue 'witness;
                }
                if x == one {
                    // 1 squares to 1 and never reaches n - 1: composite.
                    break;
                }
            }
            return false;
        }
        true
    }

    /// Generates a random probable prime with exactly `bits` bits.
    pub fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits >= 2, "primes need at least 2 bits");
        loop {
            let mut candidate = BigUint::random_with_bits(rng, bits);
            // Force odd.
            if candidate.is_even() {
                candidate = candidate.add(&BigUint::one());
            }
            if candidate.bit_len() != bits {
                continue;
            }
            if candidate.is_probable_prime(rng, 20) {
                return candidate;
            }
        }
    }
}

/// Montgomery arithmetic modulo one odd modulus `m > 1` of `n` limbs,
/// with `R = 2^(64n)`.
///
/// A value in the Montgomery domain is an `n`-limb little-endian slice
/// holding `x·R mod m`. Multiplication is CIOS (coarsely integrated
/// operand scanning) into one reusable accumulator, so an
/// exponentiation allocates only its window table and two buffers.
struct Mont {
    /// The modulus, `n` limbs.
    m: Vec<u64>,
    /// `-m⁻¹ mod 2⁶⁴`.
    m_inv: u64,
    /// `R² mod m`, which maps a value into the domain.
    r2: Vec<u64>,
    /// CIOS accumulator, `n + 2` limbs.
    t: Vec<u64>,
}

impl Mont {
    fn new(m: &BigUint) -> Mont {
        debug_assert!(
            !m.is_even() && !m.is_one(),
            "Montgomery needs an odd modulus > 1"
        );
        let n = m.limbs.len();
        // Newton's iteration for m0⁻¹ mod 2⁶⁴: an odd m0 is its own
        // inverse mod 2³, and each step doubles the correct low bits.
        let m0 = m.limbs[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let mut r2 = BigUint::one().shl(128 * n).rem(m).limbs;
        r2.resize(n, 0);
        Mont {
            m: m.limbs.clone(),
            m_inv: inv.wrapping_neg(),
            r2,
            t: vec![0; n + 2],
        }
    }

    /// `out = a·b·R⁻¹ mod m` for `n`-limb `a, b < m`.
    fn mul(&mut self, a: &[u64], b: &[u64], out: &mut [u64]) {
        cios(&self.m, self.m_inv, &mut self.t, a, b, out);
    }

    /// `x·R mod m` for `x < m`.
    fn encode(&mut self, x: &BigUint) -> Vec<u64> {
        let mut limbs = x.limbs.clone();
        limbs.resize(self.m.len(), 0);
        let mut out = vec![0; self.m.len()];
        cios(&self.m, self.m_inv, &mut self.t, &limbs, &self.r2, &mut out);
        out
    }

    /// The value whose Montgomery form is `x`.
    fn decode(&mut self, x: &[u64]) -> BigUint {
        let mut one = vec![0; self.m.len()];
        one[0] = 1;
        let mut out = vec![0; self.m.len()];
        self.mul(x, &one, &mut out);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `base^exp` in the Montgomery domain, for `base < m`: a
    /// left-to-right sliding window over a table of odd powers.
    fn pow(&mut self, base: &BigUint, exp: &BigUint) -> Vec<u64> {
        let bits = exp.bit_len();
        let w = match bits {
            0..=23 => 1,
            24..=79 => 3,
            80..=239 => 4,
            240..=671 => 5,
            _ => 6,
        };
        let n = self.m.len();
        // table[k] = base^(2k+1).
        let mut table = vec![self.encode(base)];
        if w > 1 {
            let mut sq = vec![0; n];
            self.mul(&table[0], &table[0], &mut sq);
            for k in 1..1 << (w - 1) {
                let mut next = vec![0; n];
                self.mul(&table[k - 1], &sq, &mut next);
                table.push(next);
            }
        }
        let mut acc = self.encode(&BigUint::one());
        let mut tmp = vec![0; n];
        // Bits [i, bits) are consumed.
        let mut i = bits;
        while i > 0 {
            if !exp.bit(i - 1) {
                self.mul(&acc, &acc, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
                i -= 1;
                continue;
            }
            // The longest window [lo, i) of at most w bits ending in a one.
            let mut lo = i.saturating_sub(w);
            while !exp.bit(lo) {
                lo += 1;
            }
            let value = (lo..i).rev().fold(0, |v, b| v << 1 | exp.bit(b) as usize);
            for _ in lo..i {
                self.mul(&acc, &acc, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            self.mul(&acc, &table[value >> 1], &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
            i = lo;
        }
        acc
    }
}

/// One CIOS Montgomery multiplication: `out = a·b·R⁻¹ mod m`, with
/// `t` (`n + 2` limbs) as the accumulator. For `a, b < m` the
/// accumulator ends below `2m`, so one conditional subtraction reduces it.
fn cios(m: &[u64], m_inv: u64, t: &mut [u64], a: &[u64], b: &[u64], out: &mut [u64]) {
    let n = m.len();
    t.fill(0);
    for &bi in b {
        // t += a·bi
        let mut carry = 0u64;
        for (tj, &aj) in t.iter_mut().zip(a) {
            let s = *tj as u128 + aj as u128 * bi as u128 + carry as u128;
            *tj = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = t[n] as u128 + carry as u128;
        t[n] = s as u64;
        t[n + 1] = (s >> 64) as u64;
        // t = (t + q·m) / 2⁶⁴, with q chosen so the low limb cancels.
        let q = t[0].wrapping_mul(m_inv);
        let mut carry = ((t[0] as u128 + q as u128 * m[0] as u128) >> 64) as u64;
        for j in 1..n {
            let s = t[j] as u128 + q as u128 * m[j] as u128 + carry as u128;
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = t[n] as u128 + carry as u128;
        t[n - 1] = s as u64;
        t[n] = t[n + 1] + (s >> 64) as u64;
    }
    // out = t - m, kept unless it borrowed past t's top limb.
    let mut borrow = false;
    for ((o, &tj), &mj) in out.iter_mut().zip(&t[..n]).zip(m) {
        let (d1, b1) = tj.overflowing_sub(mj);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *o = d2;
        borrow = b1 || b2;
    }
    if borrow && t[n] == 0 {
        out.copy_from_slice(&t[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engarde_rand::{SeedableRng, StdRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xE47A_12DE)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::zero().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn byte_round_trip() {
        let bytes = [0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05];
        let n = BigUint::from_bytes_be(&bytes);
        assert_eq!(n.to_bytes_be(), bytes.to_vec());
    }

    #[test]
    fn byte_parse_strips_leading_zeros() {
        let n = BigUint::from_bytes_be(&[0, 0, 0, 42]);
        assert_eq!(n, BigUint::from_u64(42));
        assert_eq!(n.to_bytes_be(), vec![42]);
    }

    #[test]
    fn padded_serialisation() {
        let n = BigUint::from_u64(0x0102);
        assert_eq!(n.to_bytes_be_padded(4), vec![0, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_serialisation_overflow_panics() {
        BigUint::from_u64(0x010203).to_bytes_be_padded(2);
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from_bytes_be(&[0xff; 16]);
        let b = BigUint::one();
        let sum = a.add(&b);
        let mut expect = vec![1u8];
        expect.extend_from_slice(&[0u8; 16]);
        assert_eq!(sum.to_bytes_be(), expect);
    }

    #[test]
    fn sub_with_borrow_chain() {
        let mut hi = vec![1u8];
        hi.extend_from_slice(&[0u8; 16]);
        let a = BigUint::from_bytes_be(&hi);
        let diff = a.sub(&BigUint::one());
        assert_eq!(diff.to_bytes_be(), vec![0xff; 16]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        BigUint::from_u64(1).sub(&BigUint::from_u64(2));
    }

    #[test]
    fn mul_known_values() {
        let a = BigUint::from_u64(u64::MAX);
        let sq = a.mul(&a);
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let expect = BigUint::one()
            .shl(128)
            .sub(&BigUint::one().shl(65))
            .add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn divrem_single_limb() {
        let a = BigUint::from_u64(1_000_000_007);
        let (q, r) = a.divrem(&BigUint::from_u64(13));
        assert_eq!(q.to_u64(), Some(76_923_077));
        assert_eq!(r.to_u64(), Some(6));
    }

    #[test]
    fn divrem_multi_limb() {
        let a = BigUint::from_bytes_be(&[0xab; 40]);
        let b = BigUint::from_bytes_be(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11]);
        let (q, r) = a.divrem(&b);
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn divrem_randomised_self_check() {
        // a = q*b + r with r < b, across many widths (exercises Knuth D
        // including the add-back path statistically).
        let mut r = rng();
        for _ in 0..500 {
            let a_bits = 1 + (r.gen::<usize>() % 512);
            let b_bits = 1 + (r.gen::<usize>() % a_bits.max(2));
            let a = BigUint::random_with_bits(&mut r, a_bits);
            let b = BigUint::random_with_bits(&mut r, b_bits);
            let (q, rem) = a.divrem(&b);
            assert!(rem < b, "remainder bound: {a:?} / {b:?}");
            assert_eq!(q.mul(&b).add(&rem), a, "reconstruction: {a:?} / {b:?}");
        }
    }

    #[test]
    fn divrem_knuth_add_back_case() {
        // A crafted case that forces the rare q̂ add-back correction:
        // u = B^3 - 1, v = B^2 - 1 (B = 2^64) gives qhat too large.
        let b64 = BigUint::one().shl(64);
        let u = b64.clone().mul(&b64).mul(&b64).sub(&BigUint::one());
        let v = b64.mul(&b64).sub(&BigUint::one());
        let (q, r) = u.divrem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        BigUint::from_u64(5).divrem(&BigUint::zero());
    }

    #[test]
    fn shifts_inverse() {
        let n = BigUint::from_bytes_be(&[0x5a; 17]);
        assert_eq!(n.shl(77).shr(77), n);
        assert_eq!(n.shr(200), BigUint::zero());
    }

    #[test]
    fn modpow_fermat() {
        // 2^(p-1) = 1 mod p for prime p
        let p = BigUint::from_u64(1_000_000_007);
        let e = p.sub(&BigUint::one());
        assert!(BigUint::from_u64(2).modpow(&e, &p).is_one());
    }

    #[test]
    fn modpow_modulus_one() {
        assert!(BigUint::from_u64(5)
            .modpow(&BigUint::from_u64(5), &BigUint::one())
            .is_zero());
    }

    #[test]
    fn modpow_matches_square_and_multiply() {
        // Odd moduli take the Montgomery window; the oracle is the
        // square-and-multiply loop it replaced.
        let mut r = rng();
        for _ in 0..300 {
            let (m_bits, base_bits, exp_bits) = (
                2 + r.gen::<usize>() % 700,
                1 + r.gen::<usize>() % 800,
                1 + r.gen::<usize>() % 800,
            );
            // Round half the moduli up to whole limbs: a full top limb is
            // where the Montgomery accumulator carries past n limbs.
            let m_bits = if r.gen::<bool>() {
                m_bits.next_multiple_of(64)
            } else {
                m_bits
            };
            let m = BigUint::random_with_bits(&mut r, m_bits);
            let base = BigUint::random_with_bits(&mut r, base_bits);
            let exp = BigUint::random_with_bits(&mut r, exp_bits);
            assert_eq!(
                base.modpow(&exp, &m),
                base.modpow_square_and_multiply(&exp, &m),
                "{base:?}^{exp:?} mod {m:?}"
            );
        }
    }

    #[test]
    fn montgomery_domain_round_trips() {
        let m = BigUint::from_bytes_be(&[0xc3; 40]);
        let mut mont = Mont::new(&m);
        for x in [BigUint::zero(), BigUint::one(), m.sub(&BigUint::one())] {
            let xm = mont.encode(&x);
            assert_eq!(mont.decode(&xm), x);
        }
        // R mod m is the Montgomery form of one.
        let one = mont.encode(&BigUint::one());
        assert_eq!(BigUint { limbs: one }, BigUint::one().shl(64 * 5).rem(&m));
    }

    #[test]
    fn rem_u64_matches_rem() {
        let mut r = rng();
        for _ in 0..200 {
            let bits = 1 + r.gen::<usize>() % 300;
            let x = BigUint::random_with_bits(&mut r, bits);
            let d = r.gen::<u64>() | 1;
            assert_eq!(
                BigUint::from_u64(x.rem_u64(d)),
                x.rem(&BigUint::from_u64(d))
            );
        }
    }

    #[test]
    fn gcd_known() {
        let a = BigUint::from_u64(462);
        let b = BigUint::from_u64(1071);
        assert_eq!(a.gcd(&b), BigUint::from_u64(21));
        assert_eq!(a.gcd(&BigUint::zero()), a);
        assert_eq!(BigUint::zero().gcd(&b), b);
    }

    #[test]
    fn modinv_known() {
        let a = BigUint::from_u64(3);
        let m = BigUint::from_u64(11);
        let inv = a.modinv(&m).expect("3 is invertible mod 11");
        assert_eq!(inv, BigUint::from_u64(4));
        // Non-invertible case.
        assert!(BigUint::from_u64(6).modinv(&BigUint::from_u64(9)).is_none());
    }

    #[test]
    fn modinv_large() {
        let mut r = rng();
        let p = BigUint::random_prime(&mut r, 128);
        let a = BigUint::random_below(&mut r, &p);
        if a.is_zero() {
            return;
        }
        let inv = a.modinv(&p).expect("field element invertible");
        assert!(a.mul(&inv).rem(&p).is_one());
    }

    #[test]
    fn random_with_bits_width() {
        let mut r = rng();
        for bits in [1usize, 7, 64, 65, 127, 256] {
            let n = BigUint::random_with_bits(&mut r, bits);
            assert_eq!(n.bit_len(), bits, "bits={bits}");
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut r = rng();
        let bound = BigUint::from_u64(1000);
        for _ in 0..100 {
            assert!(BigUint::random_below(&mut r, &bound) < bound);
        }
    }

    #[test]
    fn primality_known_primes_and_composites() {
        let mut r = rng();
        for p in [2u64, 3, 5, 101, 65_537, 1_000_000_007] {
            assert!(
                BigUint::from_u64(p).is_probable_prime(&mut r, 20),
                "{p} should be prime"
            );
        }
        for c in [0u64, 1, 4, 100, 65_536, 999_999_999] {
            assert!(
                !BigUint::from_u64(c).is_probable_prime(&mut r, 20),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_number_rejected() {
        // 561 = 3 * 11 * 17 is the smallest Carmichael number.
        let mut r = rng();
        assert!(!BigUint::from_u64(561).is_probable_prime(&mut r, 20));
    }

    #[test]
    fn random_prime_has_requested_bits() {
        let mut r = rng();
        let p = BigUint::random_prime(&mut r, 96);
        assert_eq!(p.bit_len(), 96);
        assert!(p.is_probable_prime(&mut r, 10));
    }

    #[test]
    fn display_and_hex() {
        let n = BigUint::from_u64(255);
        assert_eq!(format!("{n}"), "255");
        assert_eq!(format!("{n:x}"), "ff");
        assert_eq!(format!("{}", BigUint::zero()), "0");
        let big = BigUint::one().shl(64);
        assert_eq!(format!("{big:x}"), "10000000000000000");
        assert_eq!(format!("{big}"), "18446744073709551616");
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let b = BigUint::one().shl(64);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
