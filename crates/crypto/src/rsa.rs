//! RSA public-key encryption and signatures over [`crate::bignum`].
//!
//! The paper's bootstrap code generates a **2048-bit RSA key pair** inside
//! the freshly-created enclave; the client uses the public key to wrap a
//! 256-bit AES session key. This module provides that key generation plus
//! PKCS#1 v1.5-style encryption and signing (used for attestation quotes
//! and signed policy verdicts).
//!
//! # Examples
//!
//! ```
//! use engarde_crypto::rsa::RsaKeyPair;
//! use engarde_rand::SeedableRng;
//!
//! # fn main() -> Result<(), engarde_crypto::CryptoError> {
//! let mut rng = engarde_rand::StdRng::seed_from_u64(1);
//! // Small key for the doctest; production uses 2048 bits.
//! let kp = RsaKeyPair::generate(&mut rng, 512);
//! let ct = kp.public().encrypt(&mut rng, b"session key")?;
//! assert_eq!(kp.decrypt(&ct)?, b"session key");
//! # Ok(())
//! # }
//! ```

use crate::bignum::BigUint;
use crate::sha256::Sha256;
use crate::CryptoError;
use engarde_rand::Rng;

/// The standard public exponent F4 = 65537.
const E: u64 = 65_537;

/// An RSA public key `(n, e)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA key pair; the private exponent is never exposed.
///
/// Private-key operations use the CRT form: two half-size
/// exponentiations modulo `p` and `q`, recombined by Garner's formula.
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    p: BigUint,
    q: BigUint,
    /// `d mod (p - 1)`.
    dp: BigUint,
    /// `d mod (q - 1)`.
    dq: BigUint,
    /// `q⁻¹ mod p`.
    qinv: BigUint,
}

impl std::fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Show only public parameters.
        write!(f, "RsaKeyPair(bits={})", self.public.modulus_bits())
    }
}

impl RsaPublicKey {
    /// Constructs a public key from raw modulus and exponent bytes
    /// (big-endian), e.g. received over the provisioning socket.
    pub fn from_parts(modulus_be: &[u8], exponent_be: &[u8]) -> Self {
        RsaPublicKey {
            n: BigUint::from_bytes_be(modulus_be),
            e: BigUint::from_bytes_be(exponent_be),
        }
    }

    /// Big-endian modulus bytes.
    pub fn modulus_be(&self) -> Vec<u8> {
        self.n.to_bytes_be()
    }

    /// Big-endian public-exponent bytes.
    pub fn exponent_be(&self) -> Vec<u8> {
        self.e.to_bytes_be()
    }

    /// Modulus width in bits.
    pub fn modulus_bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Modulus width in bytes (the RSA block size).
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Encrypts `plaintext` with PKCS#1 v1.5 type-2 padding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyTooSmall`] if the modulus is shorter than
    /// the 11 bytes of padding, and [`CryptoError::MessageTooLong`] if
    /// `plaintext` exceeds `modulus_len() - 11` bytes.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        plaintext: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        let Some(max) = k.checked_sub(11) else {
            return Err(CryptoError::KeyTooSmall {
                bits: self.modulus_bits(),
            });
        };
        if plaintext.len() > max {
            return Err(CryptoError::MessageTooLong {
                len: plaintext.len(),
                max,
            });
        }
        // EM = 0x00 || 0x02 || PS (non-zero random) || 0x00 || M
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        for _ in 0..k - plaintext.len() - 3 {
            loop {
                let b: u8 = rng.gen();
                if b != 0 {
                    em.push(b);
                    break;
                }
            }
        }
        em.push(0x00);
        em.extend_from_slice(plaintext);
        let m = BigUint::from_bytes_be(&em);
        let c = m.modpow(&self.e, &self.n);
        Ok(c.to_bytes_be_padded(k))
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::SignatureInvalid`] on any mismatch.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::SignatureInvalid);
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(CryptoError::SignatureInvalid);
        }
        let em = s.modpow(&self.e, &self.n).to_bytes_be_padded(k);
        let expected = signature_em(message, k)?;
        if crate::hmac::constant_time_eq(&em, &expected) {
            Ok(())
        } else {
            Err(CryptoError::SignatureInvalid)
        }
    }
}

/// Builds the PKCS#1 v1.5 type-1 encoded message for a SHA-256 signature.
fn signature_em(message: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    // DigestInfo for SHA-256 (RFC 8017 §9.2 note 1).
    const PREFIX: [u8; 19] = [
        0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01,
        0x05, 0x00, 0x04, 0x20,
    ];
    let t_len = PREFIX.len() + 32;
    if k < t_len + 11 {
        return Err(CryptoError::KeyTooSmall { bits: k * 8 });
    }
    let digest = Sha256::digest(message);
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&PREFIX);
    em.extend_from_slice(digest.as_bytes());
    Ok(em)
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of `bits` bits.
    ///
    /// The paper's enclave bootstrap uses 2048; tests use smaller keys
    /// for speed.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 128` (too small even for tests).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= 128, "RSA modulus must be at least 128 bits");
        let e = BigUint::from_u64(E);
        loop {
            let p = BigUint::random_prime(rng, bits / 2);
            let q = BigUint::random_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let (p1, q1) = (p.sub(&BigUint::one()), q.sub(&BigUint::one()));
            let Some(d) = e.modinv(&p1.mul(&q1)) else {
                continue;
            };
            let Some(qinv) = q.modinv(&p) else {
                continue;
            };
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                dp: d.rem(&p1),
                dq: d.rem(&q1),
                p,
                q,
                qinv,
            };
        }
    }

    /// The public half of the key pair.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private-key operation `x^d mod n` for `x < n`, via the CRT.
    fn private_op(&self, x: &BigUint) -> BigUint {
        let mp = x.modpow(&self.dp, &self.p);
        let mq = x.modpow(&self.dq, &self.q);
        // Garner: x^d = mq + q·(qinv·(mp - mq) mod p).
        let mq_p = mq.rem(&self.p);
        let diff = if mp >= mq_p {
            mp.sub(&mq_p)
        } else {
            mp.add(&self.p).sub(&mq_p)
        };
        let h = self.qinv.mul(&diff).rem(&self.p);
        mq.add(&h.mul(&self.q))
    }

    /// Decrypts a PKCS#1 v1.5 type-2 ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::DecryptionFailed`] if the ciphertext is the
    /// wrong length or the padding is malformed.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k {
            return Err(CryptoError::DecryptionFailed);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(CryptoError::DecryptionFailed);
        }
        let em = self.private_op(&c).to_bytes_be_padded(k);
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::DecryptionFailed);
        }
        // Find the 0x00 separator after at least 8 bytes of padding.
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::DecryptionFailed)?;
        if sep < 8 {
            return Err(CryptoError::DecryptionFailed);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }

    /// Signs `message` with PKCS#1 v1.5 + SHA-256.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyTooSmall`] if the modulus cannot hold the
    /// DigestInfo encoding.
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let em = signature_em(message, k)?;
        let m = BigUint::from_bytes_be(&em);
        Ok(self.private_op(&m).to_bytes_be_padded(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engarde_rand::{SeedableRng, StdRng};

    fn keypair(bits: usize) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        RsaKeyPair::generate(&mut rng, bits)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let kp = keypair(512);
        let mut rng = StdRng::seed_from_u64(2);
        for msg in [&b""[..], b"x", b"a 256-bit AES session key!!!!!!!"] {
            let ct = kp.public().encrypt(&mut rng, msg).expect("encrypt");
            assert_eq!(ct.len(), kp.public().modulus_len());
            assert_eq!(kp.decrypt(&ct).expect("decrypt"), msg);
        }
    }

    #[test]
    fn encryption_is_randomised() {
        let kp = keypair(512);
        let mut rng = StdRng::seed_from_u64(3);
        let c1 = kp.public().encrypt(&mut rng, b"m").unwrap();
        let c2 = kp.public().encrypt(&mut rng, b"m").unwrap();
        assert_ne!(c1, c2, "PKCS#1 v1.5 padding must randomise ciphertexts");
    }

    #[test]
    fn message_too_long_rejected() {
        let kp = keypair(512);
        let mut rng = StdRng::seed_from_u64(4);
        let too_long = vec![0u8; kp.public().modulus_len() - 10];
        let err = kp.public().encrypt(&mut rng, &too_long).unwrap_err();
        assert!(matches!(err, CryptoError::MessageTooLong { .. }));
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let kp = keypair(512);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ct = kp.public().encrypt(&mut rng, b"secret").unwrap();
        ct[10] ^= 0xff;
        // Either padding check fails or the plaintext differs; both are
        // acceptable failure modes for v1.5, but it must not round-trip.
        match kp.decrypt(&ct) {
            Err(_) => {}
            Ok(pt) => assert_ne!(pt, b"secret"),
        }
        // Wrong length always fails.
        assert!(kp.decrypt(&ct[1..]).is_err());
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = keypair(512);
        let sig = kp.sign(b"policy verdict: compliant").expect("sign");
        kp.public()
            .verify(b"policy verdict: compliant", &sig)
            .expect("verify");
    }

    #[test]
    fn verify_rejects_wrong_message_and_tampered_sig() {
        let kp = keypair(512);
        let sig = kp.sign(b"hello").unwrap();
        assert!(kp.public().verify(b"goodbye", &sig).is_err());
        let mut bad = sig.clone();
        bad[0] ^= 1;
        assert!(kp.public().verify(b"hello", &bad).is_err());
        assert!(kp.public().verify(b"hello", &sig[1..]).is_err());
    }

    #[test]
    fn verify_with_foreign_key_fails() {
        let kp1 = keypair(512);
        let mut rng = StdRng::seed_from_u64(99);
        let kp2 = RsaKeyPair::generate(&mut rng, 512);
        let sig = kp1.sign(b"msg").unwrap();
        assert!(kp2.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn public_key_serialisation_round_trip() {
        let kp = keypair(512);
        let pk = RsaPublicKey::from_parts(&kp.public().modulus_be(), &kp.public().exponent_be());
        assert_eq!(&pk, kp.public());
    }

    #[test]
    fn modulus_width_is_exact() {
        let kp = keypair(512);
        assert_eq!(kp.public().modulus_bits(), 512);
        assert_eq!(kp.public().modulus_len(), 64);
    }

    /// The private exponent, recomputed from the stored primes.
    fn private_exponent(kp: &RsaKeyPair) -> BigUint {
        let phi = kp.p.sub(&BigUint::one()).mul(&kp.q.sub(&BigUint::one()));
        kp.public.e.modinv(&phi).expect("e is invertible mod phi")
    }

    #[test]
    fn crt_private_op_equals_plain_modpow() {
        for bits in [512, 1024] {
            let kp = keypair(bits);
            let (n, d) = (&kp.public.n, private_exponent(&kp));
            assert_eq!(kp.p.mul(&kp.q), *n);
            let k = kp.public().modulus_len();
            let sig = kp.sign(b"crt").expect("sign");
            let em = BigUint::from_bytes_be(&signature_em(b"crt", k).expect("em"));
            assert_eq!(BigUint::from_bytes_be(&sig), em.modpow(&d, n));
            let mut rng = StdRng::seed_from_u64(6);
            let pt = b"a 256-bit AES session key!!!!!!!";
            let ct = kp.public().encrypt(&mut rng, pt).expect("encrypt");
            let c = BigUint::from_bytes_be(&ct);
            assert_eq!(kp.private_op(&c), c.modpow(&d, n));
            assert_eq!(kp.decrypt(&ct).expect("decrypt"), pt);
            // Values sharing a factor with n, and the ends of the range.
            for x in [
                BigUint::zero(),
                BigUint::one(),
                kp.p.clone(),
                kp.q.mul(&BigUint::from_u64(3)),
                n.sub(&BigUint::one()),
            ] {
                assert_eq!(kp.private_op(&x), x.modpow(&d, n), "x = {x:?}");
            }
        }
    }

    #[test]
    fn debug_hides_private_key() {
        let kp = keypair(512);
        let shown = format!("{kp:?}");
        assert_eq!(shown, "RsaKeyPair(bits=512)");
        for secret in [
            &kp.p,
            &kp.q,
            &kp.dp,
            &kp.dq,
            &kp.qinv,
            &private_exponent(&kp),
        ] {
            assert!(!shown.contains(&format!("{secret:x}")));
        }
    }

    #[test]
    fn modulus_shorter_than_padding_is_key_too_small() {
        let pk = RsaPublicKey::from_parts(&[0x0f], &[1, 0, 1]);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            pk.encrypt(&mut rng, b""),
            Err(CryptoError::KeyTooSmall { bits: 4 })
        ));
        let empty = RsaPublicKey::from_parts(&[], &[1, 0, 1]);
        assert!(matches!(
            empty.encrypt(&mut rng, b""),
            Err(CryptoError::KeyTooSmall { bits: 0 })
        ));
        assert!(empty.verify(b"m", &[]).is_err());
    }

    #[test]
    fn even_modulus_never_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        for len in [11, 12, 64, 128] {
            let mut n = vec![0xa5u8; len];
            n[len - 1] &= 0xfe;
            let pk = RsaPublicKey::from_parts(&n, &[1, 0, 1]);
            let ct = pk.encrypt(&mut rng, b"").expect("a value, not a panic");
            assert_eq!(ct.len(), len);
            assert!(pk.verify(b"", &ct).is_err());
            assert!(pk.verify(b"m", &vec![0x01; len]).is_err());
        }
    }

    #[test]
    fn key_too_small_to_sign() {
        let kp = keypair(128);
        assert!(matches!(
            kp.sign(b"m"),
            Err(CryptoError::KeyTooSmall { .. })
        ));
    }
}
