//! # engarde-crypto
//!
//! From-scratch cryptographic substrate for the EnGarde stack.
//!
//! The EnGarde paper (§3–4) links OpenSSL's libcrypto/libssl into the
//! enclave bootstrap to implement its provisioning channel. This crate is
//! the reproduction's stand-in, written on top of the standard library
//! alone.
//!
//! # Hardware kernels and the unsafe boundary
//!
//! Like libcrypto, the crate runs AES and SHA-256 on the CPU's own
//! instructions when it has them: on x86_64, [`aes::ctr_xor`] uses
//! AES-NI and the [`sha256`] compression function uses SHA-NI, selected
//! by CPUID at run time. There is no option to choose: elsewhere the
//! portable code runs, and it stays the reference the hardware kernels
//! are tested against (same bytes out for every input). These kernels,
//! in the private `hw` module, are the only `unsafe` code in the
//! workspace. The crate denies `unsafe_code` and allows it on `hw`
//! alone; every other crate forbids it, and `scripts/verify.sh` checks
//! both.
//!
//! - [`bignum`] — arbitrary-precision integers (the base of RSA),
//! - [`sha256`] — FIPS 180-4 SHA-256 (measurement, function-hash DBs;
//!   SHA-NI where available),
//! - [`hmac`] — HMAC-SHA256 and constant-time comparison,
//! - [`aes`] — AES-128/256 + CTR mode (AES-NI where available),
//! - [`rsa`] — 2048-bit key generation, PKCS#1 v1.5 encrypt/sign,
//! - [`channel`] — the paper's enclave-provisioning channel.
//!
//! # Examples
//!
//! ```
//! use engarde_crypto::sha256::Sha256;
//!
//! // The measurement primitive the whole stack leans on.
//! let digest = Sha256::digest(b"enclave page contents");
//! assert_eq!(digest.as_bytes().len(), 32);
//! ```
//!
//! These primitives are written for clarity and testability, not for
//! side-channel resistance: the simulated SGX machine never executes them
//! under a real adversary. In particular the portable AES is a T-table
//! cipher whose table lookups are indexed by secret state, so its
//! timing depends on the key and data; the AES-NI path has no table
//! lookups. Bignum arithmetic and RSA are not constant-time either.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bignum;
pub mod channel;
pub mod hmac;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw;
pub mod rsa;
pub mod sha256;

use std::error::Error;
use std::fmt;

/// Errors produced by the cryptographic substrate.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum CryptoError {
    /// Plaintext exceeds the RSA block capacity.
    MessageTooLong {
        /// Actual plaintext length in bytes.
        len: usize,
        /// Maximum length the key can wrap.
        max: usize,
    },
    /// RSA decryption failed (wrong length, padding, or key).
    DecryptionFailed,
    /// Signature verification failed.
    SignatureInvalid,
    /// The RSA modulus is too small for the requested operation.
    KeyTooSmall {
        /// Modulus width in bits.
        bits: usize,
    },
    /// A wire message could not be parsed.
    MalformedMessage,
    /// A channel block arrived out of order or was replayed.
    SequenceMismatch {
        /// The sequence number the receiver expected next.
        expected: u64,
        /// The sequence number carried by the block.
        got: u64,
    },
    /// A channel block failed MAC verification.
    AuthenticationFailed,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::MessageTooLong { len, max } => {
                write!(
                    f,
                    "message of {len} bytes exceeds RSA capacity of {max} bytes"
                )
            }
            CryptoError::DecryptionFailed => write!(f, "RSA decryption failed"),
            CryptoError::SignatureInvalid => write!(f, "signature verification failed"),
            CryptoError::KeyTooSmall { bits } => {
                write!(
                    f,
                    "RSA modulus of {bits} bits is too small for this operation"
                )
            }
            CryptoError::MalformedMessage => write!(f, "malformed wire message"),
            CryptoError::SequenceMismatch { expected, got } => {
                write!(f, "sequence mismatch: expected {expected}, got {got}")
            }
            CryptoError::AuthenticationFailed => write!(f, "message authentication failed"),
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_without_period() {
        let errors: Vec<CryptoError> = vec![
            CryptoError::MessageTooLong { len: 100, max: 53 },
            CryptoError::DecryptionFailed,
            CryptoError::SignatureInvalid,
            CryptoError::KeyTooSmall { bits: 128 },
            CryptoError::MalformedMessage,
            CryptoError::SequenceMismatch {
                expected: 1,
                got: 3,
            },
            CryptoError::AuthenticationFailed,
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "{s:?} should not end with a period");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
