//! The client-side program (§3, §4 "Client's side program").
//!
//! The client:
//!
//! 1. derives the **expected measurement** of the EnGarde enclave from
//!    the agreed [`BootstrapSpec`] (it can inspect EnGarde's code),
//! 2. challenges the platform and verifies the attestation quote against
//!    that measurement, the pinned device key, and its fresh nonce —
//!    also checking that the enclave's ephemeral public key is the one
//!    bound into the quote,
//! 3. wraps a fresh AES-256 key under the enclave key and streams its
//!    binary in page-granularity encrypted chunks with code/data page
//!    markers,
//! 4. finally verifies the enclave-signed verdict, so a cheating
//!    provider "falsely claiming that the code is not policy-compliant"
//!    is detected.

use crate::error::EngardeError;
use crate::protocol::{classify_pages, ContentManifest, PagePayload, SignedVerdict};
use crate::provision::BootstrapSpec;
use engarde_crypto::channel::{ChannelClient, SealedBlock, Session};
use engarde_crypto::rsa::RsaPublicKey;
use engarde_crypto::sha256::{Digest, Sha256};
use engarde_rand::{Rng, SeedableRng, StdRng};
use engarde_sgx::attest::Quote;
use engarde_sgx::epc::PAGE_SIZE;

/// The client's state across the provisioning protocol.
pub struct Client {
    binary: Vec<u8>,
    expected_measurement: Digest,
    device_key: RsaPublicKey,
    rng: StdRng,
    nonce: Option<[u8; 32]>,
    session: Option<Session>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Client(binary={} bytes, attested={})",
            self.binary.len(),
            self.session.is_some()
        )
    }
}

impl Client {
    /// Creates a client for `binary`, trusting `device_key` as the
    /// platform's quoting key and expecting an EnGarde enclave built
    /// from `spec` at `enclave_base`.
    pub fn new(
        binary: Vec<u8>,
        spec: &BootstrapSpec,
        enclave_base: u64,
        device_key: RsaPublicKey,
        seed: u64,
    ) -> Self {
        Client {
            binary,
            expected_measurement: spec.expected_measurement(enclave_base),
            device_key,
            rng: StdRng::seed_from_u64(seed),
            nonce: None,
            session: None,
        }
    }

    /// The measurement this client will accept.
    pub fn expected_measurement(&self) -> Digest {
        self.expected_measurement
    }

    /// Generates a fresh attestation challenge.
    pub fn challenge(&mut self) -> [u8; 32] {
        let mut nonce = [0u8; 32];
        self.rng.fill(&mut nonce);
        self.nonce = Some(nonce);
        nonce
    }

    /// Verifies the quote and binds the advertised enclave public key.
    ///
    /// # Errors
    ///
    /// [`EngardeError::Sgx`] wrapping the failed attestation check, or a
    /// protocol error when the key binding is wrong.
    pub fn verify_quote(
        &mut self,
        quote: &Quote,
        enclave_key: &RsaPublicKey,
    ) -> Result<(), EngardeError> {
        let nonce = self.nonce.ok_or_else(|| EngardeError::Protocol {
            what: "verify_quote before challenge".into(),
        })?;
        quote.verify_full(&self.device_key, &self.expected_measurement, &nonce)?;
        // The quote's report data must bind the advertised key.
        let mut h = Sha256::new();
        h.update(&enclave_key.modulus_be());
        h.update(&enclave_key.exponent_be());
        let mut expected = [0u8; 64];
        expected[..32].copy_from_slice(h.finalize().as_bytes());
        if quote.report_data != expected {
            return Err(EngardeError::Protocol {
                what: "enclave public key is not the one bound into the quote".into(),
            });
        }
        Ok(())
    }

    /// Establishes the encrypted channel: wraps a fresh AES-256 key
    /// under the (attested) enclave public key.
    ///
    /// # Errors
    ///
    /// Refuses if the quote was not verified first; propagates crypto
    /// failures.
    pub fn establish_channel(
        &mut self,
        enclave_key: &RsaPublicKey,
    ) -> Result<Vec<u8>, EngardeError> {
        if self.nonce.is_none() {
            return Err(EngardeError::Protocol {
                what: "channel establishment before attestation".into(),
            });
        }
        let (wrapped, session) = ChannelClient::establish(&mut self.rng, enclave_key)?;
        self.session = Some(session);
        Ok(wrapped)
    }

    /// Splits the binary into the manifest plus page chunks and seals
    /// everything for transfer, in order.
    ///
    /// # Errors
    ///
    /// Fails when the binary's layout mixes code and data in a page (the
    /// client discovers this before EnGarde would reject it) or when the
    /// channel is not yet established.
    pub fn content_blocks(&mut self) -> Result<Vec<SealedBlock>, EngardeError> {
        // Classify pages from the client's own view of its binary.
        let elf = engarde_elf::parse::ElfFile::parse(&self.binary)?;
        let page_kinds = classify_pages(&elf, self.binary.len())?;
        let manifest = ContentManifest {
            total_len: self.binary.len(),
            page_kinds,
        };
        let session = self
            .session
            .as_mut()
            .ok_or_else(|| EngardeError::Protocol {
                what: "content transfer before channel establishment".into(),
            })?;
        let mut blocks = Vec::with_capacity(1 + manifest.page_count());
        blocks.push(session.seal(&manifest.to_bytes()));
        for (index, chunk) in self.binary.chunks(PAGE_SIZE).enumerate() {
            let payload = PagePayload {
                index,
                data: chunk.to_vec(),
            };
            blocks.push(session.seal(&payload.to_bytes()));
        }
        Ok(blocks)
    }

    /// Verifies the enclave-signed verdict: the signature must be from
    /// the attested enclave key and the digest must match the content
    /// the client actually sent.
    ///
    /// # Errors
    ///
    /// Signature or digest mismatches — evidence the provider tampered
    /// with or substituted the verdict.
    pub fn verify_verdict(
        &self,
        verdict: &SignedVerdict,
        enclave_key: &RsaPublicKey,
    ) -> Result<bool, EngardeError> {
        verdict.verify(enclave_key)?;
        if verdict.content_digest != Sha256::digest(&self.binary) {
            return Err(EngardeError::Protocol {
                what: "verdict is for different content".into(),
            });
        }
        Ok(verdict.compliant)
    }
}
