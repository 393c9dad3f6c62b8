//! Wire types of the provisioning protocol (§3).
//!
//! "EnGarde operates at the granularity of memory pages, and therefore
//! splits the content into page-level chunks. We assume that the client
//! sends x86 binary code and identifies pages which contain code. The
//! remaining pages are assumed to contain data. EnGarde rejects pages
//! that contain mixed code and data."
//!
//! The manifest and page payloads travel inside
//! [`engarde_crypto::channel::SealedBlock`]s; this module defines their
//! plaintext encodings plus the signed verdict the enclave emits.

use crate::error::EngardeError;
use engarde_crypto::sha256::Digest;
use engarde_sgx::epc::PAGE_SIZE;

/// What a transferred page contains, as declared by the client.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PageKind {
    /// Executable code (overlaps a text section).
    Code,
    /// Everything else: data sections, ELF metadata, symbol tables.
    Data,
}

/// The client's description of the content it is about to send.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ContentManifest {
    /// Exact byte length of the ELF image.
    pub total_len: usize,
    /// Kind of each 4 KiB page chunk, in order.
    pub page_kinds: Vec<PageKind>,
}

impl ContentManifest {
    /// Number of page chunks described.
    pub fn page_count(&self) -> usize {
        self.page_kinds.len()
    }

    /// Serialises the manifest.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.page_kinds.len());
        out.extend_from_slice(b"MANI");
        out.extend_from_slice(&(self.total_len as u64).to_be_bytes());
        for k in &self.page_kinds {
            out.push(match k {
                PageKind::Code => 1,
                PageKind::Data => 0,
            });
        }
        out
    }

    /// Parses a manifest.
    ///
    /// # Errors
    ///
    /// Returns [`EngardeError::Protocol`] for malformed or inconsistent
    /// encodings.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EngardeError> {
        if bytes.len() < 12 || &bytes[0..4] != b"MANI" {
            return Err(EngardeError::Protocol {
                what: "malformed manifest header".into(),
            });
        }
        let total_len = header_u64(bytes)? as usize;
        let kinds: Result<Vec<PageKind>, EngardeError> = bytes[12..]
            .iter()
            .map(|&b| match b {
                1 => Ok(PageKind::Code),
                0 => Ok(PageKind::Data),
                other => Err(EngardeError::Protocol {
                    what: format!("unknown page kind {other}"),
                }),
            })
            .collect();
        let page_kinds = kinds?;
        if page_kinds.len() != total_len.div_ceil(PAGE_SIZE) {
            return Err(EngardeError::Protocol {
                what: format!(
                    "manifest declares {} pages for {} bytes",
                    page_kinds.len(),
                    total_len
                ),
            });
        }
        Ok(ContentManifest {
            total_len,
            page_kinds,
        })
    }
}

/// One page-chunk payload: index plus raw bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PagePayload {
    /// Page index within the content.
    pub index: usize,
    /// The chunk bytes (exactly one page, except possibly the last).
    pub data: Vec<u8>,
}

impl PagePayload {
    /// Serialises the payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.data.len());
        out.extend_from_slice(b"PAGE");
        out.extend_from_slice(&(self.index as u64).to_be_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses a payload.
    ///
    /// # Errors
    ///
    /// Returns [`EngardeError::Protocol`] for malformed encodings.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, EngardeError> {
        if bytes.len() < 12 || &bytes[0..4] != b"PAGE" {
            return Err(EngardeError::Protocol {
                what: "malformed page payload".into(),
            });
        }
        let index = header_u64(bytes)? as usize;
        let data = bytes[12..].to_vec();
        if data.is_empty() || data.len() > PAGE_SIZE {
            return Err(EngardeError::Protocol {
                what: format!("page payload of {} bytes", data.len()),
            });
        }
        Ok(PagePayload { index, data })
    }
}

/// The big-endian `u64` after a 4-byte message tag.
fn header_u64(bytes: &[u8]) -> Result<u64, EngardeError> {
    bytes
        .get(4..12)
        .and_then(|field| field.try_into().ok())
        .map(u64::from_be_bytes)
        .ok_or_else(|| EngardeError::Protocol {
            what: "truncated message header".into(),
        })
}

/// Classifies each page chunk of an image from its section layout and
/// rejects mixed pages.
///
/// `extents` are `(file_offset, size, is_text)` for every allocated
/// section with file contents.
///
/// # Errors
///
/// Returns [`EngardeError::MixedPage`] for a page overlapping both text
/// and non-text section bytes.
pub fn classify_pages(
    extents: &[(u64, u64, bool)],
    total_len: usize,
) -> Result<Vec<PageKind>, EngardeError> {
    let pages = total_len.div_ceil(PAGE_SIZE);
    let mut kinds = Vec::with_capacity(pages);
    for p in 0..pages {
        let start = (p * PAGE_SIZE) as u64;
        let end = start + PAGE_SIZE as u64;
        let mut code = false;
        let mut data = false;
        for &(off, size, is_text) in extents {
            if size == 0 {
                continue;
            }
            let overlaps = off < end && off + size > start;
            if overlaps {
                if is_text {
                    code = true;
                } else {
                    data = true;
                }
            }
        }
        match (code, data) {
            (true, true) => return Err(EngardeError::MixedPage { page: p }),
            (true, false) => kinds.push(PageKind::Code),
            _ => kinds.push(PageKind::Data),
        }
    }
    Ok(kinds)
}

/// Extracts the section extents [`classify_pages`] consumes from a
/// parsed ELF.
pub fn section_extents(elf: &engarde_elf::parse::ElfFile) -> Vec<(u64, u64, bool)> {
    elf.sections()
        .iter()
        .filter(|s| {
            s.header.sh_flags & engarde_elf::types::SHF_ALLOC != 0
                && s.header.sh_type != engarde_elf::types::SHT_NOBITS
                && s.header.sh_size > 0
        })
        .map(|s| (s.header.sh_offset, s.header.sh_size, s.is_text()))
        .collect()
}

/// The enclave's signed compliance verdict, verifiable by the client
/// against the enclave's attested public key. Any provider attempt to
/// lie about the verdict is therefore detectable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedVerdict {
    /// Whether the content satisfied every policy.
    pub compliant: bool,
    /// Human-readable detail (violation reason or policy summary).
    pub detail: String,
    /// SHA-256 of the received content, binding the verdict to it.
    pub content_digest: Digest,
    /// Enclave-key signature over the above.
    pub signature: Vec<u8>,
}

impl SignedVerdict {
    /// The byte string that is signed.
    pub fn message(compliant: bool, detail: &str, content_digest: &Digest) -> Vec<u8> {
        let mut msg = b"ENGARDE-VERDICT-V1".to_vec();
        msg.push(compliant as u8);
        msg.extend_from_slice(&(detail.len() as u64).to_be_bytes());
        msg.extend_from_slice(detail.as_bytes());
        msg.extend_from_slice(content_digest.as_bytes());
        msg
    }

    /// Verifies the signature with the enclave's public key.
    ///
    /// # Errors
    ///
    /// Returns [`EngardeError::Crypto`] when the signature does not
    /// verify — the provider tampered with the verdict.
    pub fn verify(
        &self,
        enclave_key: &engarde_crypto::rsa::RsaPublicKey,
    ) -> Result<(), EngardeError> {
        let msg = Self::message(self.compliant, &self.detail, &self.content_digest);
        enclave_key.verify(&msg, &self.signature)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip() {
        let m = ContentManifest {
            total_len: PAGE_SIZE * 2 + 100,
            page_kinds: vec![PageKind::Data, PageKind::Code, PageKind::Data],
        };
        let parsed = ContentManifest::from_bytes(&m.to_bytes()).expect("parses");
        assert_eq!(parsed, m);
        assert_eq!(parsed.page_count(), 3);
    }

    #[test]
    fn manifest_rejects_garbage_and_inconsistency() {
        assert!(ContentManifest::from_bytes(b"").is_err());
        assert!(ContentManifest::from_bytes(b"XXXX00000000").is_err());
        // Wrong page count for the length.
        let m = ContentManifest {
            total_len: PAGE_SIZE * 5,
            page_kinds: vec![PageKind::Data; 2],
        };
        assert!(ContentManifest::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn page_payload_round_trip() {
        let p = PagePayload {
            index: 7,
            data: vec![0xab; PAGE_SIZE],
        };
        assert_eq!(PagePayload::from_bytes(&p.to_bytes()).expect("parses"), p);
        // Oversized payloads rejected.
        let big = PagePayload {
            index: 0,
            data: vec![0; PAGE_SIZE + 1],
        };
        assert!(PagePayload::from_bytes(&big.to_bytes()).is_err());
        assert!(PagePayload::from_bytes(b"PAGE").is_err());
    }

    #[test]
    fn classification_clean_layout() {
        // Headers page, text pages, data page — no overlap.
        let extents = [
            (0x1000, 0x1800, true), // text spans pages 1-2
            (0x3000, 0x500, false), // data on page 3
        ];
        let kinds = classify_pages(&extents, 0x3500).expect("clean");
        assert_eq!(
            kinds,
            vec![
                PageKind::Data,
                PageKind::Code,
                PageKind::Code,
                PageKind::Data
            ]
        );
    }

    #[test]
    fn classification_rejects_mixed_page() {
        // Text ends mid-page and data begins on the same page.
        let extents = [(0x1000, 0x800, true), (0x1800, 0x100, false)];
        let err = classify_pages(&extents, 0x2000).unwrap_err();
        assert!(matches!(err, EngardeError::MixedPage { page: 1 }));
    }

    #[test]
    fn generated_workloads_classify_cleanly() {
        use engarde_workloads::generator::{generate, WorkloadSpec};
        let w = generate(&WorkloadSpec {
            target_instructions: 6_000,
            ..WorkloadSpec::default()
        });
        let elf = engarde_elf::parse::ElfFile::parse(&w.image).expect("parses");
        let kinds = classify_pages(&section_extents(&elf), w.image.len()).expect("clean layout");
        assert!(kinds.contains(&PageKind::Code));
        assert!(kinds.contains(&PageKind::Data));
    }

    #[test]
    fn verdict_sign_verify_round_trip() {
        use engarde_crypto::rsa::RsaKeyPair;
        use engarde_crypto::sha256::Sha256;
        use engarde_rand::SeedableRng;
        let mut rng = engarde_rand::StdRng::seed_from_u64(3);
        let kp = RsaKeyPair::generate(&mut rng, 512);
        let digest = Sha256::digest(b"content");
        let msg = SignedVerdict::message(true, "ok", &digest);
        let verdict = SignedVerdict {
            compliant: true,
            detail: "ok".into(),
            content_digest: digest,
            signature: kp.sign(&msg).expect("sign"),
        };
        verdict.verify(kp.public()).expect("verifies");
        // Provider flips the verdict → detected.
        let mut forged = verdict.clone();
        forged.compliant = false;
        assert!(forged.verify(kp.public()).is_err());
    }
}
