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
use engarde_elf::parse::ElfFile;
use engarde_sgx::epc::PAGE_SIZE;

/// What a transferred page contains, as declared by the client.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PageKind {
    /// Executable code (holds file bytes of the executable segment).
    Code,
    /// Everything else: data segments, ELF metadata, symbol tables.
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

/// Classifies each page chunk of an image from its validated `PT_LOAD`
/// segments and rejects mixed pages. A page holding file bytes of the
/// executable segment is code; every other page is data. Client and
/// enclave both call this, on the same [`ElfFile`] view the loader
/// decodes and the mapper maps.
///
/// # Errors
///
/// Returns [`EngardeError::MixedPage`] for a page holding file bytes of
/// both the executable segment and another segment.
pub fn classify_pages(elf: &ElfFile, total_len: usize) -> Result<Vec<PageKind>, EngardeError> {
    // (code, data) marks per page.
    let mut marks = vec![(false, false); total_len.div_ceil(PAGE_SIZE)];
    for ph in elf.load_segments().filter(|ph| ph.p_filesz > 0) {
        // The parser checked that the range lies inside the image.
        let first = ph.p_offset as usize / PAGE_SIZE;
        let last = (ph.p_offset + ph.p_filesz - 1) as usize / PAGE_SIZE;
        for mark in marks.get_mut(first..=last).unwrap_or_default() {
            if ph.is_executable() {
                mark.0 = true;
            } else {
                mark.1 = true;
            }
        }
    }
    marks
        .iter()
        .enumerate()
        .map(|(page, mark)| match mark {
            (true, true) => Err(EngardeError::MixedPage { page }),
            (true, false) => Ok(PageKind::Code),
            _ => Ok(PageKind::Data),
        })
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

    /// An image with `text_len` bytes of `ret` and `data_len` of data.
    fn image(text_len: usize, data_len: usize) -> Vec<u8> {
        engarde_elf::build::ElfBuilder::new()
            .text(vec![0xc3; text_len])
            .data(vec![0; data_len])
            .build()
    }

    #[test]
    fn classification_clean_layout() {
        // Headers page, text pages 1-2, data on page 3 followed by the
        // symbol and section tables, which no segment maps.
        let img = image(0x1800, 0x500);
        let elf = ElfFile::parse(&img).expect("parses");
        let kinds = classify_pages(&elf, img.len()).expect("clean");
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
        // Text ends mid-page 1 and the RW segment's file bytes are moved
        // onto the same page (its virtual range stays on its own page).
        let mut img = image(0x800, 0x100);
        let elf = ElfFile::parse(&img).expect("parses");
        let (index, mut rw) = elf
            .program_headers()
            .iter()
            .copied()
            .enumerate()
            .find(|(_, ph)| ph.is_load() && ph.is_writable())
            .expect("rw segment");
        rw.p_offset = 0x1800;
        let off = elf.header().e_phoff as usize + index * engarde_elf::types::PHDR_SIZE;
        img[off..off + engarde_elf::types::PHDR_SIZE].copy_from_slice(&rw.to_bytes());
        let elf = ElfFile::parse(&img).expect("still parses");
        let err = classify_pages(&elf, img.len()).unwrap_err();
        assert!(matches!(err, EngardeError::MixedPage { page: 1 }));
    }

    #[test]
    fn generated_workloads_classify_cleanly() {
        use engarde_workloads::generator::{generate, WorkloadSpec};
        let w = generate(&WorkloadSpec {
            target_instructions: 6_000,
            ..WorkloadSpec::default()
        });
        let elf = ElfFile::parse(&w.image).expect("parses");
        let kinds = classify_pages(&elf, w.image.len()).expect("clean layout");
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
