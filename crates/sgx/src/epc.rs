//! The Encrypted Page Cache (EPC) and its metadata (EPCM).
//!
//! Physical enclave pages live in the EPC, a reserved region of physical
//! memory whose contents the hardware encrypts with a machine-local key.
//! The EPCM tracks, for every EPC page, whether it is valid, which enclave
//! owns it, its type, the enclave-linear address it backs, and (from SGX
//! version 2 onward) hardware-enforced access permissions.
//!
//! The paper's prototype raises OpenSGX's EPC from its stock 2,000 pages
//! to **32,000 pages (128 MiB)** so the client binary plus its decoded
//! instruction buffer fit; both sizes are exposed here as constants.

use engarde_crypto::aes::{ctr_xor, AesKey};
use std::fmt;

/// Size of one EPC page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// OpenSGX's stock EPC size in pages (2,000 pages = 8 MiB).
pub const OPENSGX_DEFAULT_EPC_PAGES: usize = 2_000;

/// The paper's enlarged EPC size in pages (32,000 pages = 128 MiB).
pub const ENGARDE_EPC_PAGES: usize = 32_000;

/// Access permissions of an enclave page.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct PagePerms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl PagePerms {
    /// Read-only.
    pub const R: PagePerms = PagePerms {
        r: true,
        w: false,
        x: false,
    };
    /// Read-write.
    pub const RW: PagePerms = PagePerms {
        r: true,
        w: true,
        x: false,
    };
    /// Read-execute.
    pub const RX: PagePerms = PagePerms {
        r: true,
        w: false,
        x: true,
    };
    /// Read-write-execute (initial EADD permissions before EnGarde locks
    /// them down).
    pub const RWX: PagePerms = PagePerms {
        r: true,
        w: true,
        x: true,
    };

    /// Intersection of two permission sets (page-table ∩ EPCM).
    pub fn intersect(self, other: PagePerms) -> PagePerms {
        PagePerms {
            r: self.r && other.r,
            w: self.w && other.w,
            x: self.x && other.x,
        }
    }

    /// True if these permissions satisfy W^X.
    pub fn is_wx_exclusive(self) -> bool {
        !(self.w && self.x)
    }
}

impl fmt::Display for PagePerms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.r { 'r' } else { '-' },
            if self.w { 'w' } else { '-' },
            if self.x { 'x' } else { '-' }
        )
    }
}

/// EPCM page types (subset of the SGX page types).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PageType {
    /// SGX Enclave Control Structure page (one per enclave).
    Secs,
    /// Regular enclave page (code or data).
    Reg,
    /// Thread Control Structure page.
    Tcs,
}

/// One EPCM entry: hardware metadata for one EPC page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpcmEntry {
    /// Whether the page is in use.
    pub valid: bool,
    /// Page type.
    pub page_type: PageType,
    /// Owning enclave.
    pub enclave_id: u64,
    /// Enclave-linear (virtual) address the page backs.
    pub vaddr: u64,
    /// Hardware permissions (enforced from SGX v2 onward).
    pub perms: PagePerms,
    /// Set once the page's permissions may no longer be relaxed by the
    /// host (used by EMODPR/EACCEPT flows).
    pub perms_locked: bool,
}

/// The encrypted page cache: backing store plus EPCM.
///
/// Page contents are stored encrypted, standing in for the hardware's
/// memory encryption engine (MEE): page `idx` is AES-256-CTR under the
/// machine's MEE key with nonce `idx‖0` and block counter `offset / 16`.
/// CTR is seekable, so reads and writes touch only the 16-byte blocks
/// their byte range overlaps — the real MEE likewise works per 64-byte
/// cache line, never per page. [`Epc::read_plaintext`] and
/// [`Epc::read_plaintext_at`] are the in-enclave view,
/// [`Epc::read_ciphertext`] is what an adversary probing the memory bus
/// would observe.
pub struct Epc {
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    epcm: Vec<Option<EpcmEntry>>,
    mee: AesKey,
    free_hint: usize,
}

impl fmt::Debug for Epc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Epc({} pages, {} in use)",
            self.pages.len(),
            self.used_pages()
        )
    }
}

/// Errors from EPC page management.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum EpcError {
    /// All EPC pages are in use.
    OutOfPages,
    /// The page index is out of range or not valid.
    BadPage,
}

impl fmt::Display for EpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpcError::OutOfPages => write!(f, "encrypted page cache is out of pages"),
            EpcError::BadPage => write!(f, "invalid EPC page reference"),
        }
    }
}

impl std::error::Error for EpcError {}

impl Epc {
    /// Creates an EPC with `num_pages` pages and the given memory
    /// encryption key.
    pub fn new(num_pages: usize, mee_key: [u8; 32]) -> Self {
        Epc {
            pages: (0..num_pages).map(|_| None).collect(),
            epcm: vec![None; num_pages],
            mee: AesKey::new_256(&mee_key),
            free_hint: 0,
        }
    }

    /// Total number of EPC pages.
    pub fn total_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of valid (in-use) pages.
    pub fn used_pages(&self) -> usize {
        self.epcm.iter().filter(|e| e.is_some()).count()
    }

    /// Allocates a page, storing `data` encrypted, and installs the EPCM
    /// entry. Returns the page index.
    ///
    /// # Errors
    ///
    /// Returns [`EpcError::OutOfPages`] when the EPC is exhausted — with
    /// OpenSGX's stock 2,000-page EPC this is exactly the failure the
    /// paper hit, motivating the 32,000-page configuration.
    pub fn alloc(&mut self, entry: EpcmEntry, data: &[u8]) -> Result<usize, EpcError> {
        let start = self.free_hint;
        let n = self.pages.len();
        for k in 0..n {
            let idx = (start + k) % n;
            if self.epcm[idx].is_none() {
                let mut page = Box::new([0u8; PAGE_SIZE]);
                let len = data.len().min(PAGE_SIZE);
                page[..len].copy_from_slice(&data[..len]);
                mee_xor(&self.mee, idx, 0, &mut page[..]);
                self.pages[idx] = Some(page);
                self.epcm[idx] = Some(entry);
                self.free_hint = (idx + 1) % n;
                return Ok(idx);
            }
        }
        Err(EpcError::OutOfPages)
    }

    /// Frees a page (EREMOVE), scrubbing its contents.
    ///
    /// # Errors
    ///
    /// Returns [`EpcError::BadPage`] for an invalid index.
    pub fn free(&mut self, idx: usize) -> Result<(), EpcError> {
        if idx >= self.pages.len() || self.epcm[idx].is_none() {
            return Err(EpcError::BadPage);
        }
        self.pages[idx] = None;
        self.epcm[idx] = None;
        Ok(())
    }

    /// Frees every page owned by `enclave_id` (SECS included), scrubbing
    /// contents. Returns the number of pages released — the bulk-reclaim
    /// path behind enclave teardown.
    pub fn free_owned(&mut self, enclave_id: u64) -> usize {
        let mut freed = 0;
        for idx in 0..self.epcm.len() {
            if self.epcm[idx].is_some_and(|e| e.enclave_id == enclave_id) {
                self.pages[idx] = None;
                self.epcm[idx] = None;
                freed += 1;
            }
        }
        freed
    }

    /// The EPCM entry for a page.
    pub fn epcm(&self, idx: usize) -> Option<&EpcmEntry> {
        self.epcm.get(idx).and_then(|e| e.as_ref())
    }

    /// Mutable EPCM entry (used by EMODPE/EMODPR).
    pub fn epcm_mut(&mut self, idx: usize) -> Option<&mut EpcmEntry> {
        self.epcm.get_mut(idx).and_then(|e| e.as_mut())
    }

    /// Reads plaintext page contents — the view from *inside* the
    /// enclave (the hardware decrypts within the cache hierarchy).
    ///
    /// # Errors
    ///
    /// Returns [`EpcError::BadPage`] for an invalid index.
    pub fn read_plaintext(&self, idx: usize) -> Result<[u8; PAGE_SIZE], EpcError> {
        let mut out = [0u8; PAGE_SIZE];
        self.read_plaintext_at(idx, 0, &mut out)?;
        Ok(out)
    }

    /// Reads the plaintext bytes `[offset, offset + out.len())` of a page
    /// into `out`, decrypting only the CTR blocks that range overlaps.
    ///
    /// # Errors
    ///
    /// Returns [`EpcError::BadPage`] for an invalid index or a range that
    /// does not fit in the page.
    pub fn read_plaintext_at(
        &self,
        idx: usize,
        offset: usize,
        out: &mut [u8],
    ) -> Result<(), EpcError> {
        let end = page_range_end(offset, out.len())?;
        let page = self
            .pages
            .get(idx)
            .and_then(|p| p.as_ref())
            .ok_or(EpcError::BadPage)?;
        out.copy_from_slice(&page[offset..end]);
        mee_xor(&self.mee, idx, offset, out);
        Ok(())
    }

    /// Reads raw (encrypted) page contents — what an adversary observing
    /// the memory bus sees.
    ///
    /// # Errors
    ///
    /// Returns [`EpcError::BadPage`] for an invalid index.
    pub fn read_ciphertext(&self, idx: usize) -> Result<[u8; PAGE_SIZE], EpcError> {
        self.pages
            .get(idx)
            .and_then(|p| p.as_ref())
            .map(|p| **p)
            .ok_or(EpcError::BadPage)
    }

    /// Overwrites plaintext bytes `[offset, offset + data.len())` of a
    /// page (in-enclave write), re-encrypting only the CTR blocks that
    /// range overlaps.
    ///
    /// # Errors
    ///
    /// Returns [`EpcError::BadPage`] for an invalid index or a range that
    /// does not fit in the page.
    pub fn write_plaintext(
        &mut self,
        idx: usize,
        offset: usize,
        data: &[u8],
    ) -> Result<(), EpcError> {
        let end = page_range_end(offset, data.len())?;
        let page = self
            .pages
            .get_mut(idx)
            .and_then(|p| p.as_mut())
            .ok_or(EpcError::BadPage)?;
        let dst = &mut page[offset..end];
        dst.copy_from_slice(data);
        mee_xor(&self.mee, idx, offset, dst);
        Ok(())
    }
}

/// End of the byte range `[offset, offset + len)` within one page, or
/// [`EpcError::BadPage`] if it overflows or runs past the page.
fn page_range_end(offset: usize, len: usize) -> Result<usize, EpcError> {
    offset
        .checked_add(len)
        .filter(|&end| end <= PAGE_SIZE)
        .ok_or(EpcError::BadPage)
}

/// XORs `buf`, the bytes at `offset` of page `idx`, with the MEE
/// keystream for those bytes: an unaligned head takes its bytes out of
/// one keystream block, the rest is CTR from the next block boundary.
/// Involutive, so it both encrypts and decrypts.
fn mee_xor(mee: &AesKey, idx: usize, offset: usize, buf: &mut [u8]) {
    let mut nonce = [0u8; 16];
    nonce[0..8].copy_from_slice(&(idx as u64).to_be_bytes());
    let skip = offset % 16;
    let head_len = ((16 - skip) % 16).min(buf.len());
    let (head, body) = buf.split_at_mut(head_len);
    if !head.is_empty() {
        let mut block = [0u8; 16];
        block[skip..skip + head.len()].copy_from_slice(head);
        ctr_xor(mee, &nonce, (offset / 16) as u64, &mut block);
        head.copy_from_slice(&block[skip..skip + head.len()]);
    }
    ctr_xor(mee, &nonce, offset.div_ceil(16) as u64, body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(enclave: u64, vaddr: u64) -> EpcmEntry {
        EpcmEntry {
            valid: true,
            page_type: PageType::Reg,
            enclave_id: enclave,
            vaddr,
            perms: PagePerms::RW,
            perms_locked: false,
        }
    }

    #[test]
    fn perms_display_and_wx() {
        assert_eq!(PagePerms::RX.to_string(), "r-x");
        assert_eq!(PagePerms::RW.to_string(), "rw-");
        assert!(PagePerms::RX.is_wx_exclusive());
        assert!(!PagePerms::RWX.is_wx_exclusive());
        assert_eq!(PagePerms::RWX.intersect(PagePerms::R), PagePerms::R);
        assert_eq!(PagePerms::RX.intersect(PagePerms::RW), PagePerms::R);
    }

    #[test]
    fn alloc_read_round_trip() {
        let mut epc = Epc::new(4, [7u8; 32]);
        let data = vec![0xabu8; 100];
        let idx = epc.alloc(entry(1, 0x1000), &data).expect("alloc");
        let plain = epc.read_plaintext(idx).expect("read");
        assert_eq!(&plain[..100], &data[..]);
        assert!(plain[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let mut epc = Epc::new(4, [9u8; 32]);
        let data = vec![0x55u8; PAGE_SIZE];
        let idx = epc.alloc(entry(1, 0x1000), &data).expect("alloc");
        let cipher = epc.read_ciphertext(idx).expect("cipher");
        assert_ne!(&cipher[..], &data[..], "bus view must be encrypted");
        assert_eq!(&epc.read_plaintext(idx).expect("plain")[..], &data[..]);
    }

    #[test]
    fn same_plaintext_different_pages_different_ciphertext() {
        let mut epc = Epc::new(4, [9u8; 32]);
        let data = vec![0x55u8; PAGE_SIZE];
        let a = epc.alloc(entry(1, 0x1000), &data).expect("alloc");
        let b = epc.alloc(entry(1, 0x2000), &data).expect("alloc");
        assert_ne!(
            epc.read_ciphertext(a).expect("a")[..],
            epc.read_ciphertext(b).expect("b")[..],
            "per-page tweak must differ"
        );
    }

    #[test]
    fn exhaustion_returns_out_of_pages() {
        let mut epc = Epc::new(2, [0u8; 32]);
        epc.alloc(entry(1, 0), &[]).expect("page 0");
        epc.alloc(entry(1, 0x1000), &[]).expect("page 1");
        assert_eq!(epc.alloc(entry(1, 0x2000), &[]), Err(EpcError::OutOfPages));
        assert_eq!(epc.used_pages(), 2);
    }

    #[test]
    fn free_and_reuse() {
        let mut epc = Epc::new(2, [0u8; 32]);
        let a = epc.alloc(entry(1, 0), &[1, 2, 3]).expect("alloc");
        epc.free(a).expect("free");
        assert_eq!(epc.used_pages(), 0);
        assert!(epc.read_plaintext(a).is_err());
        // Page is reusable.
        let b = epc.alloc(entry(2, 0), &[9]).expect("realloc");
        assert_eq!(epc.read_plaintext(b).expect("read")[0], 9);
    }

    #[test]
    fn free_invalid_page_fails() {
        let mut epc = Epc::new(2, [0u8; 32]);
        assert_eq!(epc.free(0), Err(EpcError::BadPage));
        assert_eq!(epc.free(99), Err(EpcError::BadPage));
    }

    #[test]
    fn write_plaintext_round_trip() {
        let mut epc = Epc::new(2, [3u8; 32]);
        let idx = epc.alloc(entry(1, 0), &[0u8; 16]).expect("alloc");
        epc.write_plaintext(idx, 8, &[1, 2, 3, 4]).expect("write");
        let plain = epc.read_plaintext(idx).expect("read");
        assert_eq!(&plain[8..12], &[1, 2, 3, 4]);
        assert_eq!(plain[0], 0);
        // Out-of-bounds write rejected.
        assert!(epc.write_plaintext(idx, PAGE_SIZE - 2, &[0; 4]).is_err());
    }

    #[test]
    fn hostile_ranges_are_bad_page_not_panics() {
        let mut epc = Epc::new(2, [3u8; 32]);
        let idx = epc.alloc(entry(1, 0), &[0u8; 16]).expect("alloc");
        let mut out = [0u8; 1];
        for offset in [usize::MAX, usize::MAX - 1, PAGE_SIZE] {
            assert_eq!(
                epc.write_plaintext(idx, offset, &[1]),
                Err(EpcError::BadPage)
            );
            assert_eq!(
                epc.read_plaintext_at(idx, offset, &mut out),
                Err(EpcError::BadPage)
            );
        }
        // An empty range at the page end is in bounds.
        epc.write_plaintext(idx, PAGE_SIZE, &[])
            .expect("empty write");
        assert_eq!(
            epc.read_plaintext_at(99, 0, &mut out),
            Err(EpcError::BadPage)
        );
    }

    #[test]
    fn epcm_entries_tracked() {
        let mut epc = Epc::new(2, [0u8; 32]);
        let idx = epc.alloc(entry(42, 0x5000), &[]).expect("alloc");
        let e = epc.epcm(idx).expect("entry");
        assert_eq!(e.enclave_id, 42);
        assert_eq!(e.vaddr, 0x5000);
        epc.epcm_mut(idx).expect("entry").perms = PagePerms::RX;
        assert_eq!(epc.epcm(idx).expect("entry").perms, PagePerms::RX);
    }

    #[test]
    fn paper_epc_sizes() {
        // "We modified OpenSGX to increase the default number of EPC
        // pages to 32000 which translates to 128 MB" (4 KiB pages,
        // decimal megabytes as the paper counts them).
        assert_eq!(OPENSGX_DEFAULT_EPC_PAGES, 2_000);
        assert_eq!(ENGARDE_EPC_PAGES, 32_000);
        assert_eq!(ENGARDE_EPC_PAGES * PAGE_SIZE, 131_072_000);
        assert_eq!(ENGARDE_EPC_PAGES * PAGE_SIZE / 1_000_000, 131); // ≈128 MB
    }
}
