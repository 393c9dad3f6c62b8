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

// Page indices and byte ranges here come from enclave addresses and
// in-enclave reads and writes.
#![deny(clippy::indexing_slicing)]

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
///
/// A page allocated with no data or only zeros (the SECS, an `EAUG`
/// page, the zeroed client region) gets no backing: a valid page without
/// backing holds zeros. Reading it decrypts nothing, its bus view is the
/// page's keystream computed on demand (the bytes an encrypted zero page
/// would hold), and its first write materialises the encrypted zero page
/// before writing as usual. Nothing outside the EPC can tell the two
/// states apart.
pub struct Epc {
    slots: Vec<Option<EpcSlot>>,
    mee: AesKey,
    free_hint: usize,
}

/// A valid EPC page: its EPCM entry and, unless the page holds only
/// zeros, its encrypted contents.
struct EpcSlot {
    entry: EpcmEntry,
    backing: Option<Box<[u8; PAGE_SIZE]>>,
}

impl fmt::Debug for Epc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Epc({} pages, {} in use)",
            self.slots.len(),
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
            slots: (0..num_pages).map(|_| None).collect(),
            mee: AesKey::new_256(&mee_key),
            free_hint: 0,
        }
    }

    /// Number of valid (in-use) pages.
    pub fn used_pages(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Number of valid pages that hold encrypted contents; the others
    /// hold only zeros and have no backing.
    pub(crate) fn backed_pages(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|slot| slot.backing.is_some())
            .count()
    }

    /// Allocates a page holding `data` zero-extended to a page, and
    /// installs the EPCM entry. Returns the page index.
    ///
    /// # Errors
    ///
    /// Returns [`EpcError::OutOfPages`] when the EPC is exhausted — with
    /// OpenSGX's stock 2,000-page EPC this is exactly the failure the
    /// paper hit, motivating the 32,000-page configuration.
    pub fn alloc(&mut self, entry: EpcmEntry, data: &[u8]) -> Result<usize, EpcError> {
        let hint = self.free_hint.min(self.slots.len());
        let (before, after) = self.slots.split_at_mut(hint);
        let (idx, slot) = after
            .iter_mut()
            .enumerate()
            .map(|(k, slot)| (hint + k, slot))
            .chain(before.iter_mut().enumerate())
            .find(|(_, slot)| slot.is_none())
            .ok_or(EpcError::OutOfPages)?;
        let data = data.get(..PAGE_SIZE).unwrap_or(data);
        let backing = if data.iter().all(|&b| b == 0) {
            None
        } else {
            let mut page = Box::new([0u8; PAGE_SIZE]);
            page.iter_mut().zip(data).for_each(|(p, &d)| *p = d);
            mee_xor(&self.mee, idx, 0, &mut page[..]);
            Some(page)
        };
        *slot = Some(EpcSlot { entry, backing });
        self.free_hint = (idx + 1) % self.slots.len();
        Ok(idx)
    }

    /// Frees a page (EREMOVE), scrubbing its contents.
    ///
    /// # Errors
    ///
    /// Returns [`EpcError::BadPage`] for an invalid index.
    pub fn free(&mut self, idx: usize) -> Result<(), EpcError> {
        self.slots
            .get_mut(idx)
            .and_then(Option::take)
            .map(drop)
            .ok_or(EpcError::BadPage)
    }

    fn slot(&self, idx: usize) -> Result<&EpcSlot, EpcError> {
        self.slots
            .get(idx)
            .and_then(Option::as_ref)
            .ok_or(EpcError::BadPage)
    }

    /// The EPCM entry for a page.
    pub fn epcm(&self, idx: usize) -> Option<&EpcmEntry> {
        self.slot(idx).ok().map(|slot| &slot.entry)
    }

    /// Mutable EPCM entry (used by EMODPE/EMODPR).
    pub fn epcm_mut(&mut self, idx: usize) -> Option<&mut EpcmEntry> {
        self.slots
            .get_mut(idx)
            .and_then(Option::as_mut)
            .map(|slot| &mut slot.entry)
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
        match &self.slot(idx)?.backing {
            None => out.fill(0),
            Some(page) => {
                out.copy_from_slice(page.get(offset..end).ok_or(EpcError::BadPage)?);
                mee_xor(&self.mee, idx, offset, out);
            }
        }
        Ok(())
    }

    /// Reads raw (encrypted) page contents — what an adversary observing
    /// the memory bus sees.
    ///
    /// # Errors
    ///
    /// Returns [`EpcError::BadPage`] for an invalid index.
    pub fn read_ciphertext(&self, idx: usize) -> Result<[u8; PAGE_SIZE], EpcError> {
        Ok(match &self.slot(idx)?.backing {
            Some(page) => **page,
            None => encrypted_zero_page(&self.mee, idx),
        })
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
        let slot = self
            .slots
            .get_mut(idx)
            .and_then(Option::as_mut)
            .ok_or(EpcError::BadPage)?;
        let page = slot
            .backing
            .get_or_insert_with(|| Box::new(encrypted_zero_page(&self.mee, idx)));
        let dst = page.get_mut(offset..end).ok_or(EpcError::BadPage)?;
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

/// The stored bytes of page `idx` holding only zeros: its keystream.
fn encrypted_zero_page(mee: &AesKey, idx: usize) -> [u8; PAGE_SIZE] {
    let mut page = [0u8; PAGE_SIZE];
    mee_xor(mee, idx, 0, &mut page);
    page
}

/// XORs `buf`, the bytes at `offset` of page `idx`, with the MEE
/// keystream for those bytes: an unaligned head takes its bytes out of
/// one keystream block, the rest is CTR from the next block boundary.
/// Involutive, so it both encrypts and decrypts.
fn mee_xor(mee: &AesKey, idx: usize, offset: usize, buf: &mut [u8]) {
    // `idx` big-endian in the nonce's first eight bytes, zeros after.
    let nonce = (u128::from(idx as u64) << 64).to_be_bytes();
    let skip = offset % 16;
    let head_len = ((16 - skip) % 16).min(buf.len());
    let (head, body) = buf.split_at_mut(head_len);
    if !head.is_empty() {
        let mut keystream = [0u8; 16];
        ctr_xor(mee, &nonce, (offset / 16) as u64, &mut keystream);
        for (b, k) in head.iter_mut().zip(keystream.iter().skip(skip)) {
            *b ^= k;
        }
    }
    ctr_xor(mee, &nonce, offset.div_ceil(16) as u64, body);
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
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

    /// An EPC that stores every page eagerly as full plaintext and full
    /// ciphertext, re-encrypting the whole page on every write: the
    /// reference the real EPC must be indistinguishable from.
    struct EagerEpc {
        mee: AesKey,
        slots: Vec<Option<EagerPage>>,
        free_hint: usize,
    }

    #[derive(Clone)]
    struct EagerPage {
        entry: EpcmEntry,
        plain: [u8; PAGE_SIZE],
        cipher: [u8; PAGE_SIZE],
    }

    impl EagerEpc {
        fn new(num_pages: usize, mee_key: [u8; 32]) -> Self {
            EagerEpc {
                mee: AesKey::new_256(&mee_key),
                slots: vec![None; num_pages],
                free_hint: 0,
            }
        }

        fn seal(&self, idx: usize, plain: &[u8; PAGE_SIZE]) -> [u8; PAGE_SIZE] {
            let mut nonce = [0u8; 16];
            nonce[..8].copy_from_slice(&(idx as u64).to_be_bytes());
            let mut cipher = *plain;
            ctr_xor(&self.mee, &nonce, 0, &mut cipher);
            cipher
        }

        fn alloc(&mut self, entry: EpcmEntry, data: &[u8]) -> Result<usize, EpcError> {
            let n = self.slots.len();
            let idx = (0..n)
                .map(|k| (self.free_hint + k) % n)
                .find(|&i| self.slots[i].is_none())
                .ok_or(EpcError::OutOfPages)?;
            let mut plain = [0u8; PAGE_SIZE];
            let len = data.len().min(PAGE_SIZE);
            plain[..len].copy_from_slice(&data[..len]);
            let cipher = self.seal(idx, &plain);
            self.slots[idx] = Some(EagerPage {
                entry,
                plain,
                cipher,
            });
            self.free_hint = (idx + 1) % n;
            Ok(idx)
        }

        fn page(&self, idx: usize) -> Result<&[u8; PAGE_SIZE], EpcError> {
            match self.slots.get(idx) {
                Some(Some(page)) => Ok(&page.plain),
                _ => Err(EpcError::BadPage),
            }
        }

        fn read_at(&self, idx: usize, offset: usize, len: usize) -> Result<Vec<u8>, EpcError> {
            let plain = self.page(idx)?;
            match offset.checked_add(len) {
                Some(end) if end <= PAGE_SIZE => Ok(plain[offset..end].to_vec()),
                _ => Err(EpcError::BadPage),
            }
        }

        fn write(&mut self, idx: usize, offset: usize, data: &[u8]) -> Result<(), EpcError> {
            let mut plain = *self.page(idx)?;
            match offset.checked_add(data.len()) {
                Some(end) if end <= PAGE_SIZE => plain[offset..end].copy_from_slice(data),
                _ => return Err(EpcError::BadPage),
            }
            let cipher = self.seal(idx, &plain);
            if let Some(Some(page)) = self.slots.get_mut(idx) {
                page.plain = plain;
                page.cipher = cipher;
            }
            Ok(())
        }

        fn ciphertext(&self, idx: usize) -> Result<[u8; PAGE_SIZE], EpcError> {
            match self.slots.get(idx) {
                Some(Some(page)) => Ok(page.cipher),
                _ => Err(EpcError::BadPage),
            }
        }

        fn free(&mut self, idx: usize) -> Result<(), EpcError> {
            self.page(idx)?;
            self.slots[idx] = None;
            Ok(())
        }
    }

    #[test]
    fn random_operations_match_an_eager_epc() {
        use engarde_rand::harness::{pick, vec_u8, Property};
        use engarde_rand::{Rng, RngCore};

        Property::new("random_operations_match_an_eager_epc")
            .cases(96)
            .run(|rng| {
                let pages = rng.gen_range(1..8usize);
                let key: [u8; 32] = rng.gen();
                let mut epc = Epc::new(pages, key);
                let mut eager = EagerEpc::new(pages, key);
                // Indices one past the EPC too, so bad references are
                // exercised on every path.
                let any_idx = |rng: &mut engarde_rand::ChaChaRng| rng.gen_range(0..pages + 2);
                let any_range = |rng: &mut engarde_rand::ChaChaRng| match rng.gen_range(0..4) {
                    0 => (0, PAGE_SIZE),
                    1 => (rng.gen_range(0..=PAGE_SIZE), 0),
                    2 => {
                        let offset = rng.gen_range(0..PAGE_SIZE);
                        (offset, rng.gen_range(0..=PAGE_SIZE - offset))
                    }
                    _ => (
                        *pick(rng, &[PAGE_SIZE - 1, PAGE_SIZE, usize::MAX]),
                        rng.gen_range(1..40),
                    ),
                };
                for _ in 0..rng.gen_range(1..60) {
                    match rng.gen_range(0..6) {
                        0 | 1 => {
                            let e = entry(rng.gen_range(1..4), rng.gen::<u64>() & !0xfff);
                            let data = match rng.gen_range(0..5) {
                                0 => Vec::new(),
                                1 => vec_u8(rng, 1..PAGE_SIZE),
                                2 => vec![0u8; rng.gen_range(1..=PAGE_SIZE)],
                                3 => vec_u8(rng, PAGE_SIZE..PAGE_SIZE + 1),
                                _ => {
                                    // Zeros but one byte, anywhere.
                                    let mut d = vec![0u8; rng.gen_range(1..=PAGE_SIZE)];
                                    let at = rng.gen_range(0..d.len());
                                    d[at] = rng.gen_range(1..=255);
                                    d
                                }
                            };
                            assert_eq!(epc.alloc(e, &data), eager.alloc(e, &data));
                        }
                        2 => {
                            let idx = any_idx(rng);
                            let (offset, len) = any_range(rng);
                            let len = len.min(2 * PAGE_SIZE);
                            let mut out = vec![0xa5u8; len];
                            let got = epc.read_plaintext_at(idx, offset, &mut out).map(|()| out);
                            assert_eq!(got, eager.read_at(idx, offset, len));
                        }
                        3 => {
                            let idx = any_idx(rng);
                            let (offset, len) = any_range(rng);
                            let mut data = vec![0u8; len.min(2 * PAGE_SIZE)];
                            if rng.gen_bool(0.7) {
                                rng.fill_bytes(&mut data);
                            }
                            assert_eq!(
                                epc.write_plaintext(idx, offset, &data),
                                eager.write(idx, offset, &data)
                            );
                        }
                        4 => {
                            let idx = any_idx(rng);
                            assert_eq!(epc.read_ciphertext(idx), eager.ciphertext(idx));
                        }
                        _ => {
                            let idx = any_idx(rng);
                            assert_eq!(epc.free(idx), eager.free(idx));
                        }
                    }
                    assert_eq!(epc.used_pages(), eager.slots.iter().flatten().count());
                    for idx in 0..pages {
                        assert_eq!(epc.epcm(idx), eager.slots[idx].as_ref().map(|p| &p.entry));
                        assert_eq!(epc.read_plaintext(idx).ok().as_ref(), eager.page(idx).ok());
                    }
                }
            });
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
